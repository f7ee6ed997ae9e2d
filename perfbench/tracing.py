"""Spans around helmlab's layers, recorded from outside the package.

``install(tracer)`` replaces each function named in ``LAYERS`` by a timing
wrapper.  Modules bind many of these functions by name (``from .assembly
import solve_dirichlet``), so every alias of the function object across
``helmlab.*`` is rebound, not only the defining module's attribute; methods
are replaced on their class.  ``DiscreteOperator.lu`` returns a proxy for the
SuperLU factor so that factorisations, fill and solve columns are counted.

Each wrapped call records a span ``[name, start, end, parent]`` in memory.
A layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
from collections import Counter


def _cols(b) -> int:
    return 1 if b.ndim == 1 else int(b.shape[1])


def _count_sigma(st, args, kwargs, result):
    shifts = kwargs.get("shifts", args[3] if len(args) > 3 else (0.0,))
    st["shifts"] += len(shifts)
    st["eigenvalues"] += int(result.eigenvalues.size)


def _count_forward_map(st, args, kwargs, result):
    m, n = result.A.shape
    st["rhs_cols"] += n
    st["bytes"] += 8 * m * n


def _count_svd(st, args, kwargs, result):
    m, n = result.fmap.A.shape
    # thin R-SVD with U and V (Golub & Van Loan, Table 8.6.1)
    st["flops"] += 6 * m * n * n + 20 * n ** 3
    st["shape"] = [m, n]


def _count_approximate(st, args, kwargs, result):
    st["ok"] += 1


def _count_mask_multi(st, args, kwargs, result):
    ring_data = args[2] if len(args) > 2 else kwargs["ring_data"]
    st["rhs_cols"] += _cols(ring_data)


def _count_three_ball(st, args, kwargs, result):
    st["kept"] += 0 if result.degenerate() else 1


def _count_dtn(st, args, kwargs, result):
    n = int(result.matrix.shape[1])
    st["rhs_cols"] += n
    st["bytes"] += 8 * n * n


def _count_grid(st, args, kwargs, result):
    st["n_nodes"] = max(st["n_nodes"], int(result.n_nodes))


def _count_write(st, args, kwargs, result):
    st["bytes"] += os.path.getsize(result)


# (layer name, module, attribute or Class.method, counter)
LAYERS = (
    ("spectral.compute_sigma", "spectral", "compute_sigma", _count_sigma),
    ("runge.build_forward_map", "runge", "build_forward_map", _count_forward_map),
    ("runge.svd", "runge", "svd", _count_svd),
    ("runge.basis", "runge", "MaskSolutionBasis.__init__", None),
    ("runge.sample", "runge", "MaskSolutionBasis.sample", None),
    ("runge.approximate", "runge", "runge_approximate", _count_approximate),
    ("assembly.assemble", "assembly", "assemble", None),
    ("assembly.stiffness", "assembly", "stiffness", None),
    ("assembly.solve_dirichlet", "assembly", "solve_dirichlet", None),
    ("assembly.solve_on_mask_multi", "assembly", "solve_on_mask_multi",
     _count_mask_multi),
    ("fields.norm", "fields", "norm", None),
    ("fields.masked_gradient", "fields", "masked_gradient", None),
    ("fields.hminus1_norm_fourier", "fields", "hminus1_norm_fourier", None),
    ("profiles.make_medium", "profiles", "make_medium", None),
    ("ucp.chain_propagate", "ucp", "chain_propagate", None),
    ("ucp.three_ball_ratio", "ucp", "three_ball_ratio", _count_three_ball),
    ("modes.mode_field", "modes", "mode_field", None),
    ("carleman.check", "carleman", "carleman_check", None),
    ("carleman.sample", "carleman", "adapted_compact_sample", None),
    ("carleman.sample", "carleman", "random_compact_sample", None),
    ("calderon.dtn_map", "calderon", "dtn_map", _count_dtn),
    ("calderon.dtn_distance", "calderon", "dtn_distance", None),
    ("geometry.build_grid", "geometry", "build_grid", _count_grid),
    ("geometry.boundary_chart", "geometry", "boundary_chart", None),
    ("geometry.h_half_gram", "geometry", "BoundaryChart.h_half_gram", None),
    ("cli.validate", "cli", "validate_config", None),
    ("cli.write", "cli", "write_csv", _count_write),
    ("cli.write", "cli", "write_json", _count_write),
)


class Tracer:
    """In-memory span recorder for one pass; ``stats`` holds per-layer
    self time (``s``), ``calls`` and the counters the layer adds."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stats = {}
        self._stack = []          # (span index, child time so far)
        self.last_duration = 0.0

    def layer(self, name: str) -> Counter:
        return self.stats.setdefault(name, Counter())

    def wrap(self, name: str, fn, count=None):
        st = self.layer(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, parent])
            stack.append([idx, 0.0])
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                st["s"] += dur - child
                st["calls"] += 1
                st["failed"] += 0 if ok else 1
                self.last_duration = dur
            if count is not None:
                count(st, args, kwargs, result)
            return result

        return traced

    def span_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p,
                 "run_id": self.run_id} for n, s, e, p in self.spans]


class _LuProxy:
    """SuperLU stand-in whose ``solve`` is a span counting RHS columns."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._factor, name)


def helmlab_modules() -> list:
    import helmlab
    return [helmlab] + [importlib.import_module(f"helmlab.{m.name}")
                        for m in pkgutil.iter_modules(helmlab.__path__)]


def _rebind(modules, orig, new) -> int:
    n = 0
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                n += 1
    return n


def install(tracer: Tracer) -> list:
    """Wrap every layer of ``LAYERS`` plus ``DiscreteOperator.lu``.

    Returns ``(label, original, bindings replaced)`` per wrapped function.
    """
    modules = helmlab_modules()
    by_name = {m.__name__: m for m in modules}
    wrapped = []
    for layer, mod_name, attr, count in LAYERS:
        mod = by_name[f"helmlab.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = vars(cls)[meth]
            setattr(cls, meth, tracer.wrap(layer, orig, count))
            wrapped.append((f"{mod_name}.{attr}", orig, 1))
        else:
            orig = getattr(mod, attr)
            n = _rebind(modules, orig, tracer.wrap(layer, orig, count))
            wrapped.append((f"{mod_name}.{attr}", orig, n))

    from helmlab.assembly import DiscreteOperator
    orig_lu = vars(DiscreteOperator)["lu"]
    timed_lu = tracer.wrap("assembly.lu", orig_lu)
    lu_st = tracer.layer("assembly.lu")

    def count_solve(st, args, kwargs, result):
        st["rhs_cols"] += _cols(args[0])

    def lu(op):
        hit = op._lu is not None
        factor = timed_lu(op)
        if hit:
            lu_st["hits"] += 1
        else:
            lu_st["factorizations"] += 1
            lu_st["factor_s"] += tracer.last_duration
            lu_st["fill_nnz"] += int(factor.L.nnz + factor.U.nnz)
        return _LuProxy(factor, tracer.wrap("assembly.lu_solve", factor.solve,
                                            count_solve))

    DiscreteOperator.lu = lu
    wrapped.append(("assembly.DiscreteOperator.lu", orig_lu, 1))
    return wrapped


def leftover_bindings(wrapped) -> list:
    """Names in ``helmlab.*`` still bound to an original function after
    :func:`install`; empty when every alias was rebound."""
    originals = {id(orig): label for label, orig, _ in wrapped}
    left = []
    for mod in helmlab_modules():
        for attr, val in vars(mod).items():
            if id(val) in originals:
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, type):
                left += [f"{mod.__name__}.{attr}.{k}" for k, v in vars(val).items()
                         if id(v) in originals]
    return left
