"""The package holds only what runs.

Every defaulted parameter of the package is set by at least one run.  A
default that no call in ``src`` or ``perfbench`` overrides is a
configuration that nothing runs, even where a test sets it; it belongs
inside its function as a constant.  ``DEFAULT_ALLOWED`` names the few that
only tests set, each with its reason.  The audit parses the sources with
``ast`` and matches calls to definitions by name: ``f(...)`` and
``obj.f(...)`` reach every definition named ``f``, and ``Cls(...)``
reaches ``Cls.__init__``.  A parameter counts as passed when a call names
it as a keyword, fills its position, or spreads ``*args`` over it or
``**kwargs`` into the call.

Every top-level function and class of the package, and every public method
of its classes, is reached from a run: ``src/helmlab`` names it outside its
own definition.  A top-level name counts only in a module that defines or
imports it, or as an attribute of its module; an export of
``helmlab/__init__.py`` is no use.  A method counts only as an attribute,
never through a local variable of the same name.  What only tests use
belongs in ``tests/helpers.py``.

Each input has one owner: a medium owns its grid, a grid its one chart.
No function of ``src/helmlab`` takes a ``grid`` with a ``medium`` or an
``op`` with a ``chart``, and no class stores either pair as fields.

Every name a module under ``tests/`` imports is used in that module.

The package takes every SuperLU factor in one place: ``src/helmlab`` names
``splu`` only inside ``assembly.sparse_lu``, and every ``eigsh`` call that
passes ``sigma=`` also passes ``OPinv=``, so that ARPACK never factors the
shifted pencil itself.  Tests may call ``splu`` as an oracle.

No run builds the boundary eigenbasis: every trace norm reads the Gram,
and ``lab solve`` draws its data with one sparse surface solve, so
``src/helmlab`` names no ``modal`` anywhere.  The eigenbasis is the test
oracle ``modal`` of ``tests/helpers.py``.

The resonance guard has one place, :func:`helmlab.assembly.assemble`: it is
the only function of ``src/helmlab`` with a ``spectrum`` parameter, and the
only one that calls ``check_admissibility`` with ``guard=True``.  Solves,
maps and probes take an assembled operator and trust its frequency.

Each domain shape is stated once, on :class:`helmlab.geometry.DomainSpec`:
``ucp.py`` and ``cli.py`` never compare a domain kind with a string literal,
and read the shape's width, depth and level sets from the spec.

Each run-time precondition that validation checks before a run is one
function of the module that enforces it, named by the run and by
``cli._run_report`` alone: ``assembly.wavelength_rule``, the only raiser of
``UnderResolved``, and ``ucp.ball_rule``.  ``cli.py`` names none of their
ingredients (``max_spacing``, ``dr``, ``pi``) and neither
``radial_derivative`` nor ``boundary_distance``.  So are spectrum's
``spectral.count_rule`` and carleman's ``carleman.tau_rule``.

A Runge sweep's spacing, grid and medium are stated once, in
``runge.sweep_grid``: it is the one function of ``runge.py`` that names
``build_grid``, and the sweep and ``cli._run_report`` alone call it, so
validation checks a sweep on the grid it runs on.

No module under ``src/helmlab`` imports ``scipy.spatial``: each ``lab
run`` is a fresh interpreter and would pay the import, and nearest
distances and ball neighbours are blocked exact scans
(``geometry.nearest_distance``, ``ucp._certify``).  Tests may keep
``cKDTree`` as an oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "helmlab"
CALLERS = [ROOT / "src", ROOT / "perfbench"]

# Defaulted parameters that only tests set, kept for the reason given.
DEFAULT_ALLOWED = {
    "carleman.carleman_check(f)": "the divergence data of the Carleman "
    "estimate, which test_divergence_mode checks",
    "carleman.carleman_check(F)": "the divergence data of the Carleman "
    "estimate, which test_divergence_mode checks",
    "fields.functional_norm(gamma)": "the dual norm paired with "
    "riesz_map(gamma), which adjoint_apply runs",
}


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of each defaulted parameter; positions
    count from the first argument a caller writes (after ``self``)."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if method else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults) if d is not None]
    return out


def _definitions():
    """{call name: [(qualified name, defaulted parameters)]}."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    item.owner = node.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = getattr(node, "owner", None)
            params = _defaulted(node, owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list))
            if not params:
                continue
            key = owner if owner and node.name == "__init__" else node.name
            qual = ".".join(filter(None, (path.stem, owner, node.name)))
            defs.setdefault(key, []).append((qual, params))
    return defs


def _calls():
    """Every call in the caller trees as (name, positional count, keyword
    names, spreads *args, spreads **kwargs)."""
    out = []
    for base in CALLERS:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name is None:
                    continue
                star = any(isinstance(a, ast.Starred) for a in node.args)
                n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
                kws = {k.arg for k in node.keywords if k.arg is not None}
                dstar = any(k.arg is None for k in node.keywords)
                out.append((name, n_pos, kws, star, dstar))
    return out


def _passed(param, calls) -> bool:
    name, pos = param
    for n_pos, kws, star, dstar in calls:
        if name in kws or dstar:
            return True
        if pos is not None and (pos < n_pos or star):
            return True
    return False


def audit():
    """(all defaulted parameters, those no call passes), as qualified
    ``module.function(parameter)`` strings."""
    calls = {}
    for name, *rest in _calls():
        calls.setdefault(name, []).append(rest)
    every, unpassed = [], []
    for key, entries in _definitions().items():
        for qual, params in entries:
            for param in params:
                label = f"{qual}({param[0]})"
                every.append(label)
                if not _passed(param, calls.get(key, [])):
                    unpassed.append(label)
    return sorted(every), sorted(unpassed)


def test_every_default_is_overridden_by_some_caller():
    every, unpassed = audit()
    assert every, "the audit found no defaulted parameters"
    left = [p for p in unpassed if p not in DEFAULT_ALLOWED]
    assert not left, (
        f"{len(left)} of {len(every)} defaulted parameters are never "
        "passed by a run:\n" + "\n".join(left))
    stale = sorted(set(DEFAULT_ALLOWED) - set(unpassed))
    assert not stale, f"allowlisted defaults now passed by a run: {stale}"


# Reached only from tests until the stage trace evaluates them on a run.
REACH_ALLOWED = dict.fromkeys(
    ("runge.truncation_energy_identity", "runge.adjoint_apply",
     "runge.adjoint_apply_matrix", "runge.trace_inner",
     "calderon.check_agreement"),
    "ROADMAP item 2 runs these identity probes under the trace")


def _references(tree) -> list:
    """(name, line) of every name, attribute and ``from ... import`` in a
    module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(a.name, node.lineno) for a in node.names]
    return out


def unreached():
    """Qualified names (``module.name`` or ``module.Class.method``) that no
    line of ``src/helmlab`` outside their own definition reaches.  A
    top-level function or class is reached through its name in a module
    that defines or imports it, or as an attribute of its module; a method
    only through an attribute.  An export of ``helmlab/__init__.py``, a
    local variable that shares a method's name, or a name in a module that
    never imports it, reaches nothing."""
    defs, names, attrs, imports = [], [], [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        imports[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.append((module, node.attr, node.lineno,
                              getattr(node.value, "id", None)))
            elif isinstance(node, ast.ImportFrom):
                imports[module] |= {a.name for a in node.names}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((module, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(module, f"{node.name}.{m.name}", m, True)
                         for m in node.body if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("_")]
    out = []
    for module, qual, node, method in defs:
        own = range(node.lineno, node.end_lineno + 1)
        refs = [(mod, line) for mod, attr, line, base in attrs
                if attr == node.name and (method or base == module)]
        if not method:
            refs += [(mod, line) for mod, name, line in names
                     if name == node.name
                     and (mod == module or name in imports[mod])]
        if all(mod == module and line in own for mod, line in refs):
            out.append(f"{module}.{qual}")
    return sorted(out)


def test_every_name_is_reached_from_a_run():
    flagged = unreached()
    left = [q for q in flagged if q not in REACH_ALLOWED]
    assert not left, (f"{len(left)} names are reached only from tests; move "
                      "them to tests/helpers.py or delete them:\n"
                      + "\n".join(left))
    stale = sorted(set(REACH_ALLOWED) - set(flagged))
    assert not stale, f"allowlisted names now reached from src: {stale}"


def unused_test_imports() -> list:
    """``file: name`` of each name that a module under ``tests/`` imports
    and never names again."""
    out = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        out += [f"{path.relative_to(ROOT)}: {name}"
                for name in sorted(imported - used)]
    return out


def test_tests_import_only_what_they_use():
    unused = unused_test_imports()
    assert not unused, (f"{len(unused)} imported names are never used:\n"
                        + "\n".join(unused))


def stray_names(target: str, allowed: dict) -> list:
    """``module:line`` of each reference to ``target`` in ``src/helmlab``
    outside the places ``allowed`` maps each module to: the top-level
    function of that name, or the whole module for None."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in allowed and allowed[path.stem] is None:
            continue
        tree = ast.parse(path.read_text())
        own = range(0)
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name == allowed.get(path.stem)):
                own = range(node.lineno, node.end_lineno + 1)
        out += [f"{path.stem}:{line}: {name}"
                for name, line in _references(tree)
                if name == target and line not in own]
    return out


def stray_factors() -> list:
    """``module:line`` of each SuperLU factor ``src/helmlab`` takes outside
    ``assembly.sparse_lu``: a reference to ``splu``, or an ``eigsh`` call
    with ``sigma=`` and without ``OPinv=``."""
    out = stray_names("splu", {"assembly": "sparse_lu"})
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            kws = {k.arg for k in node.keywords}
            if (getattr(f, "id", getattr(f, "attr", None)) == "eigsh"
                    and "sigma" in kws and "OPinv" not in kws):
                out.append(f"{path.stem}:{node.lineno}: eigsh without OPinv")
    return out


def test_every_superlu_factor_goes_through_sparse_lu():
    stray = stray_factors()
    assert not stray, (f"{len(stray)} SuperLU factors bypass "
                       "assembly.sparse_lu:\n" + "\n".join(stray))


def test_trace_norms_never_read_the_modal_basis():
    stray = stray_names("modal", {})
    assert not stray, (f"{len(stray)} references to a boundary eigenbasis "
                       "in src:\n" + "\n".join(stray))


def guard_sites() -> tuple:
    """(``module.function`` of each function of ``src/helmlab`` with a
    ``spectrum`` parameter, ``module.function:line`` of each
    ``check_admissibility`` call with ``guard=True``, by the top-level
    function it sits in)."""
    takers, guards = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef):
                    a = node.args
                    if any(x.arg == "spectrum" for x in
                           a.posonlyargs + a.args + a.kwonlyargs):
                        takers.append(f"{path.stem}.{node.name}")
                elif isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)) \
                        == "check_admissibility":
                    flags = [k.value for k in node.keywords
                             if k.arg == "guard"] + node.args[2:3]
                    if any(not (isinstance(f, ast.Constant) and not f.value)
                           for f in flags):
                        guards.append(f"{path.stem}.{getattr(top, 'name', '')}"
                                      f":{node.lineno}")
    return takers, guards


def test_assemble_is_the_one_resonance_guard():
    takers, guards = guard_sites()
    assert takers == ["assembly.assemble"], (
        f"functions taking a spectrum besides assemble: {takers}")
    assert [g.split(":")[0] for g in guards] == ["assembly.assemble"], (
        f"guard-band checks outside assemble: {guards}")


def _names_kind(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "kind"
            or isinstance(node, ast.Attribute) and node.attr == "kind")


def _str_literal(node) -> bool:
    """A string constant, or a tuple, list or set literal holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_str_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def kind_branches(modules=("ucp", "cli")) -> list:
    """``module:line`` of each comparison of a domain kind (a name or an
    attribute ``kind``) with a string literal in ``modules``."""
    out = []
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        out += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(map(_names_kind, [node.left, *node.comparators]))
                and any(map(_str_literal, [node.left, *node.comparators]))]
    return out


def test_ucp_and_cli_never_branch_on_the_domain_kind():
    stray = kind_branches()
    assert not stray, (f"{len(stray)} domain-kind comparisons outside "
                       "DomainSpec:\n" + "\n".join(stray))


def users(target: str) -> list:
    """``module.name`` of each top-level function or class of
    ``src/helmlab`` besides ``target`` itself that names ``target``."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        out |= {f"{path.stem}.{top.name}"
                for top in ast.parse(path.read_text()).body
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and top.name != target
                and any(name == target for name, _ in _references(top))}
    return sorted(out)


def test_each_run_time_precondition_is_stated_once():
    assert users("wavelength_rule") == ["assembly.assemble",
                                        "cli._run_report"]
    assert users("UnderResolved") == ["assembly.wavelength_rule"]
    assert users("ball_rule") == ["cli._run_report", "ucp.three_ball_ratio"]
    assert users("count_rule") == ["cli._run_report", "spectral.compute_sigma"]
    assert users("tau_rule") == ["carleman.carleman_check", "cli._run_report"]
    cli = {name for name, _ in
           _references(ast.parse((PACKAGE / "cli.py").read_text()))}
    assert not cli & {"max_spacing", "dr", "pi", "radial_derivative",
                      "boundary_distance"}


# (value, owner) parameter and field pairs: a medium owns its grid, and the
# grid of an operator owns its one chart
OWNED_PAIRS = (("grid", "medium"), ("op", "chart"))


def second_owners() -> list:
    """``module.name`` of each function of ``src/helmlab`` whose parameters,
    and each class whose annotated fields, hold both names of a pair of
    :data:`OWNED_PAIRS`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            elif isinstance(node, ast.ClassDef):
                names = {x.target.id for x in node.body
                         if isinstance(x, ast.AnnAssign)
                         and isinstance(x.target, ast.Name)}
            else:
                continue
            if any(set(pair) <= names for pair in OWNED_PAIRS):
                out.append(f"{path.stem}.{node.name}")
    return sorted(out)


def test_each_input_has_one_owner():
    stray = second_owners()
    assert not stray, (f"{len(stray)} functions or classes take or store a "
                       "value with its owner:\n" + "\n".join(stray))


def test_the_sweep_grid_is_stated_once():
    assert [u for u in users("build_grid") if u.startswith("runge.")] \
        == ["runge.sweep_grid"]
    assert users("sweep_grid") == ["cli._run_report", "runge.sweep_and_fit"]
    assert users("wavelength_rule") == ["assembly.assemble",
                                        "cli._run_report"]


def spatial_imports() -> list:
    """``file:line`` of each import of ``scipy.spatial`` or a module under
    it in ``src/helmlab``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}"
                                         for a in node.names]
            else:
                continue
            if any(n == "scipy.spatial" or n.startswith("scipy.spatial.")
                   for n in names):
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_module_imports_scipy_spatial():
    stray = spatial_imports()
    assert not stray, (f"{len(stray)} imports of scipy.spatial in src:\n"
                       + "\n".join(stray))


if __name__ == "__main__":
    every, unpassed = audit()
    print(len(every), "defaulted;", len(unpassed), "never passed by a run;",
          len(DEFAULT_ALLOWED), "allowlisted")
    print("\n".join(unpassed))
    flagged = unreached()
    print(len(flagged), "reached only from tests;", len(REACH_ALLOWED),
          "allowlisted")
    print("\n".join(flagged))
    print("\n".join(unused_test_imports()))
    print("\n".join(stray_factors()))
    print("\n".join(stray_names("modal", {})))
    print(guard_sites())
    print("\n".join(kind_branches()))
    print({rule: users(rule) for rule in ("wavelength_rule", "ball_rule",
                                          "count_rule", "tau_rule")})
    print("\n".join(second_owners()))
    print("\n".join(spatial_imports()))
