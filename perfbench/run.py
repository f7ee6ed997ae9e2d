"""helmlab benchmark: four workloads timed from outside the package.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
                             --trace 0|1

Run from the repository root.  Each pass runs one experiment through
``helmlab.cli.run_experiment`` in a fresh interpreter (``perfbench/child.py``)
with ``workers=1``, because ``lab run`` users pay imports and set-up every
time.  Passes repeat, one after another, until ``--seconds`` have elapsed
(with ``--trace 0``, at least three passes).  Every pass's artifacts are verified and
must be byte-identical across passes.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
pass wall time, verified units per second, set-up time and peak RSS.
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and counts from the traced ones, the time outside every wrapped
call, and the tracing overhead (traced minus untraced median wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
environment and every pass goes to ``perfbench/out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_UNTRACED_PASSES = 3
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("units_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# name, unit; names are <layer>.<stat>, layers as in tracing.LAYERS
PER_LAYER = (
    ("spectral.compute_sigma.s", "s"),
    ("spectral.compute_sigma.shifts", "count"),
    ("spectral.compute_sigma.eigenvalues", "count"),
    ("runge.build_forward_map.s", "s"),
    ("runge.build_forward_map.rhs_cols", "count"),
    ("runge.build_forward_map.bytes", "B"),
    ("runge.svd.s", "s"),
    ("runge.svd.flops", "flop"),
    ("runge.basis.s", "s"),
    ("runge.sample.s", "s"),
    ("runge.approximate.s", "s"),
    ("runge.approximate.calls", "count"),
    ("runge.approximate.ok_ratio", "ratio"),
    ("assembly.assemble.s", "s"),
    ("assembly.assemble.calls", "count"),
    ("assembly.stiffness.s", "s"),
    ("assembly.stiffness.calls", "count"),
    ("assembly.lu.factorizations", "count"),
    ("assembly.lu.factor_s", "s"),
    ("assembly.lu.fill_nnz", "count"),
    ("assembly.lu.hit_ratio", "ratio"),
    ("assembly.lu_solve.s", "s"),
    ("assembly.lu_solve.rhs_cols", "count"),
    ("assembly.solve_dirichlet.s", "s"),
    ("assembly.solve_dirichlet.calls", "count"),
    ("assembly.solve_on_mask_multi.s", "s"),
    ("assembly.solve_on_mask_multi.rhs_cols", "count"),
    ("fields.norm.s", "s"),
    ("fields.norm.calls", "count"),
    ("fields.masked_gradient.s", "s"),
    ("fields.masked_gradient.calls", "count"),
    ("fields.hminus1_norm_fourier.s", "s"),
    ("profiles.make_medium.s", "s"),
    ("ucp.chain_propagate.s", "s"),
    ("ucp.three_ball_ratio.s", "s"),
    ("ucp.three_ball_ratio.calls", "count"),
    ("ucp.three_ball_ratio.kept_ratio", "ratio"),
    ("modes.mode_field.s", "s"),
    ("modes.mode_field.calls", "count"),
    ("carleman.check.s", "s"),
    ("carleman.check.calls", "count"),
    ("carleman.sample.s", "s"),
    ("calderon.dtn_map.s", "s"),
    ("calderon.dtn_map.rhs_cols", "count"),
    ("calderon.dtn_map.bytes", "B"),
    ("calderon.dtn_distance.s", "s"),
    ("geometry.build_grid.s", "s"),
    ("geometry.build_grid.n_nodes", "count"),
    ("geometry.boundary_chart.s", "s"),
    ("geometry.h_half_gram.s", "s"),
    ("geometry.h_half_gram.calls", "count"),
    ("cli.validate.s", "s"),
    ("cli.write.s", "s"),
    ("cli.write.bytes", "B"),
    ("untraced_remainder_s", "s"),
    ("tracing_overhead_s", "s"),
)
# counts derived from shapes rather than measured; they repeat exactly
COMPUTED = ("runge.build_forward_map.bytes", "runge.svd.flops",
            "calderon.dtn_map.bytes", "assembly.lu.fill_nnz")
# ratio -> counter divided by the layer's calls
_RATIOS = {"ok_ratio": "ok", "kept_ratio": "kept", "hit_ratio": "hits"}


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def layer_value(stats: dict, name: str) -> float:
    if name == "untraced_remainder_s":
        name = "cli.runner.s"
    layer, stat = name.rsplit(".", 1)
    st = stats.get(layer, {})
    if stat in _RATIOS:
        calls = st.get("calls", 0)
        return st.get(_RATIOS[stat], 0) / calls if calls else 0.0
    return st.get(stat, 0)


def run_pass(cfg_path: Path, run_dir: Path, index: int, traced: bool,
             deadline: float) -> dict:
    pass_dir = run_dir / f"pass{index}"
    pass_dir.mkdir()
    result_path = run_dir / f"result{index}.json"
    run_id = f"{run_dir.name}-pass{index}"
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), str(cfg_path),
           str(pass_dir), str(result_path), repr(spawn), str(int(traced)),
           run_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - spawn, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    res = json.loads(result_path.read_text())
    if "wall_s" not in res:
        raise BenchError(f"pass {index} failed before the runner: "
                         f"{res['error']}")
    res.update(dir=pass_dir, traced=traced)
    return res


def verify_pass(wl: dict, cfg: dict, res: dict) -> None:
    attempted = wl["attempted"](cfg)
    good, problems = 0, []
    if res["error"] is not None:
        problems = [f"pass raised {res['error']}"]
    else:
        try:
            good, problems = wl["verify"](res["dir"], cfg)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"artifacts unreadable: {exc!r}"]
    res.update(attempted=attempted, failed=attempted - good,
               problems=problems,
               units_per_s=good / res["wall_s"])


def artifact_bytes(pass_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(pass_dir.iterdir())}


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "threads": {v: os.environ[v] for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), "unknown")
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(caches.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                env[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        env.setdefault("cpu", "unknown")
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        env["commit"] = git.stdout.strip() or "unknown"
    else:
        env["commit"] = "unavailable (not a git checkout)"
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    cfg = wl["config"](seed)
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        for traced in ((False, True) if trace else (False,)):
            passes.append(run_pass(cfg_path, run_dir, len(passes), traced,
                                   deadline))
        elapsed = time.monotonic() - start
        untraced = [p for p in passes if not p["traced"]]
        longest = max(p["setup_s"] + p["wall_s"] for p in passes)
        enough = trace or len(untraced) >= MIN_UNTRACED_PASSES
        if (elapsed >= seconds and enough) \
                or elapsed + (2 if trace else 1) * 1.5 * longest > RUN_LIMIT_S:
            break

    problems = []
    reference = artifact_bytes(passes[0]["dir"])
    for p in passes:
        verify_pass(wl, cfg, p)
        problems += [f"pass {p['dir'].name}: {m}" for m in p["problems"]]
        if artifact_bytes(p["dir"]) != reference:
            problems.append(f"pass {p['dir'].name}: artifacts differ from "
                            f"{passes[0]['dir'].name}")
    findings = wl["findings"](passes[0]["dir"]) if "findings" in wl else []

    untraced = [p for p in passes if not p["traced"]]
    metrics = {}
    if not trace:
        for key, unit in END_TO_END:
            vals = [p[key] for p in untraced]
            metrics[key] = {"value": statistics.median(vals), "unit": unit,
                            "n": len(vals)}
    else:
        traced = [p for p in passes if p["traced"]]
        for key, unit in PER_LAYER:
            if key == "tracing_overhead_s":
                continue
            vals = [layer_value(p["layers"], key) for p in traced]
            if unit != "s" and len(set(vals)) > 1:
                problems.append(f"count {key} differs between passes: {vals}")
            metrics[key] = {"value": statistics.median(vals), "unit": unit,
                            "n": len(vals)}
        metrics["tracing_overhead_s"] = {
            "value": statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced),
            "unit": "s", "n": len(traced)}
        for key, want in wl["expected_calls"](passes[0]["dir"], cfg).items():
            got = [layer_value(p["layers"], key) for p in traced]
            if any(g != want for g in got):
                problems.append(f"{key} = {got}, expected {want}")
        remainder = metrics["untraced_remainder_s"]["value"]
        wall = statistics.median(p["wall_s"] for p in traced)
        if remainder >= 0.1 * wall:
            findings.append(f"untraced remainder {remainder:.3f} s is not "
                            f"under a tenth of the traced wall {wall:.3f} s")

    computed = {k: metrics[k]["value"] for k in COMPUTED if k in metrics}
    svd = passes[-1].get("layers", {}).get("runge.svd", {})
    if "shape" in svd:
        computed["runge.svd.shape"] = svd["shape"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "unit": wl["unit"], "config": cfg,
        "environment": dict(environment(), **passes[0]["versions"]),
        "correct": not problems, "problems": problems, "findings": findings,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
        "computed": computed,
        "passes": [{k: (str(v) if isinstance(v, Path) else v)
                    for k, v in p.items()} for p in passes],
    }
    (run_dir.parent / f"{run_dir.name}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return record


def report(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}"
          f"  passes {len(rec['passes'])}  ({rec['unit']})")
    for key, m in rec["metrics"].items():
        tag = "  (computed)" if key in rec["computed"] else ""
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']:<6} "
              f"median of {m['n']}{tag}")
    if "runge.svd.shape" in rec["computed"]:
        print(f"  {'runge.svd.shape':<40} {rec['computed']['runge.svd.shape']}"
              f"  (computed)")
    frac = rec["failed"] / rec["attempted"]
    print(f"  {'failed_frac':<40} {frac:>16.6g} {'':<6} "
          f"{rec['failed']}/{rec['attempted']} units")
    env = rec["environment"]
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for msg in rec["problems"]:
        print(f"  PROBLEM: {msg}")
    for msg in rec["findings"]:
        print(f"  finding: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "helmlab" / "__init__.py").is_file():
        print(f"perfbench: no helmlab source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
