"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints,
that installing the tracer leaves no binding in ``helmlab.*`` pointing at an
unwrapped layer function, and that one traced pass of every workload
verifies and shows the call counts derived from its inputs (for example
``carleman.check.calls`` = taus x ks x samples per cell).  Exits non-zero on
the first failure.
"""

import json
import sys

import run
import tracing
import workloads


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def check_manifest() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    require([(m["name"], m["unit"]) for m in doc["end_to_end"]]
            == list(run.END_TO_END), "end_to_end differs from run.END_TO_END")
    require([(m["name"], m["unit"]) for m in doc["per_layer"]]
            == list(run.PER_LAYER), "per_layer differs from run.PER_LAYER")
    require(sorted(w["name"] for w in doc["workloads"])
            == sorted(workloads.WORKLOADS), "workloads differ")


def check_bindings() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    wrapped = tracing.install(tracing.Tracer("selftest"))
    left = tracing.leftover_bindings(wrapped)
    require(not left, f"unwrapped aliases left: {left}")
    counts = {label: n for label, _, n in wrapped}
    # defined in assembly, imported by runge, calderon, carleman and helmlab
    require(counts["assembly.solve_dirichlet"] == 5, f"bindings {counts}")


def check_traced_passes() -> None:
    for name in sorted(workloads.WORKLOADS):
        rec = run.run_workload(name, seed=0, seconds=0, trace=True)
        require(rec["correct"], f"{name}: {rec['problems']}")
        print(f"selftest: {name} traced pass verified")


if __name__ == "__main__":
    check_manifest()
    check_bindings()
    check_traced_passes()
    print("selftest: ok")
