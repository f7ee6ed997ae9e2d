"""One pass of a workload in a fresh interpreter, as ``lab run`` pays it.

    python3 perfbench/child.py <config.json> <out dir> <result.json>
                               <spawn time> <trace 0|1> <run id>

``spawn time`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so set-up time
covers interpreter start, imports, config load and ``validate_config``.
The pass ends when the experiment runner returns, after its last artifact
is written.  Errors of type ``LabError`` are recorded in the result; any
other exception exits non-zero.
"""

import os
import sys
import time


def main(argv) -> int:
    config_path, out_dir, result_path, spawn, trace, run_id = argv
    sys.path.insert(0, os.path.abspath("src"))
    import json
    import resource

    from helmlab import cli
    from helmlab.errors import LabError

    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)

    window = {}
    cfg = cli.load_config(config_path)
    runner = cli._RUNNERS[cfg["experiment"]]
    if tracer is not None:
        runner = tracer.wrap("cli.runner", runner)

    def timed_runner(*args, **kwargs):
        window["start"] = time.monotonic()
        try:
            return runner(*args, **kwargs)
        finally:
            window["end"] = time.monotonic()

    cli._RUNNERS[cfg["experiment"]] = timed_runner
    error = None
    try:
        cli.run_experiment(cfg, out_dir=out_dir, workers=1)
    except LabError as exc:
        error = f"{type(exc).__name__}: {exc}"

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"error": error,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "blas": blas.get("openblas configuration",
                                            blas.get("name"))}}
    if "end" in window:
        result["setup_s"] = window["start"] - float(spawn)
        result["wall_s"] = window["end"] - window["start"]
    if tracer is not None:
        result["layers"] = tracer.stats
        spans_path = os.path.join(os.path.dirname(result_path),
                                  f"spans-{run_id}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.span_records(), fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
