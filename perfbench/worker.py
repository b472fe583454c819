"""One repetition of a benchmark workload, in a fresh process.

Times set-up (the import of holoseis, workload generation and
``cli.validate_config``), then runs synth, hologram and invert (or the
leading stages named by ``--stages``) through the CLI's command functions,
checks each stage's outputs, and prints one JSON object as its last line of
standard output.  ``run.py`` starts it; it is not meant to be run by hand.

Times are reported in reference seconds.  The throughput of a shared machine
drifts by 10-30% over seconds to minutes, and every kind of work (Python,
BLAS, Hankel evaluation) drifts together.  So the worker times a fixed
numpy/scipy loop (``calibrate``) after set-up and after each stage, and
scales set-up by the loop time after it and each stage by the mean of the
loop times around it, to what they would be if the loop took
``CALIBRATION_REF_S``.  A change to holoseis moves the scaled times as much
as the wall times; a slower or faster moment of the machine moves them far
less.  Wall times are reported beside them.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# the loop's median time on the baseline machine (README), so that reference
# seconds there read about as wall seconds
CALIBRATION_REF_S = 0.15


def calibrate() -> float:
    """Seconds the machine takes now for a fixed mix of holoseis's kinds of work.

    A dense complex product and solve, Hankel evaluation and Gaussian
    sampling.  Its arrays are freed on return, so they do not stay in
    ``peak_rss_mb``.  Raises if another thread of this process was busy
    meanwhile, since the loop must measure the machine alone.
    """
    import numpy as np
    from scipy.special import hankel1

    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    x = np.linspace(0.1, 50.0, 300_000)
    start, own, process = time.perf_counter(), time.thread_time(), time.process_time()
    a @ a
    # hankel1 runs about 4x slower after a complex product until another BLAS
    # routine such as the solve runs; this order keeps it in its fast state
    np.linalg.solve(a, a)
    hankel1(0, x)
    np.random.default_rng(1).standard_normal(1_000_000)
    wall = time.perf_counter() - start
    others = (time.process_time() - process) - (time.thread_time() - own)
    if others > 0.05 * wall:
        raise RuntimeError(f"other threads used {others:.3f} s of CPU during the {wall:.3f} s calibration")
    return wall


def environment() -> dict:
    """Cores, interpreter, numpy/scipy versions and the BLAS build."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run_stage(stage: str, cfg: dict, out: Path) -> Path:
    """Run one CLI stage; returns the directory it wrote."""
    from holoseis import cli

    if stage == "synth":
        cli.cmd_synth(cfg, out)
        return out
    target = out / stage
    if stage == "hologram":
        cli.cmd_hologram(cfg, target, out)
    else:
        cli.cmd_invert(cfg, target, out)
    return target


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--stages", default="synth,hologram,invert", help="comma-separated stages, in pipeline order"
    )
    args = parser.parse_args()

    import workloads  # imports holoseis

    cfg = workloads.generate(args.workload, args.seed)
    setup_wall = time.perf_counter() - _T0
    calibrations = [calibrate()]
    result = {
        "setup_s": setup_wall * CALIBRATION_REF_S / calibrations[0],
        "setup_wall_s": setup_wall,
    }
    if args.setup_only:
        result["environment"] = environment()
        print(json.dumps(result))
        return 0

    out = Path(args.out)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer().install()
    stages = {}
    failed_before = False
    for stage in args.stages.split(","):
        record = {"seconds": None, "wall_s": None, "problems": []}
        stages[stage] = record
        if failed_before:
            record["problems"].append("an earlier stage failed")
            continue
        try:
            start = time.perf_counter()
            written = run_stage(stage, cfg, out)
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()  # the checks read outputs through holoseis.io
            calibrations.append(calibrate())
            record["wall_s"] = wall
            record["seconds"] = wall * CALIBRATION_REF_S / statistics.mean(calibrations[-2:])
            problems, outcome = workloads.check_stage(stage, args.workload, cfg, written)
            record["problems"] += problems
            result.update(outcome)
        except Exception as exc:  # a raising stage or check is a failed operation
            traceback.print_exc()
            record["problems"].append(f"raised {type(exc).__name__}: {exc}")
            failed_before = record["seconds"] is None
        if tracer is not None:
            tracer.install()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    result["stages"] = stages
    result["calibrations_s"] = calibrations
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
