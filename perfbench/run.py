"""holoseis benchmark: seeded synth -> hologram -> invert pipelines.

Usage (from the repository root)::

    python3 perfbench/run.py --workload imaging --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh worker process (``worker.py``) with its output
in a temporary directory under ``.perfbench/``, ``HOLOSEIS_CACHE`` removed
from the environment and BLAS fixed at one thread.  Complete pipelines of the
same seed repeat until the next one would end after ``--seconds``; an
untraced run then fills the rest of its time with synth + hologram
repetitions, its shortest stages.  The reported times are medians over the
repetitions.  Set-up is also timed in a few processes that only set up.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` untraced and traced repetitions alternate and the
last line holds the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus untraced ``pipeline_s``).  The spans of the last traced
repetition are written to ``.perfbench/trace/<workload>-seed<seed>.jsonl``.
Every line before the last is a JSON record for people: the environment, then
one line per repetition, with its stage times in reference seconds and in
wall seconds and its calibration loop times (see ``worker.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
# run.py never imports holoseis; test_perfbench checks these match workloads.py
WORKLOADS = ("imaging", "invert-c", "invert-S")
STAGES = ("synth", "hologram", "invert")
PARTIAL = ("synth", "hologram")
SETUP_PROBES = 3
# a run must end within 180 s; no repetition starts if it would end after this
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "synth_s": "s",
    "hologram_s": "s",
    "invert_s": "s",
    "outer_iter_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "rel_error": "1",
}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    # a warm kernel cache turns assembly into disk reads and writes into the
    # user's cache directory
    env.pop("HOLOSEIS_CACHE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(root: Path, env: dict, argv: List[str], timeout: float) -> Optional[dict]:
    """Run one worker process to completion; its last stdout line, or None on failure."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def stage_seconds(reps: List[dict], stage: str) -> List[float]:
    """Times of one stage over the repetitions that ran it to completion."""
    return [
        r["stages"][stage]["seconds"]
        for r in reps
        if stage in r["stages"] and r["stages"][stage]["seconds"] is not None
    ]


def pipeline_seconds(rep: dict) -> Optional[float]:
    times = stage_seconds([rep], "synth") + stage_seconds([rep], "hologram") + stage_seconds([rep], "invert")
    return sum(times) if len(times) == len(STAGES) else None


def end_to_end(reps: List[dict], setups: List[float]) -> dict:
    """Medians of the end-to-end metrics over the untraced repetitions.

    synth_s and hologram_s take every repetition that ran the stage, including
    the synth + hologram repetitions that fill the end of a run; the other
    metrics take complete pipelines.  pipeline_s is the sum of the three stage
    medians.
    """
    full = [r for r in reps if pipeline_seconds(r) is not None and r.get("outer_iters")]
    if not full:
        return {}
    synth = statistics.median(stage_seconds(reps, "synth"))
    hologram = statistics.median(stage_seconds(reps, "hologram"))
    invert = statistics.median(stage_seconds(full, "invert"))
    values = {
        "setup_s": statistics.median(setups),
        "synth_s": synth,
        "hologram_s": hologram,
        "invert_s": invert,
        "outer_iter_s": statistics.median(r["stages"]["invert"]["seconds"] / r["outer_iters"] for r in full),
        "pipeline_s": synth + hologram + invert,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        "rel_error": statistics.median(r["rel_error"] for r in full),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(traced: List[dict], untraced: List[dict]) -> dict:
    """Medians of the traced per-layer metrics, plus the tracing overhead."""
    from layertrace import metric_units

    units = metric_units()
    if not traced:
        return {}
    out = {
        key: {"value": statistics.median(r["layers"][key] for r in traced), "unit": unit}
        for key, unit in units.items()
    }
    with_trace = [pipeline_seconds(r) for r in traced]
    without = [pipeline_seconds(r) for r in untraced]
    if None not in with_trace + without and without:
        overhead = statistics.median(with_trace) - statistics.median(without)
        out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "holoseis" / "__init__.py").is_file():
        print(f"no holoseis sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, work: Path) -> int:
    env = worker_env(root)
    start = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - start)

    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(root, env, common + ["--out", str(work), "--setup-only"], remaining())
        if probe is None:
            return 1
        setups.append(probe["setup_s"])
    print(json.dumps({"environment": probe["environment"], "workload": args.workload, "seed": args.seed}))

    spans_path = root / ".perfbench" / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
    reps, full_walls, part_walls = [], [], []
    attempted = failed = 0
    digests = None
    while True:
        elapsed = time.perf_counter() - start
        if len(full_walls) < (2 if args.trace else 1):
            stages, expected = STAGES, 0.0
        elif elapsed + statistics.median(full_walls) <= args.seconds:
            stages, expected = STAGES, statistics.median(full_walls)
        else:
            # fill the rest of an untraced run with synth + hologram, the
            # shortest and noisiest stages
            stages = PARTIAL
            if part_walls:
                expected = statistics.median(part_walls)
            else:
                expected = full_walls[0] - reps[0]["stages"]["invert"]["seconds"]
            if args.trace or elapsed + expected > args.seconds:
                break
        if expected > remaining():
            break
        traced = bool(args.trace) and len(full_walls) % 2 == 1
        rep_dir = work / f"rep{len(reps)}"
        argv = common + ["--out", str(rep_dir), "--trace", str(int(traced)), "--stages", ",".join(stages)]
        if traced:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            argv += ["--spans", str(spans_path)]
        t0 = time.perf_counter()
        rep = spawn(root, env, argv, remaining())
        (full_walls if stages == STAGES else part_walls).append(time.perf_counter() - t0)
        shutil.rmtree(rep_dir, ignore_errors=True)
        attempted += len(stages)
        if rep is None:
            failed += len(stages)
            break
        rep["traced"] = traced
        # byte-identical archives from rerun to rerun of one seed
        if digests is None:
            digests = rep.get("digests")
        elif rep.get("digests") != digests:
            rep["stages"]["synth"]["problems"].append("archives differ from the first repetition")
        problems = {s: rep["stages"][s]["problems"] for s in stages if rep["stages"][s]["problems"]}
        failed += len(problems)
        setups.append(rep["setup_s"])
        reps.append(rep)
        print(json.dumps({
            "rep": len(reps) - 1,
            "traced": traced,
            "stages_s": {s: rep["stages"][s]["seconds"] for s in stages},
            "stages_wall_s": {s: rep["stages"][s]["wall_s"] for s in stages},
            "calibrations_s": rep["calibrations_s"],
            "stopped_by": rep.get("stopped_by"),
            "outer_iters": rep.get("outer_iters"),
            "rel_error": rep.get("rel_error"),
            "problems": problems,
        }))
        if rep["stages"]["synth"]["seconds"] is None or (stages == STAGES and pipeline_seconds(rep) is None):
            break  # a raising stage: later repetitions would not tell more

    untraced = [r for r in reps if not r["traced"]]
    if args.trace:
        metrics = per_layer([r for r in reps if r["traced"]], untraced)
    else:
        metrics = end_to_end(untraced, setups)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
