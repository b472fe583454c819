"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest -q perfbench``.  They
run each workload once with tracing (about 45 s on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from holoseis import cli  # noqa: E402
from holoseis import io as hio  # noqa: E402

# functions a workload never calls; every other traced function must fire
NEVER_CALLED = {
    "imaging": {"greens.update_green", "greens.GreensOperator.mul_kernel_hermitian"},
    "invert-c": set(),
    "invert-S": {"greens.update_green", "greens.GreensOperator.mul_kernel_hermitian"},
}


def _worker(workload: str, seed: int, out: Path, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--out", str(out), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", str(out / "spans.jsonl")]
    proc = subprocess.run(
        argv, cwd=ROOT, env=run.worker_env(ROOT), stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return request.param, out, _worker(request.param, 3, out, trace=True)


def test_names_agree_across_files():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert run.STAGES == workloads.STAGES
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {**layertrace.metric_units(), "trace.overhead_s": "s"}


def test_same_seed_same_config():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)
        # the seed moves inputs, never the amount of work
        grids = [cli.build_grid(workloads.generate(name, s)) for s in (7, 8)]
        assert grids[0].content_hash() == grids[1].content_hash()


def test_same_seed_same_archives(tmp_path):
    cfg = workloads.generate("invert-S", 5)
    digests = []
    for rerun in ("a", "b"):
        cli.cmd_synth(cfg, tmp_path / rerun)
        digests.append(workloads.archive_digests(tmp_path / rerun))
    assert len(digests[0]) == cfg["frequencies"]["count"]
    assert digests[0] == digests[1]


def test_end_to_end_takes_stage_samples_from_every_repetition():
    def rep(synth, hologram, invert=None):
        stages = {"synth": {"seconds": synth}, "hologram": {"seconds": hologram}}
        if invert is None:
            return {"stages": stages}
        stages["invert"] = {"seconds": invert}
        return {"stages": stages, "outer_iters": 4, "peak_rss_mb": 100.0, "rel_error": 0.5}

    metrics = run.end_to_end([rep(3.0, 2.0, 8.0), rep(1.0, 1.0), rep(2.0, 4.0)], [0.5, 0.7, 0.6])
    values = {k: v["value"] for k, v in metrics.items()}
    assert values == {
        "setup_s": 0.6,
        "synth_s": 2.0,
        "hologram_s": 2.0,
        "invert_s": 8.0,
        "outer_iter_s": 2.0,
        "pipeline_s": 12.0,
        "peak_rss_mb": 100.0,
        "rel_error": 0.5,
    }
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_invert_c_work_does_not_depend_on_the_seed(tmp_path):
    # the discrepancy stop follows the noise draw, so the draw is fixed
    results = [_worker("invert-c", seed, tmp_path / str(seed), trace=False) for seed in (4, 5)]
    assert results[0]["outer_iters"] == results[1]["outer_iters"]
    assert results[0]["stopped_by"] == results[1]["stopped_by"] == "discrepancy"


BUSY_THREAD = """
import threading
import worker

assert worker.calibrate() > 0
stop = threading.Event()


def spin():
    while not stop.is_set():
        pass


spinner = threading.Thread(target=spin)
spinner.start()
try:
    worker.calibrate()
except RuntimeError as exc:
    assert "other threads" in str(exc)
else:
    raise AssertionError("calibrate ran beside a busy thread")
finally:
    stop.set()
    spinner.join()
"""


def test_calibration_refuses_busy_threads():
    # in a fresh process, where BLAS starts with one thread as in a worker
    subprocess.run([sys.executable, "-c", BUSY_THREAD], cwd=HERE, env=run.worker_env(ROOT), check=True)


def test_stage_times_are_scaled_by_the_calibrations_around_them(traced):
    _name, _out, result = traced
    cal = result["calibrations_s"]
    assert result["setup_s"] == pytest.approx(result["setup_wall_s"] * worker.CALIBRATION_REF_S / cal[0])
    for i, stage in enumerate(workloads.STAGES):
        record = result["stages"][stage]
        speed = worker.CALIBRATION_REF_S / ((cal[i] + cal[i + 1]) / 2)
        assert record["seconds"] == pytest.approx(record["wall_s"] * speed)


def test_traced_run_passes_its_checks(traced):
    name, _out, result = traced
    for stage in workloads.STAGES:
        assert result["stages"][stage]["problems"] == [], stage
    if name == "invert-S":
        # the noise level comes from the iterate, so the preset never reaches
        # the discrepancy rule; the benchmark keeps that visible
        assert result["stopped_by"] == "max_outer"


def test_every_wrapper_fires(traced):
    name, _out, result = traced
    layers = result["layers"]
    for module_name, attr in layertrace.TRACED:
        key = f"{module_name}.{attr}"
        if key in NEVER_CALLED[name]:
            assert layers[f"{key}.calls"] == 0, key
        else:
            assert layers[f"{key}.calls"] > 0, key
    assert (layers["greens.update_green.calls"] > 0) == (name == "invert-c")
    assert layers["stochastic.sample_wavefields.realizations"] == layers[
        "holography.backprop_realizations.realizations"
    ]
    assert layers["inversion.outer_iters"] == result["outer_iters"]
    assert 0 < layers["greens.assemble_green.distinct_share"] <= 1


def test_self_times_add_up_to_stage_times(traced):
    _name, out, result = traced
    spans = [json.loads(line) for line in (out / "spans.jsonl").read_text().splitlines()]
    assert min(s["self"] for s in spans) >= -1e-9
    roots = [s for s in spans if s["parent"] < 0]
    assert sorted(s["name"] for s in roots) == sorted(layertrace.ROOTS)
    total_self = sum(s["self"] for s in spans)
    total_roots = sum(s["end"] - s["start"] for s in roots)
    assert total_self == pytest.approx(total_roots, rel=1e-9)
    for root in roots:
        stage = root["name"].split("_", 1)[1]
        wall = result["stages"][stage]["wall_s"]
        assert root["end"] - root["start"] == pytest.approx(wall, abs=1e-3)


def test_corrupted_outputs_fail_their_checks(traced, tmp_path):
    name, out, _result = traced
    cfg = workloads.generate(name, 3)
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    if name == "imaging":
        band_path = copy / "hologram" / "hologram_band.hsm"
        band = hio.read_matrix(band_path)
        grid = cli.build_grid(cfg)
        # move the map's peak to the far corner from the block
        block = np.asarray(cfg["medium"]["perturbations"][0]["center"])
        far = int(np.argmax(np.linalg.norm(grid.interior_nodes - block, axis=1)))
        band[far] = 10 * np.max(np.abs(band))
        hio.write_matrix(band_path, band)
        assert workloads.check_hologram(name, cfg, copy / "hologram")
    summary_path = copy / "invert" / "summary.json"
    summary = json.loads(summary_path.read_text())
    quantity = cfg["inversion"]["quantities"][0]
    field = hio.read_matrix(copy / "invert" / f"reconstruction_{quantity}.hsm")
    field[0] = np.nan
    hio.write_matrix(copy / "invert" / f"reconstruction_{quantity}.hsm", field)
    problems, _ = workloads.check_invert(name, cfg, copy / "invert")
    assert any("non-finite" in p for p in problems)
    if name == "invert-c":
        summary["stopped_by"] = "max_outer"
    else:
        summary["final_misfit"] = 1e300
    summary_path.write_text(json.dumps(summary))
    field[0] = 0.0
    hio.write_matrix(copy / "invert" / f"reconstruction_{quantity}.hsm", field)
    problems, _ = workloads.check_invert(name, cfg, copy / "invert")
    assert problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "imaging", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
