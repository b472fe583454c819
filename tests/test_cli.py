"""CLI tests on a miniature experiment configuration."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from holoseis import cli, inversion, io as hio
from holoseis.errors import UsageError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
        "geometry": {
            "half_width": 0.5,
            "receiver_radius": 1.0,
            "n_receivers": 12,
            "points_per_wavelength": 7.5,
        },
        "medium": {
            "reference": {"c": 1.0, "rho": 1.0, "gamma": 0.25},
            "source": {"model": "zero"},
            "perturbations": [
                {
                    "field": "S",
                    "shape": "block",
                    "center": [0.15, -0.1],
                    "half_width": 0.12,
                    "amplitude": 1.0,
                }
            ],
        },
        "frequencies": {"count": 2, "f_min_hz": 1.9, "f_max_hz": 2.0, "power": 1.0},
        "realizations": 64,
        "seed": 99,
        "inversion": {
            "quantities": ["S"],
            "tau": 0.0,
            "max_outer": 2,
            "max_cg": 30,
        },
        "kernels": {
            "pairs": [["S", "S"]],
            "targets": [[0.15, -0.1]],
            "band_count": 2,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg, tmp_path


class TestSynth:
    def test_writes_archives_and_manifest(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        rc = cli.main(["synth", "--config", str(path), "--out", str(out)])
        assert rc == 0
        archives = sorted(out.glob("realizations_f*.hsr"))
        assert len(archives) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config_hash"] == hio.config_hash(cfg)

    def test_byte_identical_reruns(self, tiny_config):
        # a run keeps no state outside its output directory: rerunning any
        # command into a fresh directory writes the same bytes (manifests
        # list output paths, so they differ by design)
        path, cfg, tmp = tiny_config
        out1, out2 = tmp / "a", tmp / "b"
        assert cli.main(["synth", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["synth", "--config", str(path), "--out", str(out2)]) == 0
        for f1 in sorted(out1.glob("*.hsr")):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()
        for command in ("hologram", "invert"):
            runs = []
            for rerun in ("1", "2"):
                out = tmp / f"{command}{rerun}"
                argv = [command, "--config", str(path), "--out", str(out)]
                assert cli.main(argv + ["--archives", str(out1)]) == 0
                runs.append(
                    {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
                )
            assert runs[0] == runs[1]
            suffixes = {Path(name).suffix for name in runs[0]}
            assert {".hsm", ".csv"} <= suffixes
            if command == "invert":
                assert "summary.json" in runs[0]

    def test_seed_override_changes_bytes(self, tiny_config):
        path, cfg, tmp = tiny_config
        out1, out2 = tmp / "a", tmp / "b"
        cli.main(["synth", "--config", str(path), "--out", str(out1)])
        cli.main(
            ["synth", "--config", str(path), "--out", str(out2), "--seed", "100"]
        )
        f1 = sorted(out1.glob("*.hsr"))[0]
        f2 = out2 / f1.name
        assert f1.read_bytes() != f2.read_bytes()

    def test_zero_source_gives_zero_archives(self, tiny_config, tmp_path):
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(Path(path).read_text())
        cfg2["medium"]["perturbations"] = []
        p2 = tmp_path / "zero.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp_path / "zero_run"
        assert cli.main(["synth", "--config", str(p2), "--out", str(out)]) == 0
        arc = hio.read_realizations(sorted(out.glob("*.hsr"))[0])
        assert not np.any(arc.fields)


class TestHologram:
    def test_roundtrip_outputs(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        cli.main(["synth", "--config", str(path), "--out", str(out)])
        rc = cli.main(["hologram", "--config", str(path), "--out", str(out)])
        assert rc == 0
        band = hio.read_matrix(out / "hologram_band.hsm")
        per_freq = [
            hio.read_matrix(p) for p in sorted(out.glob("hologram_f*.hsm"))
        ]
        assert np.allclose(band, np.mean(per_freq, axis=0), atol=1e-15)
        meta = json.loads((out / "hologram_meta.json").read_text())
        assert meta["quantity"] == "S"
        assert (out / "hologram_cut_x.csv").exists()
        assert (out / "hologram_cut_y.csv").exists()


    def test_invalid_pupils_exit_2_without_hologram(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        cfg["hologram"] = {"pupils": [[-1, 0], [1, 2]]}
        path.write_text(json.dumps(cfg))
        rc = cli.main(["hologram", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert not list(out.glob("hologram*"))


class TestKernels:
    def test_band_average_and_cuts(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "kern"
        rc = cli.main(["kernels", "--config", str(path), "--out", str(out)])
        assert rc == 0
        kern = hio.read_matrix(out / "kernel_S_S.hsm")
        assert kern.shape[0] == 1  # one target row
        meta = json.loads((out / "kernels_meta.json").read_text())
        assert meta["band_count"] == 2
        assert (out / "kernel_S_S_t0_x.csv").exists()

    def test_one_model_per_frequency(self, tiny_config, monkeypatch):
        # every pair's kernel comes from one model per frequency, and that
        # model's extra quantities leave each pair's kernel bytes unchanged
        path, cfg, tmp = tiny_config
        cfg["kernels"]["pairs"] = [["S", "S"], ["c", "c"], ["c", "gamma"]]
        path.write_text(json.dumps(cfg))
        calls = []
        build = cli.holography.build_model

        def spy(params, freq, quantities=("S",), **kwargs):
            calls.append(tuple(quantities))
            return build(params, freq, quantities=quantities, **kwargs)

        monkeypatch.setattr(cli.holography, "build_model", spy)
        assert cli.main(["kernels", "--config", str(path), "--out", str(tmp / "all")]) == 0
        assert calls == [("S", "c", "gamma")] * cfg["kernels"]["band_count"]
        for pair in cfg["kernels"]["pairs"]:
            cfg["kernels"]["pairs"] = [pair]
            path.write_text(json.dumps(cfg))
            out = tmp / "_".join(pair)
            assert cli.main(["kernels", "--config", str(path), "--out", str(out)]) == 0
            name = f"kernel_{pair[0]}_{pair[1]}.hsm"
            assert (out / name).read_bytes() == (tmp / "all" / name).read_bytes()

    def test_single_frequency_band_of_width_one(self, tiny_config, tmp_path):
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(Path(path).read_text())
        cfg2["frequencies"] = {"count": 1, "f_min_hz": 2.0, "f_max_hz": 2.0}
        cfg2["kernels"]["band_count"] = 1
        p2 = tmp_path / "single.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp_path / "kern1"
        assert cli.main(["kernels", "--config", str(p2), "--out", str(out)]) == 0
        assert (out / "kernel_S_S.hsm").exists()


class TestInvert:
    def test_reconstruction_and_diagnostics(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        cli.main(["synth", "--config", str(path), "--out", str(out)])
        rc = cli.main(["invert", "--config", str(path), "--out", str(out)])
        assert rc == 0
        recon = hio.read_matrix(out / "reconstruction_S.hsm")
        assert recon.ndim == 1 and np.all(np.isfinite(recon.real))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 2
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("iteration,alpha,misfit")
        assert len(lines) == 3

    def test_diagnostics_report_cg(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        cli.main(["synth", "--config", str(path), "--out", str(out)])
        assert cli.main(["invert", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "diagnostics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(int(r["cg_iterations"]) >= 0 for r in rows)
        assert all(r["cg_converged"] in ("0", "1") for r in rows)
        # the recorded inner residual is the one the CG stop rule read
        converged = [float(r["cg_residual"]) for r in rows if r["cg_converged"] == "1"]
        assert converged and all(0.0 <= res <= inversion.CG_TOL for res in converged)
        # the first step starts from zero, later ones from a recycled start
        starts = [float(r["cg_start_residual"]) for r in rows]
        assert starts[0] == 1.0 and all(0.0 <= res < 1.0 for res in starts[1:])


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", ["[1]", "null", "3"])
    def test_config_not_an_object_is_2(self, tmp_path, text):
        # would end in an AttributeError, or a TypeError with --seed
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = ["synth", "--config", str(bad), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert cli.main(argv + ["--seed", "3"]) == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_schema_violation_is_2(self, tmp_path):
        cfg = json.loads((CONFIGS / "lindsey_braun.json").read_text())
        cfg["geometry"]["n_receivers"] = 1
        p = tmp_path / "schema.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["synth", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "block, key",
        [
            ("inversion", "beta_scale_note"),
            ("inversion", "checkpoints"),
            (None, "seeds"),
            ("medium.reference", "rh0"),  # would leave rho = 1
            ("medium.source", "valeu"),
            ("medium.perturbations.0", "amplitdue"),
            ("medium.flow", "amplitud"),
            ("medium.boundary_source", "vlaue"),
            ("medium.fields", "sound_speed"),
        ],
    )
    def test_unknown_config_key_is_2(self, tiny_config, block, key):
        # a key that would be silently ignored is a configuration error, at
        # any depth of the document
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(path.read_text())
        cfg2["medium"]["flow"] = {"model": "stream-gaussian", "half_width": 0.15}
        cfg2["medium"]["boundary_source"] = {"value": 0.05}
        cfg2["medium"]["fields"] = {}
        target = cfg2
        for part in block.split(".") if block else ():
            target = target[int(part)] if part.isdigit() else target[part]
        target[key] = True
        p2 = tmp / "unknown.json"
        p2.write_text(json.dumps(cfg2))
        with pytest.raises(UsageError, match=key):
            cli.validate_config(cfg2)
        assert cli.main(["synth", "--config", str(p2), "--out", str(tmp / "run")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("realizations", "many"),
            ("realizations", True),
            ("realizations", 2.5),  # would end in a TypeError inside the sampler
            ("geometry.points_per_wavelength", "8"),
            ("geometry.n_receivers", [12]),
            ("frequencies.count", False),
            ("frequencies.f_max_hz", None),
            ("kernels.band_count", 1.5),  # would end in a TypeError inside kernels
            ("kernels.source_strength", "1"),
            ("inversion.max_outer", "2"),  # would end in a TypeError inside invert
            ("inversion.max_cg", True),
            ("inversion.tau", None),
            ("geometry.half_width", 0),  # would divide by zero in build_grid
            ("geometry.half_width", -0.5),
            ("seed", -3),  # would end in Philox's ValueError
            ("seed", 2**64),
            ("seed", 1.5),  # would run as int(seed) while the manifest keeps 1.5
            ("seed", "7"),
            ("inversion.quantities", "cS"),  # would run as ("c", "S")
            ("inversion.quantities", ["S", 1]),
            ("inversion.quantities", []),  # would end in a ValueError inside invert
            ("medium.reference.c", "1.0"),  # would end in a TypeError inside build_grid
            ("medium.reference.gamma", "x"),  # would end in a ValueError
            ("medium.reference.rho", True),
            ("frequencies.power", "x"),  # would end in a TypeError
            ("medium.source.power", "2"),  # float() would accept these strings
            ("medium.source.value", "1.5"),
            ("medium.perturbations.0.half_width", "0.12"),
            ("medium.perturbations.0.amplitude", "1"),
            ("medium.flow.half_width", "0.15"),
            ("medium.flow.amplitude", "0.5"),
            ("medium.perturbations.0.center", [0.1]),  # would broadcast to (0.1, 0.1)
            ("medium.perturbations.0.center", [0.1, "0.2"]),
            ("medium.flow.center", [0.0, 0.0, 0.0]),
            ("medium.flow.center", [0.0, float("nan")]),
            ("kernels.targets", "abc"),  # would end in a UFuncTypeError inside kernels
            ("kernels.targets", [[0.15]]),
            ("inversion.max_cg", 0),  # every step would be zero
            ("inversion.max_outer", -2),  # no iteration would run
            ("inversion.tau", -1),  # the stop rule could never fire
            ("medium.flow", {"model": "stream-gaussian"}),  # would end in a KeyError
            ("medium.boundary_source", {}),
            ("medium.reference", "x"),  # would end in an AttributeError
            ("kernels", "x"),
            ("hologram", "x"),
            ("medium.perturbations", {"field": "S"}),  # would end in a TypeError
            ("medium.fields", {"S": 3}),  # would read file descriptor 3
            ("geometry.receiver_radius", "x"),  # would end in a UFuncTypeError
            ("geometry.receiver_phase", "x"),
            ("medium.reference.c", 0),  # would divide by zero in build_grid
            ("inversion.alpha0", -1),  # would exit 3 after the first forward stack
            ("inversion.alpha0_scale", 0),
            ("inversion.smoothing_width", -1),  # would run as width 0
            ("medium.perturbations.0.half_width", -0.1),  # would run as an empty block
            ("kernels.pairs", ["SS"]),  # would run as ("S", "S")
            ("kernels.pairs", ["cS"]),  # would run as ("c", "S")
            ("kernels.pairs", []),  # would write no kernel
            ("kernels.targets", []),  # would write kernels without target rows
            ("inversion.quantities", ["S", "S"]),  # would end in a broadcast ValueError
            ("hologram.pupils", "x"),
            ("description", 3),
        ],
    )
    def test_non_numeric_config_value_is_2(self, tiny_config, key, value):
        # a string or bool would compare (or fail to compare) as if it were a
        # number; a count must be an integer, in every block of the document,
        # a point has one finite number per axis, and a value outside its
        # range is rejected before anything runs
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(path.read_text())
        *blocks, leaf = key.split(".")
        target = cfg2
        for part in blocks:
            target = target[int(part)] if part.isdigit() else target.setdefault(part, {})
        target[leaf] = value
        with pytest.raises(UsageError, match=leaf):
            cli.validate_config(cfg2)
        p2 = tmp / "typed.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(p2), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "key",
        [
            "realizations",
            "seed",
            "geometry.half_width",
            "medium.perturbations.0.field",
            "medium.perturbations.0.half_width",
            "medium.perturbations.0.amplitude",
        ],
    )
    def test_missing_required_key_is_2(self, tiny_config, key):
        # these keys have no default: a config without one would end in a KeyError
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(path.read_text())
        *blocks, leaf = key.split(".")
        target = cfg2
        for part in blocks:
            target = target[int(part)] if part.isdigit() else target[part]
        del target[leaf]
        with pytest.raises(UsageError, match=leaf):
            cli.validate_config(cfg2)
        p2 = tmp / "missing.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(p2), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "block, update",
        [
            ("inversion", {"alpha0": 2.0, "alpha0_scale": 0.5}),  # the scale would go unread
            ("medium.source", {"model": "zero", "value": 3.0}),  # would run as a zero source
            ("medium.source", {"model": "uniform", "power": 2.0}),  # power is damping's
        ],
        ids=["alpha0_scale", "value", "power"],
    )
    def test_unread_key_is_2(self, tiny_config, block, update):
        # a key that another key's value leaves unread is rejected, not ignored
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(path.read_text())
        target = cfg2
        for part in block.split("."):
            target = target.setdefault(part, {})
        target.update(update)
        with pytest.raises(UsageError, match=list(update)[-1]):
            cli.validate_config(cfg2)
        p2 = tmp / "unread.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(p2), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, block, value",
        [
            ("kernels", "kernels", {"pairs": [["x", "S"]]}),  # holography knows no "x"
            ("invert", "medium", {"boundary_source": {"value": [0.05] * 11}}),  # 12 receivers
        ],
        ids=["pair-name", "boundary-length"],
    )
    def test_checked_before_out_exists(self, tiny_config, command, block, value):
        # faults that the command would find only after creating --out
        path, cfg, tmp = tiny_config
        archives = tmp / "archives"
        assert cli.main(["synth", "--config", str(path), "--out", str(archives)]) == 0
        cfg2 = json.loads(path.read_text())
        cfg2[block].update(value)
        with pytest.raises(UsageError):
            cli.validate_config(cfg2)
        p2 = tmp / "late.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp / "run"
        argv = [command, "--config", str(p2), "--out", str(out)]
        if command == "invert":
            argv += ["--archives", str(archives)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_seed_override_out_of_range_is_2(self, tiny_config, seed):
        # --seed replaces the config's seed, so it is checked like one
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        argv = ["synth", "--config", str(path), "--out", str(out), "--seed", seed]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_nullable_inversion_keys_accept_null(self, tiny_config):
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(path.read_text())
        cfg2["inversion"].update(beta=None, beta_scale=None, alpha0=None)
        cli.validate_config(cfg2)

    @pytest.mark.parametrize(
        "key, value",
        [("beta", -1.0), ("beta", 0.0), ("beta_scale", 0.0), ("beta_scale", -3.0)],
    )
    def test_nonpositive_lavrentiev_beta_is_2(self, tiny_config, key, value):
        # a weighted run needs a Lavrentiev beta > 0: a non-positive level is
        # rejected, not run as an unweighted inversion
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        cfg2 = json.loads(path.read_text())
        cfg2["inversion"][key] = value
        p2 = tmp / "beta.json"
        p2.write_text(json.dumps(cfg2))
        inv = tmp / "inv"
        argv = ["invert", "--config", str(p2), "--out", str(inv), "--archives", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not list(inv.glob("reconstruction_*.hsm"))

    @pytest.mark.parametrize(
        "update",
        [
            {"weighted": "false"},  # a non-empty string would run weighted
            {"weighted": 0},
            {"weighted": None},
            {"weighted": False, "beta": -1.0},  # a level with no weight to set
            {"weighted": False, "beta": 0.5},
            {"weighted": False, "beta_scale": 5.0},
            {"beta": 0.5, "beta_scale": 5.0},  # beta_scale would be ignored
        ],
        ids=["string", "int", "null", "beta-neg", "beta-pos", "beta_scale", "beta-and-scale"],
    )
    def test_weighted_takes_effect_or_is_2(self, tiny_config, update):
        # 'weighted' is a JSON bool, and an unweighted run takes no
        # Lavrentiev level: either contradiction is rejected, not run
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        cfg2 = json.loads(path.read_text())
        cfg2["inversion"].update(update)
        with pytest.raises(UsageError):
            cli.validate_config(cfg2)
        p2 = tmp / "weighted.json"
        p2.write_text(json.dumps(cfg2))
        inv = tmp / "inv"
        argv = ["invert", "--config", str(p2), "--out", str(inv), "--archives", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not inv.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_2(self, tiny_config, workers):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        argv = ["synth", "--config", str(path), "--out", str(out), "--workers", workers]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("only", ["99", "x", "1,99"])
    def test_selftest_unknown_criterion_is_2(self, only, capsys):
        assert cli.main(["selftest", "--only", only]) == cli.EXIT_CONFIG
        assert "criterion" not in capsys.readouterr().out  # nothing ran

    def test_nonfinite_field_override_is_2(self, tiny_config):
        # NaN compares False against every floor, so it is checked on its own
        path, cfg, tmp = tiny_config
        s_field = np.zeros(cli.build_grid(cfg).n_interior)
        s_field[5] = np.nan
        hio.write_matrix(tmp / "S.hsm", s_field)
        cfg2 = json.loads(path.read_text())
        cfg2["medium"]["fields"] = {"S": str(tmp / "S.hsm")}
        p2 = tmp / "nan.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(p2), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not list(out.glob("*.hsr"))

    def test_invert_rejects_workers(self, tiny_config):
        path, cfg, tmp = tiny_config
        argv = ["invert", "--config", str(path), "--out", str(tmp), "--workers", "2"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["hologram", "invert"])
    def test_missing_archive_is_2(self, tiny_config, command):
        path, cfg, tmp = tiny_config
        argv = [command, "--config", str(path), "--out", str(tmp / "run")]
        assert cli.main(argv + ["--archives", str(tmp / "nowhere")]) == cli.EXIT_CONFIG

    def test_truncated_archive_is_2(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        archive = out / "realizations_f000.hsr"
        archive.write_bytes(archive.read_bytes()[:-5])
        rc = cli.main(["hologram", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG

    def test_invert_rejects_archive_of_another_grid(self, tiny_config):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        cfg2 = json.loads(path.read_text())
        cfg2["geometry"]["half_width"] = 0.45  # same receivers, other interior
        p2 = tmp / "narrow.json"
        p2.write_text(json.dumps(cfg2))
        argv = ["invert", "--config", str(p2), "--out", str(tmp / "inv")]
        assert cli.main(argv + ["--archives", str(out)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["hologram", "invert"])
    def test_archive_of_another_frequency_is_2(self, tiny_config, command):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        cfg2 = json.loads(path.read_text())
        cfg2["frequencies"]["f_min_hz"] = 1.8  # same grid (set by f_max), other omega
        p2 = tmp / "shifted.json"
        p2.write_text(json.dumps(cfg2))
        argv = [command, "--config", str(p2), "--out", str(tmp / command)]
        assert cli.main(argv + ["--archives", str(out)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["hologram", "invert"])
    def test_nonfinite_archive_is_2(self, tiny_config, command):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        archive_path = out / "realizations_f001.hsr"
        arc = hio.read_realizations(archive_path)
        arc.fields[3, 2] = np.nan
        hio.write_realizations(archive_path, arc.fields, arc.grid_hash, arc.omega, arc.seed)
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG

    def test_numerical_failure_is_3(self, tiny_config, tmp_path, monkeypatch):
        path, cfg, tmp = tiny_config
        out = tmp / "run"
        cli.main(["synth", "--config", str(path), "--out", str(out)])

        from holoseis import inversion as inv
        from holoseis.errors import NumericalBreakdownError

        def boom(*a, **k):
            raise NumericalBreakdownError("synthetic failure")

        monkeypatch.setattr(inv, "run_irgnm", boom)
        monkeypatch.setattr("holoseis.cli.inversion.run_irgnm", boom)
        rc = cli.main(["invert", "--config", str(path), "--out", str(out)])
        assert rc == 3


class _Recorder(dict):
    """A config block that notes the dotted key of each read made of it."""

    def __init__(self, block, path, seen):
        super().__init__({key: _recorded(v, f"{path}.{key}", seen) for key, v in block.items()})
        self.path, self.seen = path, seen

    def __getitem__(self, key):
        self.seen.add(f"{self.path}.{key}")
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(f"{self.path}.{key}")
        return super().get(key, default)

    def items(self):
        self.seen.update(f"{self.path}.{key}" for key in self)
        return super().items()


def _recorded(value, path, seen):
    # the entries of a list of blocks share their rows, so they share a path
    if isinstance(value, dict):
        return _Recorder(value, path, seen)
    if isinstance(value, list):
        return [_recorded(entry, path, seen) for entry in value]
    return value


class TestConfigTable:
    def test_every_row_is_read(self, tiny_config, monkeypatch):
        # each row of cli.CONFIG takes effect: the commands read it through
        # cli.setting, or medium_from_descriptor reads it from the medium
        path, cfg, tmp = tiny_config
        cfg["description"] = "every optional key set"
        cfg["geometry"]["receiver_phase"] = 0.1
        cfg["inversion"].update(
            weighted=True, beta=None, beta_scale=1.0, alpha0=None, alpha0_scale=0.5,
            smoothing_width=0.0,
        )
        cfg["kernels"]["source_strength"] = 1.0
        cfg["hologram"] = {"pupils": None}
        invert_cfg = json.loads(json.dumps(cfg))
        invert_cfg["medium"]["boundary_source"] = {"value": 0.05}
        for document in (cfg, invert_cfg):
            cli.validate_config(document)
        read = set()
        setting = cli.setting

        def spy(document, key):
            read.add(key)
            return setting(document, key)

        monkeypatch.setattr(cli, "setting", spy)
        out = tmp / "run"
        cli.cmd_synth(cfg, out)
        cli.cmd_hologram(cfg, out, out)
        cli.cmd_kernels(cfg, tmp / "kernels")
        cli.cmd_invert(invert_cfg, out, out)

        grid = cli.build_grid(cfg)
        n = grid.n_interior
        fields = {"c": np.ones(n), "rho": np.ones(n), "gamma": np.zeros(n), "S": np.zeros(n)}
        fields["u"] = np.zeros((n, grid.dim))
        for name, values in fields.items():
            hio.write_matrix(tmp / f"{name}.hsm", values.astype(complex))
        flow = {"model": "stream-gaussian", "center": [0.0, 0.0], "half_width": 0.15,
                "amplitude": 1e-3}
        for source in ({"model": "damping", "power": 2.0}, {"model": "uniform", "value": 0.5}):
            desc = {**cfg["medium"], "source": source, "flow": flow}
            desc["fields"] = {name: str(tmp / f"{name}.hsm") for name in fields}
            cli.validate_config({**cfg, "medium": desc})
            cli.medium.medium_from_descriptor(grid, _recorded(desc, "medium", read))

        # a block is read when any of its keys is, every key read has a row,
        # and the description only documents
        read |= {key.rsplit(".", up)[0] for key in read for up in range(key.count(".") + 1)}
        assert set(cli.CONFIG) ^ read == {"description"}

    def test_main_validates_once(self, tiny_config, monkeypatch):
        path, cfg, tmp = tiny_config
        calls = []
        validate = cli.validate_config
        monkeypatch.setattr(cli, "validate_config", lambda c: calls.append(c) or validate(c))
        argv = ["synth", "--config", str(path), "--out", str(tmp / "run"), "--seed", "5"]
        assert cli.main(argv) == 0
        assert [c["seed"] for c in calls] == [5]


class TestShippedConfigs:
    """The example configurations in configs/ run through every subcommand."""

    def test_source_inversion_config_full_pipeline(self, tmp_path):
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "source_inversion.json"
        out = tmp_path / "run"
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["hologram", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["invert", "--config", str(cfg_path), "--out", str(out)]) == 0
        kern_out = tmp_path / "kernels"
        assert cli.main(["kernels", "--config", str(cfg_path), "--out", str(kern_out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_misfit"] > 0
        # shipped-config invariant: weighted misfit non-increasing
        import csv as _csv

        rows = list(_csv.DictReader(open(out / "diagnostics.csv")))
        mis = [float(r["misfit"]) for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(mis, mis[1:]))

    def test_lindsey_braun_config_localizes(self, tmp_path):
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "lindsey_braun.json"
        cfg = json.loads(cfg_path.read_text())
        out = tmp_path / "lb"
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["hologram", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta = json.loads((out / "hologram_meta.json").read_text())
        peak = np.asarray(meta["peak_position"])
        center = np.asarray(cfg["medium"]["perturbations"][0]["center"])
        lam = cfg["medium"]["reference"]["c"] / cfg["frequencies"]["f_max_hz"]
        hw = cfg["medium"]["perturbations"][0]["half_width"]
        assert np.max(np.abs(peak - center)) <= hw + lam / 2

    @pytest.mark.parametrize(
        "cfg_path",
        sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")),
        ids=lambda p: p.name,
    )
    def test_shipped_config_validates(self, cfg_path):
        cli.validate_config(json.loads(cfg_path.read_text()))

    def test_readme_config_validates(self):
        # the README's example document stays a valid config
        readme = (CONFIGS.parent / "README.md").read_text()
        block = readme.split("A config is one JSON document")[1]
        example = block.split("```json\n")[1].split("```")[0]
        cli.validate_config(json.loads(example))

    def test_kernel_band_config_validates(self):
        cfg_path = (
            Path(__file__).resolve().parents[1] / "configs" / "kernel_band_average.json"
        )
        cfg = json.loads(cfg_path.read_text())
        cli.validate_config(cfg)
        grid = cli.build_grid(cfg)
        assert grid.n_receivers == 40


class TestBoundarySource:
    def test_boundary_source_config_plumbs_through(self, tiny_config, tmp_path):
        # synth samples interior sources only; invert models the boundary term
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(Path(path).read_text())
        cfg2["medium"]["boundary_source"] = {"value": 0.05}
        p2 = tmp_path / "bnd.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp_path / "bnd_run"
        assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
        assert cli.main(["invert", "--config", str(p2), "--out", str(out)]) == 0

    def test_synth_rejects_boundary_source(self, tiny_config, tmp_path):
        path, cfg, tmp = tiny_config
        cfg2 = json.loads(Path(path).read_text())
        cfg2["medium"]["boundary_source"] = {"value": 0.05}
        p2 = tmp_path / "bnd.json"
        p2.write_text(json.dumps(cfg2))
        out = tmp_path / "bnd_run"
        assert cli.main(["synth", "--config", str(p2), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()
