"""Binary formats, archives, manifests."""

import json
import tracemalloc

import numpy as np
import pytest

from holoseis import io as hio
from holoseis.errors import UsageError


class TestMatrixFormat:
    def test_roundtrip_2d(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        path = tmp_path / "m.hsm"
        hio.write_matrix(path, arr)
        back = hio.read_matrix(path)
        assert np.array_equal(back, arr)

    def test_roundtrip_1d_and_3d(self, tmp_path):
        for shape in [(11,), (3, 4, 5)]:
            arr = np.arange(np.prod(shape), dtype=complex).reshape(shape)
            path = tmp_path / "x.hsm"
            hio.write_matrix(path, arr)
            assert np.array_equal(hio.read_matrix(path), arr)

    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (3, 0)], ids=str)
    def test_roundtrip_rank0_and_zero_size(self, tmp_path, shape):
        arr = np.full(shape, 1.5 - 2j)
        path = tmp_path / "x.hsm"
        hio.write_matrix(path, arr)
        back = hio.read_matrix(path)
        assert back.shape == shape
        assert np.array_equal(back, arr)

    def test_roundtrip_strided(self, tmp_path):
        arr = (np.arange(24) * (1 + 1j)).reshape(4, 6)[:, ::2]  # a strided view
        path = tmp_path / "x.hsm"
        hio.write_matrix(path, arr)
        assert np.array_equal(hio.read_matrix(path), arr)

    def test_roundtrip_stages_no_copy(self, tmp_path):
        arr = np.ones((4096, 64), dtype=complex)
        path = tmp_path / "m.hsm"
        tracemalloc.start()
        try:
            hio.write_matrix(path, arr)
            back = hio.read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, arr)
        assert peak < 1.25 * arr.nbytes

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.hsm"
        hio.write_matrix(path, np.zeros((2, 3), dtype=complex))
        raw = path.read_bytes()
        assert raw[:12] == b"HOLOSEISGRID"
        assert int.from_bytes(raw[12:16], "little") == 1
        assert int.from_bytes(raw[16:24], "little") == 2  # rank
        assert int.from_bytes(raw[24:32], "little") == 2
        assert int.from_bytes(raw[32:40], "little") == 3
        assert len(raw) == 40 + 16 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hsm"
        path.write_bytes(b"NOTAMATRIXFILE" + b"\0" * 64)
        with pytest.raises(UsageError):
            hio.read_matrix(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.hsm"
        hio.write_matrix(path, np.ones((4, 4), dtype=complex))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(UsageError):
            hio.read_matrix(path)


    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "m.hsm"
        hio.write_matrix(path, np.ones((4, 4), dtype=complex))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(UsageError, match="truncated header"):
            hio.read_matrix(path)


class TestRealizationArchive:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        fields = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
        grid_hash = "ab" * 32
        path = tmp_path / "r.hsr"
        hio.write_realizations(path, fields, grid_hash, omega=2.5, seed=42)
        arc = hio.read_realizations(path)
        assert arc.grid_hash == grid_hash
        assert arc.omega == 2.5
        assert arc.seed == 42
        assert arc.n_realizations == 10
        assert np.array_equal(arc.fields, fields)

    @pytest.mark.parametrize("keep", [12 + 20, 12 + 68 + 16 * 7 + 5], ids=["header", "payload"])
    def test_truncated_archive_rejected(self, tmp_path, keep):
        path = tmp_path / "r.hsr"
        hio.write_realizations(path, np.ones((4, 3), dtype=complex), "ab" * 32, 1.0, 0)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(UsageError, match="truncated"):
            hio.read_realizations(path)

    def test_roundtrip_stages_no_copy(self, tmp_path):
        # the payload is written from the array's own buffer and read into the
        # returned array, so a write-read cycle holds one payload, not two
        fields = np.ones((4096, 64), dtype=complex)
        path = tmp_path / "r.hsr"
        tracemalloc.start()
        try:
            hio.write_realizations(path, fields, "ab" * 32, 1.0, 0)
            arc = hio.read_realizations(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(arc.fields, fields)
        assert peak < 1.25 * fields.nbytes

    def test_missing_archive_names_path(self, tmp_path):
        path = tmp_path / "nowhere" / "r.hsr"
        with pytest.raises(UsageError, match="nowhere"):
            hio.read_realizations(path)

    def test_wrong_hash_length(self, tmp_path):
        with pytest.raises(UsageError):
            hio.write_realizations(
                tmp_path / "r.hsr", np.zeros((2, 2), dtype=complex), "abcd", 1.0, 0
            )


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        cfg = {"b": 2, "a": 1}
        path = tmp_path / "manifest.json"
        hio.write_manifest(path, cfg, ["x.hsm"], extra={"command": "synth"})
        doc = json.loads(path.read_text())
        assert doc["config"] == cfg
        assert doc["config_hash"] == hio.config_hash(cfg)
        assert doc["outputs"] == ["x.hsm"]
        assert doc["command"] == "synth"
        assert "package_version" in doc

    def test_config_hash_stable_under_key_order(self):
        assert hio.config_hash({"a": 1, "b": [2, 3]}) == hio.config_hash(
            {"b": [2, 3], "a": 1}
        )
