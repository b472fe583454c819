"""Stochastic model tests: sampling, correlation estimates, Isserlis structure."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from holoseis import greens, holography, medium, stochastic
from holoseis.errors import UsageError
from holoseis.stochastic import hs_norm


@pytest.fixture(scope="module")
def setting():
    g = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
    pts = g.interior_nodes
    blk = (np.abs(pts[:, 0] - 0.1) < 0.15) & (np.abs(pts[:, 1] + 0.1) < 0.15)
    params.S = np.where(blk, 1.0, 0.0)
    # a flat medium: the model's rows are those of the reference operator
    g_op = greens.assemble_green(g, params.reference_wavenumber(freq))
    model = holography.build_model(params, freq, g_ref=g_op)
    cov = stochastic.forward_covariance(model)
    return g, params, freq, model, g_op, cov


def _with_source(model, s):
    """The model with another S: S does not enter G, so the rows carry over."""
    return replace(model, hp=replace(model.hp, S=s))


class TestForwardCovariance:
    def test_hermitian_psd(self, setting):
        *_, cov = setting
        cov.validate()

    def test_point_source_rank_one(self, setting):
        g, params, freq, model, g_op, _ = setting
        j = g.n_interior // 2
        s = np.zeros(g.n_interior)
        s[j] = 2.0
        cov = stochastic.forward_covariance(_with_source(model, s))
        col = g_op.kernel[g.receiver_idx, g.interior_idx[j]]
        w_j = g.interior_weights[j]
        expect = 2.0 * w_j * np.outer(col, col.conj())
        assert np.allclose(cov.matrix, expect, atol=1e-14 * np.abs(expect).max())

    def test_zero_source_zero_matrix(self, setting):
        g, params, freq, model, g_op, _ = setting
        cov = stochastic.forward_covariance(_with_source(model, np.zeros(g.n_interior)))
        assert not np.any(cov.matrix)

    def test_boundary_source_diagonal(self, setting):
        g, params, freq, model, g_op, _ = setting
        b = np.full(g.n_receivers, 0.3)
        cov = stochastic.forward_covariance(replace(model, boundary_src=b))
        cov.validate()
        base = stochastic.forward_covariance(model)
        extra = cov.matrix - base.matrix
        a_bnd = g_op.kernel[np.ix_(g.receiver_idx, g.receiver_idx)]
        w = g.receiver_weights
        expect = (a_bnd * (0.3 * w)[None, :]) @ a_bnd.conj().T
        assert np.allclose(extra, expect, atol=1e-12 * np.abs(expect).max())

    def test_boundary_source_is_one_strength_per_receiver(self, setting):
        # M_B is diagonal on the receivers: a receivers-by-receivers kernel is refused
        g, params, freq, model, g_op, _ = setting
        for b in (np.full((g.n_receivers,) * 2, 0.3), np.full(g.n_receivers + 1, 0.3)):
            with pytest.raises(UsageError, match="one strength per receiver"):
                stochastic.forward_covariance(replace(model, boundary_src=b))


class TestSampling:
    def test_zero_source_zero_fields(self, setting):
        g, params, freq, model, g_op, _ = setting
        r = stochastic.sample_wavefields(_with_source(model, np.zeros(g.n_interior)), 8, seed=1)
        assert not np.any(r.fields)

    def test_fixed_seed_reproducible(self, setting):
        g, params, freq, model, g_op, _ = setting
        r1 = stochastic.sample_wavefields(model, 32, seed=7)
        r2 = stochastic.sample_wavefields(model, 32, seed=7)
        assert np.array_equal(r1.fields, r2.fields)

    @staticmethod
    def _stream_oracle(g, g_op, s_field, n, seed, nodes):
        # realization j is amp (x + i y) on the interior positions `nodes`,
        # x then y the first 2 |nodes| normals of Philox(key=seed).jumped(j),
        # weighted and summed over those receiver columns 1024 realizations
        # at a time
        batch = 1024
        w = g.interior_weights[nodes]
        amp = np.sqrt(s_field[nodes] / (2.0 * w))
        a_cols = g_op.receiver_rows[:, g.interior_idx[nodes]]
        base = np.random.Philox(key=seed)
        block = np.empty((n, nodes.size), dtype=complex)
        for j in range(n):
            draws = np.random.Generator(base.jumped(j)).standard_normal((2, nodes.size))
            block[j] = amp * (draws[0] + 1j * draws[1])
        return np.concatenate(
            [(block[s : s + batch] * w[None, :]) @ a_cols.T for s in range(0, n, batch)]
        )

    def test_realization_stream_pinned(self, setting):
        # the archive format: draws and the sum run over supp(S) only; the
        # source is zero on most nodes here
        g, params, freq, model, g_op, _ = setting
        n, seed = 1100, 23
        s = model.hp.S
        r = stochastic.sample_wavefields(model, n, seed=seed)
        expect = self._stream_oracle(g, g_op, s, n, seed, np.flatnonzero(s))
        assert np.any(s == 0.0)
        assert np.array_equal(r.fields, expect)

    def test_full_support_stream_unchanged(self, setting):
        # with no zero in S the stream is the full 2 n_int draw per realization
        g, params, freq, model, g_op, _ = setting
        n, seed = 1100, 5
        s_full = 0.25 + model.hp.S
        r = stochastic.sample_wavefields(_with_source(model, s_full), n, seed=seed)
        expect = self._stream_oracle(g, g_op, s_full, n, seed, np.arange(g.n_interior))
        assert np.all(s_full > 0.0)
        assert np.array_equal(r.fields, expect)

    def test_seed_changes_fields(self, setting):
        g, params, freq, model, g_op, _ = setting
        r1 = stochastic.sample_wavefields(model, 8, seed=7)
        r2 = stochastic.sample_wavefields(model, 8, seed=8)
        assert not np.array_equal(r1.fields, r2.fields)

    def test_monte_carlo_error_halves(self, setting):
        # relative HS error ~ 1/sqrt(N): quadrupling N halves it (+-30%),
        # measured on the root-mean-square over independent sample sets
        g, params, freq, model, g_op, cov = setting
        n_c = hs_norm(cov.matrix, cov.weights)

        def rms_err(n, reps=4):
            acc = 0.0
            for s in range(reps):
                r = stochastic.sample_wavefields(model, n, seed=900 + s)
                corr = stochastic.empirical_corr(r, g.receiver_weights)
                acc += hs_norm(corr.matrix - cov.matrix, cov.weights) ** 2
            return np.sqrt(acc / reps) / n_c

        e256, e1024 = rms_err(256), rms_err(1024)
        assert 1.4 <= e256 / e1024 <= 2.6

    def test_pseudo_covariance_vanishes(self, setting):
        g, params, freq, model, g_op, cov = setting
        n = 4096
        r = stochastic.sample_wavefields(model, n, seed=17)
        pseudo = (r.fields.T @ r.fields) / n  # E[psi psi] without conjugate
        scale = np.max(np.abs(cov.matrix))
        assert np.max(np.abs(pseudo)) < 3.0 / np.sqrt(n) * scale * 3


class TestEmpiricalCorr:
    def test_single_realization_outer_product(self, setting):
        g, params, freq, model, g_op, _ = setting
        r = stochastic.sample_wavefields(model, 1, seed=3)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        psi = r.fields[0]
        assert np.allclose(corr.matrix, np.outer(psi, psi.conj()), atol=1e-15)

    def test_exactly_hermitian_without_copying_fields(self, setting):
        g, params, freq, model, g_op, _ = setting
        r = stochastic.sample_wavefields(model, 4000, seed=3)
        tracemalloc.start()
        corr = stochastic.empirical_corr(r, g.receiver_weights).matrix
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < r.fields.nbytes
        assert np.array_equal(corr, corr.conj().T)
        ref = r.fields.T @ r.fields.conj() / 4000
        assert np.max(np.abs(corr - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_global_phase_invariance(self, setting):
        g, params, freq, model, g_op, _ = setting
        r = stochastic.sample_wavefields(model, 16, seed=3)
        corr1 = stochastic.empirical_corr(r, g.receiver_weights)
        rotated = stochastic.RealizationSet(
            fields=r.fields * np.exp(0.7j), seed=r.seed, omega=r.omega
        )
        corr2 = stochastic.empirical_corr(rotated, g.receiver_weights)
        assert np.allclose(corr1.matrix, corr2.matrix, atol=1e-14)

    def test_unbiasedness_over_batches(self, setting):
        g, params, freq, model, g_op, cov = setting
        acc = np.zeros_like(cov.matrix)
        batches, n = 50, 64
        for s in range(batches):
            r = stochastic.sample_wavefields(model, n, seed=4000 + s)
            acc += stochastic.empirical_corr(r, g.receiver_weights).matrix
        acc /= batches
        err = hs_norm(acc - cov.matrix, cov.weights) / hs_norm(cov.matrix, cov.weights)
        # mean of batches*n samples: error ~ tr/|C| / sqrt(batches*n)
        assert err < 3.0 * cov.trace() / hs_norm(cov.matrix, cov.weights) / np.sqrt(
            batches * n
        )


class TestSourceModel:
    def test_zero_damping_zero_source(self, setting):
        g, *_ = setting
        params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.0)
        freq = medium.FrequencyContext(omega=1.0)
        assert not np.any(stochastic.source_cov_from_damping(params, freq))

    def test_linear_in_power(self, setting):
        g, *_ = setting
        params = medium.uniform_medium(g, c=1.3, rho=1.0, gamma=0.4)
        s1 = stochastic.source_cov_from_damping(
            params, medium.FrequencyContext(omega=1.0, power=1.0)
        )
        s2 = stochastic.source_cov_from_damping(
            params, medium.FrequencyContext(omega=1.0, power=2.0)
        )
        assert np.allclose(s2, 2.0 * s1)
        assert np.allclose(s1, 0.4 / 1.3**2)


class TestIsserlis:
    def test_fourth_moments_match_second_moments(self):
        # Cov(Corr(r1,r2), Corr(r3,r4)) = C(r1,r3) C(r4,r2), sampled over
        # 1e5 realizations.  The four receivers sit within a quarter
        # wavelength of each other so every covariance entry is of the same
        # order and the entrywise relative comparison is meaningful.
        g = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=4)
        arc = 0.09 * np.arange(4)
        g.nodes[g.receiver_idx] = np.column_stack([np.cos(arc), np.sin(arc)])
        freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
        params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.1)
        pts = g.interior_nodes
        params.S = np.exp(
            -np.sum((pts - [0.15, -0.1]) ** 2, axis=1) / (2 * 0.25**2)
        )
        model = holography.build_model(params, freq)
        cov = stochastic.forward_covariance(model)
        n = 100_000
        r = stochastic.sample_wavefields(model, n, seed=77)
        f = r.fields
        t = f[:, :, None] * f.conj()[:, None, :]  # (N, 4, 4) rank-1 terms
        tm = t.mean(axis=0)
        sampled = np.einsum("nab,ncd->abcd", t, t.conj()) / n
        sampled -= tm[:, :, None, None] * tm.conj()[None, None, :, :]
        pred = cov.matrix[:, None, :, None] * cov.matrix.conj()[None, :, None, :]
        assert np.min(np.abs(pred)) > 1e-3 * np.max(np.abs(pred))
        rel = np.abs(sampled - pred) / np.abs(pred)
        assert rel.max() < 0.05
