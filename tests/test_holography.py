"""Holography tests: Diag operator, propagators, derivative/adjoint, kernels."""

import numpy as np
import pytest

from holoseis import greens, medium, stochastic, holography, inversion
from holoseis.errors import MemoryBudgetError, UsageError
from holoseis.stochastic import hs_inner


@pytest.fixture(scope="module")
def setting():
    g = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
    params.S = np.full(g.n_interior, 0.5)
    model = holography.build_model(
        params, freq, quantities=("S", "c", "gamma", "rho", "u")
    )
    return g, params, freq, model


@pytest.fixture(scope="module")
def nonuniform_model():
    g = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
    pts = g.interior_nodes
    bump = np.exp(-np.sum((pts - [0.1, -0.1]) ** 2, axis=1) / (2 * 0.15**2))
    params.S = 0.5 + 0.3 * bump
    params.c = params.c * (1 + 0.05 * bump)
    params.gamma = params.gamma * (1 + 0.2 * bump)
    psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.2**2))
    params.u = medium.stream_function_flow(g, psi, params.rho, amplitude=0.02)
    model = holography.build_model(
        params, freq, quantities=("S", "c", "gamma", "rho", "u")
    )
    return g, params, freq, model


class TestDiagProduct:
    def test_rank_one(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        h = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        a = f[:, None] * h.conj()[None, :]  # f (x) conj(h) as interior x receiver
        b = np.eye(9, dtype=complex)
        assert np.allclose(holography.diag_product(a, b), f * h.conj())

    def test_trace_identity_on_psd_products(self):
        # sum_i Diag(ab)(x_i) w_i equals the dense trace of the product
        rng = np.random.default_rng(1)
        w = 0.5 + rng.random(30)
        for _ in range(50):
            a = rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))
            b = a.conj().T  # PSD product a a^H
            lhs = np.sum(holography.diag_product(a, b) * w)
            rhs = np.trace((a @ b) * w[:, None])
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_receiver_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
        b = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
        perm = rng.permutation(6)
        d1 = holography.diag_product(a, b)
        d2 = holography.diag_product(a[:, perm], b[perm, :])
        assert np.allclose(d1, d2, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            holography.diag_product(np.zeros((3, 4)), np.zeros((4, 5)))


class TestPropagators:
    def test_source_pair_alpha_equals_beta(self, setting):
        g, params, freq, model = setting
        pair = holography.lindsey_braun_pair(model.g)
        assert pair.h_beta is pair.h_alpha
        assert np.array_equal(pair.h_alpha, model.h_alpha)

    def test_point_source_rank_one_ingression(self, setting):
        g, params, freq, model = setting
        point = params.copy()
        point.S = np.zeros(g.n_interior)
        j = g.n_interior // 3
        point.S[j] = 1.0
        m = holography.build_model(point, freq, quantities=("c",), g_ref=model.g)
        col = model.g.kernel[g.receiver_idx, g.interior_idx[j]]
        row = model.g.kernel[g.interior_idx, g.interior_idx[j]]
        expect = g.interior_weights[j] * np.outer(col, row.conj())
        assert np.allclose(m.beta_scalar, expect, atol=1e-12 * np.abs(expect).max())

    def test_flow_propagator_table_form(self, setting):
        # flow ingressions are the plain gradients of the scalar ingression
        # on the shared stencil
        g, params, freq, model = setting
        dmats = g.gradient_matrices()
        for i in range(2):
            expect = model.beta_scalar @ dmats[i].T.toarray()
            assert np.allclose(model.beta_flow[i], expect, atol=1e-13)

    def test_flow_gradient_matches_analytic_derivative(self):
        # uniform medium: the ingression kernel B(x, y) is smooth in y away
        # from sources; centered stencils converge at second order to the
        # analytic y-gradient of the closed-form Green product
        errs = []
        for ppw in (8.0, 16.0):
            g = greens.square_grid(0.3, 0.5, ppw, 1.0, n_receivers=8)
            freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
            params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.2)
            pts = g.interior_nodes
            params.S = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.08**2))
            model = holography.build_model(params, freq, quantities=("u",))
            k = model.hp.k_ref
            w = g.interior_weights
            # analytic d/dy of sum_z G(x,z) S w conj(G(y,z)): differentiates
            # conj((i/4) H1_0(k|y-z|)) in y
            from scipy.special import hankel1

            rec = g.receiver_nodes
            gx = model.g.kernel[np.ix_(g.receiver_idx, g.interior_idx)]
            diff = pts[:, None, :] - pts[None, :, :]  # y - z
            r = np.sqrt(np.sum(diff**2, axis=-1))
            np.fill_diagonal(r, 1.0)
            dgdr = -0.25j * k * hankel1(1, k * r)
            np.fill_diagonal(dgdr, 0.0)
            grad_y = dgdr[:, :, None] * diff / r[:, :, None]  # (y, z, 2)
            analytic = np.einsum(
                "rz,z,yzi->riy", gx, params.S * w, grad_y.conj()
            )  # (n_rec, 2, n_int)
            interior_mask = np.all(np.abs(pts) < 0.3 - 2 * g.spacing, axis=1)
            err = 0.0
            for i in range(2):
                diff_i = model.beta_flow[i][:, interior_mask] - analytic[:, i, :][
                    :, interior_mask
                ]
                err = max(err, np.max(np.abs(diff_i)))
            errs.append(err)
        assert errs[1] < errs[0] / 3.0  # ~second order in the spacing

    def test_pupil_masks_zero_rows(self, setting):
        g, params, freq, model = setting
        pupils = ([0, 1, 2], [3, 4])
        pair = holography.lindsey_braun_pair(model.g, pupils=pupils)
        assert not np.any(pair.h_alpha[3:, :])
        assert not np.any(pair.h_beta[:3, :])
        assert not np.any(pair.h_beta[5:, :])
        assert np.array_equal(pair.h_alpha[:3, :], model.h_alpha[:3, :])
        assert np.array_equal(pair.h_beta[3:5, :], model.h_alpha[3:5, :])

    def test_unknown_quantity_raises(self, setting):
        g, params, freq, model = setting
        with pytest.raises(UsageError):
            holography.build_model(params, freq, quantities=("zeta",), g_ref=model.g)

    def test_imag_shortcut_matches_product_on_equipartition_grid(self):
        # damping-proportional sources surrounding the receivers: the exact
        # ingression collapses onto Pi/(4 i omega)(G - conj G)
        lam = 0.4
        omega = 2 * np.pi / lam
        g = greens.disk_grid(1.0, lam, 7.5, receiver_radius=0.45, n_receivers=12)
        params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.25 * omega)
        freq = medium.FrequencyContext(omega=omega, power=1.5)
        params.S = stochastic.source_cov_from_damping(params, freq)
        exact = holography.build_model(params, freq, quantities=("c",))
        a = exact.h_alpha
        short = (freq.power / (4j * freq.omega)) * (a - a.conj())
        # the identity assumes sources extending to infinity; compare on
        # columns a few decay lengths away from the rim of the source disk
        inner = np.linalg.norm(g.interior_nodes, axis=1) < 0.6
        num = np.linalg.norm(exact.beta_scalar[:, inner] - short[:, inner])
        den = np.linalg.norm(exact.beta_scalar[:, inner])
        assert num / den < 0.05


class TestReceiverRows:
    def test_evaluated_once_per_iterate(self, monkeypatch):
        # build_model, the model covariance and sampling all read Tr G of the
        # perturbed operator; the factored rows are evaluated only once
        g = greens.square_grid(0.3, 0.5, 7.5, 1.0, n_receivers=8)
        freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
        params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
        params.S = np.full(g.n_interior, 0.5)
        bump = np.exp(-np.sum(g.interior_nodes**2, axis=1) / (2 * 0.1**2))
        params.c = params.c * (1 + 0.05 * bump)
        calls = []
        rows = greens.GreensOperator.rows

        def spy(self, idx):
            calls.append((self, np.array(idx)))
            return rows(self, idx)

        monkeypatch.setattr(greens.GreensOperator, "rows", spy)
        model = holography.build_model(params, freq, quantities=("c",))
        model.covariance()
        stochastic.sample_wavefields(model.hp, model.g, 4, seed=1)
        on_iterate = [idx for op, idx in calls if op is model.g]
        assert len(on_iterate) == 1
        assert np.array_equal(on_iterate[0], g.receiver_idx)
        assert np.array_equal(model.g.receiver_rows, rows(model.g, g.receiver_idx))


class TestDerivativeAdjoint:
    @pytest.mark.parametrize("q", ["S", "c", "gamma", "rho", "u"])
    def test_adjoint_identity(self, nonuniform_model, q):
        g, params, freq, model = nonuniform_model
        rng = np.random.default_rng(hash(q) % 2**32)
        w_int = g.interior_weights
        w_rec = g.receiver_weights
        for _ in range(5):
            if q == "u":
                dq = rng.standard_normal((g.n_interior, 2))
                wq = w_int[:, None]
            else:
                dq = rng.standard_normal(g.n_interior)
                wq = w_int
            d = rng.standard_normal((g.n_receivers,) * 2) + 1j * rng.standard_normal(
                (g.n_receivers,) * 2
            )
            dc = holography.apply_derivative(model, {q: dq})
            lhs = hs_inner(dc, d, w_rec).real
            dual = holography.apply_adjoint(model, d, (q,))[q]
            rhs = float(np.sum(dq * dual * wq))
            nd = np.sqrt(np.sum(dq**2 * wq))
            nm = np.sqrt(hs_inner(d, d, w_rec).real)
            assert abs(lhs - rhs) <= 1e-10 * nd * nm

    def test_derivative_output_hermitian(self, nonuniform_model):
        g, params, freq, model = nonuniform_model
        rng = np.random.default_rng(3)
        dq = {
            "c": rng.standard_normal(g.n_interior),
            "S": rng.standard_normal(g.n_interior),
        }
        dc = holography.apply_derivative(model, dq)
        assert np.max(np.abs(dc - dc.conj().T)) <= 1e-12 * np.max(np.abs(dc))

    def test_zero_perturbation_zero_output(self, setting):
        g, params, freq, model = setting
        dc = holography.apply_derivative(model, {"c": np.zeros(g.n_interior)})
        assert not np.any(dc)
        duals = holography.apply_adjoint(model, np.zeros((g.n_receivers,) * 2))
        assert all(not np.any(v) for v in duals.values())

    def test_source_only_derivative_is_rank_structured(self, setting):
        g, params, freq, model = setting
        ds = np.zeros(g.n_interior)
        ds[5] = 1.0
        dc = holography.apply_derivative(model, {"S": ds})
        a = model.h_alpha[:, 5]
        expect = g.interior_weights[5] * np.outer(a, a.conj())
        assert np.allclose(dc, expect, atol=1e-13 * np.abs(expect).max())

    def test_adjoint_of_point_source_covariance_peaks_at_source(self, setting):
        g, params, freq, model = setting
        j = np.argmin(np.sum((g.interior_nodes - [0.2, -0.2]) ** 2, axis=1))
        s = np.zeros(g.n_interior)
        s[j] = 1.0
        hp1 = medium.HelmholtzParams(
            v=model.hp.v, A=model.hp.A, S=s, k_ref=model.hp.k_ref, omega=freq.omega
        )
        cov = stochastic.forward_covariance(hp1, model.g)
        dual = holography.apply_adjoint(model, cov.matrix, ("S",))["S"]
        assert np.argmax(dual) == j


class TestBackpropagation:
    def test_matches_diag_of_empirical_corr(self, setting):
        g, params, freq, model = setting
        r = stochastic.sample_wavefields(model.hp, model.g, 300, seed=5)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        pair = holography.lindsey_braun_pair(model.g)
        holo = holography.backprop_realizations(pair, r, g.receiver_weights)
        expect = holography.hologram_expectation(pair, corr)
        scale = np.max(np.abs(expect.values))
        assert np.max(np.abs(holo.values - expect.values)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "pupils", [None, ([0, 2, 4, 6, 8, 10], [1, 2, 3, 9, 15])], ids=["shared", "pupils"]
    )
    def test_matches_correlation_oracle(self, setting, pupils):
        # Diag(H_alpha^H W Corr W H_beta) from the empirical correlation of the
        # same realizations; the pupil pair holds two distinct arrays
        g, params, freq, model = setting
        r = stochastic.sample_wavefields(model.hp, model.g, 300, seed=5)
        pair = holography.lindsey_braun_pair(model.g, pupils=pupils)
        holo = holography.backprop_realizations(pair, r, g.receiver_weights).values
        w = g.receiver_weights
        corr = stochastic.empirical_corr(r, w).matrix
        expect = np.sum(
            (pair.h_alpha.conj().T @ (w[:, None] * corr * w[None, :])) * pair.h_beta.T, axis=1
        )
        assert np.max(np.abs(holo - expect)) <= 1e-12 * np.max(np.abs(expect))
        if pupils is None:
            assert not np.any(holo.imag)
        else:
            assert np.any(holo.imag)

    def test_single_realization_gram_nonnegative(self, setting):
        g, params, freq, model = setting
        r = stochastic.sample_wavefields(model.hp, model.g, 1, seed=6)
        pair = holography.lindsey_braun_pair(model.g)
        holo = holography.backprop_realizations(pair, r, g.receiver_weights)
        assert np.max(np.abs(holo.values.imag)) <= 1e-14 * np.max(np.abs(holo.values))
        assert np.min(holo.values.real) >= 0.0

    def test_expectation_over_batches(self, setting):
        g, params, freq, model = setting
        cov = model.covariance()
        pair = holography.lindsey_braun_pair(model.g)
        expect = holography.hologram_expectation(pair, cov)
        acc = np.zeros(g.n_interior, dtype=complex)
        batches, n = 50, 32
        for s in range(batches):
            r = stochastic.sample_wavefields(model.hp, model.g, n, seed=7000 + s)
            acc += holography.backprop_realizations(pair, r, g.receiver_weights).values
        acc /= batches
        rel = np.linalg.norm(acc - expect.values) / np.linalg.norm(expect.values)
        assert rel < 5.0 / np.sqrt(batches * n)


class TestSensitivityKernels:
    @pytest.mark.parametrize(
        "pair", [("S", "S"), ("c", "c"), ("gamma", "gamma"), ("c", "gamma"), ("u", "u")]
    )
    def test_kernel_equals_operator_composition(self, setting, pair):
        g, params, freq, model = setting
        cov = model.covariance()
        weight = inversion.lavrentiev_weight(cov, beta=0.1 * cov.trace() / cov.n)
        rng = np.random.default_rng(11)
        kern = holography.sensitivity_kernel(model, pair, weight=weight)
        qx, qy = pair
        dq = (
            rng.standard_normal((g.n_interior, 2))
            if qy == "u"
            else rng.standard_normal(g.n_interior)
        )
        via_kernel = holography.apply_kernel(kern, dq, g)
        dc = holography.apply_derivative(model, {qy: dq})
        dcw = holography.weighted_residual(weight, dc)
        via_comp = holography.apply_adjoint(model, dcw, (qx,))[qx]
        scale = np.max(np.abs(via_comp))
        assert np.max(np.abs(via_kernel - via_comp)) <= 1e-10 * scale

    def test_source_kernel_nonnegative(self, setting):
        g, params, freq, model = setting
        kern = holography.sensitivity_kernel(model, ("S", "S"))
        assert kern.entries.min() >= 0.0

    def test_targets_mode_matches_rows(self, setting):
        g, params, freq, model = setting
        full = holography.sensitivity_kernel(model, ("c", "c"))
        tgt = np.array([4, 57, 200])
        rows = holography.sensitivity_kernel(model, ("c", "c"), targets=tgt)
        assert np.allclose(
            rows.entries, full.entries[tgt, :], atol=1e-10 * np.abs(full.entries).max()
        )

    def test_scalar_kernel_symmetry(self, setting):
        g, params, freq, model = setting
        kern = holography.sensitivity_kernel(model, ("c", "c"))
        assert np.max(np.abs(kern.entries - kern.entries.T)) <= 1e-10 * np.max(
            np.abs(kern.entries)
        )

    def test_flow_kernel_exchange_symmetry(self, setting):
        g, params, freq, model = setting
        kern = holography.sensitivity_kernel(model, ("u", "u"))
        scale = np.max(np.abs(kern.entries))
        for p in range(2):
            for q in range(2):
                assert np.max(
                    np.abs(kern.entries[p, q] - kern.entries[q, p].T)
                ) <= 1e-10 * scale

    def test_density_kernel_not_assembled(self, setting):
        g, params, freq, model = setting
        with pytest.raises(UsageError):
            holography.sensitivity_kernel(model, ("rho", "rho"))

    def test_memory_guard_suggests_targets(self, setting):
        g, params, freq, model = setting
        with pytest.raises(MemoryBudgetError):
            holography.sensitivity_kernel(model, ("S", "S"), budget_bytes=128)


class TestSmoothing:
    def test_symmetric_operator(self, setting):
        g, *_ = setting
        rng = np.random.default_rng(4)
        a = rng.standard_normal(g.n_interior)
        b = rng.standard_normal(g.n_interior)
        sa = holography.smooth_field(g, a, width=0.05)
        sb = holography.smooth_field(g, b, width=0.05)
        assert float(a @ sb) == pytest.approx(float(b @ sa), rel=1e-12)

    def test_zero_width_identity(self, setting):
        g, *_ = setting
        a = np.arange(g.n_interior, dtype=float)
        assert np.array_equal(holography.smooth_field(g, a, 0.0), a)


class TestHologramIntensity:
    def test_shared_propagator_matches_distinct_copy(self, setting):
        # the single-product path for H_alpha is H_beta is bit-identical to
        # back-propagating through two equal arrays
        g, params, freq, model = setting
        r = stochastic.sample_wavefields(model.hp, model.g, 64, seed=9)
        pair = holography.lindsey_braun_pair(model.g)
        twin = holography.PropagatorPair(h_alpha=pair.h_alpha, h_beta=pair.h_beta.copy())
        a = holography.backprop_realizations(pair, r, g.receiver_weights)
        b = holography.backprop_realizations(twin, r, g.receiver_weights)
        assert np.array_equal(a.values, b.values)

    def test_empty_pupil_gives_zero_hologram(self, setting):
        g, params, freq, model = setting
        r = stochastic.sample_wavefields(model.hp, model.g, 16, seed=9)
        pair = holography.lindsey_braun_pair(model.g, pupils=([], []))
        holo = holography.backprop_realizations(pair, r, g.receiver_weights)
        assert not np.any(holo.values)
