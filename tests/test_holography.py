"""Holography tests: Diag operator, propagators, derivative/adjoint, kernels."""

import tracemalloc
from dataclasses import replace

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


def _random_hologram(rows, fields, w_rec, masks=None):
    """Production hologram of random realizations through given rows."""
    r = stochastic.RealizationSet(fields=fields, seed=0, omega=1.0)
    pair = holography.PropagatorPair(rows=rows, masks=masks)
    return holography.backprop_realizations(pair, r, w_rec)


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDiagProduct:
    """The Diag operator, on the production back-propagation path."""

    def test_rank_one(self):
        # one realization f: Diag(H^H W f f^H W H) = |H^H W f|^2
        rng = np.random.default_rng(0)
        rows = _cnormal(rng, (9, 13))
        f = _cnormal(rng, (1, 9))
        w = 0.5 + rng.random(9)
        holo = _random_hologram(rows, f, w)
        assert np.allclose(holo, np.abs(rows.conj().T @ (w * f[0])) ** 2)

    def test_trace_identity_on_psd_products(self):
        # sum_x Diag(H^H W Corr W H)(x) w_x equals the dense trace of the product
        rng = np.random.default_rng(1)
        w_rec = 0.5 + rng.random(8)
        w_int = 0.5 + rng.random(30)
        for _ in range(50):
            rows = _cnormal(rng, (8, 30))
            fields = _cnormal(rng, (5, 8))
            lhs = np.sum(_random_hologram(rows, fields, w_rec) * w_int)
            wcw = w_rec[:, None] * (fields.T @ fields.conj() / 5) * w_rec[None, :]
            rhs = np.trace((rows.conj().T @ wcw @ rows) * w_int[:, None])
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_receiver_permutation_invariance(self):
        rng = np.random.default_rng(2)
        rows = _cnormal(rng, (6, 12))
        fields = _cnormal(rng, (4, 6))
        w = 0.5 + rng.random(6)
        masks = (rng.random((2, 6)) < 0.7).astype(float)
        perm = rng.permutation(6)
        d1 = _random_hologram(rows, fields, w, masks)
        d2 = _random_hologram(rows[perm], fields[:, perm], w[perm], masks[:, perm])
        assert np.allclose(d1, d2, atol=1e-14 * np.max(np.abs(d1)))


class TestPropagators:
    def test_source_pair_alpha_equals_beta(self, setting):
        g, params, freq, model = setting
        # without pupils both propagators are the one array of receiver rows
        pair = holography.lindsey_braun_pair(model)
        assert pair.masks is None
        assert np.array_equal(pair.rows, model.h_alpha)

    def test_point_source_rank_one_ingression(self, setting):
        g, params, freq, model = setting
        point = params.copy()
        point.S = np.zeros(g.n_interior)
        j = g.n_interior // 3
        point.S[j] = 1.0
        # a flat medium: the model's operator is the reference itself
        g_ref = greens.assemble_green(g, model.hp.k_ref)
        m = holography.build_model(point, freq, quantities=("c",), g_ref=g_ref)
        col = g_ref.kernel[g.receiver_idx, g.interior_idx[j]]
        row = g_ref.kernel[g.interior_idx, g.interior_idx[j]]
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
            gx = model.receiver_rows[:, g.interior_idx]
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
        pair = holography.lindsey_braun_pair(model, pupils=pupils)
        expect = np.zeros((2, g.n_receivers))
        expect[0, :3] = 1.0
        expect[1, 3:5] = 1.0
        assert np.array_equal(pair.masks, expect)
        assert np.array_equal(pair.rows, model.h_alpha)

    @pytest.mark.parametrize(
        "pupils",
        [
            ([-1, 0], [1, 2]),  # a negative index would wrap to the last receiver
            ([1.7, 2], [0]),  # a float would be truncated
            ([0, 16], [1]),  # past the last of 16 receivers
            ([0], [True]),
            ([0],),
            ([0], 3),
            "01",
        ],
        ids=["negative", "float", "out-of-range", "bool", "one-list", "not-a-list", "string"],
    )
    def test_invalid_pupils_raise(self, setting, pupils):
        g, params, freq, model = setting
        with pytest.raises(UsageError, match="pupils"):
            holography.lindsey_braun_pair(model, pupils=pupils)

    def test_unknown_quantity_raises(self, setting):
        g, params, freq, model = setting
        with pytest.raises(UsageError):
            holography.build_model(params, freq, quantities=("zeta",))

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

    def test_perturbed_disk_grid_needs_no_stencils(self):
        # a disk grid has no finite-difference stencils; a flow-free sound-speed
        # perturbation still reaches the resolvent update, which matches the
        # dense solve of the same second-kind system
        lam = 0.4
        g = greens.disk_grid(0.5, lam, 7.5, receiver_radius=0.3, n_receivers=12)
        with pytest.raises(UsageError):
            g.gradient_matrices()
        freq = medium.FrequencyContext(omega=2 * np.pi / lam)
        params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.5)
        params.S = np.full(g.n_interior, 0.5)
        params.c = 1.0 + 0.1 * np.exp(-np.sum(g.interior_nodes**2, axis=1) / 0.02)
        model = holography.build_model(params, freq, quantities=("S", "c"))
        ref = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.5)
        delta = medium.helmholtz_delta(medium.recast(ref, freq), model.hp)
        g_ref = greens.assemble_green(g, model.hp.k_ref)
        gq = greens.update_green(g_ref, delta)
        assert gq._update is not None  # the factored form of update_green
        # the model's receiver rows are those of that factored operator
        assert np.array_equal(model.receiver_rows, gq.receiver_rows)
        k0 = g_ref.kernel
        m = delta.operator_matrix(g).toarray()
        direct = np.linalg.solve(np.eye(g.n_nodes) + (k0 * g.weights[None, :]) @ m, k0)
        rel = np.max(np.abs(gq.kernel - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-8

    def test_boundary_source_ingression_gathers_the_kernel_once(self, setting):
        # the interior and boundary-source terms of the scalar ingression are
        # one product over interior and receiver columns, so a model at the
        # reference medium gathers K0 once
        g, params, freq, _ = setting
        g_ref = greens.assemble_green(g, medium.recast(params, freq).k_ref)
        gather = g_ref._base
        calls = []
        g_ref._base = lambda rows: calls.append(1) or gather(rows)
        b = np.linspace(0.5, 1.5, g.n_receivers)
        model = holography.build_model(
            params, freq, quantities=("c",), g_ref=g_ref, boundary_src=b
        )
        assert len(calls) == 1
        k0 = gather(g_ref.receiver_rows)
        rows = model.receiver_rows
        m_int = rows[:, g.interior_idx] * (model.hp.S * g.interior_weights)[None, :]
        m_bnd = stochastic._boundary_block(rows[:, g.receiver_idx], b, g)
        k0_int = k0[g.interior_idx]
        expected = (
            m_int @ k0_int[:, g.interior_idx].conj().T
            + m_bnd @ k0_int[:, g.receiver_idx].conj().T
        )
        err = np.max(np.abs(model.beta_scalar - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))


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
        stochastic.forward_covariance(model)
        stochastic.sample_wavefields(model, 4, seed=1)
        on_iterate = [(op, idx) for op, idx in calls if op._update is not None]
        assert len(on_iterate) == 1
        op, idx = on_iterate[0]
        assert np.array_equal(idx, g.receiver_idx)
        assert np.array_equal(model.receiver_rows, rows(op, g.receiver_idx))

    def test_reference_medium_is_recast_once(self, monkeypatch):
        # a medium that differs from its reference only in S has the
        # reference's Helmholtz slots: build_model recasts it alone and reads
        # the reference operator's rows; any other field needs the reference
        g = greens.square_grid(0.3, 0.5, 7.5, 1.0, n_receivers=8)
        freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
        params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
        params.S = np.linspace(0.0, 1.0, g.n_interior)
        g_ref = greens.assemble_green(g, params.reference_wavenumber(freq))
        calls = []
        recast = holography.recast

        def spy(p, f):
            calls.append(p)
            return recast(p, f)

        monkeypatch.setattr(holography, "recast", spy)
        model = holography.build_model(params, freq, g_ref=g_ref)
        assert calls == [params]
        assert np.array_equal(model.receiver_rows, g_ref.receiver_rows)
        for name, value in (("c", 1.01), ("rho", 1.01), ("gamma", 0.31)):
            perturbed = params.copy()
            getattr(perturbed, name)[0] = value
            calls.clear()
            holography.build_model(perturbed, freq, g_ref=g_ref)
            assert len(calls) == 2

    def test_h_alpha_is_a_view_of_the_receiver_rows(self, nonuniform_model):
        # a model holds its interior Tr G once
        g, params, freq, model = nonuniform_model
        assert np.shares_memory(model.h_alpha, model.receiver_rows)
        assert np.array_equal(model.h_alpha, model.receiver_rows[:, g.interior_idx])

    def test_lindsey_braun_rows_are_a_view_of_the_receiver_rows(self, nonuniform_model):
        g, params, freq, model = nonuniform_model
        pair = holography.lindsey_braun_pair(model)
        assert np.shares_memory(pair.rows, model.receiver_rows)
        assert np.array_equal(pair.rows, model.receiver_rows[:, g.interior_idx])


class TestDerivativeAdjoint:
    @pytest.mark.parametrize(
        "q, built",
        [(q, None) for q in ("S", "c", "gamma", "rho", "u")] + [("S", ("c",))],
        ids=["S", "c", "gamma", "rho", "u", "S-of-c-model"],
    )
    def test_adjoint_identity(self, nonuniform_model, q, built):
        # built: the quantities of a model of its own, which serves S all the same
        g, params, freq, model = nonuniform_model
        if built is not None:
            model = holography.build_model(params, freq, quantities=built)
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

    @pytest.mark.parametrize("q", ["c", "rho"])
    def test_recast_jacobian_is_the_discrete_derivative(self, nonuniform_model, q):
        # relative Taylor remainder of recast(q + h dq) falls like h: J_v is the
        # exact derivative of the discrete recast, flow and Laplacian terms too
        g, params, freq, model = nonuniform_model
        params = params.copy()
        pts = g.interior_nodes
        if q == "rho":  # no flow: a rho step on a flowing medium is inadmissible
            params.u = np.zeros_like(params.u)
            params.rho = 1.0 + 0.3 * np.exp(-np.sum(pts**2, axis=1) / (2 * 0.2**2))
        dq = 0.1 * np.exp(-np.sum((pts - [-0.1, 0.05]) ** 2, axis=1) / (2 * 0.1**2))
        v0 = medium.recast(params, freq).v
        dv = medium.recast_jacobian(q, params, freq)[0] @ dq
        hs = [1e-2, 1e-3, 1e-4, 1e-5]
        rems = []
        for h in hs:
            p = params.copy()
            setattr(p, q, getattr(p, q) + h * dq)
            rem = medium.recast(p, freq).v - v0 - h * dv
            rems.append(np.linalg.norm(rem) / (h * np.linalg.norm(dv)))
        slope = np.polyfit(np.log(hs), np.log(rems), 1)[0]
        assert 0.9 <= slope <= 1.1, rems
        assert rems[-1] <= 1e-5, rems

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
        cov = stochastic.forward_covariance(replace(model, hp=replace(model.hp, S=s)))
        dual = holography.apply_adjoint(model, cov.matrix, ("S",))["S"]
        assert np.argmax(dual) == j


class TestBackpropagation:
    def test_hologram_is_adjoint_of_empirical_corr(self, setting):
        # the paper's identity: back-propagation is C'* applied to the data,
        # the S block of the adjoint at the empirical correlation
        g, params, freq, model = setting
        pair = holography.lindsey_braun_pair(model)
        w = g.receiver_weights
        for n in (300, 1, 5):  # N < n_rec = 16 gives a rank-deficient correlation
            r = stochastic.sample_wavefields(model, n, seed=5)
            holo = holography.backprop_realizations(pair, r, w)
            corr = stochastic.empirical_corr(r, w).matrix
            dual = holography.apply_adjoint(model, corr, ("S",))["S"]
            assert np.max(np.abs(holo - dual)) <= 1e-12 * np.max(np.abs(dual))

    def test_rhs_at_zero_source_is_hologram_sum(self):
        # at S_0 = 0 the model covariance vanishes, so the unweighted
        # Gauss-Newton right-hand side is the frequency sum of the holograms,
        # each formed on its frequency's lattice and carried back by
        # W^{-1} L^T W_f (the lower frequency runs on an 11-lattice, not 12)
        g = greens.square_grid(0.4, 0.5, 7.5, 1.0, n_receivers=12)
        truth = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
        truth.S = np.exp(-np.sum(g.interior_nodes**2, axis=1) / 0.05)
        q0 = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
        q0.S = np.zeros(g.n_interior)
        freqs = medium.frequency_band(2, 2 * np.pi / 0.55, 2 * np.pi / 0.5)
        data, runs = [], []
        for i, freq in enumerate(freqs):
            m = holography.build_model(truth, freq, quantities=("S",))
            r = stochastic.sample_wavefields(m, 40, seed=30 + i)
            corr = stochastic.empirical_corr(r, g.receiver_weights)
            data.append(inversion.FrequencyData(freq=freq, corr=corr, n_realizations=40))
            runs.append(r)
        config = inversion.InversionConfig(grid=g, q0=q0, quantities=("S",), weighted=False)
        terms = inversion._frequency_terms(data, config)
        assert [t.lattice.interior_shape for t in terms] == [(11, 11), (12, 12)]
        stack = inversion._build_stack(q0, terms, config)
        rhs = inversion._stack_rhs(stack, inversion.ParameterSpace(g, ("S",)))
        expect = np.zeros(g.n_interior)
        for term, r in zip(stack, runs):
            pair = holography.lindsey_braun_pair(term.model)
            holo = holography.backprop_realizations(pair, r, g.receiver_weights).real
            if term.transfer is not None:
                holo = term.transfer.duals({"S": holo}, term.iterate.rho)["S"]
            expect += holo
        assert np.max(np.abs(rhs - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize(
        "pupils", [None, ([0, 2, 4, 6, 8, 10], [1, 2, 3, 9, 15])], ids=["shared", "pupils"]
    )
    def test_matches_correlation_oracle(self, setting, pupils):
        # Diag(H_alpha^H W Corr W H_beta) from the empirical correlation of the
        # same realizations; the pupil pair holds two distinct arrays
        g, params, freq, model = setting
        pair = holography.lindsey_braun_pair(model, pupils=pupils)
        w = g.receiver_weights
        for n in (300, 1, 5):  # N < n_rec = 16 gives a rank-deficient correlation
            r = stochastic.sample_wavefields(model, n, seed=5)
            holo = holography.backprop_realizations(pair, r, w)
            corr = stochastic.empirical_corr(r, w).matrix
            masks = np.ones((2, g.n_receivers)) if pair.masks is None else pair.masks
            h_alpha, h_beta = masks[0][:, None] * pair.rows, masks[1][:, None] * pair.rows
            expect = np.sum(
                (h_alpha.conj().T @ (w[:, None] * corr * w[None, :])) * h_beta.T,
                axis=1,
            )
            assert np.max(np.abs(holo - expect)) <= 1e-12 * np.max(np.abs(expect))
            if pupils is None:
                assert not np.any(holo.imag)
            else:
                assert np.any(holo.imag)

    def test_single_realization_gram_nonnegative(self, setting):
        g, params, freq, model = setting
        r = stochastic.sample_wavefields(model, 1, seed=6)
        pair = holography.lindsey_braun_pair(model)
        holo = holography.backprop_realizations(pair, r, g.receiver_weights)
        assert np.max(np.abs(holo.imag)) <= 1e-14 * np.max(np.abs(holo))
        assert np.min(holo.real) >= 0.0

    def test_peak_memory_independent_of_realization_count(self, setting):
        # the back-propagated factor rows number at most n_rec, whatever N is
        g, params, freq, model = setting
        pair = holography.lindsey_braun_pair(model, pupils=([0, 2, 4, 6], [1, 2, 3, 9]))
        peaks = []
        for n in (64, 4000):
            r = stochastic.sample_wavefields(model, n, seed=5)
            tracemalloc.start()
            holography.backprop_realizations(pair, r, g.receiver_weights)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < 4 * 16 * g.n_interior * g.n_receivers

    def test_expectation_over_batches(self, setting):
        g, params, freq, model = setting
        cov = stochastic.forward_covariance(model)
        pair = holography.lindsey_braun_pair(model)
        expect = holography.apply_adjoint(model, cov.matrix, ("S",))["S"]
        acc = np.zeros(g.n_interior, dtype=complex)
        batches, n = 50, 32
        for s in range(batches):
            r = stochastic.sample_wavefields(model, n, seed=7000 + s)
            acc += holography.backprop_realizations(pair, r, g.receiver_weights)
        acc /= batches
        rel = np.linalg.norm(acc - expect) / np.linalg.norm(expect)
        assert rel < 5.0 / np.sqrt(batches * n)


def apply_kernel(e, dq, grid):
    """Apply assembled kernel rows e to dq with the interior quadrature."""
    w = grid.interior_weights
    if e.ndim == 2:
        return e @ (np.asarray(dq) * w)
    dq = np.asarray(dq).reshape((grid.n_interior, e.shape[1]), order="F")
    out = np.einsum("pqxy,yq->xp", e, dq * w[:, None])
    return out if e.shape[0] > 1 else out[:, 0]


QUANTITIES = ("S", "c", "gamma", "rho", "u")
FIRST_PAIRS = [("S", "S"), ("c", "c"), ("gamma", "gamma"), ("c", "gamma"), ("u", "u")]
KERNEL_CASES = [("setting", p) for p in FIRST_PAIRS] + [
    (fixture, (qx, qy))
    for fixture in ("setting", "nonuniform_model")
    for qx in QUANTITIES
    for qy in QUANTITIES
    if fixture == "nonuniform_model" or (qx, qy) not in FIRST_PAIRS
]


def _unweighted(g):
    return holography.NoiseWeight.identity(g.receiver_weights)


class TestSensitivityKernels:
    @pytest.mark.parametrize(
        "fixture, pair", KERNEL_CASES, ids=[f"pair{i}" for i in range(len(KERNEL_CASES))]
    )
    def test_kernel_equals_operator_composition(self, request, fixture, pair):
        # every quantity pair, on a flat background and on one with non-flat
        # c, gamma, S and a background flow
        g, params, freq, model = request.getfixturevalue(fixture)
        cov = stochastic.forward_covariance(model)
        weight = inversion.lavrentiev_weight(cov, beta=0.1 * cov.trace() / cov.n)
        rng = np.random.default_rng(11)
        kern = holography.sensitivity_kernel(model, pair, weight=weight)
        qx, qy = pair
        dq = (
            rng.standard_normal((g.n_interior, 2))
            if qy == "u"
            else rng.standard_normal(g.n_interior)
        )
        via_kernel = apply_kernel(kern, dq, g)
        dc = holography.apply_derivative(model, {qy: dq})
        dcw = holography.weighted_residual(weight, dc)
        via_comp = holography.apply_adjoint(model, dcw, (qx,))[qx]
        scale = np.max(np.abs(via_comp))
        assert np.max(np.abs(via_kernel - via_comp)) <= 1e-10 * scale

    def test_identity_weight_sandwich_is_plain_w(self):
        # W Gamma W of the identity weight is diag(w) to within one ulp on
        # rings of 16 to 100 receivers, and bit for bit on the 40-receiver
        # ring of the kernel preset, criterion 8 and demo 04
        for n_rec in range(16, 101):
            w = greens.square_grid(0.2, 0.5, 7.5, 1.0, n_receivers=n_rec).receiver_weights
            gamma = holography.NoiseWeight.identity(w).gamma_n
            wnw = w[:, None] * gamma * w[None, :]
            assert not np.any(wnw - np.diag(np.diag(wnw)))
            assert np.all(np.abs(np.diag(wnw) - w) <= np.spacing(w))
            if n_rec == 40:
                assert np.array_equal(wnw, np.diag(w))

    def test_source_kernel_nonnegative(self, setting):
        g, params, freq, model = setting
        kern = holography.sensitivity_kernel(model, ("S", "S"), _unweighted(g))
        assert kern.min() >= 0.0

    def test_targets_mode_matches_rows(self, setting):
        g, params, freq, model = setting
        full = holography.sensitivity_kernel(model, ("c", "c"), _unweighted(g))
        tgt = np.array([4, 57, 200])
        rows = holography.sensitivity_kernel(model, ("c", "c"), _unweighted(g), targets=tgt)
        assert np.allclose(
            rows, full[tgt, :], atol=1e-10 * np.abs(full).max()
        )

    def test_scalar_kernel_symmetry(self, setting):
        g, params, freq, model = setting
        kern = holography.sensitivity_kernel(model, ("c", "c"), _unweighted(g))
        assert np.max(np.abs(kern - kern.T)) <= 1e-10 * np.max(np.abs(kern))

    def test_flow_kernel_exchange_symmetry(self, setting):
        g, params, freq, model = setting
        kern = holography.sensitivity_kernel(model, ("u", "u"), _unweighted(g))
        scale = np.max(np.abs(kern))
        for p in range(2):
            for q in range(2):
                assert np.max(np.abs(kern[p, q] - kern[q, p].T)) <= 1e-10 * scale

    def test_memory_guard_suggests_targets(self, setting):
        g, params, freq, model = setting
        with pytest.raises(MemoryBudgetError):
            holography.sensitivity_kernel(model, ("S", "S"), _unweighted(g), budget_bytes=128)


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
    def test_empty_pupil_gives_zero_hologram(self, setting):
        g, params, freq, model = setting
        r = stochastic.sample_wavefields(model, 16, seed=9)
        pair = holography.lindsey_braun_pair(model, pupils=([], []))
        holo = holography.backprop_realizations(pair, r, g.receiver_weights)
        assert not np.any(holo)
