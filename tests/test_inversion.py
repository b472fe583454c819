"""Inversion tests: Lavrentiev weights, CG, Newton steps, projected flow steps."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import linalg

from holoseis import greens, medium, stochastic, holography, inversion
from holoseis.errors import NumericalBreakdownError, UsageError


@pytest.fixture(scope="module")
def setting():
    g = greens.square_grid(0.5, 0.5, 7.5, 1.0, n_receivers=20)
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.25)
    pts = g.interior_nodes
    blk = (np.abs(pts[:, 0] - 0.15) <= 0.12) & (np.abs(pts[:, 1] + 0.1) <= 0.12)
    params.S = np.where(blk, 1.0, 0.0)
    hp = medium.recast(params, freq)
    g_op = greens.assemble_green(g, hp.k_ref)
    cov = stochastic.forward_covariance(hp, g_op)
    return g, params, freq, hp, g_op, cov, blk


def _step(state, data, config, stack=None):
    """irgnm_step from the given stack, or from a fresh one at state.q_n."""
    if stack is None:
        stack = inversion._build_stack(state.q_n, data, config, {})
    space = inversion.ParameterSpace(config.grid, config.quantities)
    return inversion.irgnm_step(
        state, stack, config, inversion._sandwich_operator(space, config)
    )


class TestLavrentievWeight:
    def test_zero_covariance_gives_identity_over_beta(self, setting):
        g, *_ = setting
        zero = stochastic.CovarianceOperator(
            matrix=np.zeros((g.n_receivers,) * 2, dtype=complex),
            weights=g.receiver_weights,
        )
        wgt = inversion.lavrentiev_weight(zero, beta=0.5)
        # operator action on any f must be f / beta
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.n_receivers) + 1j * rng.standard_normal(g.n_receivers)
        out = wgt.gamma_n @ (g.receiver_weights * f)
        assert np.allclose(out, f / 0.5, atol=1e-12)

    def test_spectral_mapping(self, setting):
        *_, cov, blk = setting[:-1], setting[-1]
        g, params, freq, hp, g_op, cov, blk = setting
        beta = 0.2 * cov.trace() / cov.n
        wgt = inversion.lavrentiev_weight(cov, beta)
        # eigenvector of the weighted covariance with eigenvalue lam maps to
        # weight 1/(beta + lam)
        sw = np.sqrt(cov.weights)
        sym = sw[:, None] * cov.matrix * sw[None, :]
        vals, vecs = np.linalg.eigh(0.5 * (sym + sym.conj().T))
        v = vecs[:, -1] / sw  # nodal eigenvector of C W
        out = wgt.gamma_n @ (cov.weights * v)
        assert np.allclose(out, v / (beta + vals[-1]), atol=1e-9 * np.abs(v).max())

    def test_resolvent_residual(self, setting):
        g, params, freq, hp, g_op, cov, blk = setting
        beta = 0.1 * cov.trace() / cov.n
        wgt = inversion.lavrentiev_weight(cov, beta)
        w = cov.weights
        gamma_op = wgt.gamma_n * w[None, :]  # nodal action of Gamma
        system_op = beta * np.eye(g.n_receivers) + cov.matrix * w[None, :]
        assert np.max(np.abs(gamma_op @ system_op - np.eye(g.n_receivers))) < 1e-12

    def test_eigenvalues_in_range(self, setting):
        *_, cov, blk = setting[-2:], setting[-1]
        g, params, freq, hp, g_op, cov, blk = setting
        beta = 0.3
        wgt = inversion.lavrentiev_weight(cov, beta)
        sw = np.sqrt(cov.weights)
        sym = sw[:, None] * wgt.gamma_n * sw[None, :]
        eig = np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))
        assert eig.min() > 0
        assert eig.max() <= 1.0 / beta + 1e-12

    def test_beta_must_be_positive(self, setting):
        *_, cov, blk = setting[-2:], setting[-1]
        g, params, freq, hp, g_op, cov, blk = setting
        with pytest.raises(UsageError):
            inversion.lavrentiev_weight(cov, beta=0.0)


class TestCG:
    def test_identity_converges_in_one_iteration(self):
        rhs = np.arange(1.0, 9.0)
        res = inversion.cg_normal_solve(
            lambda x: x, rhs, alpha=0.0, weights=np.ones(rhs.size), max_iter=10
        )
        assert res.iterations == 1
        assert np.allclose(res.x, rhs, atol=1e-14)

    def test_diagonal_distinct_eigenvalues(self):
        # CG terminates in at most (number of distinct eigenvalues) steps
        diag = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 6)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(len(diag))
        res = inversion.cg_normal_solve(
            lambda x: diag * x,
            rhs,
            alpha=0.0,
            weights=np.ones(diag.size),
            max_iter=20,
            tol=1e-12,
        )
        assert res.iterations <= 5
        assert np.allclose(res.x, rhs / diag, atol=1e-9)

    def test_matches_dense_solve(self, setting):
        g, params, freq, hp, g_op, cov, blk = setting
        model = holography.build_model(params, freq, quantities=("S",), g_ref=g_op)
        space = inversion.ParameterSpace(g, ("S",))

        def normal(flat):
            dq = space.unpack(flat)
            dc = holography.apply_derivative(model, dq)
            return space.pack(holography.apply_adjoint(model, dc, ("S",)))

        n = space.size
        dense = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            dense[:, j] = normal(e)
        rng = np.random.default_rng(2)
        rhs = rng.standard_normal(n)
        alpha = 0.05 * np.max(np.linalg.eigvalsh(0.5 * (dense + dense.T)))
        res = inversion.cg_normal_solve(
            normal, rhs, alpha=alpha, weights=space.weights, max_iter=500, tol=1e-12
        )
        direct = np.linalg.solve(dense + alpha * np.eye(n), rhs)
        assert np.linalg.norm(res.x - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalBreakdownError):
            inversion.cg_normal_solve(
                lambda x: x * np.nan, np.ones(4), alpha=0.0, weights=np.ones(4), max_iter=3
            )


class TestCgTolerance:
    def test_reconstruction_resolved_at_cg_tol(self, setting, monkeypatch):
        # the shipped CG_TOL reproduces a 1e-10 solve to 1e-4 with the same
        # stop and iteration count on a short source inversion whose first
        # step, as in a one-step flow inversion, carries its solve error
        # into the reconstruction; at 1e-3 this reconstruction moves 3e-4
        g, truth, freq, hp, g_op, cov, blk = setting
        r = stochastic.sample_wavefields(hp, g_op, 400, seed=3)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=400)]
        q0 = truth.copy()
        q0.S = np.zeros(g.n_interior)
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("S",), beta=10 * corr.trace() / corr.n,
            alpha0_scale=0.2, max_outer=2, max_cg=500,
        )
        shipped = inversion.run_irgnm(config, data)
        monkeypatch.setattr(inversion, "CG_TOL", 1e-10)
        exact = inversion.run_irgnm(config, data)
        assert all(e["cg_converged"] for e in exact[1]["iterations"])
        assert shipped[1]["stopped_by"] == exact[1]["stopped_by"]
        assert len(shipped[1]["iterations"]) == len(exact[1]["iterations"])
        s, s_exact = shipped[0].S, exact[0].S
        assert np.linalg.norm(s - s_exact) <= 1e-4 * np.linalg.norm(s_exact)


def _plain_cg(apply_normal, rhs, alpha, weights, max_iter=50, tol=1e-6):
    """CG from x = 0 as cg_normal_solve ran before it recycled: the oracle
    that an empty history reproduces bit for bit."""

    def inner(a, b):
        return float(np.sum(a * b * weights))

    x = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rs = inner(r, r)
    norms = [np.sqrt(max(rs, 0.0))]
    if rs == 0.0:
        return x, True, 0, norms
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        q = apply_normal(d) + alpha * d
        dq = inner(d, q)
        if dq <= 0:
            break
        a = rs / dq
        x = x + a * d
        r = r - a * q
        rs_new = inner(r, r)
        norms.append(np.sqrt(max(rs_new, 0.0)))
        iterations = it
        if norms[-1] / norms[0] <= tol:
            converged = True
            break
        d = r + (rs_new / rs) * d
        rs = rs_new
    return x, converged, iterations, norms


def _weighted_system(n, seed):
    """A W-self-adjoint PSD operator N = W^-1 M, its weights and a right-hand side."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    weights = rng.uniform(0.5, 2.0, n)
    m = b @ np.diag(np.geomspace(1.0, 1e3, n)) @ b.T
    return (lambda x: (m @ x) / weights), m, weights, rng.standard_normal(n)


def _source_run(setting, beta_scale, **options):
    """The data of TestCgTolerance's source inversion and a config for them."""
    g, truth, freq, hp, g_op, cov, blk = setting
    r = stochastic.sample_wavefields(hp, g_op, 400, seed=3)
    corr = stochastic.empirical_corr(r, g.receiver_weights)
    data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=400)]
    q0 = truth.copy()
    q0.S = np.zeros(g.n_interior)
    config = inversion.InversionConfig(
        grid=g, q0=q0, quantities=("S",), beta=beta_scale * corr.trace() / corr.n, tau=0.0,
        **options,
    )
    return config, data


class TestRecycledCG:
    """cg_normal_solve started from the projection of earlier solutions."""

    def _cases(self, setting):
        # the systems of TestCG: identity, a diagonal, and the source normal operator
        g, params, freq, hp, g_op, cov, blk = setting
        model = holography.build_model(params, freq, quantities=("S",), g_ref=g_op)
        space = inversion.ParameterSpace(g, ("S",))

        def normal(flat):
            dc = holography.apply_derivative(model, space.unpack(flat))
            return space.pack(holography.apply_adjoint(model, dc, ("S",)))

        diag = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 6)
        rng = np.random.default_rng(2)
        return [
            (lambda x: x, np.arange(1.0, 9.0), 0.0, np.ones(8), 10, 1e-6),
            (lambda x: diag * x, rng.standard_normal(30), 0.0, np.ones(30), 20, 1e-12),
            (normal, rng.standard_normal(space.size), 5.0, space.weights, 500, 1e-12),
        ]

    def test_empty_history_is_plain_cg(self, setting):
        for apply_normal, rhs, alpha, weights, max_iter, tol in self._cases(setting):
            res = inversion.cg_normal_solve(
                apply_normal, rhs, alpha, weights, max_iter=max_iter, tol=tol, history=()
            )
            x, converged, iterations, norms = _plain_cg(
                apply_normal, rhs, alpha, weights, max_iter=max_iter, tol=tol
            )
            assert np.array_equal(res.x, x) and res.residual_norms == norms
            assert (res.converged, res.iterations) == (converged, iterations)
            assert res.start_residual == 1.0

    def test_exact_solution_in_history_needs_no_cg_iteration(self):
        apply_normal, m, weights, rhs = _weighted_system(40, seed=5)
        alpha = 0.5
        exact = np.linalg.solve(m / weights[:, None] + alpha * np.eye(40), rhs)
        rng = np.random.default_rng(6)
        for history in ([exact], [rng.standard_normal(40), exact, 3.0 * exact]):
            res = inversion.cg_normal_solve(
                apply_normal, rhs, alpha, weights, tol=1e-8, history=history
            )
            # the projection's applies are counted; no CG iteration follows
            # (3 * exact lies in the span of the others and is dropped)
            assert res.converged and len(res.residual_norms) == 1
            assert res.iterations == min(len(history), 2)
            assert res.start_residual <= 1e-8
            assert np.linalg.norm(res.x - exact) <= 1e-8 * np.linalg.norm(exact)

    @pytest.mark.parametrize("seed", range(6))
    def test_unrelated_history_keeps_the_stop_rule(self, seed):
        apply_normal, m, weights, rhs = _weighted_system(40, seed=seed)
        rng = np.random.default_rng(100 + seed)
        history = list(rng.standard_normal((1 + seed % 3, 40)))
        history += [history[0], np.zeros(40)]  # dependent vectors are dropped
        alpha = 10.0 ** -(seed % 3)
        res = inversion.cg_normal_solve(
            apply_normal, rhs, alpha, weights, max_iter=200, tol=1e-6, history=history
        )
        assert res.start_residual <= 1.0
        assert res.converged and res.relative_residual <= 1e-6
        exact = np.linalg.solve(m / weights[:, None] + alpha * np.eye(40), rhs)
        assert np.linalg.norm(res.x - exact) <= 1e-4 * np.linalg.norm(exact)

    def test_start_above_rhs_falls_back_to_zero(self):
        # the Galerkin start of (1, 1) on diag(1, 100) leaves |r_0| > |b|
        rhs, weights = np.array([1.0, 0.0]), np.ones(2)

        def apply_normal(x):
            return np.array([1.0, 100.0]) * x

        res = inversion.cg_normal_solve(
            apply_normal, rhs, 0.0, weights, history=[np.array([1.0, 1.0])]
        )
        x, converged, iterations, norms = _plain_cg(apply_normal, rhs, 0.0, weights)
        assert res.start_residual == 1.0 and res.iterations == iterations + 1
        assert np.array_equal(res.x, x) and res.residual_norms == norms

    def test_run_matches_unrecycled_run(self, setting, monkeypatch):
        config, data = _source_run(setting, 10, max_outer=6, max_cg=500)
        recycled = inversion.run_irgnm(config, data)
        monkeypatch.setattr(inversion, "CG_RECYCLE", 0)
        plain = inversion.run_irgnm(config, data)
        assert recycled[1]["stopped_by"] == plain[1]["stopped_by"]
        assert len(recycled[1]["iterations"]) == len(plain[1]["iterations"])
        starts = [e["cg_start_residual"] for e in recycled[1]["iterations"]]
        assert starts[0] == 1.0 and all(s < 1.0 for s in starts[1:])
        assert all(e["cg_start_residual"] == 1.0 for e in plain[1]["iterations"])
        s, s_plain = recycled[0].S, plain[0].S
        assert np.linalg.norm(s - s_plain) <= 1e-4 * np.linalg.norm(s_plain)

    def test_recycling_saves_normal_applies(self, setting, monkeypatch):
        # counted work, not time: every apply of the normal operator, the
        # projections' and the power iteration's included, over 20 outer steps
        config, data = _source_run(setting, 50, max_outer=20, alpha0_scale=0.1)
        applies = []
        make_normal = inversion._make_normal_operator

        def counted(*args):
            normal = make_normal(*args)

            def apply(flat):
                applies.append(1)
                return normal(flat)

            return apply

        monkeypatch.setattr(inversion, "_make_normal_operator", counted)
        inversion.run_irgnm(config, data)
        recycled = len(applies)
        applies.clear()
        monkeypatch.setattr(inversion, "CG_RECYCLE", 0)
        inversion.run_irgnm(config, data)
        assert recycled <= 0.8 * len(applies)


class TestIrgnmStep:
    def test_zero_residual_zero_update(self, setting):
        g, params, freq, hp, g_op, cov, blk = setting
        config = inversion.InversionConfig(
            grid=g, q0=params, quantities=("S",), weighted=False
        )
        data = [inversion.FrequencyData(freq=freq, corr=cov, n_realizations=100)]
        state = inversion.InversionState(q_n=params.copy(), q_0=params, alpha_0=1.0)
        dq, new_state, info = _step(state, data, config)
        assert np.max(np.abs(dq["S"])) < 1e-12
        assert new_state.iteration == 1

    def test_linear_source_recovery_matches_dense_oracle(self, monkeypatch):
        # noise-free data on a coarse grid (data dof exceed unknowns): one
        # step with alpha -> 0 equals the regularized dense least-squares
        # solution and recovers the block to 10%
        monkeypatch.setattr(inversion, "CG_TOL", 1e-13)
        g = greens.square_grid(0.5, 0.75, 7.5, 1.0, n_receivers=20)
        freq = medium.FrequencyContext(omega=2 * np.pi / 0.75)
        params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.25)
        pts = g.interior_nodes
        blk = (np.abs(pts[:, 0] - 0.15) <= 0.16) & (np.abs(pts[:, 1] + 0.1) <= 0.16)
        params.S = np.where(blk, 1.0, 0.0)
        hp = medium.recast(params, freq)
        g_op = greens.assemble_green(g, hp.k_ref)
        cov = stochastic.forward_covariance(hp, g_op)
        q0 = params.copy()
        q0.S = np.zeros(g.n_interior)
        model = holography.build_model(q0, freq, quantities=("S",), g_ref=g_op)
        space = inversion.ParameterSpace(g, ("S",))

        def normal(flat):
            dc = holography.apply_derivative(model, space.unpack(flat))
            return space.pack(holography.apply_adjoint(model, dc, ("S",)))

        lam_max = inversion.power_iteration(normal, space.size, weights=space.weights)
        alpha = 1e-8 * lam_max
        config = inversion.InversionConfig(
            grid=g,
            q0=q0,
            quantities=("S",),
            weighted=False,
            alpha0=alpha,
            max_cg=2000,
        )
        data = [inversion.FrequencyData(freq=freq, corr=cov, n_realizations=1)]
        state = inversion.InversionState(q_n=q0.copy(), q_0=q0, alpha_0=alpha)
        dq, *_ = _step(state, data, config)
        # dense forward matrix: vec(C) = F S in the quadrature metric
        n = g.n_interior
        f_mat = np.zeros((g.n_receivers**2, n), dtype=complex)
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            f_mat[:, j] = holography.apply_derivative(model, {"S": e}).ravel()
        w_rec = g.receiver_weights
        www = np.sqrt(np.outer(w_rec, w_rec)).ravel()
        w_int = g.interior_weights
        a = f_mat * www[:, None]
        y = cov.matrix.ravel() * www
        lhs = (a.conj().T @ a).real + alpha * np.diag(w_int)
        rhs = (a.conj().T @ y).real
        oracle = np.linalg.solve(lhs, rhs)
        assert np.linalg.norm(dq["S"] - oracle) <= 1e-6 * np.linalg.norm(oracle)
        err = np.linalg.norm(oracle - params.S) / np.linalg.norm(params.S)
        assert err <= 0.1

    def test_weighted_and_unweighted_both_reduce_misfit(self, setting):
        g, params, freq, hp, g_op, cov, blk = setting
        r = stochastic.sample_wavefields(hp, g_op, 500, seed=4)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=500)]
        q0 = params.copy()
        q0.S = np.zeros(g.n_interior)
        for weighted in (False, True):
            config = inversion.InversionConfig(
                grid=g,
                q0=q0,
                quantities=("S",),
                weighted=weighted,
                beta=10 * corr.trace() / corr.n,
                max_outer=3,
                tau=0.0,
            )
            qf, diag = inversion.run_irgnm(config, data)
            mis = [e["misfit"] for e in diag["iterations"]]
            # both runs reduce the (Gamma-n-dependent) weighted misfit; the
            # metric itself drifts with the iterate, so only reduction from
            # the starting value is asserted for the weighted run
            assert diag["final_misfit"] < mis[0]
            if not weighted:
                assert mis == sorted(mis, reverse=True)

    def test_nonnegativity_clamp(self, setting):
        g, params, freq, hp, g_op, cov, blk = setting
        r = stochastic.sample_wavefields(hp, g_op, 200, seed=9)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=200)]
        q0 = params.copy()
        q0.S = np.zeros(g.n_interior)
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("S",),
            beta=10 * corr.trace() / corr.n, max_outer=6, alpha0_scale=0.01, tau=0.0,
        )
        qf, diag = inversion.run_irgnm(config, data)
        assert qf.S.min() >= 0.0

    def test_param_error_for_each_quantity(self, setting):
        # a joint (c, S) run against a known truth reports one relative
        # error per inverted quantity
        g, params, freq, hp, g_op, cov, blk = setting
        truth = params.copy()
        truth.c = truth.c + 0.05 * np.exp(-np.sum(g.interior_nodes**2, axis=1) / 0.02)
        model = holography.build_model(truth, freq, quantities=("c", "S"), g_ref=g_op)
        data = [
            inversion.FrequencyData(freq=freq, corr=model.covariance(), n_realizations=100)
        ]
        q0 = params.copy()
        q0.S = np.full(g.n_interior, 0.5)
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("c", "S"), weighted=False, max_outer=2, tau=0.0
        )
        _, diag = inversion.run_irgnm(config, data, truth=truth)
        errors = [entry["param_error"] for entry in diag["iterations"]]
        assert len(errors) == 2
        for err in errors:
            assert set(err) == {"c", "S"}
            assert all(np.isfinite(v) and v > 0 for v in err.values())

    def test_alpha_schedule_exact(self, setting):
        g, params, *_ = setting
        state = inversion.InversionState(q_n=params, q_0=params, alpha_0=3.0)
        values = []
        for n in range(6):
            state.iteration = n
            # the schedule is the exact power-law formula, not an accumulation
            assert state.alpha_n == 3.0 * 0.9**n
            values.append(state.alpha_n)
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(0.9, rel=1e-14) for r in ratios)

    def test_alpha0_is_power_iteration_eigenvalue(self, setting):
        g, params, freq, hp, g_op, cov, blk = setting
        q0 = params.copy()
        q0.S = np.zeros(g.n_interior)
        data = [inversion.FrequencyData(freq=freq, corr=cov, n_realizations=100)]
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("S",), weighted=False, max_outer=1, tau=0.0
        )
        _, diag = inversion.run_irgnm(config, data)
        model = holography.build_model(q0, freq, quantities=("S",), g_ref=g_op)
        space = inversion.ParameterSpace(g, ("S",))
        dense = np.zeros((space.size, space.size))
        for j in range(space.size):
            e = np.zeros(space.size)
            e[j] = 1.0
            dc = holography.apply_derivative(model, space.unpack(e))
            dense[:, j] = space.pack(holography.apply_adjoint(model, dc, ("S",)))
        # symmetrize in the weighted metric to read off the top eigenvalue
        sw = np.sqrt(space.weights)
        sym = sw[:, None] * dense / sw[None, :]
        lam_true = np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T)))
        assert diag["alpha0"] == pytest.approx(lam_true, rel=0.01)


def _flow_state(g, params, amplitude):
    """Flow-free q_0 and an iterate q_n carrying a divergence-free flow."""
    q0 = params.copy()
    q_n = params.copy()
    pts = g.interior_nodes
    psi = np.exp(-np.sum((pts - [0.1, 0.05]) ** 2, axis=1) / (2 * 0.18**2))
    q_n.u = medium.stream_function_flow(g, psi, q_n.rho, amplitude=amplitude)
    return q0, q_n


def _null_space_oracle(stack, space, rho, alpha, prox):
    """Exact minimiser of the flow step's quadratic over the kernel of div(rho .).

    The normal operator is built column by column from the derivative and
    its adjoint; the interior weights of a square grid are uniform, so the
    metric factor cancels from the reduced system.
    """
    n = space.size
    normal = np.zeros((n, n))
    rhs = np.zeros(n)
    for item, model, cov, weight in stack:
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            dc = holography.apply_derivative(model, space.unpack(e))
            dc = holography.weighted_residual(weight, dc)
            normal[:, j] += space.pack(holography.apply_adjoint(model, dc, ("u",)))
        resid = holography.weighted_residual(weight, item.corr.matrix - cov.matrix)
        rhs += space.pack(holography.apply_adjoint(model, resid, ("u",)))
    z = linalg.null_space(medium.flow_divergence_matrix(space.grid, rho).toarray())
    lhs = z.T @ (normal + alpha * np.eye(n)) @ z
    return z @ np.linalg.solve(lhs, z.T @ (rhs + alpha * prox))


class TestConstrainedFlow:
    def test_divergence_operator_annihilates_stream_function_flow(self, setting):
        # rho u = curl psi is in the kernel of the density-weighted divergence
        g, params, *_ = setting
        pts = g.interior_nodes
        rho = 1.0 + 0.2 * np.exp(-np.sum(pts**2, axis=1) / 0.05)
        psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.15**2))
        u = medium.stream_function_flow(g, psi, rho, amplitude=1.0)
        resid = medium.flow_divergence_matrix(g, rho) @ u.ravel(order="F")
        assert np.max(np.abs(u)) > 0.1
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(u))

    def test_projected_step_matches_null_space_oracle(self, setting, monkeypatch):
        # unweighted data from the flow-free medium seen from a flowing
        # iterate: both the data term and alpha (q_0 - q_n) drive the step,
        # and projected CG run to a tight tolerance reproduces the exact
        # minimiser over the divergence-free subspace
        g, params, freq, hp, g_op, cov, blk = setting
        monkeypatch.setattr(inversion, "CG_TOL", 1e-13)
        q0, q_n = _flow_state(g, params, amplitude=0.02)
        data = [inversion.FrequencyData(freq=freq, corr=cov, n_realizations=100)]
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("u",), weighted=False, max_cg=2000
        )
        stack = inversion._build_stack(q_n, data, config, {})
        space = inversion.ParameterSpace(g, ("u",))
        lam = inversion.power_iteration(
            inversion._make_normal_operator(stack, space, lambda x: x),
            space.size,
            weights=space.weights,
        )
        state = inversion.InversionState(q_n=q_n, q_0=q0, alpha_0=0.01 * lam)
        du, new_state, info = _step(state, data, config, stack=stack)
        prox = -q_n.u.ravel(order="F")
        oracle = _null_space_oracle(stack, space, q0.rho, state.alpha_n, prox)
        got = du["u"].ravel(order="F")
        assert info["cg_converged"]
        assert np.linalg.norm(got - oracle) <= 1e-6 * np.linalg.norm(oracle)
        assert np.allclose(new_state.q_n.u, q_n.u + du["u"])

    def test_constrained_step_divergence_residual(self, setting, monkeypatch):
        g, params, freq, hp, g_op, cov, blk = setting
        monkeypatch.setattr(inversion, "CG_TOL", 1e-13)
        truth = params.copy()
        pts = g.interior_nodes
        psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.18**2))
        truth.u = medium.stream_function_flow(g, psi, truth.rho, amplitude=0.01)
        m_true = holography.build_model(truth, freq, quantities=("u",), g_ref=g_op)
        r = stochastic.sample_wavefields(m_true.hp, m_true, 400, seed=5)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=400)]
        q0 = params.copy()
        config = inversion.InversionConfig(grid=g, q0=q0, quantities=("u",), max_cg=2000)
        state = inversion.InversionState(q_n=q0.copy(), q_0=q0, alpha_0=1.0)
        stack = inversion._build_stack(q0, data, config, {})
        du, _, info = _step(state, data, config, stack=stack)
        assert np.any(du["u"])
        assert info["divergence_residual"] <= 1e-8 * max(info["update_norm"], 1e-300)
        space = inversion.ParameterSpace(g, ("u",))
        oracle = _null_space_oracle(stack, space, q0.rho, 1.0, np.zeros(space.size))
        got = du["u"].ravel(order="F")
        assert np.linalg.norm(got - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_flow_step_allocates_no_dense_normal_matrix(self):
        # the projected step is matrix-free: on a prebuilt stack its peak
        # allocation stays below one real n_int^2 array, a quarter of the
        # dense (2 n_int)^2 flow normal matrix
        g = greens.square_grid(0.5, 0.25, 7.5, 1.0, n_receivers=20)
        q0 = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.5)
        q0.S = np.ones(g.n_interior)
        freqs = medium.frequency_band(3, 2 * np.pi / 0.26, 2 * np.pi / 0.25)
        data = []
        for fr in freqs:
            model = holography.build_model(q0, fr, quantities=("u",))
            data.append(
                inversion.FrequencyData(freq=fr, corr=model.covariance(), n_realizations=10)
            )
        _, q_n = _flow_state(g, q0, amplitude=0.01)
        config = inversion.InversionConfig(grid=g, q0=q0, quantities=("u",), max_cg=5)
        stack = inversion._build_stack(q_n, data, config, {})
        state = inversion.InversionState(q_n=q_n, q_0=q0, alpha_0=1.0)
        tracemalloc.start()
        try:
            du, _, info = _step(state, data, config, stack=stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info["cg_iterations"] == 5 and np.any(du["u"])
        assert peak < 8 * g.n_interior**2

    def test_flow_smoothing_rejected(self, setting):
        # the projector takes the smoother's place in a flow step, so a
        # smoothing width would silently do nothing
        g, params, *_ = setting
        with pytest.raises(UsageError, match="smoothing_width"):
            inversion.InversionConfig(
                grid=g, q0=params, quantities=("u",), smoothing_width=0.05
            )

    def test_removed_options_rejected(self, setting):
        g, params, *_ = setting
        removed = (
            ("alpha_decay", 0.5),
            ("beta_method", "product"),
            ("checkpoint_dir", "ckpt"),
            ("greens_budget_bytes", 1024),
            ("cg_tol", 1e-13),
            ("constraint", None),
        )
        for key, value in removed:
            with pytest.raises(TypeError):
                inversion.InversionConfig(
                    grid=g, q0=params, quantities=("S",), **{key: value}
                )


class TestOuterLoopMemory:
    def test_one_forward_stack_alive(self, setting, monkeypatch):
        # each outer iterate rebuilds the forward stack; the previous stack
        # (and the q0 stack behind the alpha_0 power iteration) must be
        # released before the next build starts
        g, params, freq, hp, g_op, cov, blk = setting
        r = stochastic.sample_wavefields(hp, g_op, 100, seed=12)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=100)]
        q0 = params.copy()
        q0.S = np.zeros(g.n_interior)
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("S",), max_outer=3, tau=0.0,
            beta=10 * corr.trace() / corr.n,
        )
        real = inversion._build_stack
        models = []
        alive_at_build = []

        def spy(*args, **kwargs):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in models))
            stack = real(*args, **kwargs)
            models.extend(weakref.ref(model) for _item, model, _cov, _w in stack)
            return stack

        monkeypatch.setattr(inversion, "_build_stack", spy)
        _, diag = inversion.run_irgnm(config, data)
        assert len(diag["iterations"]) == 3
        assert alive_at_build == [0, 0, 0, 0]

    @staticmethod
    def _sound_speed_setting():
        """Three frequencies' data and a sound-speed config whose perturbation
        covers the whole interior."""
        g = greens.square_grid(0.3, 0.2 / 1.02, 7.1, receiver_radius=1.0, n_receivers=16)
        freqs = medium.frequency_band(3, 2 * np.pi / 0.21, 2 * np.pi / 0.2)
        q0 = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.1)
        q0.S = np.full(g.n_interior, 0.5)
        q0.c = 1.0 + 0.1 * np.exp(-np.sum(g.interior_nodes**2, axis=1) / 0.045)
        data = []
        for freq in freqs:
            cov = holography.build_model(q0, freq, quantities=("S",)).covariance()
            data.append(inversion.FrequencyData(freq=freq, corr=cov, n_realizations=100))
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("c",), beta=0.1 * data[0].corr.trace() / g.n_receivers
        )
        return g, q0, data, config

    def test_stack_keeps_no_factored_operator(self):
        # a sound-speed stack on the whole interior: each frequency's m x m LU
        # is freed once its entry holds the receiver rows and ingressions, so
        # the stack plus the reference operators it caches stay below the F
        # kernels, one LU and the entries' (n_rec, n) blocks
        g, q0, data, config = self._sound_speed_setting()
        gc.collect()
        tracemalloc.start()
        try:
            greens_cache = {}  # run_irgnm keeps the reference operators across iterates
            stack = inversion._build_stack(q0, data, config, greens_cache)
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stack) == len(greens_cache) == 3
        n, m, n_rec = g.n_nodes, g.n_interior, g.n_receivers
        # slack: per entry, the receiver rows and the two propagators
        # (n_rec, n_int), plus 64 kB for the sparse Jacobians, parameter
        # fields and receiver matrices
        slack = 3 * (3 * 16 * n_rec * n + 64 * 1024)
        assert current < 3 * 16 * n**2 + 16 * m**2 + slack, current

    def test_stack_holds_no_reference_kernel(self):
        # the cached reference operators keep their receiver rows, never K0:
        # after two iterates' builds on one cache, what stays alive is below
        # one 16 n^2 kernel plus, per frequency, the entry's blocks and the
        # cached receiver rows
        g, q0, data, config = self._sound_speed_setting()
        n, n_rec = g.n_nodes, g.n_receivers
        slack = 3 * (4 * 16 * n_rec * n + 64 * 1024)
        gc.collect()
        tracemalloc.start()
        try:
            greens_cache = {}
            for params in (q0, config.q0.copy()):
                stack = None
                stack = inversion._build_stack(params, data, config, greens_cache)
                gc.collect()
                current, _ = tracemalloc.get_traced_memory()
                assert len(stack) == len(greens_cache) == 3
                assert current < 16 * n**2 + slack, current
        finally:
            tracemalloc.stop()


class TestOneDataPath:
    def test_one_misfit_per_forward_stack(self, setting, monkeypatch):
        # the stop test, the iteration record and final_misfit all read the
        # one misfit evaluated per forward stack
        g, params, freq, hp, g_op, cov, blk = setting
        r = stochastic.sample_wavefields(hp, g_op, 100, seed=12)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=100)]
        q0 = params.copy()
        q0.S = np.zeros(g.n_interior)
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=("S",), max_outer=3, tau=0.0,
            beta=10 * corr.trace() / corr.n,
        )
        calls = {"_build_stack": 0, "_misfit_and_noise": 0}
        misfits = []

        def spy(name):
            real = getattr(inversion, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                out = real(*args, **kwargs)
                if name == "_misfit_and_noise":
                    misfits.append(out)
                return out

            monkeypatch.setattr(inversion, name, counted)

        spy("_build_stack")
        spy("_misfit_and_noise")
        _, diag = inversion.run_irgnm(config, data)
        assert len(diag["iterations"]) == 3
        assert calls["_misfit_and_noise"] == calls["_build_stack"] == 4
        recorded = [(e["misfit"], e["noise_level"]) for e in diag["iterations"]]
        assert recorded == misfits[:3]
        assert (diag["final_misfit"], diag["final_noise_level"]) == misfits[3]

    def test_unweighted_is_identity_weight(self, setting):
        # weighted=False carries Gamma = W^{-1}: the misfit is the plain
        # quadrature norm of the residual and the noise level uses tr(C)
        g, params, freq, hp, g_op, cov, blk = setting
        r = stochastic.sample_wavefields(hp, g_op, 50, seed=13)
        corr = stochastic.empirical_corr(r, g.receiver_weights)
        data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=50)]
        config = inversion.InversionConfig(grid=g, q0=params, quantities=("S",), weighted=False)
        stack = inversion._build_stack(params, data, config, {})
        [(_item, _model, model_cov, weight)] = stack
        resid = corr.matrix - model_cov.matrix
        rw = holography.weighted_residual(weight, resid)
        assert np.max(np.abs(rw - resid)) <= 1e-14 * np.max(np.abs(resid))
        misfit, noise = inversion._misfit_and_noise(stack)
        plain = np.sqrt(stochastic.hs_inner(resid, resid, g.receiver_weights).real)
        assert misfit == pytest.approx(plain, rel=1e-13)
        assert noise == pytest.approx(model_cov.trace() / np.sqrt(50), rel=1e-13)
