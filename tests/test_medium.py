"""Medium model tests: recast, its Jacobians, flow utilities."""

import numpy as np
import pytest

from holoseis import greens, medium
from holoseis.errors import InvalidParameterError, UsageError


@pytest.fixture(scope="module")
def grid():
    return greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)


@pytest.fixture()
def freq():
    return medium.FrequencyContext(omega=2 * np.pi / 0.5)


class TestRecast:
    def test_uniform_gives_zero_coefficients(self, grid, freq):
        params = medium.uniform_medium(grid, c=2.0, rho=3.0, gamma=0.0)
        hp = medium.recast(params, freq)
        assert np.max(np.abs(hp.v)) < 1e-12 * abs(hp.k_ref) ** 2
        assert params.u.shape == (grid.n_interior, 2) and not np.any(params.u)
        assert not np.any(hp.A)

    def test_flow_coefficient_formula(self, grid, freq):
        # A = omega u / c^2: omega = 1, c = 2, u = (4, 0) -> A = (1, 0)
        params = medium.uniform_medium(grid, c=2.0, rho=1.0, gamma=0.0)
        u = np.zeros((grid.n_interior, 2))
        u[:, 0] = 4.0
        params.u = medium.project_divergence_free(grid, params.rho, u)
        f1 = medium.FrequencyContext(omega=1.0)
        hp = medium.recast(params, f1)
        # projection only trims the boundary closure; interior values stay ~4
        interior = np.abs(params.u[:, 0] - 4.0) < 1e-6
        assert np.allclose(hp.A[interior, 0], 1.0, atol=1e-6)
        assert np.allclose(hp.A[:, 1], params.u[:, 1] / 4.0, atol=1e-12)

    def test_damping_sign_condition(self, grid, freq):
        # the recast damping relation Im v - Im k_ref^2 = -2 gamma omega / c^2
        params = medium.uniform_medium(grid, c=1.5, rho=1.0, gamma=0.2)
        hp = medium.recast(params, freq)
        assert not np.any(hp.A)
        cond = np.imag(hp.v) - np.imag(hp.k_ref**2)
        expect = -2.0 * params.gamma * freq.omega / params.c**2
        assert np.allclose(cond, expect, atol=1e-12)
        assert np.max(cond) <= 0.0

    def test_sign_condition_with_divergence_free_flow(self, grid, freq):
        # a divergence-free flow leaves Im v - Im k_ref^2 + div A unchanged
        params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.1)
        pts = grid.interior_nodes
        psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.2**2))
        params.u = medium.stream_function_flow(grid, psi, params.rho, amplitude=0.05)
        hp = medium.recast(params, freq)
        assert np.any(hp.A)
        div_a = sum(d @ hp.A[:, i] for i, d in enumerate(grid.gradient_matrices()))
        cond = np.imag(hp.v) - np.imag(hp.k_ref**2) + np.real(div_a)
        expect = -2.0 * params.gamma * freq.omega / params.c**2
        assert np.max(np.abs(cond - expect)) < 1e-6 * np.max(np.abs(expect))

    def test_floor_violation_raises(self, grid, freq):
        params = medium.uniform_medium(grid, c=1.0, rho=1.0)
        params.c = params.c.copy()
        params.c[3] = -0.1
        with pytest.raises(InvalidParameterError):
            medium.recast(params, freq)

    @pytest.mark.parametrize("name", ["c", "rho", "gamma", "S", "u"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_field_raises(self, grid, name, bad):
        params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.2)
        if name == "u":
            params.u = np.zeros((grid.n_interior, grid.dim))
        field = getattr(params, name).copy()
        field.flat[3] = bad
        setattr(params, name, field)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            params.validate()


def _is_diagonal(j):
    return not np.any(j.toarray() - np.diag(j.diagonal()))


class TestPartialDerivatives:
    def test_gamma_coefficient(self, grid):
        params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.1)
        f1 = medium.FrequencyContext(omega=1.0)
        j_v, j_a = medium.recast_jacobian("gamma", params, f1)
        assert np.allclose(j_v.diagonal(), -2j, atol=1e-14)
        assert _is_diagonal(j_v) and j_a is None

    def test_sound_speed_coefficient(self, grid, freq):
        params = medium.uniform_medium(grid, c=1.3, rho=1.0, gamma=0.2)
        j_v, _ = medium.recast_jacobian("c", params, freq)
        expect = 2.0 * (freq.omega**2 + 2j * freq.omega * 0.2) / 1.3**3
        assert np.allclose(j_v.diagonal(), expect, atol=1e-12)
        assert _is_diagonal(j_v)

    def test_density_constant_background(self, grid, freq):
        # only the Laplacian term: J_v = diag(-1/(2 rho)) L
        params = medium.uniform_medium(grid, c=1.0, rho=2.5)
        j_v, j_a = medium.recast_jacobian("rho", params, freq)
        lap = grid.laplacian_matrix().toarray()
        assert np.allclose(j_v.toarray(), (-0.5 / 2.5) * lap, atol=1e-14 * np.abs(lap).max())
        assert j_a is None

    def test_partial_A_flow_identity_scaling(self, grid):
        params = medium.uniform_medium(grid, c=1.0, rho=1.0)
        f1 = medium.FrequencyContext(omega=1.0)
        _, j_a = medium.recast_jacobian("u", params, f1)
        assert np.allclose(j_a.toarray(), np.eye(grid.n_interior * grid.dim))

    def test_partial_A_sound_speed_without_flow(self, grid, freq):
        params = medium.uniform_medium(grid, c=1.0, rho=1.0)
        _, j_a = medium.recast_jacobian("c", params, freq)
        assert j_a is None

    def test_partial_A_sound_speed_with_flow(self, grid):
        # -omega u / c^3 * dc: omega = 1, c = 1, u = (1, 0), dc = 2 -> (-2, 0)
        params = medium.uniform_medium(grid, c=1.0, rho=1.0)
        u = np.zeros((grid.n_interior, 2))
        u[:, 0] = 1.0
        params.u = u  # skip projection: coefficient formula is pointwise
        f1 = medium.FrequencyContext(omega=1.0)
        _, j_a = medium.recast_jacobian("c", params, f1)
        da = (j_a @ np.full(grid.n_interior, 2.0)).reshape((-1, 2), order="F")
        assert np.allclose(da[:, 0], -2.0)
        assert np.allclose(da[:, 1], 0.0)

    def test_unknown_quantity(self, grid, freq):
        params = medium.uniform_medium(grid)
        with pytest.raises(UsageError):
            medium.recast_jacobian("zeta", params, freq)

    @pytest.mark.parametrize("q", ["c", "gamma", "rho", "u"])
    def test_matches_finite_differences_of_recast(self, grid, freq, q):
        # Taylor remainder of the recast map: slope 2 on log-log over h
        params = medium.uniform_medium(grid, c=1.2, rho=1.1, gamma=0.15)
        if q in ("c", "gamma"):
            # pointwise-exact derivatives: test on a non-flat background too
            pts = grid.interior_nodes
            bump = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.2**2))
            params.c = params.c * (1 + 0.05 * bump)
        pts = grid.interior_nodes
        prof = np.exp(-np.sum((pts - [0.1, 0.05]) ** 2, axis=1) / (2 * 0.15**2))
        if q == "u":
            psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.18**2))
            dq = medium.stream_function_flow(grid, psi, params.rho, amplitude=1.0)
        else:
            dq = 0.3 * prof
        hp0 = medium.recast(params, freq)
        j_v, j_a = medium.recast_jacobian(q, params, freq)
        flat = dq.ravel(order="F")
        dv = j_v @ flat
        rems = []
        hs = [1e-1, 1e-2, 1e-3]
        for h in hs:
            p = params.copy()
            if q == "u":
                p.u = h * dq
            else:
                setattr(p, q, getattr(p, q) + h * dq)
            hp = medium.recast(p, freq)
            rem = np.linalg.norm(hp.v - hp0.v - h * dv)
            if q == "u":
                da = (j_a @ flat).reshape(dq.shape, order="F")
                rem += np.linalg.norm(hp.A - hp0.A - h * da)
            rems.append(max(rem, 1e-300))
        if max(rems) < 1e-10:  # exactly linear map (e.g. u at flat background)
            return
        slope = np.polyfit(np.log(hs), np.log(rems), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestFlowUtilities:
    def test_projection_reaches_tolerance(self, grid):
        rng = np.random.default_rng(2)
        rho = 1.0 + 0.1 * rng.random(grid.n_interior)
        u = rng.standard_normal((grid.n_interior, 2))
        u_df = medium.project_divergence_free(grid, rho, u)
        r = medium.flow_divergence_matrix(grid, rho)
        resid = np.linalg.norm(r @ u_df.ravel(order="F"))
        assert resid <= 1e-8 * np.linalg.norm(rho[:, None] * u_df)

    def test_stream_function_flow_admissible(self, grid):
        params = medium.uniform_medium(grid)
        pts = grid.interior_nodes
        psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.2**2))
        params.u = medium.stream_function_flow(grid, psi, params.rho, amplitude=0.1)
        params.validate()

    def test_frequency_band_even_spacing(self):
        band = medium.frequency_band(5, 1.0, 2.0)
        omegas = [f.omega for f in band]
        assert omegas == pytest.approx(list(np.linspace(1.0, 2.0, 5)))


class TestDescriptors:
    def test_uniform_preset(self, grid):
        desc = {"reference": {"c": 2.0, "rho": 1.5, "gamma": 0.1}}
        params = medium.medium_from_descriptor(grid, desc)
        assert np.allclose(params.c, 2.0)
        assert np.allclose(params.rho, 1.5)
        assert not np.any(params.u)

    def test_block_perturbation(self, grid):
        desc = {
            "reference": {"c": 1.0},
            "perturbations": [
                {
                    "field": "c",
                    "shape": "block",
                    "center": [0.1, -0.1],
                    "half_width": 0.2,
                    "amplitude": 0.3,
                }
            ],
        }
        params = medium.medium_from_descriptor(grid, desc)
        pts = grid.interior_nodes
        inside = np.all(np.abs(pts - [0.1, -0.1]) <= 0.2, axis=1)
        assert np.allclose(params.c[inside], 1.3)
        assert np.allclose(params.c[~inside], 1.0)

    def test_gaussian_blob_and_damping_source(self, grid):
        desc = {
            "reference": {"c": 1.0, "gamma": 0.2},
            "source": {"model": "damping"},
            "perturbations": [
                {
                    "field": "S",
                    "shape": "gaussian-blob",
                    "center": [0.0, 0.0],
                    "half_width": 0.15,
                    "amplitude": 1.0,
                }
            ],
        }
        params = medium.medium_from_descriptor(grid, desc, power=3.0)
        base = 3.0 * 0.2 / 1.0
        # blob peak value at the node closest to the center (cell centers are
        # offset from the origin by half a spacing)
        r2min = np.min(np.sum(grid.interior_nodes**2, axis=1))
        assert params.S.max() == pytest.approx(
            base + np.exp(-r2min / (2 * 0.15**2)), rel=1e-9
        )

    def test_flow_preset_is_divergence_free(self, grid):
        desc = {
            "reference": {"c": 1.0},
            "flow": {"center": [0.0, 0.0], "half_width": 0.2, "amplitude": 0.05},
        }
        params = medium.medium_from_descriptor(grid, desc)
        params.validate()
        assert np.any(params.u)

    def test_raw_field_reference(self, grid, tmp_path):
        from holoseis import io as hio

        path = tmp_path / "c.hsm"
        field = np.full(grid.n_interior, 1.7, dtype=complex)
        hio.write_matrix(path, field)
        desc = {"reference": {"c": 1.0}, "fields": {"c": str(path)}}
        params = medium.medium_from_descriptor(grid, desc)
        assert np.allclose(params.c, 1.7)

    def test_unknown_shape_rejected(self, grid):
        desc = {
            "perturbations": [
                {"field": "c", "shape": "wedge", "half_width": 0.1, "amplitude": 1.0}
            ]
        }
        with pytest.raises(UsageError):
            medium.medium_from_descriptor(grid, desc)


class TestRecastContinuity:
    def test_relative_output_change_bounded(self, grid, freq):
        # continuity of the recast: on a sampled neighborhood, the relative
        # change of (v, A) is bounded by a fixed multiple of the relative
        # parameter change
        rng = np.random.default_rng(8)
        params = medium.uniform_medium(grid, c=1.2, rho=1.1, gamma=0.3)
        pts = grid.interior_nodes
        psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.2**2))
        params.u = medium.stream_function_flow(grid, psi, params.rho, amplitude=0.02)
        hp0 = medium.recast(params, freq)
        scale0 = np.linalg.norm(hp0.v - hp0.k_ref**2) + np.linalg.norm(hp0.A) + abs(
            hp0.k_ref
        ) ** 2
        for _ in range(5):
            eps = 1e-3
            p = params.copy()
            p.c = p.c * (1 + eps * rng.uniform(-1, 1, grid.n_interior))
            p.gamma = p.gamma * (1 + eps * rng.uniform(-1, 1, grid.n_interior))
            hp = medium.recast(p, freq)
            dv = np.linalg.norm(hp.v - hp0.v) + np.linalg.norm(hp.A - hp0.A)
            assert dv <= 100.0 * eps * scale0
