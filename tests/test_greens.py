"""Green's-operator tests: closed forms, assembly, resolvent update."""

import tracemalloc

import numpy as np
import pytest

from holoseis import greens
from holoseis.errors import (
    MemoryBudgetError,
    NumericalBreakdownError,
    ResonanceError,
    SingularityError,
    UsageError,
)

# (i/4) H1_0(1.0) from the independent series oracle
I4_H10_AT_1 = -0.022064241053919239496 + 0.19129942163949163786j


@pytest.fixture(scope="module")
def grid():
    return greens.square_grid(
        half_width=0.6,
        wavelength=0.5,
        points_per_wavelength=7.5,
        receiver_radius=1.0,
        n_receivers=16,
    )


class TestPointEvaluations:
    def test_reciprocity(self):
        x = np.array([0.3, -0.2])
        y = np.array([-0.1, 0.4])
        k = 2.0 + 0.3j
        assert greens.green_uniform(k, x, y) == greens.green_uniform(k, y, x)

    def test_2d_matches_series_oracle(self):
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 0.0])
        assert greens.green_uniform(1.0, x, y) == pytest.approx(
            I4_H10_AT_1, rel=1e-12
        )

    def test_coincident_points_raise(self):
        x = np.array([0.1, 0.2])
        with pytest.raises(SingularityError):
            greens.green_uniform(1.0, x, x)


class TestDiagonal2D:
    def test_log_divergence(self):
        k = 1.0
        radii = [1e-2, 1e-3, 1e-4]
        vals = [greens.green_diagonal_2d(k, a).real for a in radii]
        assert vals[0] < vals[1] < vals[2]
        # leading term (1/2pi) ln(1/a): successive decade difference ln(10)/2pi
        d1 = vals[1] - vals[0]
        assert d1 == pytest.approx(np.log(10.0) / (2.0 * np.pi), rel=1e-3)

    def test_imaginary_part_quarter(self):
        for a in (1e-1, 1e-2, 1e-3):
            assert greens.green_diagonal_2d(1.0, a).imag == pytest.approx(0.25)

    def test_wavenumber_constant_shift(self):
        a = 1e-2
        diff = greens.green_diagonal_2d(2.0, a) - greens.green_diagonal_2d(1.0, a)
        assert diff == pytest.approx(-np.log(2.0) / (2.0 * np.pi), abs=1e-14)


class TestGrid:
    def test_validate_passes(self, grid):
        grid.validate()

    def test_weights_tile_measure(self, grid):
        assert grid.interior_weights.sum() == pytest.approx(1.44, rel=1e-12)

    def test_disjoint_index_sets(self, grid):
        assert not np.intersect1d(grid.receiver_idx, grid.interior_idx).size

    def test_resolution_floor(self):
        with pytest.raises(UsageError):
            greens.square_grid(0.6, 0.5, points_per_wavelength=5.0)

    def test_receivers_must_enclose(self):
        with pytest.raises(UsageError):
            greens.square_grid(0.8, 0.5, receiver_radius=1.0)

    def test_disk_grid_measure(self):
        g = greens.disk_grid(radius=0.8, wavelength=0.4, points_per_wavelength=7.5)
        assert g.interior_weights.sum() == pytest.approx(np.pi * 0.64, rel=2e-3)

    def test_gradient_annihilates_constants(self, grid):
        dx, dy = grid.gradient_matrices()
        ones = np.ones(grid.n_interior)
        assert np.max(np.abs(dx @ ones)) < 1e-12
        assert np.max(np.abs(dy @ ones)) < 1e-12

    def test_gradient_exact_on_linear_fields(self, grid):
        pts = grid.interior_nodes
        dx, dy = grid.gradient_matrices()
        f = 2.0 * pts[:, 0] - 3.0 * pts[:, 1]
        assert np.allclose(dx @ f, 2.0, atol=1e-10)
        assert np.allclose(dy @ f, -3.0, atol=1e-10)

    def test_content_hash_changes(self, grid):
        other = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=18)
        assert grid.content_hash() != other.content_hash()

    def test_3d_grid_rejected(self, grid):
        # the Green layer is planar: a hand-built grid of 3D nodes must not
        # silently receive the 2D Hankel kernel
        lifted = greens.Grid(
            nodes=np.column_stack([grid.nodes, np.zeros(grid.n_nodes)]),
            weights=grid.weights,
            receiver_idx=grid.receiver_idx,
            interior_idx=grid.interior_idx,
            wavelength_resolution=grid.wavelength_resolution,
            spacing=grid.spacing,
        )
        with pytest.raises(UsageError, match="2D"):
            lifted.validate()
        with pytest.raises(UsageError, match="2D"):
            greens.assemble_green(lifted, 7.0 + 0.5j)
        with pytest.raises(UsageError, match="2D"):
            greens.assemble_receiver_rows(lifted, 7.0 + 0.5j)


class TestAssembly:
    def test_offdiagonal_matches_point_evaluation(self, grid):
        k = 7.0 + 0.5j
        op = greens.assemble_green(grid, k)
        i, j = 3, 200
        expect = greens.green_uniform(k, grid.nodes[i], grid.nodes[j])
        assert op.kernel[i, j] == pytest.approx(expect, rel=1e-13)

    def test_symmetric_kernel(self, grid):
        op = greens.assemble_green(grid, 9.0 + 0.2j)
        assert np.max(np.abs(op.kernel - op.kernel.T)) == 0.0

    def test_point_source_far_field_decay(self):
        # |G| ~ r^{-(d-1)/2}: 2D amplitude decays like 1/sqrt(r)
        k = 20.0
        src = np.array([0.0, 0.0])
        radii = np.array([0.5, 1.0, 2.0, 4.0])
        vals = [
            abs(greens.green_uniform(k, src, np.array([r, 0.0]))) for r in radii
        ]
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_receiver_rows_match_full(self, grid):
        k = 7.0 + 0.5j
        op = greens.assemble_green(grid, k)
        rows = greens.assemble_receiver_rows(grid, k)
        assert np.allclose(rows, op.kernel[grid.receiver_idx, :], atol=0, rtol=1e-14)

    def test_memory_guard(self, grid):
        with pytest.raises(MemoryBudgetError):
            greens.assemble_green(grid, 1.0, budget_bytes=1024)


def _reference_kernel(g, k):
    """Off-diagonal kernel entries from green_uniform, node pair by node pair."""
    n = g.n_nodes
    ref = np.full((n, n), np.nan, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            ref[i, j] = ref[j, i] = greens.green_uniform(k, g.nodes[i], g.nodes[j])
    return ref


class TestLatticeAssembly:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16),
            lambda: greens.disk_grid(
                0.4, 0.4, receiver_radius=0.3, n_receivers=12, receiver_phase=0.1
            ),
        ],
        ids=["square", "disk"],
    )
    def test_every_offdiagonal_entry_matches_point_evaluation(self, make):
        g = make()
        k = 7.0 + 0.5j
        kernel = greens.assemble_green(g, k).kernel
        ref = _reference_kernel(g, k)
        off = ~np.eye(g.n_nodes, dtype=bool)
        rel = np.abs(kernel[off] - ref[off]) / np.abs(ref[off])
        assert np.max(rel) <= 1e-13

    def test_off_lattice_node_raises(self, grid):
        nodes = grid.nodes.copy()
        nodes[grid.interior_idx[5], 0] += 0.3 * grid.spacing
        moved = greens.Grid(
            nodes=nodes,
            weights=grid.weights,
            receiver_idx=grid.receiver_idx,
            interior_idx=grid.interior_idx,
            wavelength_resolution=grid.wavelength_resolution,
            interior_shape=grid.interior_shape,
            spacing=grid.spacing,
        )
        with pytest.raises(UsageError, match="lattice"):
            greens.assemble_green(moved, 7.0 + 0.5j)

    def test_allocation_peak_near_kernel_size(self):
        g = greens.square_grid(0.6, 0.3, 7.5, 1.0, n_receivers=40)
        tracemalloc.start()
        try:
            greens.assemble_green(g, 7.0 + 0.5j).kernel
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * g.n_nodes**2


class TestLazyReference:
    def test_receiver_path_allocates_no_dense_kernel(self):
        # an S-only model, its realizations and a Lindsey-Braun pair read
        # only receiver rows, so the reference kernel is never gathered
        from holoseis import holography, medium, stochastic

        g = greens.square_grid(0.6, 0.3, 7.5, 1.0, n_receivers=40)
        freq = medium.FrequencyContext(omega=2 * np.pi / 0.3)
        q = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.1)
        q.S = np.exp(-np.sum(g.interior_nodes**2, axis=1) / 0.05)
        tracemalloc.start()
        try:
            g_ref = greens.assemble_green(g, medium.recast(q, freq).k_ref)
            model = holography.build_model(q, freq, quantities=("S",), g_ref=g_ref)
            stochastic.sample_wavefields(model.hp, model.g, 64, seed=3)
            holography.lindsey_braun_pair(model.g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.g is g_ref
        assert peak < 16 * g.n_nodes**2

    def test_receiver_rows_match_the_gathered_kernel(self, grid):
        k = 7.0 + 0.5j
        early = greens.assemble_green(grid, k)
        rows = early.receiver_rows
        assert np.array_equal(rows, early.kernel[grid.receiver_idx, :])
        late = greens.assemble_green(grid, k)
        late.kernel
        assert np.array_equal(late.receiver_rows, rows)
        assert np.array_equal(late.kernel, early.kernel)


@pytest.fixture(scope="module")
def setup():
    g = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)
    k = 2 * np.pi / 0.5 * np.sqrt(1 + 0.1j)
    g0 = greens.assemble_green(g, k)
    dv = np.zeros(g.n_interior, dtype=complex)
    pts = g.interior_nodes
    mask = (np.abs(pts[:, 0] - 0.1) < 0.2) & (np.abs(pts[:, 1] + 0.1) < 0.2)
    dv[mask] = 3.0 + 1.0j
    delta = greens.DeltaOperator(dv=dv, dA=None, gradient_stencil=g.gradient_matrices())
    return g, g0, delta


class TestUpdateGreen:

    def test_zero_delta_bit_equal(self, setup):
        g, g0, _ = setup
        d0 = greens.DeltaOperator(
            dv=np.zeros(g.n_interior, dtype=complex),
            dA=None,
            gradient_stencil=g.gradient_matrices(),
        )
        gq = greens.update_green(g0, d0)
        assert np.array_equal(gq.kernel, g0.kernel)

    def test_matches_direct_dense_solve(self, setup):
        g, g0, delta = setup
        gq = greens.update_green(g0, delta)
        m = delta.operator_matrix(g).toarray()
        lhs = np.eye(g.n_nodes) + (g0.kernel * g.weights[None, :]) @ m
        direct = np.linalg.solve(lhs, g0.kernel)
        rel = np.max(np.abs(gq.kernel - direct)) / np.max(np.abs(direct))
        assert rel < 1e-8

    def test_first_order_taylor(self, setup):
        # G_q ~ G0 - G0 dL G0 with quadratic remainder: halving the
        # perturbation must shrink the remainder by ~4
        g, g0, delta = setup
        w = g.weights

        def remainder(scale):
            d = greens.DeltaOperator(
                dv=scale * delta.dv, dA=None, gradient_stencil=delta.gradient_stencil
            )
            gq = greens.update_green(g0, d)
            m = d.operator_matrix(g).toarray()
            first = g0.kernel - (g0.kernel * w[None, :]) @ m @ g0.kernel
            return np.max(np.abs(gq.kernel - first))

        r1, r2 = remainder(0.02), remainder(0.01)
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)

    def test_flow_perturbation_breaks_reciprocity(self, setup):
        g, g0, _ = setup
        da = np.zeros((g.n_interior, 2))
        pts = g.interior_nodes
        mask = np.sum(pts**2, axis=1) < 0.16
        da[mask, 0] = 0.5
        delta = greens.DeltaOperator(
            dv=np.zeros(g.n_interior, dtype=complex),
            dA=da,
            gradient_stencil=g.gradient_matrices(),
        )
        gq = greens.update_green(g0, delta)
        asym = np.max(np.abs(gq.kernel - gq.kernel.T))
        assert asym > 1e-8

    def test_scalar_perturbation_keeps_reciprocity(self, setup):
        g, g0, delta = setup
        gq = greens.update_green(g0, delta)
        scale = np.max(np.abs(gq.kernel))
        assert np.max(np.abs(gq.kernel - gq.kernel.T)) < 1e-10 * scale

    def test_factored_products_match_dense(self, setup):
        # independent oracle: K_q = (I + K0 W M)^{-1} K0 by a dense solve, for
        # a scalar, a flow and a combined perturbation
        g, g0, delta = setup
        da = np.zeros((g.n_interior, 2))
        da[np.sum(g.interior_nodes**2, axis=1) < 0.09] = [0.5, -0.3]
        no_dv = np.zeros_like(delta.dv)
        k0 = g0.kernel
        rng = np.random.default_rng(0)

        def rel(got, ref):
            return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

        for dv, dA in ((delta.dv, None), (no_dv, da), (delta.dv, da)):
            d = greens.DeltaOperator(dv=dv, dA=dA, gradient_stencil=delta.gradient_stencil)
            m = d.operator_matrix(g).toarray()
            direct = np.linalg.solve(np.eye(g.n_nodes) + (k0 * g.weights[None, :]) @ m, k0)
            gq = greens.update_green(g0, d)
            assert rel(gq.rows(g.receiver_idx), direct[g.receiver_idx, :]) <= 1e-12
            assert rel(gq.kernel, direct) <= 1e-12
            for in_idx in (g.interior_idx, g.receiver_idx):
                mb = rng.standard_normal((4, len(in_idx))) * (1 + 0.5j)
                ref = mb @ direct[np.ix_(g.interior_idx, in_idx)].conj().T
                assert rel(gq.mul_kernel_hermitian(mb, in_idx), ref) <= 1e-12

    def test_base_rows_fetched_once(self, setup):
        # each factored product reads every block of K0 it needs exactly once:
        # rows reads K0[idx, :] (and slices U = (K0 W)[idx, supp] from it) and
        # the interior rows that V's columns act on; the Hermitian product
        # reads the interior rows and slices K0[interior, in] and
        # K0[interior, supp] from them
        g, g0, delta = setup
        gq = greens.update_green(g0, delta)
        shapes = []

        class Reads(np.ndarray):
            def __getitem__(self, key):
                out = np.asarray(super().__getitem__(key))
                shapes.append(out.shape)
                return out

        gq._base = gq._base.view(Reads)
        gq.rows(g.receiver_idx)
        assert shapes == [(g.n_receivers, g.n_nodes), (g.n_interior, g.n_nodes)]
        shapes.clear()
        gq.mul_kernel_hermitian(np.ones((2, g.n_interior), dtype=complex), g.interior_idx)
        assert shapes == [(g.n_interior, g.n_nodes)]

    def test_factored_model_holds_no_m_by_n_block(self):
        # with the whole interior perturbed, the factored operator keeps the
        # m x m LU and no (m, n) block V K0: a sound-speed model on a prebuilt
        # reference peaks below the LU plus one (n_int, n) block
        from holoseis import holography, medium

        g = greens.square_grid(0.3, 0.2 / 1.02, 7.1, receiver_radius=1.0, n_receivers=16)
        freq = medium.FrequencyContext(omega=2 * np.pi / 0.2)
        q = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.1)
        q.c = 1.0 + 0.1 * np.exp(-np.sum(g.interior_nodes**2, axis=1) / 0.045)
        g_ref = greens.assemble_green(g, medium.recast(q, freq).k_ref)
        g_ref.kernel
        tracemalloc.start()
        try:
            model = holography.build_model(q, freq, quantities=("c",), g_ref=g_ref)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = len(model.g._supp)
        assert m == g.n_interior
        assert peak < 16 * m * m + 16 * m * g.n_nodes

    @pytest.mark.parametrize("background", [0.0, 1.0])
    def test_non_finite_delta_raises(self, setup, background):
        g, g0, delta = setup
        dv = np.full(g.n_interior, background, dtype=complex)
        dv[3] = np.nan
        d = greens.DeltaOperator(dv=dv, dA=None, gradient_stencil=delta.gradient_stencil)
        with pytest.raises((ResonanceError, NumericalBreakdownError)):
            greens.update_green(g0, d)

    def test_resonance_guard(self, setup):
        g, g0, delta = setup
        with pytest.raises(ResonanceError):
            greens.update_green(g0, delta, cond_limit=1.0)
