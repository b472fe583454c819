"""Green's-operator tests: closed forms, assembly, resolvent update."""

import tracemalloc

import numpy as np
import pytest
from scipy import special

from holoseis import greens, specfun
from holoseis.errors import (
    DomainError,
    MemoryBudgetError,
    NumericalBreakdownError,
    ResonanceError,
    SingularityError,
    UsageError,
)

# frozen oracle values (independent series summation, 40-digit arithmetic)
H10_AT_1 = 0.76519768655796655145 + 0.088256964215676957983j
J0_AT_2 = 0.22389077914123566805
I4_H10_AT_1 = -0.022064241053919239496 + 0.19129942163949163786j  # (i/4) H1_0(1)


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


class TestHankel:
    def test_oracle_h10_at_1(self):
        assert specfun.hankel_h1_array(1.0) == pytest.approx(H10_AT_1, rel=1e-12)

    def test_real_part_is_j0_at_2(self):
        assert specfun.hankel_h1_array(2.0).real == pytest.approx(J0_AT_2, rel=1e-12)

    def test_singularity_at_zero(self):
        with pytest.raises(SingularityError):
            specfun.hankel_h1_array(np.array([1.0, 0.0]))

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            specfun.hankel_h1_array(np.array([1.0, 2e4]))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(1.0, np.nan)], ids=["nan", "inf", "nan-imag"]
    )
    def test_nonfinite_argument(self, bad):
        with pytest.raises(DomainError):
            specfun.hankel_h1_array(np.array([1.0, bad]))

    def test_large_argument_asymptotics(self):
        # leading term agrees to the size of the first asymptotic correction
        # 1/(8z) = 1.56e-3 at z = 80; with that correction term included the
        # agreement tightens by two orders of magnitude
        z = 80.0
        lead = np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * (z - np.pi / 4.0))
        got = specfun.hankel_h1_array(z)
        assert got == pytest.approx(lead, rel=2e-3)
        corrected = lead * (1.0 - 1j / (8.0 * z))
        assert got == pytest.approx(corrected, rel=2e-5)

    def test_equals_j_plus_iy(self):
        z = np.array([0.7, 3.0 + 0.3j, 40.0])
        want = special.jv(0, z) + 1j * special.yv(0, z)
        np.testing.assert_allclose(specfun.hankel_h1_array(z), want, rtol=1e-10)

    def test_array_matches_point_evaluation(self):
        k = 2.0 + 0.3j
        r = np.array([0.5, 2.0, 17.0])
        kernel = greens._radial_kernel(k, r)
        for ri, vi in zip(r, kernel):
            assert vi == pytest.approx(greens.green_uniform(k, [0.0, 0.0], [ri, 0.0]), rel=1e-13)


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

    def test_interior_diagonal_is_the_scalar_formula(self):
        g = greens.disk_grid(0.4, 0.4, receiver_radius=0.3, n_receivers=12)
        k = 7.0 + 0.5j
        got = np.diag(greens.assemble_green(g, k).kernel)[g.interior_idx]
        ref = np.array(
            [greens.green_diagonal_2d(k, a) for a in np.sqrt(g.interior_weights / np.pi)]
        )
        assert np.ptp(g.interior_weights) > 0
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-15

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

    def test_memory_guard(self, grid):
        with pytest.raises(MemoryBudgetError):
            greens.assemble_green(grid, 1.0, budget_bytes=1024)


def _split_interior(g):
    """The same grid with its receivers stored in the middle of the interior
    nodes, so the interior indices are no contiguous range."""
    half = g.n_interior // 2
    order = np.concatenate([g.interior_idx[:half], g.receiver_idx, g.interior_idx[half:]])
    receivers = np.arange(half, half + g.n_receivers)
    return greens.Grid(
        nodes=g.nodes[order],
        weights=g.weights[order],
        receiver_idx=receivers,
        interior_idx=np.setdiff1d(np.arange(g.n_nodes), receivers),
        wavelength_resolution=g.wavelength_resolution,
        spacing=g.spacing,
    )


def _square(n_rec, phase=0.0):
    return greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=n_rec, receiver_phase=phase)


def _with_nodes(g, nodes):
    """The grid g with its nodes replaced."""
    return greens.Grid(
        nodes=nodes,
        weights=g.weights,
        receiver_idx=g.receiver_idx,
        interior_idx=g.interior_idx,
        wavelength_resolution=g.wavelength_resolution,
        interior_shape=g.interior_shape,
        spacing=g.spacing,
    )


def _moved_receivers(g, move):
    """The same grid with each receiver moved by move, (2,) or (n_rec, 2)."""
    nodes = g.nodes.copy()
    nodes[g.receiver_idx] += move
    return _with_nodes(g, nodes)


def _jitter(n_rec):
    """Radial moves of a few hundredths: the ring is no ring any more."""
    theta = 2 * np.pi * np.arange(n_rec) / n_rec
    return 0.03 * np.sin(3.0 * np.arange(n_rec))[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)]
    )


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
            lambda: greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=18),
            lambda: greens.square_grid(
                0.6, 0.5, 7.5, 1.0, n_receivers=16, receiver_phase=0.013
            ),
            lambda: greens.disk_grid(
                0.4, 0.4, receiver_radius=0.3, n_receivers=12, receiver_phase=0.1
            ),
            lambda: _split_interior(greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)),
            lambda: _square(17),
            lambda: _moved_receivers(_square(16), [0.05, 0.03]),
            lambda: _moved_receivers(_square(16), _jitter(16)),
        ],
        ids=[
            "square", "square-no-quarter-turn", "square-phase", "disk", "split-interior",
            "square-mirror-only", "shifted-ring", "scattered-receivers",
        ],
    )
    def test_every_offdiagonal_entry_matches_point_evaluation(self, make):
        g = make()
        k = 7.0 + 0.5j
        kernel = greens.assemble_green(g, k).kernel
        ref = _reference_kernel(g, k)
        off = ~np.eye(g.n_nodes, dtype=bool)
        rel = np.abs(kernel[off] - ref[off]) / np.abs(ref[off])
        assert np.max(rel) <= 1e-13

    def test_receiver_rows_evaluate_one_receiver_per_orbit(self, monkeypatch):
        points = []
        hankel = greens.hankel_h1_array

        def counted(z):
            points.append(np.size(z))
            return hankel(z)

        monkeypatch.setattr(greens, "hankel_h1_array", counted)
        k = 7.0 + 0.5j
        # (grid, group order, orbits, distinct receiver pairs): the interior
        # columns cost one Hankel point per orbit and interior node, the
        # receiver block one per chord of a ring, else one per pair
        for g, n_maps, n_orbits, n_pairs in [
            (_square(16), 8, 3, 8),  # all eight maps
            (_square(16, phase=0.013), 4, 4, 8),  # the quarter turns only
            (_square(18), 4, 5, 9),  # the half turn and the two axis mirrors
            (_square(17), 2, 9, 8),  # the mirror only
            (_moved_receivers(_square(16), [0.05, 0.03]), 1, 16, 8),  # the identity
            (_moved_receivers(_square(16), _jitter(16)), 1, 16, 120),  # and no ring
        ]:
            points.clear()
            rows = greens.assemble_receiver_rows(g, k)
            assert len(greens._symmetry(g).maps) == n_maps
            assert points == [n_orbits * g.n_interior, n_pairs]
            block = rows[:, g.receiver_idx]
            assert np.array_equal(block, block.T)
            ref = np.array(
                [
                    [
                        greens.green_uniform(k, x, y) if i != j else np.nan
                        for j, y in enumerate(g.nodes)
                    ]
                    for i, x in zip(g.receiver_idx, g.receiver_nodes)
                ]
            )
            off = ~np.isnan(ref)
            assert np.max(np.abs(rows[off] - ref[off]) / np.abs(ref[off])) <= 1e-13

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

    def test_shared_lattice_point_raises(self, grid):
        nodes = grid.nodes.copy()
        nodes[grid.interior_idx[5]] = nodes[grid.interior_idx[6]]
        with pytest.raises(UsageError, match="share a lattice point"):
            greens.assemble_green(_with_nodes(grid, nodes), 7.0 + 0.5j)

    def test_allocation_peak_near_kernel_size(self):
        # the gather goes row block by row block, through slices on a
        # contiguous interior and through np.ix_ on a split one
        square = greens.square_grid(0.6, 0.3, 7.5, 1.0, n_receivers=40)
        disk = greens.disk_grid(
            0.6, 0.3, receiver_radius=0.4, n_receivers=40, receiver_phase=0.05
        )
        for g in (square, disk, _split_interior(square)):
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
            stochastic.sample_wavefields(model, 64, seed=3)
            holography.lindsey_braun_pair(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.receiver_rows is g_ref.receiver_rows
        assert peak < 16 * g.n_nodes**2

    def test_receiver_rows_match_the_gathered_kernel(self, grid):
        k = 7.0 + 0.5j
        early = greens.assemble_green(grid, k)
        rows = early.receiver_rows
        assert np.array_equal(rows, early.kernel[grid.receiver_idx, :])
        late = greens.assemble_green(grid, k)
        kernel = late.kernel
        assert np.array_equal(late.receiver_rows, rows)
        assert np.array_equal(kernel, early.kernel)
        # a reference keeps its receiver rows and no n x n array: with the
        # gathered kernel dropped, what the operator retains is far below it
        del kernel
        tracemalloc.start()
        try:
            op = greens.assemble_green(grid, k)
            op.kernel
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 * 16 * grid.n_receivers * grid.n_nodes

    def test_each_kernel_read_is_a_fresh_gather(self, grid):
        op = greens.assemble_green(grid, 7.0 + 0.5j)
        first, second = op.kernel, op.kernel
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)


@pytest.fixture(scope="module")
def setup():
    g = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)
    k = 2 * np.pi / 0.5 * np.sqrt(1 + 0.1j)
    g0 = greens.assemble_green(g, k)
    dv = np.zeros(g.n_interior, dtype=complex)
    pts = g.interior_nodes
    mask = (np.abs(pts[:, 0] - 0.1) < 0.2) & (np.abs(pts[:, 1] + 0.1) < 0.2)
    dv[mask] = 3.0 + 1.0j
    delta = greens.DeltaOperator(dv=dv, dA=np.zeros((g.n_interior, 2)))
    return g, g0, delta


class TestUpdateGreen:

    def test_zero_delta_bit_equal(self, setup):
        g, g0, _ = setup
        d0 = greens.DeltaOperator(
            dv=np.zeros(g.n_interior, dtype=complex), dA=np.zeros((g.n_interior, 2))
        )
        gq = greens.update_green(g0, d0)
        assert gq is g0
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
        k0 = g0.kernel

        def remainder(scale):
            d = greens.DeltaOperator(dv=scale * delta.dv, dA=delta.dA)
            gq = greens.update_green(g0, d)
            m = d.operator_matrix(g).toarray()
            first = k0 - (k0 * w[None, :]) @ m @ k0
            return np.max(np.abs(gq.kernel - first))

        r1, r2 = remainder(0.02), remainder(0.01)
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)

    def test_flow_perturbation_breaks_reciprocity(self, setup):
        g, g0, _ = setup
        da = np.zeros((g.n_interior, 2))
        pts = g.interior_nodes
        mask = np.sum(pts**2, axis=1) < 0.16
        da[mask, 0] = 0.5
        delta = greens.DeltaOperator(dv=np.zeros(g.n_interior, dtype=complex), dA=da)
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

        for dv, dA in ((delta.dv, delta.dA), (no_dv, da), (delta.dv, da)):
            d = greens.DeltaOperator(dv=dv, dA=dA)
            m = d.operator_matrix(g).toarray()
            direct = np.linalg.solve(np.eye(g.n_nodes) + (k0 * g.weights[None, :]) @ m, k0)
            gq = greens.update_green(g0, d)
            assert rel(gq.rows(g.receiver_idx), direct[g.receiver_idx, :]) <= 1e-12
            assert rel(gq.kernel, direct) <= 1e-12
            for in_idx in (g.interior_idx, g.receiver_idx):
                mb = rng.standard_normal((4, len(in_idx))) * (1 + 0.5j)
                ref = mb @ direct[np.ix_(g.interior_idx, in_idx)].conj().T
                assert rel(gq.mul_kernel_hermitian(mb, in_idx), ref) <= 1e-12

    @pytest.mark.parametrize("support", ["interior", "part", "receivers-first"])
    def test_scalar_update_matches_dense(self, setup, support):
        # the flow-free path reads the supported columns of the rows and the
        # supported rows of the Hermitian product off the core's LU; oracle:
        # K_q = (I + K0 W M)^{-1} K0 by a dense solve.  "interior" perturbs
        # every interior node (the sound-speed inversions' case), "part" a
        # block of them, and "receivers-first" every interior node of a grid
        # whose node order puts the receivers first
        g, g0, delta = setup
        dv = np.where(delta.dv != 0, delta.dv, 0.5 - 0.2j)
        if support == "part":
            dv = delta.dv
        elif support == "receivers-first":
            order = np.concatenate([g.receiver_idx, g.interior_idx])
            g = greens.Grid(
                nodes=g.nodes[order],
                weights=g.weights[order],
                receiver_idx=np.arange(g.n_receivers),
                interior_idx=np.arange(g.n_receivers, g.n_nodes),
                wavelength_resolution=g.wavelength_resolution,
                interior_shape=g.interior_shape,
                spacing=g.spacing,
                domain_measure=g.domain_measure,
            )
            g0 = greens.assemble_green(g, g0.k_ref)
        d = greens.DeltaOperator(dv=dv, dA=np.zeros((g.n_interior, 2)))
        k0 = g0.kernel
        m = d.operator_matrix(g).toarray()
        direct = np.linalg.solve(np.eye(g.n_nodes) + (k0 * g.weights[None, :]) @ m, k0)
        gq = greens.update_green(g0, d)
        assert len(gq._update[0]) == np.count_nonzero(dv)

        def rel(got, ref):
            return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

        assert rel(gq.rows(g.receiver_idx), direct[g.receiver_idx, :]) <= 1e-12
        assert rel(gq.kernel, direct) <= 1e-12
        rng = np.random.default_rng(1)
        for in_idx in (g.interior_idx, g.receiver_idx):
            mb = rng.standard_normal((5, len(in_idx))) * (1 - 0.3j)
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
        # with the whole interior perturbed, a sound-speed model built on an
        # ungathered reference holds one gathered K0 and the m x m LU at a
        # time, and no (m, n) block V K0: it peaks below those two plus a
        # dozen (n_rec, n) blocks (receiver rows, propagators, products)
        from holoseis import holography, medium

        g = greens.square_grid(0.3, 0.2 / 1.02, 7.1, receiver_radius=1.0, n_receivers=16)
        freq = medium.FrequencyContext(omega=2 * np.pi / 0.2)
        q = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.1)
        q.c = 1.0 + 0.1 * np.exp(-np.sum(g.interior_nodes**2, axis=1) / 0.045)
        g_ref = greens.assemble_green(g, medium.recast(q, freq).k_ref)
        tracemalloc.start()
        try:
            model = holography.build_model(q, freq, quantities=("c",), g_ref=g_ref)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ref = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.1)
        delta = medium.helmholtz_delta(medium.recast(ref, freq), model.hp)
        supp, _v, _lu = greens.update_green(g_ref, delta)._update
        n, m, n_rec = g.n_nodes, len(supp), g.n_receivers
        assert m == g.n_interior
        assert peak < 16 * (n * n + m * m) + 12 * 16 * n_rec * n

    @pytest.mark.parametrize("background", [0.0, 1.0])
    def test_non_finite_delta_raises(self, setup, background):
        g, g0, delta = setup
        dv = np.full(g.n_interior, background, dtype=complex)
        dv[3] = np.nan
        d = greens.DeltaOperator(dv=dv, dA=delta.dA)
        with pytest.raises((ResonanceError, NumericalBreakdownError)):
            greens.update_green(g0, d)

    def test_resonance_guard(self, setup):
        g, g0, delta = setup
        with pytest.raises(ResonanceError):
            greens.update_green(g0, delta, cond_limit=1.0)
