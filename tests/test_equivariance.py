"""Quarter-turn equivariance of the covariance map, its derivative, its
adjoint and the sensitivity kernels.

A square_grid with its ring centred and n_rec a multiple of 4 is invariant
under the rotation (x, y) -> (-y, x): interior node j goes to node P[j]
(greens._quarter_turn) and receiver i to receiver i + n_rec/4.  Rotating the
medium (scalars permuted, the flow also turned as a vector) must rotate C,
C' and C'* with it.  The adjoint identity cannot see a slip that the
derivative and the adjoint share, such as a mixed-up flow slot or reshape
order; this check can.  It runs on the parameter lattice and, through the
transfer map, on a coarser frequency lattice of the same block, and a short
inversion over three frequency lattices must rotate its reconstruction.
"""

import numpy as np
import pytest

from holoseis import greens, holography, inversion, medium, stochastic

QUANTITIES = ("S", "c", "gamma", "rho", "u")
TOL = 1e-12  # relative; the 36 checks measure at most 1.1e-14
RUN_TOL = 1e-10  # relative; the runs measure at most 2.0e-13 (c) and 8.7e-15 (u)


@pytest.fixture(scope="module")
def rotation():
    g = greens.square_grid(0.5, 0.5, 7.5, receiver_radius=1.0, n_receivers=16)
    perms = greens._quarter_turn(g)
    assert len(perms) == 4
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
    pts = g.interior_nodes

    def bump(centre, width):
        return np.exp(-np.sum((pts - centre) ** 2, axis=1) / (2 * width**2))

    params.S = 0.5 + bump([0.1, -0.2], 0.12)
    params.c = params.c * (1 + 0.05 * bump([0.15, 0.05], 0.1))
    params.rho = params.rho * (1 + 0.1 * bump([-0.1, 0.1], 0.15))
    params.gamma = params.gamma * (1 + 0.2 * bump([0.0, 0.2], 0.1))
    psi = bump([0.05, -0.1], 0.2)
    params.u = medium.stream_function_flow(g, psi, params.rho, amplitude=0.02)
    return g, perms[1], freq, params


def _turn_field(perm, f):
    """The field of the rotated medium: node j's value moves to node P[j], and
    a flow (n, 2) also turns as a vector, (u_x, u_y) -> (-u_y, u_x)."""
    out = np.empty_like(f)
    out[perm] = f if f.ndim == 1 else np.column_stack([-f[:, 1], f[:, 0]])
    return out


def _turn_medium(perm, params):
    turned = params.copy()
    for name in ("c", "rho", "gamma", "S", "u"):
        setattr(turned, name, _turn_field(perm, getattr(params, name)))
    return turned


def _turn_receivers(g, d):
    """A receiver matrix of the rotated ring: receiver i becomes i + n_rec/4."""
    s = g.n_receivers // 4
    return np.roll(d, (s, s), axis=(0, 1))


def _close(a, b):
    return np.max(np.abs(a - b)) <= TOL * np.max(np.abs(b))


def _perturbation(g, q, seed):
    rng = np.random.default_rng(seed)
    shape = (g.n_interior, g.dim) if q == "u" else (g.n_interior,)
    return rng.standard_normal(shape)


def _lattice_maps(g, side):
    """The coarser lattice of the same block, with the transfer maps of the
    medium and of its rotation (each Pi at its own mapped density)."""
    lattice = greens.frequency_lattice(g, (side - 0.5) / g.interior_shape[0])
    assert lattice.interior_shape == (side, side)
    assert len(greens._quarter_turn(lattice)) == 4
    return lattice, medium.LatticeTransfer(g, lattice), medium.LatticeTransfer(g, lattice)


@pytest.mark.parametrize("side", [None, 11], ids=["parameter-lattice", "frequency-lattice"])
def test_covariance_derivative_and_adjoint_rotate(rotation, side):
    g, perm, freq, params = rotation
    turned = _turn_medium(perm, params)
    if side is None:
        mapped, mapped_turned = params, turned

        def to_lattice(fields):
            return fields

        to_lattice_turned = back = back_turned = to_lattice
    else:
        _, transfer, transfer_turned = _lattice_maps(g, side)
        mapped, mapped_turned = transfer.medium(params), transfer_turned.medium(turned)
        mapped_turned.validate()  # the rotated flow is divergence-free on the lattice

        def to_lattice(dq):
            return transfer.fields(dq, mapped.rho)

        def to_lattice_turned(dq):
            return transfer_turned.fields(dq, mapped_turned.rho)

        def back(duals):
            return transfer.duals(duals, mapped.rho)

        def back_turned(duals):
            return transfer_turned.duals(duals, mapped_turned.rho)

    model = holography.build_model(mapped, freq, quantities=QUANTITIES)
    model_turned = holography.build_model(mapped_turned, freq, quantities=QUANTITIES)
    cov = stochastic.forward_covariance(model).matrix
    cov_turned = stochastic.forward_covariance(model_turned).matrix
    assert _close(cov_turned, _turn_receivers(g, cov))

    rng = np.random.default_rng(7)
    n_rec = g.n_receivers
    d = rng.standard_normal((n_rec, n_rec)) + 1j * rng.standard_normal((n_rec, n_rec))
    for i, q in enumerate(QUANTITIES):
        dq = _perturbation(g, q, seed=i)
        dc = holography.apply_derivative(model, to_lattice({q: dq}))
        dc_turned = holography.apply_derivative(
            model_turned, to_lattice_turned({q: _turn_field(perm, dq)})
        )
        assert _close(dc_turned, _turn_receivers(g, dc)), q
        dual = back(holography.apply_adjoint(model, d, (q,)))[q]
        dual_turned = back_turned(
            holography.apply_adjoint(model_turned, _turn_receivers(g, d), (q,))
        )[q]
        assert _close(dual_turned, _turn_field(perm, dual)), q


@pytest.mark.parametrize("side", [None, 11], ids=["parameter-lattice", "frequency-lattice"])
def test_kernel_rows_rotate(rotation, side):
    g, perm, freq, params = rotation
    turned = _turn_medium(perm, params)
    lattice = g
    if side is not None:
        lattice, transfer, transfer_turned = _lattice_maps(g, side)
        params, turned = transfer.medium(params), transfer_turned.medium(turned)
        perm = greens._quarter_turn(lattice)[1]
    model = holography.build_model(params, freq, quantities=QUANTITIES)
    model_turned = holography.build_model(turned, freq, quantities=QUANTITIES)
    weight = holography.NoiseWeight.identity(lattice.receiver_weights)
    target = int(np.argmin(np.sum((lattice.interior_nodes - [0.1, -0.15]) ** 2, axis=1)))
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])  # (u_x, u_y) -> (-u_y, u_x)
    pairs = [(q, q) for q in QUANTITIES] + [("c", "u"), ("u", "S")]
    for qx, qy in pairs:
        rows = holography.sensitivity_kernel(model, (qx, qy), weight, targets=[target])
        rows_turned = holography.sensitivity_kernel(
            model_turned, (qx, qy), weight, targets=[perm[target]]
        )
        # K'[P t, P x] = R_x K[t, x] R_y^T, R the vector turn of a flow index
        if rows.ndim == 2:
            expect = _turn_field(perm, rows[0])
            got = rows_turned[0]
        else:
            rx = turn if qx == "u" else np.eye(1)
            ry = turn if qy == "u" else np.eye(1)
            expect = np.empty_like(rows[:, :, 0])
            expect[:, :, perm] = np.einsum("ac,cdx,bd->abx", rx, rows[:, :, 0], ry)
            got = rows_turned[:, :, 0]
        assert _close(got, expect), (qx, qy)


@pytest.mark.parametrize("quantity", ["c", "u"])
def test_reconstruction_rotates(rotation, quantity):
    # three frequencies on the 11-, 13- and 15-lattices, noise-free data of a
    # c bump or a flow, two outer iterations (the second maps a nonzero
    # iterate through the transfer); the run on the rotated medium and data
    # returns the rotated update, to CG's round-off under the permutation
    g, perm, freq, params = rotation
    freqs = medium.frequency_band(3, 0.7 * freq.omega, freq.omega)
    truth = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
    truth.S = params.S.copy()
    if quantity == "c":
        truth.c = params.c.copy()
    else:
        truth.u = medium.stream_function_flow(g, params.S - 0.5, truth.rho, amplitude=0.02)
    q0 = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
    q0.S = truth.S.copy()
    smoothing = g.spacing if quantity == "c" else 0.0

    def reconstruction(truth, q0):
        data = []
        for fr in freqs:
            model = holography.build_model(truth, fr, quantities=(quantity,))
            cov = stochastic.forward_covariance(model)
            data.append(inversion.FrequencyData(freq=fr, corr=cov, n_realizations=100))
        config = inversion.InversionConfig(
            grid=g, q0=q0, quantities=(quantity,), beta=1.0, max_outer=2, tau=0.0,
            alpha0_scale=0.1, smoothing_width=smoothing,
        )
        q_fin, diag = inversion.run_irgnm(config, data)
        assert diag["lattice_shapes"] == [[11, 11], [13, 13], [15, 15]]
        return getattr(q_fin, quantity) - getattr(q0, quantity)

    update = reconstruction(truth, q0)
    turned = reconstruction(_turn_medium(perm, truth), _turn_medium(perm, q0))
    assert np.max(np.abs(update)) > 0
    assert np.max(np.abs(turned - _turn_field(perm, update))) <= RUN_TOL * np.max(np.abs(update))
