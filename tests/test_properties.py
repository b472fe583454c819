"""Property tests: the derivative/adjoint pair and the binary file formats.

Grids are kept tiny and example counts bounded so the whole module runs in a
few seconds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from holoseis import greens, holography, io as hio, medium
from holoseis.stochastic import hs_inner

QUANTITIES = ("S", "c", "gamma", "rho", "u")


@pytest.fixture(scope="module")
def tiny():
    g = greens.square_grid(0.3, 0.5, 7.5, 1.0, n_receivers=8)
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    k_ref = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3).reference_wavenumber(freq)
    return g, freq, greens.assemble_green(g, k_ref)


def _bump(g, centre, width):
    return np.exp(-np.sum((g.interior_nodes - centre) ** 2, axis=1) / (2 * width**2))


@settings(max_examples=20, deadline=None)
@given(
    centre=st.tuples(*[st.floats(-0.2, 0.2)] * 2),
    width=st.floats(0.05, 0.2),
    amp=st.tuples(
        st.floats(-0.1, 0.1),  # relative c bump
        st.floats(-0.5, 0.5),  # relative gamma bump
        st.floats(-0.2, 0.2),  # relative rho bump
    ),
    quantities=st.sets(st.sampled_from(QUANTITIES), min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_identity(tiny, centre, width, amp, quantities, seed):
    # <C'(dq), D> = <dq, C'* D> at a random iterate, quantity set and data D
    g, freq, g_ref = tiny
    bump = _bump(g, np.asarray(centre), width)
    params = medium.uniform_medium(g, c=1.0, rho=1.0, gamma=0.3)
    params.S = 0.5 + 0.3 * bump
    params.c = params.c * (1 + amp[0] * bump)
    params.gamma = params.gamma * (1 + amp[1] * bump)
    params.rho = params.rho * (1 + amp[2] * bump)
    qs = tuple(q for q in QUANTITIES if q in quantities)
    model = holography.build_model(params, freq, quantities=qs, g_ref=g_ref)

    rng = np.random.default_rng(seed)
    w_int = g.interior_weights
    w_rec = g.receiver_weights
    dq = {
        q: rng.standard_normal((g.n_interior, 2) if q == "u" else g.n_interior) for q in qs
    }
    d = rng.standard_normal((g.n_receivers,) * 2) + 1j * rng.standard_normal(
        (g.n_receivers,) * 2
    )
    lhs = hs_inner(holography.apply_derivative(model, dq), d, w_rec).real
    duals = holography.apply_adjoint(model, d, qs)
    wq = {q: w_int[:, None] if q == "u" else w_int for q in qs}
    rhs = sum(float(np.sum(dq[q] * duals[q] * wq[q])) for q in qs)
    nd = np.sqrt(sum(np.sum(dq[q] ** 2 * wq[q]) for q in qs))
    nm = np.sqrt(hs_inner(d, d, w_rec).real)
    assert abs(lhs - rhs) <= 1e-10 * nd * nm


_complex = st.complex_numbers(allow_nan=False, allow_infinity=False, width=128)


@settings(max_examples=40, deadline=None)
@example(arr=np.array(1.0 - 2.0j))  # rank 0 must stay rank 0
@given(
    arr=hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        elements=_complex,
    )
)
def test_matrix_roundtrip(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("m") / "m.hsm"
    hio.write_matrix(path, arr)
    back = hio.read_matrix(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


@settings(max_examples=40, deadline=None)
@given(
    fields=hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=_complex,
    ),
    digest=st.binary(min_size=32, max_size=32),
    omega=st.floats(allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**64 - 1),
)
def test_realizations_roundtrip(tmp_path_factory, fields, digest, omega, seed):
    path = tmp_path_factory.mktemp("r") / "r.hsr"
    hio.write_realizations(path, fields, digest.hex(), omega, seed)
    arc = hio.read_realizations(path)
    assert arc.grid_hash == digest.hex()
    assert arc.omega == omega
    assert arc.seed == seed
    assert arc.n_realizations == fields.shape[0]
    assert arc.fields.shape == fields.shape
    assert np.array_equal(arc.fields, fields)
