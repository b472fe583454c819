"""Special-function tests: frozen high-precision oracles, recurrences, Wronskians.

Oracle values were computed before the build with an independent
arbitrary-precision power-series summation (40 digits) and cross-checked
against a second implementation; they are frozen here as literals.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoseis import specfun
from holoseis.errors import DomainError, SingularityError

# frozen oracle values (independent series summation, 40-digit arithmetic)
J0_AT_2 = 0.22389077914123566805
H10_AT_1 = 0.76519768655796655145 + 0.088256964215676957983j
J3_AT_2P1J = 0.082430798954355344807 + 0.17535344401066129114j


class TestBesselJ:
    def test_order0_at_origin(self):
        assert specfun.bessel_j(0, 0.0) == 1.0 + 0.0j

    def test_order1_at_origin(self):
        assert specfun.bessel_j(1, 0.0) == 0.0 + 0.0j

    def test_oracle_j0_at_2(self):
        assert specfun.bessel_j(0, 2.0) == pytest.approx(J0_AT_2, rel=1e-12)

    def test_oracle_complex_argument(self):
        got = specfun.bessel_j(3, 2.0 + 1.0j)
        assert got == pytest.approx(J3_AT_2P1J, rel=1e-12)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            specfun.bessel_j(201, 1.0)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            specfun.bessel_j(0, 2e4)

    def test_conjugation_symmetry(self):
        for n in (0, 2, 7):
            for z in (1.3 + 0.4j, 5.0 + 2.0j, 0.5 + 0.01j):
                a = specfun.bessel_j(n, np.conj(z))
                b = np.conj(specfun.bessel_j(n, z))
                assert a == pytest.approx(b, rel=1e-12)


class TestHankel:
    def test_singularity_at_zero(self):
        with pytest.raises(SingularityError):
            specfun.hankel_h1(0, 0.0)

    def test_oracle_h10_at_1(self):
        assert specfun.hankel_h1(0, 1.0) == pytest.approx(H10_AT_1, rel=1e-12)

    def test_equals_j_plus_iy(self):
        for n in (0, 1, 5):
            for z in (0.7, 3.0 + 0.3j, 40.0):
                lhs = specfun.hankel_h1(n, z)
                rhs = specfun.bessel_j(n, z) + 1j * specfun.bessel_y(n, z)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_wronskian_identity(self):
        # J_n Y_n' - J_n' Y_n = 2/(pi z) at z = 1.7 for n = 0..5, with the
        # derivatives from Z_n' = Z_{n-1} - (n/z) Z_n (Z_0' = -Z_1)
        z = 1.7

        def deriv(fn, n):
            return -fn(1, z) if n == 0 else fn(n - 1, z) - (n / z) * fn(n, z)

        for n in range(6):
            w = specfun.bessel_j(n, z) * deriv(specfun.bessel_y, n)
            w -= deriv(specfun.bessel_j, n) * specfun.bessel_y(n, z)
            assert w == pytest.approx(2.0 / (np.pi * z), rel=1e-9)

    def test_large_argument_asymptotics(self):
        # leading term agrees to the size of the first asymptotic correction
        # 1/(8z) = 1.56e-3 at z = 80; with that correction term included the
        # agreement tightens by two orders of magnitude
        z = 80.0
        lead = np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * (z - np.pi / 4.0))
        got = specfun.hankel_h1(0, z)
        assert got == pytest.approx(lead, rel=2e-3)
        corrected = lead * (1.0 - 1j / (8.0 * z))
        assert got == pytest.approx(corrected, rel=2e-5)

    def test_array_variant_matches_scalar(self):
        z = np.array([0.5 + 0.1j, 2.0, 17.0 + 4.0j])
        arr = specfun.hankel_h1_array(0, z)
        for zi, vi in zip(z, arr):
            assert vi == pytest.approx(specfun.hankel_h1(0, zi), rel=1e-13)


# ---------------------------------------------------------------------------
# Recurrence properties: Z_{n-1}(z) + Z_{n+1}(z) = (2n/z) Z_n(z)
# ---------------------------------------------------------------------------
@st.composite
def _recurrence_case(draw):
    n = draw(st.integers(min_value=1, max_value=19))
    mod = draw(st.floats(min_value=0.5, max_value=50.0))
    phase = draw(st.floats(min_value=-1.2, max_value=1.2))
    return n, mod * np.exp(1j * phase)


@settings(max_examples=60, deadline=None)
@given(_recurrence_case())
def test_cylindrical_recurrences(case):
    n, z = case
    for fn in (specfun.bessel_j, specfun.bessel_y, specfun.hankel_h1):
        lhs = fn(n - 1, z) + fn(n + 1, z)
        rhs = (2.0 * n / z) * fn(n, z)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-9 * scale
