import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modcurve.arith import (Cyclotomic, GaussRational, GAUSS_I, divisors,
                            ext_gcd, factorize, is_prime, mult_n, n1, n2, n3,
                            solve_unit_congruence)


SCALARS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))
CYCLO8 = st.lists(SCALARS, min_size=8, max_size=8).map(lambda v: Cyclotomic(8, v))


def retyped(coeffs):
    """The same values with int and integral Fraction swapped."""
    return [Fraction(c) if isinstance(c, int)
            else int(c) if c.denominator == 1 else c for c in coeffs]


class TestExtGcd:
    def test_examples(self):
        assert ext_gcd(3, 8) == (1, 3, -1)
        assert ext_gcd(0, 5) == (5, 0, 1)
        g, u, v = ext_gcd(12, 18)
        assert g == 6 and 12 * u + 18 * v == 6

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_bezout(self, a, b):
        g, u, v = ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert a * u + b * v == g


class TestUnitCongruence:
    def test_examples(self):
        assert solve_unit_congruence(1, 8) == 1
        assert solve_unit_congruence(3, 8) == 3
        assert solve_unit_congruence(17, 1) == 0

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            solve_unit_congruence(2, 8)

    @given(st.integers(-500, 500), st.integers(2, 200))
    def test_unique_minimal(self, u, v):
        if math.gcd(u, v) != 1:
            return
        k = solve_unit_congruence(u, v)
        assert 1 <= k < v
        assert (k * u) % v == 1
        assert all((j * u) % v != 1 for j in range(1, k))


class TestFactorize:
    @pytest.mark.parametrize("n", [1, 2, 12, 97, 360, 1024, 9699690])
    def test_reconstructs(self, n):
        fact = factorize(n)
        assert math.prod(p**r for p, r in fact) == n
        assert all(is_prime(p) for p, _ in fact)
        assert [p for p, _ in fact] == sorted({p for p, _ in fact})

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]


class TestMultN:
    def test_examples(self):
        assert mult_n(1) == 1
        assert mult_n(8) == 2
        assert mult_n(12) == Fraction(5, 2)

    @pytest.mark.parametrize("a,b", [(3, 8), (4, 9), (5, 12), (7, 16), (9, 25)])
    def test_multiplicative(self, a, b):
        assert math.gcd(a, b) == 1
        assert mult_n(a * b) == mult_n(a) * mult_n(b)


class TestCountingFactors:
    def test_n1(self):
        assert n1(2, 0) == 1
        assert n1(2, 3) == 12
        assert n1(5, 1) == 6

    def test_n2(self):
        assert n2(5, 1, 1) == Fraction(25, 6)
        assert n2(2, 3, 0) == Fraction(2, 3)
        assert n2(2, 3, 2) == Fraction(4, 3)

    def test_n3_boundaries(self):
        assert n3(2, 3, 0) == Fraction(2, 3)
        assert n3(2, 3, 3) == Fraction(2, 3)
        assert n3(2, 3, 1) == Fraction(1, 3)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            n3(2, 3, 4)
        with pytest.raises(ValueError):
            n2(4, 2, 1)  # 4 is not prime

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_n3_sums_to_mult_n(self, p, r):
        assert sum(n3(p, r, j) for j in range(r + 1)) == mult_n(p**r)


class TestCyclotomic:
    def test_root_powers(self):
        t = Cyclotomic.root(8)
        assert t**3 * t**7 == t**2
        assert (t**4) ** 2 == 1
        assert t * (1 + t) == t + t**2

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            Cyclotomic.root(8) * Cyclotomic.root(4)

    def test_t_to_d_is_one(self):
        for d in (1, 2, 5, 8, 12):
            assert Cyclotomic.root(d) ** d == 1

    @given(st.lists(st.integers(-5, 5), min_size=8, max_size=8),
           st.lists(st.integers(-5, 5), min_size=8, max_size=8),
           st.lists(st.integers(-5, 5), min_size=8, max_size=8))
    def test_ring_laws(self, a, b, c):
        x, y, z = (Cyclotomic(8, v) for v in (a, b, c))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    def test_constant_hashes_like_scalar(self):
        assert Cyclotomic.scalar(8, 3) == 3
        assert len({Cyclotomic.scalar(8, 3), 3}) == 1

    # the fast equality, zero and scalar paths against their definitions,
    # over mixed int and Fraction coefficients
    @given(CYCLO8, CYCLO8, st.booleans())
    def test_eq_is_zero_difference(self, x, y, same):
        if same:
            y = Cyclotomic(8, retyped(x.coeffs))
        assert (x == y) == all(c == 0 for c in (x - y).coeffs)
        assert (x == y) == (y == x)
        if x == y:
            assert hash(x) == hash(y)

    @given(CYCLO8, SCALARS, st.booleans())
    def test_eq_scalar_is_definition(self, x, s, same):
        if same:
            x = Cyclotomic(8, retyped([s] + [0] * 7))
        assert (x == s) == all(c == 0 for c in (x - s).coeffs)
        assert (x == 0) == all(c == 0 for c in x.coeffs)
        if x == s:
            assert hash(x) == hash(s)

    @given(CYCLO8, SCALARS)
    def test_scalar_product_is_definition(self, x, s):
        assert (x * s).coeffs == (x * Cyclotomic.scalar(8, s)).coeffs
        assert (s * x).coeffs == (Cyclotomic.scalar(8, s) * x).coeffs

    def test_quotient_ring_has_no_i(self):
        # t^(d/2) squares to 1, not -1: the ring keeps t^4 and -1 apart
        t = Cyclotomic.root(8)
        assert not (t**2) * (t**2) == -1


class TestGaussRational:
    def test_i_squares_to_minus_one(self):
        assert GAUSS_I * GAUSS_I == -1
        assert (1 + GAUSS_I) * (1 - GAUSS_I) == 2

    def test_real_hashes_like_rational(self):
        assert GaussRational(5) == 5
        assert len({GaussRational(5), 5}) == 1

    def test_exactness(self):
        z = GaussRational(Fraction(1, 3), Fraction(1, 2))
        assert z * 6 == GaussRational(2, 3)
