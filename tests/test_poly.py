import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modcurve.arith import Cyclotomic
from modcurve.poly import Poly, rational_roots

SCALARS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))
POLYS = st.lists(st.one_of(SCALARS, st.just(0)), max_size=5).map(Poly)


def retyped(coeffs):
    """The same values with int and integral Fraction swapped."""
    return [Fraction(c) if isinstance(c, int)
            else int(c) if c.denominator == 1 else c for c in coeffs]


class TestHash:
    def test_constant_hashes_like_scalar(self):
        assert Poly([3]) == 3
        assert len({Poly([3]), 3}) == 1

    def test_cyclotomic_constant_coefficient(self):
        assert len({Poly([Cyclotomic.scalar(8, 3)]), Poly([3]), 3}) == 1

    def test_zero(self):
        assert len({Poly([]), Poly([0]), 0}) == 1


class TestEqualityFastPaths:
    @given(POLYS, POLYS, st.booleans())
    def test_eq_is_zero_difference(self, x, y, same):
        if same:
            y = Poly(retyped(x.coeffs) + [0])
        assert (x == y) == all(c == 0 for c in (x - y).coeffs)
        assert (x == y) == (y == x)
        if x == y:
            assert hash(x) == hash(y)

    @given(POLYS, SCALARS, st.booleans())
    def test_eq_scalar_is_definition(self, x, s, same):
        if same:
            x = Poly(retyped([s]))
        assert (x == s) == all(c == 0 for c in (x - s).coeffs)
        assert (x == 0) == (x.is_zero() or all(c == 0 for c in x.coeffs))
        if x == s:
            assert hash(x) == hash(s)


class TestRationalRoots:
    def test_products_of_linear_factors(self):
        rng = random.Random(15)
        for _ in range(300):
            roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                     for _ in range(rng.randint(1, 4))]
            p = Poly.const(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
            for r in roots:
                p = p * Poly([-r * r.denominator, r.denominator])
            assert rational_roots(p) == sorted(set(roots))

    def test_no_rational_root(self):
        assert rational_roots(Poly([-2, 0, 1])) == []
        assert rational_roots(Poly([Fraction(1, 2)])) == []

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            rational_roots(Poly([]))
