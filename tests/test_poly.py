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


def product_by_definition(x: Poly, y: Poly) -> Poly:
    """The schoolbook convolution, through the constructor."""
    if x.is_zero() or y.is_zero():
        return Poly([])
    out = [0] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out)


T = Cyclotomic.root(8)
# 1 + t^4 and 1 - t^4 are zero divisors: their product is 0
CYCLO = st.sampled_from([0, 1, -2, Fraction(1, 2), T, -T ** 3, 1 + T ** 4,
                         1 - T ** 4, 2 - 2 * T ** 4, Cyclotomic.scalar(8, 0)])
CONSTANTS = st.one_of(SCALARS, SCALARS.map(Poly.const), CYCLO.map(Poly.const))


class TestConstantOperand:
    # the constant-operand path scales the coefficients; it must give the
    # schoolbook product, with the zeros left at the top stripped
    @given(st.one_of(POLYS, st.lists(CYCLO, max_size=4).map(Poly)), CONSTANTS)
    def test_constant_on_either_side_is_the_product(self, x, c):
        poly_c = c if isinstance(c, Poly) else Poly.const(c)
        expected = product_by_definition(x, poly_c)
        for got in (x * c, c * x):
            assert got == expected
            assert not got.coeffs or not got.coeffs[-1] == 0
            if poly_c == 1 and x.degree > 0:
                assert got is x

    def test_zero_divisors_strip_to_the_true_degree(self):
        x = Poly([1, 1 + T ** 4])
        got = x * Poly.const(1 - T ** 4)
        assert got.degree == 0 and got == Poly.const(1 - T ** 4)
        assert (Poly.const(1 + T ** 4) * Poly([0, 1 - T ** 4])).is_zero()


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
