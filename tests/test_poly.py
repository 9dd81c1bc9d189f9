import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modcurve import poly
from modcurve.arith import GAUSS_I, Cyclotomic, ExactRing
from modcurve.poly import MPoly, rational_roots

SCALARS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))


def in_x(coeffs) -> MPoly:
    """sum(coeffs[i] * x^i) as an MPoly in the one name x."""
    return MPoly({("x",) * i: c for i, c in enumerate(coeffs)})


POLYS = st.lists(st.one_of(SCALARS, st.just(0)), max_size=5).map(in_x)


def retyped(coeffs):
    """The same values with int and integral Fraction swapped."""
    return [Fraction(c) if isinstance(c, int)
            else int(c) if c.denominator == 1 else c for c in coeffs]


class TestHash:
    def test_constant_hashes_like_scalar(self):
        assert in_x([3]) == 3
        assert len({in_x([3]), 3}) == 1

    def test_zero(self):
        assert len({in_x([]), in_x([0]), 0}) == 1


class TestEqualityFastPaths:
    @given(POLYS, POLYS, st.booleans())
    def test_eq_is_zero_difference(self, x, y, same):
        if same:
            y = in_x(retyped(x.coefficients("x")) + [0])
        assert (x == y) == all(c == 0 for c in (x - y).coefficients("x"))
        assert (x == y) == (y == x)
        if x == y:
            assert hash(x) == hash(y)

    @given(POLYS, SCALARS, st.booleans())
    def test_eq_scalar_is_definition(self, x, s, same):
        if same:
            x = in_x(retyped([s]))
        assert (x == s) == all(c == 0 for c in (x - s).coefficients("x"))
        assert (x == 0) == all(c == 0 for c in x.coefficients("x"))
        if x == s:
            assert hash(x) == hash(s)


def product_by_definition(x: MPoly, y: MPoly) -> MPoly:
    """The schoolbook convolution of the coefficient lists, through the constructor."""
    xs, ys = x.coefficients("x"), y.coefficients("x")
    out = [0] * (len(xs) + len(ys))
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] = out[i + j] + a * b
    return in_x(out)


CONSTANTS = st.one_of(SCALARS, SCALARS.map(MPoly.const))


class TestConstantOperand:
    # the constant-operand path scales the coefficients; it must give the
    # schoolbook product, with no zero coefficient left in its terms
    @given(POLYS, CONSTANTS)
    def test_constant_on_either_side_is_the_product(self, x, c):
        poly_c = c if isinstance(c, MPoly) else MPoly.const(c)
        expected = product_by_definition(x, poly_c)
        for got in (x * c, c * x):
            assert got == expected
            assert 0 not in got.terms.values()
            if poly_c == 1 and x.degree("x") > 0:
                assert got is x


class TestDegreeAndCoefficients:
    def test_read_by_name(self):
        p = MPoly({("a", "c11"): 2, ("a", "a", "a"): Fraction(1, 3), ("c11",): -1})
        assert (p.degree("a"), p.degree("c11"), p.degree("c22")) == (3, 1, 0)
        assert MPoly({}).degree("a") == -1
        q = in_x([5, 0, 0, -2])
        assert q.coefficients("x") == [5, 0, 0, -2]
        assert q.subs("x", MPoly.const(2)) == 5 - 2 * 2 ** 3
        assert MPoly({}).coefficients("x") == [] and in_x([7]).coefficients("x") == [7]

    def test_another_name_raises(self):
        with pytest.raises(ValueError, match="holds a name other than a"):
            MPoly({("a",): 1, ("c11",): 1}).coefficients("a")


class TestCoefficientRule:
    # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction("1/2")
    # is 1/2: neither a float nor a string is a coefficient
    @pytest.mark.parametrize("c", [0.1, 0.0, "1/2", GAUSS_I, Cyclotomic.root(8)])
    def test_not_a_rational_raises(self, c):
        with pytest.raises(TypeError, match="a coefficient is an int or a Fraction"):
            MPoly({("a",): c})
        with pytest.raises(TypeError, match="a coefficient is an int or a Fraction"):
            MPoly.const(c)

    def test_rationals_stay_as_they_are(self):
        half = Fraction(1, 2)
        assert MPoly({("a",): half, (): 3}).terms == {("a",): half, (): 3}
        assert type(MPoly.const(3).terms[()]) is int


class TestOneRing:
    def test_exact_rings(self):
        assert set(ExactRing.__subclasses__()) == {Cyclotomic, MPoly}

    def test_placeholder_owns_nothing(self):
        class Empty:
            """A docstring."""

        assert vars(poly.Poly).keys() == vars(Empty).keys()
        assert poly.Poly.__doc__


class TestRationalRoots:
    def test_products_of_linear_factors(self):
        rng = random.Random(15)
        for _ in range(300):
            roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                     for _ in range(rng.randint(1, 4))]
            p = MPoly.const(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
            for r in roots:
                p = p * in_x([-r * r.denominator, r.denominator])
            assert rational_roots(p.coefficients("x")) == sorted(set(roots))

    def test_no_rational_root(self):
        assert rational_roots([-2, 0, 1]) == []
        assert rational_roots([Fraction(1, 2)]) == []

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            rational_roots([])
