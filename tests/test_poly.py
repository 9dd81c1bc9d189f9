from fractions import Fraction

from hypothesis import given, strategies as st

from modcurve.arith import Cyclotomic
from modcurve.poly import Poly

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
