import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modcurve import poly
from modcurve.arith import GAUSS_I, Cyclotomic
from modcurve.canonical import _as_int
from modcurve.poly import MPoly, rational_roots
from test_arith import RINGS, SCALARS, in_x

MPOLYS = RINGS["MPoly"].values
NAMES = st.sampled_from(["a", "c11", "c22", "c33"])


def subs_by_definition(m: MPoly, name: str, value: MPoly) -> MPoly:
    """Term by term: each name^k becomes value^k."""
    out = MPoly({})
    for key, c in m.terms.items():
        rest = tuple(k for k in key if k != name)
        out = out + MPoly({rest: c}) * value ** key.count(name)
    return out


# the MPoly rules beyond arith.ExactRing's contract, which test_arith's
# TestExactRingLaws checks on every ring
class TestMPoly:
    # sorted as a sequence, the string "c11" would become the monomial ('1', '1', 'c')
    @pytest.mark.parametrize("key", ["c11", ("c11", 1), 5])
    def test_key_is_a_tuple_of_names(self, key):
        with pytest.raises(TypeError, match="tuple of names"):
            MPoly({key: 1})

    def test_keys_equal_up_to_order_add_up(self):
        m = MPoly({("c11", "c22"): 1, ("c22", "c11"): Fraction(1, 2)})
        assert m.terms == {("c11", "c22"): Fraction(3, 2)}
        assert MPoly({("c22", "c11"): 2, ("c11", "c22"): -2}) == 0

    # the canonical-dict results: sorted keys, nonzero int or Fraction coefficients
    @given(MPOLYS, MPOLYS)
    def test_results_are_canonical(self, x, y):
        for r in (x + y, x - y, x * y, -x, x ** 2):
            assert all(list(k) == sorted(k) for k in r.terms)
            assert all(type(c) in (int, Fraction) and c != 0 for c in r.terms.values())
            assert r.terms == MPoly(dict(r.terms)).terms

    # a constant operand takes the scalar product, so the product by
    # MPoly.const(1) is the other operand itself, unless that one is a constant
    @given(MPOLYS)
    def test_product_by_constant_one_is_the_operand(self, x):
        one = MPoly.const(1)
        assert x * one is x
        if x.terms.keys() - {()}:
            assert one * x is x

    @given(MPOLYS, MPOLYS, NAMES, st.one_of(MPOLYS, SCALARS.map(MPoly.const)))
    def test_subs_is_ring_map(self, x, y, name, value):
        def s(p):
            return p.subs(name, value)
        assert s(x + y) == s(x) + s(y)
        assert s(x * y) == s(x) * s(y)
        assert s(MPoly.const(1)) == 1
        assert s(x) == subs_by_definition(x, name, value)
        assert s(x).terms == MPoly(dict(s(x).terms)).terms
        if not any(name in k for k in value.terms):
            assert not any(name in k for k in s(x).terms)

    @given(MPOLYS, NAMES)
    def test_subs_zero_drops_the_name(self, x, name):
        dropped = MPoly({k: c for k, c in x.terms.items() if name not in k})
        assert x.subs(name, MPoly({})) == dropped
        assert x.subs(name, MPoly.const(Fraction(0))) == dropped

    # the root a enters as the elimination puts it in, an integral Fraction as
    # an int: the same polynomial, with the same hash, as evaluating with
    # Fraction arithmetic, and int-valued wherever every coefficient is an int
    @given(MPOLYS, st.integers(-3, 3))
    def test_subs_a_at_an_integral_fraction(self, x, k):
        got = x.subs("a", MPoly.const(_as_int(Fraction(k))))
        ref = {}
        for key, c in x.terms.items():
            rest = tuple(n for n in key if n != "a")
            ref[rest] = ref.get(rest, 0) + Fraction(c) * Fraction(k) ** key.count("a")
        ref = MPoly(ref)
        assert got == ref and got.terms == ref.terms and hash(got) == hash(ref)
        assert got.terms == MPoly(dict(got.terms)).terms
        if all(isinstance(c, int) for c in x.terms.values()):
            assert all(isinstance(c, int) for c in got.terms.values())


# worked examples of arith.ExactRing's rules on polynomials in x, as curve
# builds them; the properties run on every ring in TestExactRingLaws
class TestHash:
    def test_constant_hashes_like_scalar(self):
        assert in_x([3]) == 3
        assert len({in_x([3]), 3}) == 1

    def test_zero(self):
        assert len({in_x([]), in_x([0]), 0}) == 1


class TestEqualityFastPaths:
    def test_eq_scalar_is_definition(self):
        assert in_x([Fraction(2), 0]) == 2 and not (in_x([Fraction(2)]) - 2).terms
        assert in_x([1, 1]) != 1 and (in_x([1, 1]) - 1).terms == {("x",): 1}
        assert in_x([0, 0]) == 0 and not in_x([0, 0]).terms


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
        with pytest.raises(TypeError):  # nor an operand: a is the variable "a"
            MPoly.var("a") + c

    def test_rationals_stay_as_they_are(self):
        half = Fraction(1, 2)
        assert MPoly({("a",): half, (): 3}).terms == {("a",): half, (): 3}
        assert type(MPoly.const(3).terms[()]) is int


class TestOneRing:
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
