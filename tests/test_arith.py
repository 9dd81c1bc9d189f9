import functools
import math
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, strategies as st

from modcurve.arith import (Cyclotomic, ExactRing, GaussRational, GAUSS_I, check_step,
                            divisors, exact_int, factorize, is_prime, mult_n,
                            n3, solve_unit_congruence)
from modcurve.poly import MPoly


class SqrtMinus3(Cyclotomic):
    """Q(sqrt -3) as Z[t]/(t^2 + 3), built the way Q(sqrt D) would be."""

    c = -3


class CubeRoot2(Cyclotomic):
    """Z[t]/(t^3 - 2): d = 3, c = 2."""

    c = 2


SCALARS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))


def in_x(coeffs) -> MPoly:
    """sum(coeffs[i] * x^i) as an MPoly in the one name x."""
    return MPoly({("x",) * i: c for i, c in enumerate(coeffs)})


def retyped(coeffs):
    """The same values with int and integral Fraction swapped."""
    return [Fraction(c) if isinstance(c, int)
            else int(c) if c.denominator == 1 else c for c in coeffs]


def dense(ring, d, coeffs):
    """The element of ring with these coefficients, typed as given: built by
    Cyclotomic's constructor, which GaussRational's own (re, im) replaces."""
    x = object.__new__(ring)
    Cyclotomic.__init__(x, d, coeffs)
    return x


def reduced_product(x, y):
    """Reference product in Z[t]/(t^d - c): the polynomial product of the
    coefficient lists, then t^k -> c * t^(k - d) from the top down."""
    full = (in_x(x.coeffs) * in_x(y.coeffs)).coefficients("x")
    for k in range(len(full) - 1, x.d - 1, -1):
        full[k - x.d] += x.c * full.pop()
    return full + [0] * (x.d - len(full))


def product_by_definition(x: MPoly, y: MPoly) -> MPoly:
    """The schoolbook product of the terms; the constructor sorts each key,
    merges the keys equal up to order and drops the zeros."""
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return MPoly(out)


class Ring(NamedTuple):
    """A RINGS entry: its values, the constant of a scalar, a value with its
    int and integral Fraction coefficients swapped, and a reference product."""

    values: st.SearchStrategy
    const: Callable
    retyped: Callable
    product: Callable


def quotient(ring, d, values=None) -> Ring:
    """Z[t]/(t^d - c) for the class ring."""
    if values is None:
        values = st.lists(SCALARS, min_size=d, max_size=d).map(lambda v: ring(d, v))
    return Ring(values, functools.partial(ring.scalar, d),
                lambda x: dense(ring, d, retyped(x.coeffs)),
                lambda x, y: dense(ring, d, reduced_product(x, y)))


def polys(values) -> Ring:
    return Ring(values, MPoly.const,
                lambda x: MPoly(dict(zip(x.terms, retyped(x.terms.values())))),
                product_by_definition)


# MPoly keys as the elimination draws them: unsorted, with a repeated name,
# and with a among the matrix entries
MONOMIALS = [(), ("a",), ("c11",), ("c11", "c22"), ("c22", "c11"), ("c33",) * 3,
             ("a", "c11"), ("c11", "a"), ("a", "a", "c33")]
QUOTIENTS = [Cyclotomic, GaussRational, SqrtMinus3, CubeRoot2]
# every exact ring, and the rings the tests build on Cyclotomic's rule
RINGS = {
    "Cyclotomic": quotient(Cyclotomic, 8),
    "GaussRational": quotient(GaussRational, 2, st.builds(GaussRational, SCALARS, SCALARS)),
    "SqrtMinus3": quotient(SqrtMinus3, 2),
    "CubeRoot2": quotient(CubeRoot2, 3),
    # MPoly in one name, as curve builds it
    "MPoly-x": polys(st.lists(st.one_of(SCALARS, st.just(0)), max_size=5).map(in_x)),
    "MPoly": polys(st.dictionaries(st.sampled_from(MONOMIALS), SCALARS, max_size=3).map(MPoly)),
}
CYCLO8 = RINGS["Cyclotomic"].values


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


class TestCheckStep:
    @pytest.mark.parametrize("q,n,least", [(8, 1, 1), (8, 8, 1), (12, 4, 5), (3, 3, 3)])
    def test_accepts(self, q, n, least):
        assert check_step(q, n, least) is None

    @pytest.mark.parametrize("q,n,least", [(0, 1, 1), (-4, 2, 1), (4, 1, 5), (1, 1, 2)])
    def test_level_below_least(self, q, n, least):
        with pytest.raises(ValueError, match=f"level q = {q} must be at least {least}"):
            check_step(q, n, least)

    @pytest.mark.parametrize("q,n", [(8, 3), (8, 0), (8, -2), (8, 16)])
    def test_step_not_a_divisor(self, q, n):
        with pytest.raises(ValueError, match=f"n = {n} must divide q = {q}"):
            check_step(q, n)

    def test_level_is_checked_first(self):
        with pytest.raises(ValueError, match="at least 5"):
            check_step(3, 2, 5)


class TestExactInt:
    def test_integral(self):
        assert exact_int(Fraction(12, 3), "count") == 4
        assert type(exact_int(Fraction(4), "count")) is int

    def test_fractional_raises(self):
        with pytest.raises(ArithmeticError, match="non-integral count: 7/2"):
            exact_int(Fraction(7, 2), "count")

    # python -O strips asserts; with them, the first three closed forms below
    # rounded to 85, 10 and 2 and the orbit counts to 0
    OPTIMIZED = """
from fractions import Fraction
from modcurve import arith, cusps, psl

def attempt(call, *args):
    try:
        return str(call(*args))
    except ArithmeticError:
        return "ArithmeticError"

cusps.euler_product = psl.euler_product = lambda q: Fraction(1, 3)
print(attempt(psl.r_n_formula, 8, 8), attempt(cusps.h_formula, 8),
      attempt(cusps.h_n_formula, 8, 1), attempt(cusps.width_distribution, 8, 1))
cusps.euler_product = arith.euler_product
cusps.n3 = lambda p_i, r_i, j: Fraction(1, 7)
print(attempt(cusps.width_distribution, 8, 1))
"""

    def test_fractional_closed_forms_raise_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-O", "-c", self.OPTIMIZED],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["ArithmeticError"] * 5


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


def is_prime_reference(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_reference():
    assert [n for n in range(-5, 20_000) if is_prime(n) != is_prime_reference(n)] == []


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
    def test_n3_boundaries(self):
        assert n3(2, 3, 0) == Fraction(2, 3)
        assert n3(2, 3, 3) == Fraction(2, 3)
        assert n3(2, 3, 1) == Fraction(1, 3)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            n3(2, 3, 4)
        with pytest.raises(ValueError):
            n3(4, 2, 1)  # 4 is not prime

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

    # worked examples of arith.ExactRing's rules in Z[t]/(t^8 - 1); the
    # properties run on every ring in TestExactRingLaws
    def test_constant_hashes_like_scalar(self):
        assert Cyclotomic.scalar(8, 3) == 3
        assert len({Cyclotomic.scalar(8, 3), 3}) == 1

    def test_eq_scalar_is_definition(self):
        t = Cyclotomic.root(8)
        assert t ** 8 == 1 and not (t ** 8 - 1).terms
        assert Cyclotomic(8, [Fraction(3)] + [0] * 7) == 3 == Cyclotomic(8, [3] + [0] * 7)
        assert t != 1 and (t - 1).terms == {0: -1, 1: 1}
        assert t - t == 0 and not (t - t).terms

    def test_scalar_product_is_definition(self):
        x = 1 + Fraction(1, 2) * Cyclotomic.root(8, 7)
        for got in (x * 2, 2 * x, x * Cyclotomic.scalar(8, 2)):
            assert got.terms == {0: 2, 7: 1}
        assert not (x * 0).terms and not (Fraction(0) * x).terms

    def test_product_by_one_is_the_operand(self):
        x = Cyclotomic.root(8) + Fraction(1, 2)
        for one in (1, Fraction(1)):
            assert x * one is x and one * x is x

    def test_equality_across_moduli(self):
        assert len({Cyclotomic.scalar(8, 1), Cyclotomic.scalar(4, 1)}) == 1
        assert Cyclotomic.root(8, 1) != Cyclotomic.root(4, 1)
        assert Cyclotomic.scalar(8, 2) != Cyclotomic.scalar(4, 1)
        assert Cyclotomic.root(8, 1) != Cyclotomic.scalar(4, 1)
        with pytest.raises(ValueError):
            Cyclotomic.scalar(8, 1) + Cyclotomic.scalar(4, 1)

    @given(CYCLO8, st.lists(SCALARS, min_size=4, max_size=4),
           st.sampled_from(["any", "constants", "same constant"]))
    def test_eq_across_moduli_agrees_with_hash(self, x, v, kind):
        if kind != "any":
            v = [v[0], 0, 0, 0]
            x = Cyclotomic.scalar(8, x.coeffs[0])
        if kind == "same constant":
            v[0] = retyped([x.coeffs[0]])[0]
        y = Cyclotomic(4, v)
        both_constant = x == x.coeffs[0] and y == y.coeffs[0]
        assert (x == y) == (y == x) == (both_constant and x.coeffs[0] == y.coeffs[0])
        if x == y:
            assert hash(x) == hash(y)

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
        # a zero imaginary part, int or Fraction, is no term
        half = GaussRational(Fraction(1, 2), Fraction(0))
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert half.terms == {0: Fraction(1, 2)}

    def test_exactness(self):
        z = GaussRational(Fraction(1, 3), Fraction(1, 2))
        assert z * 6 == GaussRational(2, 3)


class TestRingRule:
    def test_roots_of_c(self):
        s = SqrtMinus3.root(2)
        zeta6 = (1 + s) * Fraction(1, 2)
        assert s * s == -3
        assert zeta6 ** 3 == -1
        assert zeta6 ** 2 == zeta6 - 1  # the minimal polynomial x^2 - x + 1
        assert CubeRoot2.root(3) ** 3 == 2
        assert GaussRational.root(2) == GAUSS_I

    @pytest.mark.parametrize("ring", QUOTIENTS, ids=lambda ring: ring.__name__)
    @given(data=st.data())
    def test_product_is_reduced_polynomial_product(self, ring, data):
        x, y = (data.draw(RINGS[ring.__name__].values) for _ in range(2))
        product = x * y
        assert type(product) is ring
        assert list(product.coeffs) == reduced_product(x, y)

    def test_constants_are_equal_across_rings(self):
        fives = [GaussRational(5), SqrtMinus3.scalar(2, 5), CubeRoot2.scalar(3, 5),
                 Cyclotomic.scalar(8, 5), Fraction(5), 5]
        assert all(a == b for a in fives for b in fives)
        assert len(set(fives)) == 1

    def test_same_coefficients_in_two_rings_differ(self):
        roots = [GAUSS_I, Cyclotomic.root(2), SqrtMinus3.root(2)]
        assert [a == b for a in roots for b in roots] == [
            True, False, False, False, True, False, False, False, True]
        assert len(set(roots)) == 3

    @given(data=st.data())
    def test_eq_across_rings_agrees_with_hash(self, data):
        r1, r2 = data.draw(st.permutations(QUOTIENTS))[:2]
        x, y = data.draw(RINGS[r1.__name__].values), data.draw(RINGS[r2.__name__].values)
        if data.draw(st.booleans()):
            x, y = r1.scalar(x.d, x.coeffs[0]), r2.scalar(y.d, x.coeffs[0])
        both_constant = not any(x.coeffs[1:]) and not any(y.coeffs[1:])
        assert (x == y) == (y == x) == (both_constant and x.coeffs[0] == y.coeffs[0])
        if x == y:
            assert hash(x) == hash(y)

    @pytest.mark.parametrize("x,y,message", [
        (GAUSS_I, Cyclotomic.root(2),
         "GaussRational mod t^2 - (-1) vs Cyclotomic mod t^2 - (1)"),
        (SqrtMinus3.root(2), GAUSS_I,
         "SqrtMinus3 mod t^2 - (-3) vs GaussRational mod t^2 - (-1)"),
        (CubeRoot2.root(3), Cyclotomic.root(3),
         "CubeRoot2 mod t^3 - (2) vs Cyclotomic mod t^3 - (1)"),
        (Cyclotomic.root(8), Cyclotomic.root(4),
         "Cyclotomic mod t^8 - (1) vs Cyclotomic mod t^4 - (1)"),
    ])
    def test_mixing_rings_raises(self, x, y, message):
        pattern = "ring mismatch: " + re.escape(message)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match=pattern):
                op(x, y)


def subclass_tree(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclass_tree(sub)


def test_rings_cover_every_exact_ring():
    library = {cls for cls in subclass_tree(ExactRing) if cls.__module__.startswith("modcurve.")}
    assert set(ExactRing.__subclasses__()) == {Cyclotomic, MPoly}
    assert library == {Cyclotomic, GaussRational, MPoly}
    assert library <= {type(ring.const(2)) for ring in RINGS.values()}


# the contract arith.ExactRing states once, checked on every ring that keeps it
@pytest.mark.parametrize("ring", sorted(RINGS))
class TestExactRingLaws:
    @given(data=st.data())
    def test_subtraction_and_reflected_operators(self, ring, data):
        x, y = data.draw(RINGS[ring].values), data.draw(RINGS[ring].values)
        k = data.draw(SCALARS)
        # every ring keeps only nonzero terms, from its dense or dict input on;
        # equal values compare and hash alike
        for v in (x, y, x + y, x - y, -x, x * y, x * k):
            assert 0 not in v.terms.values(), v.terms
        assert x - x == 0 and hash(x - x) == hash(0)
        assert x * 0 == 0 and hash(x * 0) == hash(0)
        assert x - y == x + (-y)
        assert k - x == -(x - k)
        assert k + x == x + k
        assert k * x == x * k

    # the fast equality, zero and hash paths against their definitions, over
    # mixed int and Fraction coefficients
    @given(data=st.data(), same=st.booleans())
    def test_eq_is_zero_difference(self, ring, data, same):
        x = data.draw(RINGS[ring].values)
        y = RINGS[ring].retyped(x) if same else data.draw(RINGS[ring].values)
        assert (x == y) == (not (x - y).terms)
        assert (x == y) == (y == x)
        if x == y:
            assert hash(x) == hash(y)

    @given(data=st.data(), s=SCALARS, same=st.booleans())
    def test_eq_scalar_is_zero_difference(self, ring, data, s, same):
        r = RINGS[ring]
        x = r.retyped(r.const(s)) if same else data.draw(r.values)
        assert (x == s) == (not (x - s).terms)
        assert (x == 0) == (not x.terms)
        if x == s:
            assert hash(x) == hash(s)
        # a constant, however its coefficient is typed, is one set element with its scalar
        for k in (0, 3, Fraction(3), Fraction(1, 2)):
            assert len({r.const(k), r.retyped(r.const(k)), k}) == 1

    # the scalar and constant-operand paths against the reference product
    @given(data=st.data(), s=st.one_of(st.sampled_from([0, 1, Fraction(0), Fraction(1)]), SCALARS))
    def test_constant_product_is_the_reference(self, ring, data, s):
        r = RINGS[ring]
        x = data.draw(r.values)
        expected = r.product(x, r.const(s))
        for c in (s, r.const(s)):
            for got in (x * c, c * x):
                assert got.terms == expected.terms
                assert 0 not in got.terms.values()
        if s == 1:
            assert x * s is x and s * x is x

    @given(data=st.data(), n=st.integers(0, 9))
    def test_power_is_repeated_product(self, ring, data, n):
        x = data.draw(RINGS[ring].values)
        product = 1
        for _ in range(n):
            product = product * x
        assert x ** n == product

    @given(data=st.data())
    def test_negative_power_and_mutation_raise(self, ring, data):
        x = data.draw(RINGS[ring].values)
        with pytest.raises(ValueError):
            x ** -1
        with pytest.raises(AttributeError):
            setattr(x, type(x).__slots__[0], None)


def read_back(printed: str, names: dict):
    """A printed value as Python: ^ a power, and every integer literal that is
    not an exponent a Fraction, so that 1/3 stays exact."""
    code = re.sub(r"(?<!\^)\b(\d+)\b", r"Fraction(\1)", printed).replace("^", "**")
    return eval(code, {"Fraction": Fraction}, names)


@functools.cache
def printed_ring(ring: str) -> tuple:
    """Each ring the printer serves, with its names bound to the ring's
    generators.  Built on first use, so that a broken constructor fails the
    tests that read it, not the collection of this file."""
    a_powers = [(), ("a",), ("a", "a")]
    entries = [(), ("c11",), ("c11", "c22"), ("c33",) * 3, ("c11", "c11", "c22")]
    return {
        "MPoly-x": (RINGS["MPoly-x"].values, {"x": MPoly.var("x")}),
        "Cyclotomic": (CYCLO8, {"t": Cyclotomic.root(8, 1)}),
        "MPoly": (st.dictionaries(st.sampled_from([a + e for a in a_powers for e in entries]),
                                  SCALARS, max_size=6).map(MPoly),
                  {n: MPoly.var(n) for n in ("a", "c11", "c22", "c33")}),
    }[ring]


class TestPrinter:
    @pytest.mark.parametrize("ring", ["Cyclotomic", "MPoly", "MPoly-x"])
    @given(data=st.data())
    def test_printed_text_reads_back_as_the_value(self, ring, data):
        strategy, names = printed_ring(ring)
        x = data.draw(strategy)
        assert read_back(repr(x), names) == x, repr(x)

    # a dict is an MPoly's terms, built into it by the test: by the names
    # other than a, each lowest power first, then the highest power of a first
    @pytest.mark.parametrize("x, printed", [
        (MPoly.const(0), "0"),
        (Cyclotomic.scalar(8, 0), "0"),
        ({}, "0"),
        ({(): 1, ("x",): -1, ("x", "x"): 1}, "1 - x + x^2"),
        ({("a",) * 3: Fraction(1, 2), ("a",): -1}, "1/2*a^3 - a"),
        ({(): 1, ("a", "a"): -2}, "-2*a^2 + 1"),
        (Cyclotomic(8, [0, -1, 0, 0, 0, 0, 0, 1]), "-t + t^7"),
        ({(): -1, ("a",): 1}, "a - 1"),
        ({("c33",) * 4: -1}, "-c33^4"),
        ({(): Fraction(-1, 3), ("c11", "a", "c22"): 2}, "-1/3 + 2*a*c11*c22"),
        ({("c11",): 3, ("a", "c11"): 1, ("a",): -2, ("a", "a"): 1}, "a^2 - 2*a + a*c11 + 3*c11"),
    ])
    def test_fixed_cases(self, x, printed):
        assert repr(MPoly(x) if isinstance(x, dict) else x) == printed


class TestInputRules:
    @pytest.mark.parametrize("call, args, match", [
        (solve_unit_congruence, (1, 0), "^modulus must be >= 1$"),
        (factorize, (0,), "^factorize requires n >= 1$"),
        (n3, (2, 0, 0), "^exponent r must be >= 1$"),
        (Cyclotomic, (4, (1, 2)), "^need d >= 1 and d coefficients, got d = 4 and 2$"),
        (Cyclotomic.scalar, (0, 1), "^need d >= 1, got d = 0$"),
        (factorize, (10**12 + 39,), r"^factorize supports n <= 10\*\*12, got 1000000000039$"),
    ])
    def test_rejects(self, call, args, match):
        with pytest.raises(ValueError, match=match):
            call(*args)
