"""Exact scalar arithmetic kernel.

Everything here is integer or rational and exact: unit congruences (every
modular inverse in the library is Python's pow(x, -1, m)), trial-division
factorization, the multiplicative counting functions

    N(p)  = prod_i (1 + r_i * (p_i - 1)/(p_i + 1))      for p = prod p_i^r_i
    N3(j) = p/(p+1) for j in {0, r},  (p-1)/(p+1) else

which control cusp counts and width distributions, 2x2 matrix products and
adjugates, and the rings Z[t]/(t^d - c) for exact roots of unity and of -1,
whose elements keep only their nonzero terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

Mat = tuple[int, int, int, int]  # (a, b; c, d) as the flat tuple (a, b, c, d)


def solve_unit_congruence(u: int, v: int) -> int:
    """Unique k with 1 <= k < v and k*u = 1 (mod v); 0 for the vacuous v = 1.

    The modulus-1 case, pow's own answer, encodes "no rotation constraint"
    for unbranched points.  Requires gcd(u, v) = 1.
    """
    if v < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(u, v) != 1:
        raise ValueError(f"{u} is not a unit modulo {v}")
    return pow(u, -1, v)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n <= 10**12 as [(p, r), ...] with p increasing.

    Trial division up to sqrt(n); the limit is checked before the loop.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > 10**12:
        raise ValueError(f"factorize supports n <= 10**12, got {n}")
    out: list[tuple[int, int]] = []
    x = n
    p = 2
    while p * p <= x:
        if x % p == 0:
            r = 0
            while x % p == 0:
                x //= p
                r += 1
            out.append((p, r))
        p = 3 if p == 2 else p + 2
    if x > 1:
        out.append((x, 1))
    return out


def check_step(q: int, n: int, least: int = 1) -> None:
    """The one statement of the library's (level, step) argument rule: raise
    ValueError for a level q below least, then for a step n that is not a
    positive divisor of q."""
    if q < least:
        raise ValueError(f"level q = {q} must be at least {least}")
    if n < 1 or q % n:
        raise ValueError(f"n = {n} must divide q = {q}")


def mat_mul2(m1: tuple, m2: tuple) -> tuple:
    """2x2 product over any commutative ring (int, Fraction, MPoly)."""
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def adj2(m: tuple) -> tuple:
    """Adjugate (d, -b; -c, a): the inverse when the determinant is 1."""
    a, b, c, d = m
    return (d, -b, -c, a)


def exact_int(x: Fraction, what: str) -> int:
    """The one statement of the closed forms' integrality rule: int(x), or
    ArithmeticError when x is fractional.  A raise, not an assert, so a
    fractional value is never rounded, under python -O included."""
    if x.denominator != 1:
        raise ArithmeticError(f"non-integral {what}: {x}")
    return int(x)


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, r in factorize(n):
        ds = [d * p**j for d in ds for j in range(r + 1)]
    return sorted(ds)


def euler_product(q: int) -> Fraction:
    """prod(1 - 1/l^2) over the primes l dividing q."""
    squares = [l * l for l, _ in factorize(q)]
    return Fraction(math.prod(s - 1 for s in squares), math.prod(squares))


def mult_n(p: int) -> Fraction:
    """The multiplicative function N(p); N(1) = 1."""
    f = factorize(p)
    return Fraction(math.prod(pi + 1 + ri * (pi - 1) for pi, ri in f),
                    math.prod(pi + 1 for pi, _ in f))


def n3(p_i: int, r_i: int, j: int) -> Fraction:
    """Per-prime factor counting translation orbits of given width."""
    if not is_prime(p_i):
        raise ValueError(f"{p_i} is not prime")
    if r_i < 1:
        raise ValueError("exponent r must be >= 1")
    if not 0 <= j <= r_i:
        raise ValueError(f"j = {j} out of range [0, {r_i}]")
    if j == 0 or j == r_i:
        return Fraction(p_i, p_i + 1)
    return Fraction(p_i - 1, p_i + 1)


def show_sum(terms) -> str:
    """The one printer of the exact rings: (rational coefficient, names) terms
    in print order, a repeated name as a power (c33^2).  Zero terms drop out,
    a coefficient's sign joins the sum, and a unit is not written."""
    text = ""
    for c, names in terms:
        if c == 0:
            continue
        factors = [n if names.count(n) == 1 else f"{n}^{names.count(n)}"
                   for n in dict.fromkeys(names)]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        if c < 0:
            text += " - " if text else "-"
        elif text:
            text += " + "
        text += "*".join(factors)
    return text or "0"


class ExactRing:
    """The exact-ring contract, checked on Cyclotomic (GaussRational too) and
    poly.MPoly by tests/test_arith.py::TestExactRingLaws: no term is zero;
    x == y, or x == s for a scalar s (int, Fraction), exactly when the
    difference has no terms; equal values hash alike, a constant as its
    scalar; x * c and c * x by a scalar or a ring constant are the product,
    and x itself for the scalar 1.  Here: immutability, subtraction, reflected
    operators and powers.  A subclass supplies _coerce (else None), +, unary
    -, *, == and __hash__, each taking its own ring, then a scalar, then
    _coerce; + and * double as reflected operators, bound in its class dict.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__radd__ = cls.__add__
        cls.__rmul__ = cls.__mul__

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, n: int):
        """Power by squaring; negative powers are not defined."""
        if n < 0:
            raise ValueError("negative powers are not defined in an exact ring")
        result, base = self._coerce(1), self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base


class Cyclotomic(ExactRing):
    """Element of Z[t]/(t^d - c), stored as its nonzero terms {power: coefficient}.

    c is a class attribute: 1 here, so t is a d-th root of unity; a subclass
    sets another integer (GaussRational: c = -1 on d = 2, so t = i).  One
    product rule serves every c: t^(d+k) = c*t^k.  Not a field when t^d - c
    factors, but enough to verify identities among such roots.  Immutable;
    scalars (int, Fraction) coerce to constants and scale the terms directly
    in a product, and a product by 1 is the operand.  Its own ring is its
    class and d; each operation drops a coefficient that cancels.  Values of
    two rings are equal only as the same constant; mixing them raises ValueError.
    """

    __slots__ = ("d", "terms")
    c = 1

    def __init__(self, d: int, coeffs):
        coeffs = tuple(coeffs)
        if d < 1 or len(coeffs) != d:
            raise ValueError(f"need d >= 1 and d coefficients, got d = {d} and {len(coeffs)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", {k: a for k, a in enumerate(coeffs) if a})

    # the dense view, t^0 first, computed on each read
    coeffs = property(lambda self: tuple(self.terms.get(k, 0) for k in range(self.d)))

    @classmethod
    def scalar(cls, d: int, c) -> "Cyclotomic":
        if d < 1:
            raise ValueError(f"need d >= 1, got d = {d}")
        return _of(cls, d, {0: c} if c else {})

    @classmethod
    def root(cls, d: int, k: int = 1) -> "Cyclotomic":
        """The basis element t^(k mod d): t^k itself when c = 1."""
        if d < 1:
            raise ValueError(f"need d >= 1, got d = {d}")
        return _of(cls, d, {k % d: 1})

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.d != self.d or type(other) is not type(self):
                raise ValueError("ring mismatch: " + " vs ".join(
                    f"{type(r).__name__} mod t^{r.d} - ({r.c})" for r in (self, other)))
            return other
        if isinstance(other, (int, Fraction)):
            return self.scalar(self.d, other)
        return None

    def __add__(self, other):
        o = other if type(other) is type(self) and other.d == self.d else self._coerce(other)
        if o is None:
            return NotImplemented
        out = self.terms.copy()
        for k, x in o.terms.items():
            if s := out.pop(k, 0) + x:  # a coefficient that cancels stays popped
                out[k] = s
        return _of(type(self), self.d, out)

    def __neg__(self):
        return _of(type(self), self.d, {k: -a for k, a in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self) and other.d == self.d:
            o = other
        elif isinstance(other, (int, Fraction)):
            if other == 1:  # immutable, so the operand itself is the product
                return self
            return _of(type(self), self.d, {k: a * other for k, a in self.terms.items() if other})
        elif (o := self._coerce(other)) is None:
            return NotImplemented
        # a*t^i times x*t^j lands at t^(i+j) while i + j < d; past the top,
        # the wrap t^(d+k) = c*t^k puts c*a*x at t^k
        d, c = self.d, self.c
        out = {}
        for i, a in self.terms.items():
            for j, x in o.terms.items():
                k, ax = i + j, a * x
                if k >= d:
                    k, ax = k - d, c * ax
                if s := out.pop(k, 0) + ax:
                    out[k] = s
        return _of(type(self), d, out)

    def __eq__(self, other):
        if type(other) is type(self) and self.d == other.d:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        # only constants are equal across rings
        return other.terms.keys() <= {0} and self == other.terms.get(0, 0)

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        return hash(self.terms.get(0, 0) if self.terms.keys() <= {0} else (self.d, self.coeffs))

    def __repr__(self):
        return show_sum((a, ("t",) * i) for i, a in enumerate(self.coeffs))


_set_d, _set_terms = Cyclotomic.d.__set__, Cyclotomic.terms.__set__


def _of(cls, d: int, terms: dict) -> Cyclotomic:
    """Wrap a zero-free terms dict, powers in range(d), as cls, unvalidated."""
    out = object.__new__(cls)
    _set_d(out, d)
    _set_terms(out, terms)
    return out


class GaussRational(Cyclotomic):
    """Exact re + im*i with rational re, im: Z[t]/(t^2 + 1) with t = i, the
    ring for identities that need an actual square root of -1 (at c = 1,
    t^(d/2) and -1 stay distinct).  All arithmetic is Cyclotomic's."""

    c = -1

    def __init__(self, re=0, im=0):
        super().__init__(2, (Fraction(re), Fraction(im)))


GAUSS_I = GaussRational(0, 1)
