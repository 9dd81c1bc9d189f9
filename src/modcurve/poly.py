"""Dense univariate polynomials over an exact coefficient ring.

Coefficients are anything with exact +, -, * and == 0 (Fraction, int,
Cyclotomic and its subclasses such as GaussRational).  Only what the equation
solvers need: ring operations, evaluation and rational root extraction.
Subtraction, the reflected operators, powers and immutability come from
arith.ExactRing, and repr from arith.show_sum, highest power of x first.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import ExactRing, divisors, show_sum


class Poly(ExactRing):
    """Polynomial sum(c[i] * x^i), trailing zero coefficients stripped;
    +, * and == take a Poly, then a scalar (ExactRing's dispatch order)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] = a[i] + c
        return Poly(a)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly([])
        # a constant operand scales, and 1 returns the (immutable) other; the
        # constructor strips the zeros that a ring with zero divisors
        # (Cyclotomic wherever t^d - c factors, as at c = 1) can leave at the top
        if len(o.coeffs) == 1:
            c = o.coeffs[0]
            return self if c == 1 else Poly([a * c for a in self.coeffs])
        if len(self.coeffs) == 1:
            c = self.coeffs[0]
            return o if c == 1 else Poly([c * b for b in o.coeffs])
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        if self.degree < 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __call__(self, value):
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __repr__(self):
        return show_sum((self.coeffs[i], ("x",) * i) for i in range(self.degree, -1, -1))


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial with rational coefficients."""
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    coeffs = [Fraction(c) for c in p.coeffs]
    roots: set[Fraction] = set()
    # factor out x^k
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[k:]
    if len(coeffs) == 1:
        return sorted(roots)
    # clear denominators to integer coefficients
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for num in divisors(a0):
        for den in divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(cand) == 0:
                    roots.add(cand)
    return sorted(roots)
