"""Dense univariate polynomials over an exact coefficient ring.

Coefficients are anything with exact +, -, * and == 0 (Fraction, int,
Cyclotomic).  Only what the equation solvers need: ring operations,
evaluation, exact division and rational root extraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import divisors


class Poly:
    """Polynomial sum(c[i] * x^i), trailing zero coefficients stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

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

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly([])
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((other,) if other else ())
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if self.degree < 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __call__(self, value):
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def divexact(self, other: "Poly") -> "Poly":
        """Exact quotient self / other; raises if the division leaves a remainder.

        Requires an invertible (Fraction) leading coefficient in `other`.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        lead = Fraction(div[-1]) if isinstance(div[-1], int) else div[-1]
        out = [0] * max(len(rem) - len(div) + 1, 0)
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(div) - 1] / lead
            out[i] = c
            if c != 0:
                for j, d in enumerate(div):
                    rem[i + j] = rem[i + j] - c * d
        if any(c != 0 for c in rem):
            raise ValueError("division is not exact")
        return Poly(out)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


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
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for num in divisors(a0):
        for den in divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(cand) == 0:
                    roots.add(cand)
    return sorted(roots)
