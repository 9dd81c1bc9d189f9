"""The one polynomial ring: MPoly, polynomials over Q in named variables,
and the rational roots of a polynomial in one variable.

Terms map sorted tuples of names, a repeated name a power, to nonzero int or
Fraction coefficients; any other coefficient, a float included, is a
TypeError.  The level-8 elimination runs in the matrix entries with a as one
more name, and the branch-constant solver in the one symbolic branch value.
Zero and equality tests compare the term dicts.  Subtraction, the reflected
operators, powers and immutability come from arith.ExactRing, and repr from
arith.show_sum.  Scalar rules: a product by 1 is the (immutable) operand
itself; any other int or Fraction, or a constant MPoly, scales each
coefficient directly, keeping the other operand's sorted keys.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import ExactRing, divisors, show_sum


class Poly:
    """Empty, kept only for perfbench/child.py's traced class list (ROADMAP item 15)."""


def _rational(c):
    """c itself if it is an int or a Fraction, else TypeError: Fraction(0.1) is not 1/10."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"a coefficient is an int or a Fraction, got {c!r}")
    return c


class MPoly(ExactRing):
    """Polynomial over Q in named variables.

    Printed by the names other than a, then highest power of a first.
    +, unary -, * and == are defined here, in ExactRing's dispatch order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {}
        for key, c in terms.items():
            if not (isinstance(key, tuple) and all(isinstance(v, str) for v in key)):
                raise TypeError(f"a monomial is a tuple of names, got {key!r}")
            c, key = _rational(c), tuple(sorted(key))
            clean[key] = clean[key] + c if key in clean else c
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c})

    @classmethod
    def _canonical(cls, terms: dict) -> "MPoly":
        """Wrap terms that are already canonical: sorted keys, no zero coefficient."""
        out = object.__new__(cls)
        _set_terms(out, terms)
        return out

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls._canonical({(name,): 1})

    @classmethod
    def const(cls, value) -> "MPoly":
        value = _rational(value)
        return cls._canonical({(): value} if value else {})

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly._canonical({(): other} if other else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in o.terms.items():
            if s := out.pop(key, 0) + c:
                out[key] = s
        return MPoly._canonical(out)

    def __neg__(self):
        return MPoly._canonical({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MPoly):
            o = other
        elif isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return MPoly._canonical({k: c * other for k, c in self.terms.items()}
                                    if other else {})
        elif (o := self._coerce(other)) is None:
            return NotImplemented
        if len(o.terms) == 1 and () in o.terms:  # a constant scales the other's sorted keys
            return self * o.terms[()]
        if len(self.terms) == 1 and () in self.terms:
            return o * self.terms[()]
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in o.terms.items():
                key = tuple(sorted(k1 + k2))
                if s := out.pop(key, 0) + c1 * c2:
                    out[key] = s
        return MPoly._canonical(out)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == {(): other} if other else not self.terms
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def degree(self, name: str) -> int:
        """The highest power of name, -1 for the zero polynomial."""
        return max((key.count(name) for key in self.terms), default=-1)

    def coefficients(self, name: str) -> list:
        """The coefficients of a polynomial in name alone, lowest power first."""
        out = [0] * (self.degree(name) + 1)
        for key, c in self.terms.items():
            if key.count(name) != len(key):
                raise ValueError(f"{self!r} holds a name other than {name}")
            out[len(key)] = c
        return out

    def subs(self, name: str, value: "MPoly") -> "MPoly":
        """Substitute value for the variable name (a ring map fixing Q)."""
        if not (held := [key for key in self.terms if name in key]):
            return self
        out = MPoly._canonical({k: c for k, c in self.terms.items() if name not in k})
        if value.terms:  # a zero value drops every term that holds name
            for key in held:
                rest = tuple(k for k in key if k != name)
                out = out + MPoly._canonical({rest: self.terms[key]}) * value ** key.count(name)
        return out

    def __repr__(self):  # by the other names, then the highest power of a first
        order = sorted(self.terms, key=lambda k: ([n for n in k if n != "a"], -k.count("a")))
        return show_sum([(self.terms[k], k) for k in order])


_set_terms = MPoly.terms.__set__


def rational_roots(coeffs: list) -> list[Fraction]:
    """All rational roots of sum(coeffs[i] * x^i), with rational coefficients
    lowest power first and the last one nonzero."""
    if not coeffs or coeffs[-1] == 0:  # [] is the zero polynomial, which has every root
        raise ValueError(f"coefficients {coeffs} do not end in a nonzero one")
    k = next(i for i, c in enumerate(coeffs) if c)  # factor out x^k
    roots = {Fraction(0)} if k else set()
    coeffs = [Fraction(c) for c in coeffs[k:]]
    if len(coeffs) == 1:
        return sorted(roots)
    # clear denominators to integer coefficients
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for num in divisors(a0):
        for den in divisors(an):
            for p in (num, -num):  # den^n * f(p/den), in ints
                if sum(c * p ** i * den ** (len(ints) - 1 - i) for i, c in enumerate(ints)) == 0:
                    roots.add(Fraction(p, den))
    return sorted(roots)
