"""From rotation numbers of the translation automorphism to defining
equations y^p = prod (x - a_i)^(m_i).

For a cusp x/z (coprime) and the translation-by-n automorphism of the
level-q curve (p = q/n, q >= 5):

  * the orbit length is p / gcd(p, z);
  * the local rotation exponent is k = w^2 mod gcd(p, z), where w is any
    Bezout cofactor x*w - y*z = 1 (w is determined mod z, and gcd(p, z)
    divides z, so the choice does not matter);
  * the branch exponent m is the unique 1 <= m < p with gcd(p, m) equal to
    the orbit length and k * (m / gcd(p, m)) = 1 mod (p / gcd(p, m)).

Branched orbits are exactly those of size < p, and the exponent sum over
them is divisible by p; build_equation checks this.  One normalization path
serves every level: it sorts the terms once and sends three of them to
infinity, 0 and 1, and the leftover branch values stay symbolic.  At level 5
it runs out of terms after infinity and 0, so the two-orbit case needs no
rule of its own.  check_branch_data states the branch data rules once, for
the equation and curve.SemiHyperellipticCurve both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .arith import check_step, solve_unit_congruence
from .cusps import (ClassPair, Cusp, check_cusp, class_to_cusp, complete_to_unimodular,
                    cusp_str, tau_orbits)
from .genus import genus_qn


class RotationNumber(NamedTuple):
    """Orbit length and local rotation exponent of an automorphism at a point.

    orbit_len is the least n with tau^n fixing the point; k in [0, p/n) is
    the root-of-unity exponent of tau^orbit_len in a centered chart.  The
    group divisor n is deliberately named orbit_len here to keep it apart
    from the translation step.
    """

    orbit_len: int
    k: int


def rotation_number(q: int, n: int, c: Cusp) -> RotationNumber:
    """Rotation number of translation-by-n at a cusp of the level-q curve."""
    check_step(q, n, 5)
    x, z = check_cusp(c)
    p = q // n
    g = math.gcd(p, z)  # gcd(p, 0) = p
    if g == 1:
        return RotationNumber(p, 0)
    w = complete_to_unimodular(x, z)[3]  # gamma = (x, y; z, w) in SL(2, Z)
    return RotationNumber(p // g, (w * w) % g)


def rotation_of_class(q: int, n: int, cls: ClassPair) -> RotationNumber:
    return rotation_number(q, n, class_to_cusp(q, cls))


def exponent_from_rotation(p: int, rot: RotationNumber) -> int:
    """The unique exponent 1 <= m < p with gcd(p, m) = orbit_len and
    k * (m / orbit_len) = 1 mod (p / orbit_len)."""
    n_orb, k = rot
    if n_orb < 1 or p % n_orb:
        raise ValueError(f"orbit length {n_orb} must divide p = {p}")
    if n_orb == p:
        raise ValueError("unbranched orbit carries no exponent")
    big_p = p // n_orb
    if math.gcd(k, big_p) != 1:
        raise ValueError(f"rotation exponent {k} is not a unit mod {big_p}")
    m = n_orb * solve_unit_congruence(k, big_p)
    if not (1 <= m < p and math.gcd(p, m) == n_orb):
        raise RuntimeError(f"exponent {m} does not fit orbit length {n_orb} mod {p}")
    return m


def rotation_from_exponent(p: int, m: int) -> RotationNumber:
    """Rotation number of the deck transformation at a branch point of
    exponent m on y^p = ...: orbit length gcd(p, m), exponent the inverse
    of m/gcd(p, m) modulo p/gcd(p, m)."""
    check_branch_data(p, [(None, m)])
    g = math.gcd(p, m)
    return RotationNumber(g, solve_unit_congruence(m // g, p // g))


Label = Union[None, str, Fraction]


class BranchTerm(NamedTuple):
    """One branch orbit of the quotient map with its equation exponent."""

    exponent: int
    label: Label = None
    orbit: Optional[tuple[ClassPair, ...]] = None
    rotation: Optional[RotationNumber] = None


def check_branch_data(p: int, branches: Sequence[tuple[object, int]]) -> None:
    """Raise ValueError unless p >= 2, every exponent lies in [1, p) and the
    values are pairwise distinct; a value of None is not yet placed."""
    if p < 2:
        raise ValueError("degree p must be >= 2")
    for _, m in branches:
        if not 1 <= m < p:
            raise ValueError(f"finite exponents must lie in [1, p), got {m}")
    values = [v for v, _ in branches if v is not None]
    if len(set(values)) != len(values):
        raise ValueError("branch values must be pairwise distinct")


class _EquationFields(NamedTuple):
    p: int
    terms: tuple[BranchTerm, ...]


class SemiHyperellipticEquation(_EquationFields):
    """y^p = prod over terms of (x - label)^exponent.  The exponent over
    infinity is derived, as for the curve: it closes the sum to 0 mod p, and
    it is positive when an orbit has been sent to infinity."""

    __slots__ = ()

    def __new__(cls, p: int, terms: tuple[BranchTerm, ...]):
        check_branch_data(p, [(t.label, t.exponent) for t in terms])
        return super().__new__(cls, p, terms)

    @property
    def inf_exponent(self) -> int:
        return -sum(t.exponent for t in self.terms) % self.p

    @property
    def exponent_multiset(self) -> tuple[int, ...]:
        ms = [t.exponent for t in self.terms]
        if self.inf_exponent:
            ms.append(self.inf_exponent)
        return tuple(sorted(ms))


def build_equation(q: int, n: int) -> SemiHyperellipticEquation:
    """Equation data for the level-q curve from the translation-by-n
    quotient: one term per branched orbit (orbit size < p), exponents from
    the rotation numbers.  Requires q >= 5 and quotient genus zero."""
    check_step(q, n, 5)
    p = q // n
    if p < 2:
        raise ValueError("the quotient must have degree >= 2 (n < q)")
    g = genus_qn(q, n)
    if g != 0:
        raise ValueError(f"quotient genus is {g}, not zero; no cyclic-cover "
                         f"equation of the projective line exists")
    terms = []
    for orbit in tau_orbits(q, n):
        if len(orbit) >= p:
            continue
        rots = {rotation_of_class(q, n, cls) for cls in orbit}
        rot = rots.pop()
        if rots or rot.orbit_len != len(orbit):
            raise RuntimeError("rotation number must be constant on an orbit")
        m = exponent_from_rotation(p, rot)
        terms.append(BranchTerm(m, f"a{len(terms) + 1}", orbit, rot))
    eq = SemiHyperellipticEquation(p, tuple(terms))
    if eq.inf_exponent:
        raise RuntimeError(f"branched exponents sum to {-eq.inf_exponent % p} mod {p}, not 0")
    return eq


def rotation_table(q: int, eq: SemiHyperellipticEquation) -> list[tuple[str, int, int, int]]:
    """Rows (cusp, orbit size, k, m) for the branched orbits of
    eq = build_equation(q, n), in (size, representative) order."""
    return [(cusp_str(q, t.orbit[0]), t.rotation.orbit_len, t.rotation.k, t.exponent)
            for t in eq.terms]


CONVENTIONS = ("gcd", "ascending", "minimal")


def normalize_with_convention(eq: SemiHyperellipticEquation,
                              convention: str = "gcd") -> SemiHyperellipticEquation:
    """Send one branch orbit to infinity, one to x = 0 and one to x = 1 by a
    named convention; leftover terms get symbolic labels.

    The terms are sorted once by (exponent, orbit).  Infinity takes the last
    term, or under "minimal" with three or more terms the first.  Zero takes
    the first remaining term, or under "gcd" the first with the largest
    gcd(p, m).  x = 1 takes the next term, if one is left, and the rest keep
    their order.  No choice is canonical; different presentations in the
    literature use different ones, so the convention stays caller-selectable.
    With only two branch orbits (level 5) infinity and zero use them up: the
    larger exponent goes to infinity and the other to 0.  The input must be
    raw: an orbit already at infinity would be lost.
    """
    if eq.inf_exponent:
        raise ValueError("equation already sends an orbit to infinity; normalize the raw equation")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")
    if len(eq.terms) < 2:
        raise ValueError("normalization conventions need at least 2 branch orbits")
    rest = sorted(eq.terms, key=lambda t: (t.exponent, t.orbit or ()))
    rest.pop(0 if convention == "minimal" and len(rest) > 2 else -1)  # to infinity
    at = 0
    if convention == "gcd":  # max keeps the first of equal gcds
        at = max(range(len(rest)), key=lambda i: math.gcd(eq.p, rest[i].exponent))
    terms = [rest.pop(at)._replace(label=Fraction(0))]
    if rest:
        terms.append(rest.pop(0)._replace(label=Fraction(1)))
    letter = {9: "p", 10: "q", 12: "r"}.get(eq.p, "a")
    for i, t in enumerate(rest):
        label = "a" if (len(rest) == 1 and letter == "a") else f"{letter}{i + 1}"
        terms.append(t._replace(label=label))
    return SemiHyperellipticEquation(eq.p, tuple(terms))


def substitute_label(eq: SemiHyperellipticEquation, label: str,
                     value: Fraction) -> SemiHyperellipticEquation:
    """Replace a symbolic branch label by an exact value."""
    if not any(t.label == label for t in eq.terms):
        raise ValueError(f"no term labeled {label!r}")
    return SemiHyperellipticEquation(eq.p, tuple(
        t._replace(label=value) if t.label == label else t for t in eq.terms))


def _factor_str(label: Label, m: int) -> str:
    if isinstance(label, Fraction):
        if label == 0:
            base = "x"
        elif label < 0:
            base = f"(x+{-label})"
        else:
            base = f"(x-{label})"
    else:
        base = f"(x-{label})"
    return base if m == 1 else f"{base}^{m}"


def equation_string(eq: SemiHyperellipticEquation) -> str:
    """Render y^p = product of factors, in label-assignment order (x first,
    then (x-1), then the symbolic constants); unit exponents are omitted
    and the infinity orbit does not appear."""
    if not eq.terms:
        return f"y^{eq.p} = 1"
    factors = [_factor_str(t.label, t.exponent) for t in eq.terms]
    return f"y^{eq.p} = " + "*".join(factors)


def undetermined_labels(eq: SemiHyperellipticEquation) -> list[str]:
    return [t.label for t in eq.terms if isinstance(t.label, str)]
