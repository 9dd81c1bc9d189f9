"""Cyclic covers y^p = prod (x - a_i)^(m_i) of the projective line as
geometric objects.

Local data at the added points comes from one chart of the
compactification, the same over every special fiber: with m the exponent
m_i over a branch value a_i and the exponent sum over infinity, the fiber
has n = gcd(p, m) points of ramification index e = p/n, and in a local
parameter t the coordinate x - a_i (1/x over infinity) vanishes to order
e, y to order s * m/n and dx to order s * e - 1, where the sign s is +1
over a branch value and -1 over infinity.  Branch values may stay symbolic
(strings); only multiplicities enter the order bookkeeping.  The record
keeps the branch data rules of equation.check_branch_data.

The x-line is handled homogeneously: a value x is the pair (x : 1) and
infinity is (1 : 0), so fractional-linear maps and the branch-constant
conditions need no case for infinity.

The deck transformation is (x, y) -> (x, zeta_p * y).  A fractional-linear
map T of the x-line lifts to an automorphism commuting with it exactly when
some unit s mod p matches multiplicities, m(T(b)) = s * m(b) for every
branch point b; over a genus-zero base that twist condition is sufficient,
and it is what the branch-constant solver enumerates.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .arith import adj2, mat_mul2
from .equation import (RotationNumber, SemiHyperellipticEquation, check_branch_data,
                       rotation_from_exponent)
from .genus import hurwitz_deficiency
from .poly import Poly, rational_roots


class _Infinity:
    """The point at infinity of the projective x-line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

BranchValue = Union[Fraction, str, complex]


class _CurveFields(NamedTuple):
    p: int
    branches: tuple[tuple[BranchValue, int], ...]


class SemiHyperellipticCurve(_CurveFields):
    """Degree p with finite branch data ((value, exponent), ...).

    Values are exact rationals, symbolic labels (str), or, for curves that
    only ever get evaluated numerically, complex numbers.
    """

    __slots__ = ()

    def __new__(cls, p: int, branches: tuple[tuple[BranchValue, int], ...]):
        check_branch_data(p, branches)
        return super().__new__(cls, p, branches)

    @classmethod
    def from_equation(cls, eq: SemiHyperellipticEquation) -> "SemiHyperellipticCurve":
        return cls(p=eq.p, branches=tuple((t.label, t.exponent) for t in eq.terms))

    @property
    def m_total(self) -> int:
        return sum(m for _, m in self.branches)

    @property
    def inf_exponent(self) -> int:
        return (-self.m_total) % self.p

    def branch_map(self) -> dict:
        """Branch point -> exponent, infinity included when it is branched."""
        out = dict(self.branches)
        if self.inf_exponent:
            out[INF] = self.inf_exponent
        return out


class BranchPoint(NamedTuple):
    index: int
    sheet: int  # 1-based, up to gcd(p, m_i)


class InfinityPoint(NamedTuple):
    sheet: int  # 1-based, up to gcd(p, m)


CurvePoint = Union[BranchPoint, InfinityPoint]


def _chart(c: SemiHyperellipticCurve, i: int) -> tuple[int, int, int, int]:
    """(points n, ramification index e, order v of y up to sign, sign s)
    over the i-th special fiber; i = len(c.branches) is infinity."""
    s = -1 if i == len(c.branches) else 1
    m = c.m_total if s < 0 else c.branches[i][1]
    n = math.gcd(c.p, m)
    return n, c.p // n, m // n, s


def _fiber(c: SemiHyperellipticCurve, pt) -> int:
    """Index of the special fiber holding an added point."""
    if isinstance(pt, BranchPoint):
        if not 0 <= pt.index < len(c.branches):
            raise ValueError(f"branch index {pt.index} out of range")
        return pt.index
    if isinstance(pt, InfinityPoint):
        return len(c.branches)
    raise TypeError(f"unsupported point {pt!r}")


def ramification_profile(c: SemiHyperellipticCurve) -> list[tuple[object, int, int]]:
    """Per-fiber data (value, number of points, ramification index), the
    infinity fiber last.  Each fiber satisfies points * index = p."""
    values = [v for v, _ in c.branches] + [INF]
    return [(v, *_chart(c, i)[:2]) for i, v in enumerate(values)]


def curve_genus(c: SemiHyperellipticCurve) -> int:
    """Genus from the ramification profile by Riemann-Hurwitz over the line:
    a fiber of index e > 1 is a branch point of order e of the degree-p map."""
    total = hurwitz_deficiency(c.p, 0, [e for _, _, e in ramification_profile(c) if e > 1])
    if total % 2:
        raise ArithmeticError("ramification does not close to an even number")
    return total // 2 + 1


class Monomial(NamedTuple):
    """f = prod (x - a_i)^alpha_i * y^(-gamma), optionally times dx."""

    alphas: tuple[int, ...]
    gamma: int
    dx: bool = True


def differential_order(c: SemiHyperellipticCurve, mono: Monomial,
                       pt: CurvePoint) -> int:
    """Vanishing order of the monomial at a point, from the chart data."""
    if len(mono.alphas) != len(c.branches):
        raise ValueError("one exponent per branch value is required")
    i = _fiber(c, pt)
    _, e, v, s = _chart(c, i)
    # the x-factors have exponent alpha_i at a branch fiber, their sum at infinity
    a = mono.alphas[i] if s > 0 else sum(mono.alphas)
    return s * (e * a - mono.gamma * v) + (s * e - 1 if mono.dx else 0)


def order_vector(c: SemiHyperellipticCurve, mono: Monomial) -> tuple[int, ...]:
    """Orders at one point of every special fiber, branch fibers first."""
    pts = [BranchPoint(i, 1) for i in range(len(c.branches))] + [InfinityPoint(1)]
    return tuple(differential_order(c, mono, pt) for pt in pts)


def holomorphic_basis(c: SemiHyperellipticCurve) -> list[Monomial]:
    """A basis of holomorphic differentials made of monomials
    prod (x - a_i)^alpha_i / y^gamma * dx.

    Differentials with distinct gamma lie in distinct eigenspaces of the
    deck transformation, hence are independent; within one gamma the chosen
    monomials have distinct degrees in x.  Fails loudly if the count does
    not come out to the genus.
    """
    g = curve_genus(c)
    if g < 1:
        raise ValueError("positive genus required")
    charts = [_chart(c, i) for i in range(len(c.branches) + 1)]
    basis: list[Monomial] = []
    for gamma in range(c.p):
        # s (e A - gamma v) + s e - 1 >= 0 bounds the exponent A from below
        # at a branch fiber (s = 1) and the exponent sum from above at infinity
        *lows, upper = [-s * ((s * (e - gamma * v) - 1) // e) for _, e, v, s in charts]
        lows = [max(0, lo) for lo in lows]
        slack = upper - sum(lows)
        if slack < 0:
            continue
        # raise the factor of the first branch value that is not pinned
        raise_at = next((i for i, lo in enumerate(lows) if lo == 0), 0)
        for j in range(slack, -1, -1):
            alphas = list(lows)
            alphas[raise_at] += j
            basis.append(Monomial(tuple(alphas), gamma))
    if len(basis) != g:
        raise RuntimeError(f"basis search found {len(basis)} differentials; "
                           f"genus is {g}")
    if not all(min(order_vector(c, mono)) >= 0 for mono in basis):
        raise RuntimeError("basis search found a differential with a pole")
    return basis


def rotation_at_branch(c: SemiHyperellipticCurve, i: int) -> RotationNumber:
    """Rotation number of the deck transformation at the i-th branch fiber."""
    return rotation_from_exponent(c.p, c.branches[_fiber(c, BranchPoint(i, 1))][1])


# ---------------------------------------------------------------------------
# fractional-linear maps of the x-line and lifts to the cover
# ---------------------------------------------------------------------------

class _MoebiusFields(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


class MoebiusMap(_MoebiusFields):
    """x -> (a x + b) / (c x + d) with exact rational (int or Fraction)
    entries; images are exact too."""

    __slots__ = ()

    def __new__(cls, a: Fraction, b: Fraction, c: Fraction, d: Fraction):
        if a * d - b * c == 0:
            raise ValueError("Moebius map needs nonzero determinant")
        return super().__new__(cls, a, b, c, d)

    def apply(self, v):
        x, w = (1, 0) if v is INF else (Fraction(v), 1)
        x, w = self.a * x + self.b * w, self.c * x + self.d * w
        return INF if w == 0 else Fraction(x, w)


class LiftCertificate(NamedTuple):
    """Witness that a base map lifts to the cover: twist unit s with
    m(T(b)) = s * m(b) mod p over every branch point, plus the induced
    branch permutation."""

    twist: int
    twists: tuple[int, ...]
    permutation: tuple[tuple[object, object], ...]


def _twists(p: int, pairs: list[tuple[int, int]]) -> Iterator[int]:
    """The units s mod p, ascending, with m' = s * m mod p for every exponent
    pair (m, m') = (m(b), m(T(b))): the lift condition of the module docstring."""
    return (s for s in range(1, p)
            if math.gcd(s, p) == 1 and all(m2 % p == s * m1 % p for m1, m2 in pairs))


def moebius_lift_check(c: SemiHyperellipticCurve,
                       t: MoebiusMap) -> Optional[LiftCertificate]:
    """Certificate that t lifts to an automorphism of the cover commuting
    with the deck transformation, or None (also when t fails to permute the
    branch points)."""
    bmap = c.branch_map()
    for v in bmap:
        if not (v is INF or isinstance(v, (int, Fraction))):
            raise TypeError("lift checks need exact branch values")
    images = {}
    for v in bmap:
        w = t.apply(v)
        if w not in bmap:
            return None
        images[v] = w
    if set(images.values()) != set(bmap):
        return None
    twists = tuple(_twists(c.p, [(bmap[v], bmap[w]) for v, w in images.items()]))
    if not twists:
        return None
    return LiftCertificate(
        twist=twists[0], twists=twists,
        permutation=tuple(sorted(images.items(), key=repr)))


def _value_poly(v, sym: str) -> tuple[Poly, Poly]:
    """The point (x : w) of the x-line, with entries polynomial in sym."""
    if v is INF:
        return Poly.const(1), Poly.const(0)
    if isinstance(v, str):
        if v != sym:
            raise ValueError(f"unexpected symbol {v!r}")
        return Poly.x(), Poly.const(1)
    return Poly.const(Fraction(v)), Poly.const(1)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _to_zero_one_inf(z1, z2, z3) -> tuple:
    """2x2 polynomial matrix of z -> [det(z, z1) det(z2, z3) : det(z, z3) det(z2, z1)],
    the map sending (z1, z2, z3) to (0, 1, oo)."""
    d23, d21 = _det(z2, z3), _det(z2, z1)
    return (d23 * z1[1], -d23 * z1[0], d21 * z3[1], -d21 * z3[0])


def _pair_condition(t_mat, u, v) -> Poly:
    """Polynomial condition (in the symbolic constant) for T(u) = v."""
    t00, t01, t10, t11 = t_mat
    return _det((t00 * u[0] + t01 * u[1], t10 * u[0] + t11 * u[1]), v)


def solve_branch_constant(c: SemiHyperellipticCurve,
                          demand: tuple) -> list[Fraction]:
    """All exact values of the single symbolic branch constant for which some
    lifted automorphism swaps the two demanded branch points.

    Enumerates branch permutations compatible with a twist unit, pins the
    base map by three point images, turns the leftover images into
    polynomial conditions on the constant, and keeps the rational roots
    that survive an exact certificate re-check.  Degree of the conditions
    is guarded at 4.
    """
    symbols = [v for v, _ in c.branches if isinstance(v, str)]
    if len(symbols) != 1:
        raise ValueError("exactly one symbolic branch value is required")
    sym = symbols[0]
    bmap = c.branch_map()
    points = list(bmap)
    exps = [bmap[v] for v in points]
    if len(points) < 3:
        raise ValueError("need at least three branch points to pin a base map")
    u, v = demand
    if u not in bmap or v not in bmap or u == v:
        raise ValueError("demand must name two distinct branch points")
    iu, iv = points.index(u), points.index(v)
    candidates = [perm for perm in permutations(range(len(points)))
                  if perm[iu] == iv and perm[iv] == iu
                  and any(_twists(c.p, [(exps[i], exps[j]) for i, j in enumerate(perm)]))]
    if not candidates:
        raise ValueError("no branch permutation matches the demanded swap")

    solutions: set[Fraction] = set()
    for perm in candidates:
        src = [_value_poly(points[i], sym) for i in range(len(points))]
        dst = [_value_poly(points[perm[i]], sym) for i in range(len(points))]
        m_src = _to_zero_one_inf(*src[:3])
        m_dst = _to_zero_one_inf(*dst[:3])
        t_mat = mat_mul2(adj2(m_dst), m_src)
        conditions = []
        for i in range(3, len(points)):
            cond = _pair_condition(t_mat, src[i], dst[i])
            if not cond.is_zero():
                conditions.append(cond)
        if not conditions:
            continue  # the demand does not constrain the constant
        roots = None
        for cond in conditions:
            if cond.degree > 4:
                raise RuntimeError(f"condition degree {cond.degree} exceeds guard")
            rr = set(rational_roots(cond))
            roots = rr if roots is None else roots & rr
        for root in roots or ():
            try:  # the record rejects a root on another branch value
                solved = SemiHyperellipticCurve(
                    c.p, tuple((root if isinstance(w, str) else w, m)
                               for w, m in c.branches))
            except ValueError:
                continue
            # invertible: det T is a product of determinants of distinct points
            t_exact = MoebiusMap(*(e(root) for e in t_mat))
            if moebius_lift_check(solved, t_exact) is not None:
                solutions.add(root)
    return sorted(solutions)


# ---------------------------------------------------------------------------
# numeric verification of explicit isomorphisms
# ---------------------------------------------------------------------------

def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _rhs(branches: list[tuple[complex, int]], x: complex) -> complex:
    out = complex(1)
    for v, m in branches:
        out *= (x - v) ** m
    return out


def verify_isomorphism_numeric(c1: SemiHyperellipticCurve,
                               c2: SemiHyperellipticCurve,
                               forward: Callable,
                               inverse: Optional[Callable] = None,
                               samples: int = 100,
                               tol: float = 1e-9,
                               seed: int = 0) -> dict:
    """Push sampled points of c1 through the map and report the worst
    relative failure of c2's equation (and of the round trip, when an
    inverse is supplied).  Sampling avoids a 1e-3 neighborhood of the
    branch values; the generator is seeded for reproducibility.  Branch
    values and the p-th roots of unity are converted once per call."""
    if samples < 1:
        raise ValueError(f"samples = {samples} must be at least 1")
    rng = random.Random(seed)
    for v, _ in c1.branches + c2.branches:
        if isinstance(v, str):
            raise TypeError(f"symbolic branch value {v!r} cannot be evaluated")
    b1, b2 = ([(complex(v), m) for v, m in c.branches] for c in (c1, c2))
    turns = [cmath.exp(2j * cmath.pi * j / c1.p) for j in range(c1.p)]
    max_res = 0.0
    max_rt = 0.0 if inverse is not None else None
    count = 0
    attempts = 0
    while count < samples:
        attempts += 1
        if attempts > 1000 * samples:
            raise RuntimeError("sampling keeps hitting excluded regions")
        x = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if any(abs(x - b) < 1e-3 for b, _ in b1):
            continue
        y0 = _rhs(b1, x) ** (1.0 / c1.p)
        for turn in turns:
            if count >= samples:
                break
            y = y0 * turn
            big_x, big_y = forward(x, y)
            res = _rel(big_y ** c2.p, _rhs(b2, big_x))
            max_res = max(max_res, res)
            if inverse is not None:
                x_back, y_back = inverse(big_x, big_y)
                rt = max(_rel(x_back, x), _rel(y_back, y))
                max_rt = max(max_rt, rt)
            count += 1
    return {
        "samples": count,
        "max_residual": max_res,
        "max_roundtrip": max_rt,
        "tol": tol,
        "pass": max_res < tol and (max_rt is None or max_rt < tol),
    }


def octic_model() -> SemiHyperellipticCurve:
    """y^8 = x^2 (x - 1)(x + 1)."""
    return SemiHyperellipticCurve(8, ((Fraction(0), 2), (Fraction(1), 1),
                                      (Fraction(-1), 1)))


def octic_family() -> SemiHyperellipticCurve:
    """y^8 = x^2 (x - 1)(x - a) with the constant left symbolic."""
    return SemiHyperellipticCurve(8, ((Fraction(0), 2), (Fraction(1), 1), ("a", 1)))


def quartic_model() -> SemiHyperellipticCurve:
    """y^4 = x (x - 1)(x + 1)(x^2 + 1)^2, with x^2 + 1 split into the two
    imaginary branch values (numeric use only)."""
    return SemiHyperellipticCurve(4, ((Fraction(0), 1), (Fraction(1), 1),
                                      (Fraction(-1), 1), (1j, 2), (-1j, 2)))


def octic_to_quartic_maps() -> tuple[Callable, Callable]:
    """The explicit degree-preserving pair between y^8 = x^2(x-1)(x+1) and
    y^4 = x(x-1)(x+1)(x^2+1)^2, built from a primitive 16th root of unity
    and real fourth roots."""
    zeta = cmath.exp(2j * cmath.pi / 16)
    root8 = 8 ** 0.25
    root2 = 2 ** 0.25

    def forward(x: complex, y: complex) -> tuple[complex, complex]:
        return (zeta**4 * y**4 / (x * (x + 1)), root8 * y / (zeta * (x + 1)))

    def inverse(x: complex, y: complex) -> tuple[complex, complex]:
        return (-(x * x - 1) / (x * x + 1), root2 * zeta * y / (x * x + 1))

    return forward, inverse
