"""The genus-5 canonical model of the level-8 curve in P^4.

The curve y^8 = x^2 (x - 1)(x - a) embeds by the holomorphic differentials
[1/y^3, x/y^5, x/y^6, x(x-1)/y^7, x/y^7]; its image is cut out by three
quadrics

    Q1 = z3^2 - z2 z5
    Q2 = z2^2 - z1 (z4 + z5)
    Q3 = z1^2 - z4 (z4 - (a - 1) z5)

with coefficients in Z[a].  Automorphisms of a non-hyperelliptic canonical
curve are projective-linear, so demanding a linear map that swaps the two
images [0,0,0,0,1] and [0,0,0,a-1,1] while preserving the quadric ideal
turns into exact linear algebra.  Replaying that constraint chain pins
a = -1 and leaves the one-parameter family

    diag(-e^4, e^2, e, -1 with upper entry a-1, 1),   e^8 = 1,

of eight maps, matching the eight group elements that swap the two
corresponding cusp classes.

Ideal membership never needs Groebner machinery: the ideal is generated in
degree 2 and pullbacks of quadrics are quadrics, so membership is a linear
condition on the 15 quadratic-monomial coefficients with the three square
terms forcing the multipliers.  The elimination pulls each quadric back
once and substitutes each solved entry into the remainders, which commutes
with pullback and reduction: both are polynomial and no form holds an entry.
Zero and equality tests compare the canonical term dicts; ints stay int,
and an integral Fraction parameter enters the sigma test as an int.
Scalar rules: a product by 1 is the (immutable) operand itself; MPoly and
Cyclotomic (at every c, so GaussRational too) scale each coefficient by any
other int or Fraction directly, and Poly by a constant operand on either side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import Cyclotomic, ExactRing
from .cusps import enumerate_cusps
from .genus import euler_genus
from .poly import Poly, rational_roots
from .psl import center, cusp_class_action, r_formula, sign_center

QuadMono = tuple[int, int]  # (i, j) with i <= j, 0-indexed coordinates
Quadric = dict[QuadMono, object]


def quadric_forms(a) -> list[Quadric]:
    """The three quadrics, with parameter a from any exact ring."""
    return [
        {(2, 2): 1, (1, 4): -1},
        {(1, 1): 1, (0, 3): -1, (0, 4): -1},
        {(0, 0): 1, (3, 3): -1, (3, 4): a - 1},
    ]


def eval_quadric(q: Quadric, z) -> object:
    out = 0
    for (i, j), c in q.items():
        out = out + c * z[i] * z[j]
    return out


def quadric_residuals(a, point) -> tuple:
    """Exact residuals of the three quadrics at a projective point."""
    if len(point) != 5:
        raise ValueError("points live in P^4")
    return tuple(eval_quadric(q, point) for q in quadric_forms(a))


def embed_point(x, y) -> tuple:
    """Affine curve point (x, y), y != 0, into P^4."""
    if y == 0:
        raise ValueError("the embedding formula needs y != 0; "
                         "use the tabulated special-point images")
    y3 = y**3
    y5 = y3 * y * y
    y6 = y5 * y
    y7 = y6 * y
    return (1 / y3, x / y5, x / y6, x * (x - 1) / y7, x / y7)


def image_of_one():
    """Image of the branch point over x = 1."""
    return (0, 0, 0, 0, 1)


def image_of_a(a):
    """Image of the branch point over x = a."""
    return (0, 0, 0, a - 1, 1)


def images_of_zero(sqrt_a):
    """Images of the two points over x = 0, in terms of a square root of a."""
    return [(sqrt_a, 0, 0, -1, 1), (-sqrt_a, 0, 0, -1, 1)]


def images_of_infinity(i_unit):
    """Images of the four points over x = oo; i_unit is a square root of -1."""
    return [(1, 1, 0, 1, 0), (1, -1, 0, 1, 0),
            (1, i_unit, 0, -1, 0), (1, -i_unit, 0, -1, 0)]


def transform_quadric(q: Quadric, m) -> Quadric:
    """Pullback q(M z) as a quadric in z."""
    out: Quadric = {}
    for (i, j), c in q.items():
        for k in range(5):
            mik = m[i][k]
            if mik == 0:
                continue
            cm = c * mik
            for l in range(5):
                mjl = m[j][l]
                if mjl == 0:
                    continue
                key = (k, l) if k <= l else (l, k)
                out[key] = out[key] + cm * mjl if key in out else cm * mjl
    return {k: v for k, v in out.items() if not v == 0}


_SQUARES = ((2, 2), (1, 1), (0, 0))  # leading squares of Q1, Q2, Q3


def reduce_by_span(p: Quadric, forms: list[Quadric]) -> Quadric:
    """Remainder of p against the span of the three quadrics.

    Each quadric owns one square monomial, so the multipliers are forced by
    the square coefficients of p; membership in the span is equivalent to a
    zero remainder.
    """
    rem = dict(p)
    for sq, form in zip(_SQUARES, forms):
        lam = rem.get(sq, 0)
        if lam == 0:
            continue
        for key, c in form.items():
            rem[key] = rem[key] - lam * c if key in rem else -(lam * c)
    return {k: v for k, v in rem.items() if not v == 0}


def map_quadric(q: Quadric, f) -> Quadric:
    """Apply a ring map to every coefficient, dropping those that vanish."""
    out = {k: f(c) for k, c in q.items()}
    return {k: c for k, c in out.items() if not c == 0}


def sigma_matrix(a, eta3: Cyclotomic):
    """The swap-automorphism candidate diag(-eta3^4, eta3^2, eta3) plus the
    2x2 block ((-1, a-1), (0, 1))."""
    eta2 = eta3 * eta3
    eta1 = eta2 * eta2
    return (
        (-eta1, 0, 0, 0, 0),
        (0, eta2, 0, 0, 0),
        (0, 0, eta3, 0, 0),
        (0, 0, 0, -1, a - 1),
        (0, 0, 0, 0, 1),
    )


def deck_matrix(zeta: Cyclotomic):
    """Projective action of the deck transformation on the embedded curve:
    coordinates scale by (z^4, z^2, z, 1, 1) for z an 8th root of unity."""
    z2 = zeta * zeta
    return (
        (zeta * z2 * zeta, 0, 0, 0, 0),
        (0, z2, 0, 0, 0),
        (0, 0, zeta, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    )


def preserves_ideal(m, a) -> bool:
    """Exact test that z -> M z maps the quadric ideal at parameter a to itself."""
    forms = quadric_forms(a)
    return all(not reduce_by_span(transform_quadric(q, m), forms)
               for q in forms)


def sigma_preserves_ideal(a, eta3: Cyclotomic) -> bool:
    """Exact ideal-preservation test for the candidate matrix over
    Z[t]/(t^8 - 1).  An integral Fraction a enters as an int."""
    if isinstance(a, Fraction) and a.denominator == 1:
        a = int(a)
    return preserves_ideal(sigma_matrix(a, eta3), a)


def sigma_count(a) -> int:
    """How many of the eight candidate matrices at parameter a preserve the
    ideal, eta3 running over the 8th roots of unity."""
    return sum(sigma_preserves_ideal(a, Cyclotomic.root(8, j)) for j in range(8))


def sigma_family(a=-1) -> list:
    """All eight candidate matrices, eta3 running over the 8th roots of unity."""
    return [sigma_matrix(a, Cyclotomic.root(8, j)) for j in range(8)]


# ---------------------------------------------------------------------------
# multivariate polynomials in the matrix entries, over Q[a]
# ---------------------------------------------------------------------------

_A = Poly.x()


class MPoly(ExactRing):
    """Polynomial in the unknown matrix entries with Q[a] coefficients.

    Terms map sorted variable-name tuples to univariate Poly coefficients.
    Just enough ring structure for replaying the elimination: +, unary -,
    * and == here, the rest of the ring rules from arith.ExactRing.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {}
        for key, poly in terms.items():
            if not isinstance(poly, Poly):
                poly = Poly.const(poly if isinstance(poly, int) else Fraction(poly))
            key = tuple(sorted(key))
            clean[key] = clean[key] + poly if key in clean else poly
        object.__setattr__(self, "terms",
                           {k: p for k, p in clean.items() if not p.is_zero()})

    @classmethod
    def _canonical(cls, terms: dict) -> "MPoly":
        """Wrap terms that are already canonical: sorted keys, no zero Poly."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls._canonical({(name,): Poly.const(1)})

    @classmethod
    def const(cls, value) -> "MPoly":
        return cls({(): value})

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return MPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, poly in o.terms.items():
            out[key] = out[key] + poly if key in out else poly
        return MPoly._canonical({k: p for k, p in out.items() if not p.is_zero()})

    def __neg__(self):
        return MPoly._canonical({k: -p for k, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return MPoly._canonical({k: p * other for k, p in self.terms.items()}
                                    if other else {})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in o.terms.items():
                key = tuple(sorted(k1 + k2))
                out[key] = out[key] + p1 * p2 if key in out else p1 * p2
        return MPoly._canonical({k: p for k, p in out.items() if not p.is_zero()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and other == 0:
            return not self.terms
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        # a constant equals its Poly constant, so it must hash like it
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset((k, p.coeffs) for k, p in self.terms.items()))

    def subs(self, name: str, value: "MPoly") -> "MPoly":
        """Substitute value for the variable name (a ring map fixing Q[a])."""
        out = MPoly._canonical({k: p for k, p in self.terms.items() if name not in k})
        if value.terms:  # a zero value drops every term that holds name
            for key, poly in self.terms.items():
                if name in key:
                    rest = tuple(k for k in key if k != name)
                    out = out + MPoly._canonical({rest: poly}) * value ** key.count(name)
        return out

    def subs_a(self, a_value: Fraction) -> "MPoly":
        return MPoly({k: Poly.const(p(a_value)) for k, p in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            mono = "*".join(key) if key else "1"
            parts.append(f"({c!r})*{mono}")
        return "MPoly(" + " + ".join(parts) + ")"


class EliminationResult(NamedTuple):
    """Outcome of replaying the projective-automorphism constraint chain."""

    a: Fraction
    assumptions: list[str]
    relations: list[str]
    steps: list[str]
    entries: dict[str, MPoly]      # final matrix entries in terms of c33
    family: list                   # eight concrete matrices


class EliminationError(AssertionError):
    """A constraint did not have the expected shape; names the failing step."""


def _expect(cond: bool, step: str):
    if not cond:
        raise EliminationError(f"unexpected constraint shape at: {step}")


def _at_root(mp: MPoly, j: int, step: str) -> Cyclotomic:
    """The ring map c33 -> t^j into Z[t]/(t^8 - 1), on an MPoly in c33 alone
    with constant coefficients; any other term fails step.  At j = 1 its
    kernel is (c33^8 - 1), so a zero image is vanishing modulo c33^8 = 1.
    Each term c33^k adds its constant at index j*k mod 8 of one list."""
    out = [0] * 8
    for key, poly in mp.terms.items():
        _expect(set(key) <= {"c33"} and poly.degree == 0, step)
        k = j * len(key) % 8
        out[k] = out[k] + poly.coeffs[0]
    return Cyclotomic(8, out)


def elimination_solve() -> EliminationResult:
    """Replay the constraint chain that forces a = -1 and the matrix family.

    The chain: images of the two marked branch-point images pin column 5 and
    column 4; the four infinity images and the two zero images empty out the
    lower-left block; the three quadric pullback identities then force, in
    order, c23 = c53 = 0 and c22 = c33^2, then c13 = c12 = 0,
    c41 = c42 = c43 = 0, c11 = -c22^2 and finally a = -1, with c11^2 = 1
    closing the family to the eighth roots of unity.

    The three pullbacks are taken once, after the linear stage; each later
    entry is substituted into the remainders.  a is the one rational root of
    the z1*z5 coefficient, and subs_a then substitutes it.
    The reduction's multipliers are the z3^2, z2^2, z1^2 coefficients and no
    form holds an entry or another form's square, so both ring maps commute
    with pullback and reduction.  Every step asserts the shape of the
    constraint it consumes, so any divergence points at the exact step.
    The octic check and the eight-matrix family both read entries through
    the one ring map _at_root into Z[t]/(t^8 - 1).
    """
    steps: list[str] = []
    assumptions = ["a != 0", "a != 1", "matrix invertible"]
    known: dict[str, MPoly] = {}
    rems: list[Quadric] = []  # the three pulled-back remainders, once taken

    def entry(i: int, j: int) -> MPoly:  # 1-indexed
        name = f"c{i}{j}"
        return known.get(name, MPoly.var(name))

    def setk(name: str, value, why: str):
        known[name] = mp = value if isinstance(value, MPoly) else MPoly.const(value)
        rems[:] = [map_quadric(r, lambda c: c.subs(name, mp)) for r in rems]
        steps.append(f"{name} = {value!r}  [{why}]")

    a_sym = MPoly.const(_A)

    # image of [0,0,0,0,1] is [0,0,0,a-1,1], scaled to lambda = 1
    for row, val in zip((1, 2, 3, 4, 5), (0, 0, 0, _A - 1, 1)):
        setk(f"c{row}5", MPoly.const(val), "image of the x=1 point")

    # image of [0,0,0,a-1,1] is [0,0,0,0,1]; rows 1..3 give (a-1)*ci4 = 0
    for row in (1, 2, 3):
        expr = (a_sym - 1) * entry(row, 4) + entry(row, 5)
        _expect(expr.terms == {(f"c{row}4",): _A - 1}, "columns-4 vanishing")
        setk(f"c{row}4", 0, "image of the x=a point, a != 1")
    expr = (a_sym - 1) * entry(4, 4) + entry(4, 5)
    # (a-1)*c44 + (a-1) = 0
    _expect(expr.terms == {("c44",): _A - 1, (): _A - 1}, "c44 determination")
    setk("c44", -1, "image of the x=a point, a != 1")

    # the four infinity images [1, e, 0, d, 0] keep z3 = z5 = 0
    # rows 3: c31 + e*c32 = 0 for e = 1, -1  ==>  c31 = c32 = 0
    plus = entry(3, 1) + entry(3, 2)
    minus = entry(3, 1) - entry(3, 2)
    _expect((plus + minus).terms == {("c31",): 2}, "infinity images, row 3")
    setk("c31", 0, "infinity images, row 3")
    setk("c32", 0, "infinity images, row 3")
    # row 5 at e = +-1, d = 1:  c51 + e*c52 + c54 = 0 ==> c52 = 0, c51 + c54 = 0
    # row 5 at e = +-i, d = -1: c51 + e*c52 - c54 = 0, imposed per rational and
    # imaginary coefficient: c52 = 0, c51 - c54 = 0
    s1 = entry(5, 1) + entry(5, 4)   # from the rational pair
    s2 = entry(5, 1) - entry(5, 4)   # from the imaginary pair
    _expect((s1 + s2).terms == {("c51",): 2}, "infinity images, row 5")
    setk("c52", 0, "infinity images, row 5")
    setk("c51", 0, "infinity images, row 5")
    setk("c54", 0, "infinity images, row 5")

    # the two zero images [+-sqrt(a), 0, 0, -1, 1]: row 2 gives +-c21*sqrt(a) = 0
    expr = entry(2, 1)
    _expect(expr.terms == {("c21",): 1}, "zero images")
    setk("c21", 0, "zero images, a != 0")

    # pull each quadric back once; setk substitutes into the remainders from now on
    forms = quadric_forms(a_sym)
    m = tuple(tuple(entry(i, j) for j in range(1, 6)) for i in range(1, 6))
    rems[:] = [reduce_by_span(transform_quadric(q, m), forms) for q in forms]

    # first quadric pullback
    eq = rems[0].get((2, 4), MPoly({}))   # z3*z5
    _expect(eq.terms == {("c23",): -1}, "Q1: z3*z5")
    setk("c23", 0, "Q1 pullback, z3*z5 coefficient")
    eq = rems[0].get((1, 2), MPoly({}))   # z2*z3
    _expect(eq.terms == {("c22", "c53"): -1}, "Q1: z2*z3")
    assumptions.append("c22 != 0 (row 2 would vanish)")
    setk("c53", 0, "Q1 pullback, z2*z3 coefficient, c22 != 0")
    eq = rems[0].get((1, 4), MPoly({}))   # z2*z5
    _expect(eq.terms == {("c33", "c33"): 1, ("c22",): -1}, "Q1: z2*z5")
    setk("c22", MPoly.var("c33") ** 2, "Q1 pullback, z2*z5 coefficient")
    _expect(not rems[0], "Q1 pullback must now lie in the span")
    steps.append("Q1 pullback lies in the span")

    # second quadric pullback
    eq = rems[1].get((2, 4), MPoly({}))   # z3*z5
    _expect(eq.terms == {("c13",): -_A}, "Q2: z3*z5")
    setk("c13", 0, "Q2 pullback, z3*z5 coefficient, a != 0")
    eq = rems[1].get((1, 4), MPoly({}))   # z2*z5
    _expect(eq.terms == {("c12",): -_A}, "Q2: z2*z5")
    setk("c12", 0, "Q2 pullback, z2*z5 coefficient, a != 0")
    assumptions.append("c11 != 0 (row 1 would vanish)")
    eq = rems[1].get((0, 1), MPoly({}))   # z1*z2
    _expect(eq.terms == {("c11", "c42"): -1}, "Q2: z1*z2")
    setk("c42", 0, "Q2 pullback, z1*z2 coefficient, c11 != 0")
    eq = rems[1].get((0, 2), MPoly({}))   # z1*z3
    _expect(eq.terms == {("c11", "c43"): -1}, "Q2: z1*z3")
    setk("c43", 0, "Q2 pullback, z1*z3 coefficient, c11 != 0")
    eq = rems[1].get((3, 3), MPoly({}))   # z4^2
    _expect(set(eq.terms) == {("c11", "c41")}, "Q2: z4^2")
    setk("c41", 0, "Q2 pullback, z4^2 coefficient, c11 != 0")
    eq = rems[1].get((0, 3), MPoly({}))   # z1*z4
    _expect(eq.terms == {("c11",): 1, ("c33",) * 4: 1}, "Q2: z1*z4")
    setk("c11", -(MPoly.var("c33") ** 4), "Q2 pullback, z1*z4 coefficient")
    eq = rems[1].get((0, 4), MPoly({}))   # z1*z5
    _expect(set(eq.terms) == {("c33",) * 4}, "Q2: z1*z5")
    coeff = eq.terms[("c33",) * 4]
    # c33 != 0, so the coefficient must vanish; linear in a, it has one root
    _expect(coeff.degree == 1, "Q2: z1*z5 linear in a")
    (a_value,) = rational_roots(coeff)
    _expect(a_value not in (0, 1), "a != 0, a != 1")
    steps.append(f"a = {a_value}  [Q2 pullback, z1*z5 coefficient, c33 != 0]")

    # both pullbacks at the root must sit in the span
    at_a = [map_quadric(r, lambda c: c.subs_a(a_value)) for r in rems]
    _expect(not at_a[0], f"Q1 pullback at a = {a_value}")
    _expect(not at_a[1], f"Q2 pullback at a = {a_value}")

    # third quadric pullback: remainder must vanish modulo c33^8 = 1
    r = at_a[2]
    eq = r.get((3, 3), MPoly({}))
    _expect(eq.terms == {(): -1, ("c33",) * 8: 1}, "Q3: z4^2")
    steps.append("c33^8 = 1  [Q3 pullback, z4^2 coefficient]")
    for key, val in r.items():
        step = f"Q3 remainder at {key}"
        _expect(_at_root(val, 1, step) == 0, step)

    entries = {f"c{i}{j}": entry(i, j).subs_a(a_value)
               for i in range(1, 6) for j in range(1, 6)}
    relations = ["c22 = c33^2", "c11 = -c33^4", "c44 = -1", "c45 = a - 1",
                 "c55 = 1", "c33^8 = 1"]
    step = "family entries depend on c33 only"
    # a constant entry has one image at every root, read once and shared
    images = {name: [_at_root(e, 0, step)] * 8 if e.terms.keys() <= {()}
              else [_at_root(e, j, step) for j in range(8)]
              for name, e in entries.items()}
    family = [tuple(tuple(images[f"c{i}{k}"][j] for k in range(1, 6))
                    for i in range(1, 6)) for j in range(8)]

    return EliminationResult(a=a_value, assumptions=assumptions,
                             relations=relations, steps=steps,
                             entries=entries, family=family)


# ---------------------------------------------------------------------------
# cross-checks against the finite group
# ---------------------------------------------------------------------------

def hyperellipticity_obstruction() -> dict:
    """Support for non-hyperellipticity of the level-8 curve.

    The automorphism group is the level-8 matrix group modulo sign; its
    center consists of the scalar classes, here {[I], [3I]}, so [3I] is the
    only central involution (the projective group, scalars removed, has
    trivial center).  A hyperelliptic involution would be central with a
    genus-0 quotient, but the quotient by [3I] (merge cusp classes under
    multiplication by 3, halve the index) has genus 3.
    """
    q = 8
    cent = sign_center(q)
    merged = {min(c, cusp_class_action(q, (3, 0, 0, 3), c)) for c in enumerate_cusps(q)}
    g_quot = euler_genus(len(merged), r_formula(q) // 2)
    return {
        "sign_center_size": len(cent),
        "center_is_scalar": all(b == c == 0 and a == d for a, b, c, d in cent),
        "projective_center_trivial": len(center(q)) == 1,
        "central_involution_quotient_genus": g_quot,
        "hyperelliptic": g_quot == 0,
    }
