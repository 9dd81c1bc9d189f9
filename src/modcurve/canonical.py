"""The genus-5 canonical model of the level-8 curve in P^4.

The curve y^8 = x^2 (x - 1)(x - a) embeds by holomorphic_basis(octic_family()),
which embed_point and deck_matrix read; its image is cut out by three quadrics

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
terms forcing the multipliers.  The elimination runs in poly.MPoly, the one
polynomial ring, over Q in the matrix entries with a as one more variable.  It
pulls each quadric back once, when its stage starts, from the entries solved
by then, and substitutes each later entry into the remainders taken so far,
which commutes with pullback and reduction: both are polynomial and no form
holds an entry.  Each solved entry is pinned by the exact terms of one
coefficient, its step named from that coefficient's quadric and monomial, its
relation the step's text.  Zero and equality tests compare the canonical term
dicts; ints stay int, and an integral Fraction enters as an int (_as_int): the
sigma test's parameter, and the root a = -1, so its substitution leaves ints.
preserves_ideal reads each row's nonzero entries once for all three pullbacks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from typing import NamedTuple

from .arith import Cyclotomic, _of
from .curve import holomorphic_basis, octic_family
from .cusps import cusp_class_action, enumerate_cusps
from .genus import euler_genus
from .poly import MPoly, rational_roots
from .psl import center, r_formula, sign_center

QuadMono = tuple[int, int]  # (i, j) with i <= j, 0-indexed coordinates
Quadric = dict[QuadMono, object]


def _as_int(x):
    """The int rule: an integral Fraction as an int, anything else as it is."""
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


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


@cache
def _octic_basis() -> tuple:  # on first use: at import, a basis fault would break every command
    return octic_family().branches, tuple(holomorphic_basis(octic_family()))


def embed_point(x, y) -> tuple:
    """Affine curve point (x, y), y != 0, into P^4 by holomorphic_basis(octic_family())."""
    if y == 0:
        raise ValueError("the embedding formula needs y != 0; "
                         "use the tabulated special-point images")
    branches, basis = _octic_basis()
    return tuple(prod((x - v) ** e for (v, _), e in zip(branches, m.alphas) if e) / y ** m.gamma
                 for m in basis)


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


def _pull_backs(qs, m):
    """Yield q(M z) for each q in qs, lazily, from one read of M's nonzero
    entries per row; coefficients that cancel stay."""
    rows = [[(k, x) for k, x in enumerate(row) if not x == 0] for row in m]
    for q in qs:
        out: Quadric = {}
        for (i, j), c in q.items():
            for k, mik in rows[i]:
                cm = c * mik
                for l, mjl in rows[j]:
                    key = (k, l) if k <= l else (l, k)
                    out[key] = out[key] + cm * mjl if key in out else cm * mjl
        yield out


def transform_quadric(q: Quadric, m) -> Quadric:
    """Pullback q(M z) as a quadric in z."""
    (out,) = _pull_backs([q], m)
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
        lam = -lam
        for key, c in form.items():
            rem[key] = rem[key] + lam * c if key in rem else lam * c
    return {k: v for k, v in rem.items() if not v == 0}


def map_quadric(q: Quadric, f) -> Quadric:
    """Apply a ring map to every coefficient, dropping those that vanish."""
    return {k: fc for k, c in q.items() if not (fc := f(c)) == 0}


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
    """y -> zeta*y as diag(zeta^(gamma_max - gamma)) on holomorphic_basis(octic_family())."""
    gammas = [m.gamma for m in _octic_basis()[1]]
    diag = [prod([zeta] * (max(gammas) - g)) for g in gammas]  # prod([]) is the int 1
    return tuple((0,) * i + (d,) + (0,) * (4 - i) for i, d in enumerate(diag))


def preserves_ideal(m, a) -> bool:
    """Exact test that z -> M z maps the quadric ideal at parameter a to itself."""
    if tuple(map(len, m)) != (5, 5, 5, 5, 5):
        raise ValueError("maps of P^4 are 5x5 matrices")
    forms = quadric_forms(a)
    return all(not reduce_by_span(p, forms) for p in _pull_backs(forms, m))


def sigma_preserves_ideal(a, eta3: Cyclotomic) -> bool:
    """Exact ideal-preservation test for the candidate matrix over
    Z[t]/(t^8 - 1).  An integral Fraction a enters as an int."""
    a = _as_int(a)
    return preserves_ideal(sigma_matrix(a, eta3), a)


def sigma_count(a) -> int:
    """How many of the eight candidate matrices at parameter a preserve the
    ideal, eta3 running over the 8th roots of unity."""
    return sum(sigma_preserves_ideal(a, Cyclotomic.root(8, j)) for j in range(8))


def sigma_family(a=-1) -> list:
    """All eight candidate matrices, eta3 running over the 8th roots of unity."""
    return [sigma_matrix(a, Cyclotomic.root(8, j)) for j in range(8)]


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
    """The ring map c33 -> t^j into Z[t]/(t^8 - 1), on an MPoly in c33 alone;
    any other term, one that holds a included, fails step.  At j = 1 its
    kernel is (c33^8 - 1), so a zero image is vanishing modulo that octic."""
    out = {}
    for key, c in mp.terms.items():
        _expect(key.count("c33") == len(key), step)
        k = j * len(key) % 8  # c33^n goes to t^(j*n mod 8); a cancelled power stays popped
        if s := out.pop(k, 0) + c:
            out[k] = s
    return _of(Cyclotomic, 8, out)


def elimination_solve() -> EliminationResult:
    """Replay the constraint chain that forces a = -1 and the matrix family.

    The chain: images of the two marked branch-point images pin column 5 and
    column 4; the four infinity images and the two zero images empty out the
    lower-left block; the three quadric pullback identities then force, in
    order, c23 = c53 = 0 and c22 = c33^2, then c13 = c12 = 0,
    c41 = c42 = c43 = 0, c11 = -c22^2 and finally a = -1, with c11^2 = 1
    closing the family to the eighth roots of unity.

    Each quadric is pulled back once, when its stage starts, from the
    entries known then: Q1 after the linear stage, Q2 after c23, c53 and
    c22, Q3 after c11 and the root a, still symbolic in a.  Each later entry
    is substituted into the remainders taken so far, and so is a, the one
    rational root of the z1*z5 coefficient read off its c33^4 terms' powers
    of a.  The reduction's multipliers are the z3^2, z2^2, z1^2 coefficients
    and no form holds an entry or another form's square, so each substitution
    commutes with pullback and reduction.  Every step asserts the shape of the
    constraint it consumes, so any divergence points at the exact step; pin
    checks each entry's coefficient term by term, named from the key it reads.
    The octic check and the eight-matrix family both read entries through
    the one ring map _at_root into Z[t]/(t^8 - 1).
    """
    steps: list[str] = []
    assumptions = ["a != 0", "a != 1", "matrix invertible"]
    known: dict[str, MPoly] = {}
    shown: dict[str, str] = {}  # "name = value", printed once for its step and relation
    rems: list[Quadric] = []  # Q1, Q2, Q3 pulled back, each from its stage on
    zero = MPoly({})  # the coefficient of a monomial a remainder lacks

    def entry(i: int, j: int) -> MPoly:  # 1-indexed
        name = f"c{i}{j}"
        return known[name] if name in known else MPoly.var(name)

    def pull_back():
        """Pull the next quadric back from the entries known now."""
        m = tuple(tuple(entry(i, j) for j in range(1, 6)) for i in range(1, 6))
        rems.append(reduce_by_span(transform_quadric(forms[len(rems)], m), forms))

    def setk(name: str, value, why: str):
        known[name] = mp = value if isinstance(value, MPoly) else MPoly.const(value)
        rems[:] = [map_quadric(r, lambda c: c.subs(name, mp)) for r in rems]
        shown[name] = f"{name} = {value}"
        steps.append(f"{shown[name]}  [{why}]")

    def mono(key: QuadMono) -> str:  # z4^2 or z1*z5
        i, j = key
        return f"z{i + 1}^2" if i == j else f"z{i + 1}*z{j + 1}"

    def pin(k: int, key: QuadMono, shape: dict, name: str, value, why=""):
        """Set name from remainder k's key coefficient, whose terms must be shape."""
        _expect(rems[k].get(key, zero).terms == shape, f"Q{k + 1}: {mono(key)}")
        setk(name, value, f"Q{k + 1} pullback, {mono(key)} coefficient{why}")

    a_sym, c33 = MPoly.var("a"), MPoly.var("c33")
    forms = quadric_forms(a_sym)

    # image of [0,0,0,0,1] is [0,0,0,a-1,1], scaled to lambda = 1
    for row, val in zip((1, 2, 3, 4, 5), (0, 0, 0, a_sym - 1, 1)):
        setk(f"c{row}5", val, "image of the x=1 point")

    # image of [0,0,0,a-1,1] is [0,0,0,0,1]; rows 1..3 give (a-1)*ci4 = 0
    for row in (1, 2, 3):
        expr = (a_sym - 1) * entry(row, 4) + entry(row, 5)
        _expect(expr.terms == {("a", f"c{row}4"): 1, (f"c{row}4",): -1}, "columns-4 vanishing")
        setk(f"c{row}4", 0, "image of the x=a point, a != 1")
    expr = (a_sym - 1) * entry(4, 4) + entry(4, 5)
    # (a-1)*c44 + (a-1) = 0
    _expect(expr.terms == {("a", "c44"): 1, ("c44",): -1, ("a",): 1, (): -1},
            "c44 determination")
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

    # first quadric pullback; setk substitutes into it from now on
    pull_back()
    pin(0, (2, 4), {("c23",): -1}, "c23", 0)
    assumptions.append("c22 != 0 (row 2 would vanish)")
    pin(0, (1, 2), {("c22", "c53"): -1}, "c53", 0, ", c22 != 0")
    pin(0, (1, 4), {("c33", "c33"): 1, ("c22",): -1}, "c22", c33 ** 2)
    _expect(not rems[0], "Q1 pullback must now lie in the span")
    steps.append("Q1 pullback lies in the span")

    # second quadric pullback
    pull_back()
    pin(1, (2, 4), {("a", "c13"): -1}, "c13", 0, ", a != 0")
    pin(1, (1, 4), {("a", "c12"): -1}, "c12", 0, ", a != 0")
    assumptions.append("c11 != 0 (row 1 would vanish)")
    pin(1, (0, 1), {("c11", "c42"): -1}, "c42", 0, ", c11 != 0")
    pin(1, (0, 2), {("c11", "c43"): -1}, "c43", 0, ", c11 != 0")
    pin(1, (3, 3), {("c11", "c41"): -1}, "c41", 0, ", c11 != 0")
    pin(1, (0, 3), {("c11",): 1, ("c33",) * 4: 1}, "c11", -(c33 ** 4))
    z15, eq = mono((0, 4)), rems[1].get((0, 4), zero)
    powers = {key.count("a"): c for key, c in eq.terms.items()}  # c33^4 * a^i terms by i
    _expect(bool(powers) and eq.terms.keys() == {("a",) * i + ("c33",) * 4 for i in powers},
            f"Q2: {z15}")
    coeffs = [powers.get(i, 0) for i in range(max(powers) + 1)]
    # c33 != 0, so the coefficient must vanish; linear in a, it has one root
    _expect(len(coeffs) == 2, f"Q2: {z15} linear in a")
    (a_value,) = rational_roots(coeffs)
    _expect(a_value not in (0, 1), "a != 0, a != 1")
    steps.append(f"a = {a_value}  [Q2 pullback, {z15} coefficient, c33 != 0]")
    pull_back()  # Q3, still symbolic in a

    # both pullbacks at the root must sit in the span
    root = MPoly.const(_as_int(a_value))
    at_a = [map_quadric(r, lambda c: c.subs("a", root)) for r in rems]
    _expect(not at_a[0], f"Q1 pullback at a = {a_value}")
    _expect(not at_a[1], f"Q2 pullback at a = {a_value}")

    # third quadric pullback: remainder must vanish modulo the octic relation
    r, z44, octic = at_a[2], mono((3, 3)), "c33^8 = 1"
    _expect(r.get((3, 3), zero).terms == {(): -1, ("c33",) * 8: 1}, f"Q3: {z44}")
    steps.append(f"{octic}  [Q3 pullback, {z44} coefficient]")
    for key, val in r.items():
        step = f"Q3 remainder at {key}"
        _expect(_at_root(val, 1, step) == 0, step)

    entries = {f"c{i}{j}": entry(i, j).subs("a", root)
               for i in range(1, 6) for j in range(1, 6)}
    # nonzero solved entries: powers of c33, lowest first, then constants by name
    deg = {name: max(k.count("c33") for k in e.terms) for name, e in known.items() if e.terms}
    relations = [shown[n] for n in sorted(deg, key=lambda n: (not deg[n], deg[n], n))] + [octic]
    step = "family entries depend on c33 only"
    # a constant entry has one image at every root, read once and shared
    images = [[_at_root(e, 0, step)] * 8 if e.terms.keys() <= {()}
              else [_at_root(e, j, step) for j in range(8)] for e in entries.values()]
    family = [tuple(col[r:r + 5] for r in range(0, 25, 5)) for col in zip(*images)]

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
