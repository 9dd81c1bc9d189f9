"""SL(2, Z/qZ) and its projective quotients: enumeration, orders, center,
and the transporters between cusp classes (the action itself is in cusps).

Matrices are flat tuples (a, b, c, d) of residues with ad - bc = 1 (mod q).
Two quotients matter and they differ for composite q:

  * the sign quotient SL/{+-I}, whose size is the group index R_q and which
    carries the cusp action and the automorphism counts;
  * the projective group SL/{scalars}, where a scalar is lambda*I with
    lambda^2 = 1 (four such lambda exist mod 8, for instance).

Element-order statements (largest order 3q/2 or q) are theorems about the
projective group only: the sign quotient contains, e.g., an element of order
30 at level 15, namely (4, 4; 0, 4) = 4I * (1, 1; 0, 1), because 4I is a
non-sign scalar there.  For q <= 40 the projective center is trivial except
at q = 16 and 32, where it has two classes (at 16: I and (3, 8; 8, 11)).
The center scan applies one commutation rule twice: to the generators T and
S, only for classes with 2c = 0 (commuting with T forces it, see _center_of),
then to the whole group, only for the non-scalar classes that pass T and S.

A canonical representative is the lexicographic minimum over the coset.  Only
least members are generated, b from one list per subset of lams fixing a,
built once per call, and c and d as two progressions for non-unit a (a
row with gcd(a, b, q) > 1 is empty); the last eight (level, quotient) sets are
cached as sorted tuples, enumerate_psl hands out the sign-quotient tuple
itself, and scalar_units caches each level's scalars as a tuple.  The
transporter search completes only the least rows (a, b) whose image of c1
can start like c2's class, so it builds and caches no group.
Enumeration and the scalar list are guarded at q <= 40 (|SL| grows like q^3).
Orders walk the powers of g = (a, b; c, d) by Cayley-Hamilton, g^2 = t*g - I
with t = a + d: g^k = s_k*g - s_(k-1)*I for s_0 = 0, s_1 = 1,
s_(k+1) = t*s_k - s_(k-1).  So g^k is scalar exactly when s_k*b, s_k*c and
s_k*(a - d) vanish mod q, that is s_k = 0 mod m = q / gcd(q, b, c, a - d),
with scalar lam = s_k*a - s_(k-1).  The one walk, _order, stops at the first
such k: the projective order, since lam^2 = det g^k = 1.  The scalar powers
of g are the multiples of k, so the sign order is k when lam = +-1, else 2k.
Orders read no scalar list and take no level limit: one step per power up to
the element's order, linear in q.  The sequence s_k mod m is fixed by t mod m,
so a class's projective order depends only on the pair (m, t mod m), and the
max-order oracle walks each distinct pair once as the companion matrix
(t, -1; 1, 0) mod m, of trace t, determinant 1 and the same m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache

from .arith import Mat, check_step, euler_product, exact_int
from .cusps import cusp_class_action

ENUM_GUARD = 40


def _check_enum(q: int) -> None:
    if not 2 <= q <= ENUM_GUARD:
        raise ValueError(f"enumeration supports 2 <= q <= {ENUM_GUARD}, got {q}")


def _least(x: int, fix: tuple[int, ...], q: int) -> tuple[int, ...] | None:
    """None when some lam in fix moves x below itself, else the lams that
    fix x: only those can still tie with the identity on later entries."""
    fixing = []
    for lam in fix:
        y = lam * x % q
        if y < x:
            return None
        if y == x:
            fixing.append(lam)
    return tuple(fixing)


def _least_members(q: int, lams: tuple[int, ...], row=None) -> list[Mat]:
    """The lexicographically least member of each class {lam * m : lam in
    lams} of SL(2, Z/qZ), in lexicographic order, solving a*d = 1 + b*c;
    with row given, only the members of the least rows (a, b) it accepts.

    Only a and b are compared, b only against the lams fixing a: a lam
    fixing a and b has (lam - 1)(a*d - b*c) = 0, so lam = 1 and c, d are free.
    Which b pass depends on that subset alone, so each distinct subset's
    b-list is built once per call (at most two for the sign quotient).
    For g = gcd(a, q) > 1 the row is empty if gcd(b, g) > 1, else c = -1/b
    mod g in steps of g and d = (1 + b*c)/g * (a/g)^-1 mod q/g in steps of q/g.
    Uncached, so the transporter search, which passes a row filter, caches no group.
    """
    _check_enum(q)
    out, blists = [], {}
    for a in range(q):
        fa = _least(a, lams, q)
        if fa is None:
            continue
        if fa not in blists:
            blists[fa] = [b for b in range(q) if _least(b, fa, q) is not None]
        g = math.gcd(a, q)
        qg = q // g
        ainv = pow(a // g, -1, qg)
        for b in (blists[fa] if row is None else [b for b in blists[fa] if row(a, b)]):
            if g == 1:  # a unit: d is unique
                out += [(a, b, c, (1 + b * c) * ainv % q) for c in range(q)]
            elif math.gcd(b, g) == 1:  # else g never divides 1 + b*c: an empty row
                out += [(a, b, c, d) for c in range(-pow(b, -1, g) % g, q, g)
                        for d in range((1 + b * c) // g * ainv % qg, q, qg)]
    return out


@lru_cache(maxsize=8)
def _reps(q: int, lams: tuple[int, ...]) -> tuple[Mat, ...]:
    """_least_members of the whole group, for the last eight (q, lams) pairs."""
    return tuple(_least_members(q, lams))


def _signs(q: int) -> tuple[int, ...]:
    return (1, q - 1) if q > 2 else (1,)  # -I = I mod 2: one cache entry


def enumerate_psl(q: int) -> tuple[Mat, ...]:
    """All of PSL(2, Z/qZ) as canonical representatives, in lexicographic
    order: the cached tuple itself, so repeated calls share one object."""
    return _reps(q, _signs(q))


def r_formula(q: int) -> int:
    """Index of the level-q principal congruence subgroup (with -I adjoined)
    in SL(2, Z): q^3/2 * prod(1 - 1/l^2) over primes l | q.  Equals
    |PSL(2, Z/qZ)|.  Valid for q >= 3."""
    return r_n_formula(q, q)


def r_n_formula(q: int, n: int) -> int:
    """Index of the intermediate group of level q and translation step n:
    n*q^2/2 * prod(1 - 1/l^2).  Requires q >= 3 and n | q."""
    check_step(q, n, 3)
    return exact_int(Fraction(n * q * q, 2) * euler_product(q), f"index at q = {q}, n = {n}")


def _order(q: int, g: Mat) -> tuple[int, int]:
    """(k, lam) for the least k >= 1 with g^k = lam * I, by s_k mod q: g^k is
    scalar exactly when s_k = 0 mod m, with lam = s_k*a - s_(k-1) (module
    docstring), so this stops where "b = c = 0, a = d" does."""
    check_step(q, 1, 2)
    a, b, c, d = [e % q for e in g]
    if (a * d - b * c - 1) % q:
        raise ValueError(f"determinant of {g} is not 1 mod {q}")
    m = q // math.gcd(q, b, c, a - d)
    t, s0, s1 = a + d, 0, 1
    for k in range(1, 2 * q * q + 1):
        if not s1 % m:
            return k, (s1 * a - s0) % q
        s0, s1 = s1, (t * s1 - s0) % q
    raise RuntimeError("order computation runaway")


def element_order(q: int, g: Mat) -> int:
    """Order of g in the sign quotient SL/{+-I}: k or 2k for the first scalar
    power g^k = lam * I, as lam is a sign or not (lam^2 = 1)."""
    k, lam = _order(q, g)
    return k if lam in _signs(q) else 2 * k


@cache
def scalar_units(q: int) -> tuple[int, ...]:
    """All lambda mod q with lambda^2 = 1, ascending, at enumerated levels;
    lambda * I is a scalar of SL.  Cached: repeated calls share one tuple."""
    _check_enum(q)
    return tuple(lam for lam in range(1, q) if (lam * lam) % q == 1)


def projective_element_order(q: int, g: Mat) -> int:
    """Order of g in the projective group SL/{scalars}, at any level."""
    return _order(q, g)[0]


def type_classify(q: int) -> str:
    """"I" when q = 2 mod 4 and 3 does not divide q, else "II"."""
    return "I" if (q % 4 == 2 and q % 3 != 0) else "II"


def max_order_formula(q: int) -> int:
    """Largest projective element order: 3q/2 for type I, q for type II."""
    return 3 * q // 2 if type_classify(q) == "I" else q


def max_element_order(q: int) -> int:
    """Largest element order of the projective group, by enumeration.

    Taken modulo all scalars: the sign quotient is bigger for some
    composite q and its longer elements (order 30 at level 15) are scalar
    multiples of shorter ones.  Each pair (m, t mod m) with m > 1 is walked
    once (module docstring): 65 walks for 5,760 classes at level 40, 29 for
    12,180 at level 29.  The scalar classes (m = 1) have order 1.  The walks
    go through the public projective_element_order, companion checks and all,
    because the benchmark's order counter hooks that name (perfbench/metrics.py)."""
    _check_enum(q)
    raw = {(math.gcd(q, b, c, a - d), a + d) for a, b, c, d in _reps(q, scalar_units(q))}
    pairs = {(q // g, t % (q // g)) for g, t in raw}
    return max((projective_element_order(m, (t, m - 1, 1, 0)) for m, t in pairs if m > 1),
               default=1)


def _commutes_with_all(q: int, lams: tuple[int, ...], g: Mat, group) -> bool:
    """Whether gh = lam * hg for some lam in lams, for every h in group;
    _center_of passes the pair (T, S) first, then the whole group."""
    a, b, c, d = g
    for e, f, x, y in group:
        gh0, hg0 = (a * e + b * x) % q, (e * a + f * c) % q
        for lam in lams:
            if (lam * hg0 % q == gh0
                    and (lam * (e * b + f * d) - a * f - b * y) % q == 0
                    and (lam * (x * a + y * c) - c * e - d * x) % q == 0
                    and (lam * (x * b + y * d) - c * f - d * y) % q == 0):
                break
        else:
            return False
    return True


def _center_of(q: int, lams: tuple[int, ...]) -> set[Mat]:
    """The classes of SL modulo the scalars lams that commute with every
    class, where g and h commute when gh = lam * hg for some lam.

    A candidate g = (a, b; c, d) must first commute with T = (1, 1; 0, 1)
    and S = (0, -1; 1, 0), which generate SL(2, Z) and so the group; the
    pair goes through the same _commutes_with_all as the group does.
    gT = lam * Tg reads a = lam(a + c), a + b = lam(b + d), c = lam c,
    c + d = lam d, which force 2c = 0 whatever lam is: the last two give
    c = (lam - 1)d, and (lam - 1)^2 = 2 - 2*lam as lam^2 = 1, so
    0 = (lam - 1)c = -2(lam - 1)d = -2c; only classes with 2c = 0 try the
    pair.  Each survivor is then checked against every class, unless it is
    scalar (b = c = 0, a = d): mu*I * h = h * mu*I for every h."""
    group, pair = _reps(q, lams), ((1, 1, 0, 1), (0, q - 1, 1, 0))
    return {g for g in group
            if not 2 * g[2] % q and _commutes_with_all(q, lams, g, pair)
            and (g[1] == g[2] == 0 and g[0] == g[3] or _commutes_with_all(q, lams, g, group))}


def center(q: int) -> set[Mat]:
    """Center of the projective group SL/{scalars}, by commutation scan.

    Candidates are cut down against the images of the two standard
    generators of SL(2, Z), then the non-scalar ones against the whole group.
    """
    _check_enum(q)
    return _center_of(q, scalar_units(q))


def sign_center(q: int) -> set[Mat]:
    """Center of the sign quotient SL/{+-I}; the scalar classes show up
    here (for level 8: the identity and the class of 3I)."""
    return _center_of(q, _signs(q))


def maps_between_cusps(q: int, c1: tuple[int, int], c2: tuple[int, int]) -> list[Mat]:
    """All PSL(2, Z/qZ) elements whose cusp-class action sends c1 to c2.

    Both must be canonical level-q classes: coprime to q and the lesser of
    +-(x, z) mod q, so fixed by the identity's class action.  Then an image
    lands in c2's class exactly when it is c2 or -c2 mod q.  The image's
    first entry a*x + b*z is shared by a whole least row (a, b), so only the
    rows where it is that of c2 or -c2 are completed and their second
    entries tested: the search builds and caches no group."""
    check_step(q, 1, 2)
    for cls in (c1, c2):
        if math.gcd(*cls, q) != 1 or cusp_class_action(q, (1, 0, 0, 1), cls) != cls:
            raise ValueError(f"{cls} is not a canonical level-{q} cusp class")
    (x, z), (u, w) = c1, c2
    firsts, targets = (u, -u % q), (c2, (-u % q, -w % q))
    members = _least_members(q, _signs(q), lambda a, b: (a * x + b * z) % q in firsts)
    return [(a, b, c, d) for a, b, c, d in members
            if ((a * x + b * z) % q, (c * x + d * z) % q) in targets]
