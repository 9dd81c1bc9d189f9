"""Cusps of the level-q principal congruence subgroup and the SL(2, Z) action
on them and on their classes; translation orbits, widths and distributions.

A cusp is a coprime pair (x, z) with z >= 0, infinity stored as (1, 0) and
gcd(x, 0) read as |x|.  Two cusps are level-q equivalent exactly when their
residue pairs agree mod q up to a global sign; a class is named by the
lexicographic minimum of the two sign choices.  That rule is validated
constructively here (witness search) and numerically (class counts).

Each level's classes are generated once, directly, under an eight-entry
cache.  enumerate_cusps hands out the cached tuple itself; tau_orbits reads
it, takes each class with n*z = 0 (mod q) as a fixed one-class orbit without
a walk, and visits every other class once, carrying the step n*z, negated
with the fold.

The width of x/z for the intermediate group of level q and step n is
q / gcd(q/n, z) once q >= 5; below that only the brute-force congruence
scan is trustworthy, so width() delegates to it there.  orbit_widths lifts
each orbit's least class and takes its width through the statement width()
runs after its checks, with the level and step checked once per call: the one
orbit width list, which `cusps --widths` prints and `verify --oracles` checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .arith import (Mat, adj2, check_step, euler_product, exact_int, factorize,
                    mat_mul2, mult_n, n3)

Cusp = tuple[int, int]
ClassPair = tuple[int, int]


def check_cusp(c: Cusp) -> Cusp:
    x, z = c
    if z < 0 or math.gcd(x, z) != 1 or (z == 0 and x != 1):
        raise ValueError(f"not a valid cusp pair: {c}")
    return c


def gamma_qn_member(m: Mat, q: int, n: int) -> bool:
    """Membership of an integer matrix in the group with a = d = 1, c = 0
    (mod q) and b = 0 (mod n).  The case n = q is the principal congruence
    subgroup of level q."""
    a, b, c, d = m
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    check_step(q, n)
    return (a - 1) % q == 0 and (d - 1) % q == 0 and c % q == 0 and b % n == 0


def cusp_action(m: Mat, cusp: Cusp) -> Cusp:
    """Fractional-linear action of an integer matrix on x/z in Q u {oo}.

    Input and output are coprime pairs, with oo stored as (1, 0) and the
    denominator normalized nonnegative.
    """
    a, b, c, d = m
    x, z = cusp
    if math.gcd(x, z) != 1:
        raise ValueError(f"cusp {x}/{z} is not a coprime pair")
    nx, nz = a * x + b * z, c * x + d * z
    g = math.gcd(nx, nz)
    if g:
        nx, nz = nx // g, nz // g
    if nz < 0 or (nz == 0 and nx < 0):
        nx, nz = -nx, -nz
    return (nx, nz)


def cusp_class_action(q: int, m: Mat, cls: ClassPair) -> ClassPair:
    """Induced action on level-q cusp classes +-(x, z) mod q."""
    a, b, c, d = m
    x, z = cls
    nx, nz = (a * x + b * z) % q, (c * x + d * z) % q
    return min((nx, nz), ((-nx) % q, (-nz) % q))


def cusp_canonical(q: int, c: Cusp) -> ClassPair:
    """Canonical class pair of a cusp: the identity's class action, min of +-(x, z) mod q."""
    check_step(q, 1, 3)
    return cusp_class_action(q, (1, 0, 0, 1), check_cusp(c))


def class_to_cusp(q: int, cls: ClassPair) -> Cusp:
    """A coprime representative cusp of a class pair (deterministic lift);
    one exists exactly when gcd(x, z, q) = 1, so any other pair is refused."""
    xq, zq = cls
    if math.gcd(xq, zq, q) != 1:
        raise ValueError(f"{cls} is not a level-{q} cusp class")
    if zq == 0:
        if xq == 1:
            return (1, 0)
        return (xq, q)
    x = xq
    while math.gcd(x, zq) != 1:
        x += q
    return (x, zq)


def cusp_str(q: int, cls: ClassPair) -> str:
    x, z = class_to_cusp(q, cls)
    return f"{x}/{z}"


def find_equivalence_witness(q: int, c1: Cusp, c2: Cusp):
    """Integer matrix g of determinant 1 with g = I (mod q) and g(c1) = c2,
    or None when the classes differ.

    Complete c1, c2 to unimodular A, A2 sending oo to each cusp; every
    unimodular map c1 -> c2 is +-A2 * T^j * A^-1 with T the unit translation,
    and membership mod q only depends on j mod q, so scanning j in [0, q)
    over both signs is exhaustive.
    """
    check_step(q, 1)
    x1, z1 = check_cusp(c1)
    x2, z2 = check_cusp(c2)
    a_inv = adj2(complete_to_unimodular(x1, z1))
    a2_mat = complete_to_unimodular(x2, z2)
    for j in range(q):
        t_j = (1, j, 0, 1)
        g = mat_mul2(a2_mat, mat_mul2(t_j, a_inv))
        for s in (1, -1):
            gs = tuple(s * e for e in g)
            if gamma_qn_member(gs, q, q):
                return gs
    return None


def complete_to_unimodular(x: int, z: int) -> Mat:
    """(x, (x*u - 1)/z; z, u) with u = x^-1 mod z, or u = x = +-1 when z = 0:
    determinant 1, sending oo to x/z."""
    if math.gcd(x, z) != 1:
        raise RuntimeError(f"{x}/{z} is not reduced")
    u = pow(x, -1, z) if z else x
    return (x, (x * u - 1) // (z or 1), z, u)  # x*u - 1 = 0 when z = 0


def h_formula(q: int) -> int:
    """Number of level-q cusp classes: q^2/2 * prod(1 - 1/l^2), q >= 3."""
    check_step(q, 1, 3)
    return exact_int(Fraction(q * q, 2) * euler_product(q), f"cusp count for q = {q}")


@lru_cache(maxsize=8)
def enumerate_cusps(q: int) -> tuple[ClassPair, ...]:
    """The level-q cusp classes in ascending order: the pairs (x, z) with
    gcd(x, z, q) = 1 that are the lesser of +-(x, z), so x <= -x mod q,
    and z <= -z mod q where x = -x (x = 0 or q/2).  The cached tuple
    itself, so repeated calls share one object."""
    if not 3 <= q <= 60:
        raise ValueError("cusp enumeration supports 3 <= q <= 60")
    out = []
    for x in range(q // 2 + 1):
        g = math.gcd(x, q)
        zs = range(q // 2 + 1 if 2 * x % q == 0 else q)
        out += [(x, z) for z in zs if g == 1 or math.gcd(g, z) == 1]
    return tuple(out)


def h_n_formula(q: int, n: int) -> int:
    """Cusp count of the intermediate group: n*q*N(q/n)/2 * prod(1 - 1/l^2).

    Valid for q >= 5 (the width formula underneath it fails at q = 4).
    """
    check_step(q, n, 5)
    return exact_int(Fraction(n * q, 2) * mult_n(q // n) * euler_product(q),
                     f"cusp count for (q, n) = ({q}, {n})")


def tau_orbits(q: int, n: int) -> list[tuple[ClassPair, ...]]:
    """Orbits of translation-by-n on the level-q cusp classes.

    The translation acts by (x, z) -> (x + n*z, z); the orbit of x/z has
    size (q/n) / gcd(q/n, z).  Orbits are sorted by (size, representative).
    """
    check_step(q, n)
    classes = enumerate_cusps(q)  # holds the level guard, so it runs before the allocation
    seen = bytearray(q * q)
    orbits = []
    for x, z in classes:
        if not n * z % q:  # a step of 0: the class is fixed, and no walk reaches it
            orbits.append(((x, z),))
            continue
        key = x * q + z
        if seen[key]:
            continue
        orbit, s = [], n * z % q  # the step n*z, negated with the fold like x and z
        while not seen[key]:
            seen[key] = 1
            orbit.append((x, z))
            x = (x + s) % q
            if 2 * x > q or (x == 0 or 2 * x == q) and 2 * z > q:
                x, z, s = -x % q, -z % q, -s % q  # fold to the lesser of +-(x, z)
            key = x * q + z
        orbit.sort()
        orbits.append(tuple(orbit))
    # each orbit starts at its least class, so they arrive in representative order
    orbits.sort(key=len)
    return orbits


def orbit_rep(orbit: tuple[ClassPair, ...]) -> ClassPair:
    return orbit[0]


def width(q: int, n: int, c: Cusp) -> int:
    """Width of a cusp for the intermediate group of level q and step n.

    Closed form q / gcd(q/n, z) for q >= 5; brute force below (the closed
    form provably fails at level 4).
    """
    check_step(q, n)
    return _width(q, n, check_cusp(c))


def _width(q: int, n: int, c: Cusp) -> int:
    """width() once the level, the step and the cusp are checked."""
    if q <= 4:
        return width_bruteforce(q, n, c)
    return q // math.gcd(q // n, c[1])


def orbit_widths(q: int, n: int, orbits: list[tuple[ClassPair, ...]]) -> list[tuple[Cusp, int]]:
    """(lifted representative, width) per orbit, the level and step checked
    once: class_to_cusp already returns a coprime pair with z >= 0."""
    check_step(q, n)
    return [(c, _width(q, n, c)) for c in [class_to_cusp(q, o[0]) for o in orbits]]


def width_bruteforce(q: int, n: int, c: Cusp) -> int:
    """Least R >= 1 whose conjugated translation lands in the group (or its
    negative): R*z^2 = 0 (mod q), R*x^2 = 0 (mod n) and R*x*z = 0 (mod q),
    or for the negative R*x*z = 2 and R*x*z = -2 (mod q).  Those two
    together force 4 = 0 (mod q), so that branch is tested only for q <= 4.
    R*z^2 = 0 (mod q) holds exactly at the multiples of q / gcd(q, z^2), so
    only those R are tried, in turn; the other products are reduced once."""
    check_step(q, n)
    x, z = check_cusp(c)
    xz, xx, step = x * z % q, x * x % n, q // math.gcd(q, z * z)
    for r in range(step, q * n + 1, step):
        if r * xx % n == 0 and (
                r * xz % q == 0
                or q <= 4 and (r * xz - 2) % q == 0 and (r * xz + 2) % q == 0):
            return r
    raise RuntimeError("width scan exhausted")  # unreachable: R = q*n always works


def width_distribution(q: int, n: int) -> dict[int, int]:
    """Map width -> number of translation orbits with that width.

    Widths are n * prod(p_i^j_i) over exponent tuples 0 <= j_i <= r_i for
    q/n = prod(p_i^r_i); the count of each is h_q/(q/n) * prod(N3(j_i)).
    """
    check_step(q, n, 5)
    p = q // n
    fact = factorize(p)
    base = Fraction(h_formula(q), p)
    out: dict[int, int] = {}
    for js in product(*(range(r + 1) for _, r in fact)):
        w = n
        cnt = base
        for (pi, ri), j in zip(fact, js):
            w *= pi**j
            cnt *= n3(pi, ri, j)
        out[w] = exact_int(cnt, f"orbit count of width {w}")
    return dict(sorted(out.items()))


def orbit_width_sum(q: int, n: int) -> int:
    """Sum of widths over all translation orbits; must equal the group index."""
    return sum(w for _, w in orbit_widths(q, n, tau_orbits(q, n)))

