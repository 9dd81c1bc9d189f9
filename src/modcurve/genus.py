"""Genus formulas for the modular curves of principal congruence type.

g_q for the level-q curve, g_q^n for the quotient by translation-by-n,
the Euler relation g = 1 - h/2 + R/12 (valid because the groups act freely
on the upper half plane once q >= 4: their elements have trace 2 mod q,
while elliptic elements of SL(2, Z) have trace in {-1, 0, 1}), the genus
of the order-3p quotient for q = 2p of type I, and a Hurwitz-relation
helper.  All arithmetic is exact; a fractional genus raises instead of
rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import check_step, divisors, euler_product, exact_int, mult_n
from .psl import type_classify


def genus_q(q: int) -> int:
    """Genus of the level-q curve; 0 for q in {1, 2} by convention (sphere)."""
    check_step(q, 1)
    if q <= 2:
        return 0
    return exact_int(1 + Fraction((q - 6) * q * q, 24) * euler_product(q),
                     f"genus for q = {q}")


def genus_qn(q: int, n: int) -> int:
    """Genus of the quotient by translation-by-n, for q >= 5 and n | q:
    1 + (q - 6*N(q/n)) * n*q/24 * prod(1 - 1/l^2)."""
    check_step(q, n, 5)
    return exact_int(1 + (q - 6 * mult_n(q // n)) * Fraction(n * q, 24) * euler_product(q),
                     f"genus for (q, n) = ({q}, {n})")


def euler_genus(h: int, r: int) -> int:
    """g = 1 - h/2 + R/12 from a cusp count and an index, for free actions."""
    num = 12 - 6 * h + r
    if num % 12:
        raise ArithmeticError(f"1 - {h}/2 + {r}/12 is not an integer")
    return num // 12


def genus_prime_quotient(q: int) -> int:
    """Genus of the quotient of the level-2p curve by its order-3p
    automorphism, for type I q = 2p >= 10:
    1 + (p - 3*N(p)) * p/12 * prod over primes l | p of (1 - 1/l^2)."""
    if type_classify(q) != "I":
        raise ValueError(f"q = {q} is not of type I")
    check_step(q, 1, 10)
    p = q // 2
    return exact_int(1 + (p - 3 * mult_n(p)) * Fraction(p, 12) * euler_product(p),
                     f"genus for q = {q}")


def hurwitz_deficiency(n_autos: int, g_bar: int, branch_orders: list[int]) -> int:
    """2g - 2 from the Hurwitz relation N*(2*g_bar - 2 + sum(1 - 1/m_i))."""
    if any(m < 2 for m in branch_orders):
        raise ValueError("branch orders must be >= 2")
    s = Fraction(2 * g_bar - 2)
    for m in branch_orders:
        s += 1 - Fraction(1, m)
    return exact_int(n_autos * s, "Hurwitz relation value")


def is_semihyperelliptic_level(q: int) -> bool:
    """True when the level-q curve admits a cyclic quotient of genus zero,
    i.e. the curve itself has genus 0 or some translation quotient does."""
    return genus_q(q) == 0 or any(genus_qn(q, n) == 0 for n in divisors(q))
