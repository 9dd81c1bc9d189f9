"""Exact scalar arithmetic kernel.

Everything here is integer or rational and exact: extended gcd, unit
congruences, trial-division factorization, the multiplicative counting
functions

    N(p)  = prod_i (1 + r_i * (p_i - 1)/(p_i + 1))      for p = prod p_i^r_i
    N1(j) = 1                 if j = 0
            (p + 1) * p^(j-1) if j >= 1
    N2(j) = p/(p+1), (p-1)p^j/(p+1), p^(r+1)/(p+1)      for j = 0, middle, r
    N3(j) = p/(p+1) for j in {0, r},  (p-1)/(p+1) else

which control cusp counts and width distributions, and the quotient ring
Z[t]/(t^d - 1) used for exact root-of-unity calculations.
"""

from __future__ import annotations

import math
from fractions import Fraction


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and a*u + b*v = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def solve_unit_congruence(u: int, v: int) -> int:
    """Unique k with 1 <= k < v and k*u = 1 (mod v); 0 for the vacuous v = 1.

    The modulus-1 case encodes "no rotation constraint" for unbranched
    points.  Requires gcd(u, v) = 1.
    """
    if v < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(u, v) != 1:
        raise ValueError(f"{u} is not a unit modulo {v}")
    if v == 1:
        return 0
    return pow(u, -1, v)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, r), ...] with p increasing.

    Trial division; intended inputs are small (well below 10**6).
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: list[tuple[int, int]] = []
    x = n
    p = 2
    while p * p <= x:
        if x % p == 0:
            r = 0
            while x % p == 0:
                x //= p
                r += 1
            out.append((p, r))
        p = 3 if p == 2 else p + 2
    if x > 1:
        out.append((x, 1))
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, r in factorize(n):
        ds = [d * p**j for d in ds for j in range(r + 1)]
    return sorted(ds)


def euler_product(q: int) -> Fraction:
    """prod(1 - 1/l^2) over the primes l dividing q."""
    out = Fraction(1)
    for l, _ in factorize(q):
        out *= 1 - Fraction(1, l * l)
    return out


def mult_n(p: int) -> Fraction:
    """The multiplicative function N(p); N(1) = 1."""
    out = Fraction(1)
    for pi, ri in factorize(p):
        out *= 1 + Fraction(ri * (pi - 1), pi + 1)
    return out


def n1(p_i: int, j: int) -> int:
    """Index of the congruence condition "lower-left entry divisible by p_i^j"."""
    if not is_prime(p_i):
        raise ValueError(f"{p_i} is not prime")
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return 1
    return (p_i + 1) * p_i ** (j - 1)


def n2(p_i: int, r_i: int, j: int) -> Fraction:
    """Per-prime factor counting classes of given width inside the full cusp set."""
    _check_nj(p_i, r_i, j)
    if j == 0:
        return Fraction(p_i, p_i + 1)
    if j == r_i:
        return Fraction(p_i ** (r_i + 1), p_i + 1)
    return Fraction((p_i - 1) * p_i**j, p_i + 1)


def n3(p_i: int, r_i: int, j: int) -> Fraction:
    """Per-prime factor counting translation orbits of given width."""
    _check_nj(p_i, r_i, j)
    if j == 0 or j == r_i:
        return Fraction(p_i, p_i + 1)
    return Fraction(p_i - 1, p_i + 1)


def _check_nj(p_i: int, r_i: int, j: int) -> None:
    if not is_prime(p_i):
        raise ValueError(f"{p_i} is not prime")
    if r_i < 1:
        raise ValueError("exponent r must be >= 1")
    if not 0 <= j <= r_i:
        raise ValueError(f"j = {j} out of range [0, {r_i}]")


class Cyclotomic:
    """Element of Z[t]/(t^d - 1), stored as a dense coefficient tuple.

    A quotient ring, not a field: good enough for verifying identities
    among d-th roots of unity without minimal-polynomial machinery.
    Immutable; scalars (int, Fraction) coerce to constants.
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs):
        if d < 1:
            raise ValueError("modulus d must be >= 1")
        coeffs = tuple(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"need exactly {d} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def scalar(cls, d: int, c) -> "Cyclotomic":
        return cls(d, (c,) + (0,) * (d - 1))

    @classmethod
    def root(cls, d: int, k: int = 1) -> "Cyclotomic":
        """t^k in Z[t]/(t^d - 1)."""
        coeffs = [0] * d
        coeffs[k % d] = 1
        return cls(d, coeffs)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.d != self.d:
                raise ValueError(f"modulus mismatch: {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.scalar(self.d, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.d, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.d, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.d, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.d, [a * other if a else 0 for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d
        out = [0] * d
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b == 0:
                    continue
                out[(i + j) % d] += a * b
        return Cyclotomic(d, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the quotient ring")
        result = Cyclotomic.scalar(self.d, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.d, self.coeffs))

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            elif a == 1:
                terms.append(f"t^{i}" if i > 1 else "t")
            else:
                terms.append(f"{a}*t^{i}" if i > 1 else f"{a}*t")
        return " + ".join(terms) if terms else "0"


class GaussRational:
    """Exact a + b*i with rational a, b; the honest ring for identities that
    need an actual square root of -1 (Z[t]/(t^d - 1) has none: t^(d/2) and
    -1 stay distinct there)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("GaussRational is immutable")

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

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
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRational({self.re}, {self.im})"


GAUSS_I = GaussRational(0, 1)
