from fractions import Fraction
from math import prod

import pytest

from modcurve.arith import divisors, factorize
from modcurve.genus import (euler_genus, genus_prime_quotient, genus_q,
                            genus_qn, hurwitz_deficiency,
                            is_semihyperelliptic_level)


def paper_genus(q, n):
    """The genus of the quotient by translation-by-n as the paper writes it,
    with N(p) = prod(1 + r*(l - 1)/(l + 1)) over p = prod l^r."""
    big_n = prod(1 + r * Fraction(l - 1, l + 1) for l, r in factorize(q // n))
    euler = prod(1 - Fraction(1, l * l) for l, _ in factorize(q))
    return 1 + (q - 6 * big_n) * Fraction(n * q, 24) * euler


class TestGenusQ:
    @pytest.mark.parametrize("q,g", [(6, 1), (7, 3), (8, 5), (12, 25), (19, 196)])
    def test_named_values(self, q, g):
        assert genus_q(q) == g


class TestGenusQn:
    @pytest.mark.parametrize("q,g", [(11, 1), (13, 2), (17, 5), (8, 0)])
    def test_named_values(self, q, g):
        assert genus_qn(q, 1) == g

    @pytest.mark.parametrize("q", range(5, 13))
    def test_full_divisor_collapses(self, q):
        assert genus_qn(q, q) == genus_q(q)

    def test_rejects(self):
        with pytest.raises(ValueError):
            genus_qn(4, 1)
        with pytest.raises(ValueError):
            genus_qn(8, 3)


class TestEulerRelation:
    def test_level8_pairs(self):
        assert euler_genus(24, 192) == 5
        assert euler_genus(6, 24) == 0
        assert euler_genus(10, 48) == 0

    def test_rejects_non_integral(self):
        with pytest.raises(ArithmeticError):
            euler_genus(3, 5)

    # the Euler relation of the counts against the closed form it yields,
    # 1 + (q - 6*N(q/n)) * n*q/24 * prod(1 - 1/l^2), typed here and nowhere in src
    @pytest.mark.parametrize("q", range(4, 31))
    def test_matches_closed_form(self, q):
        assert genus_q(q) == paper_genus(q, q)

    @pytest.mark.parametrize("q", range(5, 25))
    def test_matches_quotient_closed_form(self, q):
        for n in divisors(q):
            assert genus_qn(q, n) == paper_genus(q, n)


class TestPrimeQuotient:
    def test_rejects_type_two(self):
        with pytest.raises(ValueError):
            genus_prime_quotient(12)
        with pytest.raises(ValueError):
            genus_prime_quotient(2)

    @pytest.mark.parametrize("q", [10, 14, 22, 26])
    def test_unbranched_triple_cover(self, q):
        # the degree-3 projection from the half-translation quotient is
        # unbranched: 2 g' - 2 is a third of 2 g'' - 2
        assert 2 * genus_qn(q, 2) - 2 == 3 * (2 * genus_prime_quotient(q) - 2)


class TestHurwitz:
    def test_values(self):
        assert hurwitz_deficiency(192, 0, [8, 3, 2]) == 8
        assert hurwitz_deficiency(168, 0, [7, 3, 2]) == 4
        assert hurwitz_deficiency(77, 1, []) == 0

    def test_rejects(self):
        with pytest.raises(ValueError):
            hurwitz_deficiency(10, 0, [1])
        with pytest.raises(ArithmeticError):
            hurwitz_deficiency(5, 0, [2])

    @pytest.mark.parametrize("n", [1, 6, 12, 24, 35, 60])
    def test_matches_the_rational_sum(self, n):
        # integral exactly when the rational sum is, with the same value
        for g_bar in (0, 1, 3):
            for orders in ([], [2], [4, 6], [2, 3, 5], [6, 6, 9, 10]):
                s = n * (2 * g_bar - 2 + sum(1 - Fraction(1, m) for m in orders))
                if s.denominator == 1:
                    assert hurwitz_deficiency(n, g_bar, orders) == s
                else:
                    with pytest.raises(ArithmeticError, match=f": {s}$"):
                        hurwitz_deficiency(n, g_bar, orders)


class TestSemiHyperellipticLevels:
    def test_range(self):
        expect = {q for q in range(1, 61) if q <= 10 or q == 12}
        assert {q for q in range(1, 61) if is_semihyperelliptic_level(q)} == expect

    @pytest.mark.parametrize("q", [-1, 0])
    def test_rejects_level_below_one(self, q):
        with pytest.raises(ValueError, match="at least 1"):
            is_semihyperelliptic_level(q)

    def test_named(self):
        assert is_semihyperelliptic_level(8)
        assert is_semihyperelliptic_level(12)
        assert not is_semihyperelliptic_level(11)
        assert not is_semihyperelliptic_level(13)
