import pytest

from modcurve.arith import divisors
from modcurve.cusps import h_formula, h_n_formula
from modcurve.genus import (euler_genus, genus_prime_quotient, genus_q,
                            genus_qn, hurwitz_deficiency,
                            is_semihyperelliptic_level)
from modcurve.psl import r_formula, r_n_formula

TABLE_G = [0, 0, 0, 0, 0, 1, 3, 5, 10, 13, 26, 25, 50, 49, 73, 81, 133, 109, 196, 169]
TABLE_G1 = [0, 0, 0, 0, 0, 0, 1, 0, 2, 1, 1, 2, 5, 2, 7, 3]  # q = 5..20


class TestGenusQ:
    def test_table_row(self):
        assert [genus_q(q) for q in range(1, 21)] == TABLE_G

    @pytest.mark.parametrize("q,g", [(6, 1), (7, 3), (8, 5), (12, 25), (19, 196)])
    def test_named_values(self, q, g):
        assert genus_q(q) == g


class TestGenusQn:
    def test_table_row(self):
        assert [genus_qn(q, 1) for q in range(5, 21)] == TABLE_G1

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

    @pytest.mark.parametrize("q", range(4, 31))
    def test_matches_closed_form(self, q):
        assert genus_q(q) == euler_genus(h_formula(q), r_formula(q))

    @pytest.mark.parametrize("q", range(5, 25))
    def test_matches_quotient_closed_form(self, q):
        for n in divisors(q):
            assert genus_qn(q, n) == euler_genus(h_n_formula(q, n),
                                                 r_n_formula(q, n))


class TestPrimeQuotient:
    @pytest.mark.parametrize("q,g", [(10, 1), (14, 2), (22, 6), (26, 9),
                                     (34, 17), (38, 22)])
    def test_table(self, q, g):
        assert genus_prime_quotient(q) == g

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
