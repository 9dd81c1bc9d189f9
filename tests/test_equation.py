import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from modcurve import equation
from modcurve.arith import divisors
from modcurve.cusps import cusp_canonical, tau_orbits
from modcurve.curve import SemiHyperellipticCurve, curve_genus
from modcurve.equation import (RotationNumber, build_equation, equation_string,
                               exponent_from_rotation, normalize_equation,
                               normalize_with_convention, rotation_from_exponent,
                               rotation_number, rotation_of_class,
                               rotation_table, substitute_label, CONVENTIONS,
                               SemiHyperellipticEquation)
from modcurve.genus import genus_q


class TestRotationNumber:
    @pytest.mark.parametrize("cusp,expect", [
        ((1, 0), (1, 1)),
        ((3, 8), (1, 1)),
        ((1, 4), (2, 1)),
        ((1, 2), (4, 1)),
        ((1, 3), (8, 0)),  # unbranched
    ])
    def test_level8(self, cusp, expect):
        assert rotation_number(8, 1, cusp) == RotationNumber(*expect)

    def test_rejects_small_level(self):
        with pytest.raises(ValueError):
            rotation_number(4, 1, (1, 2))

    def test_bezout_choice_is_irrelevant(self):
        # w is determined mod z and gcd(p, z) divides z
        x, z = 3, 8
        g = math.gcd(8, z)
        ks = {((w * w) % g) for w in range(-50, 50) if (x * w) % z == 1 % z}
        assert len(ks) == 1

    @pytest.mark.parametrize("q", [5, 6, 7, 8, 9, 10, 12])
    def test_constant_on_orbits(self, q):
        for n in (1,):
            for orbit in tau_orbits(q, n):
                rots = {rotation_of_class(q, n, cls) for cls in orbit}
                assert len(rots) == 1

    @given(st.integers(5, 60).flatmap(
               lambda q: st.tuples(st.just(q), st.sampled_from(divisors(q)))),
           st.integers(-200, 200), st.integers(0, 200))
    def test_constant_on_orbits_random(self, qn, x, z):
        q, n = qn
        assume(math.gcd(x, z) == 1 and (z > 0 or x == 1))
        cls = cusp_canonical(q, (x, z))
        orbit = next(o for o in tau_orbits(q, n) if cls in o)
        assert {rotation_of_class(q, n, c) for c in orbit} == \
            {rotation_number(q, n, (x, z))}


class TestExponents:
    @pytest.mark.parametrize("p,rot,m", [
        (8, (1, 1), 1), (8, (2, 1), 2), (8, (4, 1), 4),
        (9, (3, 1), 3), (10, (2, 4), 8),
    ])
    def test_examples(self, p, rot, m):
        assert exponent_from_rotation(p, RotationNumber(*rot)) == m

    def test_uniqueness_by_scan(self):
        for p in range(2, 25):
            for m in range(1, p):
                rot = rotation_from_exponent(p, m)
                hits = [mm for mm in range(1, p)
                        if math.gcd(p, mm) == rot.orbit_len
                        and (rot.k * (mm // rot.orbit_len)) % (p // rot.orbit_len) == 1]
                assert hits == [m]

    def test_round_trip(self):
        for p in range(2, 25):
            for m in range(1, p):
                assert exponent_from_rotation(p, rotation_from_exponent(p, m)) == m

    def test_named_rotations(self):
        assert rotation_from_exponent(8, 4) == RotationNumber(4, 1)
        assert rotation_from_exponent(8, 1) == RotationNumber(1, 1)

    def test_rejects_unbranched(self):
        with pytest.raises(ValueError):
            exponent_from_rotation(8, RotationNumber(8, 0))

    def test_wrong_solution_raises(self, monkeypatch):
        # a RuntimeError, not an assert, so python -O keeps the check
        monkeypatch.setattr(equation, "solve_unit_congruence", lambda a, m: 2)
        with pytest.raises(RuntimeError):
            exponent_from_rotation(8, RotationNumber(1, 1))


class TestBuildEquation:
    @pytest.mark.parametrize("q,multiset", [
        (5, (1, 4)),
        (6, (1, 2, 3)),
        (7, (1, 2, 4)),
        (8, (1, 1, 2, 4)),
        (9, (1, 3, 3, 4, 7)),
        (10, (1, 2, 5, 5, 8, 9)),
        (12, (1, 1, 2, 3, 3, 4, 4, 6)),
    ])
    def test_exponent_multisets(self, q, multiset):
        assert build_equation(q, 1).exponent_multiset == multiset

    @pytest.mark.parametrize("q", [5, 6, 7, 8, 9, 10, 12])
    def test_exponent_sum_divisible(self, q):
        eq = build_equation(q, 1)
        assert sum(eq.exponent_multiset) % eq.p == 0

    def test_branched_orbits_detected_by_denominator(self):
        eq = build_equation(8, 1)
        for term in eq.terms:
            _, z = term.orbit[0]
            assert math.gcd(8, z) > 1

    def test_rejects_positive_genus(self):
        with pytest.raises(ValueError):
            build_equation(11, 1)

    def test_half_translation_quotient(self):
        # matches the degree-4 model x(x-1)(x+1)(x^2+1)^2 with one more
        # unit exponent at infinity
        eq = build_equation(8, 2)
        assert eq.exponent_multiset == (1, 1, 1, 1, 2, 2)
        assert curve_genus(SemiHyperellipticCurve.from_equation(
            normalize_with_convention(eq))) == genus_q(8)

    @pytest.mark.parametrize("q,n", [(8, 4), (9, 3), (10, 2), (12, 2)])
    def test_positive_genus_divisors_rejected(self, q, n):
        with pytest.raises(ValueError):
            build_equation(q, n)

    def test_table2(self):
        assert rotation_table(8, build_equation(8, 1)) == [
            ("1/0", 1, 1, 1), ("3/8", 1, 1, 1), ("1/4", 2, 1, 2), ("1/2", 4, 1, 4)]

    @pytest.mark.parametrize("q", [6, 7, 8, 9, 10, 12])
    def test_curve_genus_matches(self, q):
        eq = normalize_with_convention(build_equation(q, 1))
        assert curve_genus(SemiHyperellipticCurve.from_equation(eq)) == genus_q(q)


class TestNormalization:
    def test_level8_default(self):
        eq = normalize_with_convention(build_equation(8, 1))
        assert equation_string(eq) == "y^8 = x^2*(x-1)*(x-a)"
        assert eq.inf_exponent == 4

    def test_level7_default(self):
        eq = normalize_with_convention(build_equation(7, 1))
        assert equation_string(eq) == "y^7 = x*(x-1)^2"

    def test_level9_ascending(self):
        eq = normalize_with_convention(build_equation(9, 1), "ascending")
        assert equation_string(eq) == "y^9 = x*(x-1)^3*(x-p1)^3*(x-p2)^4"

    def test_level10_ascending(self):
        eq = normalize_with_convention(build_equation(10, 1), "ascending")
        assert equation_string(eq) == \
            "y^10 = x*(x-1)^2*(x-q1)^5*(x-q2)^5*(x-q3)^8"

    def test_level12_minimal(self):
        eq = normalize_with_convention(build_equation(12, 1), "minimal")
        assert equation_string(eq) == \
            "y^12 = x*(x-1)^2*(x-r1)^3*(x-r2)^3*(x-r3)^4*(x-r4)^4*(x-r5)^6"

    def test_multiset_preserved(self):
        raw = build_equation(10, 1)
        for convention in ("gcd", "ascending", "minimal"):
            normalized = normalize_with_convention(raw, convention)
            assert normalized.exponent_multiset == raw.exponent_multiset

    def test_explicit_indices(self):
        raw = build_equation(8, 1)
        by_m = {t.exponent: i for i, t in enumerate(raw.terms)}
        eq = normalize_equation(raw, by_m[4], by_m[2], by_m[1])
        assert equation_string(eq) == "y^8 = x^2*(x-1)*(x-a)"

    def test_rejects_duplicate_targets(self):
        raw = build_equation(8, 1)
        with pytest.raises(ValueError):
            normalize_equation(raw, 0, 0, 1)

    def test_substitution(self):
        eq = normalize_with_convention(build_equation(8, 1))
        solved = substitute_label(eq, "a", Fraction(-1))
        assert equation_string(solved) == "y^8 = x^2*(x-1)*(x+1)"

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            normalize_with_convention(build_equation(8, 1), "fancy")

    def test_level5_fully_determined(self):
        # only two branch orbits: the larger exponent goes to infinity, the other to 0
        eq = build_equation(5, 1)
        assert eq.exponent_multiset == (1, 4)
        for convention in CONVENTIONS:
            assert equation_string(normalize_with_convention(eq, convention)) == "y^5 = x"

    def test_fewer_than_two_orbits_rejected(self):
        with pytest.raises(ValueError):
            normalize_with_convention(SemiHyperellipticEquation(p=2, terms=()))
