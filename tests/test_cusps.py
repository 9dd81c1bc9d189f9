import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from modcurve.arith import divisors, n2
from modcurve.cusps import (class_to_cusp, cusp_canonical,
                            enumerate_cusps, find_equivalence_witness,
                            h_formula, h_n_formula, orbit_width_sum_check,
                            orbit_rep, tau_orbits, width, width_bruteforce,
                            width_distribution, width_sum_matches_index)
from modcurve.psl import gamma_qn_member, r_n_formula


class TestCanonical:
    def test_translation_equivalence(self):
        assert cusp_canonical(8, (3, 8)) == cusp_canonical(8, (11, 8))

    def test_quarter_classes_distinct(self):
        assert cusp_canonical(8, (1, 4)) != cusp_canonical(8, (3, 4))

    def test_level5_count(self):
        assert len({cusp_canonical(5, (x, z))
                    for x in range(-20, 21) for z in range(0, 21)
                    if math.gcd(x, z) == 1 and (z > 0 or (x, z) == (1, 0))}) == 12

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            cusp_canonical(8, (2, 4))

    def test_lift_roundtrip(self):
        for cls in enumerate_cusps(8):
            cusp = class_to_cusp(8, cls)
            assert math.gcd(*cusp) in (0, 1) or cusp[1] == 0
            assert cusp_canonical(8, cusp) == cls

    def test_lift_of_awkward_class(self):
        # (3, 6) mod 8 has no coprime representative with x < 8
        assert cusp_canonical(8, (11, 6)) == (3, 6)
        assert class_to_cusp(8, (3, 6)) == (11, 6)


class TestWitness:
    def test_identity(self):
        assert find_equivalence_witness(8, (1, 0), (1, 0)) == (1, 0, 0, 1)

    def test_translated_cusp(self):
        g = find_equivalence_witness(8, (3, 8), (11, 8))
        assert g is not None
        assert gamma_qn_member(g, 8, 8)

    def test_inequivalent(self):
        assert find_equivalence_witness(8, (1, 4), (3, 4)) is None

    @pytest.mark.parametrize("q", [5, 7, 8, 9])
    def test_witness_iff_same_class(self, q):
        cusps = [class_to_cusp(q, cls) for cls in sorted(enumerate_cusps(q))][:6]
        for c1 in cusps:
            for c2 in cusps:
                g = find_equivalence_witness(q, c1, c2)
                same = cusp_canonical(q, c1) == cusp_canonical(q, c2)
                assert (g is not None) == same
                if g is not None:
                    assert gamma_qn_member(g, q, q)


class TestCounts:
    @pytest.mark.parametrize("q,h", [(7, 24), (8, 24), (5, 12)])
    def test_formula(self, q, h):
        assert h_formula(q) == h
        assert len(enumerate_cusps(q)) == h

    @pytest.mark.parametrize("q", range(3, 25))
    def test_enumeration_matches_formula(self, q):
        assert len(enumerate_cusps(q)) == h_formula(q)

    def test_branched_subset_level8(self):
        branched = {cls for cls in enumerate_cusps(8) if math.gcd(8, cls[1]) > 1}
        expect = {cusp_canonical(8, c) for c in
                  [(1, 0), (3, 8), (1, 4), (3, 4), (1, 2), (3, 2), (5, 2), (7, 2)]}
        assert branched == expect


class TestOrbits:
    def test_level8_sizes(self):
        orbits = tau_orbits(8, 1)
        assert sorted(len(o) for o in orbits) == [1, 1, 2, 4, 8, 8]
        assert len(orbits) == h_n_formula(8, 1) == 6

    def test_level12_count(self):
        assert len(tau_orbits(12, 1)) == h_n_formula(12, 1) == 10

    def test_identity_translation(self):
        assert len(tau_orbits(8, 8)) == 24

    def test_orbit_size_from_denominator(self):
        for q in (8, 9, 12):
            for n in divisors(q):
                p = q // n
                for orbit in tau_orbits(q, n):
                    _, z = orbit_rep(orbit)
                    assert len(orbit) == p // math.gcd(p, z)

    @pytest.mark.parametrize("q", range(5, 25))
    def test_counts_match_formula(self, q):
        for n in divisors(q):
            assert len(tau_orbits(q, n)) == h_n_formula(q, n)


class TestWidths:
    def test_examples(self):
        assert width(8, 1, (1, 2)) == 4
        assert width_bruteforce(8, 1, (1, 0)) == 1
        assert width_bruteforce(8, 1, (1, 4)) == 2

    def test_level4_closed_form_fails(self):
        assert width(4, 1, (1, 2)) == 1
        assert width_bruteforce(4, 1, (1, 2)) == 1
        # the level-5 closed form would have said 4 / gcd(4, 2) = 2

    @pytest.mark.parametrize("q", [5, 7, 8, 12])
    def test_full_level_width_is_q(self, q):
        for cls in enumerate_cusps(q):
            assert width(q, q, class_to_cusp(q, cls)) == q

    @pytest.mark.parametrize("q", range(5, 17))
    def test_formula_matches_bruteforce(self, q):
        for n in divisors(q):
            for cls in enumerate_cusps(q):
                cusp = class_to_cusp(q, cls)
                assert width(q, n, cusp) == width_bruteforce(q, n, cusp)

    @given(st.integers(3, 60).flatmap(
               lambda q: st.tuples(st.just(q), st.sampled_from(divisors(q)))),
           st.integers(-200, 200), st.integers(0, 200))
    def test_closed_form_random(self, qn, x, z):
        q, n = qn
        assume(math.gcd(x, z) == 1 and (z > 0 or x == 1))
        assert width(q, n, (x, z)) == width_bruteforce(q, n, (x, z))


class TestWidthDistribution:
    @pytest.mark.parametrize("q,n,expect", [
        (8, 1, {1: 2, 2: 1, 4: 1, 8: 2}),
        (9, 1, {1: 3, 3: 2, 9: 3}),
        (10, 1, {1: 2, 2: 2, 5: 2, 10: 2}),
    ])
    def test_examples(self, q, n, expect):
        assert width_distribution(q, n) == expect

    @pytest.mark.parametrize("q", range(5, 19))
    def test_totals_and_direct_count(self, q):
        for n in divisors(q):
            dist = width_distribution(q, n)
            assert sum(dist.values()) == h_n_formula(q, n)
            assert sum(w * c for w, c in dist.items()) == r_n_formula(q, n)
            direct = {}
            for orbit in tau_orbits(q, n):
                w = width(q, n, class_to_cusp(q, orbit_rep(orbit)))
                direct[w] = direct.get(w, 0) + 1
            assert dist == direct

    @pytest.mark.parametrize("q", range(5, 15))
    def test_width_sum_equals_index(self, q):
        for n in divisors(q):
            assert width_sum_matches_index(q, n)

    @pytest.mark.parametrize("q,n", [(8, 1), (9, 3), (12, 2), (10, 2)])
    def test_class_width_counts(self, q, n):
        # number of level-q classes of each width with respect to the
        # intermediate group, against the per-prime product formula
        p = q // n
        counts = {}
        for cls in enumerate_cusps(q):
            w = q // math.gcd(p, cls[1])
            counts[w] = counts.get(w, 0) + 1
        from modcurve.arith import factorize
        from itertools import product as iproduct
        fact = factorize(p)
        for js in iproduct(*(range(r + 1) for _, r in fact)):
            w = n
            cnt = Fraction(h_formula(q), p)
            for (pi, ri), j in zip(fact, js):
                w *= pi**j
                cnt *= n2(pi, ri, j)
            assert counts.get(w, 0) == cnt


class TestOrbitWidthSums:
    @pytest.mark.parametrize("q", [5, 8, 9, 12])
    def test_orbit_width_sums(self, q):
        for n in divisors(q):
            for orbit in tau_orbits(q, n):
                assert orbit_width_sum_check(q, n, orbit)


class TestClassActionCompat:
    @pytest.mark.parametrize("q", [7, 8])
    def test_group_permutes_classes(self, q):
        from modcurve.psl import cusp_class_action, enumerate_psl
        classes = enumerate_cusps(q)
        for g in sorted(enumerate_psl(q))[:40]:
            image = {cusp_class_action(q, g, cls) for cls in classes}
            assert image == classes
