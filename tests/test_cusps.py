import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from modcurve import cusps
from modcurve.arith import divisors, mat_mul2
from modcurve.cusps import (class_to_cusp, complete_to_unimodular, cusp_action,
                            cusp_canonical, cusp_class_action, cusp_str,
                            enumerate_cusps, find_equivalence_witness,
                            gamma_qn_member, h_formula, h_n_formula,
                            orbit_width_sum, orbit_rep, orbit_widths,
                            tau_orbits, width, width_bruteforce,
                            width_distribution)
from modcurve.psl import r_n_formula


def orbit_width_sum_check(q: int, n: int, orbit: tuple) -> bool:
    """Index-p width sum: (q/n) * W(rep) must equal q * orbit size, the
    level-q width of every class being q."""
    rep = class_to_cusp(q, orbit_rep(orbit))
    return (q // n) * width(q, n, rep) == q * len(orbit)


def width_sum_matches_index(q: int, n: int) -> bool:
    return orbit_width_sum(q, n) == r_n_formula(q, n)


def n2(p_i: int, r_i: int, j: int) -> Fraction:
    """Per-prime factor counting level-q classes of width n * p_i^j inside
    the full cusp set (p = q/n = prod p_i^r_i)."""
    if j == 0:
        return Fraction(p_i, p_i + 1)
    if j == r_i:
        return Fraction(p_i ** (r_i + 1), p_i + 1)
    return Fraction((p_i - 1) * p_i**j, p_i + 1)


def _reference_classes(q: int) -> set:
    """Every residue pair folded to min(+-(x, z)) mod q, collected in a set."""
    out = set()
    for x in range(q):
        for z in range(q):
            if math.gcd(math.gcd(x, z), q) == 1:
                out.add(min((x, z), ((-x) % q, (-z) % q)))
    return out


def _reference_orbits(q: int, n: int) -> list:
    """Translation orbits walked from the sorted class set, folding each step
    by the min of the two sign tuples."""
    seen = set()
    orbits = []
    for cls in sorted(_reference_classes(q)):
        if cls in seen:
            continue
        orbit = []
        cur = cls
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            x, z = cur
            cur = min(((x + n * z) % q, z), ((-(x + n * z)) % q, (-z) % q))
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: (len(o), o[0]))
    return orbits


def _reference_width(q: int, n: int, c: tuple) -> int:
    """The two-branch width scan with every product taken afresh at each R:
    the plain congruences, then the negative-sign ones at any level."""
    x, z = c
    for r in range(1, q * n + 1):
        if (r * x * z) % q == 0 and (r * z * z) % q == 0 and (r * x * x) % n == 0:
            return r
        if ((r * x * z - 2) % q == 0 and (r * x * z + 2) % q == 0
                and (r * z * z) % q == 0 and (r * x * x) % n == 0):
            return r
    raise RuntimeError("width scan exhausted")


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

    @pytest.mark.parametrize("cls", [(2, 4), (2, 0)])
    def test_lift_rejects_non_coprime_class(self, cls):
        # gcd(x, z, q) = 2: no coprime lift of (2, 4) exists, and (2, 8) is no cusp
        with pytest.raises(ValueError):
            class_to_cusp(8, cls)
        with pytest.raises(ValueError):
            cusp_str(8, cls)


class TestWitness:
    def test_identity(self):
        assert find_equivalence_witness(8, (1, 0), (1, 0)) == (1, 0, 0, 1)

    def test_translated_cusp(self):
        g = find_equivalence_witness(8, (3, 8), (11, 8))
        assert g is not None
        assert gamma_qn_member(g, 8, 8)

    def test_inequivalent(self):
        assert find_equivalence_witness(8, (1, 4), (3, 4)) is None

    # Gamma(1) is all of SL(2, Z): every determinant-1 matrix is a member
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_level_one_takes_every_matrix(self, x, z, k):
        assume(math.gcd(x, z) == 1)
        assert gamma_qn_member(mat_mul2(complete_to_unimodular(x, z), (1, k, 0, 1)), 1, 1)

    def test_level_one_witness(self):
        g = find_equivalence_witness(1, (1, 0), (0, 1))
        assert g is not None and gamma_qn_member(g, 1, 1)
        assert cusp_action(g, (1, 0)) == (0, 1)

    # both used to return None, as if the classes differed
    @pytest.mark.parametrize("q", [0, -5])
    def test_rejects_level_below_one(self, q):
        with pytest.raises(ValueError, match=f"level q = {q} must be at least 1"):
            find_equivalence_witness(q, (1, 0), (1, 0))

    def test_completion_rejects_unreduced(self):
        # a RuntimeError, not an assert, so python -O keeps the check
        with pytest.raises(RuntimeError):
            complete_to_unimodular(2, 4)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_completion_is_unimodular(self, x, z):
        assume(math.gcd(x, z) == 1)
        a, b, c, d = complete_to_unimodular(x, z)
        assert (a, c) == (x, z) and a * d - b * c == 1
        if z:  # d is x's inverse mod z: x*d + z*(-b) = 1 is a Bezout pair
            assert x * d % z == 1 % z
        else:
            assert d == x

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

    # the sorted scan and the inline sign fold against the set-and-sort walk
    @pytest.mark.parametrize("q", range(3, 61))
    def test_matches_reference_walk(self, q):
        assert enumerate_cusps(q) == tuple(sorted(_reference_classes(q)))
        for n in divisors(q):
            assert tau_orbits(q, n) == _reference_orbits(q, n)

    @pytest.mark.parametrize("q", [3, 8, 24, 60])
    def test_cached_classes_survive_caller_edits(self, q):
        # the cache hands out its own tuple: every call gets the one value,
        # and a caller cannot edit it under the orbit walk
        classes = enumerate_cusps(q)
        assert type(classes) is tuple and enumerate_cusps(q) is classes
        with pytest.raises(TypeError):
            classes[0] = (q, q)
        assert cusps.enumerate_cusps.cache_info().maxsize == 8

    @pytest.mark.parametrize("q,n", [(3, 1), (8, 2), (24, 4), (60, 60)])
    def test_orbits_read_the_public_enumerator(self, monkeypatch, q, n):
        calls = []

        def counting(level):
            calls.append(level)
            return enumerate_cusps(level)

        monkeypatch.setattr(cusps, "enumerate_cusps", counting)
        assert tau_orbits(q, n) == _reference_orbits(q, n)
        assert calls == [q]

    # 10**6 and 10**10 would ask tau_orbits for a q*q seen mark of 1 TB and up
    @pytest.mark.parametrize("q", [-1, 0, 2, 61, 10**6, 10**10])
    def test_enumeration_guard(self, q):
        with pytest.raises(ValueError, match="3 <= q <= 60"):
            enumerate_cusps(q)
        if q > 0:
            with pytest.raises(ValueError, match="3 <= q <= 60"):
                tau_orbits(q, 1)


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

    @given(st.integers(1, 60).flatmap(
               lambda q: st.tuples(st.just(q), st.sampled_from(divisors(q)))),
           st.integers(-200, 200), st.integers(0, 200))
    def test_scan_matches_reference_scan(self, qn, x, z):
        q, n = qn
        assume(math.gcd(x, z) == 1 and (z > 0 or x == 1))
        assert width_bruteforce(q, n, (x, z)) == _reference_width(q, n, (x, z))

    def test_scan_matches_reference_scan_at_every_class(self):
        # every class of every (q, n) at levels 3..40: the scan tries only
        # multiples of q / gcd(q, z^2), the reference every R
        scans = 0
        for q in range(3, 41):
            for n in divisors(q):
                for cls in enumerate_cusps(q):
                    cusp = class_to_cusp(q, cls)
                    assert width_bruteforce(q, n, cusp) == _reference_width(q, n, cusp), (q, n, cls)
                    scans += 1
        assert scans == 39938

    # the levels dividing 4 (and 3) where the negative-sign branch is tested
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_scan_matches_reference_scan_at_small_levels(self, q):
        for n in divisors(q):
            for cls in sorted(_reference_classes(q)):
                cusp = class_to_cusp(q, cls)
                assert width_bruteforce(q, n, cusp) == _reference_width(q, n, cusp)


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

    @pytest.mark.parametrize("q", range(3, 13))
    def test_width_tally(self, q):
        # the tally the CLI prints below level 5 and verify compares above it
        for n in divisors(q):
            orbits = tau_orbits(q, n)
            brute = Counter(width_bruteforce(q, n, class_to_cusp(q, orbit_rep(o)))
                            for o in orbits)
            tally = Counter(w for _, w in orbit_widths(q, n, orbits))
            assert tally == brute
            if q >= 5:
                assert tally == width_distribution(q, n)

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


class TestOrbitWidths:
    @pytest.mark.parametrize("q", range(3, 61))
    def test_matches_width_at_each_rep(self, q):
        for n in divisors(q):
            orbits = tau_orbits(q, n)
            reps = [class_to_cusp(q, o[0]) for o in orbits]
            assert orbit_widths(q, n, orbits) == [(c, width(q, n, c)) for c in reps]

    @pytest.mark.parametrize("q", [3, 4])
    def test_scan_below_level5(self, q):
        # the closed form fails at level 4, so the helper must scan there too
        for n in divisors(q):
            pairs = orbit_widths(q, n, tau_orbits(q, n))
            assert pairs == [(c, width_bruteforce(q, n, c)) for c, _ in pairs]

    @pytest.mark.parametrize("q,n", [(8, 3), (8, 0), (12, 24), (0, 1)])
    def test_bad_step_raises_before_reading_orbits(self, q, n):
        class Unread:
            def __iter__(self):
                raise AssertionError("orbits read before the step check")
        with pytest.raises(ValueError, match="must"):
            orbit_widths(q, n, Unread())


class TestClassActionCompat:
    @pytest.mark.parametrize("q", [7, 8])
    def test_group_permutes_classes(self, q):
        from modcurve.psl import enumerate_psl
        classes = enumerate_cusps(q)
        for g in sorted(enumerate_psl(q))[:40]:
            image = {cusp_class_action(q, g, cls) for cls in classes}
            assert image == set(classes)

    @given(st.sampled_from([3, 4, 7, 8, 12, 25, 60]), st.lists(st.integers(-5, 5), max_size=6),
           st.integers(-50, 50), st.integers(0, 50))
    def test_class_action_follows_cusp_action(self, q, ks, x, z):
        assume(math.gcd(x, z) == 1 and (z or x == 1))
        g = (1, 0, 0, 1)
        for k in ks:
            g = mat_mul2(g, (k, -1, 1, 0))  # T^k S over Z; S and T generate SL(2, Z)
        c = (x, z)
        assert cusp_class_action(q, tuple(e % q for e in g), cusp_canonical(q, c)) == \
            cusp_canonical(q, cusp_action(g, c))


class TestInputRules:
    def test_action_needs_a_coprime_pair(self):
        with pytest.raises(ValueError, match="^cusp 2/4 is not a coprime pair$"):
            cusp_action((1, 0, 0, 1), (2, 4))
