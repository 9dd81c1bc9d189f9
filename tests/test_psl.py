import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from modcurve import cli, psl
from modcurve.cusps import (cusp_action, cusp_canonical, cusp_class_action,
                            enumerate_cusps, gamma_qn_member, h_formula)
from modcurve.genus import genus_q, hurwitz_deficiency
from modcurve.psl import (center, element_order, enumerate_psl,
                          maps_between_cusps,
                          max_element_order, max_order_formula,
                          projective_element_order, r_formula,
                          r_n_formula, scalar_units, sign_center,
                          type_classify)


class TestEnumeration:
    @pytest.mark.parametrize("q,size", [(2, 6), (7, 168), (8, 192)])
    def test_sizes(self, q, size):
        assert len(enumerate_psl(q)) == size

    @pytest.mark.parametrize("q", range(3, 31))
    def test_matches_index_formula(self, q):
        assert len(enumerate_psl(q)) == r_formula(q)

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_psl(50)

    @pytest.mark.parametrize("q", [2, 8, 15, 24])
    def test_one_cached_tuple_per_level(self, q):
        # each call hands out the cached value itself, not a fresh copy
        group, lams = enumerate_psl(q), scalar_units(q)
        assert type(group) is tuple and group is psl._reps(q, psl._signs(q))
        assert type(lams) is tuple and scalar_units(q) is lams


class TestEnumerationGuard:
    """The guard runs before any brute-force work, the scalar scan included."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        levels, scan = [], psl.scalar_units
        monkeypatch.setattr(psl, "scalar_units", lambda q: levels.append(q) or scan(q))
        return levels

    @pytest.mark.parametrize("flag", ["--max-order", "--center"])
    def test_group_rejects_before_the_scalar_scan(self, scanned, capsys, flag):
        assert cli.main(["group", "--q", "1000000", flag]) == 2
        assert "enumeration supports 2 <= q <= 40" in capsys.readouterr().err
        assert all(q <= psl.ENUM_GUARD for q in scanned)

    def test_projective_order_reads_no_scalars(self, scanned):
        assert projective_element_order(10007, (1, 1, 0, 1)) == 10007
        assert scanned == []

    @pytest.mark.parametrize("fn", [scalar_units, max_element_order, center])
    @pytest.mark.parametrize("q", [0, 1, 41])
    def test_one_range_and_message(self, fn, q):
        with pytest.raises(ValueError, match=f"^enumeration supports 2 <= q <= 40, got {q}$"):
            fn(q)


class TestIndexFormulas:
    def test_values(self):
        assert r_formula(12) == 576
        assert r_n_formula(8, 8) == 192 == r_formula(8)
        assert r_n_formula(8, 1) == 24

    def test_rejects(self):
        with pytest.raises(ValueError):
            r_formula(2)
        with pytest.raises(ValueError):
            r_n_formula(8, 3)


class TestOrders:
    def test_identity(self):
        assert element_order(5, (1, 0, 0, 1)) == 1

    @pytest.mark.parametrize("q", [3, 5, 8, 12])
    def test_translation_has_order_q(self, q):
        assert element_order(q, (1, 1, 0, 1)) == q

    def test_type_one_witness(self):
        # (p+1, 1; p, 1) mod 2p has order 3p
        assert element_order(10, (6, 1, 5, 1)) == 15

    @pytest.mark.parametrize("q,typ,order", [(10, "I", 15), (8, "II", 8),
                                             (2, "I", 3), (6, "II", 6)])
    def test_max_order(self, q, typ, order):
        assert type_classify(q) == typ
        assert max_order_formula(q) == order
        assert max_element_order(q) == order

    def test_sign_quotient_outgrows_projective(self):
        # 4I is a scalar mod 15, so the sign quotient has the longer element
        m = (4, 4, 0, 4)
        assert element_order(15, m) == 30
        assert projective_element_order(15, m) == 15
        assert scalar_units(15) == (1, 4, 11, 14)

    @pytest.mark.parametrize("q", [8, 10, 12])
    def test_orders_bounded_by_formula(self, q):
        bound = max_order_formula(q)
        assert all(projective_element_order(q, g) <= bound
                   for g in enumerate_projective(q))


class TestCenter:
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_projective_center_trivial(self, q):
        assert center(q) == {(1, 0, 0, 1)}

    @pytest.mark.parametrize("q,size", [(16, 2), (32, 2), (8, 1), (15, 1),
                                        (24, 1), (29, 1), (40, 1)])
    def test_projective_center_size(self, q, size):
        # nontrivial exactly when 16 | q
        assert len(center(q)) == size

    def test_level16_central_class(self):
        assert center(16) == {(1, 0, 0, 1), (3, 8, 8, 11)}

    def test_full_scan_rejects_a_candidate(self, monkeypatch):
        # (3, 8; 8, 11) passes the T and S filter but does not commute with
        # (1, 0; 0, 0), a matrix outside the group; in the real group every
        # candidate is central, so only a class like this lets the scan over
        # every class reject one
        monkeypatch.setattr(psl, "_reps", lambda q, lams: ((1, 0, 0, 1), (3, 8, 8, 11),
                                                           (1, 0, 0, 0)))
        assert center(16) == {(1, 0, 0, 1)}

    @pytest.mark.parametrize("fn,q,scanned", [
        (center, 8, []), (center, 24, []), (center, 29, []), (center, 40, []),
        (sign_center, 8, []), (center, 16, [(3, 8, 8, 11)]),
        (center, 32, [(7, 16, 16, 23)])])
    def test_scan_skips_scalar_candidates(self, monkeypatch, fn, q, scanned):
        # a scalar class commutes with every class by definition, so only the
        # non-scalar survivors of the T and S filter are scanned: at level 8
        # the sign center's {I, 3I} needs no scan at all
        assert commutation_calls(monkeypatch, fn, q)[1] == scanned

    @pytest.mark.parametrize("q", range(2, 41))
    def test_commuting_with_t_forces_2c_zero(self, q):
        # the T equations give 2c = 0 whatever the scalar, so the center scan
        # may reject by 2c before it tries any scalar
        t = (1, 1, 0, 1)
        for lams in (scalar_units(q), psl._signs(q)):
            for g in psl._reps(q, lams):
                gt, tg = mat_mul(q, g, t), mat_mul(q, t, g)
                if any(gt == tuple(lam * e % q for e in tg) for lam in lams):
                    assert 2 * g[2] % q == 0, (q, lams, g)

    @pytest.mark.parametrize("fn,q,tried", [(center, 40, 160), (center, 29, 406),
                                            (center, 24, 48), (sign_center, 8, 32)])
    def test_scalar_loops_run_only_where_2c_is_zero(self, monkeypatch, fn, q, tried):
        # of 5,760 classes at level 40 only the 160 with 2c = 0 try the scalars
        # against T and S
        tested = commutation_calls(monkeypatch, fn, q)[0]
        assert len(tested) == tried
        assert all(2 * g[2] % q == 0 for g in tested)

    def test_sign_center_level8(self):
        assert sign_center(8) == {psl_canon(8, (1, 0, 0, 1)),
                                  psl_canon(8, (3, 0, 0, 3))}

    def test_projective_size(self):
        assert len(enumerate_projective(8)) == 96


def commutation_calls(monkeypatch, fn, q):
    """The classes that fn(q) hands to the one commutation test, split by the
    group each call receives: the pair (T, S), then the classes of the quotient."""
    pair, calls, test = ((1, 1, 0, 1), (0, q - 1, 1, 0)), [], psl._commutes_with_all
    monkeypatch.setattr(psl, "_commutes_with_all",
                        lambda q, lams, g, group: calls.append((g, group)) or test(q, lams, g, group))
    fn(q)
    return ([g for g, group in calls if group == pair],
            [g for g, group in calls if group != pair])


def enumerate_projective(q):
    """SL(2, Z/qZ) modulo all scalars, from the library's generator."""
    return psl._reps(q, scalar_units(q))


def enumerate_sl(q):
    """All of SL(2, Z/qZ), by solving a*d = 1 + b*c for d: the reference the
    library's direct generation of least class members is checked against."""
    out = []
    for a in range(q):
        g = math.gcd(a, q)
        qg = q // g
        ainv = pow(a // g, -1, qg) if qg > 1 else 0
        for b in range(q):
            for c in range(q):
                rhs = (1 + b * c) % q
                if rhs % g:
                    continue
                d0 = (rhs // g) * ainv % qg
                out += [(a, b, c, d0 + k * qg) for k in range(g)]
    return out


def mat_mul(q, m1, m2):
    """The product m1 * m2 mod q, for the reference oracles below; the
    library's kernels multiply inline and share no code with it."""
    a, b, c, d = m1
    e, f, g, h = m2
    return ((a * e + b * g) % q, (a * f + b * h) % q,
            (c * e + d * g) % q, (c * f + d * h) % q)


def psl_canon(q, m):
    """Canonical representative of {M, -M} mod q."""
    m = tuple(x % q for x in m)
    n = tuple(-x % q for x in m)
    return min(m, n)


def projective_canon(q, m):
    """Canonical representative of the scalar class {lambda * M}."""
    return min(tuple((lam * x) % q for x in m) for lam in scalar_units(q))


def _commute(q, canon, g, h):
    """Whether gh and hg fall in one class of the quotient canon names."""
    return canon(q, mat_mul(q, g, h)) == canon(q, mat_mul(q, h, g))


def _st_word(q, ks):
    """The product of T^k S = (k, -1; 1, 0) over ks, reduced mod q.  S and T
    generate SL(2, Z), which maps onto SL(2, Z/qZ), so these words reach the
    whole group without enumerating it."""
    m = (1, 0, 0, 1)
    for k in ks:
        m = mat_mul(q, m, (k, -1, 1, 0))
    return m


ST_WORDS = st.lists(st.integers(0, 39), max_size=8)


def _reference_order(q, g, canon):
    """Order of g in a quotient, canonicalizing every power.  Every element
    of GL(2, Z/qZ) has order below q^2, so a walk that has not returned by
    then was handed a matrix outside SL and fails instead of hanging."""
    ident, x = canon(q, (1, 0, 0, 1)), canon(q, g)
    for k in range(1, q * q + 1):
        if x == ident:
            return k
        x = canon(q, mat_mul(q, x, g))
    raise AssertionError(f"{g} has no order below {q * q} mod {q}")


def _matrix_walk_order(q, g, lams):
    """Least k >= 1 with g^k = lam * I for some lam in lams, multiplying the
    four entries of each power by g inline: the reference for the library's
    trace-recurrence kernels, sharing no code with them.  Bounded at q^2
    steps, as _reference_order is."""
    a0, b0, c0, d0 = a, b, c, d = g
    for k in range(1, q * q + 1):
        if not (b or c or a != d or a not in lams):
            return k
        a, b = (a * a0 + b * c0) % q, (a * b0 + b * d0) % q
        c, d = (c * a0 + d * c0) % q, (c * b0 + d * d0) % q
    raise AssertionError(f"{g} has no order below {q * q} mod {q}")


class TestAgainstDefinitions:
    """The cached representative sets and the scalar-aware oracles against
    the canonical forms psl_canon and projective_canon applied to each
    element and product."""

    @pytest.mark.parametrize("q", range(2, 41))
    def test_representative_sets(self, q):
        # the whole of SL filtered by each canonical form, against the direct
        # generation; the cached tuples are in lexicographic order.  Lengths,
        # then the first differing element: pytest's diff of two whole lists
        # of a broken generator ran past 40 s
        sl = enumerate_sl(q)
        assert len(sl) == (2 * r_formula(q) if q > 2 else 6)
        for enum, canon in ((enumerate_psl, psl_canon), (enumerate_projective, projective_canon)):
            got, want = enum(q), sorted({canon(q, m) for m in sl})
            assert len(got) == len(want)
            assert next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None) is None

    @pytest.mark.parametrize("q", range(2, 41))
    def test_each_primitive_row_has_q_completions(self, q):
        # with lams = (1,) each class is one matrix, so _reps is all of SL; the
        # unwrapped call leaves the cache alone.  Each row (a, b) with
        # gcd(a, b, q) = 1 has exactly q completions (c, d), the count the
        # two-progression solve for non-unit a rests on, and no other row appears
        before = psl._reps.cache_info()
        sl = psl._reps.__wrapped__(q, (1,))
        assert psl._reps.cache_info() == before
        assert len(set(sl)) == len(sl) and all((a * d - b * c) % q == 1 for a, b, c, d in sl)
        rows = Counter((a, b) for a, b, _, _ in sl)
        assert dict(rows) == {(a, b): q for a in range(q) for b in range(q)
                              if math.gcd(a, b, q) == 1}

    @pytest.mark.parametrize("q", range(2, 17))
    def test_center_by_direct_scan(self, q):
        sl = enumerate_sl(q)
        for found, canon in ((center(q), projective_canon), (sign_center(q), psl_canon)):
            group = {canon(q, m) for m in sl}
            assert found == {g for g in group
                             if all(_commute(q, canon, g, h) for h in group)}

    @pytest.mark.parametrize("q,central", [(32, {(1, 0, 0, 1), (7, 16, 16, 23)}),
                                           (40, {(1, 0, 0, 1)})])
    def test_center_at_large_levels(self, q, central):
        # T and S generate the group, so the classes commuting with both are
        # the center; each is then checked against every class as well
        group = {projective_canon(q, m) for m in enumerate_sl(q)}
        found = {g for g in group if all(_commute(q, projective_canon, g, h)
                                         for h in ((1, 1, 0, 1), (0, q - 1, 1, 0)))}
        assert all(_commute(q, projective_canon, g, h) for g in found for h in group)
        assert center(q) == found == central

    @pytest.mark.parametrize("q", range(2, 25))
    def test_max_order_by_reference_walk(self, q):
        group = {projective_canon(q, m) for m in enumerate_sl(q)}
        assert max_element_order(q) == max(
            _reference_order(q, g, projective_canon) for g in group)

    @pytest.mark.parametrize("q", range(2, 41))
    def test_max_order_by_matrix_walk(self, monkeypatch, q):
        lams, group = scalar_units(q), enumerate_projective(q)
        walked = [_matrix_walk_order(q, g, lams) for g in group]
        assert max_element_order(q) == max(walked)
        # the maximum over a one-class set is that class's order, so the
        # kernel's order of every class is checked, not only the largest
        one = []
        monkeypatch.setattr(psl, "_reps", lambda q, lams: one)
        for g, order in zip(group, walked):
            one[:] = [g]
            assert max_element_order(q) == order

    @pytest.mark.parametrize("q,walks", [(40, 65), (29, 29)])
    def test_max_order_walks_each_pair_once(self, monkeypatch, q, walks):
        # one projective walk per distinct (m, t mod m) with m > 1, each on
        # the companion matrix (t, -1; 1, 0) mod m
        calls, walk = [], psl.projective_element_order
        monkeypatch.setattr(psl, "projective_element_order",
                            lambda m, g: calls.append((m, g)) or walk(m, g))
        assert max_element_order(q) == max_order_formula(q)
        assert len(calls) == len(set(calls)) == walks
        assert all(g[1:] == (m - 1, 1, 0) for m, g in calls)

    @pytest.mark.parametrize("order", [[(1, 0, 0, 1), (1, 1, 0, 1)],
                                       [(1, 1, 0, 1), (1, 0, 0, 1)]])
    def test_max_order_tells_classes_of_one_trace_apart(self, monkeypatch, order):
        # I and T share the trace 2 at level 8 but have m = 1 and m = 8, so
        # a walk keyed by trace alone gets one of the two orders wrong
        monkeypatch.setattr(psl, "_reps", lambda q, lams: order)
        assert sorted(_matrix_walk_order(8, g, scalar_units(8)) for g in order) == [1, 8]
        assert max_element_order(8) == 8

    @pytest.mark.parametrize("q", [8, 12, 15, 16])
    def test_orders_by_reference_walk(self, q):
        for g in enumerate_psl(q):
            assert element_order(q, g) == _reference_order(q, g, psl_canon)
            assert projective_element_order(q, g) == \
                _reference_order(q, g, projective_canon)


class TestKernelsAgainstReference:
    """The call-free order walk, the single enumeration per level and the
    determinant check, against the reference helpers above."""

    @given(st.integers(2, 40), ST_WORDS)
    def test_orders_of_random_words(self, q, ks):
        g = _st_word(q, ks)
        assert element_order(q, g) == _reference_order(q, g, psl_canon)
        assert projective_element_order(q, g) == \
            _reference_order(q, g, projective_canon)

    @given(st.integers(2, 16), ST_WORDS)
    def test_commutation_scan_of_random_words(self, q, ks):
        g, group = _st_word(q, ks), enumerate_projective(q)
        assert psl._commutes_with_all(q, scalar_units(q), g, group) == \
            all(_commute(q, projective_canon, g, h) for h in group)

    def test_commutation_scan_rejects_t(self):
        q = 29
        assert not psl._commutes_with_all(q, scalar_units(q), (1, 1, 0, 1),
                                          enumerate_projective(q))

    @given(st.integers(2, 40), ST_WORDS, st.data())
    def test_powers_follow_trace_recurrence(self, q, ks, data):
        # g^k = s_k*g - s_(k-1)*I, s_0 = 0, s_1 = 1, s_(k+1) = t*s_k - s_(k-1)
        g = _st_word(q, ks)
        a, b, c, d = g
        s0, s1, power = 0, 1, g
        for _ in range(data.draw(st.integers(1, 3 * q)) - 1):
            s0, s1 = s1, (a + d) * s1 - s0
            power = mat_mul(q, power, g)
        assert power == tuple(x % q for x in (s1 * a - s0, s1 * b,
                                              s1 * c, s1 * d - s0))

    @pytest.mark.parametrize("q", [32, 36, 40])
    def test_projective_set_at_large_levels(self, q):
        # 4 to 8 scalars at these levels: each generated member has
        # determinant 1 and is the least of its scalar class
        for m in enumerate_projective(q):
            a, b, c, d = m
            assert (a * d - b * c) % q == 1 and projective_canon(q, m) == m

    @pytest.mark.parametrize("first,second", [(enumerate_psl, enumerate_projective),
                                              (enumerate_projective, enumerate_psl)])
    def test_composite_level_enumerated_once(self, first, second):
        # level 24 has eight scalars: two keys, each generated once
        psl._reps.cache_clear()
        for _ in range(2):
            first(24)
            second(24)
        info = psl._reps.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (2, 2, 8)

    def test_level_two_enumerated_once(self):
        # -I = I mod 2, so the sign and projective sets are the same 6 matrices
        psl._reps.cache_clear()
        signs = enumerate_psl(2)
        assert enumerate_projective(2) is signs and len(signs) == 6
        assert psl._reps.cache_info().misses == 1

    @pytest.mark.parametrize("order", [element_order, projective_element_order])
    @pytest.mark.parametrize("q", [-1, 0, 1])
    def test_rejects_level_below_two(self, order, q):
        with pytest.raises(ValueError, match="level"):
            order(q, (1, 0, 0, 1))

    @pytest.mark.parametrize("order", [element_order, projective_element_order])
    @pytest.mark.parametrize("q,m", [(5, (2, 0, 0, 2)), (6, (1, 1, 1, 1))])
    def test_rejects_non_sl_input(self, order, q, m):
        # determinants 4 mod 5 and 0 mod 6; no power of the second is scalar
        with pytest.raises(ValueError, match="determinant"):
            order(q, m)


class TestMembership:
    def test_translation_generator(self):
        assert gamma_qn_member((1, 2, 0, 1), 8, 2)

    def test_wrong_translation(self):
        assert not gamma_qn_member((1, 1, 0, 1), 8, 2)

    def test_level4_witness(self):
        # (-4m+1, 2m; -8m, 4m+1) at m = 1
        assert gamma_qn_member((-3, 2, -8, 5), 4, 1)

    def test_rejects_bad_det(self):
        with pytest.raises(ValueError):
            gamma_qn_member((1, 1, 1, 1), 8, 1)


class TestCuspAction:
    def test_identity_fixes(self):
        for cusp in [(1, 0), (0, 1), (3, 8), (-2, 5)]:
            assert cusp_action((1, 0, 0, 1), cusp) == cusp

    def test_examples(self):
        assert cusp_action((3, 1, 8, 3), (1, 0)) == (3, 8)
        assert cusp_action((0, -1, 1, 0), (1, 0)) == (0, 1)

    # deferred, so a broken enumeration fails this test at its first draw
    # instead of failing the collection of the whole module
    @settings(max_examples=50)
    @given(st.deferred(lambda: st.sampled_from(sorted(enumerate_psl(8)))),
           st.deferred(lambda: st.sampled_from(sorted(enumerate_psl(8)))),
           st.deferred(lambda: st.sampled_from(sorted(enumerate_cusps(8)))))
    def test_class_action_is_action(self, g, h, cls):
        gh = psl_canon(8, mat_mul(8, g, h))
        assert cusp_class_action(8, gh, cls) == \
            cusp_class_action(8, g, cusp_class_action(8, h, cls))

    @given(st.integers(2, 40), ST_WORDS, ST_WORDS, ST_WORDS)
    def test_class_action_is_action_at_random_levels(self, q, g, h, c):
        g, h = _st_word(q, g), _st_word(q, h)
        # S and T act transitively on the cusps, so c is any class
        cls = cusp_class_action(q, _st_word(q, c), (1, 0))
        assert cusp_class_action(q, mat_mul(q, g, h), cls) == \
            cusp_class_action(q, g, cusp_class_action(q, h, cls))


class TestTransporters:
    def test_count_and_behavior(self):
        inf_cls = cusp_canonical(8, (1, 0))
        tgt = cusp_canonical(8, (3, 8))
        movers = maps_between_cusps(8, inf_cls, tgt)
        assert len(movers) == 8
        quarter = {cusp_canonical(8, (1, 4)), cusp_canonical(8, (3, 4))}
        halves = {cusp_canonical(8, (x, 2)) for x in (1, 3, 5, 7)}
        for g in movers:
            assert cusp_class_action(8, g, tgt) == inf_cls
            assert {cusp_class_action(8, g, c) for c in quarter} == quarter
            assert {cusp_class_action(8, g, c) for c in halves} == halves

    def test_stabilizer_by_orbit_counting(self):
        inf_cls = cusp_canonical(8, (1, 0))
        stab = maps_between_cusps(8, inf_cls, inf_cls)
        assert len(stab) == 192 // 24  # |G| / number of cusp classes

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_against_filter_of_sl(self, data):
        q = data.draw(st.integers(3, 24))
        c1, c2 = (data.draw(st.sampled_from(enumerate_cusps(q))) for _ in range(2))
        assert maps_between_cusps(q, c1, c2) == sorted(
            {psl_canon(q, g) for g in enumerate_sl(q) if cusp_class_action(q, g, c1) == c2})

    @pytest.mark.parametrize("q", range(3, 41))
    def test_equals_scan_of_the_group(self, q):
        # every class pair up to level 8, then 20 seeded pairs per level with
        # c1 = infinity among them; each c1's images are read off one scan
        classes = enumerate_cusps(q)
        pairs = [(c1, c2) for c1 in classes for c2 in classes]
        if q > 8:
            rng = random.Random(q)
            pairs = [((1, 0), rng.choice(classes))] + rng.sample(pairs, 19)
        scans = {}
        for c1, c2 in pairs:
            if c1 not in scans:
                scans[c1] = {}
                for g in enumerate_psl(q):
                    scans[c1].setdefault(cusp_class_action(q, g, c1), []).append(g)
            movers = maps_between_cusps(q, c1, c2)
            assert movers == scans[c1][c2], (c1, c2)
            assert len(movers) == r_formula(q) // h_formula(q)

    def test_builds_no_group(self):
        psl._reps.cache_clear()
        movers = maps_between_cusps(33, (1, 0), cusp_canonical(33, (1, 3)))
        assert len(movers) == 33 and psl._reps.cache_info().misses == 0

    @pytest.mark.parametrize("q", [41, 10**9])
    def test_guard_before_any_row(self, q, monkeypatch):
        def no_row(*_):
            raise AssertionError("a row was built")
        monkeypatch.setattr(psl, "_least", no_row)
        with pytest.raises(ValueError, match="enumeration supports 2 <= q <= 40"):
            maps_between_cusps(q, (1, 0), (1, 1))

    @pytest.mark.parametrize("cls", [(5, 0), (2, 4), (8, 1), (-1, 1)])
    def test_rejects_non_canonical_classes(self, cls):
        # (5, 0) is -(3, 0) mod 8, (2, 4) is not coprime to 8, and (8, 1)
        # and (-1, 1) are not reduced mod 8
        for c1, c2 in ((cls, (1, 0)), ((1, 0), cls)):
            with pytest.raises(ValueError, match="not a canonical level-8 cusp class"):
                maps_between_cusps(8, c1, c2)


class TestHurwitzConsistency:
    @pytest.mark.parametrize("q", [7, 8, 12])
    def test_maximal_automorphism_count(self, q):
        lhs = hurwitz_deficiency(r_formula(q), 0, [q, 3, 2])
        assert lhs == 2 * genus_q(q) - 2
