import cmath
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modcurve import canonical
from modcurve.arith import Cyclotomic, GAUSS_I, GaussRational
from modcurve.canonical import (EliminationError, MPoly, _at_root, _expect,
                                deck_matrix, elimination_solve, embed_point,
                                hyperellipticity_obstruction, image_of_a,
                                image_of_one, images_of_infinity,
                                images_of_zero, map_quadric, preserves_ideal,
                                quadric_forms, quadric_residuals,
                                reduce_by_span, sigma_family, sigma_matrix,
                                sigma_preserves_ideal, transform_quadric)
from modcurve.cli import main
from modcurve.poly import Poly


def apply_matrix(m, pt) -> tuple:
    return tuple(sum(m[i][j] * pt[j] for j in range(5)) for i in range(5))


def in_quadric_span(p, a) -> bool:
    return not reduce_by_span(p, quadric_forms(a))


def mat_mul5(m1, m2):
    return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(5))
                       for j in range(5)) for i in range(5))


SCALARS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))
POLYS = st.lists(SCALARS, max_size=3).map(Poly)
MONOS = st.sampled_from([(), ("c11",), ("c11", "c22"), ("c22", "c11"), ("c33",) * 3])
MPOLYS = st.dictionaries(MONOS, st.one_of(SCALARS, POLYS), max_size=3).map(MPoly)


def retyped(m: MPoly) -> MPoly:
    """The same polynomial with int and integral Fraction coefficients swapped."""
    return MPoly({k: Poly([Fraction(c) if isinstance(c, int)
                           else int(c) if c.denominator == 1 else c
                           for c in p.coeffs]) for k, p in m.terms.items()})


def coefficients(m: MPoly) -> list:
    return [c for p in m.terms.values() for c in p.coeffs]


def subs_by_definition(m: MPoly, name: str, value: MPoly) -> MPoly:
    """Term by term: each name^k becomes value^k."""
    out = MPoly({})
    for key, poly in m.terms.items():
        rest = tuple(k for k in key if k != name)
        out = out + MPoly({rest: poly}) * value ** key.count(name)
    return out


def as_polys(point):
    return tuple(p if isinstance(p, Poly) else Poly.const(Fraction(p))
                 for p in point)


class TestSpecialPoints:
    def test_marked_branch_images_symbolic(self):
        a = Poly.x()
        assert all(r == 0 for r in quadric_residuals(a, as_polys(image_of_one())))
        assert all(r == 0 for r in quadric_residuals(a, as_polys(image_of_a(a))))

    def test_zero_images_symbolic_sqrt(self):
        s = Poly.x()  # a square root of a; the parameter becomes s^2
        for pt in images_of_zero(s):
            pt = tuple(p if isinstance(p, Poly) else Poly.const(p) for p in pt)
            assert all(r == 0 for r in quadric_residuals(s * s, pt))

    def test_infinity_images_gaussian(self):
        one = GaussRational(1)
        a = Poly([GaussRational(0), one])
        for pt in images_of_infinity(GAUSS_I):
            pt = tuple(Poly.const(c * one if isinstance(c, int) else c)
                       for c in pt)
            assert all(r.is_zero() for r in quadric_residuals(a, pt))


class TestEmbedding:
    def test_random_points_land_on_quadrics(self):
        rng = random.Random(0)
        worst = 0.0
        count = 0
        while count < 100:
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if min(abs(x), abs(x - 1), abs(x + 1)) < 1e-3:
                continue
            y = (x * x * (x - 1) * (x + 1)) ** (1 / 8)
            res = quadric_residuals(complex(-1), embed_point(x, y))
            worst = max(worst, max(abs(r) for r in res))
            count += 1
        assert worst < 1e-9

    def test_deck_action_scales_coordinates(self):
        zeta = cmath.exp(2j * cmath.pi / 8)
        x = 1.7 + 0.4j
        y = (x * x * (x - 1) * (x + 1)) ** (1 / 8)
        before = embed_point(x, y)
        after = embed_point(x, zeta * y)
        # projectively, the deck transformation scales by (z^4, z^2, z, 1, 1)
        scales = (zeta**4, zeta**2, zeta, 1, 1)
        scaled = tuple(s * b for s, b in zip(scales, before))
        cross = max(abs(after[i] * scaled[j] - after[j] * scaled[i])
                    for i in range(5) for j in range(5))
        assert cross < 1e-9

    def test_rejects_y_zero(self):
        with pytest.raises(ValueError):
            embed_point(Fraction(1), Fraction(0))


class TestSigma:
    def test_all_roots_pass_at_minus_one(self):
        assert all(sigma_preserves_ideal(-1, Cyclotomic.root(8, j))
                   for j in range(8))

    @pytest.mark.parametrize("a", [2, 3, -2])
    def test_sampled_non_solutions_fail(self, a):
        assert not any(sigma_preserves_ideal(a, Cyclotomic.root(8, j))
                       for j in range(8))

    def test_image_requirement(self):
        m = sigma_matrix(-1, Cyclotomic.root(8, 0))
        assert apply_matrix(m, (0, 0, 0, 0, 1)) == (0, 0, 0, -2, 1)

    def test_eta_tower(self):
        eta3 = Cyclotomic.root(8, 1)
        m = sigma_matrix(-1, eta3)
        eta2, eta1 = m[1][1], -m[0][0]
        assert eta3 * eta3 == eta2
        assert eta2 * eta2 == eta1
        assert eta1 * eta1 == 1

    # an integral Fraction enters as an int; the answer is the general
    # path's, the matrix and the forms built from a as given
    @given(st.one_of(st.integers(-3, 3).map(Fraction), SCALARS), st.integers(0, 7))
    def test_fraction_parameter_is_the_general_path(self, a, j):
        eta = Cyclotomic.root(8, j)
        got = sigma_preserves_ideal(a, eta)
        assert got == preserves_ideal(sigma_matrix(a, eta), a)
        if a.denominator == 1:
            assert got == sigma_preserves_ideal(int(a), eta)

    def test_integral_fraction_enters_as_int(self, monkeypatch):
        seen = []
        monkeypatch.setattr(canonical, "preserves_ideal",
                            lambda m, a: seen.append(a) or True)
        sigma_preserves_ideal(Fraction(-1), Cyclotomic.root(8, 1))
        sigma_preserves_ideal(Fraction(-3, 2), Cyclotomic.root(8, 1))
        assert [type(a) for a in seen] == [int, Fraction]
        assert seen == [-1, Fraction(-3, 2)]

    def test_family_closure(self):
        for j in range(8):
            for k in range(8):
                e1, e2 = Cyclotomic.root(8, j), Cyclotomic.root(8, k)
                prod = mat_mul5(sigma_matrix(-1, e1), sigma_matrix(-1, e2))
                assert prod == deck_matrix(e1 * e2)
                twist = mat_mul5(sigma_matrix(-1, e1), deck_matrix(e2))
                assert twist == sigma_matrix(-1, e1 * e2)


class TestSpanReduction:
    def test_pullback_stays_quadratic(self):
        m = sigma_matrix(-1, Cyclotomic.root(8, 3))
        for q in quadric_forms(-1):
            pulled = transform_quadric(q, m)
            assert all(i <= j for i, j in pulled)

    def test_span_membership(self):
        forms = quadric_forms(-1)
        combo = {}
        for coeff, form in zip((2, -3, 5), forms):
            for key, c in form.items():
                combo[key] = combo.get(key, 0) + coeff * c
        assert in_quadric_span(combo, -1)
        combo[(0, 1)] = combo.get((0, 1), 0) + 1
        assert not in_quadric_span(combo, -1)


class TestElimination:
    def test_constant_and_relations(self):
        res = elimination_solve()
        assert res.a == Fraction(-1)
        assert "c33^8 = 1" in res.relations
        assert "a != 1" in res.assumptions

    def test_family_matches_constructor(self):
        assert elimination_solve().family == sigma_family(-1)

    @pytest.mark.parametrize("root", [0, 1])
    def test_root_against_assumptions(self, monkeypatch, root):
        monkeypatch.setattr(canonical, "rational_roots", lambda p: [Fraction(root)])
        with pytest.raises(EliminationError, match="a != 0, a != 1$"):
            elimination_solve()

    def test_other_root_fails_the_pullbacks(self, monkeypatch):
        monkeypatch.setattr(canonical, "rational_roots", lambda p: [Fraction(2)])
        with pytest.raises(EliminationError, match="Q2 pullback at a = 2$"):
            elimination_solve()

    def test_constant_entry_in_a_fails_the_family_step(self, monkeypatch):
        # c45 = a - 1 comes out of subs_a as the constant a: the entry is read
        # once for all eight roots, and still through the shape check
        subs_a = MPoly.subs_a
        monkeypatch.setattr(MPoly, "subs_a", lambda mp, a: MPoly.const(Poly.x())
                            if mp == MPoly.const(Poly.x() - 1) else subs_a(mp, a))
        with pytest.raises(EliminationError, match="family entries depend on c33 only$"):
            elimination_solve()

    def test_entries_vanishing_pattern(self):
        res = elimination_solve()
        nonzero = {name for name, e in res.entries.items() if not e.is_zero()}
        assert nonzero == {"c11", "c22", "c33", "c44", "c45", "c55"}
        assert res.entries["c45"] == -2
        assert res.entries["c44"] == -1
        assert res.entries["c55"] == 1


class TestOcticCheck:
    C33 = MPoly.var("c33")

    @pytest.mark.parametrize("j", range(8))
    def test_octic_relation_is_the_kernel(self, j):
        assert _at_root(self.C33 ** 8 - 1, j, "step") == 0

    @pytest.mark.parametrize("j, k", [(j, k) for j in range(8) for k in range(12)])
    def test_powers_go_to_powers(self, j, k):
        assert _at_root(self.C33 ** k, j, "step") == Cyclotomic.root(8, j * k % 8)

    def test_sums_and_rational_coefficients(self):
        mp = Fraction(1, 2) * self.C33 ** 3 - 3 * self.C33 + 2
        t = Cyclotomic.root(8, 2)
        assert _at_root(mp, 2, "step") == Fraction(1, 2) * t ** 3 - 3 * t + 2

    @pytest.mark.parametrize("mp", [MPoly.var("c22") * MPoly.var("c33"),
                                    MPoly.var("c11"),
                                    MPoly({("c33",): Poly([1, 1])}),
                                    MPoly.const(Poly.x())])
    def test_foreign_terms_fail_the_step(self, mp):
        with pytest.raises(EliminationError, match="at: named step$"):
            _at_root(mp + self.C33, 1, "named step")

    @pytest.mark.parametrize("k, key", [(2, "(4, 4)"), (3, "(3, 4)"), (-1, "(3, 4)")])
    def test_scaled_q3_fails_the_remainder(self, monkeypatch, capsys, k, key):
        forms = canonical.quadric_forms

        def scaled(a):  # Q3's z4*z5 coefficient times k
            q1, q2, q3 = forms(a)
            return [q1, q2, {**q3, (3, 4): k * q3[(3, 4)]}]
        monkeypatch.setattr(canonical, "quadric_forms", scaled)
        step = f"at: Q3 remainder at {key}"
        with pytest.raises(EliminationError, match=re.escape(step) + "$"):
            elimination_solve()
        assert main(["canonical"]) == 4
        assert capsys.readouterr().err.endswith(step + "\n")


def at_root_reference(mp: MPoly, j: int, step: str) -> Cyclotomic:
    """The ring map term by term: a scalar, a root, a product and a sum each."""
    out = Cyclotomic.scalar(8, 0)
    for key, poly in mp.terms.items():
        _expect(set(key) <= {"c33"} and poly.degree == 0, step)
        out = out + poly(0) * Cyclotomic.root(8, j * len(key))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except EliminationError as exc:
        return str(exc)


C33_MONOS = st.integers(0, 11).map(lambda k: ("c33",) * k)
C33_ONLY = st.dictionaries(C33_MONOS, SCALARS, max_size=6).map(MPoly)
FOREIGN = st.dictionaries(st.one_of(C33_MONOS, st.sampled_from([("c22",), ("c22", "c33")])),
                          st.one_of(SCALARS, POLYS), max_size=4).map(MPoly)


class TestAtRootReference:
    @given(C33_ONLY, st.integers(0, 7))
    def test_c33_polynomials_match(self, mp, j):
        got, ref = _at_root(mp, j, "step"), at_root_reference(mp, j, "step")
        assert got == ref and got.coeffs == ref.coeffs

    @given(FOREIGN, st.integers(0, 7), st.sampled_from(["step", "Q3 remainder at (3, 4)"]))
    def test_step_names_match(self, mp, j, step):
        assert outcome(_at_root, mp, j, step) == outcome(at_root_reference, mp, j, step)


class TestCrossChecks:
    def test_hyperellipticity_obstruction(self):
        report = hyperellipticity_obstruction()
        assert report["sign_center_size"] == 2
        assert report["center_is_scalar"]
        assert report["projective_center_trivial"]
        assert report["central_involution_quotient_genus"] == 3
        assert not report["hyperelliptic"]


class TestMPoly:
    def test_constant_hashes_like_its_poly(self):
        assert MPoly.const(3) == 3 and hash(MPoly.const(3)) == hash(3)
        assert MPoly({}) == 0 and hash(MPoly({})) == hash(0)
        x = Poly.x()
        assert MPoly.const(x) == x and hash(MPoly.const(x)) == hash(x)
        assert len({MPoly.const(3), Poly.const(3), 3, MPoly({(): Fraction(3)})}) == 1

    def test_keys_equal_up_to_order_add_up(self):
        m = MPoly({("c11", "c22"): 1, ("c22", "c11"): Fraction(1, 2)})
        assert m.terms == {("c11", "c22"): Poly.const(Fraction(3, 2))}
        assert MPoly({("c22", "c11"): 2, ("c11", "c22"): -2}) == 0

    # the fast equality and zero paths and the canonical-dict results
    # against their definitions, over mixed int and Fraction coefficients
    @given(MPOLYS, MPOLYS, st.booleans())
    def test_eq_is_zero_difference(self, x, y, same):
        if same:
            y = retyped(x)
        assert (x == y) == all(c == 0 for c in coefficients(x - y))
        assert (x == y) == (y == x)
        if x == y:
            assert hash(x) == hash(y)

    @given(MPOLYS, st.one_of(SCALARS, POLYS), st.booleans())
    def test_eq_constant_is_definition(self, x, c, same):
        if same:
            x = retyped(MPoly.const(c))
        assert (x == c) == all(v == 0 for v in coefficients(x - c))
        assert (x == 0) == (x.is_zero() or all(v == 0 for v in coefficients(x)))
        if x == c:
            assert hash(x) == hash(c)

    @given(MPOLYS, MPOLYS)
    def test_results_are_canonical(self, x, y):
        for r in (x + y, x - y, x * y, -x, x ** 2):
            assert all(list(k) == sorted(k) for k in r.terms)
            assert not any(p.is_zero() for p in r.terms.values())
            assert r.terms == MPoly(dict(r.terms)).terms

    # the scalar path scales each Poly term; it must give the product by
    # MPoly.const, stay canonical, and return the operand itself for 1
    @given(MPOLYS, st.one_of(st.sampled_from([0, 1, Fraction(0), Fraction(1)]), SCALARS))
    def test_scalar_product_is_the_const_product(self, x, s):
        general = x * MPoly.const(s)
        for got in (x * s, s * x):
            assert got == general and got.terms == general.terms
            assert all(list(k) == sorted(k) for k in got.terms)
            assert not any(p.is_zero() for p in got.terms.values())
        if s == 1:
            assert x * s is x and s * x is x

    @given(MPOLYS, MPOLYS, st.sampled_from(["c11", "c22", "c33"]), MPOLYS)
    def test_subs_is_ring_map(self, x, y, name, value):
        def s(p):
            return p.subs(name, value)
        assert s(x + y) == s(x) + s(y)
        assert s(x * y) == s(x) * s(y)
        assert s(MPoly.const(1)) == 1
        assert s(x) == subs_by_definition(x, name, value)
        assert s(x).terms == MPoly(dict(s(x).terms)).terms

    @given(MPOLYS, st.sampled_from(["c11", "c22", "c33"]))
    def test_subs_zero_drops_the_name(self, x, name):
        dropped = MPoly({k: p for k, p in x.terms.items() if name not in k})
        assert x.subs(name, MPoly({})) == dropped
        assert x.subs(name, MPoly.const(Fraction(0))) == dropped

    @given(MPOLYS, MPOLYS, SCALARS)
    def test_subs_a_is_ring_map(self, x, y, a):
        assert (x + y).subs_a(a) == x.subs_a(a) + y.subs_a(a)
        assert (x * y).subs_a(a) == x.subs_a(a) * y.subs_a(a)
        assert all(p.degree < 1 for p in x.subs_a(a).terms.values())


# The elimination's assignments in order, as (entry, value).  LINEAR is the
# stage fixed by the branch-point images; each SOLVED entry comes from a
# pullback coefficient.
A = MPoly.const(Poly.x())
C33 = MPoly.var("c33")
LINEAR = [("c15", 0), ("c25", 0), ("c35", 0), ("c45", A - 1), ("c55", 1),
          ("c14", 0), ("c24", 0), ("c34", 0), ("c44", -1), ("c31", 0),
          ("c32", 0), ("c52", 0), ("c51", 0), ("c54", 0), ("c21", 0)]
SOLVED = [("c23", 0), ("c53", 0), ("c22", C33 ** 2), ("c13", 0), ("c12", 0),
          ("c42", 0), ("c43", 0), ("c41", 0), ("c11", -C33 ** 4)]
# the 14 remainder reads: (SOLVED entries assigned before it, quadric, a)
READS = ([(k, 0, None) for k in (0, 1, 2, 3)]
         + [(k, 1, None) for k in (3, 4, 5, 6, 7, 8, 9)]
         + [(9, i, Fraction(-1)) for i in (0, 1, 2)])


def as_mpoly(value) -> MPoly:
    return value if isinstance(value, MPoly) else MPoly.const(value)


def matrix_of(known: dict):
    return tuple(tuple(known.get(f"c{i}{j}", MPoly.var(f"c{i}{j}"))
                       for j in range(1, 6)) for i in range(1, 6))


def rebuilt_remainder(known: dict, index: int, a=None):
    """The reference: rebuild the symbolic matrix and the whole pullback,
    with every entry evaluated at a first when a is given."""
    m = matrix_of(known)
    forms = quadric_forms(A)
    if a is not None:
        m = tuple(tuple(e.subs_a(a) for e in row) for row in m)
        forms = quadric_forms(MPoly.const(Poly.const(a)))
    return reduce_by_span(transform_quadric(forms[index], m), forms)


def recorder(log: list, fn):
    def recorded(*args):
        log.append(fn(*args))
        return log[-1]
    return recorded


POST_LINEAR = matrix_of({name: as_mpoly(v) for name, v in LINEAR})
FREE = ["c11", "c12", "c13", "c22", "c23", "c33", "c41", "c42", "c43", "c53"]
VALUES = st.one_of(st.just(0), SCALARS,
                   st.builds(lambda sign, k: sign * C33 ** k,
                             st.sampled_from([1, -1]), st.integers(1, 4)))


class TestPullBackOnce:
    def test_listed_order_is_the_elimination_order(self):
        res = elimination_solve()
        order = [m.group(1) for m in map(re.compile(r"(c\d\d) = ").match, res.steps) if m]
        assert order == [name for name, _ in LINEAR + SOLVED]
        assert all(res.entries[name] == as_mpoly(v).subs_a(-1)
                   for name, v in LINEAR + SOLVED)

    def test_pulls_back_once_per_quadric(self, monkeypatch):
        calls = []
        monkeypatch.setattr(canonical, "transform_quadric",
                            recorder(calls, canonical.transform_quadric))
        elimination_solve()
        assert len(calls) == 3
        elimination_solve()  # nothing is kept from one solve to the next
        assert len(calls) == 6

    def test_substituted_remainders_equal_the_rebuild(self, monkeypatch):
        # record the elimination's own remainders: three from the pullback,
        # three per SOLVED substitution, three at a = -1
        pulled, mapped = [], []
        monkeypatch.setattr(canonical, "reduce_by_span",
                            recorder(pulled, canonical.reduce_by_span))
        monkeypatch.setattr(canonical, "map_quadric",
                            recorder(mapped, canonical.map_quadric))
        elimination_solve()
        assert len(pulled) == 3 and len(mapped) == 3 * len(SOLVED) + 3
        states = [pulled] + [mapped[3 * k:3 * k + 3] for k in range(len(SOLVED) + 1)]
        known = {name: as_mpoly(v) for name, v in LINEAR}
        for solved, index, a in READS:
            known.update((name, as_mpoly(v)) for name, v in SOLVED[:solved])
            got = states[solved + (a is not None)][index]
            assert got == rebuilt_remainder(known, index, a), (solved, index, a)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(FREE), VALUES), max_size=5),
           st.one_of(st.none(), SCALARS))
    def test_substitution_commutes_with_pullback(self, assignments, a):
        forms = quadric_forms(A)
        m = POST_LINEAR
        rems = [reduce_by_span(transform_quadric(q, m), forms) for q in forms]
        for name, value in assignments:
            value = as_mpoly(value)
            m = tuple(tuple(e.subs(name, value) for e in row) for row in m)
            rems = [map_quadric(r, lambda c: c.subs(name, value)) for r in rems]
        if a is not None:
            m = tuple(tuple(e.subs_a(a) for e in row) for row in m)
            forms = quadric_forms(MPoly.const(Poly.const(a)))
            rems = [map_quadric(r, lambda c: c.subs_a(a)) for r in rems]
        assert rems == [reduce_by_span(transform_quadric(q, m), forms) for q in forms]
