import abc
import cmath
import functools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modcurve import canonical
from modcurve.arith import Cyclotomic, ExactRing, GAUSS_I, GaussRational
from modcurve.canonical import (EliminationError, _at_root, _expect,
                                deck_matrix, elimination_solve, embed_point,
                                eval_quadric, hyperellipticity_obstruction,
                                image_of_a, image_of_one, images_of_infinity,
                                images_of_zero, map_quadric, preserves_ideal,
                                quadric_forms, quadric_residuals,
                                reduce_by_span, sigma_matrix,
                                sigma_count, sigma_preserves_ideal,
                                transform_quadric)
from modcurve.cli import main
from modcurve.curve import holomorphic_basis, octic_family, order_vector
from modcurve.poly import MPoly
from test_arith import SCALARS


def apply_matrix(m, pt) -> tuple:
    return tuple(sum(m[i][j] * pt[j] for j in range(5)) for i in range(5))


def in_quadric_span(p, a) -> bool:
    return not reduce_by_span(p, quadric_forms(a))


def mat_mul5(m1, m2):
    return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(5))
                       for j in range(5)) for i in range(5))


@functools.cache
def var(name: str) -> MPoly:
    """MPoly.var(name), built on first use, so that a broken MPoly fails the
    tests that read it, not the collection of this file."""
    return MPoly.var(name)


def pullback_by_definition(q, m) -> dict:
    """q(M z) expanded over every entry pair, zeros included, then dropped."""
    out = {}
    for (i, j), c in q.items():
        for k in range(5):
            for l in range(5):
                key = (min(k, l), max(k, l))
                out[key] = out.get(key, 0) + c * m[i][k] * m[j][l]
    return {k: v for k, v in out.items() if not v == 0}


# sparse 5x5 matrices over Z[t]/(t^8 - 1): mostly zeros, then +-1, ints,
# Fractions and cyclotomic monomials and binomials; plus the sigma and deck
# matrices, which preserve the ideal at a = -1
ROOTS8 = st.integers(0, 7).map(lambda j: Cyclotomic.root(8, j))
ENTRIES = st.one_of(st.just(0), st.just(0), st.just(0), st.sampled_from([1, -1]), SCALARS,
                    st.builds(lambda s, t: s * t, SCALARS, ROOTS8),
                    st.builds(lambda s, t, u: t + s * u, SCALARS, ROOTS8, ROOTS8))
MATRICES = st.one_of(st.lists(st.tuples(*[ENTRIES] * 5), min_size=5, max_size=5).map(tuple),
                     st.builds(sigma_matrix, st.just(-1), ROOTS8),
                     st.builds(deck_matrix, ROOTS8))


def as_polys(point):
    return tuple(p if isinstance(p, MPoly) else MPoly.const(Fraction(p))
                 for p in point)


class TestSpecialPoints:
    def test_marked_branch_images_symbolic(self):
        a = MPoly.var("a")
        assert all(r == 0 for r in quadric_residuals(a, as_polys(image_of_one())))
        assert all(r == 0 for r in quadric_residuals(a, as_polys(image_of_a(a))))

    def test_zero_images_symbolic_sqrt(self):
        s = MPoly.var("s")  # a square root of a; the parameter becomes s^2
        for pt in images_of_zero(s):
            pt = tuple(p if isinstance(p, MPoly) else MPoly.const(p) for p in pt)
            assert all(r == 0 for r in quadric_residuals(s * s, pt))

    def test_infinity_images_gaussian(self):
        # the coordinates stay in Q(i); the MPoly parameter meets only the
        # rational entries z4 and z5 of the images
        a = MPoly.var("a")
        for pt in images_of_infinity(GAUSS_I):
            assert all(r == 0 for r in quadric_residuals(a, pt))


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

    def test_residuals_need_a_point_of_p4(self):
        with pytest.raises(ValueError, match="points live in P\\^4"):
            quadric_residuals(-1, (1, 0, 0, 1))


def typed_deck(zeta):
    """The deck matrix as once typed: diag(zeta^4, zeta^2, zeta, 1, 1)."""
    diag = (zeta * zeta * zeta * zeta, zeta * zeta, zeta, 1, 1)
    return tuple(tuple(d if i == j else 0 for j in range(5)) for i, d in enumerate(diag))


def typed_embedding(x, y) -> tuple:
    """The embedding as once typed: (1/y^3, x/y^5, x/y^6, x(x-1)/y^7, x/y^7)."""
    return (1 / y**3, x / y**5, x / y**6, x * (x - 1) / y**7, x / y**7)


class TestBasisReadings:
    """deck_matrix and embed_point read holomorphic_basis(octic_family());
    the tables they once typed are the references here."""

    @pytest.mark.parametrize("j", range(8))
    def test_deck_matrix_is_the_typed_diagonal(self, j):
        m = deck_matrix(Cyclotomic.root(8, j))
        assert m == typed_deck(Cyclotomic.root(8, j))
        # zeta^0 stays the int 1, so those entries pull back as ints
        assert type(m[3][3]) is type(m[4][4]) is int

    @pytest.mark.parametrize("x, y", [(Fraction(3), Fraction(2)),
                                      (Fraction(-1, 2), Fraction(5, 3)),
                                      (Fraction(7, 4), Fraction(-2, 9)),
                                      (Fraction(1), Fraction(1, 3))])
    def test_embedding_is_exact_at_rational_points(self, x, y):
        got = embed_point(x, y)
        assert got == typed_embedding(x, y)
        assert all(type(z) is Fraction for z in got)

    def test_embedding_at_complex_points(self):
        rng = random.Random(1)
        for _ in range(50):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            for got, want in zip(embed_point(x, y), typed_embedding(x, y)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("y", [0, Fraction(0), 0j])
    def test_y_zero_keeps_its_message(self, y):
        with pytest.raises(ValueError, match=re.escape(
                "the embedding formula needs y != 0; use the tabulated special-point images")):
            embed_point(Fraction(2), y)

    # fibers of octic_family() in order_vector's order: x = 0, 1, a, then infinity;
    # the coordinates are 1-based positions in the basis
    @pytest.mark.parametrize("fiber, support", [(1, {5}), (2, {4, 5}), (0, {1, 4, 5}),
                                                (3, {1, 2, 4})],
                             ids=["one", "a", "zero", "infinity"])
    def test_special_images_are_the_least_order_elements(self, fiber, support):
        # a point's image keeps the coordinates whose differential vanishes
        # least there; the order at one point of a fiber holds at all of them
        images = {0: images_of_zero(MPoly.var("s")), 1: [image_of_one()],
                  2: [image_of_a(MPoly.var("a"))], 3: images_of_infinity(GAUSS_I)}[fiber]
        family = octic_family()
        orders = [order_vector(family, m)[fiber] for m in holomorphic_basis(family)]
        assert {i + 1 for i, o in enumerate(orders) if o == min(orders)} == support
        for point in images:
            assert {i + 1 for i, z in enumerate(point) if not z == 0} == support


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

    # a map of P^4 is 5x5; the pullback would read the top-left 5x5 of a larger one
    @pytest.mark.parametrize("m", [
        tuple(tuple(int(i == j) for j in range(6)) for i in range(6)),
        tuple(tuple(int(i == j) for j in range(5)) + ("junk",) for i in range(5)),
        tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
        tuple(tuple(int(i == j) for j in range(5 - (i == 4))) for i in range(5)),
    ], ids=["6x6", "5x6", "4x4", "short row"])
    def test_preserves_ideal_checks_the_shape(self, m):
        with pytest.raises(ValueError, match="5x5"):
            preserves_ideal(m, -1)

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

    # preserves_ideal reads each row once for all three pullbacks and skips
    # the zero filter; its answer must be the public path's, and that path's
    # pullback the one expanded over every entry pair
    @given(MATRICES, st.one_of(st.just(-1), st.just(Fraction(-1)), SCALARS))
    def test_preserves_ideal_is_the_public_path(self, m, a):
        forms = quadric_forms(a)
        for q in forms:
            assert transform_quadric(q, m) == pullback_by_definition(q, m)
        assert preserves_ideal(m, a) == all(not reduce_by_span(transform_quadric(q, m), forms)
                                            for q in forms)


def read_back(printed: str, names: dict, a):
    """A printed value as Python, ^ a power and a the constant."""
    return eval(printed.replace("^", "**"), {}, {**names, "a": a})


class TestElimination:
    def test_constant_and_relations(self):
        res = elimination_solve()
        assert res.a == Fraction(-1)
        assert "c33^8 = 1" in res.relations
        assert "a != 1" in res.assumptions

    def test_relations_print_entries_then_highest_power_of_a(self):
        res = elimination_solve()
        assert res.relations == ["c22 = c33^2", "c11 = -c33^4", "c44 = -1", "c45 = a - 1",
                                 "c55 = 1", "c33^8 = 1"]
        assert "c45 = a - 1  [image of the x=1 point]" in res.steps

    def test_relations_hold(self):
        # the printer's relations, read back as equations: the entry relations
        # hold as polynomials in c33 against the solved entries, and c33^8 = 1
        # holds at the eight values c33 takes across the family
        res = elimination_solve()

        def sides(relation, names):
            return [read_back(side, names, res.a) for side in relation.split(" = ")]

        *entry_relations, root_relation = res.relations
        assert root_relation == "c33^8 = 1"
        for relation in entry_relations:
            lhs, rhs = sides(relation, res.entries)
            assert lhs == rhs, relation
        c33s = {m[2][2] for m in res.family}
        assert c33s == {Cyclotomic.root(8, j) for j in range(8)}
        for c33 in c33s:
            lhs, rhs = sides(root_relation, {"c33": c33})
            assert lhs == rhs, c33

    def test_steps_evaluate_to_the_entries(self):
        # each entry's step, read back as the relations are, is the solved entry
        res = elimination_solve()
        logged = [m.groups() for m in map(re.compile(r"(c\d\d) = (.*)  \[").match, res.steps) if m]
        assert {name for name, _ in logged} == set(res.entries) - {"c33"}
        for name, value in logged:
            assert read_back(value, {"c33": MPoly.var("c33")}, res.a) == res.entries[name], name

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
        # c45 = a - 1 comes out of the root substitution as a: the entry still
        # holds a, and the family's shape check rejects it
        subs = MPoly.subs
        monkeypatch.setattr(MPoly, "subs", lambda mp, name, value: var("a")
                            if name == "a" and mp == var("a") - 1 else subs(mp, name, value))
        with pytest.raises(EliminationError, match="family entries depend on c33 only$"):
            elimination_solve()

    def test_entries_vanishing_pattern(self):
        res = elimination_solve()
        nonzero = {name for name, e in res.entries.items() if e != 0}
        assert nonzero == {"c11", "c22", "c33", "c44", "c45", "c55"}
        assert res.entries["c45"] == -2
        assert res.entries["c44"] == -1
        assert res.entries["c55"] == 1


# each entry solved from a pullback coefficient, in elimination order, with
# the quadric (0-indexed) and the monomial key of the coefficient it reads
PINS = [("c23", 0, (2, 4)), ("c53", 0, (1, 2)), ("c22", 0, (1, 4)),
        ("c13", 1, (2, 4)), ("c12", 1, (1, 4)), ("c42", 1, (0, 1)),
        ("c43", 1, (0, 2)), ("c41", 1, (3, 3)), ("c11", 1, (0, 3))]


def monomial(key) -> str:
    """z_(i+1) * z_(j+1), a repeated factor written as a square."""
    names = [f"z{i + 1}" for i in key]
    return names[0] + "^2" if names[0] == names[1] else "*".join(names)


class TestPinnedSteps:
    @pytest.mark.parametrize("name, k, key", PINS)
    def test_doubled_coefficient_fails_its_pin(self, monkeypatch, name, k, key):
        # pullback k + 1 with the coefficient this entry reads doubled: each
        # pinned shape is exact, so the doubled terms fail there
        reduce, calls = canonical.reduce_by_span, []

        def doubled(p, forms):
            calls.append(rem := reduce(p, forms))
            return {**rem, key: 2 * rem[key]} if len(calls) == k + 1 else rem
        monkeypatch.setattr(canonical, "reduce_by_span", doubled)
        step = f"at: Q{k + 1}: {monomial(key)}"
        with pytest.raises(EliminationError, match=re.escape(step) + "$"):
            elimination_solve()

    def test_each_pin_names_the_coefficient_it_reads(self, monkeypatch):
        labels, expect = [], canonical._expect
        monkeypatch.setattr(canonical, "_expect",
                            lambda cond, step: labels.append(step) or expect(cond, step))
        res = elimination_solve()
        named = [label for label in labels if re.match(r"Q\d: ", label)]
        assert named == [f"Q{k + 1}: {monomial(key)}" for _, k, key in PINS] \
            + ["Q2: z1*z5", "Q2: z1*z5 linear in a", "Q3: z4^2"]
        lines = {line.split(" = ")[0]: line for line in res.steps}
        for name, k, key in PINS:
            reason = f"[Q{k + 1} pullback, {monomial(key)} coefficient"
            assert reason in lines[name], name


class TestPrintedQuadrics:
    def test_strings_evaluate_to_the_forms(self, capsys):
        assert main(["--format", "json", "canonical"]) == 0
        printed = json.loads(capsys.readouterr().out)["result"]["quadrics"]
        rng = random.Random(8)
        for _ in range(20):
            z = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            env = {f"z{i + 1}": zi for i, zi in enumerate(z)} | {"a": a}
            got = [eval(s.replace("^", "**"), {}, env) for s in printed]
            assert got == [eval_quadric(q, z) for q in quadric_forms(a)]


class TestOcticCheck:
    @pytest.mark.parametrize("j", range(8))
    def test_octic_relation_is_the_kernel(self, j):
        assert _at_root(var("c33") ** 8 - 1, j, "step") == 0

    @pytest.mark.parametrize("j, k", [(j, k) for j in range(8) for k in range(12)])
    def test_powers_go_to_powers(self, j, k):
        assert _at_root(var("c33") ** k, j, "step") == Cyclotomic.root(8, j * k % 8)

    def test_sums_and_rational_coefficients(self):
        mp = Fraction(1, 2) * var("c33") ** 3 - 3 * var("c33") + 2
        t = Cyclotomic.root(8, 2)
        assert _at_root(mp, 2, "step") == Fraction(1, 2) * t ** 3 - 3 * t + 2

    # terms, built into an MPoly by the test: c22*c33, c11, (a + 1)*c33 and a
    @pytest.mark.parametrize("mp", [{("c22", "c33"): 1},
                                    {("c11",): 1},
                                    {("c33",): 1, ("a", "c33"): 1},
                                    {("a",): 1}])
    def test_foreign_terms_fail_the_step(self, mp):
        with pytest.raises(EliminationError, match="at: named step$"):
            _at_root(MPoly(mp) + var("c33"), 1, "named step")

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
    for key, c in mp.terms.items():
        _expect(set(key) <= {"c33"}, step)
        out = out + c * Cyclotomic.root(8, j * len(key))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except EliminationError as exc:
        return str(exc)


C33_MONOS = st.integers(0, 11).map(lambda k: ("c33",) * k)
C33_ONLY = st.dictionaries(C33_MONOS, SCALARS, max_size=6).map(MPoly)
FOREIGN = st.dictionaries(st.one_of(C33_MONOS, st.sampled_from([("c22",), ("c22", "c33"),
                                                                  ("a",), ("a", "c33")])),
                          SCALARS, max_size=4).map(MPoly)


class TestAtRootReference:
    @given(C33_ONLY, st.integers(0, 7))
    def test_c33_polynomials_match(self, mp, j):
        got, ref = _at_root(mp, j, "step"), at_root_reference(mp, j, "step")
        assert got == ref and got.coeffs == ref.coeffs
        assert 0 not in got.terms.values()  # powers that cancel, or collide at j = 0, drop out

    @given(FOREIGN, st.integers(0, 7), st.sampled_from(["step", "Q3 remainder at (3, 4)"]))
    def test_step_names_match(self, mp, j, step):
        assert outcome(_at_root, mp, j, step) == outcome(at_root_reference, mp, j, step)


class TestCrossChecks:
    def test_hyperellipticity_obstruction(self):
        report = hyperellipticity_obstruction()
        assert report["sign_center_size"] == 2
        assert report["projective_center_trivial"]


# MPoly as the elimination uses it: a and the matrix entries are its names,
# the int and Fraction scalars its constants; the rules themselves are
# test_poly's TestMPoly and test_arith's TestExactRingLaws
class TestMPoly:
    def test_constant_hashes_like_its_scalar(self):
        assert MPoly.const(3) == 3 and hash(MPoly.const(3)) == hash(3)
        assert MPoly({}) == 0 and hash(MPoly({})) == hash(0)
        half = Fraction(1, 2)
        assert MPoly.const(half) == half and hash(MPoly.const(half)) == hash(half)
        assert len({MPoly.const(3), Fraction(3), 3, MPoly({(): Fraction(3)})}) == 1

    # the linear stage's c45 = a - 1, at a few values of a
    def test_eq_constant_is_definition(self):
        c45 = dict(elimination_order()[0])["c45"]
        assert c45 != -1 and (c45 + 1).terms == {("a",): 1}
        for a in (1, Fraction(1), Fraction(-1), Fraction(3, 2)):
            at_a = c45.subs("a", MPoly.const(a))
            assert at_a == a - 1 and not (at_a - (a - 1)).terms
            assert (at_a == 0) == (a == 1) == (not at_a.terms)

    # the solved c22 = c33^2 and c11 = -c33^4, with c33 replaced
    def test_subs_is_ring_map(self):
        solved = dict(elimination_order()[1])
        c11, c22 = solved["c11"], solved["c22"]
        for value in (MPoly.const(Fraction(1, 2)), var("a") - 1, var("c33") + 1):
            s11, s22 = c11.subs("c33", value), c22.subs("c33", value)
            assert (c11 + c22).subs("c33", value) == s11 + s22
            assert (c11 * c22).subs("c33", value) == s11 * s22
            assert s11 == -s22 ** 2

    # the residuals with the symbolic a, at a value of a, are those built at it
    def test_subs_a_is_ring_map(self):
        point = as_polys((var("c11"), 1, Fraction(1, 2), var("c33"), -2))
        for a in (-1, Fraction(1, 2), 3):
            at_a = [r.subs("a", MPoly.const(a)) for r in quadric_residuals(var("a"), point)]
            assert at_a == list(quadric_residuals(a, point))
            assert not any("a" in k for r in at_a for k in r.terms)


@functools.cache
def elimination_order() -> tuple[list, list]:
    """The elimination's assignments in order, as (entry, value): the linear
    stage fixed by the branch-point images, then the entries solved from
    pullback coefficients.  Built on first use, so a broken MPoly product
    fails the tests that read them, not the collection of this file."""
    linear = [("c15", 0), ("c25", 0), ("c35", 0), ("c45", var("a") - 1), ("c55", 1),
              ("c14", 0), ("c24", 0), ("c34", 0), ("c44", -1), ("c31", 0),
              ("c32", 0), ("c52", 0), ("c51", 0), ("c54", 0), ("c21", 0)]
    solved = [("c23", 0), ("c53", 0), ("c22", var("c33") ** 2), ("c13", 0), ("c12", 0),
              ("c42", 0), ("c43", 0), ("c41", 0), ("c11", -var("c33") ** 4)]
    return linear, solved


# the solved entries known when Q1, Q2 and Q3 are pulled back
STAGES = (0, 3, 9)
# the 14 remainder reads: (solved entries assigned before it, quadric, a)
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
    forms = quadric_forms(var("a"))
    if a is not None:
        root = MPoly.const(a)
        m = tuple(tuple(e.subs("a", root) for e in row) for row in m)
        forms = quadric_forms(root)
    return reduce_by_span(transform_quadric(forms[index], m), forms)


def recorder(log: list, fn):
    def recorded(*args):
        log.append(fn(*args))
        return log[-1]
    return recorded


FREE = ["c11", "c12", "c13", "c22", "c23", "c33", "c41", "c42", "c43", "c53"]
VALUES = st.one_of(st.just(0), SCALARS,
                   st.builds(lambda sign, k: sign * var("c33") ** k,
                             st.sampled_from([1, -1]), st.integers(1, 4)))


class TestPullBackOnce:
    def test_listed_order_is_the_elimination_order(self):
        linear, solved = elimination_order()
        res = elimination_solve()
        order = [m.group(1) for m in map(re.compile(r"(c\d\d) = ").match, res.steps) if m]
        assert order == [name for name, _ in linear + solved]
        assert all(res.entries[name] == as_mpoly(v).subs("a", MPoly.const(-1))
                   for name, v in linear + solved)

    def test_pulls_back_once_per_quadric(self, monkeypatch):
        calls = []
        monkeypatch.setattr(canonical, "transform_quadric",
                            recorder(calls, canonical.transform_quadric))
        elimination_solve()
        assert len(calls) == 3
        elimination_solve()  # nothing is kept from one solve to the next
        assert len(calls) == 6

    def test_pullback_k_reads_the_entries_of_its_stage(self, monkeypatch):
        linear, solved = elimination_order()
        calls = []
        transform = canonical.transform_quadric
        monkeypatch.setattr(canonical, "transform_quadric",
                            lambda q, m: calls.append((q, m)) or transform(q, m))
        elimination_solve()
        assert [q for q, _ in calls] == quadric_forms(var("a"))
        for (_, m), s in zip(calls, STAGES, strict=True):
            known = {name: as_mpoly(v) for name, v in linear + solved[:s]}
            assert m == matrix_of(known), s

    def test_substituted_remainders_equal_the_rebuild(self, monkeypatch):
        # record the elimination's own remainders: each pullback, followed
        # through the map_quadric calls whose input is its latest state
        linear, solved = elimination_order()
        pulled, maps = [], []
        monkeypatch.setattr(canonical, "reduce_by_span",
                            recorder(pulled, canonical.reduce_by_span))
        map_quadric = canonical.map_quadric
        monkeypatch.setattr(canonical, "map_quadric", lambda q, f:
                            maps.append((q, map_quadric(q, f))) or maps[-1][1])
        elimination_solve()
        chains = []
        for state in pulled:
            chains.append([state])
            for q, out in maps:
                if q is chains[-1][-1]:
                    chains[-1].append(out)
        # every remainder takes each substitution after its pullback, then a = -1
        assert len(maps) == sum(len(c) - 1 for c in chains)
        assert [len(c) for c in chains] == [len(solved) - s + 2 for s in STAGES]
        known = {name: as_mpoly(v) for name, v in linear}
        for k, index, a in READS:
            known.update((name, as_mpoly(v)) for name, v in solved[:k])
            got = chains[index][-1 if a is not None else k - STAGES[index]]
            assert got == rebuilt_remainder(known, index, a), (k, index, a)

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.sampled_from(FREE), VALUES), max_size=5),
           st.one_of(st.none(), SCALARS))
    def test_substitution_commutes_with_pullback(self, assignments, a):
        forms = quadric_forms(var("a"))
        m = matrix_of({name: as_mpoly(v) for name, v in elimination_order()[0]})
        rems = [reduce_by_span(transform_quadric(q, m), forms) for q in forms]
        for name, value in assignments:
            value = as_mpoly(value)
            m = tuple(tuple(e.subs(name, value) for e in row) for row in m)
            rems = [map_quadric(r, lambda c: c.subs(name, value)) for r in rems]
        if a is not None:
            root = MPoly.const(a)
            m = tuple(tuple(e.subs("a", root) for e in row) for row in m)
            forms = quadric_forms(root)
            rems = [map_quadric(r, lambda c: c.subs("a", root)) for r in rems]
        assert rems == [reduce_by_span(transform_quadric(q, m), forms) for q in forms]


def fraction_checks(monkeypatch, fn, *args) -> tuple[list, object]:
    """fn(*args), and the ring elements it tests against Fraction.  Fraction is
    a numbers.Rational, so isinstance(x, Fraction) on any other type goes
    through abc.ABCMeta.__instancecheck__, about ten times a type test."""
    seen, check = [], abc.ABCMeta.__instancecheck__

    def counting(cls, instance):
        if cls is Fraction and isinstance(instance, ExactRing):
            seen.append(type(instance).__name__)
        return check(cls, instance)

    with monkeypatch.context() as m:
        m.setattr(abc.ABCMeta, "__instancecheck__", counting)
        out = fn(*args)
    return seen, out


# Each operator takes an operand of its own ring before asking whether it is
# a scalar, so a ring element is never tested against Fraction.  Fraction's own
# operators test their operands against numbers.Rational; those checks are the
# standard library's, made on scalar coefficients, and are not counted here.
class TestDispatchOrder:
    @pytest.mark.parametrize("pair", [
        lambda: (Cyclotomic.root(8, 1) + 2, Cyclotomic.root(8, 3) - Fraction(1, 2)),
        lambda: (GaussRational(1, 2), GAUSS_I),
        lambda: (MPoly({(): 1, ("x",): Fraction(2, 3)}), MPoly({("x",): -1, ("x", "x"): 4})),
        lambda: (MPoly({("a", "c11"): 1, (): 2}), MPoly.var("c22") - Fraction(1, 3)),
        lambda: (MPoly.const(Fraction(2, 3)), MPoly.var("c33")),
    ], ids=["cyclotomic", "gauss", "poly", "mpoly", "mpoly-const"])
    def test_same_ring_operators(self, monkeypatch, pair):
        x, y = pair()
        seen, out = fraction_checks(monkeypatch, lambda: [
            x * y, y * x, x + y, y + x, x - y, x == y, x == x])
        assert seen == []
        assert out[0] == out[1] and out[2] == out[3] and out[5:] == [False, True]

    def test_sigma_count(self, monkeypatch):
        assert fraction_checks(monkeypatch, sigma_count, Fraction(5, 3)) == ([], 0)

    def test_elimination(self, monkeypatch):
        seen, res = fraction_checks(monkeypatch, elimination_solve)
        assert seen == [] and res.a == -1
