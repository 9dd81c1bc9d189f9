import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modcurve.arith import Cyclotomic, GAUSS_I, GaussRational
from modcurve.canonical import (MPoly, apply_matrix, deck_matrix,
                                elimination_solve, embed_point,
                                hyperellipticity_obstruction, image_of_a,
                                image_of_one, images_of_infinity,
                                images_of_zero, in_quadric_span, mat_mul5,
                                automorphism_count_crosscheck,
                                quadric_forms, quadric_residuals,
                                sigma_family, sigma_matrix,
                                sigma_preserves_ideal, transform_quadric)
from modcurve.poly import Poly


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
        res = elimination_solve()
        zero = Cyclotomic.scalar(8, 0)
        family = [tuple(tuple(zero + e for e in row) for row in m)
                  for m in sigma_family(-1)]
        assert res.family == family

    def test_entries_vanishing_pattern(self):
        res = elimination_solve()
        nonzero = {name for name, e in res.entries.items() if not e.is_zero()}
        assert nonzero == {"c11", "c22", "c33", "c44", "c45", "c55"}
        assert res.entries["c45"] == -2
        assert res.entries["c44"] == -1
        assert res.entries["c55"] == 1


class TestCrossChecks:
    def test_counts_agree(self):
        assert automorphism_count_crosscheck()

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
