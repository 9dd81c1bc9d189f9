import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from modcurve import cli, equation
from modcurve.arith import divisors
from modcurve.cusps import class_to_cusp, cusp_canonical, enumerate_cusps, tau_orbits
from modcurve.curve import SemiHyperellipticCurve, curve_genus
from modcurve.equation import (BranchTerm, RotationNumber, build_equation,
                               equation_string, exponent_from_rotation,
                               normalize_with_convention, rotation_from_exponent,
                               rotation_number, rotation_of_class,
                               rotation_table, substitute_label, CONVENTIONS,
                               SemiHyperellipticEquation)
from modcurve.genus import genus_q, genus_qn


def reference_normalize_equation(eq, to_inf, to_zero, to_one):
    """The index-based normalizer the library kept before every level went
    through normalize_with_convention's one path."""
    idxs = (to_inf, to_zero, to_one)
    if len(set(idxs)) != 3 or not all(0 <= i < len(eq.terms) for i in idxs):
        raise ValueError(f"need three distinct term indices out of {len(eq.terms)}")
    rest = sorted((t for i, t in enumerate(eq.terms) if i not in idxs),
                  key=lambda t: (t.exponent, t.orbit or ()))
    new_terms = [eq.terms[to_zero]._replace(label=Fraction(0)),
                 eq.terms[to_one]._replace(label=Fraction(1))]
    letter = {9: "p", 10: "q", 12: "r"}.get(eq.p, "a")
    for i, t in enumerate(rest):
        label = "a" if (len(rest) == 1 and letter == "a") else f"{letter}{i + 1}"
        new_terms.append(t._replace(label=label))
    ref = SemiHyperellipticEquation(p=eq.p, terms=tuple(new_terms))
    assert ref.inf_exponent == eq.terms[to_inf].exponent
    return ref


def reference_normalize(eq, convention="gcd"):
    """normalize_with_convention as it was, with its own two-orbit branch:
    target indices picked by convention, then reference_normalize_equation."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")
    if len(eq.terms) == 2:
        high, low = sorted(eq.terms, key=lambda t: -t.exponent)
        ref = SemiHyperellipticEquation(p=eq.p, terms=(low._replace(label=Fraction(0)),))
        assert ref.inf_exponent == high.exponent
        return ref
    if len(eq.terms) < 2:
        raise ValueError("normalization conventions need at least 2 branch orbits")
    order = sorted(range(len(eq.terms)),
                   key=lambda i: (eq.terms[i].exponent, eq.terms[i].orbit or ()))
    if convention == "minimal":
        to_inf = order[0]
    else:
        to_inf = order[-1]
    remaining = [i for i in order if i != to_inf]
    if convention == "gcd":
        to_zero = sorted(remaining,
                         key=lambda i: (-math.gcd(eq.p, eq.terms[i].exponent),
                                        eq.terms[i].exponent,
                                        eq.terms[i].orbit or ()))[0]
        remaining = [i for i in remaining if i != to_zero]
    else:
        to_zero = remaining.pop(0)
    to_one = remaining[0]
    return reference_normalize_equation(eq, to_inf, to_zero, to_one)


# every (q, n) with a genus-zero translation quotient and q <= 40
GENUS_ZERO = [(q, n) for q in range(5, 41) for n in divisors(q)
              if n < q and genus_qn(q, n) == 0]


def tagged(p, exponents):
    """A hand-built equation with no orbits; each term's rotation field is a
    tag, so the test can tell which of two equal exponents went where."""
    return SemiHyperellipticEquation(p=p, terms=tuple(
        BranchTerm(m, rotation=RotationNumber(i, 0)) for i, m in enumerate(exponents)))


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

    def test_matches_inverse_by_search(self):
        # k = w^2 mod gcd(p, z) with x*w = 1 (mod z), w found by trying every
        # residue, so the expected value shares no code with the library's inverse
        for q in range(5, 41):
            for n in divisors(q):
                p = q // n
                for cls in enumerate_cusps(q):
                    x, z = class_to_cusp(q, cls)
                    g = math.gcd(p, z)
                    w = next(w for w in range(z) if x * w % z == 1 % z) if z else 1
                    expect = (p // g, w * w % g) if g > 1 else (p, 0)
                    assert rotation_number(q, n, (x, z)) == expect, (q, n, x, z)

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

    def test_exponent_sum_is_checked(self, monkeypatch, capsys):
        # the module docstring's theorem: with one branched orbit dropped the
        # exponents no longer sum to 0 mod p, an internal error (exit 4)
        orbits = tau_orbits(8, 1)
        dropped = [o for o in orbits if len(o) < 8][-1]
        monkeypatch.setattr(equation, "tau_orbits",
                            lambda q, n: [o for o in orbits if o != dropped])
        with pytest.raises(RuntimeError, match="branched exponents sum to 4 mod 8, not 0"):
            build_equation(8, 1)
        assert cli.main(["equation", "--q", "8"]) == 4
        assert "internal error: RuntimeError" in capsys.readouterr().err

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

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_rejects_normalized_input(self, convention):
        eq = normalize_with_convention(build_equation(8, 1), convention)
        with pytest.raises(ValueError, match="equation already sends an orbit to infinity; "
                                             "normalize the raw equation"):
            normalize_with_convention(eq, convention)

    def test_multiset_preserved(self):
        raw = build_equation(10, 1)
        for convention in ("gcd", "ascending", "minimal"):
            normalized = normalize_with_convention(raw, convention)
            assert normalized.exponent_multiset == raw.exponent_multiset

    def test_genus_zero_quotients(self):
        assert GENUS_ZERO == [(5, 1), (6, 1), (6, 2), (6, 3), (7, 1), (8, 1),
                              (8, 2), (9, 1), (10, 1), (12, 1)]

    @pytest.mark.parametrize("q,n", GENUS_ZERO)
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_matches_reference(self, q, n, convention):
        raw = build_equation(q, n)
        eq = normalize_with_convention(raw, convention)
        ref = reference_normalize(raw, convention)
        assert eq == ref and equation_string(eq) == equation_string(ref)

    # ties in exponent with no orbit to break them, in every input order
    @pytest.mark.parametrize("p,exponents", [
        (4, (1, 1, 1, 1)), (9, (3, 3, 3)), (6, (1, 1, 1, 1, 2)),
        (12, (2, 2, 2, 3, 3)), (8, (2, 1, 1, 2, 1, 1)), (10, (5, 2, 2, 5, 2, 4)),
    ])
    def test_orbitless_ties_match_reference(self, p, exponents):
        base = tagged(p, exponents).terms
        for terms in itertools.permutations(base):
            raw = SemiHyperellipticEquation(p=p, terms=terms)
            for convention in CONVENTIONS:
                assert normalize_with_convention(raw, convention) == \
                    reference_normalize(raw, convention), (terms, convention)

    def test_two_orbit_tie_breaks_by_orbit(self):
        # the one change from the old level-5 branch, which kept the input
        # order: two equal exponents now send the later (exponent, orbit) to
        # infinity, as three or more terms always did
        eq = tagged(4, (2, 2))
        with_orbits = SemiHyperellipticEquation(p=4, terms=(
            BranchTerm(2, orbit=((2, 0),)), BranchTerm(2, orbit=((1, 0),))))
        for convention in CONVENTIONS:
            normalized = normalize_with_convention(eq, convention)
            assert normalized == SemiHyperellipticEquation(
                p=4, terms=(BranchTerm(2, Fraction(0), rotation=RotationNumber(0, 0)),))
            assert normalized.inf_exponent == 2
            assert normalize_with_convention(with_orbits, convention).terms == \
                (BranchTerm(2, Fraction(0), ((1, 0),)),)

    def test_labels_follow_build_order(self):
        eq = build_equation(12, 1)
        assert [t.label for t in eq.terms] == [f"a{i}" for i in range(1, 9)]

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


class TestRecords:
    @pytest.mark.parametrize("p, exponents, match", [
        (8, (8,), r"finite exponents must lie in \[1, p\), got 8"),
        (8, (0,), r"finite exponents must lie in \[1, p\), got 0"),
        (8, (9, 7), r"finite exponents must lie in \[1, p\), got 9"),
    ])
    def test_equation_rejects(self, p, exponents, match):
        terms = tuple(BranchTerm(m) for m in exponents)
        with pytest.raises(ValueError, match=match):
            SemiHyperellipticEquation(p, terms)
        with pytest.raises(ValueError, match=match):
            SemiHyperellipticEquation(p=p, terms=terms)

    @pytest.mark.parametrize("p", [0, 1])
    def test_both_records_reject_low_degree(self, p):
        with pytest.raises(ValueError, match="degree p must be >= 2"):
            SemiHyperellipticEquation(p, ())
        with pytest.raises(ValueError, match="degree p must be >= 2"):
            SemiHyperellipticCurve(p, ())

    def test_equation_rejects_shared_label(self):
        # 1 is already the label of the x = 1 term, as in the curve record
        eq = normalize_with_convention(build_equation(8, 1))
        with pytest.raises(ValueError, match="branch values must be pairwise distinct"):
            substitute_label(eq, "a", Fraction(1))
        with pytest.raises(ValueError, match="branch values must be pairwise distinct"):
            SemiHyperellipticEquation(8, (BranchTerm(1, "a"), BranchTerm(7, "a")))

    def test_default_inf_exponent(self):
        # the exponent at infinity is derived, not a field
        eq = SemiHyperellipticEquation(8, (BranchTerm(1), BranchTerm(7)))
        assert eq.inf_exponent == 0 and eq == (8, eq.terms)
        assert SemiHyperellipticEquation._fields == ("p", "terms")
        with pytest.raises(TypeError):
            SemiHyperellipticEquation(8, eq.terms, 0)

    def test_inf_exponent_closes_the_sum(self):
        eq = SemiHyperellipticEquation(8, (BranchTerm(1),))
        assert eq.inf_exponent == 7 and eq.exponent_multiset == (1, 7)
        assert SemiHyperellipticCurve.from_equation(eq).inf_exponent == 7

    @pytest.mark.parametrize("q,n", GENUS_ZERO)
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_curve_and_equation_agree_at_infinity(self, q, n, convention):
        eq = normalize_with_convention(build_equation(q, n), convention)
        assert SemiHyperellipticCurve.from_equation(eq).inf_exponent == eq.inf_exponent > 0

    def test_results_are_revalidated(self):
        # _replace skips the constructor's checks; both rewrites must run them
        raw = build_equation(8, 1)
        eq = normalize_with_convention(raw)
        for good in (eq, substitute_label(eq, "a", Fraction(-1))):
            assert type(good) is SemiHyperellipticEquation
        # exponent 1 + p keeps the sum at 0 mod p; "minimal" sends the other
        # exponent-1 orbit to infinity, so the bad term stays finite
        bad_raw = raw._replace(terms=(raw.terms[0]._replace(exponent=9),) + raw.terms[1:])
        with pytest.raises(ValueError, match=r"\[1, p\), got 9"):
            normalize_with_convention(bad_raw, "minimal")
        bad_eq = eq._replace(terms=tuple(t._replace(exponent=t.exponent + 8) if t.label == "a"
                                         else t for t in eq.terms))
        with pytest.raises(ValueError, match=r"\[1, p\), got 9"):
            substitute_label(bad_eq, "a", Fraction(-1))

    def test_branch_term_repr(self):
        eq = build_equation(8, 1)
        assert repr(eq.terms[0]) == ("BranchTerm(exponent=1, label='a1', orbit=((1, 0),), "
                                     "rotation=RotationNumber(orbit_len=1, k=1))")
        assert repr(normalize_with_convention(eq).terms[0]) == (
            "BranchTerm(exponent=2, label=Fraction(0, 1), orbit=((1, 4), (3, 4)), "
            "rotation=RotationNumber(orbit_len=2, k=1))")
        assert repr(BranchTerm(3)) == "BranchTerm(exponent=3, label=None, orbit=None, rotation=None)"


class TestInputRules:
    @pytest.mark.parametrize("call, args, match", [
        (exponent_from_rotation, (8, RotationNumber(3, 1)),
         "^orbit length 3 must divide p = 8$"),
        (exponent_from_rotation, (8, RotationNumber(1, 2)),
         "^rotation exponent 2 is not a unit mod 8$"),
        (build_equation, (5, 5), r"^the quotient must have degree >= 2 \(n < q\)$"),
        (substitute_label, (build_equation(8, 1), "b", Fraction(-1)),
         "^no term labeled 'b'$"),
    ])
    def test_rejects(self, call, args, match):
        with pytest.raises(ValueError, match=match):
            call(*args)

    def test_no_terms_print_one(self):
        assert equation_string(SemiHyperellipticEquation(8, ())) == "y^8 = 1"
