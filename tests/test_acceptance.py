"""End-to-end acceptance suite.

One test per criterion; each prints its own PASS line (visible with -s or
in verbose runs via the test name).  Criteria 2, 7, 10, 11, 12 and 13 read
the checks of the `verify` registry suites, each suite run once at
q_max = 24 and shared between the tests that look at it.  The mutation
tests run a suite at q_max = 12 with one checked function broken and
require its check, and only its check, to fail.  Everything is exact except
the numeric isomorphism check, which carries an explicit 1e-9 tolerance.
"""

import inspect
import textwrap
from fractions import Fraction
from functools import lru_cache

import pytest

from modcurve import canonical, cli, cusps
from modcurve.arith import divisors
from modcurve.cli import SUITES, run_suite
from modcurve.curve import (SemiHyperellipticCurve,
                            holomorphic_basis, octic_family, order_vector,
                            solve_branch_constant)
from modcurve.cusps import find_equivalence_witness, orbit_widths, tau_orbits
from modcurve.equation import (build_equation, equation_string,
                               normalize_with_convention, rotation_table,
                               substitute_label)
from modcurve.genus import genus_prime_quotient, genus_q, genus_qn, hurwitz_deficiency
from modcurve.psl import r_n_formula
from test_curve import divisor_degree


def report(number: int, label: str):
    print(f"PASS criterion {number}: {label}")


def test_criterion_01_table1_reproduction():
    expect_g = (0, 0, 0, 0, 0, 1, 3, 5, 10, 13, 26, 25, 50, 49, 73, 81,
                133, 109, 196, 169)
    expect_g1 = (0, 0, 0, 0, 0, 0, 1, 0, 2, 1, 1, 2, 5, 2, 7, 3)
    assert tuple(genus_q(q) for q in range(1, 21)) == expect_g
    assert tuple(genus_qn(q, 1) for q in range(5, 21)) == expect_g1
    report(1, "level and quotient genera for q = 1..20")


# checks per registry suite at q_max = 24, seed = 0
SUITE_COUNTS = {"table1": 40, "table2": 12, "table6": 36, "table7": 21,
                "oracles": 401, "canonical": 14, "iso": 2}


@lru_cache(maxsize=None)
def suite_checks(name: str) -> tuple:
    return tuple(run_suite(name, q_max=24, seed=0))


def assert_all_pass(checks, label: str):
    assert [c for c in checks if not c["pass"]] == [], label


def test_registry_suites():
    assert list(SUITES) == list(SUITE_COUNTS)
    for name, count in SUITE_COUNTS.items():
        checks = suite_checks(name)
        assert_all_pass(checks, name)
        assert len(checks) == count, name
        assert {c["source"] for c in checks} == {SUITES[name][0]}, name


def mutant(func, old: str, new: str):
    """func recompiled from its own source with one edit, in its module's globals."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    scope = dict(func.__globals__)
    exec(source.replace(old, new), scope)
    return scope[func.__name__]


def failed_checks(suite: str) -> dict:
    return {c["name"]: c["got"] for c in run_suite(suite, q_max=12, seed=0)
            if not c["pass"]}


def test_hurwitz_check_catches_a_wrong_branch_order(monkeypatch):
    monkeypatch.setattr(cli, "hurwitz_deficiency", lambda n, g, orders:
                        hurwitz_deficiency(n, g, [orders[0], orders[1] - 1, orders[2]]))
    assert list(failed_checks("oracles")) == [f"hurwitz q={q}" for q in range(3, 13)]


@pytest.mark.parametrize("old, new", [("for s in (1, -1):", "for s in (1,):"),
                                      ("for s in (1, -1):", "for s in (-1,):"),
                                      ("for j in range(q):", "for j in range(1, q):")])
def test_witness_check_catches_search_mutants(monkeypatch, old, new):
    monkeypatch.setattr(cli, "find_equivalence_witness",
                        mutant(find_equivalence_witness, old, new))
    assert list(failed_checks("oracles")) == [f"witnesses q={q}" for q in range(5, 13)]


def test_width_checks_read_the_printed_list(monkeypatch):
    # verify checks the one orbit width list `cusps --widths` prints: one
    # wrong width there fails its (q, n)'s three width checks and no other
    def one_wrong(q, n, orbits):
        pairs = orbit_widths(q, n, orbits)
        if (q, n) == (8, 2):
            (c, w), *rest = pairs
            pairs = [(c, w + 1), *rest]
        return pairs

    monkeypatch.setattr(cli, "orbit_widths", one_wrong)
    failed = failed_checks("oracles")
    assert list(failed) == [f"{check} q=8 n=2"
                            for check in ("widths", "width sum", "width distribution")]
    assert failed["widths q=8 n=2"] == "1 mismatches"
    assert failed["width sum q=8 n=2"] == str(r_n_formula(8, 2) + 1)


def test_each_width_is_taken_once(monkeypatch):
    calls, take = [], cusps._width
    monkeypatch.setattr(cusps, "_width", lambda q, n, c: calls.append(c) or take(q, n, c))
    run_suite("oracles", q_max=12, seed=0)
    assert len(calls) == sum(len(tau_orbits(q, n)) for q in range(5, 13) for n in divisors(q))


def test_special_point_check_catches_a_wrong_image(monkeypatch):
    monkeypatch.setattr(canonical, "image_of_a", lambda a: (0, 0, 0, a + 1, 1))
    assert failed_checks("canonical") == {"special points on the quadrics": "false"}


def test_deck_check_catches_a_wrong_scaling(monkeypatch):
    deck_matrix = canonical.deck_matrix

    def z3_by_zeta_squared(zeta):
        m = [list(row) for row in deck_matrix(zeta)]
        m[2][2] = zeta * zeta
        return tuple(map(tuple, m))

    monkeypatch.setattr(canonical, "deck_matrix", z3_by_zeta_squared)
    assert failed_checks("canonical") == {"deck matrices preserve the ideal": "2"}


def test_deck_check_sees_the_basis(monkeypatch):
    # deck_matrix reads its scaling off the basis: raise gamma 6 to 7 there
    # and only the two roots with zeta^2 = 1 still preserve the ideal
    def raised(c):
        return [m._replace(gamma=m.gamma + (m.gamma == 6)) for m in holomorphic_basis(c)]

    monkeypatch.setattr(canonical, "holomorphic_basis", raised)
    canonical._octic_basis.cache_clear()
    try:
        assert failed_checks("canonical") == {"deck matrices preserve the ideal": "2"}
    finally:
        canonical._octic_basis.cache_clear()


@pytest.mark.parametrize("old, new", [
    # transporters to the exponent-2 orbit: still eight, but the wrong ones
    ("maps_between_cusps(8, one[0], a[0])",
     "maps_between_cusps(8, one[0], next(t.orbit for t in terms if t.exponent == 2)[0])"),
    # an orbit map that fixes the exponent-1 pair
    (" | {one: a, a: one}", ""),
])
def test_swap_check_catches_a_wrong_swap(monkeypatch, old, new):
    monkeypatch.setattr(cli, "_level8_swap", mutant(cli._level8_swap, old, new))
    assert failed_checks("canonical") == {"transporters swap and preserve orbits": "false"}


def test_crosscheck_catches_a_wrong_sigma_count(monkeypatch):
    sigma_count = canonical.sigma_count
    monkeypatch.setattr(canonical, "sigma_count", lambda a: 7 if a == -1 else sigma_count(a))
    assert failed_checks("canonical") == {"sigma count at a=-1": "7",
                                          "automorphism count crosscheck": "false"}


def test_criterion_02_formula_vs_oracle():
    kinds = ("psl count", "cusp count", "orbit count", "widths", "width sum",
             "width distribution")
    checks = [c for c in suite_checks("oracles") if c["name"].startswith(kinds)]
    assert_all_pass(checks, "oracles")
    # psl and cusp counts for q = 3..24, then orbit count, widths, width sum
    # and width distribution for every divisor n of q = 5..24
    n_pairs = sum(1 for q in range(5, 25) for n in range(1, q + 1) if q % n == 0)
    assert len(checks) == 2 * 22 + 4 * n_pairs
    report(2, "enumeration matches every count, width and width-sum formula, q <= 24")


def test_criterion_07_order_table():
    checks = suite_checks("table6")
    assert len(checks) == 36
    assert_all_pass(checks, "table6")
    report(7, "all 36 order-table entries")


def test_criterion_03_rotation_table():
    assert rotation_table(8, build_equation(8, 1)) == [
        ("1/0", 1, 1, 1), ("3/8", 1, 1, 1), ("1/4", 2, 1, 2), ("1/2", 4, 1, 4)]
    report(3, "level-8 rotation numbers and exponents")


def test_criterion_04_level8_end_to_end():
    eq = build_equation(8, 1)
    assert eq.exponent_multiset == (1, 1, 2, 4)
    eq = normalize_with_convention(eq)
    assert equation_string(eq) == "y^8 = x^2*(x-1)*(x-a)"
    curve = SemiHyperellipticCurve.from_equation(eq)
    solutions = solve_branch_constant(curve, (Fraction(1), "a"))
    assert solutions == [Fraction(-1)]
    final = substitute_label(eq, "a", Fraction(-1))
    assert equation_string(final) == "y^8 = x^2*(x-1)*(x+1)"
    report(4, "level-8 equation determined including the constant")


def test_criterion_05_level7_end_to_end():
    eq = normalize_with_convention(build_equation(7, 1))
    assert equation_string(eq) == "y^7 = x*(x-1)^2"
    report(5, "level-7 classical equation")


def test_criterion_06_exponent_multisets():
    assert build_equation(9, 1).exponent_multiset == (1, 3, 3, 4, 7)
    assert build_equation(10, 1).exponent_multiset == (1, 2, 5, 5, 8, 9)
    assert build_equation(12, 1).exponent_multiset == (1, 1, 2, 3, 3, 4, 4, 6)
    # the displayed normalized forms drop exactly the infinity exponent
    eq9 = normalize_with_convention(build_equation(9, 1), "ascending")
    assert eq9.inf_exponent == 7
    assert sorted(t.exponent for t in eq9.terms) == [1, 3, 3, 4]
    eq10 = normalize_with_convention(build_equation(10, 1), "ascending")
    assert eq10.inf_exponent == 9
    assert sorted(t.exponent for t in eq10.terms) == [1, 2, 5, 5, 8]
    eq12 = normalize_with_convention(build_equation(12, 1), "minimal")
    assert eq12.inf_exponent == 1
    assert sorted(t.exponent for t in eq12.terms) == [1, 2, 3, 3, 4, 4, 6]
    report(6, "exponent multisets for levels 9, 10, 12")


def test_criterion_08_holomorphic_basis():
    fam = octic_family()
    basis = holomorphic_basis(fam)
    assert len(basis) == 5
    vectors = [order_vector(fam, mono) for mono in basis]
    assert vectors == [(0, 4, 4, 0), (2, 2, 2, 0), (1, 1, 1, 1),
                       (0, 8, 0, 0), (0, 0, 0, 2)]
    for mono in basis:
        assert divisor_degree(fam, mono) == 8  # 2g - 2
    report(8, "holomorphic basis matches the order table, degree 8 each")


def test_criterion_09_type_one_quotient_genera():
    expected = {10: 1, 14: 2, 22: 6, 26: 9, 34: 17, 38: 22}
    for q, g in expected.items():
        assert genus_prime_quotient(q) == g
    report(9, "type I order-3p quotient genera")


def test_criterion_10_max_element_orders():
    checks = [c for c in suite_checks("oracles")
              if c["name"].startswith("max order")]
    assert [c["name"] for c in checks] == [f"max order q={q}" for q in range(2, 25)]
    assert_all_pass(checks, "max order")
    report(10, "largest projective element order, q = 2..24")


def test_criterion_11_canonical_model():
    checks = suite_checks("canonical")
    assert len(checks) == 14
    assert_all_pass(checks, "canonical")
    names = {c["name"] for c in checks}
    assert {"elimination a", "sigma count at a=-1", "transporter count",
            "transporters swap and preserve orbits",
            "automorphism count crosscheck", "special points on the quadrics",
            "deck matrices preserve the ideal"} <= names
    report(11, "canonical model: eight matrices, a = -1, matching counts")


def test_criterion_12_numeric_isomorphism():
    checks = suite_checks("iso")
    assert [c["name"] for c in checks] == ["iso residual < 1e-9",
                                           "iso roundtrip < 1e-9"]
    assert_all_pass(checks, "iso")
    report(12, "explicit degree-4 model reached within 1e-9")


def test_criterion_13_hurwitz_consistency():
    checks = [c for c in suite_checks("oracles") if c["name"].startswith("hurwitz")]
    assert [c["name"] for c in checks] == [f"hurwitz q={q}" for q in range(3, 25)]
    assert_all_pass(checks, "hurwitz")
    report(13, "Hurwitz relation closes against the enumerated group, q = 3..24")
