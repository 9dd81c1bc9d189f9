import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from modcurve import cli, curve
from modcurve.curve import (INF, BranchPoint, InfinityPoint,
                            LiftCertificate, Monomial,
                            SemiHyperellipticCurve, curve_genus,
                            differential_order,
                            holomorphic_basis, moebius_lift_check,
                            octic_family, octic_model, octic_to_quartic_maps,
                            order_vector,
                            quartic_model, ramification_profile,
                            rotation_at_branch, solve_branch_constant,
                            verify_isomorphism_numeric)
from modcurve.equation import (CONVENTIONS, RotationNumber, build_equation,
                               normalize_with_convention)
from modcurve.poly import MPoly


def divisor_degree(c: SemiHyperellipticCurve, mono: Monomial) -> int:
    """Total degree of the divisor of the monomial (2g - 2 for differentials,
    0 for functions)."""
    return sum(num * order for (_, num, _), order
               in zip(ramification_profile(c), order_vector(c, mono)))


# Reference: the per-fiber order formulas and the x-line helpers with a case
# for infinity, which the library states once through one chart and
# homogeneous coordinates.

def reference_order(c: SemiHyperellipticCurve, mono: Monomial, pt) -> int:
    if isinstance(pt, BranchPoint):
        m_i = c.branches[pt.index][1]
        n_i = math.gcd(c.p, m_i)
        e_i = c.p // n_i
        order = mono.alphas[pt.index] * e_i - mono.gamma * (m_i // n_i)
        return order + (e_i - 1 if mono.dx else 0)
    n = math.gcd(c.p, c.m_total)
    e_inf = c.p // n
    order = -e_inf * sum(mono.alphas) + mono.gamma * (c.m_total // n)
    return order + (-e_inf - 1 if mono.dx else 0)


def reference_value_poly(v, sym: str):
    if v is INF:
        return INF
    if isinstance(v, str):
        if v != sym:
            raise ValueError(f"unexpected symbol {v!r}")
        return MPoly.var(sym)
    return MPoly.const(Fraction(v))


def reference_to_zero_one_inf(z1, z2, z3) -> tuple:
    if z1 is INF:
        return (MPoly.const(0), z2 - z3, MPoly.const(1), -z3)
    if z2 is INF:
        return (MPoly.const(1), -z1, MPoly.const(1), -z3)
    if z3 is INF:
        return (MPoly.const(1), -z1, MPoly.const(0), z2 - z1)
    return (z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def reference_pair_condition(t_mat, u, v) -> MPoly:
    t00, t01, t10, t11 = t_mat
    if u is INF and v is INF:
        return t10
    if u is INF:
        return t00 - v * t10
    if v is INF:
        return t10 * u + t11
    return (t00 * u + t01) - v * (t10 * u + t11)


def reference_solve(c: SemiHyperellipticCurve, demand: tuple) -> list[Fraction]:
    """The library solver run on the reference x-line helpers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "_value_poly", reference_value_poly)
        mp.setattr(curve, "_to_zero_one_inf", reference_to_zero_one_inf)
        mp.setattr(curve, "_pair_condition", reference_pair_condition)
        return solve_branch_constant(c, demand)


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class MoebiusMap(curve.MoebiusMap):
    """The library's map plus the constructors and products the tests use."""

    @classmethod
    def scaling(cls, factor) -> "MoebiusMap":
        return cls(Fraction(factor), Fraction(0), Fraction(0), Fraction(1))

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(self.a * other.a + self.b * other.c,
                          self.a * other.b + self.b * other.d,
                          self.c * other.a + self.d * other.c,
                          self.c * other.b + self.d * other.d)


def klein_curve():
    return SemiHyperellipticCurve(7, ((Fraction(0), 1), (Fraction(1), 2)))


def elliptic_curve():
    # y^2 = x^3 - 1 with the cube roots of unity as labels
    return SemiHyperellipticCurve(2, ((Fraction(1), 1), ("w", 1), ("w2", 1)))


GENUS_ZERO_QUOTIENTS = [(5, 1), (6, 1), (6, 2), (6, 3), (7, 1), (8, 1), (8, 2),
                        (9, 1), (10, 1), (12, 1)]


def quotient_curve(q: int, n: int) -> SemiHyperellipticCurve:
    return SemiHyperellipticCurve.from_equation(normalize_with_convention(build_equation(q, n)))


# built by the tests that use them, so that a fault in the equation code fails
# those tests one by one instead of the collection of this file and its importers
GRID_BUILDERS = {
    "octic": octic_family,
    "klein": klein_curve,
    **{f"q{q}n{n}": functools.partial(quotient_curve, q, n) for q, n in GENUS_ZERO_QUOTIENTS},
}


@functools.cache
def grid_curve(name: str) -> SemiHyperellipticCurve:
    return GRID_BUILDERS[name]()


def special_points(c: SemiHyperellipticCurve) -> list:
    """Every point of every special fiber, infinity last."""
    pts = []
    for i, (_, num, _) in enumerate(ramification_profile(c)):
        for sheet in range(1, num + 1):
            pts.append(BranchPoint(i, sheet) if i < len(c.branches)
                       else InfinityPoint(sheet))
    return pts


class TestRamification:
    def test_octic(self):
        prof = ramification_profile(octic_model())
        assert prof == [(Fraction(0), 2, 4), (Fraction(1), 1, 8),
                        (Fraction(-1), 1, 8), (INF, 4, 2)]
        assert all(num * e == 8 for _, num, e in prof)

    def test_elliptic_double_cover(self):
        lam = SemiHyperellipticCurve(2, ((Fraction(0), 1), (Fraction(1), 1),
                                         (Fraction(3), 1)))
        prof = ramification_profile(lam)
        assert [(num, e) for _, num, e in prof] == [(1, 2)] * 4

    def test_klein(self):
        prof = ramification_profile(klein_curve())
        assert [(num, e) for _, num, e in prof] == [(1, 7)] * 3


class TestGenus:
    @pytest.mark.parametrize("curve,genus", [
        (octic_model(), 5),
        (klein_curve(), 3),
        (elliptic_curve(), 1),
        (quartic_model(), 5),
    ])
    def test_values(self, curve, genus):
        assert curve_genus(curve) == genus

    def test_distinct_values_required(self):
        with pytest.raises(ValueError):
            SemiHyperellipticCurve(8, ((Fraction(0), 2), (Fraction(0), 1)))


class TestRecords:
    @pytest.mark.parametrize("p, branches, match", [
        (1, (), "degree p must be >= 2"),
        (-3, ((Fraction(0), 1),), "degree p must be >= 2"),
        (8, (("a", 1), ("a", 2)), "pairwise distinct"),
        (8, ((Fraction(0), 0),), r"\[1, p\), got 0"),
        (8, ((Fraction(0), 1), (Fraction(1), 8)), r"\[1, p\), got 8"),
        (8, ((Fraction(0), -1),), r"\[1, p\), got -1"),
    ])
    def test_curve_rejects(self, p, branches, match):
        with pytest.raises(ValueError, match=match):
            SemiHyperellipticCurve(p, branches)
        with pytest.raises(ValueError, match=match):
            SemiHyperellipticCurve(p=p, branches=branches)

    @pytest.mark.parametrize("entries", [(0, 0, 0, 0), (1, 2, 2, 4), (Fraction(1, 2), 1, 1, 2)])
    def test_moebius_rejects_zero_determinant(self, entries):
        with pytest.raises(ValueError, match="nonzero determinant"):
            MoebiusMap(*entries)
        with pytest.raises(ValueError, match="nonzero determinant"):
            curve.MoebiusMap(*entries)

    @pytest.mark.parametrize("record, field", [
        (octic_model(), "p"), (curve.MoebiusMap(1, 0, 0, 1), "a"),
        (BranchPoint(0, 1), "index"), (Monomial((1, 0, 0), 5), "gamma")])
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 3)


TABLE6 = {
    # column -> (order at 0_l, at (1,0), at (a,0), at infinity)
    Monomial((1, 0, 0), 0, dx=False): (4, 0, 0, -2),
    Monomial((0, 1, 0), 0, dx=False): (0, 8, 0, -2),
    Monomial((0, 0, 0), -1, dx=False): (1, 1, 1, -1),
    Monomial((0, 0, 0), 0): (3, 7, 7, -3),
    Monomial((0, 0, 0), 3): (0, 4, 4, 0),
    Monomial((1, 0, 0), 5): (2, 2, 2, 0),
    Monomial((1, 0, 0), 6): (1, 1, 1, 1),
    Monomial((1, 1, 0), 7): (0, 8, 0, 0),
    Monomial((1, 0, 0), 7): (0, 0, 0, 2),
}


class TestDifferentialOrders:
    @pytest.mark.parametrize("mono,expect", TABLE6.items())
    def test_order_table(self, mono, expect):
        assert order_vector(octic_family(), mono) == expect

    @pytest.mark.parametrize("mono", TABLE6)
    def test_divisor_degrees(self, mono):
        deg = divisor_degree(octic_family(), mono)
        assert deg == (8 if mono.dx else 0)  # 2g - 2 = 8 for differentials

    # index -1 used to read the last branch and 7 raised IndexError
    @pytest.mark.parametrize("index", [7, 3, -1])
    def test_branch_index_out_of_range_raises(self, index):
        mono = Monomial((1, 0, 0), 3)
        match = f"branch index {index} out of range"
        with pytest.raises(ValueError, match=match):
            differential_order(octic_family(), mono, BranchPoint(index, 1))
        with pytest.raises(ValueError, match=match):
            rotation_at_branch(octic_family(), index)

    @pytest.mark.parametrize("name", GRID_BUILDERS)
    def test_matches_reference_on_grid(self, name):
        # every monomial with exponents 0..2 and -1 <= gamma <= p, with and
        # without dx, at every point of every special fiber
        c = grid_curve(name)
        pts = special_points(c)
        for alphas in itertools.product(range(3), repeat=len(c.branches)):
            for gamma in range(-1, c.p + 1):
                for dx in (False, True):
                    mono = Monomial(alphas, gamma, dx)
                    assert [differential_order(c, mono, pt) for pt in pts] == \
                        [reference_order(c, mono, pt) for pt in pts], mono

    def test_canonical_degree_on_other_curves(self):
        for curve in (klein_curve(), elliptic_curve()):
            g = curve_genus(curve)
            for mono in holomorphic_basis(curve):
                assert divisor_degree(curve, mono) == 2 * g - 2


class TestHolomorphicBasis:
    def test_octic_matches_order_table(self):
        basis = holomorphic_basis(octic_family())
        assert len(basis) == 5
        expect = [Monomial((0, 0, 0), 3), Monomial((1, 0, 0), 5),
                  Monomial((1, 0, 0), 6), Monomial((1, 1, 0), 7),
                  Monomial((1, 0, 0), 7)]
        assert basis == expect
        vectors = [order_vector(octic_family(), m) for m in basis]
        assert vectors == [(0, 4, 4, 0), (2, 2, 2, 0), (1, 1, 1, 1),
                           (0, 8, 0, 0), (0, 0, 0, 2)]

    def test_elliptic(self):
        assert holomorphic_basis(elliptic_curve()) == [Monomial((0, 0, 0), 1)]

    def test_klein_count(self):
        assert len(holomorphic_basis(klein_curve())) == 3

    def test_all_orders_nonnegative(self):
        for curve in (octic_family(), klein_curve()):
            for mono in holomorphic_basis(curve):
                assert min(order_vector(curve, mono)) >= 0

    def test_genus_zero_rejected(self):
        rational = SemiHyperellipticCurve(5, ((Fraction(0), 1), (Fraction(1), 4)))
        with pytest.raises(ValueError):
            holomorphic_basis(rational)


class TestRotationAtBranch:
    def test_octic(self):
        fam = octic_family()
        assert rotation_at_branch(fam, 0) == RotationNumber(2, 1)
        assert rotation_at_branch(fam, 1) == RotationNumber(1, 1)

    def test_unit_exponent(self):
        for p in (3, 5, 8, 12):
            curve = SemiHyperellipticCurve(p, ((Fraction(0), 1),
                                               (Fraction(1), p - 1)))
            assert rotation_at_branch(curve, 0) == RotationNumber(1, 1)


class TestLiftCheck:
    def test_negation_lifts(self):
        cert = moebius_lift_check(octic_model(), MoebiusMap.scaling(-1))
        assert cert is not None and cert.twist == 1

    def test_identity(self):
        cert = moebius_lift_check(octic_model(), MoebiusMap.scaling(1))
        assert cert is not None and cert.twist == 1

    def test_bad_family_member(self):
        fam2 = SemiHyperellipticCurve(8, ((Fraction(0), 2), (Fraction(1), 1),
                                          (Fraction(2), 1)))
        # a map fixing 0 and infinity would need to scale 1 -> 2 and 2 -> 1
        assert moebius_lift_check(fam2, MoebiusMap.scaling(2)) is None
        assert moebius_lift_check(fam2, MoebiusMap.scaling(Fraction(1, 2))) is None

    def test_composition_multiplies_twists(self):
        curve = octic_model()
        t1 = MoebiusMap.scaling(-1)
        t2 = MoebiusMap.scaling(-1)
        c1 = moebius_lift_check(curve, t1)
        c2 = moebius_lift_check(curve, t2)
        c12 = moebius_lift_check(curve, t1.compose(t2))
        assert (c1.twist * c2.twist) % curve.p in c12.twists

    def test_int_entries_map_exactly(self):
        # x -> x / (3x - 1) swaps oo and 1/3 and fixes 0 and 2/3; with int
        # entries the image of oo was the float 0.333..., so no lift was found
        c = SemiHyperellipticCurve(2, ((0, 1), (Fraction(1, 3), 1), (Fraction(2, 3), 1)))
        t = MoebiusMap(1, 0, 3, -1)
        assert type(t.apply(INF)) is Fraction and t.apply(INF) == Fraction(1, 3)
        cert = moebius_lift_check(c, t)
        assert cert is not None
        assert cert == moebius_lift_check(c, MoebiusMap(*map(Fraction, (1, 0, 3, -1))))
        perm = dict(cert.permutation)
        assert perm[INF] == Fraction(1, 3) and perm[Fraction(1, 3)] is INF
        assert perm[0] == 0 and perm[Fraction(2, 3)] == Fraction(2, 3)

    def test_symbolic_values_rejected(self):
        with pytest.raises(TypeError):
            moebius_lift_check(octic_family(), MoebiusMap.scaling(-1))


class TestSolveBranchConstant:
    def test_octic_demand(self):
        fam = octic_family()
        assert solve_branch_constant(fam, (Fraction(1), "a")) == [Fraction(-1)]

    def test_reversed_demand(self):
        fam = octic_family()
        assert solve_branch_constant(fam, ("a", Fraction(1))) == [Fraction(-1)]

    def test_solved_curve_admits_the_lift(self):
        cert = moebius_lift_check(octic_model(), MoebiusMap.scaling(-1))
        assert isinstance(cert, LiftCertificate)
        perm = dict(cert.permutation)
        assert perm[Fraction(1)] == Fraction(-1)

    def test_degenerate_roots_dropped(self):
        # a = 0 and a = 1 never come back even if a condition vanishes there
        fam = octic_family()
        sols = solve_branch_constant(fam, (Fraction(1), "a"))
        assert Fraction(0) not in sols and Fraction(1) not in sols

    def test_needs_exactly_one_symbol(self):
        with pytest.raises(ValueError):
            solve_branch_constant(octic_model(), (Fraction(1), Fraction(-1)))

    @pytest.mark.parametrize("demand", [(Fraction(0), Fraction(1)), (Fraction(0), INF),
                                        ("a", INF)])
    def test_no_unit_relates_the_pair(self, demand):
        # exponents 2, 1, 1, 4 at 0, 1, a, infinity: no unit mod 8 carries one
        # exponent of the pair to the other, so no permutation qualifies
        with pytest.raises(ValueError, match="no branch permutation"):
            solve_branch_constant(octic_family(), demand)

    def test_infinity_in_demand(self):
        # relabeled family with the symbol at exponent 4: the swapped pair
        # of unit-exponent points is then {0, infinity}
        fam = SemiHyperellipticCurve(8, ((Fraction(0), 1), (Fraction(1), 2),
                                         ("a", 4)))
        assert fam.inf_exponent == 1
        assert solve_branch_constant(fam, (Fraction(0), INF)) == [Fraction(-1)]


LEVEL8_FAMILIES = {conv: SemiHyperellipticCurve.from_equation(
    normalize_with_convention(build_equation(8, 1), conv)) for conv in CONVENTIONS}


class TestHomogeneousLine:
    POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), "a", INF]

    def test_to_zero_one_inf_matches_reference_up_to_sign(self):
        for zs in itertools.permutations(self.POINTS, 3):
            new = curve._to_zero_one_inf(*(curve._value_poly(z, "a") for z in zs))
            ref = reference_to_zero_one_inf(*(reference_value_poly(z, "a") for z in zs))
            assert new in (ref, tuple(-e for e in ref)), zs

    def test_pair_condition_matches_reference_up_to_sign(self):
        a = MPoly.var("a")
        t_mat = (1 + 2 * a, MPoly.const(-3), 5 * a + a * a, 7 - a)
        for u, v in itertools.product(self.POINTS, repeat=2):
            new = curve._pair_condition(t_mat, curve._value_poly(u, "a"),
                                        curve._value_poly(v, "a"))
            ref = reference_pair_condition(t_mat, reference_value_poly(u, "a"),
                                           reference_value_poly(v, "a"))
            assert new in (ref, -ref), (u, v)

    @pytest.mark.parametrize("entries,v,image", [
        ((0, 1, 1, 0), INF, Fraction(0)),
        ((0, 1, 1, 0), Fraction(0), INF),
        ((2, 1, 0, 1), INF, INF),
        ((2, 1, 3, 1), INF, Fraction(2, 3)),
        ((2, 1, 3, 1), Fraction(-1, 3), INF),
        ((2, 1, 3, 1), 1, Fraction(3, 4)),
    ])
    def test_moebius_apply(self, entries, v, image):
        assert MoebiusMap(*map(Fraction, entries)).apply(v) == image

    @pytest.mark.parametrize("conv", CONVENTIONS)
    def test_solver_matches_reference_on_every_demand(self, conv):
        fam = LEVEL8_FAMILIES[conv]
        for demand in itertools.permutations(fam.branch_map(), 2):
            assert outcome(solve_branch_constant, fam, demand) == \
                outcome(reference_solve, fam, demand), demand

    def test_minimal_demand_contains_infinity(self, monkeypatch):
        # under each convention the solver demands, in the normalized
        # equation, the two orbits that _level8_swap's group elements trade;
        # under "minimal" one of them went to infinity
        demands = {}

        def recorded(c, demand):
            demands[conv] = demand
            return solve_branch_constant(c, demand)
        monkeypatch.setattr(cli, "solve_branch_constant", recorded)
        swapped = [o for o, image in cli._level8_swap()[1].items() if o != image]
        assert len(swapped) == 2
        for conv in CONVENTIONS:
            eq = normalize_with_convention(build_equation(8, 1), conv)
            cli._solve_constant(eq)
            labels = {t.orbit: t.label for t in eq.terms}
            assert len(demands[conv]) == 2
            assert set(demands[conv]) == {labels.get(o, INF) for o in swapped}, conv
        fam, demand = LEVEL8_FAMILIES["minimal"], demands["minimal"]
        assert INF in demand
        assert solve_branch_constant(fam, demand) == reference_solve(fam, demand) \
            == [Fraction(-1)]


class TestNumericIsomorphism:
    def test_octic_to_quartic(self):
        forward, inverse = octic_to_quartic_maps()
        report = verify_isomorphism_numeric(octic_model(), quartic_model(),
                                            forward, inverse, samples=100)
        assert report["pass"]
        assert report["max_residual"] < 1e-9
        assert report["max_roundtrip"] < 1e-9

    def test_identity_map(self):
        curve = octic_model()
        report = verify_isomorphism_numeric(curve, curve, lambda x, y: (x, y),
                                            lambda x, y: (x, y), samples=16)
        assert report["max_residual"] < 1e-12
        assert report["max_roundtrip"] == 0.0

    def test_seed_determinism(self):
        forward, inverse = octic_to_quartic_maps()
        r1 = verify_isomorphism_numeric(octic_model(), quartic_model(),
                                        forward, inverse, samples=32, seed=7)
        r2 = verify_isomorphism_numeric(octic_model(), quartic_model(),
                                        forward, inverse, samples=32, seed=7)
        assert r1 == r2

    def test_wrong_map_fails(self):
        report = verify_isomorphism_numeric(octic_model(), quartic_model(),
                                            lambda x, y: (x, y), samples=16)
        assert not report["pass"]

    # float.hex of (max_residual, max_roundtrip) at 100 samples, from the
    # evaluator that converted each branch value at every sample: converting
    # once per call must not move a single bit
    PINNED = {0: ("0x1.4b5eaf229077ep-48", "0x1.57acc7b5ad8f5p-49"),
              1: ("0x1.9ca4ee1806a23p-48", "0x1.744a619c712efp-49"),
              2: ("0x1.1bc9cdd4ca23ep-47", "0x1.09957850d7303p-48"),
              3: ("0x1.5d2db3e956c3cp-47", "0x1.2b8574a58bba5p-48"),
              4: ("0x1.eb065d439b19bp-48", "0x1.9d4d065f1837fp-49")}

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_reports_are_pinned_to_the_bit(self, seed):
        forward, inverse = octic_to_quartic_maps()
        report = verify_isomorphism_numeric(octic_model(), quartic_model(),
                                            forward, inverse, samples=100,
                                            tol=1e-9, seed=seed)
        got = (report["max_residual"].hex(), report["max_roundtrip"].hex())
        assert got == self.PINNED[seed]
        assert report["samples"] == 100 and report["pass"]

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_is_rejected_before_sampling(self, samples):
        def never(x, y):
            raise AssertionError("sampled")
        with pytest.raises(ValueError, match="samples"):
            verify_isomorphism_numeric(octic_model(), quartic_model(), never,
                                       samples=samples)

    @pytest.mark.parametrize("side", [0, 1])
    def test_symbolic_branch_value_is_rejected(self, side):
        curves = [octic_model(), quartic_model()]
        curves[side] = octic_family()
        with pytest.raises(TypeError, match="symbolic branch value 'a'"):
            verify_isomorphism_numeric(*curves, lambda x, y: (x, y), samples=4)


class TestChecksUnderOptimize:
    # python -O strips asserts; these checks raise, so they hold there too.
    # With asserts, the patched basis search returned 5 monomials under -O.
    OPTIMIZED = """
import itertools
from modcurve import curve, equation

def attempt(call, *args):
    try:
        call(*args)
        return "returned"
    except RuntimeError as exc:
        return type(exc).__name__

real = curve.differential_order
curve.differential_order = lambda c, mono, pt: -1
print(attempt(curve.holomorphic_basis, curve.octic_model()))
curve.differential_order = real
# orbit sizes 1, 1, 2, ... at level 8, step 1: the third orbit sees k = 1, 3
ks = itertools.cycle((1, 3))
equation.rotation_of_class = lambda q, n, cls: equation.RotationNumber(1, next(ks))
print(attempt(equation.build_equation, 8, 1))
equation.rotation_of_class = lambda q, n, cls: equation.RotationNumber(7, 1)
print(attempt(equation.build_equation, 8, 1))
# 2 is not a unit mod 8, so the exponent 2 misses orbit length 1
equation.solve_unit_congruence = lambda a, m: 2
print(attempt(equation.exponent_from_rotation, 8, equation.RotationNumber(1, 1)))
"""

    def test_checks_raise_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-O", "-c", self.OPTIMIZED],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["RuntimeError"] * 4


class TestInputRules:
    @pytest.mark.parametrize("call, args, exc, match", [
        (differential_order, (klein_curve(), Monomial((0, 0), 1), (0, 1)), TypeError,
         r"^unsupported point \(0, 1\)$"),
        (differential_order, (klein_curve(), Monomial((0,), 1), InfinityPoint(1)), ValueError,
         "^one exponent per branch value is required$"),
        (solve_branch_constant, (SemiHyperellipticCurve(2, (("a", 1),)), ("a", INF)),
         ValueError, "^need at least three branch points to pin a base map$"),
        (solve_branch_constant, (octic_family(), ("a", "a")), ValueError,
         "^demand must name two distinct branch points$"),
    ])
    def test_rejects(self, call, args, exc, match):
        with pytest.raises(exc, match=match):
            call(*args)
