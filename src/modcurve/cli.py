"""Command-line front end and verification harness.

Subcommands: genus, cusps, rotation, equation, group, verify, lift-solve,
canonical.  Exit status: 0 success, 1 verification mismatch, 2 argument
error, 3 unsupported-mathematics request, 4 internal error (an exception
such as a failed elimination step, reported on stderr).

Output is text by default or a JSON document with --format json.  Exact
numbers are serialized as strings "p" or "p/q"; the only floats anywhere
are the residuals of the numeric isomorphism check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

from .arith import Cyclotomic
from . import canonical as canon
from .cusps import (class_to_cusp, cusp_canonical, cusp_str, enumerate_cusps,
                    h_formula, h_n_formula, orbit_rep, tau_orbits, width,
                    width_bruteforce, width_distribution)
from .curve import (BranchPoint, InfinityPoint, Monomial, SemiHyperellipticCurve,
                    differential_order, octic_family, octic_model,
                    octic_to_quartic_maps, quartic_model, solve_branch_constant,
                    verify_isomorphism_numeric)
from .equation import (SemiHyperellipticEquation, build_equation,
                       equation_string, normalize_with_convention,
                       rotation_number, rotation_table, substitute_label,
                       undetermined_labels, CONVENTIONS)
from .genus import genus_prime_quotient, genus_q, genus_qn, is_semihyperelliptic_level
from .golden import golden
from .psl import (ENUM_GUARD, center, cusp_class_action, element_order,
                  enumerate_psl, maps_between_cusps, max_element_order,
                  max_order_formula, r_formula, r_n_formula, type_classify)


class UsageError(Exception):
    pass


class UnsupportedError(Exception):
    pass


def exact_str(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return str(v)


def parse_cusp(s: str) -> tuple[int, int]:
    if s in ("inf", "oo", "1/0"):
        return (1, 0)
    try:
        x_str, z_str = s.split("/") if "/" in s else (s, "1")
        x, z = int(x_str), int(z_str)
    except ValueError as exc:
        raise UsageError(f"cannot parse cusp {s!r}; use inf or X/Z") from exc
    if z < 0:
        x, z = -x, -z
    if z == 0:
        if abs(x) != 1:
            raise UsageError(f"{s!r} is not a reduced cusp")
        return (1, 0)
    if math.gcd(x, z) != 1:
        raise UsageError(f"{s!r} is not a coprime pair")
    return (x, z)


def make_check(name: str, expected, got) -> dict:
    return {"name": name, "pass": expected == got,
            "expected": exact_str(expected), "got": exact_str(got)}


def bool_check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "expected": "true",
            "got": "true" if ok else (detail or "false")}


# ---------------------------------------------------------------------------
# verification registry: every suite is a runner (q_max, seed) -> checks
# ---------------------------------------------------------------------------

def _table1(q_max: int, _seed: int) -> list[dict]:
    checks = []
    for q in range(1, min(q_max, 20) + 1):
        checks.append(make_check(f"table1 g q={q}", golden("1", "g", q), genus_q(q)))
        got = genus_qn(q, 1) if q >= 5 else 0  # rational curve below level 5
        checks.append(make_check(f"table1 g1 q={q}", golden("1", "g1", q), got))
    return checks


def _table2(_q_max: int, _seed: int) -> list[dict]:
    checks = []
    rows = {row[0]: row for row in rotation_table(8, 1)}
    for cusp in ("1/0", "3/8", "1/4", "1/2"):
        _, size, k, m = rows[cusp]
        for col, got in (("n", size), ("k", k), ("m", m)):
            checks.append(make_check(f"table2 {cusp} {col}", golden("2", cusp, col), got))
    return checks


_TABLE6_COLS = {
    "x": Monomial((1, 0, 0), 0, dx=False),
    "x-1": Monomial((0, 1, 0), 0, dx=False),
    "y": Monomial((0, 0, 0), -1, dx=False),
    "dx": Monomial((0, 0, 0), 0),
    "dx/y3": Monomial((0, 0, 0), 3),
    "x*dx/y5": Monomial((1, 0, 0), 5),
    "x*dx/y6": Monomial((1, 0, 0), 6),
    "x*(x-1)*dx/y7": Monomial((1, 1, 0), 7),
    "x*dx/y7": Monomial((1, 0, 0), 7),
}

_TABLE6_ROWS = {
    "zero": BranchPoint(0, 1),
    "one": BranchPoint(1, 1),
    "a": BranchPoint(2, 1),
    "inf": InfinityPoint(1),
}


def _table6(_q_max: int, _seed: int) -> list[dict]:
    fam = octic_family()
    checks = []
    for row, pt in _TABLE6_ROWS.items():
        for col, mono in _TABLE6_COLS.items():
            got = differential_order(fam, mono, pt)
            checks.append(make_check(f"table6 {row} {col}", golden("6", row, col), got))
    return checks


def _table7(_q_max: int, _seed: int) -> list[dict]:
    checks = []
    for q in (2, 10, 14, 22, 26, 34, 38):
        checks.append(make_check(f"table7 g q={q}", golden("7", "g", q), genus_q(q)))
        g1 = genus_qn(q, 1) if q >= 5 else 0
        checks.append(make_check(f"table7 g1 q={q}", golden("7", "g1", q), g1))
        gp = genus_prime_quotient(q) if q >= 10 else 0
        checks.append(make_check(f"table7 gp q={q}", golden("7", "gp", q), gp))
    return checks


def _oracles(q_max: int, _seed: int) -> list[dict]:
    checks = []
    for q in range(3, q_max + 1):
        checks.append(make_check(f"psl count q={q}", r_formula(q), len(enumerate_psl(q))))
        checks.append(make_check(f"cusp count q={q}", h_formula(q), len(enumerate_cusps(q))))
    for q in range(2, q_max + 1):
        checks.append(make_check(f"max order q={q}", max_order_formula(q),
                                 max_element_order(q)))
    for q in range(5, q_max + 1):
        for n in (d for d in range(1, q + 1) if q % d == 0):
            orbits = tau_orbits(q, n)
            checks.append(make_check(f"orbit count q={q} n={n}",
                                     h_n_formula(q, n), len(orbits)))
            mismatch = 0
            tally: dict[int, int] = {}
            for orbit in orbits:
                rep = class_to_cusp(q, orbit_rep(orbit))
                w = width(q, n, rep)
                tally[w] = tally.get(w, 0) + 1
                if w != width_bruteforce(q, n, rep):
                    mismatch += 1
            checks.append(bool_check(f"widths q={q} n={n}", mismatch == 0,
                                     f"{mismatch} mismatches"))
            checks.append(make_check(f"width sum q={q} n={n}", r_n_formula(q, n),
                                     sum(w * k for w, k in tally.items())))
            dist = width_distribution(q, n)
            checks.append(bool_check(f"width distribution q={q} n={n}",
                                     dist == tally, f"{dist} != {tally}"))
    return checks


def _canonical(_q_max: int, _seed: int) -> list[dict]:
    checks = []
    res = canon.elimination_solve()
    checks.append(make_check("elimination a", Fraction(-1), res.a))
    ok8 = sum(canon.sigma_preserves_ideal(-1, Cyclotomic.root(8, j)) for j in range(8))
    checks.append(make_check("sigma count at a=-1", 8, ok8))
    for bad in (2, 3, -2):
        cnt = sum(canon.sigma_preserves_ideal(bad, Cyclotomic.root(8, j))
                  for j in range(8))
        checks.append(make_check(f"sigma count at a={bad}", 0, cnt))
    checks.append(bool_check("family matches elimination",
                             res.family == [tuple(tuple(Cyclotomic.scalar(8, 0) + e
                                                        for e in row) for row in m)
                                            for m in canon.sigma_family(-1)]))
    checks.append(bool_check("automorphism count crosscheck",
                             canon.automorphism_count_crosscheck()))
    inf_cls = cusp_canonical(8, (1, 0))
    swap_cls = cusp_canonical(8, (3, 8))
    quarter = {cusp_canonical(8, (1, 4)), cusp_canonical(8, (3, 4))}
    halves = {cusp_canonical(8, (1, 2)), cusp_canonical(8, (3, 2)),
              cusp_canonical(8, (5, 2)), cusp_canonical(8, (7, 2))}
    movers = maps_between_cusps(8, inf_cls, swap_cls)
    checks.append(make_check("transporter count", 8, len(movers)))
    good = all(cusp_class_action(8, g, swap_cls) == inf_cls
               and {cusp_class_action(8, g, c) for c in quarter} == quarter
               and {cusp_class_action(8, g, c) for c in halves} == halves
               for g in movers)
    checks.append(bool_check("transporters swap and preserve orbits", good))
    obstruction = canon.hyperellipticity_obstruction()
    checks.append(bool_check("central classes are scalar",
                             obstruction["center_is_scalar"]))
    checks.append(make_check("central involution quotient genus", 3,
                             obstruction["central_involution_quotient_genus"]))
    checks.append(bool_check("not hyperelliptic", not obstruction["hyperelliptic"]))
    return checks


def _iso(_q_max: int, seed: int) -> list[dict]:
    forward, inverse = octic_to_quartic_maps()
    report = verify_isomorphism_numeric(octic_model(), quartic_model(),
                                        forward, inverse, samples=100,
                                        tol=1e-9, seed=seed)
    return [
        bool_check("iso residual < 1e-9", report["max_residual"] < 1e-9,
                   f"max residual {report['max_residual']:.3e}"),
        bool_check("iso roundtrip < 1e-9", report["max_roundtrip"] < 1e-9,
                   f"max roundtrip {report['max_roundtrip']:.3e}"),
    ]


# suite name -> (source, runner), in the order a full `verify` runs them.
# The source says what each check compares against: golden tables, a
# brute-force oracle, the level-8 closed-form determination, or the seeded
# numeric isomorphism.
SUITES = {
    "table1": ("golden", _table1),
    "table2": ("golden", _table2),
    "table6": ("golden", _table6),
    "table7": ("golden", _table7),
    "oracles": ("oracle", _oracles),
    "canonical": ("formula", _canonical),
    "iso": ("numeric", _iso),
}


def run_suite(name: str, q_max: int, seed: int) -> list[dict]:
    """The checks of one registry suite, each tagged with the suite's source."""
    source, runner = SUITES[name]
    return [dict(check, source=source) for check in runner(q_max, seed)]


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _document(command: str, inputs: dict, result, checks=None) -> dict:
    return {"command": command, "inputs": {k: str(v) for k, v in inputs.items()},
            "result": result, "checks": checks or []}


def cmd_genus(args) -> tuple[dict, list[str], int]:
    q = args.q
    if q < 1:
        raise UsageError("q must be >= 1")
    result = {"q": str(q), "g": str(genus_q(q))}
    lines = [f"g_{q} = {result['g']}"]
    if q <= 2:
        result["note"] = "genus 0 by convention: the curve is rational"
        lines.append(result["note"])
    if args.n is not None:
        n = args.n
        if n < 1 or q % n:
            raise UsageError(f"n = {n} must divide q = {q}")
        if q < 5:
            raise UsageError("quotient genus formulas need q >= 5")
        g = genus_qn(q, n)
        h = h_n_formula(q, n)
        r = r_n_formula(q, n)
        result.update({"n": str(n), "g_qn": str(g), "h": str(h), "R": str(r)})
        lines.append(f"g_{q}^{n} = {g}   h = {h}   R = {r}")
    return _document("genus", {"q": q, "n": args.n}, result), lines, 0


def cmd_cusps(args) -> tuple[dict, list[str], int]:
    q, n = args.q, args.n
    if n < 1 or q % n:
        raise UsageError(f"n = {n} must divide q = {q}")
    orbits = tau_orbits(q, n)
    rows = []
    lines = [f"{len(orbits)} translation orbits at level {q}, step {n}"]
    for orbit in orbits:
        rep = orbit_rep(orbit)
        row = {"rep": cusp_str(q, rep), "size": str(len(orbit))}
        if args.widths:
            row["width"] = str(width(q, n, class_to_cusp(q, rep)))
        rows.append(row)
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
    result = {"orbits": rows}
    if q <= 4 and args.widths:
        result["note"] = "widths from the congruence scan: the closed form needs q >= 5"
        lines.append(result["note"])
    if args.distribution:
        if q >= 5:
            dist = width_distribution(q, n)
        else:
            dist = {}
            for orbit in orbits:
                w = width(q, n, class_to_cusp(q, orbit_rep(orbit)))
                dist[w] = dist.get(w, 0) + 1
        result["distribution"] = {str(k): str(v) for k, v in sorted(dist.items())}
        lines.append("width distribution: "
                     + ", ".join(f"{k}:{v}" for k, v in sorted(dist.items())))
    return _document("cusps", {"q": q, "n": n}, result), lines, 0


def cmd_rotation(args) -> tuple[dict, list[str], int]:
    q, n = args.q, args.n
    if n < 1 or q % n:
        raise UsageError(f"n = {n} must divide q = {q}")
    cusp = parse_cusp(args.cusp)
    try:
        rot = rotation_number(q, n, cusp)
    except ValueError as exc:
        raise UnsupportedError(str(exc)) from exc
    p = q // n
    result = {"q": str(q), "n": str(n), "cusp": f"{cusp[0]}/{cusp[1]}",
              "orbit_len": str(rot.orbit_len), "k": str(rot.k)}
    lines = [f"rotation at {args.cusp}: orbit length {rot.orbit_len}, k = {rot.k}"]
    if rot.orbit_len < p:
        from .equation import exponent_from_rotation
        m = exponent_from_rotation(p, rot)
        result["exponent"] = str(m)
        lines.append(f"branch exponent m = {m}")
    else:
        result["exponent"] = None
        lines.append("unbranched orbit")
    return _document("rotation", {"q": q, "n": n, "cusp": args.cusp}, result), lines, 0


def cmd_equation(args) -> tuple[dict, list[str], int]:
    q = args.q
    if not is_semihyperelliptic_level(q):
        try:
            g1 = genus_qn(q, 1)
        except ValueError:
            g1 = None
        raise UnsupportedError(
            f"level {q} admits no genus-zero cyclic quotient"
            + (f" (translation quotient genus {g1})" if g1 is not None else ""))
    inputs = {"q": q, "normalize": args.normalize,
              "convention": args.convention, "solve_constants": args.solve_constants}
    if q < 5:
        result = {"equation": "y = 0",
                  "note": "the curve is rational; any coordinate works"}
        return _document("equation", inputs, result), [result["equation"],
                                                       result["note"]], 0
    eq = build_equation(q, 1)
    rows = [{"cusp": c, "n": str(s), "k": str(k), "m": str(m)}
            for c, s, k, m in rotation_table(q, 1)]
    lines = ["cusp  orbit  k  m"]
    for row in rows:
        lines.append(f"  {row['cusp']:>5}  {row['n']:>3}  {row['k']:>2} {row['m']:>2}")
    result = {"table": rows, "exponents": [str(m) for m in eq.exponent_multiset],
              "equation": equation_string(eq)}
    lines.append(f"raw: {result['equation']}")
    if args.normalize or args.solve_constants:
        if len(eq.terms) >= 3:
            eq = normalize_with_convention(eq, args.convention)
        else:
            # two branch orbits: infinity and zero use them up (level 5)
            order = sorted(eq.terms, key=lambda t: -t.exponent)
            eq = SemiHyperellipticEquation(
                p=eq.p,
                terms=(replace(order[1], label=Fraction(0)),),
                inf_exponent=order[0].exponent)
        result["equation"] = equation_string(eq)
        result["undetermined"] = undetermined_labels(eq)
        lines.append(f"normalized: {result['equation']}")
        if result["undetermined"]:
            lines.append("undetermined constants: " + ", ".join(result["undetermined"]))
    if args.solve_constants:
        if q != 8:
            raise UnsupportedError(
                f"constant solving is only established for level 8; level {q} "
                f"constants remain undetermined")
        curve = SemiHyperellipticCurve.from_equation(eq)
        label = undetermined_labels(eq)[0]
        demand = _swap_demand(curve, label)
        sols = solve_branch_constant(curve, demand)
        if len(sols) != 1:
            raise UnsupportedError(f"constant solving produced {sols}")
        eq = substitute_label(eq, label, sols[0])
        result["solved"] = {label: exact_str(sols[0])}
        result["equation"] = equation_string(eq)
        result.pop("undetermined", None)
        lines.append(f"solved {label} = {exact_str(sols[0])}: {result['equation']}")
    return _document("equation", inputs, result), lines, 0


def _swap_demand(curve: SemiHyperellipticCurve, label: str) -> tuple:
    """Two branch points sharing an exponent, preferring a pair that contains
    the symbolic one (the demanded automorphism swaps them).  The infinity
    point takes part when it is branched."""
    by_exp: dict[int, list] = {}
    for v, m in curve.branch_map().items():
        by_exp.setdefault(m, []).append(v)
    sym_exp = next(m for v, m in curve.branches if v == label)
    if len(by_exp.get(sym_exp, [])) == 2:
        u, v = by_exp[sym_exp]
        return (u, v)
    pairs = [vals for vals in by_exp.values() if len(vals) == 2]
    if not pairs:
        raise UnsupportedError("no swappable pair of branch points")
    return tuple(pairs[0])


def cmd_group(args) -> tuple[dict, list[str], int]:
    q = args.q
    result: dict = {"q": str(q)}
    lines = []
    if args.order is not None:
        try:
            entries = tuple(int(e) for e in args.order.split(","))
        except ValueError as exc:
            raise UsageError("--order wants four comma-separated integers") from exc
        if len(entries) != 4:
            raise UsageError("--order wants four comma-separated integers")
        m = tuple(e % q for e in entries)
        if (m[0] * m[3] - m[1] * m[2]) % q != 1:
            raise UsageError("matrix determinant is not 1 mod q")
        order = element_order(q, m)
        result["order"] = str(order)
        lines.append(f"order of {entries} mod {q}: {order}")
    if args.max_order:
        result["max_order"] = str(max_element_order(q))
        result["type"] = type_classify(q)
        result["max_order_formula"] = str(max_order_formula(q))
        lines.append(f"largest element order: {result['max_order']} "
                     f"(type {result['type']})")
    if args.center:
        cent = sorted(center(q))
        result["center"] = [",".join(map(str, m)) for m in cent]
        lines.append(f"center: {result['center']}")
    if args.cusp_maps is not None:
        c1 = cusp_canonical(q, parse_cusp(args.cusp_maps[0]))
        c2 = cusp_canonical(q, parse_cusp(args.cusp_maps[1]))
        movers = maps_between_cusps(q, c1, c2)
        result["cusp_maps"] = [",".join(map(str, m)) for m in movers]
        lines.append(f"{len(movers)} elements map {args.cusp_maps[0]} "
                     f"to {args.cusp_maps[1]}")
        lines.extend(f"  {m}" for m in result["cusp_maps"])
    if len(result) == 1:
        raise UsageError("pick at least one of --order/--max-order/--center/--cusp-maps")
    return _document("group", {"q": q}, result), lines, 0


def cmd_lift_solve(args) -> tuple[dict, list[str], int]:
    if args.q != 8:
        raise UnsupportedError("the branch-constant solver is established for level 8")
    eq = normalize_with_convention(build_equation(8, 1), "gcd")
    curve = SemiHyperellipticCurve.from_equation(eq)
    label = undetermined_labels(eq)[0]
    sols = solve_branch_constant(curve, _swap_demand(curve, label))
    result = {"family": equation_string(eq),
              "solutions": {label: [exact_str(s) for s in sols]}}
    lines = [f"family: {result['family']}",
             f"{label} in {{{', '.join(exact_str(s) for s in sols)}}}"]
    return _document("lift-solve", {"q": args.q}, result), lines, 0


def cmd_canonical(args) -> tuple[dict, list[str], int]:
    res = canon.elimination_solve()
    obstruction = canon.hyperellipticity_obstruction()
    sigma_ok = sum(canon.sigma_preserves_ideal(-1, Cyclotomic.root(8, j))
                   for j in range(8))
    result = {
        "quadrics": ["z3^2 - z2*z5", "z2^2 - z1*(z4+z5)",
                     "z1^2 - z4*(z4-(a-1)*z5)"],
        "a": exact_str(res.a),
        "relations": res.relations,
        "assumptions": res.assumptions,
        "steps": res.steps,
        "sigma_count": str(sigma_ok),
        "crosscheck": canon.automorphism_count_crosscheck(),
        "central_involution_quotient_genus":
            str(obstruction["central_involution_quotient_genus"]),
    }
    lines = ["canonical model in P^4: " + "; ".join(result["quadrics"]),
             f"a = {result['a']}",
             "relations: " + ", ".join(res.relations),
             f"valid sigma matrices: {sigma_ok}",
             f"group/matrix count match: {result['crosscheck']}"]
    return _document("canonical", {}, result), lines, 0


def cmd_verify(args) -> tuple[dict, list[str], int]:
    names = [f"table{t}" for t in args.tables or ()]
    names += [name for name in ("oracles", "canonical", "iso") if getattr(args, name)]
    names = list(dict.fromkeys(names)) or list(SUITES)
    if "oracles" in names and args.q_max > ENUM_GUARD:
        raise UsageError(f"--q-max {args.q_max} is above the oracle limit {ENUM_GUARD}")
    for t in args.tables or ():
        if f"table{t}" not in SUITES:
            raise UsageError(f"no golden data for table {t}")
    checks = [c for name in names for c in run_suite(name, args.q_max, args.seed)]
    failed = [c for c in checks if not c["pass"]]
    lines = [f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}"
             + ("" if c["pass"] else f"  expected {c['expected']}, got {c['got']}")
             for c in checks]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    result = {"total": str(len(checks)), "failed": str(len(failed))}
    return (_document("verify", {"q_max": args.q_max}, result, checks), lines,
            1 if failed else 0)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcurve",
        description="Exact cusp, genus and equation computations for "
                    "principal congruence modular curves.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the numeric isomorphism sampler")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("genus", help="genus of the level curve and quotients")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(handler=cmd_genus)

    p = sub.add_parser("cusps", help="translation orbits, widths, distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--widths", action="store_true")
    p.add_argument("--distribution", action="store_true")
    p.set_defaults(handler=cmd_cusps)

    p = sub.add_parser("rotation", help="rotation number of a cusp")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--cusp", required=True, help="inf or X/Z")
    p.set_defaults(handler=cmd_rotation)

    p = sub.add_parser("equation", help="defining equation from rotation data")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--convention", choices=CONVENTIONS, default="gcd")
    p.add_argument("--solve-constants", action="store_true")
    p.set_defaults(handler=cmd_equation)

    p = sub.add_parser("group", help="finite matrix group computations")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--order", help="a,b,c,d entries of a matrix")
    p.add_argument("--max-order", action="store_true")
    p.add_argument("--center", action="store_true")
    p.add_argument("--cusp-maps", nargs=2, metavar=("C1", "C2"))
    p.set_defaults(handler=cmd_group)

    p = sub.add_parser("verify", help="golden tables and oracle cross-checks")
    p.add_argument("--tables", type=int, nargs="+")
    p.add_argument("--oracles", action="store_true")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--iso", action="store_true")
    p.add_argument("--q-max", type=int, default=12)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("lift-solve", help="pin the symbolic branch constant")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(handler=cmd_lift_solve)

    p = sub.add_parser("canonical", help="the level-8 canonical model in P^4")
    p.set_defaults(handler=cmd_canonical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, lines, status = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
