"""Command-line front end and verification harness.

Subcommands: genus, cusps, rotation, equation, group, verify, canonical.
Exit status: 0 success, 1 verification mismatch, 2 argument error,
3 unsupported-mathematics request, 4 internal error (an exception such as
a failed elimination step, a ValueError inside a verify suite or a closed
output pipe, reported on stderr).

Argument rules are stated once, in the library: each raises ValueError,
which main maps to exit 2, and no handler restates them.  The explicit
checks are arith.check_step in `rotation`, so that a step not dividing q
exits 2 while the level limit of rotation numbers exits 3, and the --q-max
floor and limit that each SUITES entry states beside its suite's source and
runner; `verify` derives its flags and --q-max checks from those entries.

Output is text by default or a JSON document with --format json, whose
bytes are exactly those of json.dumps(doc, indent=2), a list of rows of one
key tuple filled by one %-format included.  Exact numbers are strings "p" or
"p/q".  The only non-exact values are the residuals of the numeric
isomorphism check and, in verify's JSON, each suite's wall-clock "seconds"
(a decimal string that differs from run to run).  main may be called many
times in one process; it builds the parser once and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from itertools import chain

from .arith import GAUSS_I, Cyclotomic, check_step, divisors
from . import canonical as canon
from .cusps import (check_cusp, class_to_cusp, cusp_action, cusp_canonical,
                    cusp_class_action, enumerate_cusps,
                    find_equivalence_witness, gamma_qn_member, h_formula,
                    h_n_formula, orbit_rep, orbit_widths, tau_orbits, width,
                    width_bruteforce, width_distribution, width_tally)
from .curve import (BranchPoint, InfinityPoint, Monomial, SemiHyperellipticCurve,
                    differential_order, octic_family, octic_model,
                    octic_to_quartic_maps, quartic_model, solve_branch_constant,
                    verify_isomorphism_numeric)
from .equation import (SemiHyperellipticEquation, build_equation,
                       equation_string, exponent_from_rotation,
                       normalize_with_convention, rotation_number, rotation_table,
                       substitute_label, undetermined_labels, CONVENTIONS)
from .genus import (genus_prime_quotient, genus_q, genus_qn, hurwitz_deficiency,
                    is_semihyperelliptic_level)
from .golden import golden
from .poly import Poly
from .psl import (ENUM_GUARD, center, element_order, enumerate_psl,
                  maps_between_cusps, max_element_order, max_order_formula,
                  r_formula, r_n_formula, type_classify)


class UnsupportedError(Exception):
    pass


def parse_cusp(s: str) -> tuple[int, int]:
    if s in ("inf", "oo"):
        return (1, 0)
    try:
        x_str, z_str = s.split("/") if "/" in s else (s, "1")
        x, z = int(x_str), int(z_str)
    except ValueError as exc:
        raise ValueError(f"cannot parse cusp {s!r}; use inf or X/Z") from exc
    if z < 0 or z == 0 and x < 0:
        x, z = -x, -z
    return check_cusp((x, z))


def make_check(name: str, expected, got) -> dict:
    return {"name": name, "pass": expected == got,
            "expected": str(expected), "got": str(got)}


def bool_check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "expected": "true",
            "got": "true" if ok else (detail or "false")}


# ---------------------------------------------------------------------------
# verification registry: every suite is a runner (q_max, seed) -> checks
# ---------------------------------------------------------------------------

def _genus_rows(table: str, q: int) -> list[dict]:
    """The g and g1 checks of a golden genus table at level q."""
    g1 = genus_qn(q, 1) if q >= 5 else 0  # rational curve below level 5
    return [make_check(f"table{table} g q={q}", golden(table, "g", q), genus_q(q)),
            make_check(f"table{table} g1 q={q}", golden(table, "g1", q), g1)]


def _table1(q_max: int, _seed: int) -> list[dict]:
    return [c for q in range(1, min(q_max, 20) + 1) for c in _genus_rows("1", q)]


def _table2(_q_max: int, _seed: int) -> list[dict]:
    checks = []
    rows = {row[0]: row for row in rotation_table(8, build_equation(8, 1))}
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
        checks += _genus_rows("7", q)
        gp = genus_prime_quotient(q) if q >= 10 else 0
        checks.append(make_check(f"table7 gp q={q}", golden("7", "gp", q), gp))
    return checks


def _witnesses(q: int) -> dict:
    """The equivalence witness search against the class rule at level q.

    Each class lift c has two twins in its class, under (1, 0; q, 1) and under
    (-1, 0; q, -1); the second is reached only by the search's sign -1.  Both
    need a witness = I (mod q) that maps c to them, and the previous class
    needs none.
    """
    classes = enumerate_cusps(q)
    bad = 0
    for i, cls in enumerate(classes):
        c = class_to_cusp(q, cls)
        for m in ((1, 0, q, 1), (-1, 0, q, -1)):
            twin = cusp_action(m, c)
            g = find_equivalence_witness(q, c, twin)
            bad += g is None or not gamma_qn_member(g, q, q) or cusp_action(g, c) != twin
        bad += find_equivalence_witness(q, c, class_to_cusp(q, classes[i - 1])) is not None
    return bool_check(f"witnesses q={q}", bad == 0, f"{bad} mismatches")


def _oracles(q_max: int, _seed: int) -> list[dict]:
    # one pass over the levels, so the bounded group cache builds each once
    counts, orders, cusp_checks = [], [], []
    for q in range(2, q_max + 1):
        if q >= 3:
            group_order = len(enumerate_psl(q))
            counts.append(make_check(f"psl count q={q}", r_formula(q), group_order))
            counts.append(make_check(f"hurwitz q={q}", 2 * genus_q(q) - 2,
                                     hurwitz_deficiency(group_order, 0, [q, 3, 2])))
            counts.append(make_check(f"cusp count q={q}", h_formula(q), len(enumerate_cusps(q))))
        orders.append(make_check(f"max order q={q}", max_order_formula(q),
                                 max_element_order(q)))
        if q < 5:
            continue
        if q <= 12:  # every pair is one exhaustive search; level 12 bounds the cost
            cusp_checks.append(_witnesses(q))
        for n in divisors(q):
            orbits = tau_orbits(q, n)
            cusp_checks.append(make_check(f"orbit count q={q} n={n}",
                                          h_n_formula(q, n), len(orbits)))
            reps = [class_to_cusp(q, orbit_rep(orbit)) for orbit in orbits]
            mismatch = sum(width(q, n, c) != width_bruteforce(q, n, c) for c in reps)
            cusp_checks.append(bool_check(f"widths q={q} n={n}", mismatch == 0,
                                          f"{mismatch} mismatches"))
            tally = width_tally(q, n, orbits)
            cusp_checks.append(make_check(f"width sum q={q} n={n}", r_n_formula(q, n),
                                          sum(w * k for w, k in tally.items())))
            dist = width_distribution(q, n)
            cusp_checks.append(bool_check(f"width distribution q={q} n={n}",
                                          dist == tally, f"{dist} != {tally}"))
    return counts + orders + cusp_checks


def _level8_swap() -> tuple[list, dict]:
    """The level-8 group elements carrying one exponent-1 branch orbit of
    build_equation(8, 1) to the other (normalization sends the pair to x = 1
    and x = a), and the orbit permutation they must induce: that pair
    swapped, every other branch orbit fixed."""
    terms = build_equation(8, 1).terms
    one, a = (t.orbit for t in terms if t.exponent == 1)
    perm = {t.orbit: t.orbit for t in terms} | {one: a, a: one}
    return maps_between_cusps(8, one[0], a[0]), perm


def _canonical(_q_max: int, _seed: int) -> list[dict]:
    checks = []
    res = canon.elimination_solve()
    sigma = canon.sigma_count(-1)
    movers, perm = _level8_swap()
    checks.append(make_check("elimination a", Fraction(-1), res.a))
    checks.append(make_check("sigma count at a=-1", 8, sigma))
    for bad in (2, 3, -2):
        checks.append(make_check(f"sigma count at a={bad}", 0, canon.sigma_count(bad)))
    checks.append(bool_check("family matches elimination",
                             res.family == canon.sigma_family(-1)))
    checks.append(bool_check("automorphism count crosscheck", len(movers) == sigma == 8))
    a = s = Poly.x()  # the parameter, and a square root of it for the zero images
    points = [(a, canon.image_of_one()), (a, canon.image_of_a(a))]
    points += [(s * s, pt) for pt in canon.images_of_zero(s)]
    points += [(a, pt) for pt in canon.images_of_infinity(GAUSS_I)]
    checks.append(bool_check("special points on the quadrics",
                             all(r == 0 for param, pt in points
                                 for r in canon.quadric_residuals(param, pt))))
    decks = [canon.deck_matrix(Cyclotomic.root(8, j)) for j in range(8)]
    checks.append(make_check("deck matrices preserve the ideal", 8,
                             sum(canon.preserves_ideal(m, -1) for m in decks)))
    checks.append(make_check("transporter count", 8, len(movers)))
    good = all({cusp_class_action(8, g, c) for c in orbit} == set(image)
               for g in movers for orbit, image in perm.items())
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
    return [bool_check(f"iso {key} < 1e-9", report[f"max_{key}"] < 1e-9,
                       f"max {key} {report[f'max_{key}']:.3e}")
            for key in ("residual", "roundtrip")]


# name -> (source, runner, --q-max floor, --q-max limit), None for no bound, in
# the order a full `verify` runs them.  Sources: golden tables, brute-force
# oracles, the level-8 closed form, the seeded numeric isomorphism.  Below
# level 5 some oracle kind has no check, so a run could pass on none.
SUITES = {
    "table1": ("golden", _table1, 5, None),
    "table2": ("golden", _table2, None, None),
    "table6": ("golden", _table6, None, None),
    "table7": ("golden", _table7, None, None),
    "oracles": ("oracle", _oracles, 5, ENUM_GUARD),
    "canonical": ("formula", _canonical, None, None),
    "iso": ("numeric", _iso, None, None),
}
FLAGGED = [name for name in SUITES if not name.startswith("table")]  # --tables N: tableN


def run_suite(name: str, q_max: int, seed: int) -> list[dict]:
    """The checks of one registry suite, each tagged with the suite's source."""
    source, runner, _, _ = SUITES[name]
    return [dict(check, source=source) for check in runner(q_max, seed)]


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _document(command: str, inputs: dict, result, checks=None) -> dict:
    return {"command": command, "inputs": {k: str(v) for k, v in inputs.items()},
            "result": result, "checks": checks or []}


def cmd_genus(args) -> tuple[dict, list[str], int]:
    q = args.q
    result = {"q": str(q), "g": str(genus_q(q))}
    lines = [f"g_{q} = {result['g']}"]
    if q <= 2:
        result["note"] = "genus 0 by convention: the curve is rational"
        lines.append(result["note"])
    if args.n is not None:
        n = args.n
        g = genus_qn(q, n)
        h = h_n_formula(q, n)
        r = r_n_formula(q, n)
        result.update({"n": str(n), "g_qn": str(g), "h": str(h), "R": str(r)})
        lines.append(f"g_{q}^{n} = {g}   h = {h}   R = {r}")
    return _document("genus", {"q": q, "n": args.n}, result), lines, 0


def cmd_cusps(args) -> tuple[dict, list[str], int]:
    q, n = args.q, args.n
    orbits = tau_orbits(q, n)
    rows = []
    lines = [f"{len(orbits)} translation orbits at level {q}, step {n}"]
    for orbit, ((x, z), w) in zip(orbits, orbit_widths(q, n, orbits)):
        row = {"rep": f"{x}/{z}", "size": str(len(orbit))}
        if args.widths:
            row["width"] = str(w)
        rows.append(row)
    if args.format == "text":  # one line per orbit, built only when printed
        lines += ["  " + "  ".join(f"{k}={v}" for k, v in row.items()) for row in rows]
    result = {"orbits": rows}
    if q <= 4 and args.widths:
        result["note"] = "widths from the congruence scan: the closed form needs q >= 5"
        lines.append(result["note"])
    if args.distribution:
        dist = width_distribution(q, n) if q >= 5 else width_tally(q, n, orbits)
        result["distribution"] = {str(k): str(v) for k, v in sorted(dist.items())}
        lines.append("width distribution: "
                     + ", ".join(f"{k}:{v}" for k, v in sorted(dist.items())))
    return _document("cusps", {"q": q, "n": n}, result), lines, 0


def cmd_rotation(args) -> tuple[dict, list[str], int]:
    q, n = args.q, args.n
    check_step(q, n)  # an argument error, unlike rotation_number's own limits
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
        # such a level has positive genus, so q >= 6 and genus_qn applies
        raise UnsupportedError(f"level {q} admits no genus-zero cyclic quotient "
                               f"(translation quotient genus {genus_qn(q, 1)})")
    inputs = {"q": q, "normalize": args.normalize,
              "convention": args.convention, "solve_constants": args.solve_constants}
    if q < 5:
        result = {"equation": "y = 0",
                  "note": "the curve is rational; any coordinate works"}
        return _document("equation", inputs, result), [result["equation"],
                                                       result["note"]], 0
    if args.solve_constants and q != 8:
        raise UnsupportedError(f"constant solving is only established for level 8; "
                               f"level {q} constants remain undetermined")
    eq = build_equation(q, 1)
    rows = [{"cusp": c, "n": str(s), "k": str(k), "m": str(m)}
            for c, s, k, m in rotation_table(q, eq)]
    lines = ["cusp  orbit  k  m"]
    for row in rows:
        lines.append(f"  {row['cusp']:>5}  {row['n']:>3}  {row['k']:>2} {row['m']:>2}")
    result = {"table": rows, "exponents": [str(m) for m in eq.exponent_multiset],
              "equation": equation_string(eq)}
    lines.append(f"raw: {result['equation']}")
    if args.normalize or args.solve_constants:
        eq = normalize_with_convention(eq, args.convention)
        result["equation"] = equation_string(eq)
        result["undetermined"] = undetermined_labels(eq)
        lines.append(f"normalized: {result['equation']}")
        if result["undetermined"]:
            lines.append("undetermined constants: " + ", ".join(result["undetermined"]))
    if args.solve_constants:
        label, sols = _solve_constant(eq)
        if len(sols) != 1:
            raise UnsupportedError(f"constant solving produced {sols}")
        eq = substitute_label(eq, label, sols[0])
        result["solved"] = {label: str(sols[0])}
        result["equation"] = equation_string(eq)
        result.pop("undetermined", None)
        lines.append(f"solved {label} = {sols[0]}: {result['equation']}")
    return _document("equation", inputs, result), lines, 0


def _solve_constant(eq: SemiHyperellipticEquation) -> tuple[str, list]:
    """The first undetermined label of eq and the values of it for which the
    swap of the two branch points of exponent 1, infinity included, lifts
    to the curve.  _level8_swap states the same pair on the group side, as
    the two exponent-1 orbits of the raw equation."""
    curve = SemiHyperellipticCurve.from_equation(eq)
    demand = tuple(v for v, m in curve.branch_map().items() if m == 1)
    return undetermined_labels(eq)[0], solve_branch_constant(curve, demand)


def cmd_group(args) -> tuple[dict, list[str], int]:
    q = args.q
    result: dict = {"q": str(q)}
    lines = []
    entries = cusps = None  # every argument is parsed before any group work
    if args.order is not None:
        try:
            a, b, c, d = (int(e) for e in args.order.split(","))
        except ValueError as exc:
            raise ValueError("--order wants four comma-separated integers") from exc
        entries = (a, b, c, d)
    if args.cusp_maps is not None:
        cusps = [cusp_canonical(q, parse_cusp(c)) for c in args.cusp_maps]
    if entries is not None:
        order = element_order(q, entries)
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
    if cusps is not None:
        movers = maps_between_cusps(q, *cusps)
        result["cusp_maps"] = [",".join(map(str, m)) for m in movers]
        lines.append(f"{len(movers)} elements map {args.cusp_maps[0]} "
                     f"to {args.cusp_maps[1]}")
        lines.extend(f"  {m}" for m in result["cusp_maps"])
    if len(result) == 1:
        raise ValueError("pick at least one of --order/--max-order/--center/--cusp-maps")
    return _document("group", {"q": q}, result), lines, 0


def cmd_canonical(args) -> tuple[dict, list[str], int]:
    res = canon.elimination_solve()
    obstruction = canon.hyperellipticity_obstruction()
    sigma_ok = canon.sigma_count(-1)
    movers, _ = _level8_swap()
    result = {
        "quadrics": ["z3^2 - z2*z5", "z2^2 - z1*(z4+z5)",
                     "z1^2 - z4*(z4-(a-1)*z5)"],
        "a": str(res.a),
        "relations": res.relations,
        "assumptions": res.assumptions,
        "steps": res.steps,
        "sigma_count": str(sigma_ok),
        "crosscheck": len(movers) == sigma_ok == 8,
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
    names += [name for name in FLAGGED if getattr(args, name)]
    names = list(dict.fromkeys(names)) or list(SUITES)
    for _, _, floor, limit in (SUITES[name] for name in names if name in SUITES):
        if limit is not None and args.q_max > limit:
            raise ValueError(f"--q-max {args.q_max} is above the oracle limit {limit}")
        if floor is not None and args.q_max < floor:
            raise ValueError(f"--q-max {args.q_max} is below the oracle floor {floor}")
    for t in args.tables or ():
        if f"table{t}" not in SUITES:
            raise ValueError(f"no golden data for table {t}")
    checks, suites = [], []
    for name in names:
        start = time.perf_counter()
        try:  # the flags are checked above, so a ValueError here is a fault of the suite
            got = run_suite(name, args.q_max, args.seed)
        except ValueError as exc:
            raise RuntimeError(f"suite {name}: {exc}") from exc
        suites.append({"name": name, "source": SUITES[name][0], "checks": str(len(got)),
                       "seconds": f"{time.perf_counter() - start:.6f}"})
        checks += got
    failed = [c for c in checks if not c["pass"]]
    lines = [f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}"
             + ("" if c["pass"] else f"  expected {c['expected']}, got {c['got']}")
             for c in checks]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    result = {"total": str(len(checks)), "failed": str(len(failed)), "suites": suites}
    return (_document("verify", {"q_max": args.q_max}, result, checks), lines,
            1 if failed else 0)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves no state in it."""
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

    p = sub.add_parser("cusps", help="translation orbits, widths, distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--widths", action="store_true")
    p.add_argument("--distribution", action="store_true")

    p = sub.add_parser("rotation", help="rotation number of a cusp")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--cusp", required=True, help="inf or X/Z")

    p = sub.add_parser("equation", help="defining equation from rotation data")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--convention", choices=CONVENTIONS, default="gcd")
    p.add_argument("--solve-constants", action="store_true")

    p = sub.add_parser("group", help="finite matrix group computations")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--order", help="a,b,c,d entries of a matrix")
    p.add_argument("--max-order", action="store_true")
    p.add_argument("--center", action="store_true")
    p.add_argument("--cusp-maps", nargs=2, metavar=("C1", "C2"))

    p = sub.add_parser("verify", help="golden tables and oracle cross-checks")
    p.add_argument("--tables", type=int, nargs="+")
    for name in FLAGGED:
        p.add_argument(f"--{name}", action="store_true")
    p.add_argument("--q-max", type=int, default=12)

    sub.add_parser("canonical", help="the level-8 canonical model in P^4")

    return parser


_quote = json.encoder.encode_basestring_ascii


def _render_json(v, nl: str = "\n") -> str:
    """The text of json.dumps(v, indent=2), built by joins so that every
    leaf takes json's C path (indent makes json.dumps run pure Python).  A
    list whose items are all dicts of one non-empty key tuple with str values
    fills one %-format; any other list takes the general path.  True, False
    and None print as literals.  A tuple renders as a list; a non-str key
    raises TypeError."""
    if isinstance(v, str):
        return _quote(v)
    if v is None or type(v) is bool:
        return "null" if v is None else "true" if v else "false"
    if not isinstance(v, (dict, list, tuple)):
        return json.dumps(v)
    if not v:
        return "{}" if isinstance(v, dict) else "[]"
    inner = nl + "  "
    if isinstance(v, dict):
        items = [_quote(k) + ": " + (_quote(x) if type(x) is str else _render_json(x, inner))
                 for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(v[0]) is dict and v[0]:
        try:  # _quote and dict.values raise TypeError on a non-str key or value or a non-dict
            if len(set(map(tuple, v))) == 1:
                row = "{" + ",".join([f"{inner}  {_quote(k).replace('%', '%%')}: %s"
                                      for k in v[0]]) + inner + "}"
                return ("[" + inner + ("," + inner).join([row] * len(v)) + nl + "]") % tuple(
                    map(_quote, chain.from_iterable(map(dict.values, v))))
        except TypeError:
            pass  # the whole list takes the general path
    items = [_quote(x) if type(x) is str else _render_json(x, inner) for x in v]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            # looked up per call, so a rebound cmd_* takes effect without a new parser
            doc, lines, status = globals()["cmd_" + args.subcommand](args)
        except UnsupportedError as exc:
            print(f"unsupported: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(_render_json(doc))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except Exception as exc:  # a crash or an output error is internal, never a mismatch
        if isinstance(exc, BrokenPipeError):  # the reader left: shutdown flushes to nowhere
            sys.stdout = open(os.devnull, "w")
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return status


if __name__ == "__main__":
    sys.exit(main())
