"""Operations and their independent answer checks.

Each operation kind maps to (run, check).  `run` is the timed call into
modcurve; `check` runs afterwards, outside the timed interval, and returns
None or a description of the wrong answer.  Checks draw on golden tables
1, 2, 6 and 7, on the formula partner of a brute-force oracle, on values
known by construction, or on a few lines of independent arithmetic here.

Calls go through module attributes (psl.center, not a bound name) so that
the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

from modcurve import canonical, cli, curve, cusps, equation, golden, psl
from modcurve.arith import Cyclotomic
from modcurve.genus import euler_genus

def _expect(pairs) -> str | None:
    """First (label, expected, got) triple whose values differ, as text."""
    for label, expected, got in pairs:
        if expected != got:
            return f"{label}: expected {expected!r}, got {got!r}"
    return None


def _cusp(text: str) -> tuple[int, int]:
    if text == "inf":
        return (1, 0)
    x, z = text.split("/")
    return (int(x), int(z))


def _cls(q: int, x: int, z: int) -> tuple[int, int]:
    return min((x % q, z % q), (-x % q, -z % q))


def _projective_center(q: int) -> list[tuple[int, int, int, int]]:
    """Center of SL(2, Z/q) modulo the scalars lambda*I, lambda^2 = 1, as
    sorted canonical representatives.  S and T generate, so g is central
    exactly when gS = nu*Sg and gT = mu*Tg for scalars nu, mu; the S
    condition forces g = (nu*d, -nu*c; c, d), which leaves a scan over c, d."""
    lams = [lam for lam in range(1, q) if lam * lam % q == 1] or [1]
    out = set()
    for nu in lams:
        for c in range(q):
            for d in range(q):
                a, b = nu * d % q, -nu * c % q
                if (a * d - b * c) % q != 1:
                    continue
                g_t = (a, a + b, c, c + d)          # g T
                t_g = (a + c, b + d, c, d)          # T g
                if any(all((mu * x - y) % q == 0 for x, y in zip(t_g, g_t))
                       for mu in lams):
                    out.add(min(tuple(lam * x % q for x in (a, b, c, d)) for lam in lams))
    return sorted(out)


def _golden_genus(q: int, row: str = "g"):
    return golden.golden("1", row, q) if q <= 20 else None


# ---------------------------------------------------------------------------
# oracle-sweep: brute-force oracles, checked against their closed forms
# ---------------------------------------------------------------------------

def _orbit_reps(q: int, n: int):
    return [cusps.class_to_cusp(q, cusps.orbit_rep(o)) for o in cusps.tau_orbits(q, n)]


def _widths(op):
    q, n = op["q"], op["n"]
    return [(rep, cusps.width_bruteforce(q, n, rep)) for rep in _orbit_reps(q, n)]


def _width_tally(op):
    q, n = op["q"], op["n"]
    tally: dict[int, int] = {}
    for rep in _orbit_reps(q, n):
        w = cusps.width(q, n, rep)
        tally[w] = tally.get(w, 0) + 1
    return tally


ORACLE_SWEEP = {
    "psl_count": (lambda op: len(psl.enumerate_psl(op["q"])),
                  lambda op, got: _expect([("|PSL|", psl.r_formula(op["q"]), got)])),
    "cusp_count": (lambda op: len(cusps.enumerate_cusps(op["q"])),
                   lambda op, got: _expect([("cusp classes", cusps.h_formula(op["q"]), got)])),
    "max_order": (lambda op: psl.max_element_order(op["q"]),
                  lambda op, got: _expect([("max order", psl.max_order_formula(op["q"]), got)])),
    "center": (lambda op: sorted(psl.center(op["q"])),
               lambda op, got: _expect([("projective center", _projective_center(op["q"]),
                                         got)])),
    "orbit_count": (lambda op: len(cusps.tau_orbits(op["q"], op["n"])),
                    lambda op, got: _expect([("orbits", cusps.h_n_formula(op["q"], op["n"]), got)])),
    "widths": (_widths,
               lambda op, got: _expect((f"width of {rep}", cusps.width(op["q"], op["n"], rep), w)
                                       for rep, w in got)),
    "width_sum": (lambda op: cusps.orbit_width_sum(op["q"], op["n"]),
                  lambda op, got: _expect([("width sum", psl.r_n_formula(op["q"], op["n"]), got)])),
    "width_distribution": (_width_tally,
                           lambda op, got: _expect([("distribution",
                                                     cusps.width_distribution(op["q"], op["n"]),
                                                     got)])),
}


# ---------------------------------------------------------------------------
# level-queries: in-process CLI calls, checked from the JSON document
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(["--format", "json"] + argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _argv(op) -> list[str]:
    q = str(op["q"]) if "q" in op else None
    kind = op["kind"]
    if kind == "group_max_order":
        return ["group", "--q", q, "--max-order"]
    if kind == "group_center":
        return ["group", "--q", q, "--center"]
    if kind == "group_cusp_maps":
        return ["group", "--q", q, "--cusp-maps", op["c1"], op["c2"]]
    if kind == "group_order":
        return ["group", "--q", q, "--order", ",".join(map(str, op["m"]))]
    if kind == "cusps":
        return ["cusps", "--q", q, "--n", str(op["n"]), "--widths", "--distribution"]
    if kind == "genus":
        return ["genus", "--q", q, "--n", str(op["n"])]
    if kind == "rotation":
        return ["rotation", "--q", q, "--n", str(op["n"]), f"--cusp={op['cusp']}"]
    if kind == "equation":
        return ["equation", "--q", q, "--normalize", "--convention", op["convention"]]
    if kind == "verify_tables":
        return ["verify", "--tables", "1", "2", "6", "7", "--q-max", "20"]
    raise ValueError(f"unknown CLI operation {kind!r}")


def _check_cli(op, got) -> str | None:
    status, out, err = got
    if status != 0:
        return f"exit status {status}: {err.strip()}"
    doc = json.loads(out)
    return CLI_CHECKS[op["kind"]](op, doc["result"], doc)


def _check_cusp_maps(op, res, _doc):
    q = op["q"]
    (x1, z1), (x2, z2) = _cusp(op["c1"]), _cusp(op["c2"])
    target = _cls(q, x2, z2)
    movers = [tuple(int(e) for e in m.split(",")) for m in res["cusp_maps"]]
    bad = [m for m in movers
           if _cls(q, m[0] * x1 + m[1] * z1, m[2] * x1 + m[3] * z1) != target]
    return _expect([("transporters = R_q/h_q",
                     psl.r_formula(q) // cusps.h_formula(q), len(movers)),
                    ("elements not sending c1 to c2", [], bad)])


def _check_cusps(op, res, _doc):
    q, n = op["q"], op["n"]
    rows = res["orbits"]
    widths = [int(r["width"]) for r in rows]
    tally: dict[str, int] = {}
    for w in widths:
        tally[str(w)] = tally.get(str(w), 0) + 1
    sampled = [(r["rep"], cusps.width_bruteforce(q, n, _cusp(r["rep"])), int(r["width"]))
               for r in rows[:: max(1, len(rows) // 3)]]
    return _expect([("orbits", cusps.h_n_formula(q, n), len(rows)),
                    ("classes", cusps.h_formula(q), sum(int(r["size"]) for r in rows)),
                    ("width sum", psl.r_n_formula(q, n), sum(widths)),
                    ("distribution", {k: str(v) for k, v in tally.items()},
                     res["distribution"])]
                   + [(f"brute-force width of {rep}", bf, w) for rep, bf, w in sampled])


def _check_genus(op, res, _doc):
    q, n = op["q"], op["n"]
    g = _golden_genus(q)
    if g is None:
        g = euler_genus(cusps.h_formula(q), psl.r_formula(q))
    g_qn = _golden_genus(q, "g1") if n == 1 else _golden_genus(q) if n == q else None
    if g_qn is None:
        g_qn = euler_genus(cusps.h_n_formula(q, n), psl.r_n_formula(q, n))
    return _expect([("g", str(g), res["g"]), ("g_qn", str(g_qn), res["g_qn"])])


def _check_rotation(op, res, _doc):
    q, n = op["q"], op["n"]
    p = q // n
    x, z = _cusp(op["cusp"])
    start = cur = _cls(q, x, z)
    orbit = 0
    while True:  # brute-force orbit of the class under translation by n
        cur = _cls(q, cur[0] + n * cur[1], cur[1])
        orbit += 1
        if cur == start:
            break
    orbit_len, k = int(res["orbit_len"]), int(res["k"])
    checks = [("orbit length", orbit, orbit_len),
              ("branched", orbit < p, res["exponent"] is not None)]
    if res["exponent"] is not None:
        back = equation.rotation_from_exponent(p, int(res["exponent"]))
        checks.append(("rotation from exponent", (orbit_len, k), tuple(back)))
    if q == 8 and n == 1 and op["cusp"] in ("1/0", "3/8", "1/4", "1/2"):
        row = op["cusp"]
        checks += [(f"table2 {row} {col}", golden.golden("2", row, col), int(v))
                   for col, v in (("n", orbit_len), ("k", k), ("m", res["exponent"]))]
    return _expect(checks)


def _hurwitz_genus(p: int, exponents: list[int]) -> int:
    """Genus of y^p = prod (x - a_i)^m_i with sum m_i = 0 mod p."""
    return (-2 * p + sum(p - math.gcd(p, m) for m in exponents)) // 2 + 1


def _check_equation(op, res, _doc):
    q = op["q"]
    exps = [int(m) for m in res["exponents"]]
    return _expect([("Riemann-Hurwitz genus", golden.golden("1", "g", q),
                     _hurwitz_genus(q, exps)),
                    ("undetermined constants", max(0, len(exps) - 3),
                     len(res.get("undetermined", []))),
                    ("equation degree", f"y^{q} =", res["equation"].split(" ")[0] + " =")])


def _check_verify(op, res, doc):
    return _expect([("checks", "109", res["total"]), ("failed", "0", res["failed"]),
                    ("all pass", True, all(c["pass"] for c in doc["checks"]))])


CLI_CHECKS = {
    "group_max_order": lambda op, res, _d: _expect([
        ("max order", str(psl.max_order_formula(op["q"])), res["max_order"]),
        ("type", "I" if op["q"] % 4 == 2 and op["q"] % 3 else "II", res["type"])]),
    "group_center": lambda op, res, _d: _expect([
        ("center", [",".join(map(str, m)) for m in _projective_center(op["q"])], res["center"])]),
    "group_cusp_maps": _check_cusp_maps,
    "group_order": lambda op, res, _d: _expect([("order", str(op["order"]), res["order"])]),
    "cusps": _check_cusps,
    "genus": _check_genus,
    "rotation": _check_rotation,
    "equation": _check_equation,
    "verify_tables": _check_verify,
}

LEVEL_QUERIES = {kind: (lambda op: run_cli(_argv(op)), _check_cli) for kind in CLI_CHECKS}


# ---------------------------------------------------------------------------
# cover-geometry: level-8 determination and cyclic covers
# ---------------------------------------------------------------------------

TABLE6_COLS = {
    "x": ((1, 0, 0), 0, False), "x-1": ((0, 1, 0), 0, False),
    "y": ((0, 0, 0), -1, False), "dx": ((0, 0, 0), 0, True),
    "dx/y3": ((0, 0, 0), 3, True), "x*dx/y5": ((1, 0, 0), 5, True),
    "x*dx/y6": ((1, 0, 0), 6, True), "x*(x-1)*dx/y7": ((1, 1, 0), 7, True),
    "x*dx/y7": ((1, 0, 0), 7, True),
}


def _octic_family():
    """y^8 = x^2 (x - 1)(x - a), the constant a left symbolic."""
    return curve.SemiHyperellipticCurve(8, ((Fraction(0), 2), (Fraction(1), 1), ("a", 1)))


def _table6_point(row: str):
    if row == "inf":
        return curve.InfinityPoint(1)
    return curve.BranchPoint({"zero": 0, "one": 1, "a": 2}[row], 1)


def _genus_basis(op):
    eq = equation.normalize_with_convention(equation.build_equation(op["q"], 1),
                                            op["convention"])
    c = curve.SemiHyperellipticCurve.from_equation(eq)
    return curve.curve_genus(c), len(curve.holomorphic_basis(c))


def _iso(op):
    forward, inverse = curve.octic_to_quartic_maps()
    return curve.verify_isomorphism_numeric(curve.octic_model(), curve.quartic_model(),
                                            forward, inverse, samples=100, tol=1e-9,
                                            seed=op["seed"])


OBSTRUCTION = {"sign_center_size": 2, "center_is_scalar": True,
               "projective_center_trivial": True,
               "central_involution_quotient_genus": 3, "hyperelliptic": False}

COVER_GEOMETRY = {
    "elimination": (lambda op: canonical.elimination_solve(),
                    lambda op, res: _expect([("a", Fraction(-1), res.a),
                                             ("family size", 8, len(res.family)),
                                             ("step log", True, len(res.steps) > 0)])),
    "sigma_count": (lambda op: sum(canonical.sigma_preserves_ideal(Fraction(op["a"]),
                                                                   Cyclotomic.root(8, j))
                                   for j in range(8)),
                    lambda op, got: _expect([("valid sigma matrices",
                                              8 if Fraction(op["a"]) == -1 else 0, got)])),
    "solve_constant": (lambda op: curve.solve_branch_constant(_octic_family(),
                                                              (Fraction(1), "a")),
                       lambda op, got: _expect([("branch constant", [Fraction(-1)], got)])),
    "genus_basis": (_genus_basis,
                    lambda op, got: _expect([("genus and basis size",
                                              (golden.golden("1", "g", op["q"]),) * 2, got)])),
    "table6_row": (lambda op: [curve.differential_order(_octic_family(),
                                                        curve.Monomial(*spec),
                                                        _table6_point(op["row"]))
                               for spec in TABLE6_COLS.values()],
                   lambda op, got: _expect([(f"table6 {op['row']}",
                                             [golden.golden("6", op["row"], col)
                                              for col in TABLE6_COLS], got)])),
    "iso": (_iso,
            lambda op, rep: _expect([("samples", 100, rep["samples"]),
                                     ("residual < 1e-9", True, rep["max_residual"] < 1e-9),
                                     ("round trip < 1e-9", True, rep["max_roundtrip"] < 1e-9)])),
    "obstruction": (lambda op: canonical.hyperellipticity_obstruction(),
                    lambda op, got: _expect([("obstruction", OBSTRUCTION, got)])),
}

KINDS = {**ORACLE_SWEEP, **LEVEL_QUERIES, **COVER_GEOMETRY}
