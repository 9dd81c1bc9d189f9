import collections
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from modcurve.canonical import EliminationError
from modcurve.cli import (SUITES, _level8_swap, _render_json, build_parser, cmd_cusps,
                          main, parse_cusp, run_suite)
from modcurve.equation import CONVENTIONS
from modcurve.golden import load_golden


DATA = Path(__file__).parent / "data"
# each "$ modcurve ARGS" line of equations.txt is followed by the text output
# of those ARGS, captured before every level shared one normalization path
EQUATION_RUNS = re.split(r"^\$ modcurve (.*)\n", (DATA / "equations.txt").read_text(),
                         flags=re.M)[1:]
# the same layout for group.txt, captured before the max-order walk, the
# center filter and the transporter scan were inlined
GROUP_RUNS = re.split(r"^\$ modcurve (.*)\n", (DATA / "group.txt").read_text(), flags=re.M)[1:]
# and for cusps.txt, captured before each level's classes were generated directly
CUSP_RUNS = re.split(r"^\$ modcurve (.*)\n", (DATA / "cusps.txt").read_text(), flags=re.M)[1:]


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def select(name):
    """The verify flags that pick one registry suite: --tables N for tableN."""
    return ["--tables", name[len("table"):]] if name.startswith("table") else [f"--{name}"]


def past_bounds():
    """(suite, a --q-max one past a bound it declares, the error's wording)."""
    for name, (_, _, floor, limit) in SUITES.items():
        if floor is not None:
            yield name, floor - 1, f"below the oracle floor {floor}"
        if limit is not None:
            yield name, limit + 1, f"above the oracle limit {limit}"


class TestParseCusp:
    def test_forms(self):
        assert parse_cusp("inf") == (1, 0)
        assert parse_cusp("3/8") == (3, 8)
        assert parse_cusp("-1/2") == (-1, 2)
        assert parse_cusp("5") == (5, 1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_cusp("2/4")
        with pytest.raises(ValueError):
            parse_cusp("x/y")


class TestGenusCommand:
    def test_plain(self, capsys):
        status, out, _ = run(capsys, "genus", "--q", "8")
        assert status == 0 and "g_8 = 5" in out

    def test_quotient(self, capsys):
        status, out, _ = run(capsys, "genus", "--q", "8", "--n", "1")
        assert status == 0
        assert "g_8^1 = 0" in out and "h = 6" in out and "R = 24" in out

    def test_convention_note(self, capsys):
        status, out, _ = run(capsys, "genus", "--q", "2")
        assert status == 0 and "convention" in out

    def test_bad_divisor(self, capsys):
        status, _, err = run(capsys, "genus", "--q", "8", "--n", "3")
        assert status == 2 and "divide" in err

    def test_json_numbers_are_strings(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "genus", "--q", "8",
                             "--n", "1")
        doc = json.loads(out)
        assert status == 0
        assert doc["result"]["g"] == "5"
        assert doc["result"]["R"] == "24"


class TestCuspsCommand:
    def test_level8_widths(self, capsys):
        status, out, _ = run(capsys, "cusps", "--q", "8", "--n", "1", "--widths")
        assert status == 0
        assert out.count("rep=") == 6
        widths = sorted(int(part.split("=")[1]) for line in out.splitlines()
                        for part in line.split() if part.startswith("width="))
        assert widths == [1, 1, 2, 4, 8, 8]

    def test_level4_note(self, capsys):
        status, out, _ = run(capsys, "cusps", "--q", "4", "--n", "1", "--widths")
        assert status == 0 and "congruence scan" in out

    @pytest.mark.parametrize("q,n,noted", [("4", "2", True), ("3", "1", True),
                                           ("5", "1", False)])
    def test_scan_note_with_distribution_alone(self, capsys, q, n, noted):
        # below level 5 the distribution is the tally of the scanned widths,
        # so it carries the scan note even when the widths are not printed
        note = "widths from the congruence scan: the closed form needs q >= 5"
        argv = ["cusps", "--q", q, "--n", n, "--distribution"]
        status, out, _ = run(capsys, *argv)
        assert status == 0 and (note in out.splitlines()) == noted
        status, out, _ = run(capsys, "--format", "json", *argv)
        assert status == 0 and json.loads(out)["result"].get("note") == (note if noted else None)

    def test_full_level(self, capsys):
        status, out, _ = run(capsys, "cusps", "--q", "8", "--n", "8", "--widths")
        assert status == 0 and out.count("width=8") == 24

    def test_bad_divisor(self, capsys):
        status, _, err = run(capsys, "cusps", "--q", "8", "--n", "3")
        assert status == 2 and "divide" in err

    @pytest.mark.parametrize("q", ["61", "1000000", "10000000000"])
    def test_level_beyond_guard(self, capsys, q):
        status, out, err = run(capsys, "cusps", "--q", q, "--n", "1")
        assert status == 2 and out == "" and "3 <= q <= 60" in err

    def test_pinned_runs(self):
        assert len(CUSP_RUNS) == 2 * 4

    @pytest.mark.parametrize("argv, expect", zip(CUSP_RUNS[::2], CUSP_RUNS[1::2]),
                             ids=CUSP_RUNS[::2])
    def test_output_pinned(self, capsys, argv, expect):
        status, out, _ = run(capsys, *argv.split())
        assert status == 0 and out == expect

    # SHA-256 and length of each rendering; the text lines are built apart
    # from the JSON document, and neither may change these bytes
    PINNED = [
        (["--q", "60", "--n", "60", "--widths", "--distribution"], "text", 34100,
         "54596a3e97d6796afbd2c140b2f0da111142f225f0bcce31d60302f2f0c26b52"),
        (["--q", "60", "--n", "60", "--widths", "--distribution"], "json", 96412,
         "776c79320d485447905bfde9f988ff9e40a1b72445a77758628fc76783904537"),
        (["--q", "8", "--n", "1", "--widths"], "text", 202,
         "04dec68246e7eee8ec210666c3e6558bff92e15bf98167a817223736fc62d34e"),
        (["--q", "8", "--n", "1", "--widths"], "json", 613,
         "f7c0d24c91d26379b348873fff7c83f1ba30472f237e6eb718447b21a00749d2"),
        # the orbit rows with and without widths, as printed before each orbit's
        # width was taken with the level and step checked once
        (["--q", "4", "--n", "2"], "text", 112,
         "65930f0f6e5b0f2a19b39ce7371424425eef91d8362f815f5f7f36ac6fe4b1dd"),
        (["--q", "4", "--n", "2"], "json", 363,
         "0c3ff18cc09e1d2a4ed2bd72104957162c7c10a561e78789c7c51e4adc4261b9"),
        (["--q", "4", "--n", "2", "--widths"], "text", 210,
         "cbdd90e6d7b76b9c3f723e6022ae9094d240afedd41b375edad925f3af7f8145"),
        (["--q", "4", "--n", "2", "--widths"], "json", 528,
         "afc9b2cd434516cabb38069ec7815198897ebc017f0175937f2e35045212cc9b"),
        (["--q", "47", "--n", "1"], "text", 965,
         "2a47f034ee1da40c2d35d8bd4e25d9841c61549376cb84f4f2dc48ef9a3d639c"),
        (["--q", "47", "--n", "1"], "json", 2937,
         "21526846f3847c2853aa4e7c89c4ec70d276f2dade0f8e2ec48d2e833f9b6345"),
        (["--q", "47", "--n", "1", "--widths"], "text", 1402,
         "a681ded998fb73a2eb26951675104d9a8fa6e9900b785ae6c502d00fe7c3cf07"),
        (["--q", "47", "--n", "1", "--widths"], "json", 3972,
         "fa8744bd09de3ad95b7bc6a149f6959f65b7df9cfffb131b396227b1c919aeca"),
        (["--q", "60", "--n", "60"], "text", 22552,
         "5e5fcee2e5cbb7605d6d0ac043dcf5b4b4591f7495c7e81e7aceb12fe560a7f5"),
        (["--q", "60", "--n", "60"], "json", 69868,
         "a7e5059f0f4a0881c44cdc4c3f8ac7bf84c35cdb278965746c03750d85e50dfb"),
        (["--q", "60", "--n", "60", "--widths"], "text", 34072,
         "5554dafd34c0259b2f47eb6e34cbc1a4230d1200514c94c9e1d7d2963d0ea41b"),
        (["--q", "60", "--n", "60", "--widths"], "json", 96364,
         "99e22ad6ad3d96b5e11161361578a72a2dda9cb5e305020cac35b8c3f5278770"),
    ]

    @pytest.mark.parametrize("argv,fmt,size,digest", PINNED)
    def test_output_bytes_pinned(self, capsys, argv, fmt, size, digest):
        status, out, _ = run(capsys, "--format", fmt, "cusps", *argv)
        data = out.encode()
        assert status == 0 and len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_json_builds_no_orbit_lines(self):
        args = build_parser().parse_args(["--format", "json", "cusps", "--q", "8",
                                          "--n", "1", "--widths", "--distribution"])
        doc, lines, status = cmd_cusps(args)
        assert status == 0 and len(doc["result"]["orbits"]) == 6
        assert not any("rep=" in line for line in lines)

    def test_each_orbit_lifted_once(self, monkeypatch):
        # the row's rep string and its width both read one lift of the orbit
        # rep; cusps' own binding is wrapped too, so cusp_str's lift counts
        from modcurve import cli, cusps
        calls, lift = [], cusps.class_to_cusp
        for mod in (cli, cusps):
            monkeypatch.setattr(mod, "class_to_cusp",
                                lambda q, cls: calls.append(cls) or lift(q, cls))
        args = build_parser().parse_args(["cusps", "--q", "12", "--n", "2", "--widths"])
        doc, _, status = cmd_cusps(args)
        assert status == 0 and len(calls) == len(doc["result"]["orbits"]) == 16

    @pytest.mark.parametrize("q,n,dist", [
        ("3", "3", {"3": "4"}),
        ("4", "1", {"1": "2", "4": "1"}),
        ("4", "2", {"2": "2", "4": "2"}),
        ("4", "4", {"4": "6"}),
    ])
    def test_distribution_below_level5(self, capsys, q, n, dist):
        argv = ["cusps", "--q", q, "--n", n, "--distribution"]
        status, out, _ = run(capsys, *argv)
        text = ", ".join(f"{w}:{k}" for w, k in dist.items())
        assert status == 0 and out.splitlines()[-1] == f"width distribution: {text}"
        status, out, _ = run(capsys, "--format", "json", *argv)
        assert status == 0 and json.loads(out)["result"]["distribution"] == dist

    def test_distribution_json(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "cusps", "--q", "8",
                             "--n", "1", "--distribution")
        doc = json.loads(out)
        assert doc["result"]["distribution"] == {"1": "2", "2": "1",
                                                 "4": "1", "8": "2"}


class TestRotationCommand:
    def test_branched(self, capsys):
        status, out, _ = run(capsys, "rotation", "--q", "8", "--cusp", "1/4")
        assert status == 0 and "orbit length 2" in out and "m = 2" in out

    def test_unbranched(self, capsys):
        status, out, _ = run(capsys, "rotation", "--q", "8", "--cusp", "1/3")
        assert status == 0 and "unbranched" in out

    @pytest.mark.parametrize("argv,pair", [
        (["rotation", "--q", "8", "--cusp", "2/4"], "(2, 4)"),
        (["group", "--q", "8", "--cusp-maps", "3/0", "inf"], "(3, 0)"),
    ])
    def test_malformed_cusp(self, capsys, argv, pair):
        status, out, err = run(capsys, *argv)
        assert status == 2 and out == ""
        assert err == f"error: not a valid cusp pair: {pair}\n"

    def test_negative_infinity(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "rotation", "--q", "8",
                             "--cusp=-1/0")
        assert status == 0 and json.loads(out)["result"]["cusp"] == "1/0"

    def test_bad_divisor_is_argument_error(self, capsys):
        status, _, err = run(capsys, "rotation", "--q", "8", "--n", "3",
                             "--cusp", "1/4")
        assert status == 2 and "divide" in err


class TestEquationCommand:
    def test_level8_solved(self, capsys):
        status, out, _ = run(capsys, "equation", "--q", "8", "--normalize",
                             "--solve-constants")
        assert status == 0
        assert "y^8 = x^2*(x-1)*(x+1)" in out

    @pytest.mark.parametrize("convention,last", [
        ("gcd", "solved a = -1: y^8 = x^2*(x-1)*(x+1)"),
        ("ascending", "solved a = 1/2: y^8 = x*(x-1)*(x-1/2)^2"),
        ("minimal", "solved a = -1: y^8 = x*(x-1)^2*(x+1)^4"),
    ])
    def test_level8_solved_per_convention(self, capsys, convention, last):
        # the three conventions demand the swaps (1, a), (0, 1) and (0, inf)
        status, out, _ = run(capsys, "equation", "--q", "8", "--solve-constants",
                             "--convention", convention)
        assert status == 0 and out.splitlines()[-1] == last

    def test_level7(self, capsys):
        status, out, _ = run(capsys, "equation", "--q", "7", "--normalize")
        assert status == 0 and "y^7 = x*(x-1)^2" in out

    def test_level10_ascending(self, capsys):
        status, out, _ = run(capsys, "equation", "--q", "10", "--normalize",
                             "--convention", "ascending")
        assert status == 0
        assert "y^10 = x*(x-1)^2*(x-q1)^5*(x-q2)^5*(x-q3)^8" in out
        assert "undetermined" in out

    def test_unsupported_level(self, capsys):
        status, _, err = run(capsys, "equation", "--q", "11")
        assert status == 3 and "genus" in err

    @pytest.mark.parametrize("q", ["7", "9", "10"])
    def test_solving_refused_before_building(self, capsys, monkeypatch, q):
        from modcurve import cli

        def boom(*args):
            raise AssertionError("equation built before the level check")
        monkeypatch.setattr(cli, "build_equation", boom)
        status, out, err = run(capsys, "equation", "--q", q, "--solve-constants")
        assert status == 3 and out == ""
        assert err.strip() == (f"unsupported: constant solving is only established "
                               f"for level 8; level {q} constants remain undetermined")

    def test_one_build_per_run(self, capsys, monkeypatch):
        from modcurve import cli, equation

        real, calls = equation.build_equation, []

        def counted(*args):
            calls.append(args)
            return real(*args)
        for module in (cli, equation):
            monkeypatch.setattr(module, "build_equation", counted)
        runs = [["equation", "--q", "8", "--normalize"]]
        runs += [["equation", "--q", "8", "--solve-constants", "--convention", c]
                 for c in CONVENTIONS]
        for argv in runs:
            calls.clear()
            status, _, _ = run(capsys, *argv)
            assert status == 0 and calls == [(8, 1)], argv

    def test_pinned_runs(self):
        assert len(EQUATION_RUNS) == 2 * 24

    @pytest.mark.parametrize("argv, expect", zip(EQUATION_RUNS[::2], EQUATION_RUNS[1::2]),
                             ids=EQUATION_RUNS[::2])
    def test_output_pinned(self, capsys, argv, expect):
        status, out, _ = run(capsys, *argv.split())
        assert status == 0 and out == expect

    def test_solving_rational_level(self, capsys):
        status, out, _ = run(capsys, "equation", "--q", "3", "--solve-constants")
        assert status == 0 and out.splitlines()[0] == "y = 0"

    def test_rational_levels(self, capsys):
        status, out, _ = run(capsys, "equation", "--q", "3")
        assert status == 0 and "y = 0" in out

    def test_level5_two_orbits(self, capsys):
        status, out, _ = run(capsys, "equation", "--q", "5", "--normalize")
        assert status == 0 and "y^5 = x" in out

    def test_level6_elliptic(self, capsys):
        status, out, _ = run(capsys, "equation", "--q", "6", "--normalize")
        assert status == 0 and "y^6 = x^2*(x-1)" in out


class TestGroupCommand:
    def test_max_order(self, capsys):
        status, out, _ = run(capsys, "group", "--q", "10", "--max-order")
        assert status == 0 and "15" in out and "type I" in out

    def test_center(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "group", "--q", "8",
                             "--center")
        doc = json.loads(out)
        assert doc["result"]["center"] == ["1,0,0,1"]

    def test_cusp_maps(self, capsys):
        status, out, _ = run(capsys, "group", "--q", "8", "--cusp-maps",
                             "inf", "3/8")
        assert status == 0 and "8 elements" in out

    def test_element_order(self, capsys):
        status, out, _ = run(capsys, "group", "--q", "10", "--order", "6,1,5,1")
        assert status == 0 and "15" in out

    def test_needs_a_flag(self, capsys):
        status, _, err = run(capsys, "group", "--q", "8")
        assert status == 2

    def test_order_at_level_zero_is_argument_error(self, capsys):
        status, out, err = run(capsys, "group", "--q", "0", "--order", "1,0,0,1")
        assert status == 2 and out == "" and "internal error" not in err

    def test_order_at_level_one_names_the_level(self, capsys):
        status, _, err = run(capsys, "group", "--q", "1", "--order", "1,0,0,1")
        assert status == 2 and "level" in err and "determinant" not in err

    @pytest.mark.parametrize("entries", ["1,2,3", "1,0,0,1,1", "x,1,0,1", ""])
    def test_order_wants_four_integers(self, capsys, entries):
        status, out, err = run(capsys, "group", "--q", "8", "--order", entries)
        assert status == 2 and out == ""
        assert err.strip() == "error: --order wants four comma-separated integers"

    def test_order_rejects_non_sl_matrix(self, capsys):
        status, _, err = run(capsys, "group", "--q", "8", "--order", "2,0,0,2")
        assert status == 2 and "determinant" in err

    @pytest.mark.parametrize("cusps", [["inf", "2/4"], ["3/0", "inf"], ["x", "inf"]])
    def test_cusps_checked_before_group_work(self, capsys, monkeypatch, cusps):
        from modcurve import cli
        calls = []
        for name in ("max_element_order", "center"):
            monkeypatch.setattr(cli, name, lambda q, name=name: calls.append(name))
        status, out, err = run(capsys, "group", "--q", "40", "--max-order", "--center",
                               "--cusp-maps", *cusps)
        assert status == 2 and out == "" and err.startswith("error: ")
        assert calls == []

    def test_pinned_runs(self):
        assert len(GROUP_RUNS) == 2 * 6

    @pytest.mark.parametrize("argv, expect", zip(GROUP_RUNS[::2], GROUP_RUNS[1::2]),
                             ids=GROUP_RUNS[::2])
    def test_output_pinned(self, capsys, argv, expect):
        status, out, _ = run(capsys, *argv.split())
        assert status == 0 and out == expect


class TestCanonicalCommand:
    def test_output(self, capsys):
        status, out, _ = run(capsys, "canonical")
        assert status == 0
        assert "a = -1" in out and "valid sigma matrices: 8" in out

    def test_level8_swap(self):
        # the exponent-1 classes (1, 0) and (3, 0) trade places, nothing else moves
        movers, perm = _level8_swap()
        assert len(movers) == 8
        assert {o: i for o, i in perm.items() if o != i} == {((1, 0),): ((3, 0),),
                                                            ((3, 0),): ((1, 0),)}

    def test_json_keeps_elimination_steps(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "canonical")
        steps = json.loads(out)["result"]["steps"]
        assert status == 0 and len(steps) == 27
        assert "a = -1  [Q2 pullback, z1*z5 coefficient, c33 != 0]" in steps

    # the files hold the output of the rebuild-per-read elimination, so all
    # 27 step lines and the text report stay byte for byte what they were
    @pytest.mark.parametrize("argv, name", [(["canonical"], "canonical.txt"),
                                            (["--format", "json", "canonical"],
                                             "canonical.json")])
    def test_output_pinned(self, capsys, argv, name):
        status, out, _ = run(capsys, *argv)
        assert status == 0 and out == (DATA / name).read_text()


class TestVerifyCommand:
    def test_tables(self, capsys):
        status, out, _ = run(capsys, "verify", "--tables", "1", "--q-max", "20")
        assert status == 0
        assert "40/40 checks passed" in out

    def test_all_tables(self, capsys):
        status, out, _ = run(capsys, "verify", "--tables", "1", "2", "6", "7")
        assert status == 0 and "FAIL" not in out

    def test_oracles_small(self, capsys):
        status, out, _ = run(capsys, "verify", "--oracles", "--q-max", "10")
        assert status == 0 and "FAIL" not in out

    def test_canonical_and_iso(self, capsys):
        status, out, _ = run(capsys, "verify", "--canonical", "--iso")
        assert status == 0 and "FAIL" not in out

    def test_json_roundtrip(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "verify",
                             "--tables", "2")
        doc = json.loads(out)
        assert status == 0
        assert out == json.dumps(doc, indent=2) + "\n"
        assert all(c["pass"] and c["source"] == "golden" for c in doc["checks"])

    def test_json_suites(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "verify", "--tables", "6", "2",
                             "--canonical")
        result = json.loads(out)["result"]
        assert status == 0
        assert [(s["name"], s["source"]) for s in result["suites"]] == [
            ("table6", "golden"), ("table2", "golden"), ("canonical", "formula")]
        assert sum(int(s["checks"]) for s in result["suites"]) == int(result["total"])
        assert all(float(s["seconds"]) >= 0 for s in result["suites"])

    def test_unknown_table(self, capsys):
        status, _, err = run(capsys, "verify", "--tables", "3")
        assert status == 2

    def test_empty_tables_is_usage_error(self, capsys, monkeypatch):
        from modcurve import cli
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda *a: ran.append(a) or [])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tables"])
        assert exc.value.code == 2 and ran == []
        assert "--tables" in capsys.readouterr().err

    def test_repeated_table_runs_once(self, capsys):
        status, out, _ = run(capsys, "verify", "--tables", "2", "2")
        assert status == 0 and "12/12 checks passed" in out
        status, out, _ = run(capsys, "verify", "--tables", "6", "2", "6")
        names = [line.split("  ")[1] for line in out.splitlines()[:-1]]
        assert status == 0 and "48/48 checks passed" in out
        assert names[:36] == [c["name"] for c in run_suite("table6", 20, 0)]

    def test_four_tables_count(self, capsys):
        status, out, _ = run(capsys, "verify", "--tables", "1", "2", "6", "7",
                             "--q-max", "20")
        assert status == 0 and "109/109 checks passed" in out

    @pytest.mark.parametrize("argv", [["--oracles"], []])
    def test_q_max_beyond_guard_fails_before_any_check(self, capsys,
                                                       monkeypatch, argv):
        from modcurve import cli
        ran = []
        monkeypatch.setattr(cli, "make_check", lambda *a: ran.append(a))
        monkeypatch.setattr(cli, "bool_check", lambda *a: ran.append(a))
        status, out, err = run(capsys, "verify", *argv, "--q-max", "60")
        assert status == 2 and "--q-max 60" in err
        assert ran == [] and out == ""

    def test_q_max_beyond_guard_without_oracles(self, capsys):
        status, out, _ = run(capsys, "verify", "--tables", "2", "--q-max", "60")
        assert status == 0 and "FAIL" not in out

    # below level 5 some oracle kind has no check, so a run could pass on none
    @pytest.mark.parametrize("argv, q_max", [(["--oracles"], "-3"), (["--oracles"], "0"),
                                             (["--oracles"], "4"), ([], "4"),
                                             (["--tables", "1", "2"], "0")])
    def test_q_max_below_floor_fails_before_any_check(self, capsys, monkeypatch,
                                                      argv, q_max):
        from modcurve import cli
        ran = []
        monkeypatch.setattr(cli, "make_check", lambda *a: ran.append(a))
        monkeypatch.setattr(cli, "bool_check", lambda *a: ran.append(a))
        status, out, err = run(capsys, "verify", *argv, "--q-max", q_max)
        assert status == 2 and f"--q-max {q_max}" in err
        assert ran == [] and out == ""

    @pytest.mark.parametrize("name", [n for n in SUITES if not n.startswith("table")])
    def test_flag_runs_its_suite(self, capsys, name):
        status, out, _ = run(capsys, "verify", *select(name), "--q-max", "12")
        names = [line.split("  ")[1] for line in out.splitlines()[:-1]]
        assert status == 0 and names == [c["name"] for c in run_suite(name, 12, 0)]

    @pytest.mark.parametrize("name, q_max, why", list(past_bounds()))
    def test_q_max_past_declared_bound_fails_before_any_check(self, capsys, monkeypatch,
                                                              name, q_max, why):
        from modcurve import cli
        ran = []
        monkeypatch.setattr(cli, "make_check", lambda *a: ran.append(a))
        monkeypatch.setattr(cli, "bool_check", lambda *a: ran.append(a))
        status, out, err = run(capsys, "verify", *select(name), "--q-max", str(q_max))
        assert status == 2 and err == f"error: --q-max {q_max} is {why}\n"
        assert ran == [] and out == ""

    def test_q_max_at_floor(self, capsys):
        status, out, _ = run(capsys, "verify", "--oracles", "--q-max", "5")
        assert status == 0 and "FAIL" not in out

    def test_q_max_below_floor_without_oracles(self, capsys):
        status, out, _ = run(capsys, "verify", "--tables", "2", "--q-max", "0")
        assert status == 0 and "12/12 checks passed" in out


class TestOracleGroupCache:
    def test_each_group_built_once(self, capsys):
        # one pass over the levels: no (level, quotient) key is evicted from
        # the eight-entry cache before the run is done with it
        from modcurve import psl
        psl._reps.cache_clear()
        status, out, _ = run(capsys, "verify", "--oracles", "--q-max", "40")
        keys = ({(q, psl._signs(q)) for q in range(3, 41)}
                | {(q, psl.scalar_units(q)) for q in range(2, 41)})
        assert status == 0 and out.endswith("\n761/761 checks passed\n")
        assert psl._reps.cache_info().misses == len(keys)


class TestParserReuse:
    def test_built_once_per_process(self, capsys):
        from modcurve import cli
        cli.build_parser.cache_clear()
        for argv in (["genus", "--q", "8"], ["cusps", "--q", "8", "--n", "1"],
                     ["--format", "json", "group", "--q", "8", "--center"],
                     ["verify", "--tables", "3"], ["rotation", "--q", "8", "--cusp", "1/4"]):
            run(capsys, *argv)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_no_flags_inherited(self, capsys):
        _, wide, _ = run(capsys, "cusps", "--q", "8", "--n", "1", "--widths")
        status, plain, _ = run(capsys, "cusps", "--q", "8", "--n", "1")
        assert "width=" in wide and status == 0
        assert plain == re.sub(r"  width=\d+", "", wide)
        _, doc, _ = run(capsys, "--format", "json", "genus", "--q", "8", "--n", "1")
        status, text, _ = run(capsys, "genus", "--q", "8")
        assert json.loads(doc)["result"]["n"] == "1"
        assert status == 0 and text == "g_8 = 5\n"


class TestSuiteFault:
    # a ValueError raised inside a suite is a fault of the suite, not of the
    # flags, which are all checked before the first suite runs
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exits_4_naming_the_suite(self, capsys, monkeypatch, fmt):
        from modcurve import cli

        def boom(q_max, seed):
            raise ValueError("level q = 0 must be at least 1")
        monkeypatch.setitem(cli.SUITES, "table2", ("golden", boom, None, None))
        status, out, err = run(capsys, "--format", fmt, "verify", "--tables", "1", "2")
        assert status == 4 and out == ""
        assert err == ("internal error: RuntimeError: suite table2: "
                       "level q = 0 must be at least 1\n")


class TestInternalError:
    @pytest.mark.parametrize("exc", [RuntimeError("degree guard"),
                                     ZeroDivisionError("division by zero"),
                                     EliminationError("elimination step failed: Q3"),
                                     TypeError("missing 1 required positional argument"),
                                     KeyError("c33")])
    def test_exits_4_not_mismatch(self, capsys, monkeypatch, exc):
        from modcurve import cli

        def boom(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_canonical", boom)
        status, out, err = run(capsys, "canonical")
        assert status == 4 and out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_error_exits_4(self, capsys, monkeypatch, fmt):
        # a reader that closed the pipe, as `modcurve verify | head -c 1` does
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        status, _, err = run(capsys, "--format", fmt, "canonical")
        assert status == 4
        assert err == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
        assert sys.stdout.name == os.devnull  # nothing more reaches the closed pipe
        sys.stdout.close()


# every subcommand in JSON: the largest document, each kind of leaf (bool,
# null) and the empty {} and [] of the inputs and checks
JSON_ARGVS = [
    ["genus", "--q", "2"],
    ["genus", "--q", "12", "--n", "2"],
    ["cusps", "--q", "60", "--n", "60", "--widths", "--distribution"],
    ["cusps", "--q", "4", "--n", "2", "--widths", "--distribution"],
    ["rotation", "--q", "8", "--cusp", "1/4"],
    ["rotation", "--q", "8", "--cusp", "1/3"],
    ["equation", "--q", "3"],
    ["equation", "--q", "10", "--normalize"],
    ["equation", "--q", "8", "--solve-constants"],
    ["group", "--q", "8", "--order", "6,1,5,1", "--max-order", "--center",
     "--cusp-maps", "inf", "3/8"],
    ["verify", "--oracles", "--q-max", "12"],
    ["verify", "--tables", "2", "6", "--canonical", "--iso"],
    ["canonical"],
]

Pair = collections.namedtuple("Pair", "first second")
STRINGS = st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
                           "\U0001f600", 'a"b\\c\n']) | st.text()
LEAVES = (st.none() | st.booleans() | st.integers() | STRINGS
          | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
TREES = st.recursive(LEAVES, lambda kids: st.lists(kids) | st.lists(kids).map(tuple)
                     | st.builds(Pair, kids, kids) | st.dictionaries(STRINGS, kids),
                     max_leaves=40)
# keys that a %-template, a JSON string or an ASCII escape could get wrong
ROW_KEYS = STRINGS | st.sampled_from(["%", "%s", "%%", "%(a)s", "%d%", '"', "\\", "\u00e9"])
ODD_ROWS = ["reordered", "extra key", "non-str value", "nested list", "empty"]


@st.composite
def row_lists(draw):
    """Rows sharing one key tuple with str values, with some odd rows among
    them, sometimes an empty first row, as a list or a tuple."""
    keys = draw(st.lists(ROW_KEYS, min_size=1, max_size=4, unique=True))

    def row():
        return dict(zip(keys, draw(st.lists(STRINGS, min_size=len(keys), max_size=len(keys)))))

    rows = [row() for _ in range(draw(st.integers(1, 4)))]
    for odd in draw(st.lists(st.sampled_from(ODD_ROWS), max_size=2)):
        r = row()
        if odd == "reordered":
            r = dict(reversed(r.items()))
        elif odd == "extra key":
            r[draw(ROW_KEYS)] = draw(STRINGS)
        elif odd == "non-str value":
            r[draw(st.sampled_from(keys))] = draw(LEAVES)
        elif odd == "nested list":
            r[keys[-1]] = [row(), row()]
        else:
            r = {}
        rows.insert(draw(st.integers(0, len(rows))), r)
    if draw(st.booleans()):
        rows.insert(0, {})
    return tuple(rows) if draw(st.booleans()) else rows


class TestJsonRendering:
    """--format json prints exactly the bytes of json.dumps(doc, indent=2)."""

    @pytest.mark.parametrize("argv", JSON_ARGVS, ids=" ".join)
    def test_bytes_are_indent_2(self, capsys, monkeypatch, argv):
        # against the document the handler returned: a round trip of the
        # printed text would pass a renderer that writes {} as []
        from modcurve import cli
        name, docs = "cmd_" + argv[0], []
        handler = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda args: docs.append(handler(args)) or docs[0])
        status, out, err = run(capsys, "--format", "json", *argv)
        assert (status, err) == (0, "")
        assert out == json.dumps(docs[0][0], indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    @example(Pair("\u00e9", ({}, [])))  # a tuple, a non-ASCII str, an empty dict and list
    @example([True, False, None, 0, 1])  # the literals, and the ints equal to two of them
    def test_renderer_is_indent_2(self, tree):
        assert _render_json(tree) == json.dumps(tree, indent=2)

    @settings(max_examples=150, deadline=None)
    @given(row_lists())
    @example([{"a": "1", "b": "2"}, {"b": "3", "a": "4"}])  # same keys, another order
    @example([{"%": "1", "b": "2"}, {"%": "3", "b": "4"}])
    def test_rows_are_indent_2(self, rows):
        assert _render_json(rows) == json.dumps(rows, indent=2)

    def test_rows_take_one_template(self, capsys, monkeypatch):
        # the count stays flat in the 1,152 rows, so a fall back to a call
        # per leaf fails here
        from modcurve import cli
        render, calls = cli._render_json, []

        def counted(v, nl="\n"):
            calls.append(v)
            return render(v, nl)
        monkeypatch.setattr(cli, "_render_json", counted)
        status, out, _ = run(capsys, "--format", "json", "cusps", "--q", "60", "--n", "60",
                             "--widths", "--distribution")
        assert status == 0 and out.count('"rep": ') == 1152
        assert len(calls) < 20

    def test_skips_the_python_encoder(self, capsys, monkeypatch):
        argv = ["--format", "json", "cusps", "--q", "60", "--n", "60", "--widths",
                "--distribution"]
        _, expected, _ = run(capsys, *argv)

        def python_encoder(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder ran")
        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        status, out, err = run(capsys, *argv)
        assert (status, out, err) == (0, expected, "")

    @pytest.mark.parametrize("doc", [{1: "x"}, {"a": [{None: 1}]}, {True: False},
                                     {("c11",): "1"}, [{"a": "x"}, {1: "x"}],
                                     [{1: "x"}, {1: "x"}]])
    def test_non_str_key_raises(self, doc):
        with pytest.raises(TypeError):
            _render_json(doc)


LEVELS = [str(v) for v in range(-3, 13)] + ["41", "61"]
CUSPS = ["inf", "1/4", "3/8", "0/1", "-1/0", "2/4", "0/0", "x", "1/", ""]
ORDERS = ["1,0,0,1", "6,1,5,1", "2,0,0,2", "0,0,0,0", "1,2,3", "a,b,c,d", ""]


@st.composite
def argvs(draw):
    """One subcommand with a drawn level, step, cusps and --order string."""
    q, n = draw(st.sampled_from(LEVELS)), draw(st.sampled_from(LEVELS))
    cusp, other = draw(st.sampled_from(CUSPS)), draw(st.sampled_from(CUSPS))
    small_q = draw(st.sampled_from(LEVELS[:16]))  # the oracles stay at q-max <= 12
    return draw(st.sampled_from([
        ["genus", "--q", q],
        ["genus", "--q", q, "--n", n],
        ["cusps", "--q", q, "--n", n, "--widths", "--distribution"],
        ["rotation", "--q", q, "--n", n, f"--cusp={cusp}"],
        ["rotation", "--q", q, f"--cusp={cusp}"],
        ["equation", "--q", q, "--normalize", "--solve-constants"],
        ["group", "--q", q, f"--order={draw(st.sampled_from(ORDERS))}"],
        ["group", "--q", q, "--max-order"],
        ["group", "--q", q, "--center"],
        ["group", "--q", q, "--cusp-maps", cusp, other],
        ["verify", "--oracles", "--q-max", small_q],
    ]))


class TestArgvProperty:
    @settings(max_examples=150, deadline=None)
    @given(argvs())
    def test_never_internal_error(self, argv):
        # a bad level, step, cusp or matrix is an argument (2) or
        # unsupported-mathematics (3) error, never an internal one (4)
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects malformed options itself
            status = exc.code
        assert status in (0, 1, 2, 3)


class TestGolden:
    def test_no_duplicates_and_counts(self):
        data = load_golden()
        assert len([k for k in data if k[0] == "1"]) == 40
        assert len([k for k in data if k[0] == "2"]) == 12
        assert len([k for k in data if k[0] == "6"]) == 36
        assert len([k for k in data if k[0] == "7"]) == 21

    def test_determinism(self, capsys):
        s1, out1, _ = run(capsys, "cusps", "--q", "12", "--n", "2", "--widths")
        s2, out2, _ = run(capsys, "cusps", "--q", "12", "--n", "2", "--widths")
        assert (s1, out1) == (s2, out2)
