import json

import pytest

from modcurve.canonical import EliminationError
from modcurve.cli import main, parse_cusp, run_suite
from modcurve.golden import load_golden


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestParseCusp:
    def test_forms(self):
        assert parse_cusp("inf") == (1, 0)
        assert parse_cusp("3/8") == (3, 8)
        assert parse_cusp("-1/2") == (-1, 2)
        assert parse_cusp("5") == (5, 1)

    def test_rejects(self):
        from modcurve.cli import UsageError
        with pytest.raises(UsageError):
            parse_cusp("2/4")
        with pytest.raises(UsageError):
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

    def test_full_level(self, capsys):
        status, out, _ = run(capsys, "cusps", "--q", "8", "--n", "8", "--widths")
        assert status == 0 and out.count("width=8") == 24

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


class TestLiftSolveCommand:
    def test_level8(self, capsys):
        status, out, _ = run(capsys, "lift-solve", "--q", "8")
        assert status == 0 and "a in {-1}" in out

    def test_other_levels(self, capsys):
        status, _, err = run(capsys, "lift-solve", "--q", "9")
        assert status == 3


class TestCanonicalCommand:
    def test_output(self, capsys):
        status, out, _ = run(capsys, "canonical")
        assert status == 0
        assert "a = -1" in out and "valid sigma matrices: 8" in out

    def test_json_keeps_elimination_steps(self, capsys):
        status, out, _ = run(capsys, "--format", "json", "canonical")
        steps = json.loads(out)["result"]["steps"]
        assert status == 0 and len(steps) == 27
        assert "a = -1  [Q2 pullback, z1*z5 coefficient, c33 != 0]" in steps


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
        assert json.loads(json.dumps(doc)) == doc
        assert all(c["pass"] and c["source"] == "golden" for c in doc["checks"])

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


class TestInternalError:
    @pytest.mark.parametrize("exc", [RuntimeError("degree guard"),
                                     ZeroDivisionError("division by zero"),
                                     EliminationError("elimination step failed: Q3")])
    def test_exits_4_not_mismatch(self, capsys, monkeypatch, exc):
        from modcurve import cli

        def boom(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_canonical", boom)
        status, out, err = run(capsys, "canonical")
        assert status == 4 and out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"


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
