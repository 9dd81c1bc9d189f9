"""The committed mutant list stays applicable as src/ changes: each old
string occurs exactly once in its file, or at least k times where the file is
written file#k, and each named test file exists and defines each named test.
tools/mutants.py runs the list itself; its four verdicts are checked here
on one mutant each, and the collects marker against a run that stops at
collection."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_runner():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def defines(test: str) -> bool:
    """Whether the file of a node id file::Class::test defines that class and
    test, read from its syntax tree; a parameter id [...] is ignored."""
    file, *names = test.split("[")[0].split("::")
    body = ast.parse((ROOT / file).read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_every_listed_mutant_applies_once():
    runner = load_runner()
    mutants = runner.read_list(ROOT / "tests" / "data" / "mutants.txt")
    assert mutants
    for file, k, old, new, tests, _collects in mutants:
        assert old != new, old
        assert runner.apply((ROOT / file).read_text(), old, new, k) is not None, (file, k, old)
        for test in tests:
            # a file, never a directory, and never this file, which fails in
            # every mutated copy and so would kill any mutant
            path = ROOT / test.split("::")[0]
            assert path.is_file() and path.resolve() != Path(__file__).resolve(), test
            # a moved test would leave pytest nothing to run: exit 2, malformed
            assert defines(test), test


@pytest.mark.parametrize("test, found", [
    ("tests/test_mutants.py", True),
    ("tests/test_mutants.py::test_the_kth_occurrence_is_replaced", True),
    ("tests/test_arith.py::TestExactRingLaws::test_eq_is_zero_difference[MPoly]", True),
    ("tests/test_arith.py::TestExactRingLaws::test_rings_cover_every_exact_ring", False),
    ("tests/test_arith.py::test_eq_is_zero_difference", False),
])
def test_a_named_test_is_looked_up_by_class_and_name(test, found):
    assert defines(test) == found


def test_a_string_that_is_not_unique_is_rejected(tmp_path, capsys):
    listed = tmp_path / "mutants.txt"
    listed.write_text("src/modcurve/arith.py 'return' 'return' tests/test_arith.py\n")
    with pytest.raises(SystemExit) as exc:
        load_runner().read_list(listed)
    assert exc.value.code == 2
    assert "not once" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "9999", "x"])
def test_a_missing_occurrence_is_rejected(tmp_path, capsys, k):
    listed = tmp_path / "mutants.txt"
    listed.write_text(f"src/modcurve/arith.py#{k} 'return' 'yield' tests/test_arith.py\n")
    with pytest.raises(SystemExit) as exc:
        load_runner().read_list(listed)
    assert exc.value.code == 2
    assert f"has no occurrence {k}" in capsys.readouterr().err


def test_the_collects_marker_parses(tmp_path):
    listed = tmp_path / "mutants.txt"
    listed.write_text(f"collects src/modcurve/arith.py {COMMENT!r} '#' tests/test_arith.py\n"
                      f"src/modcurve/arith.py {COMMENT!r} '#' tests/test_arith.py\n")
    assert [m[-1] for m in load_runner().read_list(listed)] == [True, False]
    # the rotation_number line pins that test_curve and test_acceptance collect
    listed = load_runner().read_list(ROOT / "tests" / "data" / "mutants.txt")
    assert [m[-1] for m in listed if m[2] == "(w * w) % g"] == [True]


def test_the_kth_occurrence_is_replaced():
    apply = load_runner().apply
    assert [apply("a-a-a", "a", "b", k) for k in (1, 2, 3)] == ["b-a-a", "a-b-a", "a-a-b"]
    assert apply("a-a-a", "a", "b", 4) is None and apply("a-a-a", "a", "b", 0) is None


# one fast test that reads the printer, and two strings of arith.py: a comment
# and the minus that joins a negative term to the sum, which that test checks
PRINTER_TEST = "tests/test_arith.py::TestPrinter::test_fixed_cases"
COMMENT = "# only constants are equal across rings"
MINUS = '" - " if text'


@pytest.mark.parametrize("old, new, timeout, verdict", [
    (MINUS, '" + " if text', None, "KILLED"),
    (COMMENT, "# only constants compare equal across rings", None, "SURVIVED"),
    (MINUS, '" + " if text', 0.01, "TIMEOUT"),  # pytest cannot start in 10 ms
    (COMMENT, COMMENT[2:], None, "COLLECTION"),  # arith.py no longer parses
])
def test_verdicts(old, new, timeout, verdict):
    runner = load_runner()
    assert (ROOT / "src/modcurve/arith.py").read_text().count(old) == 1, old
    got = runner.run("src/modcurve/arith.py", 1, old, new, [PRINTER_TEST],
                     timeout or runner.TIMEOUT)
    assert got == verdict


def test_a_file_that_fails_to_import_is_reported_apart():
    # named as a file, pytest exits 2; named by node id (test_verdicts), it exits 4
    runner = load_runner()
    got = runner.run("src/modcurve/arith.py", 1, COMMENT, COMMENT[2:], ["tests/test_arith.py"],
                     runner.TIMEOUT)
    assert got == "COLLECTION"


def test_a_collection_error_kills_only_an_unmarked_line():
    killed = load_runner().killed
    assert killed("COLLECTION", collects=False) and not killed("COLLECTION", collects=True)
    assert killed("KILLED", collects=True) and killed("KILLED", collects=False)
    assert not any(killed(v, c) for v in ("SURVIVED", "TIMEOUT") for c in (False, True))
