"""The committed mutant list stays applicable as src/ changes: each old
string occurs exactly once in its file, or at least k times where the file is
written file#k, and each named test file exists.
tools/mutants.py runs the list itself; its three verdicts are checked here
on one mutant each."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_runner():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_listed_mutant_applies_once():
    runner = load_runner()
    mutants = runner.read_list(ROOT / "tests" / "data" / "mutants.txt")
    assert mutants
    for file, k, old, new, tests in mutants:
        assert old != new, old
        assert runner.apply((ROOT / file).read_text(), old, new, k) is not None, (file, k, old)
        for test in tests:
            # a file, never a directory, and never this file, which fails in
            # every mutated copy and so would kill any mutant
            path = ROOT / test.split("::")[0]
            assert path.is_file() and path.resolve() != Path(__file__).resolve(), test


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


def test_the_kth_occurrence_is_replaced():
    apply = load_runner().apply
    assert [apply("a-a-a", "a", "b", k) for k in (1, 2, 3)] == ["b-a-a", "a-b-a", "a-a-b"]
    assert apply("a-a-a", "a", "b", 4) is None and apply("a-a-a", "a", "b", 0) is None


# one fast test that reads the printer, and two strings of arith.py: a comment
# and the bracket around a ring coefficient, which that test checks
PRINTER_TEST = "tests/test_arith.py::TestPrinter::test_fixed_cases"
COMMENT = "# only constants are equal across rings"
BRACKET = 'f"({c})"'


@pytest.mark.parametrize("old, new, timeout, verdict", [
    (BRACKET, 'f"{c}"', None, "KILLED"),
    (COMMENT, "# only constants compare equal across rings", None, "SURVIVED"),
    (BRACKET, 'f"{c}"', 0.01, "TIMEOUT"),  # pytest cannot start in 10 ms
])
def test_verdicts(old, new, timeout, verdict):
    runner = load_runner()
    assert (ROOT / "src/modcurve/arith.py").read_text().count(old) == 1, old
    got = runner.run("src/modcurve/arith.py", 1, old, new, [PRINTER_TEST],
                     timeout or runner.TIMEOUT)
    assert got == verdict
