"""Run the mutants listed in tests/data/mutants.txt against the tests named
for each, and fail unless every one is killed.

Each mutant is applied to its own copy of the tree in a temporary directory,
where `pytest -x` runs the named tests under a time limit:

    KILLED      the tests fail (pytest exit status 1)
    COLLECTION  the run stops at a test file that fails to import (status 2,
                or 4 with "ERROR collecting" when tests are named by node id):
                it counts as a kill, since the suite fails, unless the line
                is marked collects
    SURVIVED    the tests pass
    TIMEOUT     the tests run past the limit; a hang is a missing bound, not a kill

A line whose first field is the word collects requires that its test files
still collect under the mutant and that their tests fail, so a fault that
turns a test file into one collection error shows there.

A mutant replaces the one occurrence of its old string in its file, or,
when the file is written file#k, the k-th occurrence (1-based), so that a
string written the same way in two places can be mutated at either.

The run exits 1 when any mutant is not killed, and 2 when the list is
malformed: an old string that does not occur exactly once in its file (or
fewer than k times for file#k), or named tests that pytest cannot find.  The
named tests are assumed to pass on the unmutated tree, which the tier-1 run
checks.  tests/test_mutants.py is never run in a copy: it checks the list
against the tree, so it fails under every mutant and would report each one
KILLED.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = ROOT / "tests" / "data" / "mutants.txt"
TIMEOUT = 120.0  # seconds allowed for one mutant's test run
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_out", ".bench_build", "*.egg-info")


def malformed(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def apply(text: str, old: str, new: str, k: int) -> str | None:
    """text with the k-th occurrence of old replaced by new, or None when old
    occurs fewer than k times."""
    parts = text.split(old)
    if not 1 <= k < len(parts):
        return None
    return old.join(parts[:k]) + new + old.join(parts[k:])


def read_list(path: Path) -> list[tuple[str, int, str, str, list[str], bool]]:
    """(file, k, old, new, tests, collects) per line, each field shell-quoted,
    k = 1 unless the file is written file#k, collects when the line starts with
    the field collects; a line that starts with # is a comment."""
    mutants = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        fields = [] if line.lstrip().startswith("#") else shlex.split(line)
        if not fields:
            continue
        collects = fields[0] == "collects"
        if collects:
            del fields[0]
        if len(fields) < 4:
            malformed(f"{path}:{n}: need a file, an old string, a new string and tests")
        file, old, new, *tests = fields
        file, _, k = file.partition("#")
        text = (ROOT / file).read_text()
        if k and not (k.isdigit() and apply(text, old, new, int(k)) is not None):
            malformed(f"{path}:{n}: {old!r} has no occurrence {k} in {file}")
        if not k and text.count(old) != 1:
            malformed(f"{path}:{n}: {old!r} occurs {text.count(old)} times in {file}, not once")
        mutants.append((file, int(k or 1), old, new, tests, collects))
    return mutants


def run(file: str, k: int, old: str, new: str, tests: list[str], timeout: float) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        target = tree / file
        target.write_text(apply(target.read_text(), old, new, k))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                   "--ignore=tests/test_mutants.py", *tests], cwd=tree, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "TIMEOUT"
    if done.returncode == 0:
        return "SURVIVED"
    if done.returncode == 1:  # tests failed
        return "KILLED"
    if done.returncode == 2 or done.returncode == 4 and "ERROR collecting" in done.stdout:
        return "COLLECTION"
    malformed(f"pytest exited {done.returncode} on {tests}:\n{done.stdout}{done.stderr}")


def killed(verdict: str, collects: bool) -> bool:
    """Whether a run counts as a kill: its tests failed, or it stopped at
    collection on a line not marked collects."""
    return verdict == "KILLED" or verdict == "COLLECTION" and not collects


def main() -> int:
    kills = []
    for file, k, old, new, tests, collects in read_list(LIST):
        start = time.perf_counter()
        verdict = run(file, k, old, new, tests, TIMEOUT)
        kills.append(killed(verdict, collects))
        print(f"{verdict:<10} {time.perf_counter() - start:6.1f}s  {file}#{k}: "
              f"{old!r} -> {new!r}{' (collects)' if collects else ''}", flush=True)
    print(f"{sum(kills)}/{len(kills)} mutants killed")
    return 0 if all(kills) else 1


if __name__ == "__main__":
    sys.exit(main())
