"""The library keeps zero runtime dependencies: it loads only the standard
library, and pyproject.toml declares no dependency.  Its start-up stays
light: importing the CLI does not load dataclasses."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# -S keeps site-packages off the path, so a third-party import fails outright
LOADED = """
import importlib, pkgutil, sys
import modcurve
for m in pkgutil.iter_modules(modcurve.__path__):
    importlib.import_module("modcurve." + m.name)
print(*sorted({name.split(".")[0] for name in sys.modules}))
"""


def test_every_module_loads_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    loaded = proc.stdout.split()
    assert "modcurve" in loaded
    assert [name for name in loaded if name not in sys.stdlib_module_names
            and name not in ("modcurve", "__main__")] == []


def test_cli_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, which 3.10 and 3.11 load for nothing else;
    # 3.12 and 3.13 load inspect themselves, so only dataclasses is guarded
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, modcurve.cli; print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout == "False\n"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]
