"""Embedded golden reference tables.

Plain-text records (table, row, column, value), one per line, so a
verification failure immediately distinguishes a transcription slip from a
computation bug.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

GoldenKey = tuple[str, str, str]


@lru_cache(maxsize=1)
def load_golden() -> dict[GoldenKey, int]:
    text = (resources.files("modcurve") / "data" / "golden_tables.txt").read_text()
    out: dict[GoldenKey, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        table, row, col, value = line.split()
        key = (table, row, col)
        if key in out:
            raise ValueError(f"duplicate golden record {key}")
        out[key] = int(value)
    return out


def golden(table: str, row: str, col) -> int:
    return load_golden()[(table, row, str(col))]

