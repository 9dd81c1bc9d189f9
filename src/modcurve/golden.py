"""Embedded golden reference tables.

Plain-text records (table, row, column, value), one per line, so a
verification failure immediately distinguishes a transcription slip from a
computation bug.
"""

from __future__ import annotations

import os
from functools import lru_cache

GoldenKey = tuple[str, str, str]


@lru_cache(maxsize=1)
def load_golden() -> dict[GoldenKey, int]:
    out: dict[GoldenKey, int] = {}
    with open(os.path.join(os.path.dirname(__file__), "data", "golden_tables.txt"),
              encoding="utf-8") as f:
        for line in f:
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

