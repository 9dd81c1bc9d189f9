"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into a plain JSON-able list of operations; the
same seed always gives the same list.  Nothing here imports modcurve: the
program under test only ever sees the generated inputs, and every expected
value written into an operation is known by construction.

Group-oracle cost grows like q^3 to q^4, so a free draw of levels would
make pass time and tail latency swing from seed to seed.  The levels that
dominate a pass are therefore fixed (a certainty stratum), and the seed
draws the rest from small strata whose members cost about the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("oracle-sweep", "level-queries", "cover-geometry")

# oracle-sweep: levels 40, 24 and 15 (composites with non-sign scalars),
# 29 (a prime) and 8 (a prime power) always.  Max order at 40 and 29 and the
# center scan at 40 are the three slowest operations; with the five passes
# of a 20 s run the tail sample is the third of them.  The seed draws one
# level from each stratum below.  Members of a stratum have the same number
# of divisors, so every seed gives the same number of operations, and all
# are below 18, so their cusp oracles are cheaper than those of 24, among
# which the median falls.
SWEEP_FIXED = (40, 29, 24, 15, 8)
SWEEP_STRATA = {"prime": (11, 13, 17), "type-I": (10, 14)}

# level-queries: hot levels, one drawn from each band; the bands hold levels
# whose group oracles cost within about 10% of each other
HOT_BANDS = ((19, 21), (13, 14), (9, 10))
HOT_REPEATS = ({"max_order": 3, "center": 3, "cusp_maps": 2, "order": 3},
               {"max_order": 2, "center": 2, "cusp_maps": 2, "order": 3},
               {"max_order": 2, "center": 2, "cusp_maps": 2, "order": 3})
# cold tail: (kind, candidate levels), one query each; candidates for a
# kind cost about the same, and every cold query costs less than a
# max-order query at the first hot level
COLD = (("max_order", (17, 18)), ("center", (22, 24)),
        ("cusp_maps", (33, 36)), ("order", range(25, 41)))

# seconds one pass takes at reference speed (calib.py) on the seed
# implementation; a run makes round(--seconds / this) passes, so the number
# of samples, and with it the tail percentile, is the same for every run
NOMINAL_PASS_S = {"oracle-sweep": 4.2, "level-queries": 1.55, "cover-geometry": 0.87}

# semihyperelliptic levels with at least three branch orbits (level 5 has
# two and genus 0; level 11 has no genus-zero translation quotient)
COVER_LEVELS = (6, 7, 8, 9, 10, 12)
EQUATION_LEVELS = (5, 6, 7, 8, 9, 10, 12)
CONVENTIONS = ("gcd", "ascending", "minimal")
TABLE6_ROWS = ("zero", "one", "a", "inf")


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _cusp_string(rng: random.Random, q: int) -> str:
    """A random reduced cusp x/z with 0 <= x, 1 <= z, or inf."""
    z = rng.randrange(0, 2 * q)
    if z == 0:
        return "inf"
    while True:
        x = rng.randrange(0, 2 * q)
        if math.gcd(x, z) == 1:
            return f"{x}/{z}"


def _sl2_word(rng: random.Random, q: int, length: int) -> tuple[int, int, int, int]:
    """A random product of the generators S, T of SL(2, Z), reduced mod q."""
    m = (1, 0, 0, 1)
    for _ in range(length):
        a, b, c, d = m
        if rng.random() < 0.5:
            m = (b % q, -a % q, d % q, -c % q)          # m * S
        else:
            m = (a % q, (a + b) % q, c % q, (c + d) % q)  # m * T
    return m


def _conjugate_translation(rng: random.Random, q: int) -> tuple[list[int], int]:
    """g T^k g^-1 mod q, whose order in SL/{+-I} is q / gcd(k, q) for q >= 3."""
    k = rng.randrange(1, q)
    a, b, c, d = _sl2_word(rng, q, rng.randrange(4, 12))
    # g (1 k; 0 1) g^-1 with g^-1 = (d -b; -c a)
    m = [(a * d - a * c * k - b * c) % q, (a * a * k) % q,
         (-c * c * k) % q, (a * d + a * c * k - b * c) % q]
    return m, q // math.gcd(k, q)


def oracle_sweep(rng: random.Random, tiny: bool = False) -> list[dict]:
    """Formula/oracle pairs of `verify --oracles` plus the center scan, over
    fixed levels and one seeded level per stratum."""
    if tiny:
        levels = rng.sample(range(5, 13), 3)
    else:
        levels = list(SWEEP_FIXED) + [rng.choice(s) for s in SWEEP_STRATA.values()]
        rng.shuffle(levels)
    ops: list[dict] = []
    ops += [{"kind": "psl_count", "q": q} for q in levels if q >= 3]
    ops += [{"kind": "cusp_count", "q": q} for q in levels if q >= 3]
    ops += [{"kind": "max_order", "q": q} for q in levels]
    ops += [{"kind": "center", "q": q} for q in levels]
    for q in (q for q in levels if q >= 5):
        for n in divisors(q):
            for kind in ("orbit_count", "widths", "width_sum", "width_distribution"):
                ops.append({"kind": kind, "q": q, "n": n})
    return ops


def level_queries(rng: random.Random, tiny: bool = False) -> list[dict]:
    """A stream of in-process CLI calls: hot levels queried repeatedly, a
    cold tail queried once each, and cusp, genus, rotation, equation and
    table queries that also reach levels 41..60."""
    if tiny:
        hot, cold = [7, 9], [(kind, 8) for kind, _ in COLD]
        repeats = ({"max_order": 1, "center": 1, "cusp_maps": 1, "order": 1},) * 2
        counts = {"cusps": 2, "genus": 2, "rotation": 2, "equation": 2, "verify": 1}
    else:
        hot = [rng.choice(band) for band in HOT_BANDS]
        cold = [(kind, rng.choice([q for q in levels if q not in hot]))
                for kind, levels in COLD]
        repeats = HOT_REPEATS
        counts = {"cusps": 30, "genus": 30, "rotation": 30, "equation": 16, "verify": 2}
    ops: list[dict] = []
    for q, reps in zip(hot, repeats):
        for kind, k in reps.items():
            ops += [_group_op(rng, kind, q) for _ in range(k)]
    ops += [_group_op(rng, kind, q) for kind, q in cold]
    low = hot + [q for _, q in cold]

    def level(above_guard: bool) -> int:
        return rng.randrange(41, 61) if above_guard else rng.choice(low)

    for i in range(counts["cusps"]):
        q = level(i % 2 == 1)
        ops.append({"kind": "cusps", "q": q, "n": rng.choice(divisors(q))})
    for i in range(counts["genus"]):
        q = level(i % 2 == 1)
        ops.append({"kind": "genus", "q": q, "n": rng.choice(divisors(q))})
    for i in range(counts["rotation"]):
        q = level(i % 2 == 1)
        ops.append({"kind": "rotation", "q": q, "n": rng.choice(divisors(q)[:-1]),
                    "cusp": _cusp_string(rng, q)})
    for _ in range(counts["equation"]):
        ops.append({"kind": "equation", "q": rng.choice(EQUATION_LEVELS),
                    "convention": rng.choice(CONVENTIONS)})
    ops += [{"kind": "verify_tables"} for _ in range(counts["verify"])]
    rng.shuffle(ops)
    return ops


def _group_op(rng: random.Random, kind: str, q: int) -> dict:
    if kind == "order":
        m, order = _conjugate_translation(rng, q)
        return {"kind": "group_order", "q": q, "m": m, "order": order}
    if kind == "cusp_maps":
        return {"kind": "group_cusp_maps", "q": q,
                "c1": _cusp_string(rng, q), "c2": _cusp_string(rng, q)}
    return {"kind": f"group_{kind}", "q": q}


def cover_geometry(rng: random.Random, tiny: bool = False) -> list[dict]:
    """The level-8 determination and the cyclic-cover layers.  Counts are
    fixed so that the median latency falls inside the sigma-test block."""
    counts = ({"elimination": 1, "sigma_good": 1, "sigma_bad": 1, "solve": 1,
               "basis": 1, "table6": 1, "iso": 1, "obstruction": 1} if tiny else
              {"elimination": 40, "sigma_good": 35, "sigma_bad": 105, "solve": 10,
               "basis": 36, "table6": 16, "iso": 50, "obstruction": 20})
    ops: list[dict] = []
    ops += [{"kind": "elimination"} for _ in range(counts["elimination"])]
    ops += [{"kind": "sigma_count", "a": "-1"} for _ in range(counts["sigma_good"])]
    for _ in range(counts["sigma_bad"]):
        while True:
            num, den = rng.randrange(-12, 13), rng.randrange(1, 7)
            if math.gcd(num, den) == 1 and num not in (-den, 0, den):
                break
        ops.append({"kind": "sigma_count", "a": f"{num}/{den}"})
    ops += [{"kind": "solve_constant"} for _ in range(counts["solve"])]
    ops += [{"kind": "genus_basis", "q": rng.choice(COVER_LEVELS),
             "convention": rng.choice(CONVENTIONS)} for _ in range(counts["basis"])]
    ops += [{"kind": "table6_row", "row": rng.choice(TABLE6_ROWS)}
            for _ in range(counts["table6"])]
    ops += [{"kind": "iso", "seed": rng.randrange(0, 2**31)}
            for _ in range(counts["iso"])]
    ops += [{"kind": "obstruction"} for _ in range(counts["obstruction"])]
    rng.shuffle(ops)
    return ops


GENERATORS = {"oracle-sweep": oracle_sweep, "level-queries": level_queries,
              "cover-geometry": cover_geometry}


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)


def inputs_hash(ops: list[dict]) -> str:
    """SHA-256 of the canonical JSON form of an operation list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
