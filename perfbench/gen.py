"""Seeded workload generation.

Every op list is a pure function of (workload, seed).  Mixes are stratified:
each pass holds a fixed number of ops per cost class and the seed only picks
the concrete inputs inside a class, so per-pass totals stay comparable
across seeds while the inputs themselves change.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from checks import betas, content

NASH_CASES = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]

# Straightening cost is set by the content-block size n (the number of
# monomials of the input's row/column content), because each new content
# builds one n x n solver.  Classes by n, with ops per pass; narrow classes
# keep per-pass totals alike across seeds.  Each pass percentile lands inside
# one class: the median in n = 8 (after the 20 smallest-class ops and the 12
# repeats), and the tail percentile, with ten ops beyond it, in n = 33
# (beyond it: the n >= 58 ops and eight of the n = 33 ones).
STRAIGHTEN_CLASSES = [
    ("n1-3", range(1, 4), 20),
    ("n8", range(8, 9), 30),
    ("n12-13", range(12, 14), 14),
    ("n18-19", range(18, 20), 10),
    ("n33", range(33, 34), 12),
    ("n58-60", range(58, 61), 2),
]
# Ops that reuse the content of an earlier op with another filling: the
# block is cached, so they cost a solve but no build.
STRAIGHTEN_REPEATS = 12
# (m, degree) pairs drawn from; m = 5 stops at degree 5 (n = 120 at degree 5
# alone costs several seconds and is left out).
STRAIGHTEN_SIZES = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5), (4, 6),
                    (5, 3), (5, 4), (5, 5)]

# Query mix per pass: (kind, count).  Large-k ops are a small share on
# purpose: their cost grows with k squared and would otherwise hide the
# oracle search.
QUERY_MIX = [
    ("lc_check", 40),
    ("semicontinuity", 30),
    ("point_oracle", 80),
    ("locus_oracle", 60),
    ("ord", 40),
    ("ord_seeded", 40),
    ("point_large_k", 14),
]
# Oracle cost classes, cycled in order: (k, free entries or j, bound L).
# Each searches 36 to 84 tails when no beta prefix sum is negative.
POINT_SCHEDULE = [(3, 3, 6), (4, 4, 5), (5, 5, 4), (4, 3, 6), (5, 4, 5), (6, 5, 4), (3, 2, 8), (6, 6, 4)]
LOCUS_SCHEDULE = [(2, 1, 8), (3, 1, 5), (3, 2, 5), (4, 2, 4), (4, 1, 4), (5, 2, 3)]
# Share of oracle ops per category of the beta vector: all beta_j >= 0;
# a negative beta prefix sum; or a negative beta with nonnegative prefix sums.
CATEGORY_CYCLE = ["lc", "lc", "unbounded", "lc", "divergent", "lc", "unbounded", "lc"]
HALVES = [Fraction(n, 2) for n in range(0, 9)]


def generate(workload: str, seed: int) -> list:
    if workload == "nash":
        return [list(mk) for mk in NASH_CASES]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "straighten":
        return _straighten_ops(rng)
    if workload == "queries":
        return _query_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- straighten ---------------------------------------------------------------


@lru_cache(maxsize=None)
def block_size(row_content: tuple, col_content: tuple) -> int:
    """Number of nonnegative integer matrices with the given row and column sums."""
    if not row_content:
        return 0 if any(col_content) else 1
    first, rest = row_content[0], row_content[1:]
    total = 0
    for take in _splits(first, col_content):
        total += block_size(rest, tuple(c - t for c, t in zip(col_content, take)))
    return total


def _splits(total: int, caps: tuple):
    if not caps:
        if total == 0:
            yield ()
        return
    for e in range(min(total, caps[0]) + 1):
        for rest in _splits(total - e, caps[1:]):
            yield (e,) + rest


@lru_cache(maxsize=None)
def _contents_by_size() -> dict:
    """(m, row content, col content) triples grouped by block size."""
    groups: dict = {}
    for m, degree in STRAIGHTEN_SIZES:
        comps = [c for c in itertools.product(range(degree + 1), repeat=m) if sum(c) == degree]
        for rc in comps:
            for cc in comps:
                groups.setdefault(block_size(rc, cc), []).append((m, rc, cc))
    return groups


def _straighten_ops(rng: random.Random) -> list:
    groups = _contents_by_size()
    ops = []
    for _, sizes, count in STRAIGHTEN_CLASSES:
        pool = [t for n in sizes for t in groups.get(n, ())]
        for _ in range(count):
            ops.append(_tableau_with_content(rng, *rng.choice(pool)))
    for _ in range(STRAIGHTEN_REPEATS):
        base = rng.choice([op for op in ops if block_size(*contents(op)) < 16])
        ops.append(_tableau_with_content(rng, base["m"], *contents(base)))
    rng.shuffle(ops)
    return ops


def contents(op: dict) -> tuple:
    """(row content, column content) of a straighten op."""
    return tuple(content(op["left"], op["m"])), tuple(content(op["right"], op["m"]))


def _tableau_with_content(rng: random.Random, m: int, rc: tuple, cc: tuple) -> dict:
    """A random double tableau of one random shape with the given contents;
    entries within a row are distinct (they index a minor) and in random order."""
    degree = sum(rc)
    depth = max(max(rc), max(cc))
    shapes = [s for s in _partitions(degree, m) if len(s) >= depth]
    while True:
        shape = rng.choice(shapes)
        left = _fill(rng, shape, rc)
        right = _fill(rng, shape, cc)
        if left is not None and right is not None:
            return {"m": m, "left": left, "right": right}


def _partitions(total: int, max_part: int) -> list:
    if total == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(total, max_part), 0, -1)
        for rest in _partitions(total - first, first)
    ]


def _fill(rng: random.Random, shape: tuple, content: tuple):
    values = [v + 1 for v, c in enumerate(content) for _ in range(c)]
    for _ in range(200):
        rng.shuffle(values)
        rows, pos = [], 0
        for length in shape:
            rows.append(values[pos:pos + length])
            pos += length
        if all(len(set(r)) == len(r) for r in rows):
            return rows
    return None


# -- queries ------------------------------------------------------------------


def _query_ops(rng: random.Random) -> list:
    ops = []
    for kind, count in QUERY_MIX:
        for i in range(count):
            ops.append(_QUERY_MAKERS[kind](rng, i))
    rng.shuffle(ops)
    return ops


def _alphas_text(alphas) -> str:
    return ",".join(str(a) for a in alphas)


def _category(m: int, k: int, alphas: tuple, count: int) -> str:
    bs = betas(m, k, alphas, count)
    prefix = list(itertools.accumulate(bs))
    if any(s < 0 for s in prefix):
        return "unbounded"
    if any(b < 0 for b in bs):
        return "divergent"
    return "lc"


def _alphas_for(rng: random.Random, m: int, k: int, count: int, category: str) -> tuple:
    for _ in range(100_000):
        alphas = tuple(rng.choice(HALVES) for _ in range(k))
        if _category(m, k, alphas, count) == category:
            return alphas
    raise RuntimeError(f"no alphas of category {category} for m={m} k={k} count={count}")


def _point_oracle(rng: random.Random, i: int) -> list:
    k, free, bound = POINT_SCHEDULE[i % len(POINT_SCHEDULE)]
    category = CATEGORY_CYCLE[i // len(POINT_SCHEDULE) % len(CATEGORY_CYCLE)]
    m = k + rng.randint(0, 1)
    alphas = _alphas_for(rng, m, k, free, category)
    return ["mld", "point", "--m", str(m), "--k", str(k), "--alphas", _alphas_text(alphas),
            "--q", str(k - free), "--oracle", str(bound)]


def _locus_oracle(rng: random.Random, i: int) -> list:
    k, j, bound = LOCUS_SCHEDULE[i % len(LOCUS_SCHEDULE)]
    category = CATEGORY_CYCLE[i // len(LOCUS_SCHEDULE) % len(CATEGORY_CYCLE)]
    m = k + rng.randint(0, 1)
    alphas = _alphas_for(rng, m, k, k, category)
    return ["mld", "locus", "--m", str(m), "--k", str(k), "--alphas", _alphas_text(alphas),
            "--j", str(j), "--oracle", str(bound)]


def _lc_check(rng: random.Random, i: int) -> list:
    m = rng.randint(2, 8)
    k = rng.randint(1, m)
    alphas = [rng.choice(HALVES) for _ in range(rng.randint(1, k))]
    where = ["--q", str(rng.randint(0, k))] if i % 2 else ["--j", str(rng.randint(1, k))]
    return ["lc", "check", "--m", str(m), "--k", str(k), "--alphas", _alphas_text(alphas), *where]


def _semicontinuity(rng: random.Random, i: int) -> list:
    m = rng.randint(2, 8)
    k = rng.randint(1, m)
    alphas = [rng.choice(HALVES) for _ in range(k)]
    return ["semicontinuity", "--m", str(m), "--k", str(k), "--alphas", _alphas_text(alphas)]


def _ord(rng: random.Random, i: int, seeded: bool = False) -> list:
    # Seeded (conjugated, dense) series at m = 5 cost as much as a large-k
    # query, so seeded ops stop at m = 4.
    m = 3 + i % (2 if seeded else 3)
    size = rng.randint(1, m)
    lam = sorted((rng.randint(0, 4) for _ in range(m)), reverse=True)
    argv = ["ord", "--lambda", ",".join(map(str, lam)), "--m", str(m), "--s", str(size),
            "--N", str(sum(lam) + rng.randint(0, 3))]
    if seeded:
        argv += ["--seed", str(rng.randint(0, 10**6))]
    return argv


def _point_large_k(rng: random.Random, i: int) -> list:
    # k is stratified over 80..187 so each pass sees the same spread of sizes;
    # with 14 such ops the ten beyond the tail percentile are all large-k.
    k = 80 + 8 * i + rng.randint(0, 3)
    alphas = [rng.choice(HALVES[:3]) for _ in range(rng.randint(1, 4))]
    return ["mld", "point", "--m", str(k + rng.randint(0, 3)), "--k", str(k),
            "--alphas", _alphas_text(alphas), "--q", str(rng.randint(0, 2))]


_QUERY_MAKERS = {
    "lc_check": _lc_check,
    "semicontinuity": _semicontinuity,
    "point_oracle": _point_oracle,
    "locus_oracle": _locus_oracle,
    "ord": _ord,
    "ord_seeded": lambda rng, i: _ord(rng, i, seeded=True),
    "point_large_k": _point_large_k,
}
