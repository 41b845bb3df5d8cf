"""Host-speed calibration.

The host's speed drifts by up to a quarter over minutes, which would move
every timing of a pass between runs of the same code.  Each pass first times
this fixed pure-Python loop, which imports nothing from the program and has
its instruction mix (exact rationals, dicts of exponent tuples); run.py
scales the run's pass timings (wall_s, op_p50_ms, op_tail_ms and the traced
self times) by REFERENCE_S over the run's median loop time, so they read as
seconds on a host where the loop takes REFERENCE_S, about its time on the
2-vCPU Xeon host where the baseline was recorded.  setup_s is interpreter
start-up and import, which does not follow the loop, and is not scaled.
The unscaled timings and the scale go to the details line.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.07


def _work() -> None:
    n = 16
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    poly = {(i % 3, i % 5, i % 7, i % 4): Fraction(i + 1, 3) for i in range(60)}
    product: dict = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            product[exp] = product.get(exp, 0) + c1 * c2


def loop_seconds() -> float:
    """Wall time of the fixed loop."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
