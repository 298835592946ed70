"""Direct timings of single layer operations, matching the ROADMAP baseline rows.

Each figure is the median over REPEATS rounds of the mean time per call
within a round.  Inputs are fixed, so the figures compare across commits.
"""

from __future__ import annotations

import random
from fractions import Fraction
from statistics import median
from time import perf_counter

import arrangekit as ak
from arrangekit import cyclo, linalg

REPEATS = 5


def _per_call(fn, args_list):
    rounds = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for args in args_list:
            fn(*args)
        rounds.append((perf_counter() - t0) / len(args_list))
    return median(rounds)


def _rat(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def layer_timings():
    """{metric name: (value, unit)}."""
    rng = random.Random(20010628)
    out = {}
    for k in (4, 6):
        pairs = [(ak.cyc(_rat(rng), _rat(rng), k), ak.cyc(_rat(rng), _rat(rng), k)) for _ in range(400)]
        out["cyclo.mul_us.k%d" % k] = (_per_call(lambda x, y: x * y, pairs) * 1e6, "us")

    def gauss():
        return ak.cyc(rng.randint(-999, 999), rng.randint(-999, 999), 4)

    out["cyclo.euclid_gcd_us"] = (_per_call(cyclo.euclid_gcd, [(gauss(), gauss()) for _ in range(40)]) * 1e6, "us")
    mats = [[[Fraction(rng.randint(-9, 9)) for _ in range(8)] for _ in range(7)] for _ in range(10)]
    out["linalg.rref_7x8_ms"] = (_per_call(linalg.rref, [(m,) for m in mats]) * 1e3, "ms")
    return out
