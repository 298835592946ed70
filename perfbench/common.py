"""Shared pieces of the workloads: the operation ledger and percentiles."""

from __future__ import annotations

import math
from time import perf_counter


class Ledger:
    """Every program call of a run, whether it was right, and the latency samples.

    call() runs one operation and keeps the exception instead of raising,
    so a failing call counts as failed and the run goes on.  expect() marks
    an operation wrong when an oracle disagrees with its result.  Latency
    samples are kept per sample group, which may span several calls (a
    cusp query is two calls).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.reasons = []
        self.samples = []

    def call(self, fn, *args, **kwargs):
        """Run fn; return (op id, result or None when it raised)."""
        op = self.attempted
        self.attempted += 1
        try:
            return op, fn(*args, **kwargs)
        except Exception as exc:  # a failing call is a measured outcome
            self.fail(op, "%s raised %s: %s" % (getattr(fn, "__name__", fn), type(exc).__name__, exc))
            return op, None

    def fail(self, op, reason):
        if op not in self.failed:
            self.failed.add(op)
            self.reasons.append(reason)

    def expect(self, op, ok, reason):
        if not ok:
            self.fail(op, reason)
        return bool(ok)

    def timed(self):
        """Context manager adding one latency sample for its body."""
        return _Sample(self.samples)


class _Sample:
    __slots__ = ("samples", "t0")

    def __init__(self, samples):
        self.samples = samples

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.samples.append(perf_counter() - self.t0)
        return False


def quantile(values, q):
    """Nearest-rank quantile of a nonempty list."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1]


def tail_percentile(values, q, beyond=10):
    """The q-quantile when at least `beyond` samples lie above it, else None."""
    if len(values) * (1 - q) < beyond:
        return None
    return quantile(values, q)
