"""arrangekit benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload cusp_census --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  The workload's job list (a "pass") is solved repeatedly
for about --seconds, at least once.  Each pass's outputs are checked by
the oracles as soon as the pass ends, then dropped.  Human-readable lines
go first; the last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
also solves one traced pass and reports the per-layer metrics.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
# BENCHMARK.json gates cusp_census and cli_session; the other two run by hand
WORKLOADS = ("cusp_census", "poset_strata", "orbit_series", "cli_session")
# setup probes: this many after each pass, and at least SETUP_PROBES in all
PROBES_PER_PASS = 2
SETUP_PROBES = 12
# what one latency sample is, per workload, for the named report lines
SAMPLE_NAMES = {
    "cusp_census": ("cusp_query", "ms", 1e3),
    "poset_strata": ("arrangement_job", "s", 1.0),
    "orbit_series": ("series_eval", "ms", 1e3),
    "cli_session": ("cli_cmd", "s", 1.0),
}
CLI_COMMANDS = (
    "lattice", "poset", "strata", "minimal_centers", "hat_strata", "cremona",
    "cusps", "jsys", "obstruction", "series",
)
LAYERS = ("cyclo", "linalg", "lattices", "arrangements", "ball", "series", "jsonio", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: seconds-long smoke run")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load(workload):
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    return importlib.import_module("wl_" + workload)


def setup_probe(args):
    """Time the package import plus input generation in this fresh interpreter.

    The oracles and numpy are the harness's own imports, so they are
    loaded before the clock starts.
    """
    import numpy  # noqa: F401
    import oracles  # noqa: F401

    t0 = perf_counter()
    load(args.workload).generate(args.seed, args.size)
    print(repr(perf_counter() - t0))


def probe_setup(args):
    """Seconds of set-up in one fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Run:
    def __init__(self, args, expected=None):
        from common import Ledger

        self.args = args
        self.mod = load(args.workload)
        self.expected = expected
        self.inputs = self.mod.generate(args.seed, args.size)
        self.led = Ledger()
        self.pass_s = []
        self.setup_s = []
        self.rss_mb = None

    def solve(self, seconds, probe=True):
        """Solve passes for about `seconds`, checking each as it ends.

        The run stops at the pass boundary nearest to `seconds` of pass
        time, after at least one pass.

        Only one pass's outputs are alive at a time.  The peak RSS is read
        when the first pass ends, before any check runs, so it is the
        program's and does not grow with the number of passes.  With
        `probe`, set-up is timed between passes, so that its samples spread
        over the run like the passes do.
        """
        while True:
            t0 = perf_counter()
            out = self.mod.run_pass(self.inputs, self.led)
            self.pass_s.append(perf_counter() - t0)
            if self.rss_mb is None:
                self.rss_mb = peak_rss_mb(self.args.workload)
            self.check(out, self.led)
            del out
            if probe:
                self.setup_s += [probe_setup(self.args) for _ in range(PROBES_PER_PASS)]
            done = sum(self.pass_s)
            if done + done / len(self.pass_s) / 2 >= seconds:
                break
        while probe and len(self.setup_s) < SETUP_PROBES:
            self.setup_s.append(probe_setup(self.args))

    def check(self, out, led):
        kwargs = {} if self.expected is None else {"expected": self.expected}
        self.mod.check(self.inputs, [out], led, seed=self.args.seed, **kwargs)


# -- traced pass ---------------------------------------------------------


def traced_pass(run):
    """One checked pass under the tracer; returns (wall seconds, its ledger, merged summary)."""
    from common import Ledger
    from tracer import Tracer

    os.makedirs(OUTDIR, exist_ok=True)
    led = Ledger()
    base = os.path.join(OUTDIR, "%s-seed%d" % (run.args.workload, run.args.seed))
    if run.args.workload == "cli_session":
        run.inputs.traced = True
        t0 = perf_counter()
        out = run.mod.run_pass(run.inputs, led)
        wall = perf_counter() - t0
        summaries = run.inputs.child_summaries
    else:
        tracer = Tracer().install()
        try:
            t0 = perf_counter()
            out = run.mod.run_pass(run.inputs, led)
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        tracer.dump_spans(base + ".spans")
        summaries = [tracer.summary()]
    run.check(out, led)
    return wall, led, merge(summaries)


def merge(summaries):
    per_name, counts, keys, spans, starts = {}, {}, [], 0, []
    for s in summaries:
        for name, (calls, total, self_s) in s["per_name"].items():
            row = per_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        for key, n in s["counts"].items():
            counts[key] = counts.get(key, 0) + n
        keys.extend(s["scan_keys"])
        spans += s["spans"]
        if "process_start_s" in s:
            starts.append(s["process_start_s"])
    return {"per_name": per_name, "counts": counts, "scan_keys": keys, "spans": spans, "starts": starts}


def layer_metrics(summary, traced_wall, untraced_wall, timings):
    per, counts = summary["per_name"], summary["counts"]
    m = {}

    def calls(name):
        return per.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return per.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return per.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("cyclo.arith_calls", counts.get("cyclo.arith_calls", 0), "count")
    for name, (value, unit) in timings.items():
        put(name, value, unit)
    for fn in ("cyclo.euclid_gcd", "cyclo.vector_key", "linalg.rref", "lattices.enumerate_by_norm",
               "lattices.signature", "lattices.herm_product"):
        put(fn + ".calls", calls(fn), "count")
        put(fn + ".self_s", self_s(fn), "s")
    for fn in ("linalg.kernel_basis", "lattices.primitive_up_to_units", "lattices.orbit_expand",
               "arrangements.build_poset", "arrangements.enumerate_flags", "arrangements.minimal_blowup_centers",
               "arrangements.stratum_of_flag", "arrangements.hat_map", "ball.arithmetic_system",
               "ball.cusp_obstruction_check", "ball.cusp_scan", "ball.from_gram", "series.weierstrass_pk",
               "series.poincare_weierstrass", "series.cusp_limit_check", "jsonio.dump_json"):
        put(fn + ".self_s", self_s(fn), "s")
    for cmd in CLI_COMMANDS:
        put("cli.cmd_%s.self_s" % cmd, self_s("cli.cmd_" + cmd), "s")
    for layer in LAYERS:
        put(layer + ".self_s", sum(row[2] for name, row in per.items() if name.startswith(layer + ".")), "s")

    box, hits = counts.get("lattices.box_points", 0), counts.get("lattices.scan_hits", 0)
    put("lattices.box_points", box, "count")
    put("lattices.scan_hits", hits, "count")
    put("lattices.scan_hit_ratio", ratio(hits, box), "ratio")
    put("lattices.unit_filter_kept_ratio",
        ratio(counts.get("lattices.unit_filter_kept", 0), counts.get("lattices.unit_filter_in", 0)), "ratio")
    flats = counts.get("arrangements.flats", 0)
    put("arrangements.flats", flats, "count")
    put("arrangements.flats_per_s", ratio(flats, total("arrangements.build_poset")), "1/s")
    put("arrangements.flags", counts.get("arrangements.flags", 0), "count")
    hyp = calls("ball.hyperplane_is_hyperbolic")
    put("ball.hyperplane_is_hyperbolic.calls", hyp, "count")
    put("ball.hyperbolic_repeat_ratio", ratio(counts.get("ball.hyperbolic_repeats", 0), hyp), "ratio")
    terms = counts.get("series.terms", 0)
    put("series.terms", terms, "count")
    put("series.terms_per_s", ratio(terms, total("series.weierstrass_pk") + total("series.poincare_weierstrass")), "1/s")
    put("cli.process_start_s", median(summary["starts"]) if summary["starts"] else 0.0, "s")
    put("jsonio.output_bytes", counts.get("jsonio.output_bytes", 0), "bytes")
    seen, repeats = set(), 0
    for key in summary["scan_keys"]:
        repeats += key in seen
        seen.add(key)
    put("cli.repeated_scans", repeats, "count")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.spans", summary["spans"], "count")
    return m


# -- report --------------------------------------------------------------


def e2e_metrics(run):
    return {
        "setup_s": {"value": median(run.setup_s), "unit": "s"},
        # the mean, not the median: see "why wall_s is a mean" in README.md
        "wall_s": {"value": sum(run.pass_s) / len(run.pass_s), "unit": "s"},
        "peak_rss_mb": {"value": run.rss_mb, "unit": "MB"},
    }


def report_lines(run, attempted, failed):
    from common import tail_percentile

    name, unit, scale = SAMPLE_NAMES[run.args.workload]
    samples = run.led.samples
    lines = ["passes %d, pass times %s s" % (len(run.pass_s), ", ".join("%.3f" % s for s in run.pass_s))]
    lines.append("%s_mean_%s %.6g %s (n=%d)" % (name, unit, sum(samples) / len(samples) * scale, unit, len(samples)))
    lines.append("%s_p50_%s %.6g %s (n=%d)" % (name, unit, median(samples) * scale, unit, len(samples)))
    p95 = tail_percentile(samples, 0.95)
    if p95 is None:
        lines.append("%s_p95_%s not reported: fewer than 10 of %d samples lie beyond it" % (name, unit, len(samples)))
    else:
        lines.append("%s_p95_%s %.6g %s (n=%d)" % (name, unit, p95 * scale, unit, len(samples)))
    lines.append("fail_ratio %.6g (%d failed of %d attempted)" % (failed / attempted, failed, attempted))
    return lines


def main(argv=None, expected=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arrangekit", "__init__.py")):
        sys.stderr.write("no arrangekit package under %s; run from a checkout of the repository\n" % SRC)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    run = Run(args, expected)
    run.solve(args.seconds, probe=not args.trace)
    attempted, failed = run.led.attempted, len(run.led.failed)
    reasons = list(run.led.reasons)
    if args.trace:
        from microbench import layer_timings

        traced_wall, led, summary = traced_pass(run)
        attempted += led.attempted
        failed += len(led.failed)
        reasons += led.reasons
        metrics = layer_metrics(summary, traced_wall, sum(run.pass_s) / len(run.pass_s), layer_timings())
    else:
        metrics = e2e_metrics(run)
    for line in report_lines(run, attempted, failed):
        print(line)
    for name, m in metrics.items():
        print("%s %.10g %s" % (name, m["value"], m["unit"]))
    for why in reasons[:20]:
        sys.stderr.write("FAILED: %s\n" % why)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
