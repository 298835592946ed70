"""cli_session: a fixed script of CLI commands, each in a fresh interpreter.

Commands run one after another as
    python3 -c 'import sys; from arrangekit.cli import main; sys.exit(main())' ...
with PYTHONPATH=src.  A traced pass starts each command through
cli_child.py instead, which installs the tracer before entering main.
Commands whose output does not depend on the seed are compared with byte
digests; the others are checked by the oracles.  One command is one
latency sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

import oracles as O
import wl_cusp_census
import wl_orbit_series
import wl_poset_strata

ENTRY = "import sys; from arrangekit.cli import main; sys.exit(main())"
HERE = os.path.dirname(os.path.abspath(__file__))

# sha256 of stdout, recorded at the commit that introduced this benchmark.
DIGESTS = {
    "lattice --preset E6 --signature --gram": "0360a447b10d312b424779d939cdd8f244f48cc8e54c0dae7e699061198fe9f7",
    "lattice --preset E6 --ring 6 --enumerate 0 --count": "e4b23b8f5d260077bdc56d429d60bbce2276d0fd021cf99e113a0d46edcd0e05",
    "cusps --preset E6 --ring 6": "b5d28ceccd1abb2c56c8f20031d92eb1cdc3738b774d22f5b505036d4dd8e6b4",
    "poset --preset braid5 --dot": "0da56e96f71e63d1688c922b0eda929482c7d1ff50b1265d3c9cb3844f5241f9",
    "strata --preset braid5 --max-len 2": "6e3fdffe686fcd7b96217bcab83fee47f5de51f4c0dc630aee2dae2c5983d7ed",
    "minimal-centers --preset weyl-D4": "2cdb9856ed5c2b9cf9c8935350d9b24d22ec41dfb39b56c264310fa480e2dafb",
    "hat-strata --preset weyl-D4 --projective": "20c401a30cd0758d77006c6abc4b74413d7b76bf04edcbbcc23519b4745579db",
}
TINY = ("lattice --preset E6 --signature --gram", "cusps --preset E6 --ring 6")
RING = 6  # jsys and obstruction run on E6/zeta6, whose box scan is short
E6_CUSPS = 16
POINCARE_DEPTH, POINCARE_L = 4, 12


def _cyc_json(p):
    return {"a": str(p[0]), "b": str(p[1])}


def _pair_json(obj):
    if isinstance(obj, dict):
        return (Fraction(obj["a"]), Fraction(obj.get("b", "0")))
    return (Fraction(obj), Fraction(0))


class Command:
    def __init__(self, label, args, spec=None):
        self.label = label  # key into DIGESTS or an oracle name
        self.args = args
        self.spec = spec


def _seeded_commands(rng):
    G = O.graph_gram("E6", RING)
    covs = wl_cusp_census.root_covectors(G, RING, rng, 12)
    arr = json.dumps(
        {"field": "Qw", "dim": 6, "hyperplanes": [{"covector": [_cyc_json(c) for c in cov]} for cov in covs]},
        separators=(",", ":"),
    )
    cmds = []
    for name in ("jsys", "obstruction"):
        idx = rng.randrange(E6_CUSPS)
        argv = [name, "--preset", "E6", "--ring", str(RING), "--arrangement", arr, "--cusp-index", str(idx)]
        cmds.append(Command(name, argv, (G, covs)))

    qcovs = wl_poset_strata.random_covectors(rng, "Q", 4, 3, 5, 3)
    while O.rank(qcovs, 4) < 3:
        qcovs = wl_poset_strata.random_covectors(rng, "Q", 4, 3, 5, 3)
    while True:
        z = [(rng.randint(-5, 5), 0) for _ in range(3)]
        if all(O.pdot(c, z, 4) != (0, 0) for c in qcovs):
            break
    qarr = json.dumps(
        {"field": "Q", "dim": 3, "hyperplanes": [{"covector": [str(a) for a, _ in c]} for c in qcovs]},
        separators=(",", ":"),
    )
    point = ",".join(str(a) for a, _ in z)
    cmds.append(Command("cremona", ["cremona", "--input", qarr, "--point=" + point], (qcovs, z)))

    w2 = complex(round(rng.uniform(-0.5, 0.5), 3), round(rng.uniform(0.8, 1.5), 3))
    zc = complex(round(rng.uniform(0.1, 0.9), 3), round(rng.uniform(0.1, 0.7), 3))
    k = rng.randint(3, 6)
    cmds.append(
        Command(
            "weierstrass",
            ["series", "--kind", "weierstrass", "--z", repr(zc), "--omega2", repr(w2), "--k", str(k), "--radius", "200"],
            (zc, w2, k, 200),
        )
    )

    G4 = O.graph_gram("E6", 4)
    cusps = [wl_orbit_series.isotropic_vector(rng, G4, 6) for _ in range(2)]
    zp = wl_orbit_series.interior_point(rng, G4, 6, cusps)
    n, edges = O.dynkin_edges("E6")
    doc = {
        "k": 4,
        "vertices": n,
        "edges": [list(e) for e in edges],
        "window": {
            "orbit": {
                "seeds": [[_cyc_json(p) for p in O.basis(n, 0)]],
                "reflections": [{"root": [_cyc_json(p) for p in O.basis(n, i)], "mu": {"a": "0", "b": "1"}} for i in range(n)],
                "depth": POINCARE_DEPTH,
            }
        },
        "z": [_cyc_json(p) for p in zp],
        "l": POINCARE_L,
    }
    cmds.append(Command("poincare", ["series", "--kind", "poincare", "--input", json.dumps(doc, separators=(",", ":"))], zp))
    return cmds


class Session:
    """The command script, plus where traced children write their summaries."""

    def __init__(self, commands):
        self.commands = commands
        self.root = os.path.dirname(HERE)
        self.outdir = os.path.join(self.root, ".perfbench_out")
        self.traced = False
        self.child_summaries = []


def generate(seed, size="full"):
    if size == "tiny":
        return Session([Command(c, c.split()) for c in TINY])
    fixed = [Command(c, c.split()) for c in DIGESTS]
    # the lattice commands first, so jsys and obstruction repeat their scan
    return Session(fixed[:3] + _seeded_commands(random.Random(seed)) + fixed[3:])


def run_pass(session, led):
    env = dict(os.environ, PYTHONPATH=os.path.join(session.root, "src"))
    results = []
    for i, cmd in enumerate(session.commands):
        if session.traced:
            out_path = os.path.join(session.outdir, "cli-%02d.json" % i)
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), out_path] + cmd.args
            env["PERFBENCH_T0"] = repr(perf_counter())
        else:
            argv = [sys.executable, "-c", ENTRY] + cmd.args
        op = led.attempted
        led.attempted += 1
        with led.timed():
            proc = subprocess.run(argv, env=env, cwd=session.root, capture_output=True)
        if proc.returncode != 0:
            led.fail(op, "%s exited %d: %s" % (cmd.label, proc.returncode, proc.stderr.decode()[-500:]))
        if session.traced:
            with open(out_path, encoding="utf-8") as fh:
                session.child_summaries.append(json.load(fh))
        results.append((op, proc.stdout))
    return results


# -- oracles ---------------------------------------------------------------


def _check_seeded(led, op, cmd, doc):
    if cmd.label in ("jsys", "obstruction"):
        G, covs = cmd.spec
        e = [_pair_json(c) for c in doc["cusp"]]
        perp, dim, obstruction = wl_cusp_census.query_oracle(G, RING, covs, e)
        if cmd.label == "jsys":
            eqs = doc["J"]["equations"]
            rows = [[_pair_json(c) for c in eq["coeffs"]] for eq in eqs]
            offsets = [_pair_json(eq["rhs"]) for eq in eqs]
            why = wl_cusp_census.j_problems(rows, offsets, e, perp, dim, RING)
            led.expect(op, doc["I_in_J"] and doc["J_in_I_perp"] and not why, "jsys: %r %s" % (why, doc))
        else:
            led.expect(op, (doc["kind"], doc["dim"]) == obstruction, "obstruction: %r, want %r" % (doc, obstruction))
        led.expect(op, O.herm(G, e, e, RING) == (0, 0), "cusp %r is not isotropic" % (e,))
    elif cmd.label == "cremona":
        covs, z = cmd.spec
        image = [_pair_json(c) for c in doc["point"]]
        prods = {O.pmul(w, O.pdot(c, z, 4), 4) for w, c in zip(image, covs)}
        led.expect(op, len(prods) == 1 and prods != {(0, 0)}, "cremona: %r" % (doc,))
    elif cmd.label == "weierstrass":
        z, w2, k, radius = cmd.spec
        value = complex(doc["value"]["re"], doc["value"]["im"])
        s1, a1 = wl_orbit_series.wp_sum(z, w2, k, radius)
        s2, a2 = wl_orbit_series.wp_sum(z, w2, k, 2 * radius)
        ok = abs(value - s1) <= wl_orbit_series.REL_TOL * a1
        ok = ok and abs(value - s2) <= doc["tail_estimate"] + wl_orbit_series.REL_TOL * a2
        led.expect(op, ok, "weierstrass: %r vs %r" % (doc, s1))
    elif cmd.label == "poincare":
        G = O.graph_gram("E6", 4)
        window = _own_orbit(POINCARE_DEPTH)
        zc = np.array([O.embed(x, 4) for x in cmd.spec])
        total, scale, poles = wl_orbit_series.orbit_sum(G, wl_orbit_series.normalized_gram(G), window, zc, cmd.spec)
        value = complex(doc["value"]["re"], doc["value"]["im"])
        if poles:
            ok = len(doc.get("poles_hit", ())) == poles
        else:
            ok = doc["terms_used"] == len(window) and abs(value - total) <= wl_orbit_series.REL_TOL * scale
        led.expect(op, ok, "poincare: %r vs %r" % (doc, total))


def _own_orbit(depth):
    """Orbit of e_0 under x -> x - (1 - i) psi(x, e_j)/2 e_j, in pair arithmetic."""
    G = O.graph_gram("E6", 4)
    n = len(G)
    factor = (Fraction(1, 2), Fraction(-1, 2))  # (1 - i)/2, and psi(e_j, e_j) = 2
    frontier = {O.basis(n, 0)}
    seen = set(frontier)
    for _ in range(depth):
        nxt = set()
        for v in frontier:
            for j in range(n):
                c = O.pmul(factor, O.herm(G, v, O.basis(n, j), 4), 4)
                w = tuple((Fraction(x[0]), Fraction(x[1])) for x in v)
                w = w[:j] + ((w[j][0] - c[0], w[j][1] - c[1]),) + w[j + 1 :]
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = nxt
    return sorted(seen)


def check(session, passes, led, expected=DIGESTS, seed=0):
    for results in passes:
        for cmd, (op, stdout) in zip(session.commands, results):
            if op in led.failed:
                continue
            if cmd.label in expected:
                want = expected[cmd.label]
                got = hashlib.sha256(stdout).hexdigest()
                led.expect(op, got == want, "%s: digest %s" % (cmd.label, got))
            if cmd.label.startswith("poset") and "--dot" in cmd.args:
                continue
            try:
                doc = json.loads(stdout)
            except ValueError:
                led.fail(op, "%s: output is not JSON" % cmd.label)
                continue
            if cmd.label not in expected:
                _check_seeded(led, op, cmd, doc)
