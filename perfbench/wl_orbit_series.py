"""orbit_series: truncated automorphic series on E6/zeta4.

The window is the orbit of the first simple root under the six simple-root
reflections with eigenvalue i, to word length 5.  Then a seeded, shuffled
list of evaluations: poincare_weierstrass at exact-rational and float
interior points, cusp_limit_check along the scaling flow at seeded cusps,
and weierstrass_pk at radii 50 and 200.  Each evaluation is one latency
sample.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

import numpy as np

import arrangekit as ak

import oracles as O

DIAGRAM, K, L_EXP = "E6", 4, 12
SIZES = {
    # depth, poincare exact, poincare float, cusp limits, wp r=50, wp r=200
    "full": (5, 24, 24, 2, 18, 12),
    "tiny": (2, 2, 2, 1, 2, 1),
}
S_VALUES = (0.0, 0.5, 1.0, 2.0)
# Window size recorded at the commit that introduced this benchmark.
EXPECTED = {"window": {5: 123, 2: 8}}
CUSP_POOL = 6  # isotropic vectors drawn per run; interior points are built on them
REL_TOL = 1e-9


def isotropic_vector(rng, G, n):
    while True:
        e = tuple((rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(n))
        if any(a or b for a, b in e) and O.herm(G, e, e, K) == (0, 0):
            return e


def interior_point(rng, G, n, cusps):
    """An integral z with psi(z, z) < 0 for the graph form: N*e + v, e isotropic."""
    e = rng.choice(cusps)
    while True:
        v = tuple((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n))
        r = O.re_part(O.herm(G, e, v, K), K)
        if r:
            break
    if r > 0:
        v, r = tuple((-a, -b) for a, b in v), -r
    vv = O.herm(G, v, v, K)[0]
    N = max(1, int(vv / (-2 * r)) + 1) + rng.randint(0, 2)
    return tuple((N * a + c, N * b + d) for (a, b), (c, d) in zip(e, v))


class Inputs:
    def __init__(self, seed, size):
        rng = random.Random(seed)
        depth, n_exact, n_float, n_limit, n_wp50, n_wp200 = SIZES[size]
        self.depth = depth
        self.G = O.graph_gram(DIAGRAM, K)
        n = self.n = len(self.G)
        self.gram = ak.gram_matrix(ak.dynkin_graph(DIAGRAM), K)
        mu = ak.cyc(0, 1, K)
        basis = [tuple(ak.cyc(1 if i == j else 0, 0, K) for j in range(n)) for i in range(n)]
        self.gens = [ak.reflection(self.gram, r, mu) for r in basis]
        self.seed_root = basis[0]
        # the ball is psi < 0 for the graph form, psi > 0 after HermSpace negates it
        self.Gc = normalized_gram(self.G)
        cusps = [isotropic_vector(rng, self.G, n) for _ in range(CUSP_POOL)]
        evals = []
        for _ in range(n_exact):
            evals.append(("poincare", (interior_point(rng, self.G, n, cusps), rng.randint(1, 3))))
        for _ in range(n_float):
            evals.append(("poincare", self._float_point(rng, interior_point(rng, self.G, n, cusps))))
        for _ in range(n_limit):
            evals.append(("cusp_limit", (interior_point(rng, self.G, n, cusps), rng.choice(cusps))))
        for radius, count in ((50, n_wp50), (200, n_wp200)):
            for _ in range(count):
                w2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
                z = complex(rng.uniform(0.1, 0.9), 0) + rng.uniform(0.1, 0.9) * w2
                evals.append(("weierstrass", (z, w2, rng.randint(3, 6), radius)))
        rng.shuffle(evals)
        self.evals = evals
        self.args = [self._program_args(kind, spec) for kind, spec in evals]

    def _float_point(self, rng, z):
        zc = np.array([O.embed(x, K) for x in z])
        scale = float(np.abs(zc).max())
        while True:
            pert = zc + 1e-3 * scale * (np.array([rng.gauss(0, 1) for _ in zc]) + 1j * np.array([rng.gauss(0, 1) for _ in zc]))
            if (pert @ self.Gc @ pert.conj()).real > 0:
                return tuple(complex(x) for x in pert)

    def _program_args(self, kind, spec):
        def exact(v):
            return tuple(ak.cyc(a, b, K) for a, b in v)

        if kind == "poincare":
            if isinstance(spec[0], tuple):  # an integral point and a denominator
                z, d = spec
                return tuple(ak.cyc(Fraction(a, d), Fraction(b, d), K) for a, b in z)
            return spec
        if kind == "cusp_limit":
            return exact(spec[0]), exact(spec[1])
        z, w2, k, radius = spec
        return z, ak.PlanarLattice(1, w2), k, radius


def generate(seed, size="full"):
    return Inputs(seed, size)


def run_pass(inp, led):
    out = {}
    out["window"] = _, vectors = led.call(ak.orbit_expand, inp.gram, [inp.seed_root], inp.gens, inp.depth)
    _, space = led.call(ak.HermSpace.from_gram, inp.gram)
    if vectors is None or space is None:
        return out
    window = ak.OrbitWindow(tuple(vectors), inp.n - 1)
    results = []
    for (kind, _), args in zip(inp.evals, inp.args):
        with led.timed():
            if kind == "poincare":
                r = led.call(ak.poincare_weierstrass, args, window, L_EXP, space)
            elif kind == "cusp_limit":
                z, e = args
                r = led.call(ak.cusp_limit_check, z, window, L_EXP, space, e, S_VALUES)
            else:
                z, lat, k, radius = args
                r = led.call(ak.weierstrass_pk, z, lat, k, radius)
        results.append(r)
    out["results"] = results
    return out


# -- oracles ---------------------------------------------------------------


def normalized_gram(G):
    """The complex Gram matrix after HermSpace negates the graph form."""
    return -np.array([[O.embed(x, K) for x in row] for row in G])


def orbit_sum(G, Gc, W, zc, exact_z=None):
    """(sum, sum of |terms|, pole count) of psi(z, w)^-l over the window W.

    Poles are exact zeros of psi(z, w) when the integral point exact_z is
    given, and the program's relative tolerance otherwise.
    """
    Wc = np.array([[O.embed(x, K) for x in w] for w in W])
    vals = Wc.conj() @ (Gc.T @ zc)
    absv = np.abs(vals)
    if exact_z is not None:
        poles = np.array([O.herm(G, exact_z, w, K) == (0, 0) for w in W])
    else:
        poles = absv <= ak.series.POLE_TOLERANCE * absv.max()
    kept = vals[~poles]
    return complex((kept ** (-L_EXP)).sum()), float((np.abs(kept) ** (-L_EXP)).sum()), int(poles.sum())


def _close(a, b, scale):
    return abs(a - b) <= REL_TOL * scale + 1e-300


def _check_poincare(led, op, res, want, where):
    total, scale, poles = want
    if poles:
        ok = cmath.isinf(res.value) and len(res.poles_hit) == poles
    else:
        ok = not res.poles_hit and _close(res.value, total, scale)
    led.expect(op, ok, "poincare at %s: %r, oracle %r (%d poles)" % (where, res.value, total, poles))


def wp_sum(z, w2, k, radius):
    m = np.arange(-radius, radius + 1)
    inv = 1 / (z + m[:, None] + m[None, :] * w2)
    terms = inv
    for _ in range(k - 1):
        terms = terms * inv
    return complex(terms.sum()), float(np.abs(terms).sum())


def check(inp, passes, led, expected=EXPECTED, seed=0):
    for out in passes:
        op_w, vectors = out["window"]
        if vectors is None:
            continue
        W = [tuple(O.pair(c) for c in v) for v in vectors]
        ok = len(W) == expected["window"][inp.depth] and len(set(W)) == len(W)
        ok = ok and all(O.herm(inp.G, w, w, K) == (Fraction(K, 2), 0) for w in W)
        led.expect(op_w, ok, "window: %d vectors" % len(W))
        for (kind, spec), (op, res) in zip(inp.evals, out.get("results", ())):
            if res is None:
                continue
            if kind == "poincare":
                if isinstance(spec[0], tuple):
                    z, d = spec
                    zc = np.array([O.embed(x, K) for x in z]) / d
                    _check_poincare(led, op, res, orbit_sum(inp.G, inp.Gc, W, zc, z), spec)
                else:
                    _check_poincare(led, op, res, orbit_sum(inp.G, inp.Gc, W, np.array(spec)), spec)
            elif kind == "cusp_limit":
                z, e = spec
                stable = sum(1 for w in W if O.herm(inp.G, e, w, K) == (0, 0))
                led.expect(op, (res.stable_count, res.decaying_count) == (stable, len(W) - stable), "cusp limit split")
                zc = np.array([O.embed(x, K) for x in z])
                ec = np.array([O.embed(x, K) for x in e])
                beta = zc @ inp.Gc @ ec.conj()
                for s, r in zip(S_VALUES, res.results):
                    _check_poincare(led, op, r, orbit_sum(inp.G, inp.Gc, W, zc + s * beta * ec), "s=%g" % s)
            else:
                z, w2, k, radius = spec
                s1, a1 = wp_sum(z, w2, k, radius)
                s2, a2 = wp_sum(z, w2, k, 2 * radius)
                led.expect(op, _close(res.value, s1, a1), "weierstrass r=%d: %r vs %r" % (radius, res.value, s1))
                led.expect(
                    op,
                    abs(res.value - s2) <= res.tail_estimate + REL_TOL * a2,
                    "weierstrass r=%d: |S(r) - S(2r)| = %g > tail %g" % (radius, abs(res.value - s2), res.tail_estimate),
                )
