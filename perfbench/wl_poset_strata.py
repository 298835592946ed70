"""poset_strata: intersection posets, blowup centres, flags and strata.

Inputs: the reflection arrangements braid5 and weyl-D4, the monomial
arrangements G(4,1,3) over Qi and G(3,1,3) over Qw, and a seeded batch of
small random central arrangements over Q and Qi.  One job per arrangement
(poset, minimal centres, flags up to length 3 with their strata, hat
strata, hat map at seeded points) is one latency sample.
"""

from __future__ import annotations

import random
from fractions import Fraction

import arrangekit as ak

import oracles as O

# (label, field, k, dimension, coexponents, longest flag); chi(t) must
# equal t^(dim - len) * prod (t - e) over the coexponents e.  The sizes keep
# a pass near 4 s: braid6 (5 s) and G(6,1,3) (5 s) are left out, and
# weyl-D4 stops at flags of length 2.
FIXED = {
    "full": (
        ("braid5", "Q", 4, 5, (1, 2, 3, 4), 3),
        ("weyl-D4", "Q", 4, 4, (1, 3, 3, 5), 2),
        ("G(4,1,3)", "Qi", 4, 3, (1, 5, 9), 3),
        ("G(3,1,3)", "Qw", 6, 3, (1, 4, 7), 3),
    ),
    "tiny": (("braid4", "Q", 4, 4, (1, 2, 3), 3),),
}
RANDOM_FLAG_LEN = 3
# (field, k, dimension, hyperplanes, coefficient bound, how many)
RANDOM = {
    "full": (("Q", 4, 3, 6, 3, 12), ("Qi", 4, 3, 5, 2, 2)),
    "tiny": (("Q", 4, 3, 5, 3, 2),),
}
POINTS = 2  # hat-map points per arrangement of full rank


class Job:
    def __init__(self, label, field, k, n, covs, coexponents, max_len, rng):
        self.label, self.field, self.k, self.n = label, field, k, n
        self.max_len = max_len
        self.covs = covs  # oracle pairs
        self.coexponents = coexponents
        if label == "weyl-D4":
            self.arr = ak.weyl_arrangement("D4")
            self.covs = [tuple(O.pair(c) for c in cov) for cov, _ in self.arr.hyperplanes]
        else:
            self.arr = ak.Arrangement(field, n, [(_scalars(c, field, k), _scalars([(0, 0)], field, k)[0]) for c in covs])
        self.points = []
        if O.rank(self.covs, k) == n:
            while len(self.points) < POINTS:
                z = [(rng.randint(-5, 5), rng.randint(-3, 3) if field != "Q" else 0) for _ in range(n)]
                if all(O.pdot(c, z, k) != (0, 0) for c in self.covs):
                    self.points.append(z)
        self.point_args = [_scalars(z, field, k) for z in self.points]


def _scalars(pairs, field, k):
    if field == "Q":
        return [Fraction(a) for a, _ in pairs]
    return [ak.cyc(a, b, k) for a, b in pairs]


def _braid(n):
    covs = []
    for i in range(n):
        for j in range(i + 1, n):
            c = [(0, 0)] * n
            c[i], c[j] = (1, 0), (-1, 0)
            covs.append(tuple(c))
    return covs


def _monomial(m, n, k):
    """x_i = 0 and x_i = u x_j for every m-th root of unity u (m divides k)."""
    covs = []
    for i in range(n):
        c = [(0, 0)] * n
        c[i] = (1, 0)
        covs.append(tuple(c))
    for i in range(n):
        for j in range(i + 1, n):
            for u in O.UNITS[k][:: k // m]:  # UNITS[k] lists the powers of zeta_k
                c = [(0, 0)] * n
                c[i], c[j] = (1, 0), (-u[0], -u[1])
                covs.append(tuple(c))
    return covs


def random_covectors(rng, field, k, n, m, bound):
    """m pairwise non-proportional random covectors."""
    seen, covs = set(), []
    while len(covs) < m:
        c = tuple((rng.randint(-bound, bound), rng.randint(-bound, bound) if field != "Q" else 0) for _ in range(n))
        lead = next((x for x in c if x != (0, 0)), None)
        if lead is None:
            continue
        inv = O.pinv(lead, k)
        key = tuple(O.pmul(x, inv, k) for x in c)
        if key not in seen:
            seen.add(key)
            covs.append(c)
    return covs


def generate(seed, size="full"):
    rng = random.Random(seed)
    fixed = []
    for label, field, k, n, coexp, max_len in FIXED[size]:
        if label.startswith("braid"):
            covs = _braid(n)
        elif label.startswith("G("):
            covs = _monomial(int(label[2:].split(",")[0]), n, k)
        else:
            covs = None
        fixed.append(Job(label, field, k, n, covs, coexp, max_len, rng))
    rand = []
    for field, k, n, m, bound, count in RANDOM[size]:
        for i in range(count):
            covs = random_covectors(rng, field, k, n, m, bound)
            rand.append(Job("random-%s-%d" % (field, i), field, k, n, covs, None, RANDOM_FLAG_LEN, rng))
    # Random jobs in seeded order, with the fixed jobs at fixed places among
    # them: the latency samples spread over the whole pass, and the memory
    # held when each big job runs does not depend on the seed.
    rng.shuffle(rand)
    step = -(-len(rand) // len(fixed))
    jobs = []
    for i, job in enumerate(fixed):
        jobs += rand[i * step : (i + 1) * step] + [job]
    return jobs


def run_pass(jobs, led):
    out = []
    for job in jobs:
        res = {"job": job}
        with led.timed():
            res["poset"] = _, P = led.call(ak.build_poset, job.arr)
            if P is not None:
                res["centers"] = led.call(ak.minimal_blowup_centers, P)
                res["flags"] = _, flags = led.call(ak.enumerate_flags, P, job.max_len)
                res["strata"] = [(f, led.call(ak.stratum_of_flag, P, f)) for f in flags or ()]
                res["hat"] = led.call(ak.hat_strata, P)
            res["maps"] = [led.call(ak.hat_map, z, job.arr) for z in job.point_args]
        out.append(res)
    return out


def _check_poset(led, job, op, P):
    n, k = job.n, job.k
    elems = P.elements
    m = len(elems)
    dims = [L.dim for L in elems]

    def leq(i, j):
        return P.leq(elems[i], elems[j])

    chi = O.chi_from_mobius(range(m), leq, dims, n)
    if job.coexponents is not None:
        want = O.poly_from_roots(job.coexponents, n - len(job.coexponents))
    else:
        want = O.chi_whitney(job.covs, n, k)
    led.expect(op, chi == want, "%s: chi %r != %r" % (job.label, chi, want))
    if job.label.startswith("braid"):
        led.expect(op, m == O.bell(n) - 1, "%s: %d flats" % (job.label, m))
        for d in range(1, n):
            got = sum(1 for x in dims if x == d)
            led.expect(op, got == O.stirling2(n, d), "%s: %d flats of dim %d" % (job.label, got, d))
    return leq


def _check_centers(led, job, P, op, centers):
    k = job.k
    want = []
    for L in P.elements:
        if L.codim < 2:
            continue
        base = O.Echelon(k)
        for row in L.rows:
            base.add([O.pair(c) for c in row[:-1]])
        through = 0
        for c in job.covs:
            e = base.copy()
            if not e.add(c):
                through += 1
        if through > L.codim:
            want.append(L)
    led.expect(op, set(centers) == set(want) and len(centers) == len(want), "%s: centres differ" % job.label)


def _check_map(led, job, z, op, image):
    k = job.k
    values = [O.pdot(c, z, k) for c in job.covs]
    prods = {O.pmul(O.pair(w), v, k) for w, v in zip(image, values)}
    led.expect(op, len(prods) == 1 and prods != {(0, 0)}, "%s: hat map at %r" % (job.label, z))


def check(jobs, passes, led, expected=None, seed=0):
    for out in passes:
        for res in out:
            job = res["job"]
            op, P = res["poset"]
            if P is not None:
                leq = _check_poset(led, job, op, P)
                op_c, centers = res["centers"]
                if centers is not None:
                    _check_centers(led, job, P, op_c, centers)
                op_f, flags = res["flags"]
                if flags is not None:
                    want = O.count_chains(len(P.elements), leq, job.max_len)
                    led.expect(op_f, len(flags) == want, "%s: %d flags, want %d" % (job.label, len(flags), want))
                for flag, (op_s, st) in res["strata"]:
                    if st is None:
                        continue
                    dims = [L.dim for L in flag.chain]
                    factors = [dims[0]] + [b - a - 1 for a, b in zip(dims, dims[1:])] + [job.n - dims[-1] - 1]
                    led.expect(op_s, list(st.factor_dims) == factors, "%s: stratum dims" % job.label)
                op_h, hat = res["hat"]
                if hat is not None:
                    want = [job.n] + [L.codim - 1 for L in P.elements]
                    led.expect(op_h, [d for _, d in hat] == want, "%s: hat strata" % job.label)
            for z, (op_m, image) in zip(job.points, res["maps"]):
                if image is not None:
                    _check_map(led, job, z, op_m, image)
