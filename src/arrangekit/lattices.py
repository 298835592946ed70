"""Hermitian lattices attached to directed graphs over O_k, k in {4, 6}.

A graph with n vertices defines a form on the free O_k-module of rank n:
k/2 on the diagonal, -1-zeta_k for a directed edge (i, j), the conjugate
on the mirror entry, 0 otherwise.  Gram matrices are plain lists of lists
of CycRat with entries[i][j] = psi(r_i, r_j); psi is linear in the first
argument and conjugate-linear in the second.

The exact signature routine and the box enumerator are the workhorses:
signatures drive every validity check downstream, and the enumerator is
the only window onto the (infinite) root and isotropic sets.  It walks
the box depth first in exact integers and cuts every branch that can no
longer reach the target norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclo import CycRat, is_unit, unit_canonical, units, vector_content, vector_key
from .errors import (
    DimensionMismatch,
    GeneratorNotUnitary,
    InvalidGraph,
    NotARoot,
)
from .linalg import identity


@dataclass(frozen=True)
class GraphSpec:
    vertex_count: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.vertex_count < 0:
            raise InvalidGraph("negative vertex count")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise InvalidGraph("edge %r is not a pair" % (e,))
            i, j = e
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise InvalidGraph("edge %r out of range" % (e,))
            if i == j:
                raise InvalidGraph("loop at vertex %d" % i)
            key = frozenset((i, j))
            if key in seen:
                raise InvalidGraph("repeated edge between %d and %d" % (i, j))
            seen.add(key)


def ring_of(M) -> int:
    return M[0][0].k


def as_cyc(value, k) -> CycRat:
    if isinstance(value, CycRat):
        if value.k != k:
            raise ValueError("value from the wrong ring")
        return value
    return CycRat(value, 0, k)


def check_hermitian(M) -> None:
    n = len(M)
    for row in M:
        if len(row) != n:
            raise DimensionMismatch("Gram matrix must be square")
    for i in range(n):
        if not M[i][i].is_rational():
            raise ValueError("diagonal entry %d is not real" % i)
        for j in range(i + 1, n):
            if M[i][j] != M[j][i].conjugate():
                raise ValueError("entries (%d,%d)/(%d,%d) not conjugate" % (i, j, j, i))


def gram_matrix(graph: GraphSpec, k: int):
    """Gram matrix of the graph lattice: k/2 diagonal, -1-zeta per edge."""
    if not isinstance(graph, GraphSpec):
        graph = GraphSpec(*graph)
    n = graph.vertex_count
    zero = CycRat(0, 0, k)
    diag = CycRat(Fraction(k, 2), 0, k)
    edge_val = CycRat(-1, -1, k)
    M = [[zero] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = diag
    for i, j in graph.edges:
        M[i][j] = edge_val
        M[j][i] = edge_val.conjugate()
    return M


def herm_product(M, x, y) -> CycRat:
    n = len(M)
    if len(x) != n or len(y) != n:
        raise DimensionMismatch(
            "vectors of length %d, %d against a %dx%d form" % (len(x), len(y), n, n)
        )
    k = ring_of(M)
    total = CycRat(0, 0, k)
    y_conj = [as_cyc(c, k).conjugate() for c in y]
    for i in range(n):
        xi = as_cyc(x[i], k)
        if not xi:
            continue
        row = M[i]
        for j in range(n):
            yj = y_conj[j]
            if yj and row[j]:
                total = total + xi * yj * row[j]
    return total


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    null: int

    def as_tuple(self):
        return (self.positive, self.negative, self.null)


def signature(M) -> Signature:
    """Exact inertia of the Hermitian form, counted in complex dimensions.

    Recursive elimination: a nonzero real diagonal pivot contributes its
    sign and leaves the Schur complement; if the diagonal vanishes but
    some psi(e_i, e_j) does not, that pair spans a hyperbolic plane
    contributing (1, 1), and subtracting the projections onto e_i, e_j
    from the remaining basis vectors restores the recursion; a zero block
    is pure kernel.
    """
    check_hermitian(M)
    pos = neg = 0
    G = [list(row) for row in M]
    while True:
        n = len(G)
        if n == 0:
            return Signature(pos, neg, 0)
        pivot = None
        for i in range(n):
            if G[i][i]:
                pivot = i
                break
        if pivot is not None:
            i = pivot
            d = G[i][i]
            if d._a > 0:
                pos += 1
            else:
                neg += 1
            rest = [p for p in range(n) if p != i]
            G = [[G[p][q] - G[p][i] * G[i][q] / d for q in rest] for p in rest]
            continue
        pair = None
        for i in range(n):
            for j in range(i + 1, n):
                if G[i][j]:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            return Signature(pos, neg, n)
        i, j = pair
        pos += 1
        neg += 1
        rest = [p for p in range(n) if p != i and p != j]
        # coefficients making e_p - a*e_i - b*e_j orthogonal to e_i and e_j;
        # one-sided correction suffices since the new vectors kill psi(., e_i/j)
        alpha = {p: G[p][j] / G[i][j] for p in rest}
        beta = {p: G[p][i] / G[j][i] for p in rest}
        G = [
            [G[p][q] - alpha[p] * G[i][q] - beta[p] * G[j][q] for q in rest]
            for p in rest
        ]


def perp_covector(M, v):
    """Covector of psi(., v): entry i is psi(e_i, v)."""
    n = len(M)
    k = ring_of(M)
    return tuple(
        sum((M[i][j] * as_cyc(v[j], k).conjugate() for j in range(n)), CycRat(0, 0, k))
        for i in range(n)
    )


def is_root(M, v) -> bool:
    k = ring_of(M)
    return herm_product(M, v, v) == Fraction(k, 2)


# ---------------------------------------------------------------------------
# box enumeration


def _integer_form(M):
    """The integer matrix C with psi(v,v)*scale = u C u^T, u = (x..., y...).

    Writing v_i = x_i + zeta*y_i and M_ij = a_ij + b_ij*zeta, the real
    number psi(v,v) equals sum_ij P_ij*a_ij - Q_ij*b_ij with
    P = x_i x_j + y_i y_j (+ x_i y_j when k = 6) and Q = y_i x_j - x_i y_j.
    Collecting coefficients gives blocks [[A, kappa*A + B], [-B, A]].
    """
    n = len(M)
    k = ring_of(M)
    kappa = 1 if k == 6 else 0
    scale = lcm(*(x._d for row in M for x in row))
    C = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            x = M[i][j]
            a = x._a * (scale // x._d)
            b = x._b * (scale // x._d)
            C[i][j] = a
            C[n + i][n + j] = a
            C[i][n + j] = kappa * a + b
            C[n + i][j] = -b
    return C, scale


def _box_scan(C, t, b):
    """All nonzero integer u in [-b, b]^N with u C u^T = t, depth first.

    u C u^T = sum_p C_pp u_p^2 + sum_{p<q} E_pq u_p u_q, E_pq = C_pq + C_qp.
    With u_0..u_{d-1} fixed it is val + sum_{q>=d} lin_q u_q plus a
    quadratic part in u_d.. ranging over [qlo[d], qhi[d]] on the box; a
    branch is cut once t - val leaves that range widened by b*sum|lin_q|.
    An explicit stack, not recursion, so the depth is unbounded.
    """
    N = len(C)
    E = [[C[p][q] + C[q][p] for q in range(p + 1, N)] for p in range(N)]
    b2 = b * b
    qlo = [0] * (N + 1)
    qhi = [0] * (N + 1)
    for d in range(N - 1, -1, -1):
        cross = b2 * sum(map(abs, E[d]))
        qlo[d] = qlo[d + 1] + b2 * min(C[d][d], 0) - cross
        qhi[d] = qhi[d + 1] + b2 * max(C[d][d], 0) + cross
    hits = []
    # a branch: the fixed prefix u, its value, and lin_q for q >= len(u)
    stack = [((), 0, [0] * N)]
    while stack:
        u, val, lin = stack.pop()
        d = len(u)
        diag, row, lo, hi = C[d][d], E[d], qlo[d + 1], qhi[d + 1]
        tail = lin[1:]
        tail_slack = b * sum(map(abs, tail))
        for x in range(-b, b + 1):
            v = val + (diag * x + lin[0]) * x
            if x:
                rest = [l + e * x for l, e in zip(tail, row)]
                slack = b * sum(map(abs, rest))
            else:
                rest, slack = tail, tail_slack
            if lo - slack <= t - v <= hi + slack:
                if d + 1 < N:
                    stack.append((u + (x,), v, rest))
                elif x or any(u):
                    # at full depth the test above reads v == t
                    hits.append(u + (x,))
    return hits


def enumerate_by_norm(M, target_norm, coeff_bound: int):
    """All nonzero v with |coordinate parts| <= coeff_bound and psi(v,v) = target.

    The box is scanned as an integer quadratic form in the 2n coefficient
    parts, depth first with exact pruning (see _box_scan).  Output is
    sorted by the coordinatewise (a, b) key so the order is reproducible.
    """
    if coeff_bound < 0:
        raise ValueError("coeff_bound must be nonnegative")
    check_hermitian(M)
    n = len(M)
    k = ring_of(M)
    if n == 0 or coeff_bound == 0:
        return []
    C, scale = _integer_form(M)
    t = Fraction(target_norm) * scale
    if t.denominator != 1:
        return []
    hits = [
        tuple(CycRat(u[i], u[n + i], k) for i in range(n))
        for u in _box_scan(C, t.numerator, coeff_bound)
    ]
    hits.sort(key=vector_key)
    return hits


# ---------------------------------------------------------------------------
# unitary reflections and orbits


def reflection(M, r, mu):
    """Matrix of x -> x - (1 - mu) * psi(x, r)/psi(r, r) * r.

    mu must be one of the k roots of unity; mu = 1 gives the identity and
    the defining root is an eigenvector with eigenvalue mu.
    """
    k = ring_of(M)
    mu = as_cyc(mu, k)
    if not is_unit(mu) or mu not in units(k):
        raise ValueError("mu must be a root of unity in O_%d" % k)
    if not is_root(M, r):
        raise NotARoot("reflection axis must have norm k/2")
    n = len(M)
    nr = herm_product(M, r, r)
    factor = (CycRat(1, 0, k) - mu) / nr
    # c_j = psi(e_j, r), so that sum_j c_j x_j = psi(x, r)
    c = perp_covector(M, r)
    S = identity(n, CycRat(1, 0, k))
    for i in range(n):
        ri = as_cyc(r[i], k)
        if not ri:
            continue
        for j in range(n):
            if c[j]:
                S[i][j] = S[i][j] - factor * ri * c[j]
    return S


def apply_matrix(S, v):
    n = len(S)
    k = ring_of(S)
    return tuple(
        sum((S[i][j] * as_cyc(v[j], k) for j in range(n)), CycRat(0, 0, k))
        for i in range(n)
    )


def pullback_gram(M, S):
    """Gram of the transformed basis: entry (i,j) = psi(S e_i, S e_j)."""
    n = len(M)
    k = ring_of(M)
    zero = CycRat(0, 0, k)
    # rows of S* M: T[q][i] = sum_p conj-free accumulation, done in two passes
    T = [[zero] * n for _ in range(n)]
    for p in range(n):
        for i in range(n):
            if S[p][i]:
                for q in range(n):
                    if M[p][q]:
                        T[q][i] = T[q][i] + S[p][i] * M[p][q]
    P = [[zero] * n for _ in range(n)]
    for q in range(n):
        for j in range(n):
            sqj = S[q][j]
            if sqj:
                cqj = sqj.conjugate()
                for i in range(n):
                    if T[q][i]:
                        P[i][j] = P[i][j] + T[q][i] * cqj
    return P


def preserves_form(M, S) -> bool:
    P = pullback_gram(M, S)
    n = len(M)
    return all(P[i][j] == M[i][j] for i in range(n) for j in range(n))


def orbit_expand(M, seeds, generators, depth: int):
    """Closure of seeds under the generators up to word length depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    for S in generators:
        if not preserves_form(M, S):
            raise GeneratorNotUnitary("generator does not preserve the form")
    k = ring_of(M)
    frontier = {tuple(as_cyc(c, k) for c in v) for v in seeds}
    seen = set(frontier)
    for _ in range(depth):
        nxt = set()
        for v in frontier:
            for S in generators:
                w = apply_matrix(S, v)
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        if not nxt:
            break
        frontier = nxt
    return sorted(seen, key=vector_key)


def primitive_up_to_units(vectors):
    """Filter to primitive O_k vectors, one representative per unit orbit."""
    out = {}
    for v in vectors:
        if not all(c.is_integral() for c in v):
            continue
        g = vector_content(v)
        if not is_unit(g):
            continue
        canon = unit_canonical(v)
        out[canon] = canon
    return sorted(out, key=vector_key)
