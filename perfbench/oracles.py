"""Independent arithmetic for the correctness gate.

Nothing here calls arrangekit arithmetic.  Elements of Q(zeta_k) are plain
pairs (a, b) meaning a + b*zeta with int or Fraction parts; ranks are taken
modulo the prime P, where both x^2 + 1 and x^2 - x + 1 are irreducible
(P = 3 mod 4 and P = 2 mod 3), so F_P[zeta] is the field F_{P^2} for either
ring.  Inputs here have small entries, far below P, so rank mod P equals
rank over Q(zeta).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

P = 1000000000000000031


# -- Q(zeta_k) as pairs --------------------------------------------------


def _exact(q):
    """An int when the rational is integral: int arithmetic is much faster."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def pair(x):
    """(a, b) of a CycRat, Fraction or int, read through public attributes."""
    if hasattr(x, "k"):
        return (_exact(x.a), _exact(x.b))
    return (_exact(x), 0)


def pmul(x, y, k):
    a, b = x
    c, d = y
    if k == 4:
        return (a * c - b * d, a * d + b * c)
    return (a * c - b * d, a * d + b * c + b * d)


def pconj(x, k):
    a, b = x
    return (a, -b) if k == 4 else (a + b, -b)


def pinv(x, k):
    a, b = Fraction(x[0]), Fraction(x[1])
    n = a * a + b * b if k == 4 else a * a + a * b + b * b
    c = pconj((a, b), k)
    return (c[0] / n, c[1] / n)


def re_part(x, k):
    """Real part of a + b*zeta."""
    return x[0] if k == 4 else x[0] + Fraction(x[1]) / 2


def padd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pdot(u, v, k):
    """sum u_i * v_i (no conjugation)."""
    s = (0, 0)
    for x, y in zip(u, v):
        if (x[0] or x[1]) and (y[0] or y[1]):
            s = padd(s, pmul(x, y, k))
    return s


def herm(M, x, y, k):
    """psi(x, y) = sum_ij x_i M_ij conj(y_j) for pair matrices and vectors."""
    s = (0, 0)
    for i, xi in enumerate(x):
        if not (xi[0] or xi[1]):
            continue
        row = M[i]
        for j, yj in enumerate(y):
            if (yj[0] or yj[1]) and (row[j][0] or row[j][1]):
                s = padd(s, pmul(pmul(xi, row[j], k), pconj(yj, k), k))
    return s


def basis(n, i):
    return tuple((1, 0) if j == i else (0, 0) for j in range(n))


def embed(x, k):
    a, b = float(x[0]), float(x[1])
    if k == 4:
        return complex(a, b)
    return complex(a + b / 2, b * 3**0.5 / 2)


def dynkin_edges(name):
    """Edges of the A, D and E diagrams, written out independently."""
    fam, n = name[0], int(name[1:])
    path = [(i, i + 1) for i in range(n - 1)]
    if fam == "A":
        return n, path
    if fam == "D":
        return n, path[:-1] + [(n - 3, n - 1)]
    return n, path[:-1] + [(2, n - 1)]


def graph_gram(name, k):
    """The graph form as pairs: k/2 on the diagonal, -1-zeta per edge."""
    n, edges = dynkin_edges(name)
    G = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = (k // 2, 0)  # k is 4 or 6
    for i, j in edges:
        G[i][j] = (-1, -1)
        G[j][i] = pconj((-1, -1), k)
    return G


UNITS = {
    4: ((1, 0), (0, 1), (-1, 0), (0, -1)),
    6: ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}


def line_key(vec, k):
    """The same key for every unit multiple of an integral vector."""
    return min(tuple(pmul(u, c, k) for c in vec) for u in UNITS[k])


# -- rank over F_{P^2} -----------------------------------------------------


def _fmul(x, y, k):
    a, b = x
    c, d = y
    if k == 4:
        return ((a * c - b * d) % P, (a * d + b * c) % P)
    return ((a * c - b * d) % P, (a * d + b * c + b * d) % P)


def _finv(x, k):
    a, b = x
    if k == 4:
        n = a * a + b * b
        conj = (a, -b)
    else:
        n = a * a + a * b + b * b
        conj = (a + b, -b)
    ni = pow(n % P, P - 2, P)
    return (conj[0] * ni % P, conj[1] * ni % P)


def _row_mod_p(row):
    """Scale a row of pairs to integers, then reduce mod P."""
    den = 1
    for a, b in row:
        den = lcm(den, Fraction(a).denominator, Fraction(b).denominator)
    return [(int(a * den) % P, int(b * den) % P) for a, b in row]


class Echelon:
    """Incremental row echelon form over F_{P^2}: add rows, read the rank."""

    def __init__(self, k):
        self.k = k
        self.rows = []  # (pivot column, row with pivot entry 1)

    def copy(self):
        e = Echelon(self.k)
        e.rows = list(self.rows)
        return e

    def add(self, row) -> bool:
        """Insert a row of pairs; True when it raised the rank."""
        k = self.k
        v = _row_mod_p(row)
        for c, r in self.rows:
            f = v[c]
            if f != (0, 0):
                v = [
                    ((x[0] - y[0]) % P, (x[1] - y[1]) % P)
                    for x, y in zip(v, (_fmul(f, e, k) for e in r))
                ]
        piv = next((i for i, x in enumerate(v) if x != (0, 0)), None)
        if piv is None:
            return False
        inv = _finv(v[piv], k)
        self.rows.append((piv, [_fmul(x, inv, k) for x in v]))
        return True

    @property
    def rank(self):
        return len(self.rows)


def rank(rows, k=4) -> int:
    e = Echelon(k)
    for r in rows:
        e.add(r)
    return e.rank


# -- characteristic polynomials --------------------------------------------


def poly_from_roots(roots, extra_t=0):
    """Coefficients, highest degree first, of t^extra_t * prod (t - r)."""
    coeffs = [1]
    for r in roots:
        nxt = coeffs + [0]
        for i, c in enumerate(coeffs):
            nxt[i + 1] -= r * c
        coeffs = nxt
    return coeffs + [0] * extra_t


def chi_from_mobius(elements, leq, dims, n):
    """chi(t) = sum_x mu(X, x) t^dim(x) over the lattice of flats plus X.

    elements: indices of the positive-codimension flats; leq(i, j) means
    flat i is contained in flat j.  Integer arithmetic only.
    """
    order = sorted(elements, key=lambda i: -dims[i])
    mu = {}
    for x in order:
        s = 1  # mu(X, X)
        for y in order:
            if dims[y] <= dims[x]:
                break
            if leq(x, y):
                s += mu[y]
        mu[x] = -s
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for x in order:
        coeffs[n - dims[x]] += mu[x]
    return coeffs


def chi_whitney(covectors, n, k):
    """chi(t) = sum over central subsets S of (-1)^|S| t^(n - rank S).

    Every subset of a central arrangement is central, so this walks all
    subsets depth-first, extending one echelon form per branch.
    """
    coeffs = [0] * (n + 1)
    m = len(covectors)

    def walk(start, ech, size):
        coeffs[ech.rank] += (-1) ** size
        for i in range(start, m):
            nxt = ech.copy()
            nxt.add(covectors[i])
            walk(i + 1, nxt, size + 1)

    walk(0, Echelon(k), 0)
    return coeffs


def stirling2(n, j):
    return sum((-1) ** (j - i) * comb(j, i) * i**n for i in range(j + 1)) // factorial(j)


def bell(n):
    return sum(stirling2(n, j) for j in range(n + 1))


def count_chains(m, leq, max_len):
    """Strict chains i_1 < ... < i_r (r <= max_len) in a poset on range(m)."""
    above = [[j for j in range(m) if j != i and leq(i, j)] for i in range(m)]
    ways = [1] * m  # chains of the current length starting at i
    total = m
    for _ in range(max_len - 1):
        ways = [sum(ways[j] for j in above[i]) for i in range(m)]
        total += sum(ways)
    return total
