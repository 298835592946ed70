"""Exact dense linear algebra over Fraction or CycRat entries.

Everything here works on plain lists of lists.  Scalars only need the
field operations and truthiness for zero tests.  Matrices stay small
throughout the package, so no pivot strategy beyond first-nonzero is
needed.
"""

from __future__ import annotations


def mat_copy(rows):
    return [list(r) for r in rows]


def identity(n, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(A, B):
    n, m = len(A), len(B[0])
    inner = len(B)
    return [
        [sum((A[i][l] * B[l][j] for l in range(inner)), A[i][0] * 0) for j in range(m)]
        for i in range(n)
    ]


def rref(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = mat_copy(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows, ncols: int, one):
    """Basis of the right kernel {x : rows . x = 0}, free vars set to one."""
    zero = one - one
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, c in zip(reduced, pivots):
            v[c] = -r[f]
        basis.append(v)
    return basis

