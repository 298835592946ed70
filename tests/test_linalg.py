"""Exact elimination over Fraction and CycRat entries."""

from fractions import Fraction

from arrangekit.cyclo import CycRat, zeta
from arrangekit.linalg import identity, kernel_basis, matmul, rank, rref

F = Fraction


def test_rref_is_canonical():
    rows = [[F(2), F(4), F(6)], [F(1), F(2), F(4)]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 2]
    assert reduced == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    # any row scaling of the input gives the same canonical form
    scaled = [[F(3) * x for x in row] for row in rows]
    assert rref(scaled) == (reduced, pivots)


def test_rref_empty_and_zero():
    assert rref([]) == ([], [])
    assert rref([[F(0), F(0)]]) == ([], [])


def test_rank():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank(identity(3, F(1))) == 3


def test_kernel_basis_annihilates():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    basis = kernel_basis(rows, 3, F(1))
    assert len(basis) == 1
    v = basis[0]
    assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in rows)
    assert v[2] == 1  # free variable pinned to one


def test_cyclotomic_elimination():
    one = CycRat(1, 0, 4)
    i = zeta(4)
    A = [[one, i], [i, -one]]  # rank 1: second row = i * first
    assert rank(A) == 1
    basis = kernel_basis(A, 2, one)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + i * v[1] == 0


def test_matmul_fraction_identity():
    A = [[F(1, 2), F(3)], [F(0), F(2)]]
    assert matmul(A, identity(2, F(1))) == A
