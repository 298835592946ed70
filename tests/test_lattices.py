"""Graph Hermitian lattices: Gram construction, exact signatures, box
enumeration, reflections and orbit closure."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from arrangekit.cyclo import CycRat, cyc, embed, units, vector_key, zeta
from arrangekit.errors import (
    DimensionMismatch,
    GeneratorNotUnitary,
    InvalidGraph,
    NotARoot,
)
from arrangekit.lattices import (
    GraphSpec,
    apply_matrix,
    enumerate_by_norm,
    gram_matrix,
    herm_product,
    is_root,
    orbit_expand,
    preserves_form,
    primitive_up_to_units,
    pullback_gram,
    reflection,
    signature,
)
from arrangekit.presets import DYNKIN_NAMES, dynkin_graph


def c4(a, b=0):
    return CycRat(a, b, 4)


def c6(a, b=0):
    return CycRat(a, b, 6)


# -- graphs -----------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(InvalidGraph):
        GraphSpec(2, [(0, 0)])
    with pytest.raises(InvalidGraph):
        GraphSpec(2, [(0, 2)])
    with pytest.raises(InvalidGraph):
        GraphSpec(3, [(0, 1), (1, 0)])  # same unordered pair twice


def test_dynkin_presets_are_trees():
    for name in DYNKIN_NAMES:
        g = dynkin_graph(name)
        assert len(g.edges) == g.vertex_count - 1


# -- gram matrices ----------------------------------------------------------


def test_gram_single_vertex():
    M = gram_matrix(GraphSpec(1, []), 4)
    assert M == [[c4(2)]]


def test_gram_two_vertex_path_eisenstein():
    M = gram_matrix(GraphSpec(2, [(0, 1)]), 6)
    assert M[0][0] == c6(3) and M[1][1] == c6(3)
    assert M[0][1] == c6(-1, -1)
    assert M[1][0] == M[0][1].conjugate() == c6(-2, 1)


def test_gram_isolated_vertices():
    M = gram_matrix(GraphSpec(2, []), 4)
    assert M == [[c4(2), c4(0)], [c4(0), c4(2)]]


def test_gram_is_hermitian():
    for name, k in (("E7", 4), ("D5", 6), ("A6", 4)):
        M = gram_matrix(dynkin_graph(name), k)
        n = len(M)
        for i in range(n):
            assert M[i][i].b == 0
            for j in range(n):
                assert M[i][j] == M[j][i].conjugate()


# -- signatures -------------------------------------------------------------


def test_signature_e7_gaussian(e7_gram):
    assert signature(e7_gram).as_tuple() == (6, 1, 0)


def test_signature_a10_eisenstein():
    M = gram_matrix(dynkin_graph("A10"), 6)
    assert signature(M).as_tuple() == (9, 1, 0)


def test_signature_zero_matrix():
    M = [[c4(0)] * 3 for _ in range(3)]
    assert signature(M).as_tuple() == (0, 0, 3)


def test_signature_parts_sum_to_dimension():
    for name, k in (("A4", 6), ("D6", 4), ("E6", 6)):
        sig = signature(gram_matrix(dynkin_graph(name), k))
        assert sig.positive + sig.negative + sig.null == dynkin_graph(name).vertex_count


def test_signature_orientation_invariance_a3():
    sigs = set()
    for a, b in itertools.product((0, 1), repeat=2):
        edges = [(0, 1) if a else (1, 0), (1, 2) if b else (2, 1)]
        sigs.add(signature(gram_matrix(GraphSpec(3, edges), 4)).as_tuple())
    assert len(sigs) == 1


def _float_inertia(M):
    # independent cross-check through the complexified eigenvalues
    H = np.array([[embed(x) for x in row] for row in M], dtype=complex)
    eig = np.linalg.eigvalsh(H)
    tol = 1e-9 * max(1.0, np.abs(eig).max())
    return (
        int((eig > tol).sum()),
        int((eig < -tol).sum()),
        int((np.abs(eig) <= tol).sum()),
    )


def test_signature_matches_float_inertia():
    for name, k in (("E7", 4), ("A10", 6), ("D7", 6), ("A2", 6), ("E6", 4)):
        M = gram_matrix(dynkin_graph(name), k)
        assert signature(M).as_tuple() == _float_inertia(M)


def test_signature_invariant_under_congruence():
    M = gram_matrix(dynkin_graph("A4"), 6)
    rng = random.Random(5150)
    for _ in range(5):
        # random unitriangular S is invertible; congruence keeps inertia
        S = [[c6(1 if i == j else 0) for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                S[i][j] = c6(rng.randint(-2, 2), rng.randint(-2, 2))
        assert signature(pullback_gram(M, S)).as_tuple() == signature(M).as_tuple()


# -- the form on vectors ----------------------------------------------------


def test_generator_norms():
    M = gram_matrix(dynkin_graph("A3"), 4)
    r0 = (c4(1), c4(0), c4(0))
    assert herm_product(M, r0, r0) == 2
    M6 = gram_matrix(dynkin_graph("A3"), 6)
    r06 = (c6(1), c6(0), c6(0))
    assert herm_product(M6, r06, r06) == 3
    assert is_root(M6, r06)


def test_isolated_generators_are_orthogonal():
    M = gram_matrix(GraphSpec(2, []), 4)
    assert herm_product(M, (c4(1), c4(0)), (c4(0), c4(1))) == 0


def test_norm_two_edge_combination(e7_gram):
    one_plus_i = c4(1, 1)
    graph = dynkin_graph("E7")
    for i, j in graph.edges:
        v = [c4(0)] * 7
        v[i] = c4(1)
        v[j] = one_plus_i
        v = tuple(v)
        assert herm_product(e7_gram, v, v) == 2
        assert is_root(e7_gram, v)


def test_zero_vector_is_not_a_root():
    M = gram_matrix(dynkin_graph("A2"), 6)
    assert not is_root(M, (c6(0), c6(0)))


def test_dimension_mismatch():
    M = gram_matrix(dynkin_graph("A2"), 6)
    with pytest.raises(DimensionMismatch):
        herm_product(M, (c6(1),), (c6(1), c6(0)))


def test_form_value_conjugates_on_swap():
    M = gram_matrix(dynkin_graph("A3"), 6)
    x = (c6(1, 1), c6(0, -2), c6(3))
    y = (c6(0, 1), c6(2, 1), c6(-1))
    assert herm_product(M, x, y) == herm_product(M, y, x).conjugate()


# -- box enumeration --------------------------------------------------------


def _brute_box(M, k, target, bound):
    """Independent oracle: scan every coefficient tuple with itertools."""
    n = len(M)
    rng = range(-bound, bound + 1)
    out = []
    for parts in itertools.product(rng, repeat=2 * n):
        v = tuple(CycRat(parts[2 * i], parts[2 * i + 1], k) for i in range(n))
        if not any(v):
            continue
        if herm_product(M, v, v) == target:
            out.append(v)
    return sorted(out, key=vector_key)


def test_enumerate_rank_one_units():
    M = [[c4(2)]]
    got = enumerate_by_norm(M, 2, 1)
    want = sorted(
        [(u * c4(1),) for u in units(4)], key=vector_key
    )
    assert got == want
    assert len(got) == 4


def test_enumerate_definite_has_no_isotropic():
    M = gram_matrix(dynkin_graph("A2"), 6)
    assert enumerate_by_norm(M, 0, 2) == []


def test_enumerate_indefinite_has_cusps(e7_gram):
    assert enumerate_by_norm(e7_gram, 0, 1)


def test_enumerate_matches_brute_force():
    M = gram_matrix(dynkin_graph("A2"), 6)
    assert enumerate_by_norm(M, 3, 1) == _brute_box(M, 6, 3, 1)
    M4 = gram_matrix(dynkin_graph("A3"), 4)
    assert enumerate_by_norm(M4, 2, 1) == _brute_box(M4, 4, 2, 1)
    # fractional target can still be hit after scaling, or be empty
    assert enumerate_by_norm(M4, Fraction(1, 2), 1) == []
    # a 3^8 = 6561-point box, for a root norm and for the isotropic cone
    D4 = gram_matrix(dynkin_graph("D4"), 4)
    for norm in (2, 0):
        hits = enumerate_by_norm(D4, norm, 1)
        assert hits and hits == _brute_box(D4, 4, norm, 1)


def test_enumerate_hits_on_the_edge_of_the_box_range():
    # 2(a^2 + b^2) = 16 only at a, b = +-2: the largest value the box
    # reaches, which the pruning must keep
    M = [[c4(2)]]
    hits = enumerate_by_norm(M, 16, 2)
    assert len(hits) == 4
    assert hits == _brute_box(M, 4, 16, 2)


def test_enumerate_output_is_sorted_and_on_target(e7_roots, e7_gram):
    assert e7_roots == sorted(e7_roots, key=vector_key)
    rng = random.Random(7)
    for v in rng.sample(e7_roots, 25):
        assert herm_product(e7_gram, v, v) == 2


def test_enumerate_order_is_the_fraction_part_order():
    # the scan sorts on int keys; the order must be the one given by the
    # Fraction parts of each coordinate
    M = gram_matrix(dynkin_graph("E6"), 6)
    hits = enumerate_by_norm(M, 0, 1)
    assert len(hits) == 32
    assert hits == sorted(hits, key=lambda v: tuple((Fraction(c.a), Fraction(c.b)) for c in v))


def test_e7_box_counts(e7_roots, e7_gram):
    assert len(e7_roots) == 19352
    assert len(enumerate_by_norm(e7_gram, 0, 1)) == 5264


def test_e8_eisenstein_cusp_scan():
    # 3^16 ~ 43M box points; the cusps are what ball.cusp_scan returns
    M = gram_matrix(dynkin_graph("E8"), 6)
    isotropic = enumerate_by_norm(M, 0, 1)
    assert len(isotropic) == 208
    assert all(herm_product(M, v, v) == 0 for v in isotropic)
    assert len(primitive_up_to_units(isotropic)) == 104


def test_e7_box_counts_against_real_form_oracle(e7_gram):
    """Recount the box through the real quadratic form on Z^14.

    Writes each vector over the Z-basis (e_i, zeta*e_i) and evaluates
    x^T Q x with Q the matrix of Re psi on that basis; no shared code
    with the box enumerator beyond the form itself.
    """
    n = 7
    basis = []
    for i in range(n):
        for part in (c4(1), c4(0, 1)):
            v = [c4(0)] * n
            v[i] = part
            basis.append(tuple(v))
    Q = np.array(
        [
            [
                float(herm_product(e7_gram, basis[s], basis[t]).real_part())
                for t in range(2 * n)
            ]
            for s in range(2 * n)
        ]
    )
    digits = np.array(
        np.meshgrid(*([[-1, 0, 1]] * (2 * n)), indexing="ij")
    ).reshape(2 * n, -1).T.astype(np.int64)
    Qi = (2 * Q).astype(np.int64)  # doubled form is integral
    vals = np.einsum("ij,jk,ik->i", digits, Qi, digits)
    nonzero = np.any(digits != 0, axis=1)
    assert int(((vals == 4) & nonzero).sum()) == 19352
    assert int(((vals == 0) & nonzero).sum()) == 5264


# -- reflections ------------------------------------------------------------


def test_reflection_identity_when_mu_is_one():
    M = gram_matrix(dynkin_graph("A2"), 6)
    S = reflection(M, (c6(1), c6(0)), c6(1))
    assert S == [[c6(1), c6(0)], [c6(0), c6(1)]]


def test_reflection_eigenvector():
    M = gram_matrix(dynkin_graph("A2"), 6)
    r = (c6(0), c6(1))
    for mu in units(6):
        S = reflection(M, r, mu)
        assert apply_matrix(S, r) == tuple(mu * x for x in r)


def test_reflection_rejects_non_roots_and_non_units():
    M = gram_matrix(dynkin_graph("A2"), 6)
    with pytest.raises(NotARoot):
        reflection(M, (c6(2), c6(0)), c6(-1))
    with pytest.raises(ValueError):
        reflection(M, (c6(1), c6(0)), c6(2))


def test_reflections_preserve_form_on_random_roots(e7_gram, e7_roots):
    rng = random.Random(321)
    mus = units(4)
    for idx in rng.sample(range(len(e7_roots)), 50):
        r = e7_roots[idx]
        S = reflection(e7_gram, r, mus[(idx % 3) + 1])
        assert preserves_form(e7_gram, S)


def test_pullback_is_identity_for_identity():
    M = gram_matrix(dynkin_graph("A3"), 6)
    I = [[c6(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert pullback_gram(M, I) == M


# -- orbits -----------------------------------------------------------------


def test_orbit_depth_zero_is_seeds():
    M = gram_matrix(dynkin_graph("A2"), 6)
    seed = (c6(1), c6(0))
    assert orbit_expand(M, [seed], [], 0) == [seed]


def test_orbit_rejects_non_unitary_generator():
    M = gram_matrix(dynkin_graph("A2"), 6)
    bad = [[c6(2), c6(0)], [c6(0), c6(1)]]
    with pytest.raises(GeneratorNotUnitary):
        orbit_expand(M, [(c6(1), c6(0))], [bad], 1)


def _a2_order3_generators(M):
    # Nm(1 - mu) = 3 for mu = zeta6^2, so these keep O_6 coordinates
    mu = c6(-1, 1)
    return [
        reflection(M, (c6(1), c6(0)), mu),
        reflection(M, (c6(0), c6(1)), mu),
    ]


def test_orbit_saturates_the_norm_3_shell():
    M = gram_matrix(dynkin_graph("A2"), 6)
    gens = _a2_order3_generators(M)
    seed = (c6(1), c6(0))
    counts = [len(orbit_expand(M, [seed], gens, d)) for d in range(7)]
    assert counts == [1, 3, 7, 12, 18, 22, 24]
    orbit = orbit_expand(M, [seed], gens, 10)
    # a generous box holds every norm-3 vector of this definite lattice
    shell = enumerate_by_norm(M, 3, 3)
    assert enumerate_by_norm(M, 3, 2) == shell
    assert orbit == shell
    assert all(all(x.is_integral() for x in v) for v in orbit)
    assert all(is_root(M, v) for v in orbit)


def test_orbit_is_closed_at_saturation():
    M = gram_matrix(dynkin_graph("A2"), 6)
    gens = _a2_order3_generators(M)
    orbit = orbit_expand(M, [(c6(1), c6(0))], gens, 10)
    members = set(orbit)
    for v in orbit:
        for S in gens:
            assert apply_matrix(S, v) in members


def test_primitive_up_to_units():
    M = gram_matrix(dynkin_graph("A2"), 6)
    shell = enumerate_by_norm(M, 3, 2)
    classes = primitive_up_to_units(shell)
    assert len(classes) == 4
    assert len(shell) == 4 * len(units(6))
    # scaling by a non-unit is filtered out
    doubled = [tuple(c6(2) * x for x in v) for v in shell]
    assert primitive_up_to_units(doubled) == []
