"""Ball membership, Siegel frames, the cusp stabilizer, and arithmetic
systems, mostly on a (1,3) model over Q(zeta_4) small enough to check by
hand."""

import random

import pytest

from arrangekit.arrangements import Arrangement, Subspace
from arrangekit.ball import (
    HermSpace,
    apply_complex,
    arithmetic_system,
    cusp_obstruction_check,
    cusp_scan,
    heisenberg_transvection,
    hyperplane_is_hyperbolic,
    in_ball,
    perp_covector,
    scaling_action,
    siegel_coords,
    siegel_frame,
    siegel_point,
)
from arrangekit.cyclo import CycRat, is_unit, unit_canonical, vector_content
from arrangekit.errors import (
    AtInfinity,
    InvalidArrangement,
    NotIsotropic,
    NotOrthogonal,
    NotPrimitive,
    WrongSignature,
    ZeroVector,
)
from arrangekit.lattices import (
    gram_matrix,
    herm_product,
    primitive_up_to_units,
    pullback_gram,
    signature,
)
from arrangekit.linalg import matmul
from arrangekit.presets import dynkin_graph


def c(a, b=0):
    return CycRat(a, b, 4)


E = (c(1), c(1), c(0), c(0))
H1 = (c(0), c(0), c(1), c(0))
H2 = (c(0), c(0), c(0), c(1))
H3 = (c(1), c(-1), c(1), c(0))
H4 = (c(1), c(-1), c(0), c(0))  # the perp covector of E itself


def central(covectors):
    return Arrangement("Qi", 4, [(cov, c(0)) for cov in covectors])


# -- construction -------------------------------------------------------------


def test_space_normalizes_sign(e7_space, e7_gram):
    assert e7_space.negated
    assert signature(e7_space.gram).as_tuple() == (1, 6, 0)
    assert e7_space.gram[0][0] == -e7_gram[0][0]
    assert e7_space.n == 6


def test_space_rejects_other_signatures():
    ident = [[c(1), c(0)], [c(0), c(1)]]
    with pytest.raises(WrongSignature):
        HermSpace(ident)
    with pytest.raises(WrongSignature):
        HermSpace.from_gram(ident)
    degenerate = [[c(1), c(0)], [c(0), c(0)]]
    with pytest.raises(WrongSignature):
        HermSpace.from_gram(degenerate)


def test_from_gram_computes_the_signature_once(monkeypatch, e7_gram):
    import arrangekit.ball as ball_module

    calls = []

    def counted(M):
        calls.append(M)
        return signature(M)

    monkeypatch.setattr(ball_module, "signature", counted)
    for gram in (e7_gram, [[-x for x in row] for row in e7_gram]):
        calls.clear()
        space = HermSpace.from_gram(gram)
        assert len(calls) == 1
        assert space.negated == (gram is e7_gram)
        assert signature(space.gram).as_tuple() == (1, 6, 0)


# -- membership ---------------------------------------------------------------


def test_in_ball_frame_examples(model13):
    frame = siegel_frame(model13, E)
    z = tuple(a + b for a, b in zip(frame.e, frame.f))
    m = in_ball(model13, z)
    assert (m.sign, m.value) == (1, 2.0)

    on_boundary = in_ball(model13, E)
    assert on_boundary.sign == 0 and on_boundary.value == 0.0

    outside = in_ball(model13, frame.a_basis[0])
    assert outside.sign == -1

    with pytest.raises(ZeroVector):
        in_ball(model13, (c(0),) * 4)


def test_in_ball_numeric_tolerance(model13):
    inside = in_ball(model13, (0.5 + 0j, 0.1, 0.2, 0.3))
    assert inside.sign == 1
    assert abs(inside.value - 0.11) < 1e-12
    # float residue far below the scale-aware tolerance reads as boundary
    tied = in_ball(model13, (1.0 + 0j, 1.0, 1e-15, 0.0))
    assert tied.sign == 0


# -- frames and coordinates ---------------------------------------------------


def test_siegel_frame_invariants(model13):
    frame = siegel_frame(model13, E)
    one, zero = c(1), c(0)
    assert model13.psi(frame.e, frame.e) == zero
    assert model13.psi(frame.e, frame.f) == one
    assert model13.psi(frame.f, frame.e) == one
    assert model13.psi(frame.f, frame.f) == zero
    assert len(frame.a_basis) == model13.n - 1
    for a in frame.a_basis:
        assert model13.psi(a, frame.e) == zero
        assert model13.psi(a, frame.f) == zero
    restricted = [
        [model13.psi(u, w) for w in frame.a_basis] for u in frame.a_basis
    ]
    assert signature(restricted).as_tuple() == (0, model13.n - 1, 0)


def test_siegel_frame_custom_pairing_vector(model13):
    frame = siegel_frame(model13, E, y=(c(0), c(-1), c(0), c(0)))
    assert model13.psi(frame.f, frame.e) == c(1)
    assert model13.psi(frame.f, frame.f) == c(0)
    with pytest.raises(ValueError):
        siegel_frame(model13, E, y=(c(0), c(0), c(1), c(0)))


def test_siegel_frame_errors(model13):
    with pytest.raises(NotIsotropic):
        siegel_frame(model13, (c(1), c(0), c(0), c(0)))
    with pytest.raises(ZeroVector):
        siegel_frame(model13, (c(0),) * 4)


def test_siegel_coords_examples(model13):
    frame = siegel_frame(model13, E)
    at_f = siegel_coords(frame, frame.f)
    assert (at_f.s, at_f.lhs, at_f.rhs, at_f.inside) == (c(0), 0, 0, False)
    assert all(x == c(0) for x in at_f.a)

    z = tuple(a + b for a, b in zip(frame.e, frame.f))
    interior = siegel_coords(frame, z)
    assert interior.s == c(1)
    assert (interior.lhs, interior.rhs, interior.inside) == (2, 0, True)

    with pytest.raises(AtInfinity):
        siegel_coords(frame, E)
    with pytest.raises(ZeroVector):
        siegel_coords(frame, (c(0),) * 4)


def test_siegel_round_trip_exact(model13):
    frame = siegel_frame(model13, E)
    a = tuple(
        c(1, 3) * u + c(0, -1) * w
        for u, w in zip(frame.a_basis[0], frame.a_basis[1])
    )
    for s, inside in ((c(2, 1), False), (c(13), True)):
        z = siegel_point(frame, s, a)
        back = siegel_coords(frame, z)
        assert back.s == s and back.a == a
        assert back.inside is inside


def test_membership_agrees_with_siegel_inequality(model13):
    frame = siegel_frame(model13, E)
    rng = random.Random(909)
    checked = 0
    for _ in range(1000):
        z = tuple(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)
        )
        m = in_ball(model13, z)
        try:
            coords = siegel_coords(frame, z)
        except AtInfinity:
            continue
        if m.sign == 0 or abs(coords.lhs - coords.rhs) < 1e-9:
            continue  # tie, tolerance ambiguity allowed
        assert (m.sign > 0) == coords.inside
        checked += 1
    assert checked > 900


# -- cusp stabilizer ----------------------------------------------------------


def _random_orthogonal(rng):
    """Random O_4-vector in the orthogonal complement of E."""
    r = c(rng.randint(-3, 3), rng.randint(-3, 3))
    return (r, r, c(rng.randint(-3, 3), rng.randint(-3, 3)),
            c(rng.randint(-3, 3), rng.randint(-3, 3)))


def test_transvection_trivial_and_fixed(model13):
    zero_v = (c(0),) * 4
    T = heisenberg_transvection(model13, E, zero_v)
    ident = [[c(1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert T == ident

    rng = random.Random(4747)
    for _ in range(10):
        v = _random_orthogonal(rng)
        T = heisenberg_transvection(model13, E, v)
        assert apply_complex(T, E) == E


def test_transvection_preserves_form(model13):
    rng = random.Random(1123)
    for _ in range(10):
        T = heisenberg_transvection(model13, E, _random_orthogonal(rng))
        assert pullback_gram(model13.gram, T) == [
            list(row) for row in model13.gram
        ]


def test_transvection_composition_law(model13):
    rng = random.Random(58)
    for _ in range(10):
        u = _random_orthogonal(rng)
        v = _random_orthogonal(rng)
        Tu = heisenberg_transvection(model13, E, u)
        Tv = heisenberg_transvection(model13, E, v)
        twist = model13.psi(u, v) / 2
        w = tuple(ui + vi + twist * ei for ui, vi, ei in zip(u, v, E))
        Tw = heisenberg_transvection(model13, E, w)
        assert matmul(Tu, Tv) == Tw


def test_transvection_errors(model13):
    with pytest.raises(NotIsotropic):
        heisenberg_transvection(model13, (c(1), c(0), c(0), c(0)), (c(0),) * 4)
    with pytest.raises(NotOrthogonal):
        heisenberg_transvection(model13, E, (c(0), c(1), c(0), c(0)))


def test_scaling_identity_and_composition(model13):
    assert scaling_action(model13, E, 0) == [
        [c(1 if i == j else 0) for j in range(4)] for i in range(4)
    ]
    s, t = c(2, -1), c(-1, 3)
    assert matmul(
        scaling_action(model13, E, s), scaling_action(model13, E, t)
    ) == scaling_action(model13, E, s + t)

    z = (c(3, 1), c(1), c(2, -2), c(0, 1))
    Tz = apply_complex(scaling_action(model13, E, s), z)
    lhs = model13.psi(Tz, Tz).real_part()
    rhs = model13.psi(z, z).real_part() + s.trace() * model13.psi(z, E).norm()
    assert lhs == rhs

    with pytest.raises(NotIsotropic):
        scaling_action(model13, (c(1), c(0), c(0), c(0)), 1)


def test_scaling_numeric_norm_identity(model13):
    rng = random.Random(7216)
    for _ in range(25):
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)
        )
        T = scaling_action(model13, E, s)
        Tz = apply_complex(T, z)
        lhs = model13.psi_numeric(Tz, Tz).real
        pairing = model13.psi_numeric(z, [1, 1, 0, 0])
        rhs = model13.psi_numeric(z, z).real + 2 * s.real * abs(pairing) ** 2
        assert abs(lhs - rhs) <= 1e-10


# -- cusps --------------------------------------------------------------------


def test_cusp_scan_definite_is_empty():
    a2 = gram_matrix(dynkin_graph("A2"), 6)
    assert cusp_scan(a2, 2) == []


def test_cusp_scan_e7(e7_gram, e7_cusps):
    assert len(e7_cusps) == 1316
    for v in e7_cusps:
        assert herm_product(e7_gram, v, v) == CycRat(0, 0, 4)
        assert all(x.is_integral() for x in v)
        assert is_unit(vector_content(v))
        assert tuple(unit_canonical(v)) == tuple(v)
    assert len({tuple(v) for v in e7_cusps}) == 1316


def test_cusp_scan_deterministic(model13):
    first = cusp_scan(model13.gram, 2)
    assert first and first == cusp_scan(model13.gram, 2)
    for v in first:
        assert model13.psi(v, v) == CycRat(0, 0, 4)


# -- hyperbolic sections and arithmetic systems -------------------------------


def test_hyperplane_hyperbolicity(model13):
    assert hyperplane_is_hyperbolic(model13, H1)
    assert hyperplane_is_hyperbolic(model13, H3)
    assert not hyperplane_is_hyperbolic(model13, H4)
    assert not hyperplane_is_hyperbolic(model13, (c(0),) * 4)
    # memoized second call answers the same
    assert hyperplane_is_hyperbolic(model13, H1)


def _perp_subspace(space, v):
    row = tuple(perp_covector(space.gram, v)) + (CycRat(0, 0, space.ring),)
    return Subspace.from_rows([row], space.size)


def test_arithmetic_system_extremes(model13):
    perp = _perp_subspace(model13, E)
    assert perp.dim == 3

    J_empty = arithmetic_system(model13, central([]), E)
    assert J_empty == perp

    J_two = arithmetic_system(model13, central([H1, H2]), E)
    assert J_two.dim == 1
    assert J_two.contains_point(E)

    J_three = arithmetic_system(model13, central([H1, H2, H3]), E)
    assert J_three == J_two


def test_arithmetic_system_monotone(model13):
    perp = _perp_subspace(model13, E)
    J0 = arithmetic_system(model13, central([]), E)
    J1 = arithmetic_system(model13, central([H1]), E)
    J2 = arithmetic_system(model13, central([H1, H2]), E)
    assert J1.dim == 2
    for J in (J0, J1, J2):
        assert J.contains_point(E)
        assert perp.contains(J)
    assert J0.contains(J1) and J1.contains(J2)


def test_arithmetic_system_rejects_bad_arrangements(model13):
    affine = Arrangement("Qi", 4, [(H1, c(1))])
    with pytest.raises(InvalidArrangement):
        arithmetic_system(model13, affine, E)
    with pytest.raises(InvalidArrangement):
        arithmetic_system(model13, central([H4]), E)
    small = Arrangement("Qi", 3, [((c(1), c(0), c(0)), c(0))])
    with pytest.raises(ValueError):
        arithmetic_system(model13, small, E)


def test_cusp_generator_validation(model13):
    arr = central([H1])
    with pytest.raises(ZeroVector):
        arithmetic_system(model13, arr, (c(0),) * 4)
    with pytest.raises(NotPrimitive):
        arithmetic_system(model13, arr, tuple(c(2) * x for x in E))
    with pytest.raises(NotPrimitive):
        arithmetic_system(model13, arr, tuple(x / 3 for x in E))
    with pytest.raises(NotIsotropic):
        arithmetic_system(model13, arr, (c(1), c(0), c(0), c(0)))


def test_obstruction_trichotomy(model13):
    assert cusp_obstruction_check(model13, central([]), E) == (
        cusp_obstruction_check(model13, central([]), E)
    )
    report = cusp_obstruction_check(model13, central([]), E)
    assert (report.kind, report.dim) == ("empty", None)

    # a hyperplane missing the cusp contributes nothing
    off_cusp = central([(c(1), c(0), c(0), c(0))])
    assert cusp_obstruction_check(model13, off_cusp, E).kind == "empty"

    report = cusp_obstruction_check(model13, central([H1]), E)
    assert (report.kind, report.dim) == ("fails", 3)

    report = cusp_obstruction_check(model13, central([H1, H2, H4]), E)
    assert (report.kind, report.dim) == ("exactly_line", 1)


def test_cusp_invariant_on_e7_sample(e7_space, e7_roots, e7_cusps):
    zero = CycRat(0, 0, 4)
    covs = [
        tuple(perp_covector(e7_space.gram, r))
        for r in primitive_up_to_units(e7_roots[:16])[:4]
    ]
    arr = Arrangement("Qi", 7, [(cov, zero) for cov in covs])
    for v in e7_cusps[:40]:
        J = arithmetic_system(e7_space, arr, v)
        assert J.contains_point(v)
        assert _perp_subspace(e7_space, v).contains(J)
