"""Intersection posets, flags, strata, blowup centers, and the
coordinate-inverse map."""

import itertools
import random
from fractions import Fraction

import pytest

from arrangekit.arrangements import (
    Arrangement,
    Flag,
    Subspace,
    build_poset,
    enumerate_flags,
    hat_map,
    hat_strata,
    incidence_check,
    is_independent_locus,
    minimal_blowup_centers,
    normal_dims,
    stratum_of_flag,
    weyl_arrangement,
)
from arrangekit.cyclo import CycRat
from arrangekit.errors import (
    CommonPoint,
    InvalidArrangement,
    InvalidFlag,
    NotNested,
    OnArrangement,
    UnsupportedType,
    ZeroVector,
)
from arrangekit.presets import (
    boolean_hyperplanes,
    braid_hyperplanes,
    concurrent_lines,
)

F = Fraction


def boolean3():
    return Arrangement("Q", 3, boolean_hyperplanes(3))


def lines3():
    return Arrangement("Q", 2, concurrent_lines(3))


def braid3():
    return Arrangement("Q", 3, braid_hyperplanes(3))


def parallel_lines():
    """Non-central: x = 0 and x = 1 are parallel, y = 0 and x = y cross them."""
    hyperplanes = [
        ([F(1), F(0)], F(0)),
        ([F(1), F(0)], F(1)),
        ([F(0), F(1)], F(0)),
        ([F(1), F(-1)], F(0)),
    ]
    return Arrangement("Q", 2, hyperplanes)


def _strictly_below(L, Lp):
    """Independent order: strict set inclusion through an echelon rank test."""
    return L.dim < Lp.dim and Lp.contains(L)


# -- independent oracle: subset-by-subset elimination over Fraction ----------


def _oracle_rref(rows):
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        hit = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in m[:r]], pivots


def _oracle_poset(arr):
    """All distinct nonempty positive-codim intersections, brute force."""
    n = arr.ambient_dim
    rows = [list(cov) + [off] for cov, off in arr.hyperplanes]
    found = {}
    for size in range(1, len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            reduced, pivots = _oracle_rref([rows[i] for i in subset])
            if n in pivots:  # inconsistent affine system
                continue
            found.setdefault(tuple(reduced), set()).update(subset)
    return found


def test_poset_boolean3_brute_force():
    arr = boolean3()
    poset = build_poset(arr)
    oracle = _oracle_poset(arr)
    assert len(poset) == len(oracle) == 7
    dims = sorted(L.dim for L in poset.elements)
    assert dims == [0, 1, 1, 1, 2, 2, 2]


def test_poset_matches_oracle_on_small_arrangements():
    for arr in (boolean3(), lines3(), braid3(),
                Arrangement("Q", 4, braid_hyperplanes(4))):
        poset = build_poset(arr)
        oracle = _oracle_poset(arr)
        assert len(poset) == len(oracle)
        # canonical equation rows agree elementwise
        got = sorted(L.rows for L in poset.elements)
        assert got == sorted(oracle)


def test_poset_single_hyperplane():
    arr = Arrangement("Q", 3, [boolean_hyperplanes(3)[0]])
    poset = build_poset(arr)
    assert len(poset) == 1
    assert poset.members_of(poset.elements[0]) == ()


def test_poset_concurrent_lines():
    poset = build_poset(lines3())
    assert len(poset) == 4
    origin = poset.elements[0]
    assert origin.dim == 0
    assert len(poset.members_of(origin)) == 3


def test_poset_membership_is_strict_containment():
    poset = build_poset(boolean3())
    arr = poset.arrangement
    for L in poset.elements:
        for i in poset.members_of(L):
            H = arr.hyperplane_subspace(i)
            assert H != L and H.contains(L)


def test_poset_build_is_idempotent():
    a1 = build_poset(boolean3())
    a2 = build_poset(boolean3())
    assert [L.key() for L in a1.elements] == [L.key() for L in a2.elements]
    pairs = [(L, Lp) for L in a1.elements for Lp in a1.elements]
    assert [a1.leq(L, Lp) for L, Lp in pairs] == [a2.leq(L, Lp) for L, Lp in pairs]
    assert [a1.members_of(L) for L in a1.elements] == [
        a2.members_of(L) for L in a2.elements
    ]


def test_leq_is_set_inclusion():
    for arr in (boolean3(), lines3(), braid3(), parallel_lines()):
        poset = build_poset(arr)
        for L in poset.elements:
            for Lp in poset.elements:
                expected = L == Lp or _strictly_below(L, Lp)
                assert poset.leq(L, Lp) == expected


def test_parallel_lines_poset():
    arr = parallel_lines()
    poset = build_poset(arr)
    points = [L for L in poset.elements if L.dim == 0]
    # x=0 and x=1 never meet; each meets y=0 and x=y, which cross at the origin
    assert len(points) == 3
    assert sorted(poset.members_of(L) for L in points) == [(0, 2, 3), (1, 2), (1, 3)]
    for i in range(4):
        assert poset.members_of(arr.hyperplane_subspace(i)) == ()


def test_arrangement_validation():
    with pytest.raises(InvalidArrangement):
        Arrangement("Q", 2, [([F(0), F(0)], F(0))])
    with pytest.raises(InvalidArrangement):
        Arrangement("Q", 2, [([F(1), F(0)], F(0)), ([F(2), F(0)], F(0))])
    with pytest.raises(InvalidArrangement):
        Arrangement("Q", 3, [([F(1), F(0)], F(0))])
    assert not Arrangement(
        "Q", 2, [([F(1), F(0)], F(1))]
    ).is_central


# -- normal space dimensions --------------------------------------------------


def _origin_and_line(poset):
    origin = next(L for L in poset.elements if L.dim == 0)
    line = next(L for L in poset.elements if L.dim == 1)
    return origin, line


def test_normal_dims_origin_line():
    poset = build_poset(boolean3())
    origin, line = _origin_and_line(poset)
    rel, amb_o, amb_l = normal_dims(poset, origin, line)
    assert (rel, amb_o, amb_l) == (1, 3, 2)
    assert rel + amb_l == amb_o
    assert normal_dims(poset, origin) == (3, 3, 0)


def test_normal_dims_reflexive_and_not_nested():
    poset = build_poset(boolean3())
    origin, line = _origin_and_line(poset)
    assert normal_dims(poset, line, line)[0] == 0
    with pytest.raises(NotNested):
        normal_dims(poset, line, origin)


def test_normal_dims_additive_on_all_nested_pairs():
    for arr in (lines3(), boolean3()):
        poset = build_poset(arr)
        for L in poset.elements:
            for Lp in poset.elements:
                if L == Lp or not poset.leq(L, Lp):
                    continue
                rel, a, b = normal_dims(poset, L, Lp)
                assert rel + b == a


# -- flags and strata ---------------------------------------------------------


def _oracle_chains(poset, max_len):
    """Brute-force chain enumeration straight off the order relation."""
    idx = range(len(poset.elements))
    chains = []
    for size in range(1, max_len + 1):
        for combo in itertools.combinations(idx, size):
            ordered = sorted(combo, key=lambda i: poset.elements[i].dim)
            if all(
                _strictly_below(poset.elements[a], poset.elements[b])
                for a, b in zip(ordered, ordered[1:])
            ):
                chains.append(tuple(ordered))
    return chains


def test_flags_boolean3_counts():
    poset = build_poset(boolean3())
    flags = enumerate_flags(poset, 3)
    by_len = {}
    for f in flags:
        by_len[len(f)] = by_len.get(len(f), 0) + 1
    assert by_len == {1: 7, 2: 12, 3: 6}
    assert len(flags) == len(_oracle_chains(poset, 3))


def test_flags_match_oracle_chains():
    for arr in (lines3(), braid3(), Arrangement("Q", 4, braid_hyperplanes(4))):
        poset = build_poset(arr)
        n = arr.ambient_dim
        flags = enumerate_flags(poset, n)
        assert len(flags) == len(_oracle_chains(poset, n))


def test_flags_max_len_one_is_the_poset():
    poset = build_poset(boolean3())
    flags = enumerate_flags(poset, 1)
    assert [f.chain[0] for f in flags] == list(poset.elements)


def test_flags_empty_poset():
    poset = build_poset(Arrangement("Q", 2, []))
    assert len(poset) == 0
    assert enumerate_flags(poset, 2) == []


def test_flag_must_strictly_increase():
    poset = build_poset(boolean3())
    origin, line = _origin_and_line(poset)
    with pytest.raises(InvalidFlag):
        Flag([line, origin])
    with pytest.raises(InvalidFlag):
        Flag([])


def test_stratum_dimensions():
    poset = build_poset(boolean3())
    origin, line = _origin_and_line(poset)
    st = stratum_of_flag(poset, Flag([origin, line]))
    assert st.factor_dims == (0, 0, 1)
    assert st.total_dim == 1
    # singleton flags always give divisors
    for L in poset.elements:
        assert stratum_of_flag(poset, Flag([L])).total_dim == 2
    plane = next(L for L in poset.elements if L.dim == 2)
    maximal = stratum_of_flag(poset, Flag([origin, line, plane]))
    assert maximal.total_dim == 3 - 3  # n - (r+1) with r = 2


def test_stratum_dimension_rule_everywhere():
    for arr in (boolean3(), braid3(), lines3()):
        poset = build_poset(arr)
        n = arr.ambient_dim
        for flag in enumerate_flags(poset, n):
            st = stratum_of_flag(poset, flag)
            assert st.total_dim == n - len(flag)
            assert sum(st.factor_dims) == st.total_dim


def test_stratum_rejects_foreign_flag():
    poset = build_poset(boolean3())
    other = Subspace.from_equations(
        [((F(1), F(1), F(1)), F(0))], 3, F(1)
    )
    with pytest.raises(InvalidFlag):
        stratum_of_flag(poset, Flag([other]))


def test_incidence():
    poset = build_poset(boolean3())
    origin, line = _origin_and_line(poset)
    lines = [L for L in poset.elements if L.dim == 1]
    assert incidence_check(poset, origin, line)
    assert not incidence_check(poset, lines[0], lines[1])


def test_incidence_agrees_with_length_two_flags():
    poset = build_poset(braid3())
    pairs = {
        (f.chain[0], f.chain[1]) for f in enumerate_flags(poset, 2) if len(f) == 2
    }
    for L in poset.elements:
        for Lp in poset.elements:
            if L == Lp:
                continue
            expected = (L, Lp) in pairs or (Lp, L) in pairs
            assert incidence_check(poset, L, Lp) == expected


# -- blowup centers -----------------------------------------------------------


def test_independent_loci_in_boolean3():
    poset = build_poset(boolean3())
    for L in poset.elements:
        assert is_independent_locus(poset, L)


def test_dependent_origin_of_concurrent_lines():
    poset = build_poset(lines3())
    origin = poset.elements[0]
    assert not is_independent_locus(poset, origin)


def test_minimal_centers_examples():
    assert minimal_blowup_centers(build_poset(boolean3())) == []
    assert minimal_blowup_centers(
        build_poset(Arrangement("Q", 4, boolean_hyperplanes(4)))
    ) == []

    centers = minimal_blowup_centers(build_poset(lines3()))
    assert [L.dim for L in centers] == [0]

    centers = minimal_blowup_centers(build_poset(braid3()))
    assert len(centers) == 1
    diag = centers[0]
    assert diag.dim == 1
    assert diag.contains_point((F(1), F(1), F(1)))


def test_minimal_centers_blowup_order():
    poset = build_poset(Arrangement("Q", 4, braid_hyperplanes(4)))
    centers = minimal_blowup_centers(poset)
    dims = [L.dim for L in centers]
    assert dims == sorted(dims) == [1, 2, 2, 2, 2]
    assert centers[0].contains_point((F(1),) * 4)


# -- contraction strata ---------------------------------------------------------


def test_hat_strata_single_hyperplane():
    arr = Arrangement("Q", 3, [boolean_hyperplanes(3)[0]])
    strata = hat_strata(build_poset(arr))
    assert strata[0] == ("X", 3)
    assert len(strata) == 2
    assert strata[1][1] == 0


def test_hat_strata_boolean3_dims():
    poset = build_poset(boolean3())
    strata = hat_strata(poset)
    assert len(strata) == len(poset) + 1
    assert sorted(d for _, d in strata) == [0, 0, 0, 1, 1, 1, 2, 3]
    projective = hat_strata(poset, projective=True)
    assert projective[0] == ("X", 2)


def test_hat_strata_reverses_order():
    poset = build_poset(boolean3())
    origin, line = _origin_and_line(poset)
    strata = dict(hat_strata(poset))
    # smaller subspace, bigger projectivized normal
    assert strata[origin.equations_text()] > strata[line.equations_text()]


# -- coordinate-inverse map -----------------------------------------------------


def test_hat_map_standard_example():
    image = hat_map((F(1), F(2), F(3)), boolean3())
    assert image == (F(6), F(3), F(2))


def test_hat_map_fixed_point_and_involution():
    arr = boolean3()
    assert hat_map((F(1), F(1), F(1)), arr) == (F(1), F(1), F(1))
    rng = random.Random(2718)
    for _ in range(40):
        p = tuple(F(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(3))
        q = hat_map(hat_map(p, arr), arr)
        # equality as projective points: hat_map returns the primitive
        # integer representative, so clear p the same way
        lead = next(x for x in q if x)
        plead = next(x for x in p if x)
        assert tuple(x / plead for x in p) == tuple(x / lead for x in q)


def test_hat_map_gaussian_field():
    i = CycRat(0, 1, 4)
    one = CycRat(1, 0, 4)
    zero = CycRat(0, 0, 4)
    arr = Arrangement(
        "Qi",
        3,
        [
            ((one, zero, zero), zero),
            ((zero, one, zero), zero),
            ((zero, zero, one), zero),
        ],
    )
    p = (one, i, one + i)
    q = hat_map(hat_map(p, arr), arr)
    lead_p, lead_q = p[0], q[0]
    assert tuple(x / lead_p for x in p) == tuple(x / lead_q for x in q)


def test_hat_map_error_cases():
    arr = boolean3()
    with pytest.raises(OnArrangement):
        hat_map((F(0), F(1), F(1)), arr)
    with pytest.raises(ZeroVector):
        hat_map((F(0), F(0), F(0)), arr)
    two_planes = Arrangement("Q", 3, boolean_hyperplanes(3)[:2])
    with pytest.raises(CommonPoint):
        hat_map((F(1), F(1), F(1)), two_planes)
    affine = Arrangement("Q", 2, [([F(1), F(0)], F(1))])
    with pytest.raises(ValueError):
        hat_map((F(2), F(1)), affine)


# -- reflection arrangements ----------------------------------------------------


def test_weyl_counts():
    for name, count in (("A2", 3), ("A3", 6), ("D4", 12), ("E6", 36), ("E7", 63)):
        arr = weyl_arrangement(name)
        assert len(arr.hyperplanes) == count
        assert arr.is_central


def test_weyl_rejects_unknown():
    with pytest.raises(UnsupportedType):
        weyl_arrangement("E8")
    with pytest.raises(UnsupportedType):
        weyl_arrangement("Z9")


def test_weyl_a2_poset_shape():
    poset = build_poset(weyl_arrangement("A2"))
    # three mirror lines through the origin
    assert len(poset) == 4
    dims = sorted(L.dim for L in poset.elements)
    assert dims == [0, 1, 1, 1]


def _characteristic_polynomial(poset):
    """Coefficients of chi(t), highest degree first, from the Moebius function.

    mu(X) = -sum of mu(Y) over the ambient space and the flats Y strictly
    containing X; chi(t) = t^n + sum_X mu(X) t^dim(X).
    """
    n = poset.arrangement.ambient_dim
    mu = {}
    for X in sorted(poset.elements, key=lambda L: -L.dim):
        mu[X] = -1 - sum(mu[Y] for Y in mu if Y != X and poset.leq(X, Y))
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for X, m in mu.items():
        coeffs[n - X.dim] += m
    return coeffs


def _expand(roots):
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def test_characteristic_polynomial_factors_by_exponents():
    for name, exponents, regions in (("A3", (1, 2, 3), 24), ("D4", (1, 3, 3, 5), 192)):
        chi = _characteristic_polynomial(build_poset(weyl_arrangement(name)))
        assert chi == _expand(exponents)
        # Zaslavsky: |chi(-1)| counts the chambers, i.e. the Weyl group order
        n = len(chi) - 1
        assert abs(sum(c * (-1) ** (n - d) for d, c in enumerate(chi))) == regions
