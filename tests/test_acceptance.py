"""Release gate: twelve headline checks, one test each.

Every test appends an ACCEPTANCE line to the terminal summary so the
pass/fail state of the gate is readable without scrolling the log."""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import conftest
from arrangekit.arrangements import (
    Arrangement,
    Subspace,
    build_poset,
    enumerate_flags,
    hat_map,
    minimal_blowup_centers,
    stratum_of_flag,
)
from arrangekit.ball import (
    HermSpace,
    apply_complex,
    arithmetic_system,
    cusp_obstruction_check,
    heisenberg_transvection,
    perp_covector,
    scaling_action,
    siegel_frame,
)
from arrangekit.cyclo import CycRat
from arrangekit.errors import ConvergenceGuard
from arrangekit.lattices import (
    GraphSpec,
    gram_matrix,
    herm_product,
    primitive_up_to_units,
    signature,
)
from arrangekit.linalg import matmul
from arrangekit.presets import (
    boolean_hyperplanes,
    braid_hyperplanes,
    concurrent_lines,
    dynkin_graph,
)
from arrangekit.series import (
    OrbitWindow,
    PlanarLattice,
    cusp_limit_check,
    poincare_weierstrass,
    weierstrass_pk,
)


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append("ACCEPTANCE %2d %-36s FAIL" % (num, name))
        raise
    conftest.ACCEPTANCE_LINES.append("ACCEPTANCE %2d %-36s PASS" % (num, name))


def c4(a, b=0):
    return CycRat(a, b, 4)


E = (c4(1), c4(1), c4(0), c4(0))


def test_01_e7_signature():
    with criterion(1, "E7 gaussian signature (6,1,0)"):
        t0 = time.perf_counter()
        sig = signature(gram_matrix(dynkin_graph("E7"), 4)).as_tuple()
        elapsed = time.perf_counter() - t0
        assert sig == (6, 1, 0)
        assert elapsed < 1.0


def test_02_a10_signature():
    with criterion(2, "A10 eisenstein signature (9,1,0)"):
        t0 = time.perf_counter()
        sig = signature(gram_matrix(dynkin_graph("A10"), 6)).as_tuple()
        elapsed = time.perf_counter() - t0
        assert sig == (9, 1, 0)
        assert elapsed < 1.0


def test_03_orientation_invariance():
    with criterion(3, "A3 orientation invariance"):
        for k in (4, 6):
            sigs = {
                signature(
                    gram_matrix(GraphSpec(3, [e01, e12]), k)
                ).as_tuple()
                for e01 in ((0, 1), (1, 0))
                for e12 in ((1, 2), (2, 1))
            }
            assert len(sigs) == 1


def test_04_root_facts():
    with criterion(4, "generator and edge-combination norms"):
        for name, k in (("E7", 4), ("A10", 6)):
            M = gram_matrix(dynkin_graph(name), k)
            n = len(M)
            basis = [
                tuple(CycRat(1 if i == j else 0, 0, k) for j in range(n))
                for i in range(n)
            ]
            for v in basis:
                assert herm_product(M, v, v) == CycRat(Fraction(k, 2), 0, k)
        M = gram_matrix(dynkin_graph("E7"), 4)
        lam = c4(1, 1)
        for i, j in dynkin_graph("E7").edges:
            w = tuple(
                (c4(1) if p == i else c4(0)) + (lam if p == j else c4(0))
                for p in range(7)
            )
            assert herm_product(M, w, w) == c4(2)


def test_05_heisenberg_law(model13):
    with criterion(5, "heisenberg composition, 100 pairs"):
        rng = random.Random(10301)

        def vec():
            r = c4(rng.randint(-3, 3), rng.randint(-3, 3))
            return (
                r,
                r,
                c4(rng.randint(-3, 3), rng.randint(-3, 3)),
                c4(rng.randint(-3, 3), rng.randint(-3, 3)),
            )

        for _ in range(100):
            u, v = vec(), vec()
            Tu = heisenberg_transvection(model13, E, u)
            Tv = heisenberg_transvection(model13, E, v)
            shift = model13.psi(u, v) / 2
            w = tuple(a + b + shift * e for a, b, e in zip(u, v, E))
            assert matmul(Tu, Tv) == heisenberg_transvection(model13, E, w)


def test_06_scaling_identity(model13):
    with criterion(6, "scaling norm identity, 100 samples"):
        rng = random.Random(60321)
        e_float = [1.0, 1.0, 0.0, 0.0]
        for _ in range(100):
            s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(4)
            )
            Tz = apply_complex(scaling_action(model13, E, s), z)
            drift = (
                model13.psi_numeric(Tz, Tz).real
                - model13.psi_numeric(z, z).real
                - 2 * s.real * abs(model13.psi_numeric(z, e_float)) ** 2
            )
            assert abs(drift) <= 1e-10


def _chains_by_brute_force(poset, max_len):
    idx = range(len(poset.elements))
    found = set()
    for size in range(1, max_len + 1):
        for combo in itertools.combinations(idx, size):
            ordered = tuple(sorted(combo, key=lambda i: poset.elements[i].dim))
            # strict inclusion by a rank test, independent of the poset's order
            if all(
                poset.elements[a].dim < poset.elements[b].dim
                and poset.elements[b].contains(poset.elements[a])
                for a, b in zip(ordered, ordered[1:])
            ):
                found.add(ordered)
    return found


def test_07_stratification_oracle():
    with criterion(7, "flag enumeration vs chain oracle"):
        for arr in (
            Arrangement("Q", 3, boolean_hyperplanes(3)),
            Arrangement("Q", 2, concurrent_lines(3)),
        ):
            n = arr.ambient_dim
            poset = build_poset(arr)
            index = {L: i for i, L in enumerate(poset.elements)}
            flags = enumerate_flags(poset, n)
            got = {tuple(index[L] for L in f.chain) for f in flags}
            assert got == _chains_by_brute_force(poset, n)
            for f in flags:
                st = stratum_of_flag(poset, f)
                assert st.total_dim == n - len(f)
                if len(f) == 1:
                    assert st.total_dim == n - 1


def test_08_minimal_centers():
    with criterion(8, "minimal centers on three presets"):
        assert minimal_blowup_centers(
            build_poset(Arrangement("Q", 3, boolean_hyperplanes(3)))
        ) == []

        centers = minimal_blowup_centers(
            build_poset(Arrangement("Q", 2, concurrent_lines(3)))
        )
        assert len(centers) == 1 and centers[0].dim == 0
        assert centers[0].contains_point((Fraction(0), Fraction(0)))

        centers = minimal_blowup_centers(
            build_poset(Arrangement("Q", 3, braid_hyperplanes(3)))
        )
        assert len(centers) == 1 and centers[0].dim == 1
        assert centers[0].contains_point((Fraction(1),) * 3)


def test_09_cremona_involution():
    with criterion(9, "coordinate-inverse involution, 100 points"):
        arr = Arrangement("Q", 3, boolean_hyperplanes(3))
        assert hat_map((Fraction(1), Fraction(2), Fraction(3)), arr) == (
            Fraction(6),
            Fraction(3),
            Fraction(2),
        )
        rng = random.Random(9090)
        for _ in range(100):
            p = tuple(
                Fraction(rng.randint(1, 60) * rng.choice((-1, 1)), rng.randint(1, 12))
                for _ in range(3)
            )
            q = hat_map(hat_map(p, arr), arr)
            assert tuple(x / p[0] for x in p) == tuple(x / q[0] for x in q)


def test_10_arithmetic_systems(e7_space, e7_roots, e7_cusps, model13):
    with criterion(10, "cusp systems: I in J in I-perp, 1316 cusps"):
        zero = CycRat(0, 0, 4)
        covs = [
            tuple(perp_covector(e7_space.gram, r))
            for r in primitive_up_to_units(e7_roots[:16])[:4]
        ]
        arr = Arrangement("Qi", 7, [(cov, zero) for cov in covs])
        assert len(e7_cusps) == 1316
        for v in e7_cusps:
            J = arithmetic_system(e7_space, arr, v)
            assert J.contains_point(v)
            perp = tuple(perp_covector(e7_space.gram, v)) + (zero,)
            assert Subspace.from_rows([perp], 7).contains(J)

        h1 = (c4(0), c4(0), c4(1), c4(0))
        h2 = (c4(0), c4(0), c4(0), c4(1))
        h4 = (c4(1), c4(-1), c4(0), c4(0))

        def arr13(covectors):
            return Arrangement("Qi", 4, [(cov, c4(0)) for cov in covectors])

        empty = cusp_obstruction_check(model13, arr13([]), E)
        assert (empty.kind, empty.dim) == ("empty", None)
        fails = cusp_obstruction_check(model13, arr13([h1]), E)
        assert (fails.kind, fails.dim) == ("fails", 3)
        line = cusp_obstruction_check(model13, arr13([h1, h2, h4]), E)
        assert (line.kind, line.dim) == ("exactly_line", 1)


def test_11_series_checks(model13):
    with criterion(11, "planar periodicity, guard, homogeneity"):
        square = PlanarLattice(1, 1j)
        rng = random.Random(1111)
        for _ in range(20):
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
            z += 0.05 + 0.05j  # keep clear of lattice points
            a = weierstrass_pk(z, square, 4, 50)
            b = weierstrass_pk(z + 1, square, 4, 50)
            assert abs(a.value - b.value) <= 2 * max(
                a.tail_estimate, b.tail_estimate
            )

        gram2 = [[c4(1), c4(0)], [c4(0), c4(-1)]]
        w2 = OrbitWindow(((c4(0), c4(2)),), 1)
        with pytest.raises(ConvergenceGuard):
            poincare_weierstrass((2, 1), w2, 3, gram2)
        poincare_weierstrass((2, 1), w2, 4, gram2)

        window = OrbitWindow(
            (
                (c4(0), c4(0), c4(1), c4(0)),
                (c4(0), c4(0), c4(0), c4(1)),
                (c4(1), c4(-1), c4(1), c4(0)),
            ),
            3,
        )
        with pytest.raises(ConvergenceGuard):
            poincare_weierstrass((3, 1, 1, 1), window, 7, model13)
        base = poincare_weierstrass((3, 1, 1, 1), window, 8, model13)
        for lam in (1.7, 0.6):
            z = tuple(lam * x for x in (3, 1, 1, 1))
            scaled = poincare_weierstrass(z, window, 8, model13)
            assert abs(scaled.value - base.value * lam**-8) <= (
                1e-9 * abs(base.value)
            )


def test_12_cusp_limit_decay(model13):
    with criterion(12, "decaying part monotone beyond s0"):
        window = OrbitWindow(
            (
                (c4(0), c4(0), c4(1), c4(0)),
                (c4(0), c4(0), c4(0), c4(1)),
                (c4(1), c4(-1), c4(1), c4(0)),
            ),
            3,
        )
        s_values = tuple(2**i for i in range(9))  # 1 .. 256
        res = cusp_limit_check(
            (3, 1, 1, 1), window, 8, model13, E, s_values
        )
        assert res.stable_count == 2 and res.decaying_count == 1
        beyond = [
            a for s, a in zip(res.s_values, res.decaying_abs) if s > res.s0
        ]
        assert len(beyond) >= 8
        assert all(b < a for a, b in zip(beyond, beyond[1:]))
        assert res.monotone
