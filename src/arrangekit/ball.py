"""Hermitian space of signature (1, n), cusps, and the cusp stabilizer.

A HermSpace normalizes its Gram matrix to have one positive direction;
a Gram handed in with signature (n, 1, 0) is negated on construction and
flagged, so graph lattices plug in directly.  Exact identities (frames,
transvections, arithmetic systems) run over Q(zeta_k); only membership
of non-algebraic points and the series code use floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangements import Subspace
from .cyclo import CycRat, embed, is_unit, vector_content
from .errors import (
    AtInfinity,
    InvalidArrangement,
    NotIsotropic,
    NotOrthogonal,
    NotPrimitive,
    WrongSignature,
    ZeroVector,
)
from .lattices import (
    as_cyc,
    enumerate_by_norm,
    herm_product,
    perp_covector,
    primitive_up_to_units,
    ring_of,
    signature,
)
from .linalg import identity, kernel_basis


def _is_exact_vector(z) -> bool:
    return all(isinstance(c, (CycRat, int, Fraction)) for c in z)


class HermSpace:
    """Gram matrix over O_k with signature (1, n, 0) after normalization."""

    __slots__ = ("gram", "ring", "n", "negated", "_gram_c", "_hyp_cache")

    def __init__(self, gram, negated=False):
        # signature() checks that the form is Hermitian first
        sig = signature(gram).as_tuple()
        if sig != (1, len(gram) - 1, 0):
            raise WrongSignature("need signature (1, n, 0), got %r" % (sig,))
        self._fill(gram, negated)

    def _fill(self, gram, negated):
        self.gram = tuple(tuple(row) for row in gram)
        self.ring = ring_of(gram)
        self.n = len(gram) - 1
        self.negated = negated
        self._gram_c = None
        self._hyp_cache = {}

    @classmethod
    def from_gram(cls, gram):
        """Accepts either sign convention; (n, 1, 0) input gets negated."""
        sig = signature(gram).as_tuple()
        size = len(gram)
        if sig == (1, size - 1, 0):
            negated = False
        elif sig == (size - 1, 1, 0):
            gram = [[-x for x in row] for row in gram]
            negated = True
        else:
            raise WrongSignature("signature %r has no ball" % (sig,))
        # negation swaps the signature, so the one computed above suffices
        space = cls.__new__(cls)
        space._fill(gram, negated)
        return space

    @property
    def size(self):
        return self.n + 1

    def psi(self, x, y) -> CycRat:
        return herm_product(self.gram, x, y)

    def gram_complex(self):
        if self._gram_c is None:
            self._gram_c = [[embed(x) for x in row] for row in self.gram]
        return self._gram_c

    def psi_numeric(self, x, y) -> complex:
        Mc = self.gram_complex()
        total = 0j
        for i, xi in enumerate(x):
            if xi:
                row = Mc[i]
                for j, yj in enumerate(y):
                    if yj:
                        total += xi * yj.conjugate() * row[j]
        return total


@dataclass(frozen=True)
class BallMembership:
    sign: int
    value: float
    margin: float


def in_ball(space: HermSpace, z) -> BallMembership:
    """Sign of psi(z, z): positive means inside the ball."""
    if not any(z):
        raise ZeroVector("membership of the zero vector is undefined")
    if _is_exact_vector(z):
        value = space.psi(z, z).real_part()
        sign = 0 if value == 0 else (1 if value > 0 else -1)
        return BallMembership(sign, float(value), abs(float(value)))
    value = space.psi_numeric(z, z).real
    gmax = max(abs(c) for row in space.gram_complex() for c in row)
    scale = max(abs(c) for c in z) ** 2 * (space.n + 1) ** 2 * max(gmax, 1.0)
    tol = 1e-12 * max(scale, 1.0)
    sign = 0 if abs(value) <= tol else (1 if value > 0 else -1)
    return BallMembership(sign, value, abs(value))


# ---------------------------------------------------------------------------
# Siegel frames and coordinates


@dataclass(frozen=True)
class SiegelFrame:
    space: HermSpace
    e: tuple
    f: tuple
    a_basis: tuple


def siegel_frame(space: HermSpace, e, y=None) -> SiegelFrame:
    """Complete an isotropic e to (e, f, A) with psi(e,f)=1, psi(f,f)=0."""
    k = space.ring
    e = tuple(as_cyc(c, k) for c in e)
    if not any(e):
        raise ZeroVector("frame needs a nonzero isotropic vector")
    if space.psi(e, e):
        raise NotIsotropic("psi(e, e) != 0")
    size = space.size
    if y is None:
        cov = perp_covector(space.gram, e)
        pick = next((i for i in range(size) if cov[i]), None)
        # nondegeneracy guarantees some coordinate pairs with e
        y = tuple(
            CycRat(1 if i == pick else 0, 0, k) for i in range(size)
        )
    else:
        y = tuple(as_cyc(c, k) for c in y)
    beta = space.psi(y, e)
    if not beta:
        raise ValueError("y must pair nontrivially with e")
    f0 = tuple(c / beta for c in y)
    t = space.psi(f0, f0)
    half_t = t / 2
    f = tuple(c - half_t * ec for c, ec in zip(f0, e))
    cov_e = perp_covector(space.gram, e)
    cov_f = perp_covector(space.gram, f)
    one = CycRat(1, 0, k)
    basis = kernel_basis([list(cov_e), list(cov_f)], size, one)
    return SiegelFrame(space, e, f, tuple(tuple(v) for v in basis))


@dataclass(frozen=True)
class SiegelCoords:
    s: object
    a: tuple
    lhs: object  # 2 Re(s)
    rhs: object  # -psi(a, a)
    inside: bool


def siegel_coords(frame: SiegelFrame, z) -> SiegelCoords:
    """Write z (up to scale) as s*e + f + a with a orthogonal to e and f.

    Membership in the ball is the Siegel inequality 2 Re(s) > -psi(a,a);
    both sides are reported so the boundary case stays visible.
    """
    space = frame.space
    if _is_exact_vector(z):
        k = space.ring
        z = tuple(as_cyc(c, k) for c in z)
        if not any(z):
            raise ZeroVector("zero vector has no coordinates")
        beta = space.psi(z, frame.e)
        if not beta:
            raise AtInfinity("psi(z, e) = 0")
        w = tuple(c / beta for c in z)
        s = space.psi(w, frame.f)
        a = tuple(wc - s * ec - fc for wc, ec, fc in zip(w, frame.e, frame.f))
        lhs = s.trace()
        rhs = -space.psi(a, a).real_part()
        return SiegelCoords(s, a, lhs, rhs, lhs > rhs)
    ec = [embed(c) for c in frame.e]
    fc = [embed(c) for c in frame.f]
    beta = space.psi_numeric(z, ec)
    scale = max(abs(c) for c in z)
    if abs(beta) <= 1e-13 * max(scale, 1.0):
        raise AtInfinity("psi(z, e) ~ 0")
    w = [c / beta for c in z]
    s = space.psi_numeric(w, fc)
    a = tuple(wc - s * e_ - f_ for wc, e_, f_ in zip(w, ec, fc))
    lhs = 2 * s.real
    rhs = -space.psi_numeric(a, a).real
    return SiegelCoords(s, a, lhs, rhs, lhs > rhs)


def siegel_point(frame: SiegelFrame, s, a=None):
    """Inverse of siegel_coords: the point s*e + f + a."""
    space = frame.space
    k = space.ring
    if a is None:
        a = (CycRat(0, 0, k),) * space.size
    s = as_cyc(s, k) if isinstance(s, (int, Fraction, CycRat)) else s
    if isinstance(s, CycRat) and _is_exact_vector(a):
        a = tuple(as_cyc(c, k) for c in a)
        return tuple(
            s * ec + fc + ac for ec, fc, ac in zip(frame.e, frame.f, a)
        )
    ec = [embed(c) for c in frame.e]
    fc = [embed(c) for c in frame.f]
    return tuple(s * e_ + f_ + a_ for e_, f_, a_ in zip(ec, fc, a))


# ---------------------------------------------------------------------------
# cusp stabilizer transformations


def heisenberg_transvection(space: HermSpace, e, v):
    """Matrix of z -> z + psi(z,e)v - psi(z,v)e - (1/2)psi(v,v)psi(z,e)e."""
    k = space.ring
    e = tuple(as_cyc(c, k) for c in e)
    v = tuple(as_cyc(c, k) for c in v)
    if space.psi(e, e):
        raise NotIsotropic("transvection axis must be isotropic")
    if space.psi(v, e):
        raise NotOrthogonal("v must be orthogonal to e")
    size = space.size
    c = perp_covector(space.gram, e)
    d = perp_covector(space.gram, v)
    half_norm = space.psi(v, v) / 2
    T = identity(size, CycRat(1, 0, k))
    for i in range(size):
        for j in range(size):
            T[i][j] = T[i][j] + c[j] * v[i] - d[j] * e[i] - half_norm * c[j] * e[i]
    return T


def scaling_action(space: HermSpace, e, s):
    """Matrix of z -> z + s*psi(z,e)*e; exact when s is, complex otherwise."""
    k = space.ring
    e_exact = tuple(as_cyc(c, k) for c in e)
    if space.psi(e_exact, e_exact):
        raise NotIsotropic("scaling axis must be isotropic")
    size = space.size
    c = perp_covector(space.gram, e_exact)
    if isinstance(s, (int, Fraction, CycRat)):
        s = as_cyc(s, k)
        T = identity(size, CycRat(1, 0, k))
        for i in range(size):
            if e_exact[i]:
                for j in range(size):
                    if c[j]:
                        T[i][j] = T[i][j] + s * c[j] * e_exact[i]
        return T
    s = complex(s)
    ec = [embed(x) for x in e_exact]
    cc = [embed(x) for x in c]
    return [
        [(1 if i == j else 0) + s * cc[j] * ec[i] for j in range(size)]
        for i in range(size)
    ]


def apply_complex(T, z):
    return tuple(
        sum(T[i][j] * z[j] for j in range(len(z))) for i in range(len(T))
    )


# ---------------------------------------------------------------------------
# cusps and arithmetic systems


def cusp_scan(gram, coeff_bound: int):
    """Primitive isotropic O_k vectors in the box, one per unit orbit."""
    isotropic = enumerate_by_norm(gram, 0, coeff_bound)
    return primitive_up_to_units(isotropic)


def _validate_cusp(space: HermSpace, generator):
    k = space.ring
    v = tuple(as_cyc(c, k) for c in generator)
    if not any(v):
        raise ZeroVector("cusp generator must be nonzero")
    if not all(c.is_integral() for c in v):
        raise NotPrimitive("cusp generator must have O_k coordinates")
    if not is_unit(vector_content(v)):
        raise NotPrimitive("cusp generator has a nonunit content")
    if space.psi(v, v):
        raise NotIsotropic("cusp generator must be isotropic")
    return v


def hyperplane_is_hyperbolic(space: HermSpace, covector) -> bool:
    """Restricted form on ker(covector) must have signature (1, n-1, 0)."""
    k = space.ring
    cov = [as_cyc(c, k) for c in covector]
    if not any(cov):
        return False
    key = tuple(cov)
    hit = space._hyp_cache.get(key)
    if hit is not None:
        return hit
    one = CycRat(1, 0, k)
    basis = kernel_basis([cov], space.size, one)
    restricted = [
        [space.psi(u, w) for w in basis] for u in basis
    ]
    result = signature(restricted).as_tuple() == (1, space.n - 1, 0)
    space._hyp_cache[key] = result
    return result


def _rows_through(arr, e, k):
    """Equation rows (covector, then a zero offset) of the members through e."""
    zero = CycRat(0, 0, k)
    rows = []
    for cov, _ in arr.hyperplanes:
        cov = tuple(as_cyc(c, k) for c in cov)
        if not sum((c * ec for c, ec in zip(cov, e)), zero):
            rows.append(cov + (zero,))
    return rows


def arithmetic_system(space: HermSpace, arr, I_generator) -> Subspace:
    """J = I-perp intersected with every arrangement member through I.

    arr is an Arrangement over the matching cyclotomic field whose
    covectors are linear functionals on the space; members through I are
    those vanishing on the generator.  Every hyperplane must be
    hyperbolic, i.e. meet the ball.
    """
    e = _validate_cusp(space, I_generator)
    if arr.ambient_dim != space.size:
        raise ValueError("arrangement dimension != space dimension")
    for cov, off in arr.hyperplanes:
        if off:
            raise InvalidArrangement("ball arrangements are central")
        if not hyperplane_is_hyperbolic(space, cov):
            raise InvalidArrangement("hyperplane misses the ball")
    rows = [perp_covector(space.gram, e) + (CycRat(0, 0, space.ring),)]
    return Subspace.from_rows(rows + _rows_through(arr, e, space.ring), space.size)


@dataclass(frozen=True)
class ObstructionReport:
    kind: str  # "empty" | "exactly_line" | "fails"
    dim: object  # linear dimension of the common intersection, None if empty


def cusp_obstruction_check(space: HermSpace, arr, I_generator) -> ObstructionReport:
    """Classify the common intersection of the members through the cusp."""
    e = _validate_cusp(space, I_generator)
    rows = _rows_through(arr, e, space.ring)
    if not rows:
        return ObstructionReport("empty", None)
    K = Subspace.from_rows(rows, space.size)
    if K.dim == 1:
        return ObstructionReport("exactly_line", 1)
    return ObstructionReport("fails", K.dim)
