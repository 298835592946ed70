"""Hyperplane arrangements, intersection posets, flags, and contractions.

Subspaces are stored as canonical reduced echelon systems of affine
equations, so set equality is literal equality of rows and every listing
in the package can be sorted by the (dimension, rows) key.  Scalars are
Fraction for arrangements over Q and CycRat over the two cyclotomic
fields; nothing here conjugates, covectors act as plain linear forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclo import CycRat, scalar_key
from .errors import (
    CommonPoint,
    InvalidArrangement,
    InvalidFlag,
    NotNested,
    OnArrangement,
    UnsupportedType,
    ZeroVector,
)
from .linalg import rref, rank
from .presets import dynkin_graph

FIELD_RINGS = {"Qi": 4, "Qw": 6}


def field_one(field: str):
    if field == "Q":
        return Fraction(1)
    if field in FIELD_RINGS:
        return CycRat(1, 0, FIELD_RINGS[field])
    raise ValueError("unknown field %r" % (field,))


class Subspace:
    """Affine subspace as a canonical echelon system sum_i c_i x_i = d."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, rows, pivots):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_equations(cls, equations, ambient_dim, one):
        """Canonical subspace, or None when the system is inconsistent."""
        aug = []
        for cov, off in equations:
            row = [c * one for c in cov] + [off * one]
            aug.append(row)
        if not aug:
            return cls(ambient_dim, (), ())
        reduced, pivots = rref(aug)
        if ambient_dim in pivots:
            return None
        return cls(
            ambient_dim,
            tuple(tuple(r) for r in reduced),
            tuple(pivots),
        )

    @classmethod
    def ambient(cls, ambient_dim):
        return cls(ambient_dim, (), ())

    @classmethod
    def from_rows(cls, rows, ambient_dim):
        """Rows already in (c_0..c_{n-1}, d) form; None if inconsistent."""
        if not rows:
            return cls(ambient_dim, (), ())
        reduced, pivots = rref([list(r) for r in rows])
        if ambient_dim in pivots:
            return None
        return cls(ambient_dim, tuple(tuple(r) for r in reduced), tuple(pivots))

    @property
    def dim(self):
        return self.ambient_dim - len(self.rows)

    @property
    def codim(self):
        return len(self.rows)

    def intersect(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace.from_rows(self.rows + other.rows, self.ambient_dim)

    def contains(self, other) -> bool:
        """Set containment: every point of other lies in self."""
        if not self.rows:
            return True
        if not other.rows:
            return False
        combined = [list(r) for r in other.rows] + [list(r) for r in self.rows]
        return rank(combined) == len(other.rows)

    def contains_point(self, point) -> bool:
        for row in self.rows:
            value = sum(c * x for c, x in zip(row[:-1], point))
            if value != row[-1]:
                return False
        return True

    def key(self):
        flat = tuple(scalar_key(c) for row in self.rows for c in row)
        return (self.dim, flat)

    def equations_text(self) -> str:
        if not self.rows:
            return "ambient"
        parts = []
        for row in self.rows:
            terms = []
            for i, c in enumerate(row[:-1]):
                if c:
                    if c == 1:
                        terms.append("x%d" % i)
                    elif c == -1:
                        terms.append("-x%d" % i)
                    else:
                        terms.append("%s*x%d" % (c, i))
            lhs = " + ".join(terms).replace("+ -", "- ")
            parts.append("%s = %s" % (lhs, row[-1]))
        return "; ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return "Subspace(dim=%d, %s)" % (self.dim, self.equations_text())


class Arrangement:
    """A list of affine hyperplanes over Q, Q(zeta_4) or Q(zeta_6)."""

    __slots__ = ("field", "ambient_dim", "hyperplanes", "one")

    def __init__(self, field, ambient_dim, hyperplanes):
        self.field = field
        self.ambient_dim = int(ambient_dim)
        one = field_one(field)
        self.one = one
        cooked = []
        seen = {}
        for cov, off in hyperplanes:
            cov = tuple(c * one for c in cov)
            off = off * one
            if len(cov) != self.ambient_dim:
                raise InvalidArrangement("covector length != ambient dimension")
            if not any(cov):
                raise InvalidArrangement("zero covector")
            # scale so the first nonzero coefficient is 1: proportional
            # pairs collide here, which is how duplicates are caught
            lead = next(c for c in cov if c)
            canon = tuple(c / lead for c in cov) + (off / lead,)
            if canon in seen:
                raise InvalidArrangement("duplicate hyperplane %r" % (cov,))
            seen[canon] = True
            cooked.append((cov, off))
        self.hyperplanes = tuple(cooked)

    @property
    def is_central(self) -> bool:
        return all(not off for _, off in self.hyperplanes)

    def hyperplane_subspace(self, index) -> Subspace:
        cov, off = self.hyperplanes[index]
        return Subspace.from_equations([(cov, off)], self.ambient_dim, self.one)

    def evaluate(self, index, point):
        cov, off = self.hyperplanes[index]
        return sum(c * x for c, x in zip(cov, point)) - off


class IntersectionPoset:
    """Positive-codimension intersections of arrangement members.

    elements are sorted by (dim, canonical rows); masks[i] has bit h set
    when hyperplane h contains elements[i].  A flat is the intersection of
    the hyperplanes through it, so L <= L' iff mask(L') is a submask of mask(L).
    """

    __slots__ = ("arrangement", "elements", "masks", "_index")

    def __init__(self, arrangement, elements, masks):
        self.arrangement = arrangement
        self.elements = elements
        self.masks = masks
        self._index = {L: i for i, L in enumerate(elements)}

    def __len__(self):
        return len(self.elements)

    def index_of(self, L) -> int:
        try:
            return self._index[L]
        except KeyError:
            raise KeyError("subspace not in poset: %r" % (L,)) from None

    def leq(self, L, Lp) -> bool:
        """Inclusion L <= L' as sets."""
        return not self.masks[self.index_of(Lp)] & ~self.masks[self.index_of(L)]

    def members_of(self, L):
        """Indices of the hyperplanes strictly containing L."""
        if L.codim < 2:
            return ()
        mask = self.masks[self.index_of(L)]
        return tuple(h for h in range(mask.bit_length()) if mask >> h & 1)


def build_poset(arr: Arrangement) -> IntersectionPoset:
    hyper = [arr.hyperplane_subspace(i) for i in range(len(arr.hyperplanes))]
    masks = {H: 0 for H in hyper}
    work = list(hyper)
    while work:
        L = work.pop()
        for h, H in enumerate(hyper):
            meet = L.intersect(H)
            if meet == L:
                # equal canonical rows: H contains the nonempty flat L
                masks[L] |= 1 << h
            elif meet is not None and meet not in masks:
                masks[meet] = 0
                work.append(meet)
    ordered = sorted(masks, key=Subspace.key)
    return IntersectionPoset(arr, ordered, [masks[L] for L in ordered])


def normal_dims(poset, L, Lp=None):
    """(codim of L in L', codim of L in X, codim of L' in X); additive."""
    n = poset.arrangement.ambient_dim
    if Lp is None:
        Lp = Subspace.ambient(n)
    if L != Lp and not Lp.contains(L):
        raise NotNested("first subspace is not contained in the second")
    d_l, d_lp = L.dim, Lp.dim
    return (d_lp - d_l, n - d_l, n - d_lp)


class Flag:
    """Strictly increasing chain of subspaces L_0 < L_1 < ... < L_r."""

    __slots__ = ("chain",)

    def __init__(self, chain):
        chain = tuple(chain)
        if not chain:
            raise InvalidFlag("empty flag")
        for a, b in zip(chain, chain[1:]):
            if not (a.dim < b.dim and b.contains(a)):
                raise InvalidFlag("chain is not strictly increasing")
        self.chain = chain

    def __len__(self):
        return len(self.chain)

    def __eq__(self, other):
        if not isinstance(other, Flag):
            return NotImplemented
        return self.chain == other.chain

    def __hash__(self):
        return hash(self.chain)

    def key(self):
        return (len(self.chain), tuple(L.key() for L in self.chain))

    def __repr__(self):
        return "Flag(%s)" % " < ".join(L.equations_text() for L in self.chain)


def enumerate_flags(poset, max_len: int):
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    elements = poset.elements
    masks = poset.masks
    m = len(elements)
    above = [
        [j for j in range(m) if j != i and not masks[j] & ~masks[i]]
        for i in range(m)
    ]
    chains = []

    def grow(chain):
        chains.append(tuple(chain))
        if len(chain) == max_len:
            return
        for j in above[chain[-1]]:
            chain.append(j)
            grow(chain)
            chain.pop()

    for i in range(m):
        grow([i])
    flags = [Flag([elements[i] for i in chain]) for chain in chains]
    flags.sort(key=Flag.key)
    return flags


class StratumDescriptor:
    __slots__ = ("flag", "factor_dims", "total_dim")

    def __init__(self, flag, factor_dims, total_dim):
        self.flag = flag
        self.factor_dims = tuple(factor_dims)
        self.total_dim = total_dim

    def __repr__(self):
        return "Stratum(dims=%r, total=%d)" % (self.factor_dims, self.total_dim)


def stratum_of_flag(poset, flag: Flag) -> StratumDescriptor:
    """Dimensions of the product stratum attached to a flag.

    Factors: the open part of L_0, the projectivized normal directions of
    each consecutive pair, and of L_r in the ambient space; projective
    factors lose one dimension.
    """
    n = poset.arrangement.ambient_dim
    for L in flag.chain:
        if L not in poset._index:
            raise InvalidFlag("flag element not in poset")
    dims = [L.dim for L in flag.chain]
    factors = [dims[0]]
    for a, b in zip(dims, dims[1:]):
        factors.append(b - a - 1)
    factors.append(n - dims[-1] - 1)
    total = sum(factors)
    # r+1 elements collapse n-1 ambient directions to n-r-1 in total
    assert total == n - len(flag.chain)
    return StratumDescriptor(flag, factors, total)


def incidence_check(poset, L, Lp) -> bool:
    """True iff the two boundary divisors meet: comparable elements."""
    return poset.leq(L, Lp) or poset.leq(Lp, L)


def is_independent_locus(poset, L) -> bool:
    """Whether the hyperplanes through L cut it out transversally.

    The minimal members of the family through L are the hyperplanes
    themselves; independence means the quotient maps onto their normal
    lines are jointly surjective, i.e. the covectors are independent.
    """
    arr = poset.arrangement
    covs = [list(arr.hyperplanes[i][0]) for i in poset.members_of(L)]
    if not covs:
        return True
    return rank(covs) == len(covs)


def minimal_blowup_centers(poset):
    out = [
        L
        for L in poset.elements
        if L.codim >= 2 and not is_independent_locus(poset, L)
    ]
    out.sort(key=Subspace.key)
    return out


def hat_strata(poset, projective: bool = False):
    """(label, dim) pairs: the open stratum plus one per poset element."""
    n = poset.arrangement.ambient_dim
    out = [("X", n - 1 if projective else n)]
    for L in poset.elements:
        out.append((L.equations_text(), L.codim - 1))
    return out


def _canonical_projective(coords, field):
    if field == "Q":
        den = lcm(*(c.denominator for c in coords)) if coords else 1
        ints = [int(c * den) for c in coords]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g:
            ints = [v // g for v in ints]
        lead = next((v for v in ints if v), 0)
        if lead < 0:
            ints = [-v for v in ints]
        return tuple(Fraction(v) for v in ints)
    lead = next(c for c in coords if c)
    return tuple(c / lead for c in coords)


def hat_map(point, arr: Arrangement):
    """The coordinatewise-inverse map through the hyperplane sections.

    For a central arrangement with no common projective point, sends z to
    the point with H-coordinate 1/f_H(z), cleared of denominators: the
    H entry is the product of all other f_{H'}(z).
    """
    if not arr.is_central:
        raise ValueError("hat map needs a central arrangement")
    point = tuple(x * arr.one for x in point)
    if len(point) != arr.ambient_dim:
        raise ValueError("point length != ambient dimension")
    if not any(point):
        raise ZeroVector("projective point must be nonzero")
    covs = [list(cov) for cov, _ in arr.hyperplanes]
    if rank(covs) < arr.ambient_dim:
        raise CommonPoint("hyperplanes meet in a common projective point")
    values = [arr.evaluate(i, point) for i in range(len(arr.hyperplanes))]
    for v in values:
        if not v:
            raise OnArrangement("point lies on one of the hyperplanes")
    out = []
    for i in range(len(values)):
        w = arr.one
        for j, v in enumerate(values):
            if j != i:
                w = w * v
        out.append(w)
    return _canonical_projective(out, arr.field)


# ---------------------------------------------------------------------------
# reflection arrangements of simply-laced Weyl groups


def _positive_roots(cartan):
    n = len(cartan)
    simple = []
    for i in range(n):
        v = [0] * n
        v[i] = 1
        simple.append(tuple(v))
    seen = set(simple)
    work = list(simple)
    while work:
        v = work.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * v[j] for j in range(n))
            w = list(v)
            w[i] -= pairing
            w = tuple(w)
            if w not in seen:
                seen.add(w)
                work.append(w)
    return sorted(v for v in seen if all(c >= 0 for c in v))


def weyl_arrangement(name: str) -> Arrangement:
    """Reflection hyperplanes of a simply-laced Weyl group, over Q.

    Coordinates are taken in the basis of simple roots; the hyperplane of
    a root is the kernel of pairing with it under the Cartan form.
    """
    name = name.strip().upper()
    if name.startswith("E8"):
        raise UnsupportedType("E8 reflection arrangement is not wired up")
    graph = dynkin_graph(name)
    n = graph.vertex_count
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in graph.edges:
        cartan[i][j] = cartan[j][i] = -1
    hyperplanes = []
    for root in _positive_roots(cartan):
        cov = [
            Fraction(sum(cartan[i][j] * root[j] for j in range(n))) for i in range(n)
        ]
        hyperplanes.append((cov, Fraction(0)))
    return Arrangement("Q", n, hyperplanes)
