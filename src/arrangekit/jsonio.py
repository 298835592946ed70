"""JSON readers and writers for the CLI wire formats.

Rationals travel as "p/q" strings, cyclotomic scalars as {"a": .., "b": ..}
with the ring declared at document level, so nothing exact is ever
round-tripped through floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .arrangements import FIELD_RINGS, Arrangement, Subspace
from .cyclo import CycRat, cyc_from_json, cyc_to_json
from .errors import InvalidArrangement
from .lattices import GraphSpec, reflection, orbit_expand, ring_of
from .series import OrbitWindow


def load_json(source: str):
    """Parse inline JSON if it looks like it, otherwise read the file."""
    s = source.strip()
    if s.startswith(("{", "[")):
        return json.loads(s)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def scalar_to_json(x):
    if isinstance(x, CycRat):
        return cyc_to_json(x)
    return str(Fraction(x))


def scalar_from_json(obj, field: str):
    if field == "Q":
        if isinstance(obj, (str, int)):
            return Fraction(str(obj))
        raise ValueError("rational expected, got %r" % (obj,))
    return cyc_from_json(obj, FIELD_RINGS[field])


def vector_to_json(v):
    return [scalar_to_json(c) for c in v]


def matrix_to_json(M):
    return [vector_to_json(row) for row in M]


def complex_to_json(c: complex):
    return {"re": c.real, "im": c.imag}


def graph_from_json(obj):
    k = int(obj.get("k", 4))
    graph = GraphSpec(int(obj["vertices"]), [tuple(e) for e in obj.get("edges", [])])
    return graph, k


def graph_to_json(graph: GraphSpec, k: int):
    return {"k": k, "vertices": graph.vertex_count, "edges": [list(e) for e in graph.edges]}


def arrangement_from_json(obj) -> Arrangement:
    if not isinstance(obj, dict):
        raise InvalidArrangement("arrangement must be a JSON object")
    field = obj.get("field", "Q")
    if field not in ("Q", "Qi", "Qw"):
        raise InvalidArrangement("unknown field %r" % (field,))
    n = obj.get("dim")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidArrangement("dim must be an integer, got %r" % (n,))
    planes = obj.get("hyperplanes")
    if not isinstance(planes, list):
        raise InvalidArrangement("hyperplanes must be a list, got %r" % (planes,))
    hyperplanes = []
    for i, h in enumerate(planes):
        if not isinstance(h, dict):
            raise InvalidArrangement("hyperplanes[%d] must be an object" % i)
        if not isinstance(h.get("covector"), list):
            raise InvalidArrangement("hyperplanes[%d].covector must be a list" % i)
        cov = [scalar_from_json(c, field) for c in h["covector"]]
        off = scalar_from_json(h.get("offset", "0" if field == "Q" else 0), field)
        hyperplanes.append((cov, off))
    return Arrangement(field, n, hyperplanes)


def arrangement_to_json(arr: Arrangement):
    return {
        "field": arr.field,
        "dim": arr.ambient_dim,
        "hyperplanes": [
            {"covector": vector_to_json(cov), "offset": scalar_to_json(off)}
            for cov, off in arr.hyperplanes
        ],
    }


def subspace_to_json(L: Subspace):
    return {
        "dim": L.dim,
        "equations": [
            {"coeffs": vector_to_json(row[:-1]), "rhs": scalar_to_json(row[-1])}
            for row in L.rows
        ],
        "text": L.equations_text(),
    }


def cyc_vector_from_json(obj, k: int):
    return tuple(cyc_from_json(c, k) for c in obj)


def window_from_json(obj, gram) -> OrbitWindow:
    """Window as explicit vectors or as an orbit expansion spec."""
    k = ring_of(gram)
    n = len(gram) - 1
    if "vectors" in obj:
        vectors = [cyc_vector_from_json(v, k) for v in obj["vectors"]]
        return OrbitWindow(tuple(vectors), n)
    spec = obj["orbit"]
    seeds = [cyc_vector_from_json(v, k) for v in spec["seeds"]]
    gens = []
    for r in spec.get("reflections", []):
        root = cyc_vector_from_json(r["root"], k)
        mu = cyc_from_json(r.get("mu", -1), k)
        gens.append(reflection(gram, root, mu))
    depth = int(spec.get("depth", 1))
    vectors = orbit_expand(gram, seeds, gens, depth)
    return OrbitWindow(tuple(vectors), n)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
