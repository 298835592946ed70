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
from .errors import InvalidArrangement, InvalidGraph, InvalidSeries, InvalidWindow
from .lattices import GraphSpec, gram_matrix, reflection, orbit_expand, ring_of
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(obj):
    if not isinstance(obj, dict):
        raise InvalidGraph("graph must be a JSON object")
    k = obj.get("k", 4)
    if not _is_int(k) or k not in (4, 6):
        raise InvalidGraph("k must be 4 or 6, got %r" % (k,))
    n = obj.get("vertices")
    if not _is_int(n):
        raise InvalidGraph("vertices must be an integer, got %r" % (n,))
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise InvalidGraph("edges must be a list, got %r" % (edges,))
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise InvalidGraph("edges[%d] must be a list of two integers" % i)
    return GraphSpec(n, [tuple(e) for e in edges]), k


def graph_to_json(graph: GraphSpec, k: int):
    return {"k": k, "vertices": graph.vertex_count, "edges": [list(e) for e in graph.edges]}


def arrangement_from_json(obj) -> Arrangement:
    if not isinstance(obj, dict):
        raise InvalidArrangement("arrangement must be a JSON object")
    field = obj.get("field", "Q")
    if field not in ("Q", "Qi", "Qw"):
        raise InvalidArrangement("unknown field %r" % (field,))
    n = obj.get("dim")
    if not _is_int(n):
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


def _vectors_from_json(obj, field: str, k: int):
    if not isinstance(obj, list):
        raise InvalidWindow("%s must be a list, got %r" % (field, obj))
    for i, v in enumerate(obj):
        if not isinstance(v, list):
            raise InvalidWindow("%s[%d] must be a list" % (field, i))
    return [cyc_vector_from_json(v, k) for v in obj]


def window_from_json(obj, gram) -> OrbitWindow:
    """Window as explicit vectors or as an orbit expansion spec."""
    if not isinstance(obj, dict):
        raise InvalidWindow("window must be a JSON object, got %r" % (obj,))
    k = ring_of(gram)
    n = len(gram) - 1
    if "vectors" in obj:
        vectors = _vectors_from_json(obj["vectors"], "window.vectors", k)
        return OrbitWindow(tuple(vectors), n)
    spec = obj.get("orbit")
    if not isinstance(spec, dict):
        raise InvalidWindow("window needs a vectors list or an orbit object")
    seeds = _vectors_from_json(spec.get("seeds"), "window.orbit.seeds", k)
    reflections = spec.get("reflections", [])
    if not isinstance(reflections, list):
        raise InvalidWindow("window.orbit.reflections must be a list")
    gens = []
    for i, r in enumerate(reflections):
        if not (isinstance(r, dict) and isinstance(r.get("root"), list)):
            raise InvalidWindow(
                "window.orbit.reflections[%d] must be an object with a root list" % i
            )
        root = cyc_vector_from_json(r["root"], k)
        mu = cyc_from_json(r.get("mu", -1), k)
        gens.append(reflection(gram, root, mu))
    depth = spec.get("depth", 1)
    if not _is_int(depth):
        raise InvalidWindow("window.orbit.depth must be an integer, got %r" % (depth,))
    vectors = orbit_expand(gram, seeds, gens, depth)
    return OrbitWindow(tuple(vectors), n)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def series_lattice_from_json(obj):
    """Gram and ring of a series document (a "gram" over O_k or a graph).

    Also checks the shapes of z, e, l and s_values, where present.
    """
    if not isinstance(obj, dict):
        raise InvalidSeries("series input must be a JSON object")
    for name in ("z", "e"):
        if not isinstance(obj.get(name, []), list):
            raise InvalidSeries("%s must be a list, got %r" % (name, obj[name]))
    if not _is_int(obj.get("l", 0)):
        raise InvalidSeries("l must be an integer, got %r" % (obj["l"],))
    s_values = obj.get("s_values", [])
    if not (isinstance(s_values, list) and all(map(_is_number, s_values))):
        raise InvalidSeries("s_values must be a list of numbers, got %r" % (s_values,))
    if "gram" not in obj:
        graph, k = graph_from_json(obj)
        return gram_matrix(graph, k), k
    k = obj.get("k", 4)
    if not _is_int(k) or k not in (4, 6):
        raise InvalidSeries("k must be 4 or 6, got %r" % (k,))
    rows = obj["gram"]
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) and len(row) == len(rows) for row in rows)
    ):
        raise InvalidSeries("gram must be a nonempty square list of lists")
    return [[cyc_from_json(c, k) for c in row] for row in rows], k


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
