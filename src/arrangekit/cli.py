"""Command-line interface: JSON in, JSON out, deterministic ordering.

Subcommands map one-to-one onto the library: lattice, poset, strata,
minimal-centers, hat-strata, cremona, cusps, jsys, obstruction, series,
check.  Usage errors exit 2 (argparse); domain errors exit 1 with a
structured {"error": ...} payload on stdout.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import jsonio
from .arrangements import (
    FIELD_RINGS,
    Arrangement,
    Subspace,
    build_poset,
    enumerate_flags,
    hat_map,
    hat_strata,
    minimal_blowup_centers,
    stratum_of_flag,
    weyl_arrangement,
)
from .ball import (
    HermSpace,
    arithmetic_system,
    cusp_obstruction_check,
    cusp_scan,
    heisenberg_transvection,
)
from .cyclo import CycRat, parse_cycrat
from .errors import ArrangeKitError, UnsupportedType
from .lattices import (
    apply_matrix,
    enumerate_by_norm,
    gram_matrix,
    is_root,
    orbit_expand,
    perp_covector,
    preserves_form,
    pullback_gram,
    reflection,
    signature,
)
from .presets import (
    boolean_hyperplanes,
    braid_hyperplanes,
    concurrent_lines,
    dynkin_graph,
)
from .series import (
    PlanarLattice,
    cusp_limit_check,
    poincare_weierstrass,
    weierstrass_pk,
)


# ---------------------------------------------------------------------------
# shared input plumbing


def _lattice_inputs(args):
    if args.preset:
        graph = dynkin_graph(args.preset)
        k = args.ring or 4
    elif args.input:
        obj = jsonio.load_json(args.input)
        graph, k = jsonio.graph_from_json(obj)
        if args.ring:
            k = args.ring
    else:
        raise ValueError("need --preset or --input for the lattice")
    return gram_matrix(graph, k), k


def arrangement_preset(name: str) -> Arrangement:
    key = name.strip().lower()
    if key.startswith("boolean") and key[7:].isdigit():
        n = int(key[7:])
        return Arrangement("Q", n, boolean_hyperplanes(n))
    if key.startswith("lines") and key[5:].isdigit():
        return Arrangement("Q", 2, concurrent_lines(int(key[5:])))
    if key.startswith("braid") and key[5:].isdigit():
        n = int(key[5:])
        return Arrangement("Q", n, braid_hyperplanes(n))
    if key.startswith("weyl-"):
        return weyl_arrangement(name.strip()[5:])
    raise UnsupportedType("unknown arrangement preset %r" % (name,))


def _arrangement_inputs(args):
    if getattr(args, "preset", None):
        return arrangement_preset(args.preset)
    if args.input:
        return jsonio.arrangement_from_json(jsonio.load_json(args.input))
    raise ValueError("need --preset or --input for the arrangement")


def _parse_point(text: str, field: str):
    parts = [p.strip() for p in text.split(",")]
    if field == "Q":
        return [Fraction(p) for p in parts]
    k = FIELD_RINGS[field]
    return [parse_cycrat(p, k) for p in parts]


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_lattice(args):
    M, k = _lattice_inputs(args)
    out = {}
    if args.gram:
        out["gram"] = jsonio.matrix_to_json(M)
        out["k"] = k
    if args.roots or args.enumerate is not None:
        target = Fraction(k, 2) if args.roots else Fraction(args.enumerate)
        vectors = enumerate_by_norm(M, target, args.bound)
        if args.count:
            out["count"] = len(vectors)
        else:
            out["vectors"] = [jsonio.vector_to_json(v) for v in vectors]
    if args.signature or not out:
        out["signature"] = list(signature(M).as_tuple())
    return out


def cmd_poset(args):
    arr = _arrangement_inputs(args)
    poset = build_poset(arr)
    if args.count:
        return {"elements": len(poset)}
    if args.dot:
        return _poset_dot(poset)
    elements = []
    for L in poset.elements:
        entry = jsonio.subspace_to_json(L)
        entry["members"] = list(poset.members_of(L))
        elements.append(entry)
    return {"elements": elements}


def _poset_dot(poset) -> str:
    lines = ["digraph poset {"]
    elements, masks = poset.elements, poset.masks
    for i, L in enumerate(elements):
        lines.append('  L%d [label="%s (dim %d)"];' % (i, L.equations_text(), L.dim))
    # flats are ranked by dimension, so the covers of L are the flats one
    # dimension up that contain it
    for i, L in enumerate(elements):
        for j, Lp in enumerate(elements):
            if Lp.dim == L.dim + 1 and not masks[j] & ~masks[i]:
                lines.append("  L%d -> L%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_strata(args):
    arr = _arrangement_inputs(args)
    poset = build_poset(arr)
    max_len = args.max_len or arr.ambient_dim
    flags = enumerate_flags(poset, max_len)
    out = []
    for flag in flags:
        st = stratum_of_flag(poset, flag)
        out.append(
            {
                "chain": [jsonio.subspace_to_json(L) for L in flag.chain],
                "factor_dims": list(st.factor_dims),
                "total_dim": st.total_dim,
            }
        )
    return {"strata": out}


def cmd_minimal_centers(args):
    arr = _arrangement_inputs(args)
    poset = build_poset(arr)
    centers = minimal_blowup_centers(poset)
    return {"centers": [jsonio.subspace_to_json(L) for L in centers]}


def cmd_hat_strata(args):
    arr = _arrangement_inputs(args)
    poset = build_poset(arr)
    strata = hat_strata(poset, projective=args.projective)
    return {"strata": [{"label": label, "dim": dim} for label, dim in strata]}


def cmd_cremona(args):
    arr = _arrangement_inputs(args)
    point = _parse_point(args.point, arr.field)
    image = hat_map(point, arr)
    return {"point": jsonio.vector_to_json(image)}


def cmd_cusps(args):
    M, k = _lattice_inputs(args)
    cusps = cusp_scan(M, args.bound)
    if args.count:
        return {"count": len(cusps)}
    return {"cusps": [jsonio.vector_to_json(v) for v in cusps], "k": k}


def _cusp_from_args(args, M, k):
    if args.cusp:
        obj = jsonio.load_json(args.cusp)
        return jsonio.cyc_vector_from_json(obj, k)
    cusps = cusp_scan(M, args.bound)
    if not cusps:
        raise ValueError("no cusps in the box; raise --bound")
    idx = args.cusp_index
    if not (0 <= idx < len(cusps)):
        raise ValueError("cusp index %d out of range (%d found)" % (idx, len(cusps)))
    return cusps[idx]


def cmd_jsys(args):
    M, k = _lattice_inputs(args)
    space = HermSpace.from_gram(M)
    arr = jsonio.arrangement_from_json(jsonio.load_json(args.arrangement))
    cusp = _cusp_from_args(args, M, k)
    J = arithmetic_system(space, arr, cusp)
    zero = CycRat(0, 0, k)
    Iperp = Subspace.from_rows(
        [tuple(perp_covector(space.gram, cusp)) + (zero,)], space.size
    )
    return {
        "cusp": jsonio.vector_to_json(cusp),
        "J": jsonio.subspace_to_json(J),
        "I_in_J": J.contains_point(cusp),
        "J_in_I_perp": Iperp.contains(J),
    }


def cmd_obstruction(args):
    M, k = _lattice_inputs(args)
    space = HermSpace.from_gram(M)
    arr = jsonio.arrangement_from_json(jsonio.load_json(args.arrangement))
    cusp = _cusp_from_args(args, M, k)
    report = cusp_obstruction_check(space, arr, cusp)
    return {
        "cusp": jsonio.vector_to_json(cusp),
        "kind": report.kind,
        "dim": report.dim,
    }


def _series_point(entries, k):
    out = []
    for c in entries:
        if isinstance(c, dict) and "re" in c:
            out.append(complex(c["re"], c.get("im", 0.0)))
        else:
            out.append(jsonio.cyc_from_json(c, k))
    return tuple(out)


def _series_result_json(res):
    out = {
        "terms_used": res.terms_used,
        "tail_estimate": res.tail_estimate,
        "value": jsonio.complex_to_json(res.value),
    }
    if res.poles_hit:
        out["poles_hit"] = [[i, r] for i, r in res.poles_hit]
    return out


def cmd_series(args):
    if args.kind == "weierstrass":
        lat = PlanarLattice(complex(args.omega1), complex(args.omega2))
        res = weierstrass_pk(complex(args.z), lat, args.k, args.radius)
        return _series_result_json(res)

    obj = jsonio.load_json(args.input)
    gram, k = jsonio.series_lattice_from_json(obj)
    window = jsonio.window_from_json(obj["window"], gram)
    z = _series_point(obj["z"], k)
    l = args.l or obj["l"]
    if args.kind == "poincare":
        res = poincare_weierstrass(z, window, l, gram)
        return _series_result_json(res)
    # cusp-limit
    e = jsonio.cyc_vector_from_json(obj["e"], k)
    if args.s_values:
        s_values = [float(s) for s in args.s_values.split(",")]
    else:
        s_values = [float(s) for s in obj.get("s_values", [0.0, 1.0, 2.0])]
    out = cusp_limit_check(z, window, l, gram, e, s_values)
    return {
        "s_values": list(out.s_values),
        "results": [_series_result_json(r) for r in out.results],
        "stable_value": jsonio.complex_to_json(out.stable_value),
        "stable_count": out.stable_count,
        "decaying_count": out.decaying_count,
        "decaying_abs": list(out.decaying_abs),
        "s0": out.s0,
        "monotone": out.monotone,
    }


# ---------------------------------------------------------------------------
# self-check suites


def _model_13_space():
    # hyperbolic pair plus two negative directions over Q(zeta_4)
    def c(a, b=0):
        return CycRat(a, b, 4)

    M = [
        [c(0), c(1), c(0), c(0)],
        [c(1), c(0), c(0), c(0)],
        [c(0), c(0), c(-1), c(0)],
        [c(0), c(0), c(0), c(-1)],
    ]
    return HermSpace(M)


def _random_cyc(rng, k, span=3):
    return CycRat(rng.randint(-span, span), rng.randint(-span, span), k)


def _check_heisenberg():
    space = _model_13_space()
    e = (CycRat(1, 0, 4), CycRat(0, 0, 4), CycRat(0, 0, 4), CycRat(0, 0, 4))
    rng = random.Random(20240817)
    zero = CycRat(0, 0, 4)
    checks = []
    ok_comp = True
    ok_unit = True
    for _ in range(25):
        u = (_random_cyc(rng, 4), zero, _random_cyc(rng, 4), _random_cyc(rng, 4))
        v = (_random_cyc(rng, 4), zero, _random_cyc(rng, 4), _random_cyc(rng, 4))
        Tu = heisenberg_transvection(space, e, u)
        Tv = heisenberg_transvection(space, e, v)
        prod = [
            [
                sum((Tu[i][p] * Tv[p][j] for p in range(4)), zero)
                for j in range(4)
            ]
            for i in range(4)
        ]
        shift = space.psi(u, v) / 2
        w = tuple(uc + vc + shift * ec for uc, vc, ec in zip(u, v, e))
        Tw = heisenberg_transvection(space, e, w)
        if prod != Tw:
            ok_comp = False
        if not preserves_form([list(r) for r in space.gram], Tu):
            ok_unit = False
    checks.append(("composition_law_25_pairs", ok_comp))
    checks.append(("transvections_preserve_form", ok_unit))
    ident = heisenberg_transvection(space, e, (zero, zero, zero, zero))
    checks.append(
        ("zero_vector_gives_identity", all(ident[i][i] == 1 for i in range(4)))
    )
    return checks


def _check_unitarity():
    M = gram_matrix(dynkin_graph("E7"), 4)
    checks = []
    rng = random.Random(94)
    roots = enumerate_by_norm(M, 2, 1)
    sample = [roots[rng.randrange(len(roots))] for _ in range(12)]
    ok_preserve = True
    ok_eigen = True
    for r in sample:
        for mu in (CycRat(0, 1, 4), CycRat(-1, 0, 4)):
            S = reflection(M, r, mu)
            if not preserves_form(M, S):
                ok_preserve = False
            if apply_matrix(S, r) != tuple(mu * c for c in r):
                ok_eigen = False
    checks.append(("reflections_preserve_form", ok_preserve))
    checks.append(("defining_root_is_eigenvector", ok_eigen))
    A2 = gram_matrix(dynkin_graph("A2"), 6)
    # mu = zeta6^2 is the order-3 root of unity; Nm(1 - mu) = 3, so these
    # reflections keep O_6 coordinates integral (mu = -1 does not)
    mu3 = CycRat(-1, 1, 6)
    gens = [
        reflection(A2, ((CycRat(1, 0, 6)), CycRat(0, 0, 6)), mu3),
        reflection(A2, ((CycRat(0, 0, 6)), CycRat(1, 0, 6)), mu3),
    ]
    seed = ((CycRat(1, 0, 6)), CycRat(0, 0, 6))
    orbit = orbit_expand(A2, [seed], gens, 10)
    checks.append(
        ("orbit_vectors_are_roots", all(is_root(A2, v) for v in orbit))
    )
    checks.append(
        (
            "orbit_saturates_norm3_box",
            orbit == enumerate_by_norm(A2, 3, 2),
        )
    )
    return checks


def _check_signatures():
    checks = []
    E7 = gram_matrix(dynkin_graph("E7"), 4)
    checks.append(("E7_zeta4_is_6_1_0", signature(E7).as_tuple() == (6, 1, 0)))
    A10 = gram_matrix(dynkin_graph("A10"), 6)
    checks.append(("A10_zeta6_is_9_1_0", signature(A10).as_tuple() == (9, 1, 0)))
    zero3 = [[CycRat(0, 0, 4)] * 3 for _ in range(3)]
    checks.append(("zero_3x3_is_0_0_3", signature(zero3).as_tuple() == (0, 0, 3)))
    from .lattices import GraphSpec

    sigs = set()
    for a in (0, 1):
        for b in (0, 1):
            edges = [(0, 1) if a else (1, 0), (1, 2) if b else (2, 1)]
            sigs.add(signature(gram_matrix(GraphSpec(3, edges), 4)).as_tuple())
    checks.append(("A3_orientation_invariance", len(sigs) == 1))
    roots = enumerate_by_norm(E7, 2, 1)
    S = reflection(E7, roots[0], CycRat(0, 1, 4))
    checks.append(
        (
            "signature_invariant_under_pullback",
            signature(pullback_gram(E7, S)).as_tuple() == (6, 1, 0),
        )
    )
    return checks


CHECK_SUITES = {
    "heisenberg": _check_heisenberg,
    "unitarity": _check_unitarity,
    "signatures": _check_signatures,
}


def cmd_check(args):
    names = list(CHECK_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        for label, ok in CHECK_SUITES[name]():
            checks.append({"name": "%s.%s" % (name, label), "pass": bool(ok)})
    all_pass = all(c["pass"] for c in checks)
    return {"suite": args.suite, "checks": checks, "all_pass": all_pass}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrangekit",
        description="Exact arrangement posets, graph Hermitian lattices, "
        "ball-cusp geometry, and truncated series.",
    )
    parser.add_argument("--version", action="version", version="arrangekit 0.1.0")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the result here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lattice_flags(p):
        p.add_argument("--preset", help="Dynkin name: A1..A10, D4..D7, E6, E7, E8")
        p.add_argument("--input", help="graph JSON (inline or file path)")
        p.add_argument("--ring", type=int, choices=(4, 6), help="4 or 6")

    def add_arrangement_flags(p):
        p.add_argument(
            "--preset",
            help="booleanN, linesN, braidN, or weyl-<A1..A10|D4..D7|E6|E7>",
        )
        p.add_argument("--input", help="arrangement JSON (inline or file path)")

    p = sub.add_parser("lattice", parents=[common], help="graph lattice data")
    add_lattice_flags(p)
    p.add_argument("--signature", action="store_true")
    p.add_argument("--gram", action="store_true")
    p.add_argument("--roots", action="store_true", help="enumerate norm k/2 vectors")
    p.add_argument("--enumerate", metavar="NORM", help="enumerate a given norm, e.g. 0")
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("poset", parents=[common], help="intersection poset")
    add_arrangement_flags(p)
    p.add_argument("--count", action="store_true")
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("strata", parents=[common], help="flags and their stratum dimensions")
    add_arrangement_flags(p)
    p.add_argument("--max-len", type=int, default=0)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("minimal-centers", parents=[common], help="dependent loci in blowup order")
    add_arrangement_flags(p)
    p.set_defaults(func=cmd_minimal_centers)

    p = sub.add_parser("hat-strata", parents=[common], help="contraction strata (label, dim)")
    add_arrangement_flags(p)
    p.add_argument("--projective", action="store_true")
    p.set_defaults(func=cmd_hat_strata)

    p = sub.add_parser("cremona", parents=[common], help="coordinate-inverse map through sections")
    add_arrangement_flags(p)
    p.add_argument("--point", required=True, help="comma separated coordinates")
    p.set_defaults(func=cmd_cremona)

    p = sub.add_parser("cusps", parents=[common], help="primitive isotropic vectors in a box")
    add_lattice_flags(p)
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_cusps)

    def add_cusp_flags(p):
        p.add_argument("--arrangement", required=True, help="arrangement JSON over k")
        p.add_argument("--cusp", help="explicit cusp vector as JSON")
        p.add_argument("--cusp-index", type=int, default=0)
        p.add_argument("--bound", type=int, default=1)

    p = sub.add_parser("jsys", parents=[common], help="degenerate subspace of a cusp")
    add_lattice_flags(p)
    add_cusp_flags(p)
    p.set_defaults(func=cmd_jsys)

    p = sub.add_parser("obstruction", parents=[common], help="cusp intersection trichotomy")
    add_lattice_flags(p)
    add_cusp_flags(p)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("series", parents=[common], help="truncated series evaluation")
    p.add_argument(
        "--kind",
        choices=("weierstrass", "poincare", "cusp-limit"),
        default="weierstrass",
    )
    p.add_argument("--z", default="0.5", help="complex number (weierstrass kind)")
    p.add_argument("--omega1", default="1")
    p.add_argument("--omega2", default="1j")
    p.add_argument("--k", type=int, default=4, help="exponent for weierstrass")
    p.add_argument("--radius", type=int, default=50)
    p.add_argument("--input", help="JSON with gram/graph, window, z, l[, e, s_values]")
    p.add_argument("--l", type=int, default=0, help="override the exponent")
    p.add_argument("--s-values", help="comma separated, for cusp-limit")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("check", parents=[common], help="exact self-check suites")
    p.add_argument(
        "--suite",
        choices=tuple(CHECK_SUITES) + ("all",),
        default="all",
    )
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except (ArrangeKitError, ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        payload = jsonio.dump_json({"error": "%s: %s" % (type(exc).__name__, exc)})
        sys.stdout.write(payload)
        return 1
    text = out if isinstance(out, str) else jsonio.dump_json(out)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.func is cmd_check and not out["all_pass"]:
        return 1
    return 0
