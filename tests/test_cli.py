"""CLI behaviour: exit codes, JSON shapes, determinism.  Most tests call
main() in process; a few run the entry point as a separate program
(``python -m arrangekit``) against the source this module imported."""

import json
import os
import re
import subprocess
import sys

import pytest

import arrangekit
from arrangekit.arrangements import build_poset
from arrangekit.ball import perp_covector
from arrangekit.cli import arrangement_preset, main
from arrangekit.jsonio import arrangement_from_json, dump_json, vector_to_json
from arrangekit.series import PlanarLattice, weierstrass_pk


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_entry_point(*argv, **kwargs):
    """Run ``python -m arrangekit`` in a child process on the imported source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(arrangekit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "arrangekit", *argv]
    return subprocess.run(cmd, capture_output=True, env=env, **kwargs)


# -- exit codes and transport -------------------------------------------------


def test_entry_point_version_and_usage():
    out = run_entry_point("--version", text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "arrangekit 0.1.0"
    usage = run_entry_point(text=True)
    assert usage.returncode == 2


def test_entry_point_outputs_are_reproducible():
    args = ["poset", "--preset", "boolean3"]
    first = run_entry_point(*args)
    second = run_entry_point(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_domain_errors_exit_one_with_payload(capsys):
    code, out = run_json(capsys, "poset", "--preset", "nonsense9")
    assert code == 1
    assert out["error"].startswith("UnsupportedType:")
    code, out = run_json(capsys, "cremona", "--preset", "boolean3", "--point", "0,1,1")
    assert code == 1
    assert out["error"].startswith("OnArrangement:")


@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"dim": 2, "hyperplanes": 5}', "hyperplanes must"),
        ('{"dim": 2, "hyperplanes": [5]}', "hyperplanes[0] must"),
        # a string covector of the right length must not pass as a list
        ('{"dim": 1, "hyperplanes": [{"covector": "1"}]}', "hyperplanes[0].covector"),
    ],
)
def test_malformed_arrangement_json_exits_one_with_payload(capsys, doc, field):
    code, out = run_json(capsys, "poset", "--input", doc)
    assert code == 1
    assert set(out) == {"error"}
    assert out["error"].startswith("InvalidArrangement:")
    assert field in out["error"]


@pytest.mark.parametrize(
    "argv, kind, field",
    [
        (["lattice", "--input", "[1]"], "InvalidGraph", "graph must be a JSON object"),
        (["lattice", "--input", '{"vertices": 2, "edges": 5}'], "InvalidGraph", "edges must"),
        (["lattice", "--input", '{"vertices": 2, "edges": [[0]]}'], "InvalidGraph", "edges[0]"),
        (["lattice", "--input", '{"vertices": "2"}'], "InvalidGraph", "vertices"),
        (["lattice", "--input", '{"k": 5, "vertices": 2}'], "InvalidGraph", "k must"),
        (
            ["series", "--kind", "poincare", "--input",
             '{"vertices": 2, "edges": [[0, 1]], "window": 5}'],
            "InvalidWindow",
            "window must",
        ),
        (
            ["series", "--kind", "poincare", "--input",
             '{"vertices": 2, "edges": [[0, 1]], "window": {"orbit": {"seeds": 3}}}'],
            "InvalidWindow",
            "window.orbit.seeds",
        ),
    ],
)
def test_malformed_graph_or_window_json_exits_one_with_payload(capsys, argv, kind, field):
    code, out = run_json(capsys, *argv)
    assert code == 1
    assert set(out) == {"error"}
    assert out["error"].startswith(kind + ":")
    assert field in out["error"]


SERIES_GRAM = '"k": 4, "gram": [[{"a": "1"}, 0], [0, {"a": "-1"}]], "window": {"vectors": [[0, 2]]}'


@pytest.mark.parametrize(
    "kind, doc, field",
    [
        ("poincare", '{"gram": 5, "window": {"vectors": [[0, 2]]}, "z": ["1"], "l": 4}', "gram must"),
        ("poincare", '{"gram": [], "window": {"vectors": [[0, 2]]}, "z": ["1"], "l": 4}', "gram must"),
        (
            "poincare",
            '{"vertices":2,"edges":[[0,1]],"window":{"vectors":[[1,0]]},"z":5,"l":4}',
            "z must",
        ),
        ("poincare", '{%s, "z": ["1", "-1/4"], "l": "4"}' % SERIES_GRAM, "l must"),
        ("cusp-limit", '{%s, "z": ["1", "-1/4"], "l": 4, "e": 7}' % SERIES_GRAM, "e must"),
        (
            "cusp-limit",
            '{%s, "z": ["1", "-1/4"], "l": 4, "e": [1, 1], "s_values": 5}' % SERIES_GRAM,
            "s_values must",
        ),
    ],
)
def test_malformed_series_json_exits_one_with_payload(capsys, kind, doc, field):
    code, out = run_json(capsys, "series", "--kind", kind, "--input", doc)
    assert code == 1
    assert set(out) == {"error"}
    assert out["error"].startswith("InvalidSeries:")
    assert field in out["error"]


def test_output_file_redirect(capsys, tmp_path):
    target = tmp_path / "poset.json"
    code, out = run(
        capsys, "poset", "--preset", "boolean3", "--count", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"elements": 7}


# -- lattice ------------------------------------------------------------------


def test_lattice_signature(capsys):
    code, out = run_json(capsys, "lattice", "--preset", "E7", "--signature")
    assert code == 0
    assert out == {"signature": [6, 1, 0]}
    # signature is also the default report; A3 over zeta_4 degenerates
    _, out = run_json(capsys, "lattice", "--preset", "A3")
    assert out == {"signature": [2, 0, 1]}


def test_lattice_gram_and_inline_graph(capsys):
    _, out = run_json(capsys, "lattice", "--preset", "A2", "--ring", "6", "--gram")
    assert out["k"] == 6
    assert out["gram"][0][0] == {"a": "3", "b": "0"}
    assert out["gram"][0][1] == {"a": "-1", "b": "-1"}

    inline = '{"k": 6, "vertices": 2, "edges": [[0, 1]]}'
    _, out = run_json(capsys, "lattice", "--input", inline, "--signature")
    assert out == {"signature": [2, 0, 0]}


def test_lattice_enumeration_counts(capsys):
    _, out = run_json(
        capsys, "lattice", "--preset", "A2", "--ring", "6", "--roots",
        "--bound", "2", "--count",
    )
    assert out["count"] == 24
    _, out = run_json(
        capsys, "lattice", "--preset", "A2", "--ring", "6",
        "--enumerate", "0", "--count",
    )
    assert out["count"] == 0
    code, out = run_json(capsys, "lattice", "--preset", "Z5")
    assert code == 1 and "UnsupportedType" in out["error"]


# -- arrangement commands -----------------------------------------------------


def test_poset_command(capsys, tmp_path):
    _, out = run_json(capsys, "poset", "--preset", "boolean3", "--count")
    assert out == {"elements": 7}

    doc = {
        "field": "Q",
        "dim": 3,
        "hyperplanes": [
            {"covector": ["1", "0", "0"], "offset": "0"},
            {"covector": ["0", "1", "0"], "offset": "0"},
            {"covector": ["0", "0", "1"], "offset": "0"},
        ],
    }
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    _, out = run_json(capsys, "poset", "--input", str(path), "--count")
    assert out == {"elements": 7}

    _, out = run_json(capsys, "poset", "--preset", "lines3")
    assert len(out["elements"]) == 4
    origin = out["elements"][0]
    assert origin["dim"] == 0 and origin["members"] == [0, 1, 2]


def test_poset_dot_output(capsys):
    code, out = run(capsys, "poset", "--preset", "lines3", "--dot")
    assert code == 0
    assert out.startswith("digraph poset {")
    assert out.count("->") == 3  # origin under each line


PARALLEL_LINES = json.dumps(
    {
        "dim": 2,
        "hyperplanes": [
            {"covector": ["1", "0"]},
            {"covector": ["1", "0"], "offset": "1"},
            {"covector": ["0", "1"]},
            {"covector": ["1", "1"]},
        ],
    }
)


@pytest.mark.parametrize(
    "flag, value",
    [("--preset", "lines3"), ("--preset", "braid4"), ("--input", PARALLEL_LINES)],
)
def test_poset_dot_edges_are_the_covers(capsys, flag, value):
    if flag == "--preset":
        arr = arrangement_preset(value)
    else:
        arr = arrangement_from_json(json.loads(value))
    elements = build_poset(arr).elements

    def below(a, b):
        # strict inclusion by a rank test, independent of the poset's order
        return a.dim < b.dim and b.contains(a)

    covers = {
        (i, j)
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if below(a, b) and not any(below(a, c) and below(c, b) for c in elements)
    }
    code, out = run(capsys, "poset", flag, value, "--dot")
    assert code == 0
    edges = {(int(i), int(j)) for i, j in re.findall(r"L(\d+) -> L(\d+);", out)}
    assert edges == covers
    assert out.count("->") == len(covers)


def test_strata_command(capsys):
    _, out = run_json(capsys, "strata", "--preset", "boolean3", "--max-len", "1")
    assert len(out["strata"]) == 7
    assert all(s["total_dim"] == 2 for s in out["strata"])
    _, out = run_json(capsys, "strata", "--preset", "boolean3")
    assert len(out["strata"]) == 25


def test_minimal_centers_command(capsys):
    _, out = run_json(capsys, "minimal-centers", "--preset", "braid3")
    assert len(out["centers"]) == 1
    assert out["centers"][0]["dim"] == 1
    assert out["centers"][0]["text"] == "x0 - x2 = 0; x1 - x2 = 0"
    _, out = run_json(capsys, "minimal-centers", "--preset", "boolean4")
    assert out == {"centers": []}


def test_hat_strata_command(capsys):
    _, out = run_json(capsys, "hat-strata", "--preset", "boolean3")
    assert len(out["strata"]) == 8
    assert out["strata"][0] == {"label": "X", "dim": 3}
    _, out = run_json(capsys, "hat-strata", "--preset", "boolean3", "--projective")
    assert out["strata"][0] == {"label": "X", "dim": 2}


def test_cremona_command(capsys):
    _, out = run_json(capsys, "cremona", "--preset", "boolean3", "--point", "1,2,3")
    assert out == {"point": ["6", "3", "2"]}


# -- ball commands ------------------------------------------------------------


def test_cusps_command_definite_lattice(capsys):
    _, out = run_json(capsys, "cusps", "--preset", "A2", "--ring", "6", "--bound", "2")
    assert out == {"cusps": [], "k": 6}


def test_cusps_command_counts_e7_box(capsys):
    _, out = run_json(capsys, "cusps", "--preset", "E7", "--count")
    assert out == {"count": 1316}


def _root_hyperplane_json(e7_space, root):
    cov = perp_covector(e7_space.gram, root)
    return {"covector": vector_to_json(cov), "offset": {"a": "0", "b": "0"}}


def test_jsys_command(capsys, e7_space, e7_roots, e7_cusps):
    cusp = e7_cusps[0]
    arr = {
        "field": "Qi",
        "dim": 7,
        "hyperplanes": [_root_hyperplane_json(e7_space, e7_roots[0])],
    }
    code, out = run_json(
        capsys,
        "jsys", "--preset", "E7",
        "--arrangement", json.dumps(arr),
        "--cusp", json.dumps(vector_to_json(cusp)),
    )
    assert code == 0
    assert out["cusp"] == vector_to_json(cusp)
    assert out["I_in_J"] is True and out["J_in_I_perp"] is True
    assert out["J"]["dim"] in (5, 6)


def test_obstruction_command(capsys, e7_space, e7_cusps):
    cusp = e7_cusps[0]
    cusp_json = json.dumps(vector_to_json(cusp))
    through = {
        "field": "Qi",
        "dim": 7,
        "hyperplanes": [_root_hyperplane_json(e7_space, cusp)],
    }
    code, out = run_json(
        capsys,
        "obstruction", "--preset", "E7",
        "--arrangement", json.dumps(through),
        "--cusp", cusp_json,
    )
    assert code == 0
    assert (out["kind"], out["dim"]) == ("fails", 6)

    empty = {"field": "Qi", "dim": 7, "hyperplanes": []}
    _, out = run_json(
        capsys,
        "obstruction", "--preset", "E7",
        "--arrangement", json.dumps(empty),
        "--cusp", cusp_json,
    )
    assert (out["kind"], out["dim"]) == ("empty", None)


# -- series commands ----------------------------------------------------------


def test_series_weierstrass_matches_library(capsys):
    code, out = run_json(
        capsys,
        "series", "--kind", "weierstrass",
        "--z", "0.5", "--omega1", "1", "--omega2", "1j",
        "--k", "4", "--radius", "8",
    )
    assert code == 0
    direct = weierstrass_pk(0.5, PlanarLattice(1, 1j), 4, 8)
    assert out["terms_used"] == 289
    assert out["value"] == {"re": direct.value.real, "im": direct.value.imag}
    assert out["tail_estimate"] == direct.tail_estimate


SERIES_DOC = {
    "k": 4,
    "gram": [
        [{"a": "1"}, 0], [0, {"a": "-1"}],
    ],
    "window": {"vectors": [[0, 2]]},
    "z": ["1", "-1/4"],
    "l": 4,
}


def test_series_poincare_from_json(capsys):
    code, out = run_json(
        capsys, "series", "--kind", "poincare", "--input", json.dumps(SERIES_DOC)
    )
    assert code == 0
    assert out["value"] == {"re": 16.0, "im": 0.0}
    assert out["terms_used"] == 1

    code, out = run_json(
        capsys,
        "series", "--kind", "poincare",
        "--input", json.dumps(SERIES_DOC), "--l", "3",
    )
    assert code == 1
    assert out["error"].startswith("ConvergenceGuard:")


def test_series_cusp_limit_from_json(capsys):
    doc = {
        "k": 4,
        "gram": [
            [{"a": "1"}, 0, 0, 0],
            [0, {"a": "-1"}, 0, 0],
            [0, 0, {"a": "-1"}, 0],
            [0, 0, 0, {"a": "-1"}],
        ],
        "window": {"vectors": [[1, 2, -1, 0]]},
        "z": [3, 1, 1, 1],
        "l": 8,
        "e": [1, 1, 0, 0],
    }
    code, out = run_json(
        capsys,
        "series", "--kind", "cusp-limit",
        "--input", json.dumps(doc), "--s-values", "0.5,2,4",
    )
    assert code == 0
    assert out["s_values"] == [0.5, 2.0, 4.0]
    assert out["s0"] == 1.0
    assert out["decaying_abs"][0] == 1.0
    assert (out["stable_count"], out["decaying_count"]) == (0, 1)
    assert out["monotone"] is True


# -- self checks --------------------------------------------------------------


def test_check_all_suites_pass(capsys):
    code, out = run_json(capsys, "check")
    assert code == 0
    assert out["all_pass"] is True
    assert len(out["checks"]) == 12
    assert all(c["pass"] for c in out["checks"])


def test_check_single_suite(capsys):
    code, out = run_json(capsys, "check", "--suite", "signatures")
    assert code == 0
    names = [c["name"] for c in out["checks"]]
    assert len(names) == 5 and all(n.startswith("signatures.") for n in names)
