"""Self-test of the benchmark harness; takes well under a minute.

    python3 perfbench/selftest.py

1. Smoke: every workload at --size tiny, untraced and traced, must pass
   its correctness gate and print exactly the metrics BENCHMARK.json names.
2. Negative: the gate is handed deliberately wrong expected values (kept
   here, not in the program or the workloads); the run must then report a
   nonzero fail_ratio.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402


def result(workload, trace=0, expected=None):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, expected=expected)
    assert code == 0, code
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            doc = result(workload, trace)
            assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0, (workload, trace, doc)
            assert set(doc["metrics"]) == want[trace], (workload, trace, set(doc["metrics"]) ^ want[trace])
            for name, m in doc["metrics"].items():
                assert m["unit"] == units[name], (name, m["unit"])
        print("smoke ok: %s" % workload)

    import wl_cli_session
    import wl_cusp_census

    wrong = copy.deepcopy(wl_cusp_census.EXPECTED)
    wrong[("E6", 6)]["cusps"] = 15  # the scanner finds 16
    wrong_digests = dict(wl_cli_session.DIGESTS, **{"cusps --preset E6 --ring 6": "0" * 64})
    for workload, expected in (("cusp_census", wrong), ("cli_session", wrong_digests)):
        doc = result(workload, expected=expected)
        assert not doc["correct"] and doc["failed"] > 0, (workload, doc)
        print("negative ok: %s reports fail_ratio %d/%d" % (workload, doc["failed"], doc["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
