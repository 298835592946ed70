"""Run one CLI command under the tracer; used by the traced cli_session pass.

    python3 perfbench/cli_child.py OUT.json <cli arguments...>

Imports the CLI as the plain entry point does, installs the tracer, enters
main, and on exit writes the span summary to OUT.json and the spans to
OUT.json.spans.  PERFBENCH_T0 holds the parent's perf_counter() reading
taken just before it started this process (the clock is system-wide), so
process_start_s covers interpreter start and imports up to main, minus the
time spent installing the tracer.
"""

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from arrangekit import cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def run(out_path, argv):
    t0 = perf_counter()
    tracer = Tracer().install()
    install_s = perf_counter() - t0
    start_s = perf_counter() - float(os.environ["PERFBENCH_T0"]) - install_s
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["process_start_s"] = start_s
        summary["install_s"] = install_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.dump_spans(out_path + ".spans")


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
