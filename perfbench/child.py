"""Helper processes of the benchmark.

    python perfbench/child.py setup WORKLOAD SEED OUT_DIR
        Import spanv and build the workload's instances or files in a
        fresh interpreter; print {"setup_s": seconds} as JSON.

    python perfbench/child.py cli TRACE_JSON ARGS...
        Run ``spanv ARGS...`` with the per-layer tracer installed and
        write the trace summary to TRACE_JSON; exit with spanv's code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def setup(workload, seed, out_dir):
    import workloads

    rng = random.Random(int(seed))
    if workload == workloads.CLI:
        workloads.build_cli_files(rng, ROOT, out_dir)
    else:
        workloads.build(workload, rng)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


def traced_cli(trace_path, argv):
    import spanv.cli
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return spanv.cli.main(argv)
    finally:
        tracer.remove()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    sys.exit("unknown mode %r" % mode)
