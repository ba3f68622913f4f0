"""The spanv benchmark: time to verdict, set-up time and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; spanv is imported from its
``src`` directory.  With ``--trace 0`` the workload is timed pass after
pass for S seconds, alternating with units of a fixed reference kernel
that gauge the machine's speed at the time, and the end-to-end metrics
are reported; with
``--trace 1`` a separate run times the calls into every layer with the
tracer in ``tracing.py`` and reports per-layer metrics.  Every verdict is
checked against a known answer.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

See README.md in this directory for the workloads and the metrics.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("span-trivial", "span-finset", "mat-zp", "cli-files")
REQUIRED = ("src/spanv/__init__.py", "fixtures", "tests/golden", "BENCHMARK.json")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
TRACED_REPS = 2
CHILD_TIMEOUT_S = 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# runs spanv's command line, then copies the process's own status, whose
# VmHWM is its peak resident memory: ru_maxrss of a spawned child also
# counts the parent's memory at the time of the exec
CLI_MAIN = """import sys
status = sys.argv.pop(1)
try:
    from spanv.cli import main
    code = main()
finally:
    with open("/proc/self/status") as src, open(status, "w") as dst:
        dst.write(src.read())
sys.exit(code)
"""
# reference units are run between verdicts until they take this share of
# the time the verdicts took
REF_SHARE = 0.5


# ------------------------------------------------------------ environment

def configure_environment():
    """Cap BLAS threads at the cores this process may use, before numpy
    is imported here or in any child, and make spanv importable."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var)
        threads = nproc if current is None or not current.isdigit() else min(int(current), nproc)
        os.environ[var] = str(max(threads, 1))
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                      if os.environ.get("PYTHONPATH") else "")
    return nproc


def environment(nproc):
    import numpy as np

    blas = "unknown"
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    if "blas" in deps:
        blas = "%s %s" % (deps["blas"].get("name"), deps["blas"].get("version"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc, "blas": blas,
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS}}


# --------------------------------------------------------------- children

class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def spawn(argv, work, tag):
    """Run argv to completion with its output in files under work.

    Returns (exit code, wall seconds from spawn to exit, stdout text,
    stderr text).  A child still running after
    CHILD_TIMEOUT_S is killed and reported with exit code None.
    """
    out_path = os.path.join(work, tag + ".out")
    err_path = os.path.join(work, tag + ".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except BaseException as err:  # timeout or termination: end the child first
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        if not isinstance(err, ChildTimeout):
            raise
        code = None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    return code, wall, out, err


def setup_child(workload, seed, work, tag):
    """Set-up time of one fresh interpreter."""
    out_dir = os.path.join(work, tag)
    os.makedirs(out_dir)
    code, _, out, err = spawn([sys.executable, os.path.join(HERE, "child.py"), "setup",
                                  workload, str(seed), out_dir], work, tag)
    if code != 0:
        raise RuntimeError("set-up child failed (exit %s):\n%s" % (code, err))
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def import_time(work):
    """Wall time of a fresh interpreter that only imports spanv.cli."""
    walls = []
    for i in range(IMPORT_SAMPLES):
        code, wall, _, err = spawn([sys.executable, "-c", "import spanv.cli"],
                                      work, "import-%d" % i)
        if code != 0:
            raise RuntimeError("importing spanv.cli failed:\n%s" % err)
        walls.append(wall)
    return statistics.median(walls)


# -------------------------------------------------------------- reference

def reference_unit():
    """A fixed piece of work that does not touch spanv, of the kinds of
    work spanv does: dictionary and tuple churn in Python, small integer
    matrix products, and sorting and deduplicating integer arrays larger
    than a core's cache.  About 0.1 s on the machine the benchmark was
    written on."""
    import numpy as np

    counts = {}
    x = 12345
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 997, x // 997 % 991)
        counts[key] = counts.get(key, 0) + 1
    keys = sorted(counts.items())
    a = np.arange(4096, dtype=np.int64).reshape(64, 64) % 7
    for _ in range(60):
        a = (a @ a) % 7 + 1
    v = np.arange(1 << 18, dtype=np.int64) * 2654435761 % 1000003
    distinct = 0
    for _ in range(2):
        u, inverse = np.unique(v[np.argsort(v, kind="stable")], return_inverse=True)
        distinct += int(u.size) + int(inverse[-1])
        v = (v * 31 + 7) % 1000003
    return len(keys), int(a.sum()), distinct


class Reference:
    """Reference units interleaved with the measured work, so that the
    work can be expressed in units of what the machine managed at the
    same moments.  ``after(seconds)`` is called after each piece of
    measured work and runs units until they have taken REF_SHARE of it."""

    def __init__(self):
        self.answer = reference_unit()
        self.units = 0
        self.seconds = 0.0
        self.owed = 0.0

    def after(self, work_s):
        self.owed += REF_SHARE * work_s
        while self.owed > 0:
            t0 = time.perf_counter()
            answer = reference_unit()
            dt = time.perf_counter() - t0
            if answer != self.answer:
                raise RuntimeError("reference unit gave %r, then %r" % (self.answer, answer))
            self.units += 1
            self.seconds += dt
            self.owed -= dt

    def unit_s(self):
        return self.seconds / self.units


# ----------------------------------------------------------------- passes

class Tally:
    """Verdicts attempted, missed (crash or wrong answer), and wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.misses = {}

    def add(self, name, outcome, detail=""):
        self.attempted += 1
        if outcome != "ok":
            self.failed += 1
            self.misses.setdefault((name, outcome), detail)
        if outcome == "wrong":
            self.wrong += 1


def in_process_pass(verdicts, tally, ref=None):
    """Decide every instance once, with reference units between the
    verdicts when ref is given.  Returns (pass wall without the
    reference units, route times)."""
    gc.collect()
    routes = {"direct": 0.0, "span": 0.0}
    outcomes = []
    for v in verdicts:
        t0 = time.perf_counter()
        try:
            results, error = v.run(), None
        except Exception:  # a check that raises is a missed verdict; keep going
            results, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        routes[v.route] += dt
        outcomes.append((v, results, error))
        if ref is not None:
            ref.after(dt)
    wall = routes["direct"] + routes["span"]
    for v, results, error in outcomes:
        name = "%s [%s]" % (v.name, v.route)
        if error is not None:
            tally.add(name, "crash", error)
        elif v.expect(results):
            tally.add(name, "ok")
        else:
            tally.add(name, "wrong", repr(sorted(r.name for r in results if not r.ok)))
    return wall, routes


def cli_pass(cases, work, tally, traced=False, ref=None):
    """Check every file in its own spanv process, with reference units
    between the processes when ref is given.  Returns (pass wall without
    the reference units, per-file walls, peak RSS in MB of the largest
    untraced process, trace summaries)."""
    import workloads

    walls, rss, traces = [], 0.0, []
    for i, case in enumerate(cases):
        report = os.path.join(work, "report.json")
        if os.path.exists(report):
            os.remove(report)
        args = ["check", case.path, "--report", report]
        if traced:
            trace_path = os.path.join(work, "trace-%d.json" % i)
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", trace_path] + args
        else:
            status = os.path.join(work, "status")
            argv = [sys.executable, "-c", CLI_MAIN, status] + args
        code, wall, _, err = spawn(argv, work, "cli")
        walls.append(wall)
        if not traced and os.path.exists(status):
            with open(status, encoding="utf-8") as fh:
                hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
            os.remove(status)
            rss = max(rss, int(hwm[0]) / 1024.0)
        outcome = workloads.judge_cli(case, code, err, report)
        tally.add("%s (exit %s)" % (case.name, code), outcome, err[-400:])
        if traced:
            with open(trace_path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        if ref is not None:
            ref.after(wall)
    return sum(walls), walls, rss, traces


# ---------------------------------------------------------------- metrics

def tail(values):
    """(percentile, value) for the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    k = n - 10
    pct = math.floor(100 * k / n) if k > 0 else 0
    if pct <= 50:
        return None
    return pct, sorted(values)[k - 1]


def timing(values):
    out = {"value": statistics.median(values), "of": "median", "count": len(values),
           "samples": values}
    t = tail(values)
    if t is not None:
        out["p%d" % t[0]] = t[1]
    return out


def setup_phase(workload, rng, work):
    """Import spanv and build the workload; returns (what was built, seconds)."""
    t0 = time.perf_counter()
    import workloads

    if workload == workloads.CLI:
        built = workloads.build_cli_files(rng, ROOT, os.path.join(work, "files"))
    else:
        built = workloads.build(workload, rng)
    return built, time.perf_counter() - t0


def measured_run(workload, seed, seconds, work):
    """End-to-end metrics with tracing off."""
    built, setup_main = setup_phase(workload, random.Random(seed), work)
    setups = [setup_main]
    tally = Tally()
    ref = None
    walls, direct, span, cli_walls, rss_per_pass = [], [], [], [], []
    while True:
        if workload == "cli-files":
            wall, files, rss, _ = cli_pass(built, work, tally, ref=ref)
            cli_walls += files
            rss_per_pass.append(rss)
        else:
            wall, routes = in_process_pass(built, tally, ref=ref)
            direct.append(routes["direct"])
            span.append(routes["span"])
        walls.append(wall)
        if ref is None:
            # the first pass runs without reference units, so that the
            # peak memory of this process is the workload's own
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ref = Reference()
        elapsed = sum(walls) + ref.seconds
        # set-up samples are spread over the window, so that they meet the
        # same mix of machine load as the passes
        due = seconds * (len(setups) - 1) / (SETUP_SAMPLES - 1)
        if len(setups) < SETUP_SAMPLES and elapsed >= due:
            setups.append(setup_child(workload, seed, work, "setup-%d" % len(setups)))
        # stop when the next pass would end nearer to the window's end
        # after it than before it
        if len(walls) > 1 and elapsed + (elapsed - walls[0]) / (len(walls) - 1) / 2 >= seconds:
            break
    if workload == "cli-files":
        peak = statistics.median(rss_per_pass)
    del built
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_child(workload, seed, work, "setup-%d" % len(setups)))
    table = {
        "verdict_ref": ("ref-units", {"value": statistics.mean(walls[1:]) / ref.unit_s(),
                                      "of": "mean pass / mean reference unit",
                                      "count": len(walls) - 1, "units": ref.units,
                                      "unit_s": ref.unit_s()}),
        "verdict_s": ("s", timing(walls)),
        "verdict_best_s": ("s", {"value": min(walls), "of": "fastest pass",
                                 "count": len(walls)}),
        "direct_s": ("s", timing(direct) if any(direct) else None),
        "span_s": ("s", timing(span) if any(span) else None),
        "cli_s": ("s", timing(cli_walls) if cli_walls else None),
        "setup_s": ("s", timing(setups)),
        "peak_rss_mb": ("MB", {"value": peak, "of": "peak", "count": len(rss_per_pass) or 1}),
        "failed_share": ("share", {"value": tally.failed / tally.attempted, "of": "missed/attempted",
                                   "count": tally.attempted}),
    }
    return tally, table


def traced_run(workload, seed, work):
    """Per-layer metrics: one untraced pass, then TRACED_REPS traced runs
    of set-up plus one pass (for cli-files, of one pass of traced spanv
    processes), whose counts must agree exactly."""
    import tracing

    tally = Tally()
    built, _ = setup_phase(workload, random.Random(seed), work)
    if workload == "cli-files":
        untraced = cli_pass(built, work, tally)[0]
    else:
        untraced = in_process_pass(built, tally)[0]
        del built
    summaries, walls = [], []
    for _ in range(TRACED_REPS):
        gc.collect()
        if workload == "cli-files":
            wall, _, _, traces = cli_pass(built, work, tally, traced=True)
            summary = tracing.merge(traces)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                built, _ = setup_phase(workload, random.Random(seed), work)
                wall = in_process_pass(built, tally)[0]
            finally:
                tracer.remove()
            summary = tracer.summary()
            del built
        summaries.append(summary)
        walls.append(wall)
    first = tracing.counts_of(summaries[0])
    diff = {}
    for other in map(tracing.counts_of, summaries[1:]):
        diff.update({k: (v, other[k]) for k, v in first.items() if other[k] != v})
    if diff:
        print("error: traced runs with the same seed disagree: %r" % diff, file=sys.stderr)
    summary = tracing.average(summaries)
    overhead = statistics.mean(walls) - untraced
    metrics = tracing.per_layer_metrics(summary, overhead, import_time(work))
    return tally, metrics, not diff, {"untraced_pass_s": untraced, "traced_pass_s": walls}


# ----------------------------------------------------------------- output

def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def describe(table):
    lines = []
    for name, (unit, stats) in table.items():
        if stats is None:
            lines.append("%-14s n/a (this workload has no such route)" % name)
            continue
        extra = ["%s, n=%d" % (stats["of"], stats["count"])]
        tails = [k for k in stats if k.startswith("p")]
        if tails:
            extra.append("%s %.6g %s" % (tails[0], stats[tails[0]], unit))
        elif stats["of"] == "median":
            extra.append("no tail percentile: fewer than 21 samples")
        lines.append("%-14s %.6g %s  (%s)" % (name, stats["value"], unit, ", ".join(extra)))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("error: not a spanv source checkout, missing: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    # on SIGTERM unwind normally, so children are ended and files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = configure_environment()
    declared = declared_metrics(args.trace)
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        if args.trace:
            tally, metrics, deterministic, extra = traced_run(args.workload, args.seed, work)
            detail = {"per_layer": {k: v[0] for k, v in metrics.items()}, **extra}
        else:
            tally, table = measured_run(args.workload, args.seed, args.seconds, work)
            deterministic = True
            metrics = {name: (stats["value"], unit) for name, (unit, stats) in table.items()
                       if name in declared}
            detail = {"end_to_end": {name: stats for name, (_, stats) in table.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    env = environment(nproc)
    print("spanv benchmark: workload %s, seed %d, %s s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    if not args.trace:
        for line in describe(table):
            print(line)
    for (name, outcome), info in sorted(tally.misses.items()):
        print("miss: %s: %s %s" % (name, outcome, info.strip().splitlines()[-1] if info else ""))
    print("detail: %s" % json.dumps(dict(detail, environment=env, workload=args.workload,
                                         seed=args.seed)))
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        print("error: emitted metrics differ from BENCHMARK.json: %r"
              % sorted(set(emitted.items()) ^ set(declared.items())), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.wrong == 0 and deterministic,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
