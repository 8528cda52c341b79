"""The streamgen benchmark.

    python3 perfbench/run.py --workload pipe --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a fixed op plan built from ``--seed`` and run by one
closed-loop caller in one thread: every op (build a pipeline, take its
first element, drain it) completes before the next one starts.  After
one warm-up round that also checks every output in full against a
plain-Python reference, whole rounds of the same plan repeat until
``--seconds`` would be exceeded; every round checks its outputs again.

``--trace 0`` prints the end-to-end metrics of the chosen workload.
``--trace 1`` prints the per-layer metrics instead: isolation kernels,
scaling probes and retained memory (see ``layers.py``), plus span
self-time shares and tracing overhead for every workload.  It does a
fixed amount of work and is the only run that starts ``tracemalloc``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the environment, every metric and, for a traced run, the spans goes to
``.bench_out/``; generated input files live in ``.bench_tmp/`` while the
run lasts.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import sys

import layers
from harness import Report, measure, median, now_ns, quantile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

# Why each workload is in the benchmark.
WORKLOADS = {
    "pipe": (
        "pipe_ops",
        "Linear source pipelines: time goes to core, the linear combinators and engines; "
        "no product, lazy list, parser or reader runs.",
    ),
    "fair": (
        "fair_ops",
        "Fair products, setify and render: stresses product histories, buffers, engines and values, "
        "including the quadratic finite-side path.",
    ),
    "text": (
        "text_ops",
        "Expression text through cli.main and parse/eval, malformed texts, and file readers: "
        "the only workload where lang, io_streams and cli do real work.",
    ),
    "lazy": (
        "lazy_ops",
        "Lazy-list walks, maps, sums and transports with memo re-reads beside fresh forcing: "
        "lazylist is measured nowhere else.",
    ),
}
SETUP_REPEATS = 7
END_TO_END_UNITS = {
    "throughput_eps": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The checkout does not hold the library's sources."""


def load_library():
    """Import ``streamgen`` (and its CLI) afresh from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "streamgen", "__init__.py")):
        raise SetupError("no streamgen sources under %s" % SRC)
    for name in [m for m in sys.modules if m == "streamgen" or m.startswith("streamgen.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    sg = importlib.import_module("streamgen")
    importlib.import_module("streamgen.cli")
    if not os.path.abspath(sg.__file__).startswith(SRC + os.sep):
        raise SetupError("streamgen was imported from %s, not %s" % (sg.__file__, SRC))
    return sg


def setup(workload, seed, tmp):
    """Import the library and build the workload's inputs; timed."""
    t0 = now_ns()
    sg = load_library()
    module = importlib.import_module(WORKLOADS[workload][0])
    ops, reset = module.plan(sg, random.Random(seed), {"tmp": tmp})
    return (now_ns() - t0) / 1e9, ops, reset


def repeated_setup(workload, seed, tmp):
    """Set up ``SETUP_REPEATS`` times; keep the last, report the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, ops, reset = setup(workload, seed, tmp)
        times.append(elapsed)
    return median(times), ops, reset


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit():
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(workload, seed, seconds, trace):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "workload": workload,
        "why": WORKLOADS[workload][1],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_untraced(workload, seed, seconds, tmp):
    setup_s, ops, reset = repeated_setup(workload, seed, tmp)
    warm, rounds = measure(ops, seconds, reset)
    report = Report()
    for res in [warm] + rounds:
        report.count(res)
    op_ns = [t for r in rounds for t in r.op_ns]
    first_ns = [t for r in rounds for t in r.first_ns]
    p99 = quantile(op_ns, 0.99)
    report.metrics = {
        "throughput_eps": median([r.throughput() for r in rounds]),
        "op_ms_p50": quantile(op_ns, 0.5) / 1e6,
        "op_ms_p99": p99 / 1e6,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": setup_s,
    }
    report.units = dict(END_TO_END_UNITS)
    # Printed but not gated: on a shared machine the time to the first
    # element halves when the host is quiet, a swing larger than any
    # bound allows.  The traced run reports it per workload.
    report.samples = {
        "first_us_p50": quantile(first_ns, 0.5) / 1e3,
        "error_rate": report.failed / report.attempted,
        "rounds": len(rounds),
        "op_samples": len(op_ns),
        "op_samples_beyond_p99": sum(1 for t in op_ns if t > p99),
        "first_samples": len(first_ns),
    }
    return report


def run_traced(workload, seed, seconds, tmp):
    sg = load_library()

    def plan_for(w, tap=None):
        module = importlib.import_module(WORKLOADS[w][0])
        extra = {"tap": tap} if tap is not None else {}
        return module.plan(sg, random.Random(seed), {"tmp": os.path.join(tmp, w)}, **extra)

    return layers.run_all(sg, seed, tmp, plan_for)


def main(argv=None):
    parser = argparse.ArgumentParser(description="The streamgen benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tmp = os.path.join(TMP_DIR, "%s-%d" % (args.workload, os.getpid()))
    try:
        run = run_traced if args.trace else run_untraced
        report = run(args.workload, args.seed, args.seconds, tmp)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    for err in report.errors:
        print("failure " + err)
    for name, value in report.metrics.items():
        print("metric %-36s %14.6g %s" % (name, value, report.units[name]))
    for name, value in report.samples.items():
        print("sample %s %s" % (name, value))
    record = dict(vars(report), env=env)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f)
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": report.units[name]} for name, value in report.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
