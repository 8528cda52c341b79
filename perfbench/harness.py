"""Op runner, rounds, spans, statistics and plan-building helpers shared
by every workload.

An op is one closed-loop request: the runner builds its pipeline, takes
the first element, drains the rest, then checks the output against a
plain-Python reference.  Nothing here imports the library under test;
workloads hand in callables that close over it.
"""

import gc
import statistics
import time

# Every time the benchmark reports is CPU time of the one thread that
# runs the ops.  The ops are CPU-bound (file reads come from the page
# cache and count as system time), and on a shared machine wall time
# also counts the periods when other processes hold the CPU: in one
# probe on a shared 2-CPU machine the rounds of a plan took 879 to
# 1614 ms of wall time but 860 to 1211 ms of thread time.
now_ns = time.thread_time_ns

# Returned by ``Op.first`` when the op has no observable first element
# (a fold, or a CLI call that prints its whole answer at once).
NO_FIRST = object()

SPAN_KINDS = ("build", "first", "drain", "check")


class Mismatch(Exception):
    """An op's output differs from its reference."""


class Op:
    """One op of a workload's plan.

    ``build()`` constructs the pipeline and returns a handle.
    ``first(handle)`` returns the first element or ``NO_FIRST``.
    ``rest(handle, first)`` drains the op and returns its whole output.
    ``ref()`` returns ``(expected_output, elements)``, computed in plain
    Python; ``elements`` is the number of elements the final consumer
    receives.  ``verify(output)``, when given, runs extra checks on the
    first round only (the lazy workload compares against the same op on
    sources there).
    """

    __slots__ = ("kind", "build", "first", "rest", "ref", "verify", "digest", "elems")

    def __init__(self, kind, build, first, rest, ref, verify=None):
        self.kind = kind
        self.build = build
        self.first = first
        self.rest = rest
        self.ref = ref
        self.verify = verify
        self.digest = None
        self.elems = None

    def check(self, out):
        """Compare ``out`` with the reference; return the element count."""
        if self.digest is None:
            expected, elems = self.ref()
            if out != expected:
                raise Mismatch(self.kind)
            if self.verify is not None and not self.verify(out):
                raise Mismatch(self.kind + " (representation check)")
            self.digest = digest(expected)
            self.elems = elems
        elif digest(out) != self.digest:
            raise Mismatch(self.kind)
        return self.elems


def digest(out):
    """Hash of an output: a flat list, a tuple or a scalar."""
    if isinstance(out, list):
        return (len(out), hash(tuple(out)))
    return hash(out)


class Tracer:
    """In-memory span log: (name, start_ns, end_ns, parent, op_id)."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent, op_id):
        self.spans.append((name, start, end, parent, op_id))
        return len(self.spans) - 1


class Report:
    """What one benchmark run hands back: metrics with their units,
    sample counts, op tallies, the first few errors and any spans."""

    def __init__(self):
        self.metrics = {}
        self.units = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.spans = None

    def count(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors.extend(res.errors)


class RoundResult:
    __slots__ = ("op_ns", "first_ns", "elems", "attempted", "failed", "errors")

    def __init__(self):
        self.op_ns = []
        self.first_ns = []
        self.elems = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def throughput(self):
        total = sum(self.op_ns)
        return self.elems * 1e9 / total if total else 0.0


# Expected errors are raised by the library as typed exceptions and
# turned into outputs by the op itself; anything reaching the runner is
# a failure, RecursionError included.
def run_round(ops, reset=None, tracer=None, op_base=0):
    """Run every op once, in plan order, and time it."""
    if reset is not None:
        reset()
    res = RoundResult()
    for i, op in enumerate(ops):
        res.attempted += 1
        t0 = now_ns()
        try:
            h = op.build()
            t1 = now_ns()
            f = op.first(h)
            t2 = now_ns()
            out = op.rest(h, f)
            t3 = now_ns()
            n = op.check(out)
        except Exception as exc:  # a failed op is counted, not fatal
            res.failed += 1
            if len(res.errors) < 5:
                res.errors.append("%s: %s: %s" % (op.kind, type(exc).__name__, exc))
            continue
        t4 = now_ns()
        res.op_ns.append(t3 - t0)
        if f is not NO_FIRST:
            res.first_ns.append(t2 - t0)
        res.elems += n
        if tracer is not None:
            op_id = op_base + i
            root = tracer.add("op:" + op.kind, t0, t4, None, op_id)
            tracer.add("build", t0, t1, root, op_id)
            tracer.add("first", t1, t2, root, op_id)
            tracer.add("drain", t2, t3, root, op_id)
            tracer.add("check", t3, t4, root, op_id)
    return res


def measure(ops, seconds, reset=None, min_rounds=3):
    """One warm-up round (it also computes every reference), then whole
    rounds of the same fixed plan until ``seconds`` of wall time would be
    exceeded."""
    warm = run_round(ops, reset)
    # Plans and references live for the whole run; keep the collector
    # from re-scanning them in every round.
    gc.collect()
    gc.freeze()
    rounds = []
    start = time.monotonic()
    while True:
        gc.collect()
        rounds.append(run_round(ops, reset))
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return warm, rounds


# --- plan building ------------------------------------------------------


def log_uniform(rng, lo, hi):
    return int(round(lo * (hi / lo) ** rng.random()))


def jitter(rng, size):
    """``size`` moved by at most 10%: the seed changes sizes, not the mix."""
    return max(1, int(round(size * rng.uniform(0.9, 1.1))))


def balanced(rng, options, count):
    """``count`` draws, shuffled, in which the options appear as equally
    often as ``count`` allows: the mix is the same for every seed."""
    deck = list(options) * (count // len(options) + 1)
    rng.shuffle(deck)
    return deck[:count]


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return statistics.median(values)


def self_times(spans):
    """Self time per span name: duration minus the part covered by its
    children.  Children of one parent never overlap here."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        key = "op" if name.startswith("op:") else name
        out[key] = out.get(key, 0) + (end - start) - child_ns[i]
    return out
