"""Per-layer metrics for the traced run.

Isolation kernels: each ``*_ns`` metric times a stack of layers over
``N`` elements and subtracts the stack beneath it, per element, after a
warm-up call; each stack is timed ``REPEATS`` times and the median kept.
Scaling probes (``*_x2``): time at 2K over time at K, best of
``PROBE_REPEATS``; about 2 means linear, about 4 quadratic.  Retained
memory comes from ``tracemalloc``, started here and nowhere else.
Workload shares come from spans of two traced rounds of each workload's
plan, alternated with two untraced rounds that give the tracing
overhead and the time to the first element.  Counting passes wrap the
leaves of the pipe and fair plans.
"""

import contextlib
import gc
import io
import itertools
import operator
import os
import random
import tracemalloc

from harness import SPAN_KINDS, Report, Tracer, median, now_ns, quantile, run_round, self_times
from oracles import tree_nodes
from text_ops import to_text, tree

N = 20_000
REPEATS = 5
PROBE_REPEATS = 3
WORKLOAD_NAMES = ("pipe", "fair", "text", "lazy")

# name -> (unit, better, the end-to-end metric it should move, on which
# workload).  BENCHMARK.json lists the same metrics.
PIPE_EPS = "throughput_eps on pipe"
FAIR_EPS = "throughput_eps on fair"
LAZY_EPS = "throughput_eps on lazy"
METRICS = {
    "core.ask_ns": ("ns", "lower", PIPE_EPS),
    "core.take_ns": ("ns", "lower", PIPE_EPS),
    "engines.answer_ns": ("ns", "lower", PIPE_EPS),
    "combinators.map1_ns": ("ns", "lower", PIPE_EPS),
    "combinators.map2_ns": ("ns", "lower", PIPE_EPS),
    "combinators.scan_ns": ("ns", "lower", PIPE_EPS),
    "combinators.sum_ns": ("ns", "lower", PIPE_EPS),
    "combinators.reduce_ns": ("ns", "lower", PIPE_EPS),
    "core.leaf_asks_per_elem": ("ratio", "lower", PIPE_EPS),
    "core.leaf_asks_per_pair": ("ratio", "lower", FAIR_EPS),
    "combinators.product_ns": ("ns", "lower", FAIR_EPS),
    "combinators.convolution_ns": ("ns", "lower", FAIR_EPS),
    "combinators.cantor_ns": ("ns", "lower", FAIR_EPS),
    "values.render_ns": ("ns", "lower", FAIR_EPS),
    "values.value_key_ns": ("ns", "lower", FAIR_EPS),
    "combinators.setify_ns": ("ns", "lower", FAIR_EPS),
    "combinators.setify_keep_ratio": ("ratio", "higher", FAIR_EPS),
    "combinators.convolution_finite_x2": ("ratio", "lower", "op_ms_p99 on fair"),
    "combinators.cantor_finite_x2": ("ratio", "lower", "op_ms_p99 on fair"),
    "combinators.product_finite_x2": ("ratio", "lower", "op_ms_p99 on fair"),
    "combinators.product_retained_kib": ("KiB", "lower", "peak_rss_mib on fair"),
    "combinators.setify_retained_kib": ("KiB", "lower", "peak_rss_mib on fair"),
    "lazylist.force_ns": ("ns", "lower", LAZY_EPS),
    "lazylist.reread_ns": ("ns", "lower", LAZY_EPS),
    "lazylist.maplist_ns": ("ns", "lower", LAZY_EPS),
    "lazylist.lazy_sum_ns": ("ns", "lower", LAZY_EPS),
    "lazylist.transport1_ns": ("ns", "lower", LAZY_EPS),
    "lazylist.retained_kib": ("KiB", "lower", "peak_rss_mib on lazy"),
    "lang.tokenize_ns_char": ("ns", "lower", "text.first_us_p50 and op_ms_p50 on text"),
    "lang.parse_ns_token": ("ns", "lower", "text.first_us_p50 and op_ms_p50 on text"),
    "lang.eval_us_node": ("us", "lower", "text.first_us_p50 and op_ms_p50 on text"),
    "cli.eval_overhead_us": ("us", "lower", "op_ms_p50 on text"),
    "cli.deep_ok_depth": ("count", "higher", "none yet: deeper texts fail, so no workload holds them"),
    "io.token_reader_ns": ("ns", "lower", "throughput_eps on text"),
    "io.line_reader_ns": ("ns", "lower", "throughput_eps on text"),
    "io.token_longline_x2": ("ratio", "lower", "throughput_eps and op_ms_p99 on text"),
}
for _w in WORKLOAD_NAMES:
    for _span in SPAN_KINDS:
        METRICS["%s.%s_share" % (_w, _span)] = (
            "ratio", "higher" if _span == "check" else "lower", "where time goes on %s" % _w
        )
    METRICS["%s.trace_overhead" % _w] = ("ratio", "lower", "tracing cost on %s" % _w)
    METRICS["%s.first_us_p50" % _w] = ("us", "lower", "time to the first element on %s" % _w)


def succ(x):
    return x + 1


def timed(fn, repeats=REPEATS):
    """Median wall time of ``fn()`` in ns, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        gc.collect()
        t0 = now_ns()
        fn()
        times.append(now_ns() - t0)
    return median(times)


def best(fn, repeats=PROBE_REPEATS):
    fn()
    times = []
    for _ in range(repeats):
        t0 = now_ns()
        fn()
        times.append(now_ns() - t0)
    return min(times)


def drain(make):
    """A kernel asking a fresh ``make()`` stream ``N`` times."""

    def run():
        ask = make().ask
        for _ in range(N):
            ask()

    return run


def exhaust(make):
    """A kernel asking a fresh finite ``make()`` stream until it ends."""

    def run():
        ask = make().ask
        while ask() is not None:
            pass

    return run


def per_elem(make):
    return timed(drain(make)) / N


def stream_kernels(sg, m):
    def bare():
        nx = itertools.count().__next__
        for _ in range(N):
            nx()

    bare = timed(bare) / N
    nat = per_elem(sg.naturals)
    m["core.ask_ns"] = nat - bare
    m["core.take_ns"] = per_elem(lambda: sg.take(N + 1, sg.naturals())) - nat

    def raw_gen():
        it = sg.and_nats()()
        for _ in range(N):
            next(it)

    m["engines.answer_ns"] = per_elem(lambda: sg.answer_source(sg.and_nats())) - timed(raw_gen) / N
    m["combinators.map1_ns"] = per_elem(lambda: sg.map1(succ, sg.naturals())) - nat
    m["combinators.map2_ns"] = per_elem(lambda: sg.map2(operator.add, sg.naturals(), sg.naturals())) - 2 * nat
    m["combinators.scan_ns"] = per_elem(lambda: sg.scan(operator.add, 0, sg.naturals())) - nat
    m["combinators.sum_ns"] = per_elem(lambda: sg.sum_streams(sg.naturals(), sg.naturals())) - nat
    reduce_ = timed(lambda: sg.reduce_stream(operator.add, 0, sg.take(N, sg.naturals())).ask()) / N
    m["combinators.reduce_ns"] = reduce_ - per_elem(lambda: sg.take(N, sg.naturals()))
    names = {"product": sg.product, "convolution": sg.convolution, "cantor": sg.product_cantor}
    for name, fn in names.items():
        asks = count_asks(sg, fn, N)
        m["combinators.%s_ns" % name] = (
            per_elem(lambda fn=fn: fn(sg.naturals(), sg.naturals())) - asks / N * nat
        )


def counting_tap(sg, counts):
    """A tap that wraps a stream so that every ask on it is counted by
    name: ``counts[name]`` is ``[asks, elements delivered]``."""

    def tap(name, src):
        c = counts.setdefault(name, [0, 0])

        def step():
            x = src.ask()
            c[0] += 1
            if x is not None:
                c[1] += 1
            return x

        return sg.Source(step, cleanup=src.stop)

    return tap


def count_asks(sg, pair_fn, n):
    """Leaf asks made by ``pair_fn(nat, nat)`` to deliver ``n`` pairs."""
    counts = {}
    tap = counting_tap(sg, counts)
    src = pair_fn(tap("leaf", sg.naturals()), tap("leaf", sg.naturals()))
    for _ in range(n):
        src.ask()
    return counts["leaf"][0]


def value_kernels(sg, m, rng):
    syms = ["a", "bc", "x1", "foo_2"]
    atoms = [rng.randrange(-1000, 1000) for _ in range(50)] + syms
    values = []
    for i in range(N):
        r = i % 4
        a, b, c = rng.choice(atoms), rng.choice(atoms), rng.choice(atoms)
        values.append(a if r == 0 else sg.Pair(a, b) if r < 3 else sg.Pair(sg.Pair(a, b), c))

    def loop(fn):
        def run():
            for v in values:
                fn(v)

        return run

    def ident(v):
        return v

    call = timed(loop(ident)) / N
    m["values.render_ns"] = timed(loop(sg.render)) / N - call
    m["values.value_key_ns"] = timed(loop(sg.value_key)) / N - call
    # Half of the inputs repeat an earlier pair.
    dup = [sg.Pair(i // 2, syms[i % 3]) for i in range(N)]
    base = timed(exhaust(lambda: sg.from_list(dup))) / N
    m["combinators.setify_ns"] = timed(exhaust(lambda: sg.setify(sg.from_list(dup)))) / N - base


def probe_x2(make_run, k):
    return best(make_run(2 * k)) / best(make_run(k))


def scaling_probes(sg, m, tmp):
    finite = ["a", "b", "c"]

    def pairs(fn):
        def make_run(k):
            return lambda: list(sg.take(k, fn(sg.positives(), sg.from_list(finite))))

        return make_run

    m["combinators.convolution_finite_x2"] = probe_x2(pairs(sg.convolution), 1200)
    m["combinators.cantor_finite_x2"] = probe_x2(pairs(sg.product_cantor), 1200)
    m["combinators.product_finite_x2"] = probe_x2(pairs(sg.product), 1200)

    paths = {}
    for k in (20_000, 40_000):
        paths[k] = os.path.join(tmp, "longline-%d.txt" % k)
        with open(paths[k], "w") as f:
            f.write(" ".join(str(i) for i in range(k)) + "\n")
    m["io.token_longline_x2"] = probe_x2(lambda k: lambda: list(sg.token_reader(paths[k])), 20_000)


def retained_kib(build):
    """KiB still allocated after ``build()``, whose result is kept."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del keep
    return (after - before) / 1024.0


def retention(sg, m):
    def product_history():
        src = sg.product(sg.naturals(), sg.naturals())
        for _ in range(N):
            src.ask()
        return src

    def setify_seen():
        src = sg.setify(sg.product(sg.naturals(), sg.naturals()))
        for _ in range(N):
            src.ask()
        return src

    def forced_cells():
        head = sg.lazy_nats()
        sg.lazy_take(N, head)
        return head

    m["combinators.product_retained_kib"] = retained_kib(product_history)
    m["combinators.setify_retained_kib"] = retained_kib(setify_seen)
    m["lazylist.retained_kib"] = retained_kib(forced_cells)


def walk(lst, n):
    """Walk ``n`` cells of a lazy list by ``force``."""
    cell = lst.force()
    for _ in range(n - 1):
        cell = cell[1].force()


def lazy_kernels(sg, m):
    def step(k):
        return k + 1, k

    def direct():
        s = 0
        for _ in range(N):
            s, _v = step(s)

    def fresh():
        walk(sg.lazy_list(step, 0), N)

    m["lazylist.force_ns"] = (timed(fresh) - timed(direct)) / N

    forced = sg.lazy_nats()
    walk(forced, 2 * N + 1)
    chain = None
    for v in range(2 * N, -1, -1):
        chain = (v, chain)

    def tuples():
        c = chain
        for _ in range(N):
            _v, c = c

    reread_ns = timed(lambda: walk(forced, N)) / N
    m["lazylist.reread_ns"] = reread_ns - timed(tuples) / N
    m["lazylist.maplist_ns"] = timed(lambda: walk(sg.lazy_maplist(succ, forced), N)) / N - reread_ns
    m["lazylist.lazy_sum_ns"] = timed(lambda: walk(sg.lazy_sum(forced, forced), N)) / N - reread_ns
    m["lazylist.transport1_ns"] = (
        timed(lambda: walk(sg.transport1(lambda g: g, forced), N)) / N - reread_ns
    )


def front_end_kernels(sg, m, rng):
    trees = [tree(rng, 1 + 2 * (i % 10)) for i in range(200)]
    texts = [to_text(t, rng) for t in trees]
    chars = sum(len(t) for t in texts)
    token_lists = [sg.tokenize(t) for t in texts]
    tokens = sum(len(t) for t in token_lists)
    asts = [sg.lang.parse(t) for t in token_lists]
    nodes = sum(tree_nodes(t) for t in trees)
    env = sg.default_env(42)
    m["lang.tokenize_ns_char"] = timed(lambda: [sg.tokenize(t) for t in texts]) / chars
    m["lang.parse_ns_token"] = timed(lambda: [sg.lang.parse(t) for t in token_lists]) / tokens
    m["lang.eval_us_node"] = timed(lambda: [sg.eval_expr(a, env) for a in asts]) / nodes / 1e3

    sample = texts[:50]

    def via_cli():
        for text in sample:
            sg.cli.main(["eval", text, "--take", "10"], out=io.StringIO())

    def direct():
        for text in sample:
            print(sg.show(10, sg.eval_expr(sg.parse_text(text), sg.default_env(42))), file=io.StringIO())

    m["cli.eval_overhead_us"] = (timed(via_cli) - timed(direct)) / len(sample) / 1e3
    m["cli.deep_ok_depth"] = deep_ok_depth(sg)


def deep_ok_depth(sg):
    """Deepest nesting, doubling from 50 parentheses, that ``cli.main``
    answers with an exit code instead of an untyped exception."""
    ok = 0
    depth = 50
    while depth <= 3200:
        text = "(" * depth + "nat" + ")" * depth
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                rc = sg.cli.main(["eval", text, "--take", "3"], out=io.StringIO())
        except RecursionError:
            break
        if rc not in (0, 2):
            break
        ok = depth
        depth *= 2
    return ok


def io_kernels(sg, m, tmp):
    tok_path = os.path.join(tmp, "tokens.txt")
    with open(tok_path, "w") as f:
        for i in range(N // 10):
            f.write(" ".join(str(i * 10 + j) if j % 2 else "w%d" % j for j in range(10)) + "\n")
    line_path = os.path.join(tmp, "lines.txt")
    with open(line_path, "w") as f:
        for i in range(N):
            f.write("line %d of the generated file\n" % i)

    def plain_tokens():
        with open(tok_path) as f:
            for line in f:
                for t in line.split():
                    try:
                        int(t)
                    except ValueError:
                        pass

    def plain_lines():
        with open(line_path) as f:
            for line in f:
                line.rstrip("\n")

    m["io.token_reader_ns"] = (timed(lambda: list(sg.token_reader(tok_path))) - timed(plain_tokens)) / N
    m["io.line_reader_ns"] = (timed(lambda: list(sg.line_reader(line_path))) - timed(plain_lines)) / N


def workload_spans(plan_for, result):
    """Shares of span self time and tracing overhead, per workload."""
    m = result.metrics
    for w in WORKLOAD_NAMES:
        ops, reset = plan_for(w)
        result.count(run_round(ops, reset))
        plain, traced, first_ns = [], [], []
        tracer = Tracer()
        for r in range(2):
            gc.collect()
            res = run_round(ops, reset)
            result.count(res)
            plain.append(res.throughput())
            first_ns.extend(res.first_ns)
            gc.collect()
            res = run_round(ops, reset, tracer, op_base=r * len(ops))
            result.count(res)
            traced.append(res.throughput())
        self_ns = self_times(tracer.spans)
        total = sum(e - s for name, s, e, parent, _ in tracer.spans if parent is None)
        for span in SPAN_KINDS:
            m["%s.%s_share" % (w, span)] = self_ns.get(span, 0) / total
        m["%s.trace_overhead" % w] = median(plain) / median(traced)
        m["%s.first_us_p50" % w] = quantile(first_ns, 0.5) / 1e3
        result.spans.extend((w,) + span for span in tracer.spans)


def counting_passes(sg, plan_for, result):
    m = result.metrics
    for w, key in (("pipe", "core.leaf_asks_per_elem"), ("fair", "core.leaf_asks_per_pair")):
        counts = {}
        ops, reset = plan_for(w, counting_tap(sg, counts))
        res = run_round(ops, reset)
        result.count(res)
        m[key] = counts["leaf"][0] / res.elems
        if w == "fair":
            m["combinators.setify_keep_ratio"] = counts["setify_out"][1] / counts["setify_in"][1]


def run_all(sg, seed, tmp, plan_for):
    """Every per-layer metric; ``plan_for(workload, tap=None)`` builds a
    workload's plan with this run's seed."""
    result = Report()
    result.spans = []
    m = result.metrics
    rng = random.Random(seed)
    os.makedirs(tmp, exist_ok=True)
    stream_kernels(sg, m)
    value_kernels(sg, m, rng)
    lazy_kernels(sg, m)
    front_end_kernels(sg, m, rng)
    io_kernels(sg, m, tmp)
    scaling_probes(sg, m, tmp)
    retention(sg, m)
    counting_passes(sg, plan_for, result)
    workload_spans(plan_for, result)
    missing = set(METRICS) - set(m)
    if missing:
        raise AssertionError("per-layer metrics not measured: %s" % sorted(missing))
    result.units = {name: METRICS[name][0] for name in m}
    return result
