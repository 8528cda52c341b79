"""Command-line front end: expression evaluation, transcript demos, and
a generator-vs-lazy-list micro-benchmark.

Exit codes: 0 ok, 1 demo oracle mismatch (or benchmark checksum
disagreement), 2 usage or expression errors, 3 informational benchmark
flag (generator path more than 2x slower than the lazy-list path).
"""

import argparse
import functools
import sys
import time
import tracemalloc

from . import combinators, core, lang, lazylist
from .values import render

__all__ = ["entry", "main"]


def _plus(a, b):
    return a + b


def _succ(x):
    return x + 1


# --- demo --------------------------------------------------------------


def _demo_cases():
    return [
        (
            "map-annihilation",
            lambda: core.show(
                10, combinators.map2(_plus, core.positives(), core.negatives())
            ),
            "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
        ),
        (
            "convolution-product",
            lambda: core.show(
                16,
                combinators.convolution(
                    core.positives(), core.from_list(["a", "b", "c"])
                ),
            ),
            "[1-a, 1-b, 2-a, 1-c, 2-b, 3-a, 2-c, 3-b, 4-a, 3-c, 4-b, 5-a, 4-c, 5-b, 6-a, 5-c]",
        ),
        (
            "interleaving-sum",
            lambda: core.show(
                10, combinators.sum_streams(core.positives(), core.negatives())
            ),
            "[1, -1, 2, -2, 3, -3, 4, -4, 5, -5]",
        ),
        (
            "alternating-product",
            lambda: core.show(
                12, combinators.product(core.naturals(), core.naturals())
            ),
            "[0-0, 1-0, 1-1, 0-1, 2-1, 2-0, 2-2, 1-2, 0-2, 3-2, 3-1, 3-0]",
        ),
        (
            "expression-language",
            lambda: "["
            + ", ".join(
                render(v)
                for v in lang.eval_text("[a,b]*(1:4)", lang.default_env(), 6)
            )
            + "]",
            "[a-1, b-1, b-2, a-2, b-3, a-3]",
        ),
        (
            "running-sums",
            lambda: core.show(11, combinators.scan(_plus, 0, core.naturals())),
            "[0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55]",
        ),
        (
            "lazy-list-map",
            lambda: "%s / %s"
            % (
                lazylist.lazy_take(3, lazylist.lazy_maplist(_succ, lazylist.lazy_nats())),
                lazylist.lazy_take(3, lazylist.lazy_nats()),
            ),
            "[1, 2, 3] / [0, 1, 2]",
        ),
    ]


def _run_demo(out):
    failures = 0
    for label, thunk, expected in _demo_cases():
        actual = thunk()
        status = "ok" if actual == expected else "MISMATCH"
        if actual != expected:
            failures += 1
        print("%s %-20s %s" % (status, label, actual), file=out)
        if actual != expected:
            print("   expected %s" % expected, file=out)
    return 1 if failures else 0


# --- bench -------------------------------------------------------------


def _bench_generator(op, n):
    """Run one benchmark op on the source representation; returns the
    checksum."""
    if op == "nat_sum":
        return combinators.reduce_stream(
            _plus, 0, core.take(n, core.naturals())
        ).ask()
    if op == "map_chain":
        mapped = combinators.map1(_succ, combinators.map1(_succ, core.naturals()))
        return combinators.reduce_stream(_plus, 0, core.take(n, mapped)).ask()
    if op == "prod_prefix":
        pairs = core.take(n, combinators.product(core.naturals(), core.naturals()))
        acc = 0
        for p in pairs:
            acc += 3 * p.left + p.right
        return acc
    raise ValueError(op)


def _bench_lazylist(op, n):
    """Same computations on the lazy-list representation."""
    if op == "nat_sum":
        lst = lazylist.lazy_nats()
    elif op == "map_chain":
        lst = lazylist.lazy_maplist(
            _succ, lazylist.lazy_maplist(_succ, lazylist.lazy_nats())
        )
    elif op == "prod_prefix":
        lst = lazylist.gen2lazy(
            combinators.product(core.naturals(), core.naturals())
        )
    else:
        raise ValueError(op)
    acc = 0
    count = 0
    cell = lst.force()
    del lst  # do not pin the prefix
    while cell is not None and count < n:
        value, rest = cell
        if op == "prod_prefix":
            acc += 3 * value.left + value.right
        else:
            acc += value
        count += 1
        cell = rest.force()
    return acc


_BENCH_RUNNERS = {"generator": _bench_generator, "lazylist": _bench_lazylist}


def _run_bench(op, n, impl, out):
    impls = ["generator", "lazylist"] if impl == "both" else [impl]
    results = {}
    for name in impls:
        runner = _BENCH_RUNNERS[name]
        t0 = time.perf_counter()
        checksum = runner(op, n)
        elapsed = time.perf_counter() - t0
        tracemalloc.start()
        runner(op, n)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        eps = n / elapsed if elapsed > 0 else float("inf")
        results[name] = (checksum, eps)
        print("impl=%s op=%s n=%d eps=%.1f mem=%d" % (name, op, n, eps, peak), file=out)
    if impl == "both":
        if results["generator"][0] != results["lazylist"][0]:
            print("error: checksum mismatch between implementations", file=sys.stderr)
            return 1
        ratio = results["generator"][1] / results["lazylist"][1]
        print("ratio=%.3f (generator/lazylist)" % ratio, file=out)
        if ratio < 0.5:
            print(
                "note: generator path more than 2x slower than lazy lists",
                file=out,
            )
            return 3
    return 0


# --- argument handling -------------------------------------------------


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="streamgen",
        description="Lazy stream toolkit: evaluate stream expressions, "
        "run the transcript demos, or benchmark the two representations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a stream expression")
    p_eval.add_argument("expr", help="expression, e.g. '[a,b]*(1:4)'")
    p_eval.add_argument("--take", type=int, default=10, metavar="N",
                        help="number of elements to display (default 10)")
    p_eval.add_argument("--seed", type=int, default=42,
                        help="seed for the rand source (default 42)")

    sub.add_parser("demo", help="run the transcript oracle suite")

    p_bench = sub.add_parser("bench", help="micro-benchmark the representations")
    p_bench.add_argument("--op", choices=["nat_sum", "map_chain", "prod_prefix"],
                         default="nat_sum")
    p_bench.add_argument("--n", type=int, default=1_000_000, metavar="SIZE")
    p_bench.add_argument("--impl", choices=["generator", "lazylist", "both"],
                         default="both")
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0

    if args.subcommand == "eval":
        if args.take < 0:
            print("error: --take must be >= 0", file=sys.stderr)
            return 2
        try:
            source = lang.eval_expr(
                lang.parse_text(args.expr), lang.default_env(args.seed)
            )
            shown = core.show(args.take, source)
        except (lang.LexError, lang.ParseError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except RecursionError:
            print("error: expression nested too deeply", file=sys.stderr)
            return 2
        print(shown, file=out)
        return 0
    if args.subcommand == "demo":
        return _run_demo(out)
    if args.subcommand == "bench":
        if args.n < 1:
            print("error: --n must be >= 1", file=sys.stderr)
            return 2
        return _run_bench(args.op, args.n, args.impl, out)
    return 2


def entry():
    sys.exit(main())
