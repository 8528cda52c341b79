"""pipe: linear pipelines over the source representation.

A leaf (one of ten constructors) under one to four layers of
map1/map2/scan/sum_streams/take/drop, cut by a final ``take`` and
drained either by ``reduce_stream`` or by iteration.
"""

import functools
import itertools
import operator

from harness import NO_FIRST, Op, jitter
from oracles import interleave, orbit, scan, uniform, unfolding

# Five size classes, so the median op sits inside the middle one; each
# size is jittered by at most 10% around its class.
SIZES = (30, 300, 1200, 4000, 10000)
DEPTHS = (1, 2, 3, 4)
LAYERS = ("map1", "map2", "scan", "sum", "take", "drop")
MAP1 = ((lambda x: x + 1), (lambda x: 2 * x), operator.neg, (lambda x: x // 2))
MAP2 = (operator.add, operator.sub, max, min)
SCAN = (operator.add, max, min)
MOD = 2**31 - 1


def leaf_spec(kind, rng, size):
    """(make(sg) -> Source, reference iterator factory) for one leaf."""
    if kind == "naturals":
        return (lambda sg: sg.naturals()), (lambda: itertools.count(0))
    if kind == "positives":
        return (lambda sg: sg.positives()), (lambda: itertools.count(1))
    if kind == "negatives":
        return (lambda sg: sg.negatives()), (lambda: itertools.count(-1, -1))
    if kind == "int_range":
        lo = rng.randrange(-1000, 1000)
        return (lambda sg: sg.int_range(lo, lo + size)), (lambda: iter(range(lo, lo + size)))
    if kind == "iterate":
        a, c, x0 = rng.randrange(2, 1000), rng.randrange(1, 1000), rng.randrange(1, 1000)

        def f(x):
            return (a * x + c) % MOD

        return (lambda sg: sg.iterate(f, x0)), (lambda: orbit(f, x0))
    if kind == "unfold":
        m = rng.randrange(1000, 100000)

        def advance(s):
            return (s[1], (s[0] + s[1]) % m), s[0]

        s0 = (rng.randrange(m), rng.randrange(m))
        return (lambda sg: sg.unfold(advance, s0)), (lambda: unfolding(advance, s0))
    if kind == "cycle_values":
        vals = [rng.randrange(-50, 50) for _ in range(rng.randrange(3, 13))]
        return (lambda sg: sg.cycle_values(vals)), (lambda: itertools.cycle(vals))
    if kind == "random_stream":
        seed = rng.randrange(1 << 30)
        return (lambda sg: sg.random_stream(seed)), (lambda: uniform(seed))
    if kind == "and_nats":
        return (lambda sg: sg.answer_source(sg.and_nats())), (lambda: itertools.count(0))
    if kind == "or_nats":
        return (lambda sg: sg.answer_source(sg.or_nats())), (lambda: itertools.count(0))
    raise ValueError(kind)


LEAVES = (
    "naturals", "positives", "negatives", "int_range", "iterate",
    "unfold", "cycle_values", "random_stream", "and_nats", "or_nats",
)
INFINITE_LEAVES = tuple(k for k in LEAVES if k != "int_range")


def layer_spec(kind, rng, size, partner):
    """(apply(sg, src, tap) -> Source, apply_ref(it) -> iterator)."""
    if kind == "map1":
        f = rng.choice(MAP1)
        return (lambda sg, src, tap: sg.map1(f, src)), (lambda it: map(f, it))
    if kind in ("map2", "sum"):
        make, ref = leaf_spec(partner, rng, size)
        if kind == "sum":
            return (
                lambda sg, src, tap: sg.sum_streams(src, tap("leaf", make(sg))),
                lambda it: interleave(it, ref()),
            )
        f = rng.choice(MAP2)
        return (
            lambda sg, src, tap: sg.map2(f, src, tap("leaf", make(sg))),
            lambda it: map(f, it, ref()),
        )
    if kind == "scan":
        f = rng.choice(SCAN)
        init = rng.randrange(-10, 10)
        return (lambda sg, src, tap: sg.scan(f, init, src)), (lambda it: scan(f, init, it))
    if kind == "take":
        m = jitter(rng, 3 * size // 4)
        return (lambda sg, src, tap: sg.take(m, src)), (lambda it: itertools.islice(it, m))
    if kind == "drop":
        k = jitter(rng, size // 10)
        return (lambda sg, src, tap: sg.drop(k, src)), (lambda it: itertools.islice(it, k, None))
    raise ValueError(kind)


def make_op(sg, leaf_kind, depth, size, reduce, rng, layer_kinds, partners, tap):
    make_leaf, ref_leaf = leaf_spec(leaf_kind, rng, size)
    layers = [
        layer_spec(k, rng, size, next(partners) if k in ("map2", "sum") else None)
        for k in layer_kinds
    ]

    def pipeline():
        src = tap("leaf", make_leaf(sg))
        for apply, _ in layers:
            src = apply(sg, src, tap)
        return sg.take(size, src)

    def reference():
        it = ref_leaf()
        for _, apply_ref in layers:
            it = apply_ref(it)
        return list(itertools.islice(it, size))

    kind = "pipe-d%d-%s" % (depth, "reduce" if reduce else "iter")
    if reduce:
        def ref():
            values = reference()
            return [functools.reduce(operator.add, values, 0)], len(values)

        return Op(
            kind,
            lambda: sg.reduce_stream(operator.add, 0, pipeline()),
            lambda h: NO_FIRST,
            lambda h, f: [h.ask()],
            ref,
        )

    def ref():
        values = reference()
        return values, len(values)

    def rest(h, f):
        if f is None:
            return []
        out = [f]
        out.extend(h)
        return out

    return Op(kind, pipeline, lambda h: h.ask(), rest, ref)


def plan(sg, rng, ctx, tap=None):
    """The grid leaf x depth x size class, the same for every seed.  For
    each (depth, size) the ten leaves share out a fixed set of layer
    sequences (every layer kind about equally often), half of the ops reduce,
    and the partner leaves of map2/sum rotate through the infinite
    leaves.  The seed picks functions, parameters and the op order."""
    tap = tap or (lambda name, src: src)
    partners = itertools.cycle(INFINITE_LEAVES)
    ops = []
    for d in DEPTHS:
        for b, size in enumerate(SIZES):
            slots = [LAYERS[k % len(LAYERS)] for k in range(len(LEAVES) * d)]
            seqs = [slots[i * d:(i + 1) * d] for i in range(len(LEAVES))]
            for i, lk in enumerate(LEAVES):
                kinds = seqs[(i + b) % len(LEAVES)]
                reduce = (i + d + b) % 2 == 0
                ops.append(make_op(sg, lk, d, jitter(rng, size), reduce, rng, kinds, partners, tap))
    rng.shuffle(ops)
    return ops, None
