"""lazy: the memoised lazy-list representation.

Walks of ``lazy_nats``/``lazy_list``, ``lazy_maplist`` chains,
``lazy_sum``, ``sum_alt``, ``gen2lazy``/``lazy2gen`` round trips and
``transport1``/``transport2``/``transport_split``.  About a quarter of
the ops re-walk a prefix of a shared list that an earlier op of the same
round already forced (memo reads), beside ops that force fresh cells
(writes); the shared lists pin their cells until the round ends.

Every op is checked against plain Python and, on the first round,
against the same op on the source representation: the paper's
generator/lazy-list isomorphism.
"""

import itertools
import operator

from harness import Op, jitter
from oracles import interleave, scan, unfolding

SIZES = (200, 2000, 8000)
MAPS = ((lambda x: x + 1), (lambda x: 3 * x), operator.neg)
MOD = 2**31 - 1
KINDS = (
    "nats", "unfold", "maplist", "lazy_sum", "sum_alt", "gen2lazy2gen",
    "lazy2gen2lazy", "transport1", "transport2", "transport_split",
)
SHARED_LISTS = 8
REREADS_PER_LIST = 5
PER_KIND = 9


def base_list(rng, unfold):
    """(lazy(sg), source(sg), reference iterator) for a fresh list:
    ``lazy_nats_from`` or, with ``unfold``, ``lazy_list`` over a
    linear congruential step."""
    if not unfold:
        k = rng.randrange(-1000, 1000)
        return (
            lambda sg: sg.lazy_nats_from(k),
            lambda sg: sg.iterate(lambda x: x + 1, k),
            lambda: itertools.count(k),
        )
    a, c, s0 = rng.randrange(2, 1000), rng.randrange(1, 1000), rng.randrange(1, 1000)

    def step(s):
        return (a * s + c) % MOD, s

    return (
        lambda sg: sg.lazy_list(step, s0),
        lambda sg: sg.unfold(step, s0),
        lambda: unfolding(step, s0),
    )


def walk_op(sg, kind, n, lazy, ref, iso):
    """An op whose result is a lazy list, walked ``n`` cells."""

    def rest(lst, first):
        return [first] + sg.lazy_take(n - 1, lst.tail())

    def reference():
        return list(itertools.islice(ref(), n)), n

    def verify(out):
        return out == list(sg.take(n, iso()))

    return Op(kind, lazy, lambda lst: lst.head(), rest, reference, verify)


def drain_op(sg, kind, n, source, ref, iso):
    """An op whose result is a source, asked ``n`` times."""

    def rest(src, first):
        out = [first]
        ask = src.ask
        for _ in range(n - 1):
            out.append(ask())
        return out

    def reference():
        return list(itertools.islice(ref(), n)), n

    def verify(out):
        return out == list(sg.take(n, iso()))

    return Op(kind, source, lambda src: src.ask(), rest, reference, verify)


def make_op(sg, rng, kind, n, variant):
    if kind == "nats":
        k = rng.randrange(-1000, 1000)
        return walk_op(
            sg, "lazy-nats", n,
            lambda: sg.lazy_nats_from(k),
            lambda: itertools.count(k),
            lambda: sg.iterate(lambda x: x + 1, k),
        )
    lazy, source, ref = base_list(rng, kind == "unfold" or variant % 2 == 1)
    if kind == "unfold":
        return walk_op(sg, "lazy-unfold", n, lambda: lazy(sg), ref, lambda: source(sg))
    if kind == "maplist":
        fs = [rng.choice(MAPS) for _ in range(1 + variant % 3)]

        def build():
            lst = lazy(sg)
            for f in fs:
                lst = sg.lazy_maplist(f, lst)
            return lst

        def mapped_ref():
            it = ref()
            for f in fs:
                it = map(f, it)
            return it

        def iso():
            src = source(sg)
            for f in fs:
                src = sg.map1(f, src)
            return src

        return walk_op(sg, "lazy-maplist", n, build, mapped_ref, iso)
    lazy2, source2, ref2 = base_list(rng, variant // 2 % 2 == 1)
    if kind == "lazy_sum":
        return walk_op(
            sg, "lazy-sum", n,
            lambda: sg.lazy_sum(lazy(sg), lazy2(sg)),
            lambda: interleave(ref(), ref2()),
            lambda: sg.sum_streams(source(sg), source2(sg)),
        )
    if kind == "sum_alt":
        return drain_op(
            sg, "lazy-sum_alt", n,
            lambda: sg.sum_alt(source(sg), source2(sg)),
            lambda: interleave(ref(), ref2()),
            lambda: sg.sum_streams(source(sg), source2(sg)),
        )
    if kind == "gen2lazy2gen":
        return drain_op(
            sg, "lazy-gen2lazy2gen", n,
            lambda: sg.lazy2gen(sg.gen2lazy(source(sg))),
            ref,
            lambda: source(sg),
        )
    if kind == "lazy2gen2lazy":
        return walk_op(
            sg, "lazy-lazy2gen2lazy", n,
            lambda: sg.gen2lazy(sg.lazy2gen(lazy(sg))),
            ref,
            lambda: source(sg),
        )
    if kind == "transport1":
        init = rng.randrange(-10, 10)

        def op(g):
            return sg.scan(operator.add, init, g)

        return walk_op(
            sg, "lazy-transport1", n,
            lambda: sg.transport1(op, lazy(sg)),
            lambda: scan(operator.add, init, ref()),
            lambda: op(source(sg)),
        )
    if kind == "transport2":
        return walk_op(
            sg, "lazy-transport2", n,
            lambda: sg.transport2(lambda a, b: sg.map2(operator.sub, a, b), lazy(sg), lazy2(sg)),
            lambda: map(operator.sub, ref(), ref2()),
            lambda: sg.map2(operator.sub, source(sg), source2(sg)),
        )
    if kind == "transport_split":
        # Split into the first k elements and the rest; the first part
        # is walked to its end before the second is touched.
        k = rng.randrange(1, n + 1)

        def build():
            return sg.transport_split(lambda g: (sg.take(k, g), g), lazy(sg))

        def first(parts):
            return parts[0].head()

        def rest(parts, f):
            head, tail = parts
            return [f] + sg.lazy_take(k - 1, head.tail()) + sg.lazy_take(n - k, tail)

        def reference():
            return list(itertools.islice(ref(), n)), n

        def verify(out):
            return out == list(sg.take(n, source(sg)))

        return Op("lazy-transport_split", build, first, rest, reference, verify)
    raise ValueError(kind)


def shared_ops(sg, rng, pool, j):
    """Ops on shared list ``j``: one creates and forces it, one extends
    it (more writes), the rest re-walk prefixes already forced."""
    lazy, source, ref = base_list(rng, j % 2 == 1)
    n = jitter(rng, SIZES[j % len(SIZES)])
    extend = n + jitter(rng, 2000)

    def create():
        pool[j] = lazy(sg)
        return pool[j]

    def holder():
        return pool[j]

    ops = [walk_op(sg, "lazy-shared-write", n, create, ref, lambda: source(sg)),
           walk_op(sg, "lazy-shared-extend", extend, holder, ref, lambda: source(sg))]
    rereads = [
        walk_op(sg, "lazy-shared-reread", n * (i + 1) // REREADS_PER_LIST, holder, ref, lambda: source(sg))
        for i in range(REREADS_PER_LIST)
    ]
    return ops, rereads


def plan(sg, rng, ctx):
    # Lazy lists shared by the ops of one round; emptied between rounds
    # so that every round forces the same cells.
    pool = {}
    ops = [
        make_op(sg, rng, kind, jitter(rng, SIZES[i % len(SIZES)]), i)
        for kind in KINDS
        for i in range(PER_KIND)
    ]
    rng.shuffle(ops)
    # Shared-list ops keep their order (create, two rereads, extend, more
    # rereads), interleaved at seeded positions among the others.
    for j in range(SHARED_LISTS):
        writes, rereads = shared_ops(sg, rng, pool, j)
        seq = writes[:1] + rereads[:2] + writes[1:] + rereads[2:]
        positions = sorted(rng.sample(range(len(ops) + len(seq)), len(seq)))
        for pos, op in zip(positions, seq):
            ops.insert(pos, op)
    return ops, pool.clear
