"""Reference semantics in plain Python and itertools.

Nothing here imports the library under test.  Pairs are plain 2-tuples,
symbols are ``str``; each enumerator follows the order the library
documents, written from that description and not from its code.
"""

import itertools
import random

END = object()


def interleave(a, b):
    """sum_streams: alternate while both produce, then the survivor."""
    cur, other = iter(a), iter(b)
    while True:
        x = next(cur, END)
        if x is END:
            yield from other
            return
        yield x
        cur, other = other, cur


def alternating_product(a, b):
    """product: sides take turns; a fresh element is paired with the
    other side's history, newest first; once a side ends, each further
    element of the other side is paired with the ended side's history.
    The first input always supplies the left of the pair."""
    its = (iter(a), iter(b))
    hist = ([], [])
    side = 0
    while True:
        x = next(its[side], END)
        if x is END:
            break
        for y in reversed(hist[1 - side]):
            yield (x, y) if side == 0 else (y, x)
        hist[side].append(x)
        side = 1 - side
    if not hist[0]:
        return
    other = 1 - side
    for x in its[other]:
        for y in reversed(hist[side]):
            yield (x, y) if other == 0 else (y, x)


class Prefix:
    """Materialised prefix of an iterator; ``length`` once it ended."""

    def __init__(self, it):
        self.it = iter(it)
        self.items = []
        self.length = None

    def fill(self, n):
        items = self.items
        while self.length is None and len(items) < n:
            x = next(self.it, END)
            if x is END:
                self.length = len(items)
            else:
                items.append(x)

    def bound(self):
        return self.length if self.length is not None else float("inf")


def diagonal_product(a, b, ascending):
    """convolution (``ascending``) and product_cantor: anti-diagonal d
    holds (a[i], b[d-i]); convolution walks i upwards, Cantor unpairing
    walks it downwards.  Indices past a finite side are skipped."""
    pa, pb = Prefix(a), Prefix(b)
    d = 0
    while True:
        pa.fill(d + 1)
        pb.fill(d + 1)
        la, lb = pa.bound(), pb.bound()
        if la == 0 or lb == 0 or d > la + lb - 2:
            return
        lo = int(max(0, d - lb + 1))
        hi = int(min(d, la - 1))
        idx = range(lo, hi + 1) if ascending else range(hi, lo - 1, -1)
        xs, ys = pa.items, pb.items
        for i in idx:
            yield (xs[i], ys[d - i])
        d += 1


PRODUCTS = {
    "product": alternating_product,
    "convolution": lambda a, b: diagonal_product(a, b, True),
    "cantor": lambda a, b: diagonal_product(a, b, False),
}


def key(v):
    """Variant-strict identity: 3 and 3.0 differ, pairs nest."""
    if isinstance(v, tuple):
        return ("pair", key(v[0]), key(v[1]))
    return (type(v).__name__, v)


def dedupe(it):
    """setify: first occurrences, in order."""
    seen = set()
    for x in it:
        k = key(x)
        if k not in seen:
            seen.add(k)
            yield x


def render(v):
    """Text of a value: ``A-B`` for pairs, a pair on the right in
    parentheses, floats by ``repr``."""
    if isinstance(v, tuple):
        left, right = render(v[0]), render(v[1])
        if isinstance(v[1], tuple):
            right = "(" + right + ")"
        return left + "-" + right
    if isinstance(v, float):
        return repr(v)
    return str(v)


def show(values):
    return "[" + ", ".join(render(v) for v in values) + "]"


def scan(f, init, it):
    acc = init
    for x in it:
        acc = f(acc, x)
        yield acc


def orbit(f, x):
    """iterate: x, f(x), f(f(x)), ..."""
    while True:
        yield x
        x = f(x)


def unfolding(advance, state):
    while True:
        state, value = advance(state)
        yield value


def uniform(seed):
    rng = random.Random(seed)
    while True:
        yield rng.random()


# --- the expression language ------------------------------------------
#
# Trees are tuples: ("sum", l, r), ("prod", l, r), ("range", lo, hi),
# ("list", values), ("set", body), ("const", v), ("ref", name).


class Diverges(Exception):
    """The reference needed more leaf steps than its budget allows."""


def _metered(it, budget):
    for x in it:
        budget[0] -= 1
        if budget[0] < 0:
            raise Diverges()
        yield x


def eval_tree(t, rand_seed, budget):
    """Reference stream of a tree under the default environment."""
    tag = t[0]
    if tag == "sum":
        return interleave(eval_tree(t[1], rand_seed, budget), eval_tree(t[2], rand_seed, budget))
    if tag == "prod":
        return alternating_product(
            eval_tree(t[1], rand_seed, budget), eval_tree(t[2], rand_seed, budget)
        )
    if tag == "set":
        return dedupe(eval_tree(t[1], rand_seed, budget))
    if tag == "range":
        leaf = range(t[1], t[2])
    elif tag == "list":
        leaf = t[1]
    elif tag == "const":
        leaf = itertools.repeat(t[1])
    elif t[1] == "nat":
        leaf = itertools.count(0)
    elif t[1] == "pos":
        leaf = itertools.count(1)
    elif t[1] == "neg":
        leaf = itertools.count(-1, -1)
    elif t[1] == "rand":
        leaf = uniform(rand_seed)
    else:
        leaf = itertools.repeat(t[1])
    return _metered(leaf, budget)


def tree_prefix(t, n, rand_seed, budget=200_000):
    """First ``n`` elements of a tree, or ``None`` if it would take more
    than ``budget`` leaf steps."""
    try:
        return list(itertools.islice(eval_tree(t, rand_seed, [budget]), n))
    except Diverges:
        return None


def tree_nodes(t):
    if t[0] in ("sum", "prod"):
        return 1 + tree_nodes(t[1]) + tree_nodes(t[2])
    if t[0] == "set":
        return 1 + tree_nodes(t[1])
    return 1
