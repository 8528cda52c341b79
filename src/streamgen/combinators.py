"""The stream algebra: interleaving sum, three fair Cartesian products
(alternating, anti-diagonal, Cantor-indexed), map, constant-space
reduce, scan and online deduplication.

Each combinator returns a source that owns its inputs, so stopping it
stops them all, also before its first ask.  Its iterator is built from
theirs: ``map``, ``functools.reduce`` or a generator function.

Every pair-producing combinator keeps the first input's element on the
left of each output pair, and every one is fair: on infinite inputs any
fixed pair appears after finitely many outputs.
"""

import math
from functools import reduce

from .core import _END, _own, _source, _until_none
from .values import Pair, value_key

__all__ = [
    "cantor_pair",
    "cantor_unpair",
    "convolution",
    "map1",
    "map2",
    "product",
    "product_cantor",
    "reduce_stream",
    "scan",
    "setify",
    "sum_streams",
]


def _binary(make, g1, g2, *args):
    """A source owning ``g1`` and ``g2`` over ``make(their iterators, *args)``."""
    g1, g2 = _own(g1), _own(g2)
    return _source(make(g1._it, g2._it, *args), (g1, g2))


def _interleave(a, b):
    end = _END
    while (x := next(a, end)) is not end:
        yield x
        a, b = b, a
    yield from b


def sum_streams(g1, g2):
    """Interleave two streams, alternating while both produce; after one
    ends, the survivor supplies the rest.  The empty stream is the
    neutral element."""
    return _binary(_interleave, g1, g2)


def _alternating(g1, g2):
    its = (g1, g2)
    seen = ([], [])  # each side's elements so far, newest first
    a = next(g1, None)
    side = 0  # the side ``a`` came from; g1's elements go on the left
    while a is not None:
        other = 1 - side
        for y in seen[other]:
            yield Pair(y, a) if side else Pair(a, y)
        b = next(its[other], None)
        if b is None:  # the other side ended: pair the rest with its history
            if seen[other]:
                for x in its[side]:
                    for y in seen[other]:
                        yield Pair(y, x) if side else Pair(x, y)
            return
        seen[side].insert(0, a)
        a, side = b, other


def product(g1, g2):
    """All pairs of two streams, enumerated by alternating turns.

    Each time a side produces a fresh element it is paired with every
    element the other side has produced so far (newest first); when one
    side ends, each remaining element of the other side is paired with
    the ended side's full history.  The g1 element is always on the left
    of the pair.
    """
    return _binary(_alternating, g1, g2)


class _Buffer:
    """Growable prefix of an iterator, with its length once exhausted."""

    __slots__ = ("items", "it", "length")

    def __init__(self, it):
        self.items = []
        self.it = it
        self.length = None

    def get(self, i):
        """Element at index i, or None past the end of a finite stream."""
        items = self.items
        while i >= len(items):
            if self.length is not None:
                return None
            x = next(self.it, None)
            if x is None:
                self.length = len(items)
                return None
            items.append(x)
        return items[i]


def _span(d, b1, b2):
    """Range [lo, hi] of g1 indices i on diagonal d whose pair
    (i, d-i) lies within both inputs' known lengths."""
    lo = 0 if b2.length is None else max(0, d - b2.length + 1)
    hi = d if b1.length is None else min(d, b1.length - 1)
    return lo, hi


def _diagonals(g1, g2, descending):
    """Pairs (g1[i], g2[d-i]) of two iterators, anti-diagonal by
    anti-diagonal, d = 0, 1, ...; within a diagonal i ascends, or
    descends if ``descending``.

    Known lengths clamp i, so indices past a finite input's end are never
    visited, and a lookup that runs an input out re-clamps at once.  The
    stream ends at the first empty diagonal: with lengths n1 and n2 that
    is diagonal n1+n2-1, and at once if either is empty.
    """
    b1, b2 = _Buffer(g1), _Buffer(g2)
    step = -1 if descending else 1
    d = 0
    while True:
        lo, hi = _span(d, b1, b2)
        if lo > hi:
            return
        i = hi if descending else lo
        while lo <= i <= hi:
            x = b1.get(i)
            y = None if x is None else b2.get(d - i)
            if y is None:
                # an input just ran out, which moved a bound past i
                lo, hi = _span(d, b1, b2)
                i = min(i, hi) if descending else max(i, lo)
                continue
            yield Pair(x, y)
            i += step
        d += 1


def convolution(g1, g2):
    """All pairs of two streams, enumerated anti-diagonal by
    anti-diagonal: diagonal d emits (g1[i], g2[d-i]) for ascending i.

    Indices past a finite input's end are never visited, so a finite
    side costs O(1) per pair and the output is linear-time.
    """
    return _binary(_diagonals, g1, g2, False)


def cantor_pair(x, y):
    """The pairing bijection N x N -> N: (x+y)(x+y+1)/2 + y."""
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(n):
    """Exact inverse of :func:`cantor_pair`, using integer square root
    only (no float rounding for any n)."""
    t = (math.isqrt(8 * n + 1) - 1) // 2
    y = n - t * (t + 1) // 2
    return t - y, y


def product_cantor(g1, g2):
    """All pairs of two streams in Cantor order: the n-th index pair is
    ``cantor_unpair(n)``, skipping those past a finite input's end.  That
    is diagonal d = 0, 1, ... emitting (g1[i], g2[d-i]) for descending i.

    Skipped indices are never visited, so a finite side costs O(1) per
    pair and the output is linear-time.
    """
    return _binary(_diagonals, g1, g2, True)


def map1(f, source):
    """Apply ``f`` to each element, lazily; ``f`` returning ``None``
    ends the stream."""
    source = _own(source)
    return _source(_until_none(map(f, source._it)), (source,))


def map2(f, g1, g2):
    """Apply ``f`` pairwise to two streams; ends at the shorter input."""
    g1, g2 = _own(g1), _own(g2)
    return _source(_until_none(map(f, g1._it, g2._it)), (g1, g2))


def _fold(f, init, it):
    acc = reduce(f, it, init)
    if acc is not None:
        yield acc


def reduce_stream(f, init, source):
    """A one-element stream holding the fold of ``f`` over a finite
    ``source`` starting from ``init``; the fold runs in constant
    auxiliary space on the first ask.  An empty source folds to ``init``
    itself."""
    source = _own(source)
    return _source(_fold(f, init, source._it), (source,))


def _running(f, acc, it):
    for x in it:
        acc = f(acc, x)
        if acc is None:
            return
        yield acc


def scan(f, init, source):
    """Running fold: yields f(init, x1), then f(that, x2), ...; same
    length as the input, meaningful on infinite streams."""
    source = _own(source)
    return _source(_running(f, init, source._it), (source,))


def _dedupe(it):
    seen = set()
    for x in it:
        k = value_key(x)
        if k not in seen:
            seen.add(k)
            yield x


def setify(source):
    """Drop duplicates online, keeping first occurrences in order; works
    on infinite streams within memory limits."""
    source = _own(source)
    return _source(_dedupe(source._it), (source,))
