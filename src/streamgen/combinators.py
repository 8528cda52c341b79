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
import sys
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


def _diagonals(g1, g2, descending):
    """Pairs (g1[i], g2[d-i]) of two iterators, anti-diagonal by
    anti-diagonal, d = 0, 1, ...; within a diagonal i ascends, or
    descends if ``descending``.

    ``xs`` and ``ys`` hold each input's prefix, and known lengths clamp
    i, so indices past a finite input's end are never visited.  An
    input's only new index on a diagonal sits at one end of the walk
    (g1's at i = d, g2's at i = 0), so an input that runs out there
    skips just that pair.  The stream ends at the first empty diagonal:
    with lengths n1 and n2 that is diagonal n1+n2-1, and at once if
    either is empty.
    """
    xs, ys = [], []
    n1 = n2 = sys.maxsize  # each input's length, once it has run out
    d = 0
    while True:
        lo, hi = max(0, d - n2 + 1), min(d, n1 - 1)
        if lo > hi:
            return
        for i in range(hi, lo - 1, -1) if descending else range(lo, hi + 1):
            if i < len(xs):
                x = xs[i]
            else:
                x = next(g1, None)
                if x is None:
                    n1 = i
                    continue
                xs.append(x)
            if d - i < len(ys):
                y = ys[d - i]
            else:
                y = next(g2, None)
                if y is None:
                    n2 = d - i
                    continue
                ys.append(y)
            yield Pair(x, y)
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
