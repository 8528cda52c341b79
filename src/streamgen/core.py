"""The generator core: single-consumer stream sources with sticky
termination, basic constructors, slicing and display helpers.

A :class:`Source` is one Python iterator plus the sources it owns.  The
iterator never yields ``None``: that is not a stream value, so a list, a
producer or a user callable (handed to :func:`iterate`, ``map1`` etc.)
ends the stream where it would deliver ``None``.  Once a source is
exhausted, raises or is stopped, it stays done: ``ask`` never pulls its
iterator again, and a ``step`` is never called again, even by an owner.
``stop()`` closes the iterator, then stops each owned source and lets go
of it.  A combinator builds its iterator from its inputs' iterators, so
a pipeline pulls through one chain of iterators rather than one ``ask``
per layer, and a source handed to a combinator belongs to it.

Pulls between C iterators (``islice``, ``map``, ...) do not count
against Python's recursion limit, so a deep enough chain of them would
overflow the C stack.  Building a source that owns a chain of more than
1000 sources, itself included, raises ``RecursionError`` instead.
"""

import operator
import random
import sys
import weakref
from itertools import count, cycle, islice, repeat

from .values import render

__all__ = [
    "Source",
    "constant",
    "cycle_values",
    "drop",
    "from_list",
    "int_range",
    "iterate",
    "naturals",
    "negatives",
    "positives",
    "random_stream",
    "show",
    "slice_",
    "take",
    "unfold",
]

_MAX_NESTING = 1000

_DONE = iter(())  # the iterator of every finished source
_END = object()  # the end of an iterator that may yield None (a lazy list's)


class Source:
    """A stateful, single-consumer stream of values.

    ``Source(step, cleanup)`` streams the results of ``step()`` up to its
    first ``None`` and calls ``cleanup()`` once when done.  Iterating a
    source consumes it.
    """

    __slots__ = ("_it", "_inputs", "_cleanup", "_depth", "__weakref__")

    def __init__(self, step, cleanup=None):
        ref = weakref.ref(self)  # no cycle: a dropped source is freed at once

        def resume():
            # Never step once done (a freed source was stopped first).  A
            # stop from inside ``step`` ends this pull, and ``cleanup``
            # (which may close the running generator) waits for ``step``.
            src = ref()
            if src is None or src._it is _DONE:
                return None
            src._cleanup = None
            try:
                x = step()
            finally:
                src._cleanup = cleanup
            if src._it is not _DONE:
                return x
            src.stop()
            return None

        self._it = iter(resume, None)
        self._inputs = ()
        self._cleanup = cleanup
        self._depth = 1

    def ask(self):
        """Produce the next value, or ``None`` if the stream is done."""
        try:
            x = next(self._it, None)
        except BaseException:
            self.stop()
            raise
        if x is None:
            self.stop()
        return x

    def stop(self):
        """Mark the source done, close its iterator, then stop and drop
        each source it owns; idempotent."""
        todo = [self]
        try:
            while todo:
                s = todo.pop()
                s._it = _DONE
                todo += s._inputs[::-1]
                s._inputs = ()
                cleanup = s._cleanup
                if cleanup is not None:
                    s._cleanup = None
                    cleanup()
        finally:
            while todo:  # a cleanup raised: still stop the rest
                todo.pop().stop()

    def is_done(self):
        """True once the source has reported exhaustion or was stopped."""
        return self._it is _DONE

    def __iter__(self):
        ask = self.ask
        while (x := ask()) is not None:
            yield x


_new = object.__new__


def _source(it, inputs=(), cleanup=None):
    """A source over ``it`` (no ``None`` in it) owning ``inputs``."""
    depth = 1
    for src in inputs:
        if src._depth >= depth:
            depth = src._depth + 1
    if depth > _MAX_NESTING:
        raise RecursionError("streams nested more than %d deep" % _MAX_NESTING)
    s = _new(Source)
    s._it = it
    s._inputs = inputs
    s._cleanup = cleanup
    s._depth = depth
    return s


def _own(source):
    """``source``, or a Source over any object with ``ask``/``stop``."""
    if isinstance(source, Source):
        return source
    return Source(source.ask, source.stop)


def show(n, source):
    """Render up to ``n`` elements of ``source`` as ``[e1, e2, ...]``,
    consuming them."""
    return "[" + ", ".join(map(render, islice(source, max(n, 0)))) + "]"


def constant(v):
    """The infinite stream v, v, v, ..."""
    return _source(iter(()) if v is None else repeat(v))


def random_stream(seed):
    """An infinite stream of floats uniform in [0, 1), deterministic in
    ``seed``.  Backed by Python's Mersenne Twister (``random.Random``)."""
    return _source(iter(random.Random(seed).random, None))


def _orbit(f, x):
    y = f(x)
    while y is not None:
        yield x
        x, y = y, f(y)


def iterate(f, init):
    """The orbit init, f(init), f(f(init)), ... in O(1) state.

    The next state is computed before the current element is yielded, so
    if ``f`` returns ``None`` the stream ends without producing the
    element it was called on.
    """
    return _source(iter(()) if init is None else _orbit(f, init))


def _unfolding(advance, state):
    out = advance(state)
    while out is not None:
        state, value = out
        if value is None:
            return
        yield value
        out = advance(state)


def unfold(advance, init):
    """A stream driven by ``advance(state) -> (new_state, value)`` or
    ``None`` when exhausted; the state need not coincide with the
    elements."""
    return _source(_unfolding(advance, init))


def from_list(values):
    """A finite stream of the given values, in order, duplicates kept."""
    vs = list(values)
    return _source(iter(vs if None not in vs else vs[:vs.index(None)]))


def int_range(lo, hi):
    """Integers lo, lo+1, ..., hi-1 (half-open); empty when hi <= lo.
    Both bounds are ints (``TypeError`` otherwise)."""
    return _source(iter(range(lo, hi)))


def cycle_values(values):
    """The values repeated forever; the empty cycle is the empty stream."""
    vs = list(values)
    return _source(cycle(vs) if None not in vs else iter(vs[:vs.index(None)]))


def _count(n):
    """Int ``n`` (else ``TypeError``) as an ``islice`` count."""
    return min(max(operator.index(n), 0), sys.maxsize)


def take(n, source):
    """At most the first ``n`` elements of ``source``; ``n`` is an int."""
    source = _own(source)
    return _source(islice(source._it, _count(n)), (source,))


def drop(n, source):
    """``source`` without its first ``n`` elements (fewer if it runs out);
    ``n`` is an int."""
    source = _own(source)
    return _source(islice(source._it, _count(n), None), (source,))


def slice_(start, end, source):
    """Elements at positions [start, end) of ``source``; requires ints
    0 <= start <= end."""
    if not 0 <= start <= end:
        raise ValueError("slice bounds must satisfy 0 <= start <= end")
    return take(end - start, drop(start, source))


def naturals():
    """0, 1, 2, ..."""
    return _source(count(0))


def positives():
    """1, 2, 3, ..."""
    return _source(count(1))


def negatives():
    """-1, -2, -3, ..."""
    return _source(count(-1, -1))
