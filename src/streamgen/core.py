"""The generator core: single-consumer stream sources with sticky
termination, basic constructors, slicing and display helpers.

A :class:`Source` is one Python iterator plus the sources it owns.  The
iterator never yields ``None``: that is not a stream value, so a list, a
producer or a user callable (handed to :func:`iterate`, ``map1`` etc.)
ends the stream where it would deliver ``None``, cut by identity, never
by ``==``.  Once a source is exhausted, raises or is stopped, it stays
done.  ``stop()`` closes a generator iterator, whose ``finally`` is the
one place a cleanup runs, then stops and drops each owned source.  A
combinator builds its iterator from its inputs' iterators, so a pipeline
pulls through one chain of iterators rather than one ``ask`` per layer.

A source handed to a combinator belongs to it; nothing enforces that.
Stopped directly, an owned source over a generator (``Source(step)``,
an engine, a reader, ``scan``, ``setify``, a sum or a product) gives its
owner no more elements; a source over C iterators alone (``naturals()``,
``take`` of it, ...) keeps feeding the owner.  A pull during which its
source is stopped, by a step or producer, ends with ``None``.

Pulls between C iterators (``islice``, ``map``, ...) do not count
against Python's recursion limit, so a deep enough chain of them would
overflow the C stack.  Building a source that owns a chain of more than
1000 sources, itself included, raises ``RecursionError`` instead.  A
chain of Python-generator layers (``sum_streams``, ``setify``, ``scan``)
close to that cap still builds, but its first pull takes one Python frame
per layer: from a shallow stack, 998 of them exceed Python's recursion
limit, and the ``RecursionError`` stops the source.
"""

import operator
import random
import sys
import weakref
from functools import partial
from itertools import count, cycle, islice, repeat, starmap, takewhile
from types import GeneratorType

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

# ``it`` up to its first None, by identity: C-level, never calling __eq__.
_until_none = partial(takewhile, partial(operator.is_not, None))


def _guarded(ref, it, cleanup):
    """The values of ``it`` up to ``None``, for the source ``ref()``.
    Primed to its bare ``yield``, its ``finally`` runs ``cleanup`` however
    it ends, also closed or dropped unasked.  It holds no reference to
    the source between pulls, so a dropped source is freed at once."""
    try:
        yield
        for x in it:
            if x is None or (src := ref()) is None or src._it is _DONE:
                break
            src = None
            yield x
        if (src := ref()) is not None:
            src.stop()  # done also when an owner pulled it
    finally:
        if cleanup is not None:
            cleanup()


class Source:
    """A stateful, single-consumer stream of values.

    ``Source(step, cleanup)`` streams the results of ``step()`` up to its
    first ``None``, or until ``step`` raises ``StopIteration``;
    ``cleanup()`` runs once, when the source is stopped, runs out or is
    dropped.  Iterating a source consumes it.
    """

    __slots__ = ("_it", "_inputs", "_depth", "__weakref__")

    def __init__(self, step, cleanup=None):
        self._guard(starmap(step, repeat(())), cleanup)

    def _guard(self, it, cleanup):
        """Make this a source over the values of ``it``, behind the guard."""
        self._it = it = _guarded(weakref.ref(self), it, cleanup)
        next(it)
        self._inputs = ()
        self._depth = 1

    def ask(self):
        """Produce the next value, or ``None`` if the stream is done."""
        try:
            x = next(self._it, None)
        except BaseException:
            self.stop()
            raise
        if x is not None and self._it is not _DONE:
            return x
        self.stop()  # ran out, or was stopped during the pull

    def stop(self):
        """Mark the source done, close its iterator if that is a generator
        not running, then stop and drop each source it owns; idempotent."""
        todo = [self]
        try:
            while todo:
                s = todo.pop()
                it, s._it = s._it, _DONE
                todo += s._inputs[::-1]
                s._inputs = ()
                if type(it) is GeneratorType and not it.gi_running:
                    it.close()
        finally:
            while todo:  # a cleanup raised: still stop the rest
                todo.pop().stop()

    def is_done(self):
        """True once the source has reported exhaustion or was stopped."""
        return self._it is _DONE

    def __iter__(self):
        # ``ask`` inlined, reading ``_it`` at each pull; a consumer that
        # leaves the loop (closing this generator) leaves the source live.
        while True:
            try:
                x = next(self._it, None)
            except BaseException:
                self.stop()
                raise
            if x is None or self._it is _DONE:
                self.stop()
                return
            yield x


_new = object.__new__


def _source(it, inputs=()):
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
    return "[" + ", ".join(map(render, islice(source, _count(n)))) + "]"


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
    return _source(iter(list(_until_none(values))))


def int_range(lo, hi):
    """Integers lo, lo+1, ..., hi-1 (half-open); empty when hi <= lo.
    Both bounds are ints (``TypeError`` otherwise)."""
    return _source(iter(range(lo, hi)))


def cycle_values(values):
    """The values repeated forever; the empty cycle is the empty stream."""
    vs = list(values)
    cut = list(_until_none(vs))
    return _source(cycle(vs) if len(cut) == len(vs) else iter(cut))


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
