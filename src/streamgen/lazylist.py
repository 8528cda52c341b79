"""Memoized, possibly infinite cons-lists and their isomorphism with
stream sources.

A :class:`LazyList` cell is Nil or (head, tail) in one object: its
list's iterator until forced, then its head and next cell (``None`` for
Nil).  Only the last cell of a list can be unforced, so all of its cells
share one iterator: forcing a cell pulls it once, memoizes the value and
the next cell (or Nil at the iterator's end) and lets go of it.  So
content is computed at most once ever, and all holders of a cell observe
the same content.  A value may be ``None``, unlike in a source.  Holding
an early cell pins every forced cell reachable from it, so drop the
head when streaming through long lists.
"""

from itertools import count, islice
from operator import itemgetter

from . import core
from .combinators import _interleave
from .core import _END, _new, _until_none

__all__ = [
    "LazyList",
    "gen2lazy",
    "lazy2gen",
    "lazy_list",
    "lazy_maplist",
    "lazy_nats",
    "lazy_nats_from",
    "lazy_sum",
    "lazy_take",
    "nil",
    "sum_alt",
    "transport1",
    "transport2",
    "transport_split",
]


class LazyList:
    """A shared, memoized cons cell over its list's iterator; made
    directly, it unfolds ``step(state) -> (new_state, value) | None``."""

    __slots__ = ("_it", "_head", "_tail")

    def __init__(self, step, state):
        def advance():
            nonlocal state
            out = step(state)
            if out is not None:
                state, _ = out
            return out

        # Live after a raising ``step`` (the cell can be forced again);
        # the None test sees ``step``'s result, never a value.
        self._it = map(itemgetter(1), iter(advance, None))

    def force(self):
        """Return ``None`` for Nil or a new ``(head, tail)`` pair, pulling
        the list's iterator on first use.  If the pull raises, the cell
        stays unforced; a retry pulls again (a spent generator: Nil)."""
        it = self._it
        if it is not None:
            x = next(it, _END)
            if x is _END:
                self._tail = None
            else:
                tail = _new(LazyList)
                tail._it = it
                self._head = x
                self._tail = tail
            self._it = None
        tail = self._tail
        return None if tail is None else (self._head, tail)

    def head(self):
        if self._it is not None:
            self.force()
        if self._tail is None:
            raise IndexError("head of empty lazy list")
        return self._head

    def tail(self):
        if self._it is not None:
            self.force()
        if self._tail is None:
            raise IndexError("tail of empty lazy list")
        return self._tail

    def is_nil(self):
        if self._it is not None:
            self.force()
        return self._tail is None

    def __iter__(self):
        return _cells(self)


def _lazy(it):
    """The lazy list of the values of ``it``: an unforced cell over it."""
    cell = _new(LazyList)
    cell._it = it
    return cell


def _cells(lst):
    """The values of ``lst``, forcing cells as ``force`` does; it holds
    no cell behind the current one."""
    while True:
        it = lst._it
        if it is not None:
            x = next(it, _END)
            if x is _END:
                lst._it = lst._tail = None
                return
            tail = _new(LazyList)
            tail._it = it
            lst._head = x
            lst._tail = tail
            lst._it = None
        elif (tail := lst._tail) is None:
            return
        else:
            x = lst._head
        lst = tail
        yield x


def lazy_list(step, init):
    """A lazy list unfolded from ``step(state) -> (new_state, value)``
    (``None`` terminates)."""
    return LazyList(step, init)


def nil():
    return _lazy(iter(()))


def lazy_nats_from(n):
    """The infinite lazy list n, n+1, n+2, ..."""
    return _lazy(count(n))


def lazy_nats():
    return lazy_nats_from(0)


def lazy_take(n, lst):
    """The first min(n, length) elements as a plain list; forces no cell
    beyond the requested prefix.  ``n`` is an int; a negative one takes
    nothing."""
    return list(islice(_cells(lst), core._count(n)))


def gen2lazy(source):
    """View a source as a lazy list; the source is asked only on force,
    and becomes owned by the list."""
    return _lazy(iter(source))


def lazy2gen(lst):
    """View a lazy list as a source, forcing cells on ask."""
    return core._source(_until_none(_cells(lst)))


def transport1(op, a, src=lazy2gen, dst=gen2lazy):
    """Transport a one-in one-out operation across the representation
    isomorphism: convert the argument with ``src``, apply ``op``,
    convert back with ``dst``.  Defaults run a source operation on lazy
    lists."""
    return dst(op(src(a)))


def transport2(op, a, b, src=lazy2gen, dst=gen2lazy):
    """Two-in one-out variant of :func:`transport1`."""
    return dst(op(src(a), src(b)))


def transport_split(op, a, src=lazy2gen, dst=gen2lazy):
    """One-in two-out variant of :func:`transport1`."""
    first, second = op(src(a))
    return dst(first), dst(second)


def _mapped(f, values):
    """``f`` over ``values`` up to a ``None`` value or result; it holds
    no list, so it pins no cell."""
    for x in values:
        y = None if x is None else f(x)
        if y is None:
            return
        yield y


def lazy_maplist(f, lst):
    """Elementwise ``f`` over a lazy list, itself lazy, so it is safe on
    infinite lists where an eager map would diverge.  Like ``map1`` on
    its source view, it ends at a ``None`` value or result."""
    return _lazy(_mapped(f, _cells(lst)))


def lazy_sum(a, b):
    """Strict alternation a0, b0, a1, b1, ... continuing in the longer
    list after the shorter ends."""
    return _lazy(_interleave(_cells(a), _cells(b)))


def sum_alt(g1, g2):
    """Interleaving of two sources, implemented on the lazy-list side
    (``lazy_sum``) and viewed as a source that owns both."""
    g1, g2 = core._own(g1), core._own(g2)
    lst = lazy_sum(gen2lazy(g1), gen2lazy(g2))
    return core._source(_until_none(_cells(lst)), (g1, g2))
