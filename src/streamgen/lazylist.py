"""Memoized, possibly infinite cons-lists and their isomorphism with
stream sources.

A :class:`LazyList` cell starts out unforced, holding a suspended
``step(state) -> (new_state, value) | None``.  Forcing computes the
content at most once ever, after which the step and state are dropped;
all holders of the cell observe the same content.  Holding an early
cell pins every forced cell reachable from it, so drop the head when
streaming through long lists.
"""

from . import combinators, core

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

_UNFORCED = object()


class LazyList:
    """A shared, memoized cons cell: Nil or (head, tail)."""

    __slots__ = ("_step", "_state", "_content")

    def __init__(self, step, state):
        self._step = step
        self._state = state
        self._content = _UNFORCED

    def force(self):
        """Return ``None`` for Nil or the ``(head, tail)`` pair,
        computing and memoizing it on first use.  If the step raises,
        the cell stays unforced and can be retried."""
        if self._content is _UNFORCED:
            out = self._step(self._state)
            if out is None:
                self._content = None
            else:
                state, value = out
                self._content = (value, LazyList(self._step, state))
            self._step = None
            self._state = None
        return self._content

    def head(self):
        cell = self.force()
        if cell is None:
            raise IndexError("head of empty lazy list")
        return cell[0]

    def tail(self):
        cell = self.force()
        if cell is None:
            raise IndexError("tail of empty lazy list")
        return cell[1]

    def is_nil(self):
        return self.force() is None

    def __iter__(self):
        return _cells(self)


def _cells(lst):
    """The values of ``lst``, holding no cell behind the current one."""
    cell = lst.force()
    while cell is not None:
        value, lst = cell
        yield value
        cell = lst.force()


def lazy_list(step, init):
    """A lazy list unfolded from ``step(state) -> (new_state, value)``
    (``None`` terminates)."""
    return LazyList(step, init)


def nil():
    return LazyList(lambda _state: None, None)


def lazy_nats_from(n):
    """The infinite lazy list n, n+1, n+2, ..."""
    return lazy_list(lambda k: (k + 1, k), n)


def lazy_nats():
    return lazy_nats_from(0)


def lazy_take(n, lst):
    """The first min(n, length) elements as a plain list; forces no cell
    beyond the requested prefix."""
    out = []
    while len(out) < n:
        cell = lst.force()
        if cell is None:
            break
        value, lst = cell
        out.append(value)
    return out


def gen2lazy(source):
    """View a source as a lazy list; the source is asked only on force,
    and becomes owned by the list."""

    def step(src):
        x = src.ask()
        if x is None:
            return None
        return src, x

    return lazy_list(step, source)


def lazy2gen(lst):
    """View a lazy list as a source, forcing cells on ask."""
    return core._source(combinators._until_none(_cells(lst)))


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


def lazy_maplist(f, lst):
    """Elementwise ``f`` over a lazy list, itself lazy, so it is safe on
    infinite lists where an eager map would diverge."""
    return transport1(lambda g: combinators.map1(f, g), lst)


def lazy_sum(a, b):
    """Strict alternation a0, b0, a1, b1, ... continuing in the longer
    list after the shorter ends."""

    def step(state):
        xs, ys = state
        cell = xs.force()
        if cell is not None:
            x, rest = cell
            return (ys, rest), x
        cell = ys.force()
        if cell is not None:
            y, rest = cell
            return (rest, xs), y
        return None

    return lazy_list(step, (a, b))


def sum_alt(g1, g2):
    """Interleaving of two sources, implemented on the lazy-list side
    and transported back to sources."""
    return transport2(lazy_sum, g1, g2, src=gen2lazy, dst=lazy2gen)
