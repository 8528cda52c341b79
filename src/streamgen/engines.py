"""Engines: resumable producers, which are answer-stream sources.

An engine is a :class:`~streamgen.core.Source` over the iterator that a
producer (a zero-argument callable, typically a generator function)
returns when the engine is made; ``next`` is ``ask``.  A generator runs
only while an ask is in flight.  The engine's guard closes the producer
in its ``finally`` however the engine ends: stopped (mid-stream or before
its first ask), run out or dropped.  A producer may stop its engine or a
pipeline owning it: the pull in flight then ends with ``None``, and the
producer is closed once it has yielded.
"""

from functools import partial

from .core import Source

__all__ = [
    "Engine",
    "and_nats",
    "answer_source",
    "clonable_source",
    "clone_source",
    "engine_create",
    "engine_next",
    "engine_stop",
    "or_nats",
]


class Engine(Source):
    """A producer stepped one answer at a time; an error raised inside
    the producer ends the engine and propagates to the caller."""

    __slots__ = ()

    def __init__(self, producer):
        it = iter(producer())
        super().__init__(partial(next, it, None), getattr(it, "close", None))

    next = Source.ask

    @property
    def status(self):
        """``"stopped"`` once done (stopped or finished), else ``"suspended"``."""
        return "stopped" if self.is_done() else "suspended"


# The paper's engine API, and its answer-stream view: the same source.
engine_create = answer_source = Engine
engine_next = Engine.next
engine_stop = Engine.stop


class ClonableSource(Engine):
    """An answer source that remembers its producer factory so fresh
    restarted copies can be made; only meaningful for side-effect-free
    producers."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory
        super().__init__(factory())


clonable_source = ClonableSource


def clone_source(source):
    """A fresh source replaying the producer from the beginning; the
    original is unaffected."""
    if not isinstance(source, ClonableSource):
        raise TypeError("clone_source requires a source made by clonable_source")
    return ClonableSource(source.factory)


def and_nats():
    """Producer of 0, 1, 2, ... from a forward loop, yielding as it goes."""

    def produce():
        n = 0
        while True:
            yield n
            n += 1

    return produce


def or_nats():
    """Producer of 0, 1, 2, ... by exhaustively exploring a
    choose-or-descend search: each agenda entry either *is* the answer
    or defers to its successor.  Iterative agenda, so yield count does
    not grow the call stack."""

    def produce():
        agenda = [0]
        while agenda:
            n = agenda.pop()
            yield n
            agenda.append(n + 1)

    return produce
