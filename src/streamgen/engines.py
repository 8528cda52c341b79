"""Resumable producers ("engines") and answer-stream sources.

An engine wraps a producer: a zero-argument callable returning an
iterator (typically a generator function).  The producer runs only
while an ``Engine.next`` call is in flight; each value it yields is
handed to exactly one ``next`` call.  Stopping an engine closes the
underlying iterator, which runs the producer's cleanup (``finally``
blocks) even mid-stream.  A producer may stop its own engine while it
runs: the ``next`` call in flight then returns ``None`` and the iterator
is closed once control has left it.
"""

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

FRESH = "fresh"
RUNNING = "running"
SUSPENDED = "suspended"
COMPLETED = "completed"
STOPPED = "stopped"


class Engine:
    """A producer stepped one answer at a time.

    States: fresh (producer not started), running (inside ``next``),
    suspended (mid-stream), completed (returned or raised), stopped
    (cancelled early).  ``next`` on a completed or stopped engine returns
    ``None`` without resuming the producer.
    """

    __slots__ = ("_producer", "_it", "status")

    def __init__(self, producer):
        self._producer = producer
        self._it = None
        self.status = FRESH

    def next(self):
        """Resume the producer to its next yield; ``None`` once it has
        finished.  An error raised inside the producer terminates the
        engine and propagates to the caller."""
        if self.status in (COMPLETED, STOPPED):
            return None
        it = self._it
        if it is None:
            it = self._it = iter(self._producer())
        self.status = RUNNING
        try:
            value = next(it)
        except StopIteration:
            self._finish(COMPLETED)
            return None
        except BaseException:
            self._finish(COMPLETED)
            raise
        if self.status is STOPPED:  # the producer stopped its own engine
            _close(it)
            return None
        self.status = SUSPENDED
        return value

    def stop(self):
        """Cancel the engine, running the producer's cleanup. Idempotent.
        Called from inside the running producer, it defers the cleanup
        until the producer next yields or returns."""
        if self.status in (COMPLETED, STOPPED):
            return
        it = self._it
        running = self.status is RUNNING
        self._finish(STOPPED)
        if it is not None and not running:
            _close(it)

    def _finish(self, status):
        if self.status is not STOPPED:
            self.status = status
        self._it = None
        self._producer = None


def _close(it):
    close = getattr(it, "close", None)
    if close is not None:
        close()


def engine_create(producer):
    return Engine(producer)


def engine_next(engine):
    return engine.next()


def engine_stop(engine):
    engine.stop()


def answer_source(producer):
    """Wrap a producer's yield sequence as a stream source."""
    engine = Engine(producer)
    return Source(engine.next, cleanup=engine.stop)


class ClonableSource(Source):
    """An answer source that remembers its producer factory so fresh
    restarted copies can be made; only meaningful for side-effect-free
    producers."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory
        engine = Engine(factory())
        super().__init__(engine.next, cleanup=engine.stop)


def clonable_source(factory):
    """An answer source over ``factory()`` that supports
    :func:`clone_source`."""
    return ClonableSource(factory)


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
