import pytest

from conftest import prefix
from streamgen import (
    Engine,
    and_nats,
    answer_source,
    clonable_source,
    clone_source,
    engine_create,
    engine_next,
    engine_stop,
    naturals,
    or_nats,
    take,
)


def two_yields():
    def produce():
        yield "a"
        yield "b"

    return produce


def test_engine_steps_through_yields():
    e = engine_create(two_yields())
    assert engine_next(e) == "a"
    assert engine_next(e) == "b"
    assert engine_next(e) is None
    assert engine_next(e) is None  # sticky


def test_producer_without_yields():
    def produce():
        return iter(())

    e = Engine(produce)
    assert e.next() is None


def test_run_only_when_asked():
    started = []

    def produce():
        started.append(True)
        yield 1

    e = Engine(produce)
    assert started == []
    assert e.next() == 1
    assert started == [True]


def test_producer_error_surfaces_then_sticky():
    def produce():
        yield 1
        yield 2
        raise RuntimeError("boom")

    e = Engine(produce)
    assert e.next() == 1
    assert e.next() == 2
    with pytest.raises(RuntimeError):
        e.next()
    assert e.next() is None


def test_stop_runs_cleanup_exactly_once():
    cleanups = []

    def produce():
        try:
            n = 0
            while True:
                yield n
                n += 1
        finally:
            cleanups.append(True)

    e = Engine(produce)
    assert e.next() == 0
    assert e.next() == 1
    e.stop()
    e.stop()
    assert cleanups == [True]
    assert e.next() is None


def test_stop_fresh_engine_never_starts_producer():
    started = []

    def produce():
        started.append(True)
        yield 1

    e = Engine(produce)
    engine_stop(e)
    assert e.next() is None
    assert started == []


def test_stop_from_inside_own_producer():
    events = []

    def produce():
        try:
            yield 1
            g.stop()
            events.append("after stop")
            yield 2
            events.append("resumed")
        finally:
            events.append("cleanup")

    g = answer_source(produce)
    assert g.ask() == 1
    assert g.ask() is None  # the in-flight ask
    assert events == ["after stop", "cleanup"]
    assert g.is_done()
    assert g.ask() is None
    g.stop()
    assert events == ["after stop", "cleanup"]


def test_engine_stopped_by_its_producer_stays_stopped():
    cleanups = []

    def produce():
        try:
            e.stop()
            yield 1
        finally:
            cleanups.append(True)

    e = Engine(produce)
    assert e.next() is None
    assert e.status == "stopped"
    assert cleanups == [True]
    e.stop()
    assert e.next() is None
    assert cleanups == [True]

    def produce_and_return():
        try:
            e.stop()
            return
            yield
        finally:
            cleanups.append(True)

    e = Engine(produce_and_return)
    assert e.next() is None
    assert e.status == "stopped"
    assert cleanups == [True, True]


def test_answer_source_basics():
    assert prefix(3, answer_source(and_nats())) == [0, 1, 2]
    assert prefix(3, answer_source(or_nats())) == [0, 1, 2]
    assert list(answer_source(two_yields())) == ["a", "b"]
    assert list(answer_source(lambda: iter(()))) == []


def test_and_or_prefix_equality():
    n = 10_000
    assert prefix(n, answer_source(and_nats())) == prefix(
        n, answer_source(or_nats())
    )


def test_and_or_survive_stop_with_cleanup():
    for make in (and_nats, or_nats):
        flags = []
        base = make()

        def produce():
            try:
                yield from base()
            finally:
                flags.append(True)

        g = answer_source(produce)
        assert prefix(3, g) == [0, 1, 2]
        g.stop()
        assert flags == [True]
        assert g.ask() is None


def test_flat_memory_many_nexts():
    e = Engine(and_nats())
    for i in range(100_000):
        assert e.next() == i


def test_clonable_source_independent_copies():
    a = clonable_source(and_nats)
    b = clonable_source(and_nats)
    assert a.ask() == 0
    assert b.ask() == 0
    assert a.ask() == 1
    assert b.ask() == 1


def test_clone_restarts_from_beginning():
    g = clonable_source(and_nats)
    assert prefix(5, g) == [0, 1, 2, 3, 4]
    c = clone_source(g)
    assert c.ask() == 0
    assert g.ask() == 5  # original unaffected


def test_clone_of_exhausted_finite_source_replays():
    def finite_factory():
        def produce():
            yield from ("a", "b")

        return produce

    g = clonable_source(finite_factory)
    assert list(g) == ["a", "b"]
    assert list(clone_source(g)) == ["a", "b"]


def test_clone_non_clonable_is_error():
    with pytest.raises(TypeError):
        clone_source(take(3, naturals()))
