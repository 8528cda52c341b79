import pytest

from conftest import CountedSteps, prefix
from streamgen import (
    Pair,
    Source,
    answer_source,
    constant,
    cycle_values,
    drop,
    from_list,
    gen2lazy,
    int_range,
    iterate,
    lazy2gen,
    lazy_list,
    lazy_maplist,
    map1,
    map2,
    naturals,
    negatives,
    positives,
    random_stream,
    show,
    slice_,
    sum_streams,
    take,
    unfold,
)


def test_ask_naturals():
    g = naturals()
    assert g.ask() == 0
    assert g.ask() == 1


def test_ask_empty_source_sets_done():
    g = from_list([])
    assert not g.is_done()  # done is written only by a failed ask
    assert g.ask() is None
    assert g.is_done()


def test_stop_is_sticky_and_idempotent():
    g = naturals()
    g.stop()
    g.stop()
    assert g.ask() is None
    assert g.is_done()


def test_sticky_done_never_reinvokes_step():
    counted = CountedSteps(items=["a"])
    g = counted.source()
    assert g.ask() == "a"
    assert g.ask() is None
    calls = counted.calls
    for _ in range(5):
        assert g.ask() is None
    assert counted.calls == calls


def test_single_production_counts_match():
    counted = CountedSteps(items=list(range(7)))
    g = counted.source()
    produced = list(g)
    assert produced == list(range(7))
    assert counted.calls == 8  # 7 productions + 1 failed step


def test_enumerate_finite_and_empty():
    assert list(from_list(["a", "b"])) == ["a", "b"]
    assert list(from_list([])) == []
    assert list(take(3, naturals())) == [0, 1, 2]


def test_show():
    assert show(3, from_list(["a", "b"])) == "[a, b]"
    assert show(0, naturals()) == "[]"
    assert show(4, naturals()) == "[0, 1, 2, 3]"


def test_constant():
    g = constant("a")
    assert show(2, constant("a")) == "[a, a]"
    assert [g.ask() for _ in range(3)] == ["a", "a", "a"]
    h = constant(1)
    for _ in range(1000):
        h.ask()
    assert not h.is_done()


def test_random_stream_range_and_determinism():
    g = random_stream(7)
    draws = prefix(10_000, g)
    assert all(0.0 <= x < 1.0 for x in draws)
    assert prefix(100, random_stream(3)) == prefix(100, random_stream(3))
    assert prefix(100, random_stream(1)) != prefix(100, random_stream(2))


def test_iterate():
    assert prefix(5, iterate(lambda x: x + 1, 0)) == [0, 1, 2, 3, 4]
    assert prefix(4, iterate(lambda x: 2 * x, 1)) == [1, 2, 4, 8]
    assert iterate(lambda x: x * x, 9).ask() == 9


def test_unfold():
    def list_step(xs):
        if not xs:
            return None
        return xs[1:], xs[0]

    assert list(unfold(list_step, ["a", "b", "c"])) == ["a", "b", "c"]

    def fib_step(state):
        a, b = state
        return (b, a + b), a

    assert prefix(5, unfold(fib_step, (0, 1))) == [0, 1, 1, 2, 3]
    assert list(unfold(lambda s: None, "s")) == []


def test_from_list():
    assert list(from_list(["a", "b", "c"])) == ["a", "b", "c"]
    assert list(from_list(["a", "a"])) == ["a", "a"]


def test_int_range():
    assert list(int_range(1, 4)) == [1, 2, 3]
    assert list(int_range(5, 5)) == []
    assert list(int_range(0, 2)) == [0, 1]


def test_cycle_values():
    assert prefix(5, cycle_values(["a", "b"])) == ["a", "b", "a", "b", "a"]
    assert list(cycle_values([])) == []
    assert prefix(3, cycle_values(["x"])) == prefix(3, constant("x"))


def test_take_drop_slice():
    g = take(2, naturals())
    assert list(g) == [0, 1]
    assert g.is_done()
    assert prefix(2, drop(2, naturals())) == [2, 3]
    assert list(slice_(2, 5, naturals())) == [2, 3, 4]
    assert list(take(5, from_list(["a"]))) == ["a"]
    assert list(drop(5, from_list(["a"]))) == []


def test_slice_rejects_bad_bounds():
    with pytest.raises(ValueError):
        slice_(3, 1, naturals())


def test_arithmetic_sources():
    assert prefix(3, positives()) == [1, 2, 3]
    assert prefix(3, negatives()) == [-1, -2, -3]
    assert prefix(3, naturals()) == [0, 1, 2]


def test_step_error_is_sticky():
    state = {"n": 0}

    def step():
        state["n"] += 1
        if state["n"] == 2:
            raise RuntimeError("boom")
        return state["n"]

    g = Source(step)
    assert g.ask() == 1
    with pytest.raises(RuntimeError):
        g.ask()
    assert g.ask() is None
    assert state["n"] == 2


def two_steps(events):
    steps = iter([1, 2])
    return Source(lambda: next(steps, None), lambda: events.append("cleanup"))


class TwoAnswers:
    """A producer's iterator over 1, 2 that logs each ``close()`` call."""

    def __init__(self, events):
        self.answers = iter([1, 2])
        self.events = events

    def __iter__(self):
        return self

    def __next__(self):
        return next(self.answers)

    def close(self):
        self.events.append("cleanup")


def two_answers(events):
    return answer_source(lambda: TwoAnswers(events))


@pytest.mark.parametrize("make", [two_steps, two_answers], ids=["step", "engine"])
def test_a_step_source_run_out_under_an_owner_is_cleaned_up_at_once(make):
    events = []
    src = make(events)
    g = sum_streams(src, naturals())
    assert show(6, g) == "[1, 0, 2, 1, 2, 3]"
    assert src.is_done() and events == ["cleanup"]
    g.stop()
    assert events == ["cleanup"]


def test_a_step_raising_stop_iteration_ends_the_stream():
    steps = iter([1, 2])
    g = sum_streams(Source(lambda: next(steps)), from_list([7, 8, 9]))
    assert show(9, g) == "[1, 7, 2, 8, 9]"


def test_show_clamps_its_count_like_take():
    assert show(2**70, from_list([1])) == "[1]"
    assert show(-1, naturals()) == "[]"
    with pytest.raises(TypeError):
        show(2.0, naturals())


def test_iterating_a_source_cleans_up_once_at_the_end():
    events = []
    g = take(2, Source(lambda: 7, lambda: events.append("cleanup")))
    assert list(g) == [7, 7]
    assert g.is_done() and events == ["cleanup"]
    assert list(g) == []
    assert events == ["cleanup"]


def test_iterating_a_source_stops_it_when_a_pull_raises():
    events = []
    leaf = Source(lambda: 1, lambda: events.append("cleanup"))

    def f(x):
        raise RuntimeError("boom")

    g = map1(f, leaf)
    with pytest.raises(RuntimeError):
        for _ in g:
            pass
    assert g.is_done() and leaf.is_done()
    assert events == ["cleanup"]


def test_leaving_a_for_loop_leaves_the_source_live():
    g = naturals()
    for x in g:
        if x == 2:
            break
    assert not g.is_done()
    assert g.ask() == 3
    it = iter(g)
    assert next(it) == 4
    it.close()
    assert not g.is_done()
    assert g.ask() == 5


def test_stop_inside_a_for_loop_ends_the_loop():
    events = []
    steps = iter(range(100)).__next__
    for g in (naturals(), map1(abs, naturals()), Source(steps, lambda: events.append(1))):
        seen = []
        for x in g:
            seen.append(x)
            if x == 2:
                g.stop()
            if len(seen) > 5:
                break
        assert seen == [0, 1, 2] and g.is_done()
    assert events == [1]


def test_iterating_pairs_never_compares_them(monkeypatch):
    calls = []
    eq = Pair.__eq__

    def counting_eq(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(Pair, "__eq__", counting_eq)
    pairs = [Pair(1, 2)] * 1000

    def stepper():
        it = iter(pairs)
        return lambda: next(it, None)

    def pair_step(k):
        return (k + 1, pairs[k]) if k < len(pairs) else None

    # Each builds and drains a stream of the 1000 pairs.
    drains = {
        "from_list": lambda: list(from_list(pairs)),
        "show": lambda: show(1000, from_list(pairs)).split(", "),
        "cycle_values": lambda: list(take(1000, cycle_values(pairs))),
        "cycle_values_cut": lambda: list(cycle_values(pairs + [None] + pairs)),
        "map1": lambda: list(map1(lambda p: p, from_list(pairs))),
        "map2": lambda: list(map2(lambda p, q: p, from_list(pairs), cycle_values(pairs))),
        "Source": lambda: list(Source(stepper())),
        "answer_source": lambda: list(answer_source(lambda: iter(pairs))),
        "unfold": lambda: list(unfold(pair_step, 0)),
        "lazy2gen_gen2lazy": lambda: list(lazy2gen(gen2lazy(from_list(pairs)))),
        "lazy_list": lambda: list(lazy_list(pair_step, 0)),
        "lazy_maplist": lambda: list(lazy_maplist(lambda p: p, gen2lazy(from_list(pairs)))),
    }
    for name, drain in drains.items():
        assert len(drain()) == 1000, name
        assert calls == [], name
