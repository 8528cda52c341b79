import pytest

from conftest import CountedSteps, prefix
from streamgen import (
    Pair,
    Source,
    constant,
    cycle_values,
    drop,
    from_list,
    int_range,
    iterate,
    naturals,
    negatives,
    positives,
    random_stream,
    show,
    slice_,
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


def test_iterating_pairs_never_compares_them(monkeypatch):
    calls = []
    eq = Pair.__eq__

    def counting_eq(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(Pair, "__eq__", counting_eq)
    pairs = [Pair(1, 2)] * 1000
    src, shown = from_list(pairs), from_list(pairs)
    del calls[:]  # building checks the list for None, a compare per element
    assert len(list(src)) == 1000
    assert len(calls) == 0
    assert show(1000, shown) == "[" + ", ".join(["1-2"] * 1000) + "]"
    assert len(calls) == 0
