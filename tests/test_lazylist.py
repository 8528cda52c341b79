import sys
import tracemalloc
from itertools import count

import pytest

from conftest import prefix
from test_protocol import CountingFile
from streamgen import (
    Engine,
    from_list,
    gen2lazy,
    lazy2gen,
    lazy_list,
    lazy_maplist,
    lazy_nats,
    lazy_nats_from,
    lazy_sum,
    lazy_take,
    map1,
    naturals,
    negatives,
    positives,
    sum_alt,
    take,
    token_reader,
    transport1,
    transport2,
    transport_split,
)
from streamgen.lazylist import nil


def list_step(xs):
    if not xs:
        return None
    return xs[1:], xs[0]


def counted_nats_step(counter):
    def step(n):
        counter[0] += 1
        return n + 1, n

    return step


def test_lazy_list_from_finite_state():
    lst = lazy_list(list_step, ["a", "b"])
    assert list(lst) == ["a", "b"]
    assert lazy_take(10, lst) == ["a", "b"]


def test_lazy_list_infinite():
    assert lazy_take(3, lazy_list(lambda n: (n + 1, n), 0)) == [0, 1, 2]


def test_lazy_list_immediately_nil():
    assert lazy_take(5, lazy_list(lambda s: None, "s")) == []
    assert nil().is_nil()
    assert nil().force() is None


def test_lazy_nats():
    assert lazy_take(3, lazy_nats()) == [0, 1, 2]
    assert lazy_take(2, lazy_nats_from(5)) == [5, 6]


def test_force_once_memoization():
    counter = [0]
    lst = lazy_list(counted_nats_step(counter), 0)
    assert lst.force()[0] == 0
    assert lst.force()[0] == 0
    assert counter[0] == 1


def test_shared_holders_observe_same_content():
    counter = [0]
    lst = lazy_list(counted_nats_step(counter), 0)
    holder_a = lst
    holder_b = lst
    assert lazy_take(50, holder_a) == lazy_take(50, holder_b) == list(range(50))
    assert counter[0] == 50


def test_erroring_cell_stays_unforced():
    state = {"fail": True}

    def step(n):
        if state["fail"]:
            raise RuntimeError("not yet")
        return n + 1, n

    lst = lazy_list(step, 0)
    with pytest.raises(RuntimeError):
        lst.force()
    state["fail"] = False
    assert lst.head() == 0


def test_head_tail_of_nil_raise():
    with pytest.raises(IndexError):
        nil().head()
    with pytest.raises(IndexError):
        nil().tail()


def test_gen2lazy():
    assert list(gen2lazy(from_list(["a", "b"]))) == ["a", "b"]
    assert lazy_take(100, gen2lazy(naturals())) == list(range(100))


def test_gen2lazy_is_lazy():
    asked = [0]

    def counting():
        g = naturals()

        def step():
            asked[0] += 1
            return g.ask()

        from streamgen import Source

        return Source(step)

    lst = gen2lazy(counting())
    assert asked[0] == 0
    lst.force()
    assert asked[0] == 1


def test_lazy2gen():
    assert list(lazy2gen(gen2lazy(from_list(["a", "b", "c"])))) == ["a", "b", "c"]
    assert list(take(5, lazy2gen(lazy_nats()))) == [0, 1, 2, 3, 4]
    assert list(lazy2gen(nil())) == []


def test_isomorphism_on_prefixes():
    def build():
        return map1(lambda x: 3 * x, naturals())

    assert prefix(100, lazy2gen(gen2lazy(build()))) == prefix(100, build())


def test_lazy_maplist():
    assert lazy_take(3, lazy_maplist(lambda x: x + 1, lazy_nats())) == [1, 2, 3]
    lst = lazy_list(list_step, list(range(50)))
    assert list(lazy_maplist(lambda x: x * x, lst)) == [x * x for x in range(50)]


def test_lazy_maplist_forces_exactly_k_cells():
    counter = [0]
    lst = lazy_list(counted_nats_step(counter), 0)
    mapped = lazy_maplist(lambda x: x + 1, lst)
    assert lazy_take(7, mapped) == [1, 2, 3, 4, 5, 6, 7]
    assert counter[0] == 7


def test_lazy_sum_alternates():
    a = lazy_list(list_step, ["a1", "a2", "a3"])
    b = lazy_list(list_step, ["b1", "b2", "b3"])
    assert list(lazy_sum(a, b)) == ["a1", "b1", "a2", "b2", "a3", "b3"]


def test_lazy_sum_with_early_exhaustion():
    a = lazy_list(list_step, ["a"])
    b = lazy_list(list_step, [1, 2, 3])
    assert list(lazy_sum(a, b)) == ["a", 1, 2, 3]
    assert list(lazy_sum(nil(), lazy_list(list_step, [1, 2]))) == [1, 2]


def test_sum_alt_matches_interleaving_oracle():
    assert prefix(10, sum_alt(positives(), negatives())) == [
        1, -1, 2, -2, 3, -3, 4, -4, 5, -5,
    ]


def test_transport1_matches_lazy_maplist():
    out = transport1(lambda g: map1(lambda x: x + 1, g), lazy_nats())
    assert lazy_take(5, out) == [1, 2, 3, 4, 5]


def test_transport2_lazy_interleave_on_sources():
    got = prefix(10, transport2(lazy_sum, positives(), negatives(),
                                src=gen2lazy, dst=lazy2gen))
    assert got == [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]


def test_transport_split_partition():
    def partition_parity(g):
        evens, odds = [], []

        def make(mine, other_pred):
            def step():
                while not mine:
                    x = g.ask()
                    if x is None:
                        return None
                    (evens if x % 2 == 0 else odds).append(x)
                return mine.pop(0)

            from streamgen import Source

            return Source(step)

        return make(evens, None), make(odds, None)

    evens, odds = transport_split(partition_parity, lazy_nats())
    assert lazy_take(5, evens) == [0, 2, 4, 6, 8]
    assert lazy_take(5, odds) == [1, 3, 5, 7, 9]


def test_none_value_stays_an_element():
    assert list(lazy_list(list_step, (1, None, 2))) == [1, None, 2]
    both = lazy_sum(lazy_list(list_step, (None, None)), lazy_list(list_step, ("b",)))
    assert list(both) == [None, "b", None]


def test_lazy_maplist_reads_nil_after_f_raises():
    seen = []

    def f(x):
        seen.append(x)
        if x == 1:
            raise RuntimeError("boom")
        return x

    mapped = lazy_maplist(f, lazy_nats())
    assert mapped.head() == 0
    with pytest.raises(RuntimeError):
        mapped.tail().force()
    assert mapped.tail().is_nil()
    assert seen == [0, 1]


def test_lazy_maplist_ends_where_its_source_view_ends():
    assert list(lazy_maplist(lambda x: x, lazy_list(list_step, (1, None, 2)))) == [1]
    assert list(lazy_maplist(lambda x: None if x == 2 else x, lazy_nats())) == [0, 1]


def test_gen2lazy_runs_source_cleanup_once_at_nil():
    from streamgen import Source

    cleanups = []
    values = iter([1, 2])
    lst = gen2lazy(Source(lambda: next(values, None), lambda: cleanups.append(1)))
    assert list(lst) == [1, 2]
    assert cleanups == [1]
    assert list(lst) == [1, 2]
    assert lst.tail().tail().is_nil()
    assert cleanups == [1]


def test_gen2lazy_closes_token_reader_once_at_nil():
    f = CountingFile("1 two\n3\n")
    lst = gen2lazy(token_reader(f))
    assert lst.head() == 1
    assert f.close_calls == 0
    assert list(lst) == [1, "two", 3]
    assert f.close_calls == 1
    assert lst.tail().tail().tail().is_nil()
    assert f.close_calls == 1


def test_lazy_take_negative_count_is_empty():
    counter = [0]
    assert lazy_take(-1, lazy_list(counted_nats_step(counter), 0)) == []
    assert counter[0] == 0


def counting_producer(start, started, closed):
    def produce():
        started.append(start)
        try:
            yield from count(start)
        finally:
            closed.append(start)

    return produce


@pytest.mark.parametrize("asks", [0, 1, 2, 5])
def test_sum_alt_stop_stops_its_engines(asks):
    started, closed = [], []
    engines = [Engine(counting_producer(k, started, closed)) for k in (1, 100)]
    s = sum_alt(*engines)
    got = [s.ask() for _ in range(asks)]
    assert got == [1, 100, 2, 101, 3][:asks]
    s.stop()
    assert all(e.is_done() for e in engines)
    assert sorted(closed) == sorted(started) == [1, 100][:asks]
    assert s.ask() is None


@pytest.mark.parametrize("asks", [1, 2])  # asks=0: test_protocol.py's BINARY
def test_sum_alt_stop_closes_held_token_readers_once(asks):
    files = [CountingFile("1 2 3\n"), CountingFile("x y\n")]
    readers = [token_reader(f) for f in files]
    s = sum_alt(*readers)
    assert [s.ask() for _ in range(asks)] == [1, "x"][:asks]
    s.stop()
    s.stop()
    assert all(r.is_done() for r in readers)
    assert [f.close_calls for f in files] == [1, 1]


def test_a_forced_cell_retains_under_80_bytes():
    """A forced cell is two slots: 48 bytes, and 28 for its int value."""
    n = 10**5
    tracemalloc.start()
    try:
        head = lazy_nats_from(10**6)
        before = tracemalloc.get_traced_memory()[0]
        lazy_take(n, head)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert head.tail().head() == 10**6 + 1
    assert (after - before) / n < 80


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 the caller's value stack keeps each argument "
                           "until the call returns, so the list's head stays held")
@pytest.mark.parametrize("view", [lambda lst: lst, lambda lst: lazy_maplist(lambda x: x, lst)],
                         ids=["bare", "lazy_maplist"])
def test_lazy_take_frees_the_cells_it_has_passed(view):
    """With no other holder of the list, ``lazy_take`` holds only its
    result and the cell it is at, not every cell it has forced."""
    tracemalloc.start()
    try:
        out = lazy_take(10**5, view(lazy_nats_from(10**6)))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == list(range(10**6, 10**6 + 10**5))
    assert peak - current < 64 * 1024
