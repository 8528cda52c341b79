"""The single pull protocol: ownership of inputs, ``None`` ending a
stream at every layer, and the nesting bound."""

import io
import weakref

import pytest

from streamgen import (
    Source,
    answer_source,
    constant,
    convolution,
    cycle_values,
    drop,
    from_list,
    int_range,
    lazy2gen,
    lazy_list,
    lazy_maplist,
    lazy_sum,
    map1,
    map2,
    naturals,
    product,
    product_cantor,
    reduce_stream,
    scan,
    setify,
    show,
    slice_,
    sum_alt,
    sum_streams,
    take,
    token_reader,
)
from streamgen.core import _MAX_NESTING
from streamgen.lazylist import nil


class CountingFile(io.StringIO):
    def __init__(self, text):
        super().__init__(text)
        self.close_calls = 0

    def close(self):
        self.close_calls += 1
        super().close()


def checked(fn):
    """``fn`` refusing ``None`` among its arguments."""

    def call(*args):
        assert all(a is not None for a in args), args
        return fn(*args)

    return call


inc = checked(lambda x: x + 10)
add = checked(lambda a, b: a + b)

UNARY = {
    "take": lambda s: take(5, s),
    "drop": lambda s: drop(1, s),
    "map1": lambda s: map1(inc, s),
    "scan": lambda s: scan(add, 0, s),
    "reduce_stream": lambda s: reduce_stream(add, 0, s),
    "setify": setify,
}
BINARY = {
    "map2": lambda a, b: map2(add, a, b),
    "sum_streams": sum_streams,
    "sum_alt": sum_alt,
    "product": product,
    "convolution": convolution,
    "product_cantor": product_cantor,
}


def one_none_two():
    yield 1
    yield None
    yield 2


def list_step(xs):
    return (xs[1:], xs[0]) if xs else None


LEAVES = {
    "from_list": lambda: from_list([1, None, 2]),
    "cycle_values": lambda: cycle_values([1, None, 2]),
    "constant": lambda: constant(None),
    "answer_source": lambda: answer_source(one_none_two),
    "lazy2gen": lambda: lazy2gen(lazy_list(list_step, (1, None, 2))),
}

# The leaf is [1] (or [] for constant(None)); the other input of a
# binary layer is naturals.  Each pair shows the leaf as the left, then
# as the right input.
EXPECTED = {
    "take": ("[1]", "[]"),
    "drop": ("[]", "[]"),
    "map1": ("[11]", "[]"),
    "scan": ("[1]", "[]"),
    "reduce_stream": ("[1]", "[0]"),
    "setify": ("[1]", "[]"),
    "map2": (("[1]", "[1]"), ("[]", "[]")),
    "sum_streams": (("[1, 0, 1, 2, 3]", "[0, 1, 1, 2, 3]"), ("[0, 1, 2, 3, 4]", "[0, 1, 2, 3, 4]")),
    "sum_alt": (("[1, 0, 1, 2, 3]", "[0, 1, 1, 2, 3]"), ("[0, 1, 2, 3, 4]", "[0, 1, 2, 3, 4]")),
    "product": (("[1-0, 1-1, 1-2, 1-3, 1-4]", "[0-1, 1-1, 2-1, 3-1, 4-1]"), ("[]", "[]")),
    "convolution": (("[1-0, 1-1, 1-2, 1-3, 1-4]", "[0-1, 1-1, 2-1, 3-1, 4-1]"), ("[]", "[]")),
    "product_cantor": (("[1-0, 1-1, 1-2, 1-3, 1-4]", "[0-1, 1-1, 2-1, 3-1, 4-1]"), ("[]", "[]")),
}


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@pytest.mark.parametrize("layer", sorted(UNARY))
def test_none_ends_the_stream_under_every_unary_layer(leaf, layer):
    want = EXPECTED[layer][leaf == "constant"]
    assert show(5, UNARY[layer](LEAVES[leaf]())) == want


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@pytest.mark.parametrize("layer", sorted(BINARY))
def test_none_ends_the_stream_under_every_binary_layer(leaf, layer):
    left, right = EXPECTED[layer][leaf == "constant"]
    make = BINARY[layer]
    assert show(5, make(LEAVES[leaf](), naturals())) == left
    assert show(5, make(naturals(), LEAVES[leaf]())) == right


def test_none_from_a_user_function_ends_every_later_layer():
    stop_at_3 = checked(lambda x: x if x < 3 else None)
    assert show(9, map1(inc, map1(stop_at_3, naturals()))) == "[10, 11, 12]"
    assert show(9, scan(add, 0, map2(checked(lambda a, b: a if a < 3 else None), naturals(), naturals()))) == "[0, 1, 3]"
    assert show(9, reduce_stream(add, 0, scan(checked(lambda a, x: None if x > 3 else a + x), 0, naturals()))) == "[10]"


@pytest.mark.parametrize("layer", sorted(UNARY))
def test_stop_before_first_ask_stops_the_input(layer):
    src = naturals()
    UNARY[layer](src).stop()
    assert src.is_done()


@pytest.mark.parametrize("layer", sorted(BINARY))
def test_stop_before_first_ask_stops_both_inputs(layer):
    a, b = naturals(), naturals()
    BINARY[layer](a, b).stop()
    assert a.is_done() and b.is_done()


@pytest.mark.parametrize("layer", sorted(UNARY) + sorted(BINARY))
def test_stop_before_first_ask_closes_reader_files_once(layer):
    files = [CountingFile("1 2 3\n") for _ in range(2)]
    readers = [token_reader(f) for f in files]
    if layer in UNARY:
        g = UNARY[layer](readers[0])
        files.pop()
    else:
        g = BINARY[layer](*readers)
    g.stop()
    g.stop()
    assert g.ask() is None
    assert [f.close_calls for f in files] == [1] * len(files)


def test_stop_reaches_every_source_of_a_nested_pipeline():
    leaves = [naturals() for _ in range(4)]
    g = setify(product(take(3, leaves[0]), sum_streams(map1(inc, leaves[1]), convolution(leaves[2], leaves[3]))))
    g.stop()
    assert all(leaf.is_done() for leaf in leaves)


@pytest.mark.parametrize("layer", [lambda s: take(10, s), lambda s: map1(inc, s)], ids=["take", "map1"])
def test_nesting_past_the_bound_raises_recursion_error(layer):
    leaf = naturals()
    g = leaf
    for _ in range(_MAX_NESTING - 1):
        g = layer(g)
    with pytest.raises(RecursionError):
        layer(g)
    g.stop()
    assert leaf.is_done()


def test_deepest_take_stack_allowed_runs():
    g = naturals()
    for _ in range(_MAX_NESTING - 1):
        g = take(10, g)
    assert list(g) == list(range(10))


def test_nesting_counts_through_every_input():
    deep = naturals()
    for _ in range(_MAX_NESTING - 1):
        deep = take(1, deep)
    with pytest.raises(RecursionError):
        sum_streams(naturals(), deep)


PIPELINES = [pytest.param(layer, 0, id=layer) for layer in sorted(UNARY)] + [
    pytest.param(layer, side, id="%s-%s" % (layer, ("left", "right")[side]))
    for layer in sorted(BINARY)
    for side in (0, 1)
]


@pytest.mark.parametrize("layer, side", PIPELINES)
def test_producer_stopping_the_pipeline_that_owns_it(layer, side):
    events = []

    def produce():
        try:
            yield 1
            g.stop()
            events.append("after stop")
            for n in naturals():
                yield n + 2
                events.append("resumed")
        finally:
            events.append("cleanup")

    e = answer_source(produce)
    if layer in UNARY:
        g = UNARY[layer](e)
    else:
        g = BINARY[layer](*([e, from_list([7, 8, 9])] if side == 0 else [from_list([7, 8, 9]), e]))
    while (x := g.ask()) is not None:  # the in-flight pull ends the loop
        assert "after stop" not in events, x
    assert events == ["after stop", "cleanup"]
    g.stop()
    assert g.is_done() and e.is_done() and g.ask() is None
    assert events == ["after stop", "cleanup"]


def test_scan_from_none_folds_the_first_element_too():
    def first_or_sum(acc, x):
        return x if acc is None else acc + x

    assert show(5, scan(first_or_sum, None, from_list([1, 2, 3]))) == "[1, 3, 6]"


def test_producer_stopping_its_engine_while_an_owner_pulls_it():
    events = []

    def produce():
        try:
            yield 1
            e.stop()
            events.append("after stop")
            yield 2
            events.append("resumed")
            yield 3
        finally:
            events.append("cleanup")

    e = answer_source(produce)
    m = map1(inc, e)
    assert m.ask() == 11
    assert m.ask() is None  # the pull in flight ends at once
    assert events == ["after stop", "cleanup"]
    assert e.is_done() and m.ask() is None
    assert events == ["after stop", "cleanup"]


def test_a_dropped_engine_is_closed_at_once():
    events = []

    def produce():
        try:
            yield 1
            yield 2
        finally:
            events.append("cleanup")

    e = answer_source(produce)
    g = map1(inc, answer_source(produce))
    assert e.ask() == 1 and g.ask() == 11
    del e, g
    assert events == ["cleanup", "cleanup"]


def test_a_step_stopping_its_source_defers_the_cleanup_until_it_returns():
    events = []

    def step():
        src.stop()
        events.append("step returns")
        return 1

    src = Source(step, lambda: events.append("cleanup"))
    assert src.ask() is None
    assert src.ask() is None
    assert events == ["step returns", "cleanup"]


def test_a_stopped_step_source_is_never_stepped_again_by_its_owner():
    calls = []

    def step():
        calls.append(len(calls))
        return len(calls)

    src = Source(step)
    g = sum_streams(take(9, src), naturals())
    assert show(3, g) == "[1, 0, 2]"
    src.stop()
    assert show(3, g) == "[1, 2, 3]"
    assert len(calls) == 2


def test_second_stop_of_a_shared_dag_and_a_deep_chain_is_cheap():
    leaf = from_list([1, 2])
    x = leaf
    for _ in range(40):  # 2**40 paths from the top to the leaf
        x = sum_streams(x, x)
    assert list(x) == [1, 2]
    x.stop()
    x.stop()
    assert leaf.is_done() and x._inputs == ()

    leaf = naturals()
    g = leaf
    for _ in range(_MAX_NESTING - 1):
        g = take(5, g)
    g.stop()
    for _ in range(1000):
        g.stop()
        assert g.ask() is None
    assert leaf.is_done() and g._inputs == ()


def test_stop_still_stops_every_input_when_a_cleanup_raises():
    def fail():
        raise OSError("cleanup failed")

    f = CountingFile("1 2\n")
    g = sum_streams(Source(lambda: 1, fail), token_reader(f))
    with pytest.raises(OSError):
        g.stop()
    assert f.close_calls == 1 and g.ask() is None


def test_counts_and_bounds_must_be_ints():
    for make in (lambda: take(2.0, naturals()), lambda: drop(2.0, naturals()),
                 lambda: slice_(0.5, 2, naturals()), lambda: int_range(0.5, 3)):
        with pytest.raises(TypeError):
            make()
    assert show(5, take(2**70, from_list([1, 2]))) == "[1, 2]"
    assert show(5, drop(2**70, from_list([1, 2]))) == "[]"
    assert show(5, take(-1, naturals())) == "[]"


class Box:
    pass


def boxed(k):
    return k + 1, Box()


@pytest.mark.parametrize("view", [
    lazy2gen,
    iter,
    lambda lst: iter(lazy_maplist(lambda b: b, lst)),
    lambda lst: iter(lazy_sum(lst, nil())),
], ids=["lazy2gen", "iter", "lazy_maplist", "lazy_sum"])
def test_walking_a_lazy_list_frees_the_cells_behind(view):
    walk = view(lazy_list(boxed, 0))
    pull = walk.ask if view is lazy2gen else walk.__next__
    first = weakref.ref(pull())
    pull()
    pull()
    assert first() is None


@pytest.mark.parametrize("owned", [False, True], ids=["alone", "owned"])
@pytest.mark.parametrize("asks", [0, 2], ids=["never-asked", "half-read"])
def test_a_dropped_step_source_runs_its_cleanup_once(asks, owned):
    cleanups = []
    src = Source(iter([1, 2, 3, 4]).__next__, lambda: cleanups.append("cleanup"))
    g = take(9, src) if owned else src
    del src
    for _ in range(asks):
        assert g.ask() is not None
    assert cleanups == []
    del g
    assert cleanups == ["cleanup"]


GENERATOR_LAYERS = ["convolution", "product", "product_cantor", "scan", "setify", "sum_streams"]


def generator_layer(name):
    """The layer ``name`` over naturals: a source over a Python generator."""
    return UNARY[name](naturals()) if name in UNARY else BINARY[name](naturals(), naturals())


@pytest.mark.parametrize("inner", GENERATOR_LAYERS)
def test_an_owned_generator_layer_stopped_directly_ends_its_owner(inner):
    src = generator_layer(inner)
    g = take(9, src)
    assert g.ask() is not None
    src.stop()
    assert g.ask() is None and g.is_done()


@pytest.mark.parametrize("inner", GENERATOR_LAYERS)
def test_a_sum_carries_on_past_a_stopped_generator_input(inner):
    src = generator_layer(inner)
    g = sum_streams(src, from_list([10, 11, 12]))
    assert g.ask() is not None and g.ask() == 10
    src.stop()
    assert show(5, g) == "[11, 12]"
