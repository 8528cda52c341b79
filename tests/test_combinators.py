import itertools
import sys

import pytest

from conftest import prefix
from streamgen import combinators
from streamgen import (
    Pair,
    cantor_pair,
    cantor_unpair,
    constant,
    convolution,
    from_list,
    int_range,
    map1,
    map2,
    naturals,
    negatives,
    positives,
    product,
    product_cantor,
    reduce_stream,
    render,
    scan,
    setify,
    show,
    sum_streams,
    value_key,
)


def plus(a, b):
    return a + b


def multiset(values):
    counts = {}
    for v in values:
        k = value_key(v)
        counts[k] = counts.get(k, 0) + 1
    return counts


def brute_pairs(xs, ys):
    return [Pair(x, y) for x, y in itertools.product(xs, ys)]


# --- sum ---------------------------------------------------------------


def test_sum_interleaves_pos_neg():
    assert prefix(10, sum_streams(positives(), negatives())) == [
        1, -1, 2, -2, 3, -3, 4, -4, 5, -5,
    ]


def test_sum_empty_is_neutral():
    assert list(sum_streams(from_list([]), from_list([1, 2, 3]))) == [1, 2, 3]
    assert list(sum_streams(from_list([1, 2, 3]), from_list([]))) == [1, 2, 3]


def test_sum_continues_in_survivor():
    assert prefix(4, sum_streams(from_list(["a"]), naturals())) == ["a", 0, 1, 2]


def test_sum_even_positions_from_first_input():
    left = map1(lambda x: Pair("l", x), naturals())
    right = map1(lambda x: Pair("r", x), naturals())
    out = prefix(20, sum_streams(left, right))
    for i, p in enumerate(out):
        assert p.left == ("l" if i % 2 == 0 else "r")


# --- products ----------------------------------------------------------


def test_product_nat_nat_trace():
    assert show(12, product(naturals(), naturals())) == (
        "[0-0, 1-0, 1-1, 0-1, 2-1, 2-0, 2-2, 1-2, 0-2, 3-2, 3-1, 3-0]"
    )


def test_product_list_range_trace():
    got = list(product(from_list(["a", "b"]), int_range(1, 4)))
    assert [render(p) for p in got] == ["a-1", "b-1", "b-2", "a-2", "b-3", "a-3"]


def test_product_empty_left():
    assert list(product(from_list([]), naturals())) == []


def test_convolution_trace():
    got = prefix(16, convolution(positives(), from_list(["a", "b", "c"])))
    assert [render(p) for p in got] == [
        "1-a", "1-b", "2-a", "1-c", "2-b", "3-a", "2-c", "3-b",
        "4-a", "3-c", "4-b", "5-a", "4-c", "5-b", "6-a", "5-c",
    ]


def test_convolution_empty():
    assert list(convolution(from_list([]), naturals())) == []
    assert list(convolution(naturals(), from_list([]))) == []


@pytest.mark.parametrize("make", [product, convolution, product_cantor])
def test_products_complete_on_finite_inputs(make):
    for m in range(7):
        for n in range(7):
            xs = ["x%d" % i for i in range(m)]
            ys = list(range(n))
            got = list(make(from_list(xs), from_list(ys)))
            assert multiset(got) == multiset(brute_pairs(xs, ys))


@pytest.mark.parametrize("make", [product, convolution, product_cantor])
def test_product_fairness(make):
    bound = (5 + 5 + 2) ** 2
    out = prefix(bound, make(naturals(), naturals()))
    seen = {(p.left, p.right) for p in out}
    for i in range(6):
        for j in range(6):
            window = out[: (i + j + 2) ** 2]
            assert Pair(i, j) in window, (i, j)
    assert len(seen) == len(out)  # no duplicates among emitted pairs


def test_product_distributes_over_sum_as_multisets():
    a = ["a1", "a2", "a3"]
    b = [1, 2]
    c = ["c1", "c2"]
    lhs = list(product(from_list(a), sum_streams(from_list(b), from_list(c))))
    rhs = list(product(from_list(a), from_list(b))) + list(
        product(from_list(a), from_list(c))
    )
    assert multiset(lhs) == multiset(rhs)


def test_sum_associative_as_multisets():
    a, b, c = ["a", "b"], [1, 2, 3], ["x"]
    lhs = list(
        sum_streams(from_list(a), sum_streams(from_list(b), from_list(c)))
    )
    rhs = list(
        sum_streams(sum_streams(from_list(a), from_list(b)), from_list(c))
    )
    assert multiset(lhs) == multiset(rhs)


# --- cantor pairing ----------------------------------------------------


def test_cantor_unpair_basics():
    assert cantor_unpair(0) == (0, 0)
    assert cantor_pair(1, 1) == 4
    assert cantor_unpair(4) == (1, 1)


def test_cantor_roundtrip():
    for n in range(100_000):
        x, y = cantor_unpair(n)
        assert cantor_pair(x, y) == n


def test_cantor_exact_at_huge_inputs():
    # no float sqrt drift near 2**62
    for n in [2**62, 2**62 - 1, 2**62 + 1, (1 << 62) + 12345]:
        x, y = cantor_unpair(n)
        assert cantor_pair(x, y) == n


@pytest.mark.parametrize("make", [convolution, product_cantor])
@pytest.mark.parametrize("finite_left", [False, True])
def test_finite_side_costs_constant_lines_per_pair(make, finite_left):
    """Indices past [a,b,c]'s end are never visited: the Python lines run
    in ``combinators`` stay a few per pair, where visiting every index of
    each diagonal would run hundreds."""
    lines = [0]

    def count_lines(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return count_lines

    def trace(frame, event, arg):
        return count_lines if frame.f_globals is vars(combinators) else None

    n = 5000
    abc = from_list(["a", "b", "c"])
    g = make(abc, positives()) if finite_left else make(positives(), abc)
    old = sys.gettrace()
    sys.settrace(trace)
    try:
        out = prefix(n, g)
    finally:
        sys.settrace(old)
    assert len(out) == n
    assert lines[0] < 30 * n


def test_product_cantor_position_of_pair():
    out = prefix(cantor_pair(2, 3) + 1, product_cantor(naturals(), naturals()))
    assert out[cantor_pair(2, 3)] == Pair(2, 3)
    assert out[0] == Pair(0, 0)


# --- map / reduce / scan / setify -------------------------------------


def test_map1():
    assert prefix(3, map1(lambda x: x + 1, naturals())) == [1, 2, 3]
    assert list(map1(lambda x: x, from_list([]))) == []
    assert list(map1(lambda x: x, from_list([1, 2]))) == [1, 2]


def test_map1_failure_ends_stream():
    out = list(map1(lambda x: x if x < 3 else None, naturals()))
    assert out == [0, 1, 2]


def test_map2():
    assert prefix(10, map2(plus, positives(), negatives())) == [0] * 10
    assert len(list(map2(plus, from_list([1, 2]), from_list([1, 2, 3, 4, 5])))) == 2
    got = list(map2(Pair, from_list(["a"]), from_list(["b"])))
    assert got == [Pair("a", "b")]


def test_map2_show_matches_transcript():
    assert show(10, map2(plus, positives(), negatives())) == (
        "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"
    )


def test_reduce():
    g = reduce_stream(plus, 0, int_range(1, 5))
    assert g.ask() == 10
    assert g.ask() is None
    assert reduce_stream(plus, 7, from_list([])).ask() == 7
    assert reduce_stream(plus, 5, from_list([1, 2])).ask() == 8


def test_scan():
    assert prefix(11, scan(plus, 0, naturals())) == [
        0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55,
    ]
    assert list(scan(plus, 0, from_list([]))) == []
    assert scan(plus, 10, from_list([5])).ask() == 15


def test_reduce_scan_coherence():
    xs = [3, 1, 4, 1, 5, 9]
    scanned = list(scan(plus, 2, from_list(xs)))
    reduced = reduce_stream(plus, 2, from_list(xs)).ask()
    assert scanned[-1] == reduced


def test_setify():
    assert list(setify(from_list(["a", "b", "a"]))) == ["a", "b"]
    assert prefix(5, setify(naturals())) == [0, 1, 2, 3, 4]
    assert list(setify(from_list([]))) == []


def test_setify_distinguishes_int_from_float():
    assert list(setify(from_list([1, 1.0, 1]))) == [1, 1.0]


def test_setify_is_subsequence_of_input():
    xs = [3, 1, 3, 2, 1, 2, 5]
    out = list(setify(from_list(xs)))
    it = iter(xs)
    assert all(any(x == y for y in it) for x in out)


def test_combinators_stop_inputs():
    inner1, inner2 = naturals(), naturals()
    g = sum_streams(inner1, inner2)
    g.ask()
    g.stop()
    assert inner1.is_done() and inner2.is_done()

    inner1, inner2 = naturals(), naturals()
    p = product(inner1, inner2)
    p.ask()
    p.stop()
    assert inner1.is_done() and inner2.is_done()
