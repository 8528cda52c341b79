import pytest
from hypothesis import given, settings, strategies as st

from streamgen import Pair, is_symbol, render, same_value, value_key


def test_render_scalars():
    assert render(3) == "3"
    assert render(-7) == "-7"
    assert render(0.5) == "0.5"
    assert render("foo") == "foo"


def test_render_pairs_left_associative():
    assert render(Pair(Pair(1, 2), 3)) == "1-2-3"
    assert render(Pair(1, Pair(2, 3))) == "1-(2-3)"
    assert render(Pair("a", 1)) == "a-1"


def test_int_and_float_are_distinct_values():
    assert not same_value(3, 3.0)
    assert value_key(3) != value_key(3.0)
    assert Pair(3, "a") != Pair(3.0, "a")


def test_pair_equality_componentwise():
    assert Pair(1, "a") == Pair(1, "a")
    assert Pair(1, "a") != Pair(1, "b")
    assert hash(Pair(1, "a")) == hash(Pair(1, "a"))


def test_nested_pair_values_allowed():
    v = Pair(Pair("x", 1), Pair(2, Pair(3, 4)))
    assert same_value(v, Pair(Pair("x", 1), Pair(2, Pair(3, 4))))
    assert render(v) == "x-1-(2-(3-4))"


def test_is_symbol():
    assert is_symbol("a")
    assert is_symbol("ab_c9")
    assert not is_symbol("Abc")
    assert not is_symbol("")
    assert not is_symbol("9x")


# One equality rule: keys, same_value, Pair.__eq__ and hash agree.

_atoms = st.one_of(
    st.sampled_from([3, 3.0, 0.0, -0.0, float("inf"), float("-inf"), float("nan"), "inf", "nan", "float", "a"]),
    st.integers(-5, 5),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True),
    st.text(alphabet="abxy_", min_size=1, max_size=3),
)
_values = st.recursive(_atoms, lambda inner: st.builds(Pair, inner, inner), max_leaves=12)


def reference_render(v):
    """The rendering rule, written recursively."""
    if isinstance(v, Pair):
        right = reference_render(v.right)
        if isinstance(v.right, Pair):
            right = "(" + right + ")"
        return reference_render(v.left) + "-" + right
    return repr(v) if isinstance(v, float) else str(v)


def reference_same(a, b):
    """Variant-strict equality, written recursively: same type and
    ``==`` (or the same object, as for a NaN), pairs part by part."""
    if isinstance(a, Pair) or isinstance(b, Pair):
        return (
            isinstance(a, Pair)
            and isinstance(b, Pair)
            and reference_same(a.left, b.left)
            and reference_same(a.right, b.right)
        )
    return type(a) is type(b) and (a is b or a == b)


@settings(max_examples=300)
@given(_values, _values, st.booleans())
def test_one_equality_rule(a, b, same):
    if same:
        b = a
    keys_equal = value_key(a) == value_key(b)
    assert keys_equal == reference_same(a, b)
    assert same_value(a, b) == keys_equal
    assert (Pair(a, 0) == Pair(b, 0)) == keys_equal
    assert (Pair(a, 0) != Pair(b, 0)) == (not keys_equal)
    if keys_equal:
        assert hash(Pair(a, 0)) == hash(Pair(b, 0))
    if same:
        assert keys_equal
    assert render(a) == reference_render(a)
    assert str(Pair(a, b)) == reference_render(Pair(a, b))


def test_look_alike_atoms_differ():
    assert not same_value(3, 3.0)
    assert same_value(0.0, -0.0)
    assert not same_value("inf", float("inf"))
    assert not same_value("nan", float("nan"))
    assert not same_value(True, 1)
    look_alikes = [3, 3.0, "float", "pair", "int", True, (float, 3.0), ("float", 3.0)]
    look_alikes += [Pair(a, b) for a in look_alikes for b in look_alikes]
    look_alikes += [Pair(Pair("float", 3.0), 3), Pair("float", Pair(3.0, 3))]
    assert len({value_key(v) for v in look_alikes}) == len(look_alikes)
    nan = float("nan")
    assert same_value(nan, nan) and Pair(nan, 1) == Pair(nan, 1)
    assert hash(Pair(nan, 1)) == hash(Pair(nan, 1))


# render's fast paths (atoms, flat pairs, products of products, left
# combs) against the reference, with every kind of value in every slot.


class SubPair(Pair):
    __slots__ = ()


_SLOT_VALUES = [
    1,
    "s",
    0.5,
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    1e16,
    True,
    2**70,
    Pair(1, 2),
    Pair(1, Pair(2, 3)),
    SubPair(1, 2),
    SubPair(SubPair(1, 2), 3),
]


def _shapes():
    yield "comb4", Pair(Pair(Pair(1, "a"), 2.5), "b")
    for x in _SLOT_VALUES:
        yield "atom", x
        yield "pair_left", Pair(x, 1)
        yield "pair_right", Pair("a", x)
        yield "prod_a", Pair(Pair(x, 1), 2)
        yield "prod_b", Pair(Pair(1, x), 2)
        yield "prod_c", Pair(Pair(1, 2), x)
        yield "comb4_inner", Pair(Pair(Pair(1, x), 2), 3)
        yield "comb4_first", Pair(Pair(Pair(x, 1), 2), 3)
        yield "sub_outer", SubPair(Pair(1, x), 2)


@pytest.mark.parametrize("v", [v for _, v in _shapes()], ids=["%s-%r" % s for s in _shapes()])
def test_render_fast_paths_match_the_reference(v):
    assert render(v) == reference_render(v)
    assert str(v) == reference_render(v)


def test_render_pair_subclasses_like_pairs():
    assert render(Pair("a", SubPair(1, 2))) == "a-(1-2)"
    assert render(SubPair(SubPair(1, 2), SubPair(3, 4))) == "1-2-(3-4)"
    assert str(SubPair(1, 2.0)) == "1-2.0"


# Deep pairs: no RecursionError at the default recursion limit.

DEPTH = 100_000


def _deep(kind):
    """A ``DEPTH``-deep pair of ints and its rendering, both built
    iteratively: wrapping text T as ``Pair(T, i)`` gives ``T-i``, as
    ``Pair(i, T)`` gives ``i-(T)``, or ``i-T`` around an atom."""
    v = 0
    before, after = [], []
    for i in range(1, DEPTH + 1):
        if kind == "left" or (kind == "zigzag" and i % 2 == 0):
            v = Pair(v, i)
            after.append("-%d" % i)
        elif isinstance(v, Pair):
            v = Pair(i, v)
            before.append("%d-(" % i)
            after.append(")")
        else:
            v = Pair(i, v)
            before.append("%d-" % i)
    return v, "".join(reversed(before)) + "0" + "".join(after)


@pytest.mark.parametrize("kind", ["left", "right", "zigzag"])
def test_deep_pairs_need_no_recursion(kind):
    v, text = _deep(kind)
    w, _ = _deep(kind)
    assert render(v) == text
    assert str(v) == text
    assert repr(v).count("Pair(") == DEPTH
    assert len(value_key(v)) == 2 * DEPTH + 1
    assert hash(v) == hash(w)
    assert v == w and same_value(v, w)
    w.left, w.right = w.right, w.left
    assert v != w and not same_value(v, w)
