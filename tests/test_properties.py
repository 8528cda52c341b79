"""Property-based checks of the algebraic laws and protocol invariants."""

import itertools
import string

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CountedSteps, prefix
from streamgen import (
    Engine,
    Pair,
    cantor_unpair,
    convolution,
    from_list,
    drop,
    gen2lazy,
    int_range,
    lazy2gen,
    lazy_list,
    lazy_maplist,
    lazy_take,
    naturals,
    product,
    product_cantor,
    reduce_stream,
    scan,
    setify,
    sum_streams,
    take,
    value_key,
)
from streamgen.lang import (
    ConstLit,
    ListLit,
    ParseError,
    LexError,
    Prod,
    RangeExpr,
    Ref,
    SetOf,
    Sum,
    eval_expr,
    parse_text,
    render_expr,
    tokenize,
)

symbols = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
scalars = st.one_of(st.integers(-50, 50), symbols)
values = st.recursive(
    scalars, lambda children: st.builds(Pair, children, children), max_leaves=6
)


def multiset(vs):
    counts = {}
    for v in vs:
        k = value_key(v)
        counts[k] = counts.get(k, 0) + 1
    return counts


@given(st.lists(values, max_size=100))
def test_from_list_roundtrip(vs):
    got = list(from_list(vs))
    assert len(got) == len(vs)
    assert all(value_key(a) == value_key(b) for a, b in zip(got, vs))


@given(st.integers(0, 30), st.integers(0, 30), st.lists(scalars, max_size=60))
def test_take_drop_composition(n, m, vs):
    def build():
        return from_list(vs)

    combined = list(take(n, build())) + list(take(m, drop(n, build())))
    assert combined == list(take(n + m, build()))


@given(st.lists(scalars, max_size=30), st.lists(scalars, max_size=30))
def test_sum_multiset_law(xs, ys):
    out = list(sum_streams(from_list(xs), from_list(ys)))
    assert multiset(out) == multiset(xs + ys)


@given(st.lists(scalars, max_size=30))
def test_sum_neutral_element(xs):
    assert list(sum_streams(from_list([]), from_list(xs))) == list(from_list(xs))


@given(st.lists(scalars, max_size=6, unique_by=value_key),
       st.lists(scalars, max_size=6, unique_by=value_key))
def test_product_multiset_vs_bruteforce(xs, ys):
    out = list(product(from_list(xs), from_list(ys)))
    expected = [Pair(x, y) for x in xs for y in ys]
    assert multiset(out) == multiset(expected)


lengths = st.one_of(st.none(), st.integers(0, 12))  # None: infinite


def index_stream(n):
    return naturals() if n is None else int_range(0, n)


def documented_order(make, n1, n2, k):
    """The first k index pairs of a product of inputs of lengths n1 and
    n2 (None: infinite), from the order its docstring states."""
    if make is convolution:
        order = ((i, d - i) for d in itertools.count() for i in range(d + 1))
    else:
        order = map(cantor_unpair, itertools.count())
    inside = (
        (i, j) for i, j in order
        if (n1 is None or i < n1) and (n2 is None or j < n2)
    )
    if 0 in (n1, n2):
        k = 0
    elif n1 is not None and n2 is not None:
        k = min(k, n1 * n2)
    return list(itertools.islice(inside, k))


class AskCounter:
    """Forwards to a source, counting the asks it receives."""

    def __init__(self, source):
        self.source = source
        self.asks = 0

    def ask(self):
        self.asks += 1
        return self.source.ask()

    def stop(self):
        self.source.stop()


@given(st.sampled_from([convolution, product_cantor]), lengths, lengths,
       st.integers(0, 200))
def test_diagonal_products_follow_documented_order(make, n1, n2, k):
    out = prefix(k, make(index_stream(n1), index_stream(n2)))
    assert [(p.left, p.right) for p in out] == documented_order(make, n1, n2, k)


@given(st.sampled_from([convolution, product_cantor]), lengths, lengths,
       st.integers(0, 200))
def test_diagonal_products_ask_at_most_diagonal_plus_one(make, n1, n2, k):
    c1, c2 = AskCounter(index_stream(n1)), AskCounter(index_stream(n2))
    g = make(c1, c2)
    for _ in range(k):
        p = g.ask()
        if p is None:
            break
        d = p.left + p.right
        assert c1.asks <= d + 1 and c2.asks <= d + 1


@given(st.lists(scalars, max_size=4), st.lists(scalars, max_size=4),
       st.lists(scalars, max_size=4))
def test_product_distributes_over_sum(a, b, c):
    lhs = list(product(from_list(a), sum_streams(from_list(b), from_list(c))))
    rhs = list(product(from_list(a), from_list(b))) + list(
        product(from_list(a), from_list(c))
    )
    assert multiset(lhs) == multiset(rhs)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50),
       st.integers(-10, 10))
def test_reduce_scan_coherence(xs, init):
    plus = lambda a, b: a + b
    assert list(scan(plus, init, from_list(xs)))[-1] == reduce_stream(
        plus, init, from_list(xs)
    ).ask()


@given(st.lists(scalars, max_size=40))
def test_setify_duplicate_free_subsequence(xs):
    out = list(setify(from_list(xs)))
    keys = [value_key(v) for v in out]
    assert len(keys) == len(set(keys))
    it = iter(xs)
    for v in out:
        for y in it:
            if value_key(y) == value_key(v):
                break
        else:
            raise AssertionError("setify output not a subsequence")


@given(st.lists(scalars, max_size=50), st.integers(0, 60))
def test_isomorphism_on_prefixes(vs, n):
    direct = prefix(n, from_list(vs))
    transported = prefix(n, lazy2gen(gen2lazy(from_list(vs))))
    assert [value_key(v) for v in direct] == [value_key(v) for v in transported]


@given(st.data())
def test_sticky_done_random_interleavings(data):
    items = data.draw(st.lists(scalars, max_size=8))
    counted = CountedSteps(items=items)
    g = counted.source()
    frozen_at = None
    for action in data.draw(st.lists(st.sampled_from(["ask", "stop"]), max_size=20)):
        if action == "ask":
            x = g.ask()
            if x is None and frozen_at is None:
                frozen_at = counted.calls
        else:
            g.stop()
            if frozen_at is None:
                frozen_at = counted.calls
        if frozen_at is not None:
            assert counted.calls == frozen_at


@given(st.lists(scalars, max_size=20))
def test_engine_yield_fidelity(vs):
    def produce():
        yield from vs

    e = Engine(produce)
    got = []
    while True:
        x = e.next()
        if x is None:
            break
        got.append(x)
    assert got == list(vs)


@given(st.lists(st.integers(0, 5), max_size=40), st.integers(1, 50))
def test_force_once_under_interleaved_traversals(vs, k):
    counter = [0]

    def step(xs):
        counter[0] += 1
        if not xs:
            return None
        return xs[1:], xs[0]

    lst = lazy_list(step, tuple(vs))
    lazy_take(k, lst)
    lazy_take(k // 2, lst)
    lazy_take(k, lst)
    forced = min(k, len(vs)) + (1 if k > len(vs) else 0)
    assert counter[0] == forced


LIST_OPS = ("head", "tail", "force", "is_nil", "iter", "lazy_take",
            "lazy2gen", "lazy_maplist", "root")


@given(
    st.lists(st.integers(-9, 9).map(lambda x: None if x == 0 else x), max_size=10),
    st.lists(st.integers(0, 11), max_size=3),
    st.lists(st.tuples(st.sampled_from(LIST_OPS), st.integers(0, 12)), max_size=25),
)
def test_lazy_list_laws_under_random_scripts(vs, fails, script):
    """A script of reads on a counting ``lazy_list`` agrees with the plain
    list ``vs``; its step runs once per forced cell (Nil included) plus
    once per raise, and the first pull at each position in ``fails``
    raises, leaving the cell to be forced again."""
    calls = [0]
    to_fail = set(fails)

    def step(i):
        calls[0] += 1
        if i in to_fail:
            to_fail.discard(i)
            raise RuntimeError(i)
        return (i + 1, vs[i]) if i < len(vs) else None

    def run(op, lst, n, rest, cut):
        if op == "force":
            cell = lst.force()
            if rest:
                assert cell == (rest[0], lst.tail()) and cell[1] is lst.tail()
            else:
                assert cell is None
        elif op == "is_nil":
            assert lst.is_nil() == (not rest)
        elif op in ("head", "tail") and not rest:
            with pytest.raises(IndexError):
                getattr(lst, op)()
        elif op == "head":
            assert lst.head() == rest[0]
        elif op == "tail":
            assert lst.tail() is lst.tail()
            return lst.tail()
        elif op == "iter":
            assert list(itertools.islice(lst, n)) == rest[:n]
        elif op == "lazy_take":
            assert lazy_take(n, lst) == rest[:n]
        elif op == "lazy2gen":
            assert prefix(n, lazy2gen(lst)) == cut[:n]
        else:
            assert lazy_take(n, lazy_maplist(lambda x: 3 * x, lst)) == [3 * x for x in cut[:n]]
        return lst

    pending = set(fails)  # the model of ``to_fail``
    raised = forced = pos = 0  # raises, cells forced, the cursor's position
    root = lst = lazy_list(step, 0)
    for op, n in script:
        if op == "root":
            lst, pos = root, 0
            continue
        rest = vs[pos:]
        cut = list(itertools.takewhile(lambda v: v is not None, rest))
        if op in ("iter", "lazy_take"):
            reach = pos + min(n, len(rest) + 1)
        elif op in ("lazy2gen", "lazy_maplist"):
            reach = pos + min(n, len(cut) + 1)  # the source view ends at None
        else:
            reach = pos + 1
        failing = [p for p in pending if p < reach]
        if failing:
            with pytest.raises(RuntimeError):
                run(op, lst, n, rest, cut)
            pending.discard(min(failing))
            raised += 1
            forced = max(forced, min(failing))
        else:
            nxt = run(op, lst, n, rest, cut)
            if nxt is not lst:
                lst, pos = nxt, pos + 1
            forced = max(forced, reach)
        assert calls[0] == forced + raised
    while True:  # every cell that raised can be forced again
        try:
            assert list(root) == vs
            break
        except RuntimeError:
            raised += 1
    assert calls[0] == len(vs) + 1 + raised


# --- expression language ----------------------------------------------

expr_leaves = st.one_of(
    st.builds(ConstLit, st.integers(-20, 20)),
    st.builds(Ref, symbols),
    st.builds(RangeExpr, st.integers(-5, 5), st.integers(-5, 9)),
    st.builds(ListLit, st.lists(scalars, max_size=4).map(tuple)),
)
exprs = st.recursive(
    expr_leaves,
    lambda children: st.one_of(
        st.builds(Sum, children, children),
        st.builds(Prod, children, children),
        st.builds(SetOf, children),
    ),
    max_leaves=8,
)


@given(exprs)
def test_parse_render_stability(e):
    assert parse_text(render_expr(e)) == e


class ReferenceParser:
    """The grammar by recursive descent, one method per rule: the parser
    as written before it became one precedence loop."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, "expected %s, found %s" % (kind, tok.kind))
        return self.advance()

    def expr(self):
        node = self.prod()
        while self.peek().kind == "PLUS":
            self.advance()
            node = Sum(node, self.prod())
        return node

    def prod(self):
        node = self.prim()
        while self.peek().kind == "STAR":
            self.advance()
            node = Prod(node, self.prim())
        return node

    def prim(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            lo = int(tok.text)
            if self.peek().kind == "COLON":
                self.advance()
                return RangeExpr(lo, int(self.expect("INT").text))
            return ConstLit(lo)
        if tok.kind == "SYM":
            self.advance()
            return Ref(tok.text)
        if tok.kind == "LBRACK":
            self.advance()
            values = []
            if self.peek().kind != "RBRACK":
                values.append(self.literal_value())
                while self.peek().kind == "COMMA":
                    self.advance()
                    values.append(self.literal_value())
            self.expect("RBRACK")
            return ListLit(tuple(values))
        if tok.kind in ("LBRACE", "LPAREN"):
            self.advance()
            body = self.expr()
            if tok.kind == "LBRACE":
                self.expect("RBRACE")
                return SetOf(body)
            self.expect("RPAREN")
            return body
        raise ParseError(
            tok.pos, "expected INT, SYM, '[', '{' or '(', found %s" % (tok.kind,)
        )

    def literal_value(self):
        tok = self.advance()
        if tok.kind == "INT":
            return int(tok.text)
        if tok.kind == "SYM":
            return tok.text
        raise ParseError(tok.pos, "expected INT or SYM, found %s" % (tok.kind,))


def reference_parse(text):
    parser = ReferenceParser(tokenize(text))
    node = parser.expr()
    parser.expect("END")
    return node


def reference_render(e):
    """The canonical text, written recursively: a right ``+`` operand
    that is a sum, a ``*`` operand that is a sum and a right ``*``
    operand that is a product are bracketed."""
    if isinstance(e, (Sum, Prod)):
        left, right = reference_render(e.left), reference_render(e.right)
        if isinstance(e, Sum):
            return left + "+" + ("(%s)" % right if isinstance(e.right, Sum) else right)
        if isinstance(e.left, Sum):
            left = "(%s)" % left
        if isinstance(e.right, (Sum, Prod)):
            right = "(%s)" % right
        return left + "*" + right
    if isinstance(e, SetOf):
        return "{%s}" % reference_render(e.body)
    if isinstance(e, RangeExpr):
        return "(%d:%d)" % (e.lo, e.hi)
    if isinstance(e, ListLit):
        return "[%s]" % ",".join(str(v) for v in e.values)
    if isinstance(e, ConstLit):
        return str(e.value)
    return e.name


def parse_outcome(parse, text):
    """The tree, or the error's type, position and message."""
    try:
        return parse(text)
    except (LexError, ParseError) as exc:
        return type(exc), exc.pos, str(exc)


grammar_texts = st.lists(
    st.sampled_from(list("()[]{}+*:,") + ["1", "-2", "a", "nat", " "]), max_size=40
).map("".join)


@settings(max_examples=1000)
@given(st.one_of(grammar_texts, exprs.map(render_expr)))
def test_parse_matches_reference(text):
    assert parse_outcome(parse_text, text) == parse_outcome(reference_parse, text)


@settings(max_examples=300)
@given(exprs)
def test_render_matches_reference(e):
    assert render_expr(e) == reference_render(e)


@given(st.builds(Sum, expr_leaves, expr_leaves))
def test_sum_evaluation_homomorphism(e):
    direct = prefix(50, eval_expr(e))
    composed = prefix(
        50, sum_streams(eval_expr(e.left), eval_expr(e.right))
    )
    assert [value_key(v) for v in direct] == [value_key(v) for v in composed]


@settings(max_examples=300)
@given(st.text(alphabet=string.printable + "\u00b2\u0663\u096b\uff17", max_size=256))
def test_error_totality_on_fuzzed_input(text):
    try:
        parse_text(text)
    except (LexError, ParseError) as exc:
        assert isinstance(exc.pos, int)


def open_depth(text):
    """The most brackets open at once in ``text``."""
    depth = most = 0
    for c in text:
        if c in "({":
            depth += 1
            most = max(most, depth)
        elif c in ")}":
            depth -= 1
    return most


@st.composite
def deep_texts(draw):
    """Up to 3000 brackets around a chain of up to 5000 terms, perhaps
    with one token spliced in anywhere."""
    opens = draw(st.sampled_from(["(", "{", "({", "{("])) * draw(st.integers(0, 1500))
    opens = opens[: draw(st.integers(0, 3000))]
    chain = draw(st.sampled_from("+*")).join(["1"] * draw(st.integers(1, 5000)))
    text = opens + chain + opens[::-1].translate(str.maketrans("({", ")}"))
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(st.sampled_from(["", ")", "}", "(", "+", "[", ":", "a b"])) + text[cut:]


@settings(max_examples=100, deadline=None)
@given(deep_texts())
def test_error_totality_on_deep_input(text):
    try:
        parse_text(text)
    except (LexError, ParseError) as exc:
        assert isinstance(exc.pos, int)
    except RecursionError as exc:
        assert str(exc) == "expression nested too deeply"
        assert open_depth(text) > 1000
    else:
        assert open_depth(text) <= 1000
