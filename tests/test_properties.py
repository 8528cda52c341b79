"""Property-based checks of the algebraic laws and protocol invariants."""

import itertools
import string
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CountedSteps, prefix
from streamgen import (
    Engine,
    Pair,
    Source,
    cantor_pair,
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
    map1,
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


class _Buffer:
    """Reference: the prefix buffer the diagonal products used before
    they kept plain lists."""

    __slots__ = ("items", "it", "length")

    def __init__(self, it):
        self.items = []
        self.it = it
        self.length = None

    def get(self, i):
        items = self.items
        while i >= len(items):
            if self.length is not None:
                return None
            x = next(self.it, None)
            if x is None:
                self.length = len(items)
                return None
            items.append(x)
        return items[i]


def _span(d, b1, b2):
    lo = 0 if b2.length is None else max(0, d - b2.length + 1)
    hi = d if b1.length is None else min(d, b1.length - 1)
    return lo, hi


def reference_diagonals(g1, g2, descending):
    """The diagonal walk the products used before, which re-clamped its
    bounds after each run-out."""
    b1, b2 = _Buffer(g1), _Buffer(g2)
    step = -1 if descending else 1
    d = 0
    while True:
        lo, hi = _span(d, b1, b2)
        if lo > hi:
            return
        i = hi if descending else lo
        while lo <= i <= hi:
            x = b1.get(i)
            y = None if x is None else b2.get(d - i)
            if y is None:
                lo, hi = _span(d, b1, b2)
                i = min(i, hi) if descending else max(i, lo)
                continue
            yield Pair(x, y)
            i += step
        d += 1


def logged_step(n, side, log):
    """A step over 0, 1, ... (n of them; None: infinite) that logs each
    pull as ``(side, value)``, the end as ``(side, None)``."""
    it = itertools.count() if n is None else iter(range(n))

    def step():
        x = next(it, None)
        log.append((side, x))
        return x

    return step


def pull_log(pairs_of, n1, n2, k):
    """The interleaved log of input pulls, input ends and the first k
    pairs of ``pairs_of(step1, step2)``."""
    log = []
    pairs = pairs_of(logged_step(n1, 1, log), logged_step(n2, 2, log))
    for p in itertools.islice(pairs, k):
        log.append((p.left, p.right))
    return log


@given(st.sampled_from([convolution, product_cantor]), lengths, lengths,
       st.integers(0, 200))
def test_diagonal_products_pull_exactly_as_the_reference(make, n1, n2, k):
    descending = make is product_cantor
    library = pull_log(lambda s1, s2: make(Source(s1), Source(s2)), n1, n2, k)
    reference = pull_log(
        lambda s1, s2: reference_diagonals(iter(s1, None), iter(s2, None), descending),
        n1, n2, k)
    assert library == reference


def product_position(i, j):
    """Where ``product`` of two infinite inputs emits ``(i, j)``: shell
    ``max(i, j)`` after the smaller shells; in it column ``j``'s pairs
    ``(0, j)``, ``(1, j)``, ... come first, then row ``i``'s from
    ``(i, i - 1)`` down to ``(i, 0)``."""
    return i * i + i - 1 - j if j < i else j * j + 2 * j - i


@settings(deadline=None)
@given(st.sampled_from([
    (product_cantor, cantor_pair),
    (convolution, lambda i, j: (i + j) * (i + j + 1) // 2 + i),
    (product, product_position),
]), st.integers(0, 59), st.integers(0, 59))
def test_fair_products_emit_each_pair_at_its_closed_form_position(make_position, i, j):
    make, position = make_position
    assert drop(position(i, j), make(naturals(), naturals())).ask() == Pair(i, j)


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


MEMO_OPS = ("head", "tail", "is_nil", "force", "iter", "next", "lazy_take", "ask")


@given(
    st.lists(st.integers(-9, 9), max_size=12),
    st.booleans(),
    st.integers(0, 13),
    st.lists(st.tuples(st.sampled_from(MEMO_OPS), st.integers(0, 7), st.integers(0, 14)),
             max_size=30),
)
def test_lazy_list_memo_model(vs, from_source, fail_at, script):
    """Several holders of one list -- cells, and walks suspended over them
    -- run a random script, each read checked against the plain list
    ``vs`` and a cursor per holder.  The list is ``gen2lazy`` over a
    counting source, or a ``lazy_list`` (0 read as ``None``) whose first
    pull at ``fail_at`` raises.  Each cell, Nil included, is pulled once
    plus once per raise, so a cell whose pull raised stays unforced and
    the next read pulls it again; every holder at a position holds the
    same cell."""
    calls = [0]
    if from_source:
        to_fail = set()

        def pull():
            i = calls[0]
            calls[0] += 1
            return vs[i] if i < len(vs) else None

        root = gen2lazy(Source(pull))
    else:
        vs = [None if v == 0 else v for v in vs]
        to_fail = {fail_at}

        def step(i):
            calls[0] += 1
            if i in to_fail:
                to_fail.discard(i)
                raise RuntimeError(i)
            return (i + 1, vs[i]) if i < len(vs) else None

        root = lazy_list(step, 0)
    n = len(vs)
    seen = {0: root}  # the cell at each position reached so far
    cells = [[root, 0] for _ in range(3)]  # [cell, position] per holder
    walks = []  # [iterator, position, or None once it has ended]

    def same_cell(pos, cell):
        return seen.setdefault(pos, cell) is cell

    def run(op, holder, k):
        cell, pos = holder
        if op in ("head", "tail") and pos == n:
            with pytest.raises(IndexError):
                getattr(cell, op)()
        elif op == "head":
            assert cell.head() == vs[pos]
        elif op == "tail":
            nxt = cell.tail()
            assert same_cell(pos + 1, nxt)
            holder[:] = nxt, pos + 1
        elif op == "is_nil":
            assert cell.is_nil() == (pos == n)
        elif op == "force":
            got = cell.force()
            if pos == n:
                assert got is None
            else:
                assert got[0] == vs[pos] and same_cell(pos + 1, got[1])
        elif op == "iter":
            walks.append([iter(cell), pos])
        elif op == "next":
            if pos is not None and pos < n:
                assert next(cell) == vs[pos]
                holder[1] = pos + 1
            else:
                holder[1] = None
                with pytest.raises(StopIteration):
                    next(cell)
        elif op == "lazy_take":
            assert lazy_take(k, cell) == vs[pos:pos + k]
        else:
            assert lazy2gen(cell).ask() == (vs[pos] if pos < n else None)

    pending = set(to_fail)  # the model of ``to_fail``
    raised = forced = 0  # raises, cells forced
    for op, h, k in script:
        holders = walks if op == "next" else cells
        if not holders:
            continue
        holder = holders[h % len(holders)]
        pos = holder[1]
        if op == "iter" or pos is None:
            reach = 0
        elif op == "lazy_take":
            reach = min(pos + k, n + 1)
        else:
            reach = pos + 1
        failing = [p for p in pending if p < reach]
        if failing:
            with pytest.raises(RuntimeError):
                run(op, holder, k)
            pending.discard(min(failing))
            raised += 1
            forced = max(forced, min(failing))
            if op == "next":
                holder[1] = None  # a walk that raised has ended
        else:
            run(op, holder, k)
            forced = max(forced, reach)
        assert calls[0] == forced + raised
    while True:  # a cell whose pull raised can be forced again
        try:
            assert list(root) == vs
            break
        except RuntimeError:
            raised += 1
    assert calls[0] == n + 1 + raised


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


FIELDS = {
    Sum: ("left", "right"),
    Prod: ("left", "right"),
    SetOf: ("body",),
    RangeExpr: ("lo", "hi"),
    ListLit: ("values",),
    ConstLit: ("value",),
    Ref: ("name",),
}


def same_tree(a, b):
    """Structural equality by recursion: the same node type and pairwise
    equal fields, Python's ``==`` on anything that is not a node."""
    if type(a) not in FIELDS and type(b) not in FIELDS:
        return a == b
    return type(a) is type(b) and all(
        same_tree(getattr(a, f), getattr(b, f)) for f in FIELDS[type(a)]
    )


@given(exprs, exprs)
def test_expr_equality_and_hash_match_structural_reference(e1, e2):
    back = parse_text(render_expr(e1))
    assert same_tree(e1, back) and e1 == back and hash(e1) == hash(back)
    assert (e1 == e2) == same_tree(e1, e2) == (not e1 != e2)
    if e1 == e2:
        assert hash(e1) == hash(e2)


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


class ClosingProducer:
    """A producer's iterator over ``step()`` whose ``close`` calls
    ``cleanup``: unlike a generator's ``finally``, it runs also when
    closed before its first step."""

    def __init__(self, step, cleanup):
        self.step = step
        self.close = cleanup

    def __iter__(self):
        return self

    def __next__(self):
        return self.step()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["step", "engine"]),
    st.none() | st.integers(0, 4),
    st.lists(st.sampled_from(["ask", "ask-stopping", "stop", "pull", "stop-owner", "drop-owner"]), max_size=12),
)
def test_cleanup_runs_once_and_nothing_arrives_after_done(kind, length, script):
    """A script of asks, stops (also from inside a step), pulls by an
    owner and drops: the cleanup has run exactly when the source is done,
    no element arrives once it is, and dropping it all runs it once."""
    cleanups = []
    stop_next = []  # the next step stops its own source first
    vs = itertools.count(1) if length is None else iter(range(1, length + 1))

    def step():
        if stop_next:
            stop_next.clear()
            me().stop()
        return next(vs, None)

    def cleanup():
        cleanups.append("cleanup")

    if kind == "step":
        src = Source(step, cleanup)
    else:
        src = Engine(lambda: ClosingProducer(step, cleanup))
    me = weakref.ref(src)
    owner = map1(lambda x: x, src)
    for op in script:
        done = src.is_done()
        x = None
        if op == "ask-stopping":
            stop_next.append(True)
        if op in ("ask", "ask-stopping"):
            x = src.ask()
        elif op == "stop":
            src.stop()
        elif op == "drop-owner":
            owner = None
        elif owner is not None and op == "pull":
            x = owner.ask()
        elif owner is not None:
            owner.stop()
        assert x is None or not (done or src.is_done())
        assert cleanups == ["cleanup"] * src.is_done()
    del src, owner
    assert cleanups == ["cleanup"]
