import pytest

from conftest import prefix
from streamgen import (
    Embed,
    Engine,
    Env,
    LexError,
    ParseError,
    default_env,
    eval_expr,
    eval_text,
    from_list,
    parse_text,
    render,
    token_reader,
    tokenize,
)
from streamgen.lang import ConstLit, ListLit, Prod, RangeExpr, Ref, SetOf, Sum, render_expr


def kinds(text):
    return [t.kind for t in tokenize(text)]


def test_tokenize_product_expression():
    assert kinds("[a,b]*(1:4)") == [
        "LBRACK", "SYM", "COMMA", "SYM", "RBRACK", "STAR",
        "LPAREN", "INT", "COLON", "INT", "RPAREN", "END",
    ]


def test_tokenize_empty_and_positions():
    assert kinds("") == ["END"]
    toks = tokenize("ab + cd")
    assert [(t.text, t.pos) for t in toks[:2]] == [("ab", 0), ("+", 3)]


def test_tokenize_negative_int():
    toks = tokenize("[-3,2]")
    assert toks[1].kind == "INT" and toks[1].text == "-3"


def test_lex_error_position():
    with pytest.raises(LexError) as exc:
        tokenize("@")
    assert exc.value.pos == 0


def test_parse_product_of_list_and_range():
    assert parse_text("[a,b]*(1:4)") == Prod(ListLit(("a", "b")), RangeExpr(1, 4))


def test_parse_set_sum_product():
    assert parse_text("{[a,b,a]}+(1:3)*c") == Sum(
        SetOf(ListLit(("a", "b", "a"))), Prod(RangeExpr(1, 3), Ref("c"))
    )


def test_precedence_star_over_plus():
    assert parse_text("a+b*c") == Sum(Ref("a"), Prod(Ref("b"), Ref("c")))


def test_left_associativity():
    assert parse_text("a+b+c") == Sum(Sum(Ref("a"), Ref("b")), Ref("c"))
    assert parse_text("a*b*c") == Prod(Prod(Ref("a"), Ref("b")), Ref("c"))


def test_bare_int_is_constant():
    assert parse_text("7") == ConstLit(7)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_text("(")
    assert "expected" in str(exc.value)
    with pytest.raises(ParseError):
        parse_text("[a,]")
    with pytest.raises(ParseError):
        parse_text("a+")
    with pytest.raises(ParseError):
        parse_text("a b")


def test_eval_product_transcript():
    out = eval_text("[a,b]*(1:4)", default_env(), 6)
    assert [render(v) for v in out] == ["a-1", "b-1", "b-2", "a-2", "b-3", "a-3"]


def test_eval_setify():
    assert eval_text("{[a,b,a]}", default_env(), 10) == ["a", "b"]


def test_unbound_symbol_is_constant_stream():
    assert eval_text("c", Env(), 2) == ["c", "c"]
    assert eval_text("zzz", default_env(), 3) == ["zzz", "zzz", "zzz"]


def test_eval_range_exhausts():
    assert eval_text("1:4", default_env(), 10) == [1, 2, 3]


def test_set_sum_product_transcript_prefix():
    out = eval_text("{[a,b,a]}+(1:3)*c", default_env(), 3)
    assert [render(v) for v in out] == ["a", "1-c", "b"]
    # full continuation per the reference trace of the combinator loops
    out = eval_text("{[a,b,a]}+(1:3)*c", default_env(), 8)
    assert [render(v) for v in out] == [
        "a", "1-c", "b", "2-c", "2-c", "1-c", "2-c", "1-c",
    ]


def test_default_env_nat_product_matches_trace():
    out = eval_text("nat*nat", default_env(), 12)
    assert [render(v) for v in out] == [
        "0-0", "1-0", "1-1", "0-1", "2-1", "2-0",
        "2-2", "1-2", "0-2", "3-2", "3-1", "3-0",
    ]


def test_env_factories_are_fresh_per_reference():
    assert eval_text("nat+nat", default_env(), 4) == [0, 0, 1, 1]


def test_rand_is_seeded():
    a = eval_text("rand", default_env(seed=5), 10)
    b = eval_text("rand", default_env(seed=5), 10)
    assert a == b
    assert all(0.0 <= x < 1.0 for x in a)


def test_embed_splices_concrete_source():
    expr = Sum(Embed(from_list([10, 20])), Ref("q"))
    out = prefix(4, eval_expr(expr, Env()))
    assert out == [10, "q", 20, "q"]


def test_embed_factory_is_fresh():
    expr = Embed(lambda: from_list([1, 2]))
    assert list(eval_expr(expr)) == [1, 2]
    assert list(eval_expr(expr)) == [1, 2]


def test_eval_text_propagates_errors():
    with pytest.raises(ParseError):
        eval_text("(", default_env(), 3)
    with pytest.raises(LexError):
        eval_text("?", default_env(), 3)


# --- depth: no tree is too deep to parse, render or evaluate -----------


def test_render_deep_left_sum_chain_round_trips():
    e = Ref("a")
    for i in range(50_000):  # 10^5 nodes
        e = Sum(e, ConstLit(i))
    text = render_expr(e)
    assert text == "a+" + "+".join(map(str, range(50_000)))
    assert render_expr(parse_text(text)) == text  # AST == and repr still recurse


def test_render_deep_right_product_set_chain():
    e = Ref("a")
    for _ in range(33_333):  # 10^5 nodes
        e = Prod(Ref("b"), SetOf(e))
    assert render_expr(e) == "b*{" * 33_333 + "a" + "}" * 33_333


@pytest.mark.parametrize(
    "text",
    ["+".join(["1"] * 5000), "*".join(["1"] * 3000), "{" * 1000 + "1" + "}" * 1000],
    ids=["sum-5000", "product-3000", "braces-1000"],
)
def test_eval_too_high_tree_raises_the_nesting_cap(text):
    with pytest.raises(RecursionError, match="streams nested more than 1000 deep"):
        eval_expr(parse_text(text))


def test_eval_failure_stops_the_sources_it_built():
    finallies = []

    def producer():
        try:
            while True:
                yield 1
        finally:
            finallies.append(1)

    def started_engine():
        engine = Engine(producer)
        engine.ask()  # runs the producer into its try
        return engine

    def boom():
        raise RuntimeError("boom")

    env = Env({"eng": started_engine, "boom": boom})
    with pytest.raises(RuntimeError, match="boom"):
        eval_expr(parse_text("eng*{eng}+boom"), env)
    assert len(finallies) == 2
    with pytest.raises(RecursionError, match="streams nested more than 1000 deep"):
        eval_expr(parse_text("+".join(["eng"] + ["1"] * 1000)), env)
    assert len(finallies) == 3  # not only once the traceback is freed


def test_eval_too_high_tree_closes_its_readers(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("1 a 2\n")
    files = []

    def reader():
        files.append(open(path))
        return token_reader(files[-1])

    with pytest.raises(RecursionError, match="streams nested more than 1000 deep"):
        eval_expr(parse_text("+".join(["r"] * 3 + ["1"] * 998)), Env({"r": reader}))
    assert len(files) == 3 and all(f.closed for f in files)
