"""The generator-expression language: lexer, recursive-descent parser,
AST and evaluator.

Grammar (whitespace insignificant):

    expr  := prod ('+' prod)*
    prod  := prim ('*' prim)*
    prim  := INT ':' INT | INT | SYM
           | '[' (value (',' value)*)? ']'
           | '{' expr '}'
           | '(' expr ')'
    value := INT | SYM

``+`` builds interleaving sums, ``*`` Cartesian products, ``lo:hi`` a
half-open integer range, ``[...]`` a finite stream literal, ``{e}``
deduplication.  Bare symbols resolve through the environment and fall
back to constant streams; bare integers are constant streams.  An INT
is an optional ``-`` and at most 640 ASCII digits (the least limit
Python's ``int()`` may be set to), else a ``LexError``.
"""

from dataclasses import dataclass

from . import combinators, core
from .values import INT_DIGITS, INT_MAX_DIGITS, Value, is_symbol

__all__ = [
    "ConstLit",
    "Embed",
    "Env",
    "Expr",
    "LexError",
    "ListLit",
    "ParseError",
    "Prod",
    "RangeExpr",
    "Ref",
    "SetOf",
    "Sum",
    "Token",
    "default_env",
    "eval_expr",
    "eval_text",
    "parse",
    "parse_text",
    "render_expr",
    "tokenize",
]


class LexError(ValueError):
    def __init__(self, pos, message):
        super().__init__("lexical error at %d: %s" % (pos, message))
        self.pos = pos


class ParseError(ValueError):
    def __init__(self, pos, message):
        super().__init__("syntax error at %d: %s" % (pos, message))
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # INT SYM PLUS STAR COLON LBRACK RBRACK LBRACE RBRACE LPAREN RPAREN COMMA END
    text: str
    pos: int


_PUNCT = {
    "+": "PLUS",
    "*": "STAR",
    ":": "COLON",
    "[": "LBRACK",
    "]": "RBRACK",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
}

_DIGITS = frozenset(INT_DIGITS)


def tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(Token(_PUNCT[c], c, i))
            i += 1
            continue
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i - (c == "-") > INT_MAX_DIGITS:
                raise LexError(i, "integer literal longer than %d digits" % INT_MAX_DIGITS)
            tokens.append(Token("INT", text[i:j], i))
            i = j
            continue
        if c.islower():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("SYM", text[i:j], i))
            i = j
            continue
        raise LexError(i, "unexpected character %r" % c)
    tokens.append(Token("END", "", n))
    return tokens


# --- AST ---------------------------------------------------------------


class Expr:
    """Base class for generator expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Sum(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Prod(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class RangeExpr(Expr):
    lo: int
    hi: int


@dataclass(frozen=True)
class ListLit(Expr):
    values: tuple


@dataclass(frozen=True)
class SetOf(Expr):
    body: Expr


@dataclass(frozen=True)
class ConstLit(Expr):
    value: Value


@dataclass(frozen=True)
class Ref(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class Embed(Expr):
    """Programmatic escape hatch: splices an existing source (or a
    nullary factory producing one) into an expression tree.  Not
    expressible in the textual grammar."""

    source: object


# --- parsing -----------------------------------------------------------


class _Parser:
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
                hi = int(self.expect("INT").text)
                return RangeExpr(lo, hi)
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
        if tok.kind == "LBRACE":
            self.advance()
            body = self.expr()
            self.expect("RBRACE")
            return SetOf(body)
        if tok.kind == "LPAREN":
            self.advance()
            body = self.expr()
            self.expect("RPAREN")
            return body
        raise ParseError(
            tok.pos,
            "expected INT, SYM, '[', '{' or '(', found %s" % (tok.kind,),
        )

    def literal_value(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return int(tok.text)
        if tok.kind == "SYM":
            self.advance()
            return tok.text
        raise ParseError(tok.pos, "expected INT or SYM, found %s" % (tok.kind,))


def parse(tokens):
    parser = _Parser(tokens)
    node = parser.expr()
    parser.expect("END")
    return node


def parse_text(text):
    return parse(tokenize(text))


def render_expr(e):
    """Canonical text for an expression; parses back to an equal tree."""
    if isinstance(e, Sum):
        return "%s+%s" % (_wrap(e.left, sum_ok=True), _wrap(e.right, sum_ok=False))
    if isinstance(e, Prod):
        return "%s*%s" % (_prod_side(e.left, left=True), _prod_side(e.right, left=False))
    if isinstance(e, RangeExpr):
        return "(%d:%d)" % (e.lo, e.hi)
    if isinstance(e, ListLit):
        return "[%s]" % ",".join(str(v) for v in e.values)
    if isinstance(e, SetOf):
        return "{%s}" % render_expr(e.body)
    if isinstance(e, ConstLit):
        return str(e.value)
    if isinstance(e, Ref):
        return e.name
    raise TypeError("cannot render %r" % (e,))


def _wrap(e, sum_ok):
    text = render_expr(e)
    if isinstance(e, Sum) and not sum_ok:
        return "(" + text + ")"
    return text


def _prod_side(e, left):
    text = render_expr(e)
    if isinstance(e, Sum) or (isinstance(e, Prod) and not left):
        return "(" + text + ")"
    return text


# --- evaluation --------------------------------------------------------


class Env:
    """Name bindings for the evaluator: each name maps to a nullary
    factory returning a fresh, independent source."""

    def __init__(self, bindings=None):
        self.bindings = dict(bindings or {})

    def bind(self, name, factory):
        self.bindings[name] = factory

    def lookup(self, name):
        return self.bindings.get(name)


def default_env(seed=42):
    """Bindings for the arithmetic sources: nat, pos, neg and a seeded
    rand."""
    return Env(
        {
            "nat": core.naturals,
            "pos": core.positives,
            "neg": core.negatives,
            "rand": lambda: core.random_stream(seed),
        }
    )


def eval_expr(e, env=None):
    """Turn an expression into a ready-to-use source.  Unbound names
    evaluate to constant symbol streams; every evaluation of the same
    tree yields fresh sources (except for ``Embed`` of a concrete
    source, which is spliced as-is)."""
    if env is None:
        env = Env()
    if isinstance(e, Sum):
        return combinators.sum_streams(eval_expr(e.left, env), eval_expr(e.right, env))
    if isinstance(e, Prod):
        return combinators.product(eval_expr(e.left, env), eval_expr(e.right, env))
    if isinstance(e, RangeExpr):
        return core.int_range(e.lo, e.hi)
    if isinstance(e, ListLit):
        return core.from_list(e.values)
    if isinstance(e, SetOf):
        return combinators.setify(eval_expr(e.body, env))
    if isinstance(e, ConstLit):
        return core.constant(e.value)
    if isinstance(e, Ref):
        factory = env.lookup(e.name)
        if factory is not None:
            return factory()
        return core.constant(e.name)
    if isinstance(e, Embed):
        if callable(e.source):
            return e.source()
        return e.source
    raise TypeError("not a generator expression: %r" % (e,))


def eval_text(text, env=None, n=10):
    """Parse and evaluate ``text``, collecting up to ``n`` elements."""
    source = eval_expr(parse_text(text), env)
    out = []
    for _ in range(n):
        x = source.ask()
        if x is None:
            break
        out.append(x)
    source.stop()
    return out
