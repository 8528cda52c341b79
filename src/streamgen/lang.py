"""The generator-expression language: lexer, operator-precedence parser,
AST, renderer and evaluator, none of which recurses.

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
Python's ``int()`` may be set to), else a ``LexError``.  Brackets add
no tree height; more than 1000 open at once (``core._MAX_NESTING``)
raise ``RecursionError``.
"""

from dataclasses import dataclass
from itertools import islice

from . import combinators, core
from .values import INT_DIGITS, INT_MAX_DIGITS, Value

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

_BINARY = {"PLUS": (1, Sum), "STAR": (2, Prod)}  # precedence, node type
_CLOSER = {"LPAREN": "RPAREN", "LBRACE": "RBRACE"}


def _expect(tok, kind):
    if tok.kind != kind:
        raise ParseError(tok.pos, "expected %s, found %s" % (kind, tok.kind))
    return tok


def _literal_value(tok):
    if tok.kind == "INT":
        return int(tok.text)
    if tok.kind == "SYM":
        return tok.text
    raise ParseError(tok.pos, "expected INT or SYM, found %s" % (tok.kind,))


def _prim(tokens, i):
    """The bracket-free operand at ``tokens[i]``, and the index after it."""
    tok = tokens[i]
    if tok.kind == "INT":
        if tokens[i + 1].kind != "COLON":
            return ConstLit(int(tok.text)), i + 1
        return RangeExpr(int(tok.text), int(_expect(tokens[i + 2], "INT").text)), i + 3
    if tok.kind == "SYM":
        return Ref(tok.text), i + 1
    if tok.kind != "LBRACK":
        raise ParseError(
            tok.pos,
            "expected INT, SYM, '[', '{' or '(', found %s" % (tok.kind,),
        )
    values = []
    i += 1
    if tokens[i].kind != "RBRACK":
        values.append(_literal_value(tokens[i]))
        while tokens[i + 1].kind == "COMMA":
            i += 2
            values.append(_literal_value(tokens[i]))
        i += 1
    _expect(tokens[i], "RBRACK")
    return ListLit(tuple(values)), i + 1


def parse(tokens):
    """The tree of ``tokens`` (ending in END), by operator precedence: an
    open bracket waits on the operator stack as ``(0, closer, None)``."""
    stack = [(0, "END", None)]  # and (precedence, Sum or Prod, left operand)
    depth = 0  # brackets open
    i = 0
    while True:
        while tokens[i].kind in _CLOSER:
            depth += 1
            if depth > core._MAX_NESTING:
                raise RecursionError("expression nested too deeply")
            stack.append((0, _CLOSER[tokens[i].kind], None))
            i += 1
        node, i = _prim(tokens, i)
        while True:
            tok = tokens[i]
            i += 1
            prec, make = _BINARY.get(tok.kind, (1, None))  # a closer folds all
            while stack[-1][0] >= prec:
                _, fold, left = stack.pop()
                node = fold(left, node)
            if make is not None:
                stack.append((prec, make, node))
                break
            if _expect(tok, stack.pop()[1]).kind == "END":
                return node
            depth -= 1
            if tok.kind == "RBRACE":
                node = SetOf(node)


def parse_text(text):
    return parse(tokenize(text))


def render_expr(e):
    """Canonical text for an expression; parses back to an equal tree.
    One in-order walk over a stack of the nodes and text still due."""
    out = []
    todo = [(e, 0)]  # text, or (node, the precedence below which it is bracketed)
    while todo:
        e = todo.pop()
        if type(e) is str:
            out.append(e)
            continue
        e, need = e
        prec = 1 if isinstance(e, Sum) else 2 if isinstance(e, Prod) else 3
        if prec < need:
            todo.append(")")
            out.append("(")
        if prec < 3:  # the left operand is bracketed if looser, the right unless tighter
            todo += ((e.right, prec + 1), "+" if prec == 1 else "*", (e.left, prec))
        elif isinstance(e, SetOf):
            todo += ("}", (e.body, 0), "{")
        elif isinstance(e, RangeExpr):
            out.append("(%d:%d)" % (e.lo, e.hi))
        elif isinstance(e, ListLit):
            out.append("[%s]" % ",".join(str(v) for v in e.values))
        elif isinstance(e, ConstLit):
            out.append(str(e.value))
        elif isinstance(e, Ref):
            out.append(e.name)
        else:
            raise TypeError("cannot render %r" % (e,))
    return "".join(out)


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
    source, which is spliced as-is).  A failed build stops what it built."""
    lookup = Env().lookup if env is None else env.lookup
    built = []  # the sources of the subtrees done, leftmost first
    todo = []  # combinators due, each under the Sum or Prod whose right operand is
    try:
        while True:
            if isinstance(e, Sum) or isinstance(e, Prod):
                todo += (combinators.sum_streams if isinstance(e, Sum) else combinators.product, e)
                e = e.left
                continue
            if isinstance(e, SetOf):
                todo.append(combinators.setify)
                e = e.body
                continue
            if isinstance(e, Ref):
                factory = lookup(e.name)
                built.append(core.constant(e.name) if factory is None else factory())
            elif isinstance(e, ConstLit):
                built.append(core.constant(e.value))
            elif isinstance(e, RangeExpr):
                built.append(core.int_range(e.lo, e.hi))
            elif isinstance(e, ListLit):
                built.append(core.from_list(e.values))
            elif isinstance(e, Embed):
                built.append(e.source() if callable(e.source) else e.source)
            else:
                raise TypeError("not a generator expression: %r" % (e,))
            while todo:
                make = todo.pop()
                if isinstance(make, Expr):  # its left operand is built
                    e = make.right
                    break
                if make is combinators.setify:
                    built[-1] = make(built[-1])
                else:
                    built[-2:] = (make(built[-2], built[-1]),)
            else:
                return built[0]
    except BaseException:
        for source in built:
            source.stop()
        raise


def eval_text(text, env=None, n=10):
    """Parse and evaluate ``text``, collecting up to ``n`` elements."""
    source = eval_expr(parse_text(text), env)
    out = list(islice(source, core._count(n)))
    source.stop()
    return out
