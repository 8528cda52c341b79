"""text: the expression language, the CLI and the file readers.

Seeded expression trees are rendered to text and run in-process through
``cli.main(["eval", ...])`` with captured output, or through
``parse_text`` + ``eval_expr`` where the first element is observable.
A share of texts is malformed on purpose and must give exit code 2 with
a typed lexical or syntax error.  A share nests 30 to 120 parentheses
deep, or chains 30 to 120 ``+`` terms or 10 to 40 ``*`` terms, which the
recursive parser and evaluator still handle; the depth at which they
break is the traced run's ``cli.deep_ok_depth``, because an op that
fails does not belong in a workload.  ``token_reader`` and
``line_reader`` read generated files whose lines run from a few tokens
to single lines of 20k tokens.

``{e}`` is only generated over finite bodies: over an infinite body
with finitely many distinct values it diverges, and the CLI has no step
budget to stop it.
"""

import contextlib
import io
import os
import string

from harness import NO_FIRST, Op, balanced, jitter, log_uniform
from oracles import render, show, tree_prefix

LEX_CHARS = "#@!$%&?.;~"
PARSE_PREFIXES = ("(", "*")
PARSE_SUFFIXES = ("+", "*", ")", "]", ":")
REFS = ("nat", "pos", "neg", "rand")
CLI_OPS = 120
API_OPS = 40
MALFORMED_OPS = 24
DEEP_OPS = 15


def symbol(rng):
    while True:
        s = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits + "_") for _ in range(rng.randrange(0, 4))
        )
        if s not in REFS:
            return s


def leaf(rng, finite):
    """A range or list literal, or (unless ``finite``) also a reference
    to a bound source, an unbound symbol or an integer constant."""
    k = 1.0 if finite else rng.random()
    if k < 0.45:
        return ("ref", rng.choice(REFS))
    if k < 0.6:
        return ("ref", symbol(rng))
    if k < 0.7:
        return ("const", rng.randrange(0, 1000))
    if rng.random() < 0.5:
        lo = rng.randrange(0, 20)
        return ("range", lo, lo + rng.randrange(1, 12))
    return ("list", tuple(
        rng.randrange(0, 100) if rng.random() < 0.5 else symbol(rng)
        for _ in range(rng.randrange(1, 7))
    ))


def tree(rng, nodes, finite=False):
    """A random tree of exactly ``nodes`` nodes; ``finite`` keeps every
    leaf finite.  ``{e}`` only ever wraps a finite tree."""
    if nodes == 1:
        return leaf(rng, finite)
    r = rng.random()
    if nodes == 2 or r < 0.2:
        return ("set", tree(rng, nodes - 1, True))
    left = rng.randrange(1, nodes - 1)
    tag = "sum" if r < 0.6 else "prod"
    return (tag, tree(rng, left, finite), tree(rng, nodes - 1 - left, finite))


def to_text(t, rng):
    """Text for a tree with the fewest parentheses the grammar needs
    (``*`` binds tighter, both operators associate left), plus random
    spacing and the odd redundant pair of parentheses."""

    def sp():
        return " " * rng.choice((0, 0, 0, 1, 2))

    def go(t, level):
        # level 0: any expr, 1: a product operand on the left, 2: a prim
        tag = t[0]
        if tag == "sum":
            text = go(t[1], 0) + sp() + "+" + sp() + go(t[2], 1)
            need = level >= 1
        elif tag == "prod":
            text = go(t[1], 1) + sp() + "*" + sp() + go(t[2], 2)
            need = level >= 2
        else:
            if tag == "range":
                text = "%d:%d" % (t[1], t[2])
            elif tag == "list":
                text = "[" + ("," + sp()).join(str(v) for v in t[1]) + "]"
            elif tag == "set":
                text = "{" + go(t[1], 0) + "}"
            else:
                text = str(t[1])
            need = False
        if need or rng.random() < 0.05:
            text = "(" + text + ")"
        return text

    return go(t, 0)


def deep_tree(rng, kind, n):
    """A valid text that nests or chains ``n`` levels."""
    if kind == "parens":
        t = tree(rng, 5)
        return t, "(" * n + to_text(t, rng) + ")" * n
    leaves = [tree(rng, 1) for _ in range(n)]
    tag = "sum" if kind == "sum_chain" else "prod"
    t = leaves[0]
    for leaf in leaves[1:]:
        t = (tag, t, leaf)
    return t, to_text(t, rng)


def cli_op(sg, argv, ref, kind, err_prefix=None):
    """``cli.main`` in-process; stderr is compared in full, or only its
    first ``len(err_prefix)`` characters for a syntax error, whose exact
    wording would need a second parser to predict."""
    keep = len(err_prefix) if err_prefix else None

    def rest(h, f):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = sg.cli.main(argv, out=out)
        return (rc, out.getvalue(), err.getvalue()[:keep])

    return Op(kind, lambda: None, lambda h: NO_FIRST, rest, ref)


def eval_cli_op(sg, t, text, n, seed, kind):
    def ref():
        values = tree_prefix(t, n, seed)
        return (0, show(values) + "\n", ""), len(values)

    return cli_op(sg, ["eval", text, "--take", str(n), "--seed", str(seed)], ref, kind)


def api_op(sg, t, text, n, seed, kind):
    def build():
        return sg.eval_expr(sg.parse_text(text), sg.default_env(seed))

    def rest(src, first):
        if first is None:
            return []
        render_ = sg.render
        out = [render_(first)]
        for _ in range(n - 1):
            x = src.ask()
            if x is None:
                break
            out.append(render_(x))
        src.stop()
        return out

    def ref():
        out = [render(v) for v in tree_prefix(t, n, seed)]
        return out, len(out)

    return Op(kind, build, lambda src: src.ask(), rest, ref)


def malformed_op(sg, rng, i):
    """Every other malformed text has a stray character (a lexical
    error), the rest a broken structure (a syntax error)."""
    text = to_text(tree(rng, 7), rng)
    if i % 2 == 0:
        pos = rng.randrange(0, len(text) + 1)
        c = rng.choice(LEX_CHARS)
        bad = text[:pos] + c + text[pos:]
        err = "error: lexical error at %d: unexpected character %r\n" % (pos, c)
        return cli_op(sg, ["eval", bad], lambda: ((2, "", err), 0), "text-malformed")
    if i % 4 == 1:
        bad = rng.choice(PARSE_PREFIXES) + text
    else:
        bad = text + rng.choice(PARSE_SUFFIXES)
    err = "error: syntax error at "
    return cli_op(sg, ["eval", bad], lambda: ((2, "", err), 0), "text-malformed", err)


def reader_op(sg, path, content, kind):
    if kind == "text-tokens":
        def parse(tok):
            try:
                return int(tok)
            except ValueError:
                return tok

        def expected():
            return [parse(tok) for tok in content.split()]

        open_ = sg.token_reader
    else:
        def expected():
            lines = content.replace("\r\n", "\n").split("\n")
            if lines[-1] == "":
                lines.pop()
            return lines

        open_ = sg.line_reader

    def rest(src, first):
        if first is None:
            return []
        out = [first]
        out.extend(src)
        return out

    def ref():
        values = expected()
        return values, len(values)

    return Op(kind, lambda: open_(path), lambda src: src.ask(), rest, ref)


def token_file(rng, lines, per_line):
    vocab = [str(rng.randrange(-10**6, 10**6)) for _ in range(256)]
    vocab += [symbol(rng) for _ in range(256)]
    return "".join(
        " ".join(rng.choices(vocab, k=log_uniform(rng, *per_line))) + "\n"
        for _ in range(lines)
    )


def line_file(rng, lines):
    chars = string.ascii_letters + string.digits + " ,.;:-_"
    pool = "".join(rng.choice(chars) for _ in range(4096))
    parts = []
    for _ in range(lines):
        start = rng.randrange(0, 4000)
        body = pool[start:start + rng.randrange(0, 80)]
        parts.append(body + ("\r\n" if rng.random() < 0.2 else "\n"))
    if rng.random() < 0.5:
        parts[-1] = parts[-1].rstrip("\r\n")
    return "".join(parts)


# (kind, count, generator) of the files each plan reads.  The five
# single lines of about 20k tokens are the slowest ops, 2% of the plan,
# so the 99th percentile falls among them.
TOKEN_FILES = (
    ("short", 4, lambda rng: token_file(rng, jitter(rng, 450), (1, 10))),
    ("medium", 4, lambda rng: token_file(rng, jitter(rng, 30), (200, 300))),
    ("long", 5, lambda rng: token_file(rng, 1, (19500, 20500))),
)
LINE_FILES = 6


def plan(sg, rng, ctx):
    ops = []
    for i in range(CLI_OPS + API_OPS):
        # Tree sizes and element counts cycle, so every seed runs the
        # same mix.
        t = tree(rng, 1 + 2 * (i % 10))
        text = to_text(t, rng)
        n = 5 * (1 + i % 8)
        seed = rng.randrange(1000)
        if i < CLI_OPS:
            ops.append(eval_cli_op(sg, t, text, n, seed, "text-cli"))
        else:
            ops.append(api_op(sg, t, text, n, seed, "text-api"))
    ops.extend(malformed_op(sg, rng, i) for i in range(MALFORMED_OPS))
    for kind in balanced(rng, ("parens", "sum_chain", "prod_chain"), DEEP_OPS):
        levels = rng.randrange(10, 41) if kind == "prod_chain" else rng.randrange(30, 121)
        t, text = deep_tree(rng, kind, levels)
        ops.append(eval_cli_op(sg, t, text, rng.randrange(1, 11), rng.randrange(1000), "text-deep-" + kind))
    tmp = ctx["tmp"]
    os.makedirs(tmp, exist_ok=True)
    files = [(name, make) for name, count, make in TOKEN_FILES for _ in range(count)]
    files += [("lines", lambda rng: line_file(rng, jitter(rng, 1750)))] * LINE_FILES
    for i, (name, make) in enumerate(files):
        content = make(rng)
        path = os.path.join(tmp, "text-%02d-%s.txt" % (i, name))
        with open(path, "w", newline="") as f:
            f.write(content)
        ops.append(reader_op(sg, path, content, "text-lines" if name == "lines" else "text-tokens"))
    rng.shuffle(ops)
    return ops, None
