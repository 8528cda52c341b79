"""Stream element values.

Elements flowing through streams are plain Python ints, floats and
symbol strings, plus arbitrarily nested ``Pair`` cells.  Equality
between values is variant-strict: the int 3 and the float 3.0 are
*different* values even though Python considers them ``==``.

One rule decides equality: ``same_value(a, b)`` (and, for pairs,
``a == b``) holds exactly when ``value_key(a) == value_key(b)``, and
equal pairs hash alike.  The key of an exact int or str is the value
itself, of a float ``(_FLOAT, v)`` and of any other atom
``(type(v), v)``.  The key of a pair is one flat tuple holding its
atoms' keys in prefix order, with a private ``_PAIR`` tag before the
two parts of each pair (a float's tag is spliced in as its own token).
So 0.0 equals -0.0, and a NaN equals only itself (the same object), as
in Python's containers.

``render`` dispatches on the exact type: an atom of type ``int``, ``str``
or ``float``, a flat pair of such atoms and a product of a product of
them are each one f-string, and a longer left comb is its atoms joined
by ``-``.  Every other value (a bool, a right-nested pair, a ``Pair``
subclass) takes the general loop, which tests with ``isinstance``: a
subclass renders like a ``Pair`` and any other atom by ``str`` (for a
float, ``str`` is ``repr`` on CPython 3).

No function here recurses: pairs are walked with loops and explicit
stacks, so a pair of any depth can be keyed, hashed, compared and
rendered.
"""

import re

__all__ = [
    "Pair",
    "is_symbol",
    "render",
    "same_value",
    "value_key",
]

_SYMBOL_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# The INT rule, shared by the lexer and ``token_reader``: an integer is an
# optional "-", then 1 to INT_MAX_DIGITS characters of INT_DIGITS (the
# least limit Python's ``int()`` may be set to).  INT_DIGITS are exactly
# the ASCII characters for which ``str.isdigit()`` holds, so
# ``t.isdigit() and t.isascii()`` tests "one or more INT_DIGITS".
INT_DIGITS = "0123456789"
INT_MAX_DIGITS = 640

# Key tags: fresh objects, so no key of a value can contain them by accident.
_PAIR = object()
_FLOAT = object()


def is_symbol(text):
    """True if ``text`` is a well-formed symbol: lowercase letter first,
    then letters, digits or underscores."""
    return isinstance(text, str) and bool(_SYMBOL_RE.match(text))


class Pair:
    """An ordered pair of values, rendered as ``left-right``.

    Nesting associates to the left when rendered: ``Pair(Pair(1,2),3)``
    prints as ``1-2-3`` while ``Pair(1,Pair(2,3))`` prints as
    ``1-(2-3)``.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __eq__(self, other):
        if not isinstance(other, Pair):
            return NotImplemented
        return value_key(self) == value_key(other)

    def __hash__(self):
        return hash(value_key(self))

    def __repr__(self):
        out = []
        todo = [self]  # pairs, and text already rendered
        while todo:
            v = todo.pop()
            if not isinstance(v, Pair):
                out.append(v)
                continue
            out.append("Pair(")
            left = v.left
            right = v.right
            todo += (
                ")",
                right if isinstance(right, Pair) else repr(right),
                ", ",
                left if isinstance(left, Pair) else repr(left),
            )
        return "".join(out)

    def __str__(self):
        return render(self)


def value_key(v):
    """A hashable key distinguishing values that Python's ``==`` would
    conflate (3 vs 3.0, nested pairs); see the module docstring."""
    t = type(v)
    if t is int or t is str:
        return v
    if t is float:
        return (_FLOAT, v)
    if not isinstance(v, Pair):
        return (t, v)
    right = v.right
    t = type(right)
    if t is int or t is str:
        left = v.left
        t = type(left)
        if t is int or t is str:
            return (_PAIR, left, right)
        if t is Pair:  # a product of a product
            a = left.left
            b = left.right
            t = type(a)
            if t is int or t is str:
                t = type(b)
                if t is int or t is str:
                    return (_PAIR, _PAIR, a, b, right)
    out = []
    emit = out.append
    todo = [v]
    push = todo.append
    pop = todo.pop
    while todo:
        v = pop()
        while isinstance(v, Pair):  # down the left spine
            emit(_PAIR)
            push(v.right)
            v = v.left
        t = type(v)
        if t is int or t is str:
            emit(v)
        elif t is float:
            emit(_FLOAT)
            emit(v)
        else:
            emit((t, v))
    return tuple(out)


def same_value(a, b):
    """Variant-strict equality between two values: their keys are equal."""
    return value_key(a) == value_key(b)


def render(v):
    """Render a value as text: numbers in decimal, floats by ``repr``,
    symbols verbatim, pairs as ``A-B`` with parentheses around a
    pair-valued right side.  Dispatch is on the exact type; see the
    module docstring."""
    t = type(v)
    if t is not Pair:
        if t is int or t is str or t is float:
            return f"{v}"
        return _render_tree(v)
    right = v.right
    t = type(right)
    if not (t is int or t is str or t is float):
        return _render_tree(v)
    left = v.left
    t = type(left)
    if t is int or t is str or t is float:
        return f"{left}-{right}"
    if t is not Pair:
        return _render_tree(v)
    a = left.left
    b = left.right
    t = type(b)
    if not (t is int or t is str or t is float):
        return _render_tree(v)
    t = type(a)
    if t is int or t is str or t is float:
        return f"{a}-{b}-{right}"
    # A longer left comb (a product of products) is its atoms joined by "-".
    texts = [f"{right}", f"{b}"]
    while t is Pair:
        right = a.right
        t = type(right)
        if not (t is int or t is str or t is float):
            return _render_tree(v)
        texts.append(f"{right}")
        a = a.left
        t = type(a)
    if not (t is int or t is str or t is float):
        return _render_tree(v)
    texts.append(f"{a}")
    texts.reverse()
    return "-".join(texts)


_CLOSE = object()  # on the stack of _render_tree: a ")" is due


def _render_tree(v):
    """``render`` of any value, in order, with an explicit stack of the
    pairs whose right side is still due."""
    out = []
    emit = out.append
    todo = []
    push = todo.append
    pop = todo.pop
    while True:
        while isinstance(v, Pair):
            push(v)
            v = v.left
        emit(str(v))
        while todo:
            v = pop()
            if v is _CLOSE:
                emit(")")
                continue
            v = v.right
            if isinstance(v, Pair):
                emit("-(")
                push(_CLOSE)
                break
            emit("-" + str(v))
        else:
            return "".join(out)
