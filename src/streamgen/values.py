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

No function here recurses: pairs are walked with loops and explicit
stacks, so a pair of any depth can be keyed, hashed, compared and
rendered.
"""

import re

__all__ = [
    "Pair",
    "Value",
    "is_symbol",
    "render",
    "same_value",
    "value_key",
]

_SYMBOL_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

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


# For annotation purposes only; at runtime a Value is int | float | str | Pair.
Value = object


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
    pair-valued right side."""
    # An atom's text is inlined throughout: a call per atom would cost
    # more than the rest of rendering a flat pair.
    if not isinstance(v, Pair):
        return repr(v) if isinstance(v, float) else str(v)
    right = v.right
    if isinstance(right, Pair):
        return _render_tree(v)
    left = v.left
    text = repr(right) if isinstance(right, float) else str(right)
    if not isinstance(left, Pair):
        return (repr(left) if isinstance(left, float) else str(left)) + "-" + text
    # A left comb (a product of products) is its atoms joined by "-".
    texts = [text]
    while True:
        right = left.right
        if isinstance(right, Pair):
            return _render_tree(v)
        texts.append(repr(right) if isinstance(right, float) else str(right))
        left = left.left
        if not isinstance(left, Pair):
            break
    texts.append(repr(left) if isinstance(left, float) else str(left))
    texts.reverse()
    return "-".join(texts)


_CLOSE = object()  # on the stack of _render_tree: a ")" is due


def _render_tree(v):
    """``render`` of any pair, in order, with an explicit stack of the
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
        emit(repr(v) if isinstance(v, float) else str(v))
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
            emit("-" + (repr(v) if isinstance(v, float) else str(v)))
        else:
            return "".join(out)
