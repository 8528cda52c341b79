"""Stream element values.

Elements flowing through streams are plain Python ints, floats and
symbol strings, plus arbitrarily nested ``Pair`` cells.  Equality
between values is variant-strict: the int 3 and the float 3.0 are
*different* values even though Python considers them ``==``.  Use
:func:`same_value` / :func:`value_key` whenever that distinction
matters (deduplication, multiset comparisons).
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
        return same_value(self.left, other.left) and same_value(self.right, other.right)

    def __hash__(self):
        return hash(value_key(self))

    def __repr__(self):
        return "Pair(%r, %r)" % (self.left, self.right)

    def __str__(self):
        return render(self)


# For annotation purposes only; at runtime a Value is int | float | str | Pair.
Value = object


def value_key(v):
    """A hashable key distinguishing values that Python's ``==`` would
    conflate (3 vs 3.0, nested pairs)."""
    if isinstance(v, Pair):
        return ("pair", value_key(v.left), value_key(v.right))
    return (type(v).__name__, v)


def same_value(a, b):
    """Variant-strict equality between two values."""
    if isinstance(a, Pair) or isinstance(b, Pair):
        if not (isinstance(a, Pair) and isinstance(b, Pair)):
            return False
        return same_value(a.left, b.left) and same_value(a.right, b.right)
    return type(a) is type(b) and a == b


def render(v):
    """Render a value as text: numbers in decimal, symbols verbatim,
    pairs as ``A-B`` with parentheses around a pair-valued right side."""
    if isinstance(v, Pair):
        left = render(v.left)
        right = render(v.right)
        if isinstance(v.right, Pair):
            right = "(" + right + ")"
        return left + "-" + right
    if isinstance(v, float):
        return repr(v)
    return str(v)
