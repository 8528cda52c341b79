"""fair: the three fair products, rendered.

Each op takes K pairs of ``product``, ``convolution`` or
``product_cantor`` and renders every pair.  The grid crosses the kind
with four input shapes (infinite x infinite, infinite x finite,
finite x infinite, finite x finite), flat or nested once (pairs of
pairs), with or without ``setify`` over inputs with a fixed duplicate
rate, at two sizes, for finite sides of about 2, 8 and 32 elements.
Against a finite side ``convolution`` and ``product_cantor`` keep
scanning out-of-range indices, so the pairs pulled are capped at
``FINITE_K_PER_ELEM`` per finite-side element: that quadratic path then
finishes in about ten milliseconds and still dominates the workload's
time.
"""

import itertools
import string

from harness import Op, balanced, jitter
from oracles import PRODUCTS, dedupe, render

KINDS = ("product", "convolution", "cantor")
SHAPES = ("inf_inf", "inf_fin", "fin_inf", "fin_fin")
K_SIZES = (60, 600)
# The grid is repeated once per finite-side length.
LENGTHS = (2, 8, 32)
FINITE_K_PER_ELEM = 150
DUP_RATE = 0.5


def symbols(rng, n):
    """``n`` distinct symbols."""
    out = set()
    while len(out) < n:
        out.add(rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(rng.randrange(0, 3))
        ))
    return sorted(out)


def distinct_values(rng, n, symbolic):
    """``n`` distinct symbols or consecutive ints."""
    if symbolic:
        vals = symbols(rng, n)
        rng.shuffle(vals)
        return vals
    lo = rng.randrange(-100, 100)
    return list(range(lo, lo + n))


def with_duplicates(rng, n, symbolic):
    """``n`` values of which about ``DUP_RATE`` repeat earlier ones."""
    base = distinct_values(rng, max(1, round(n * (1 - DUP_RATE))), symbolic)
    vals = base + [rng.choice(base) for _ in range(n - len(base))]
    rng.shuffle(vals)
    return vals


def side(rng, finite, distinct, dups, length, variant):
    """(make(sg) -> Source, reference iterable factory).

    ``distinct``: an infinite side yields no value twice.  ``dups``: the
    side repeats values at the set duplicate rate.  ``variant`` picks the
    constructor and the kind of values, so that the mix is the same for
    every seed."""
    if finite:
        symbolic = variant % 2 == 1
        if dups:
            vals = with_duplicates(rng, length, symbolic)
        else:
            vals = distinct_values(rng, length, symbolic)
            if not symbolic and variant // 2 % 2 == 1:
                lo = vals[0]
                return (lambda sg: sg.int_range(lo, lo + length)), (lambda: range(lo, lo + length))
        return (lambda sg: sg.from_list(vals)), (lambda: vals)
    if dups:
        # Every value twice: a cycle would repeat ever more of a growing
        # history, while this keeps the duplicate rate at one half.
        off = rng.randrange(-50, 50)

        def twice(j):
            return j + 1, j // 2 + off

        return (
            (lambda sg: sg.unfold(twice, 0)),
            (lambda: (j // 2 + off for j in itertools.count())),
        )
    if not distinct:
        vals = symbols(rng, 2 + variant % 7)
        return (lambda sg: sg.cycle_values(vals)), (lambda: itertools.cycle(vals))
    choice = variant % 4
    if choice == 0:
        return (lambda sg: sg.naturals()), (lambda: itertools.count(0))
    if choice == 1:
        return (lambda sg: sg.positives()), (lambda: itertools.count(1))
    if choice == 2:
        return (lambda sg: sg.negatives()), (lambda: itertools.count(-1, -1))
    step = rng.randrange(2, 7)
    start = rng.randrange(-50, 50)
    return (
        (lambda sg: sg.iterate(lambda x: x + step, start)),
        (lambda: itertools.count(start, step)),
    )


def library_product(sg, kind):
    return {"product": sg.product, "convolution": sg.convolution, "cantor": sg.product_cantor}[kind]


def make_op(sg, rng, kind, shape, nested, dedup, k, length, inner_kind, variant, tap):
    fin_x, fin_y = shape[:3] == "fin", shape[4:] == "fin"
    len_x = jitter(rng, length) if fin_x else None
    len_y = jitter(rng, length) if fin_y else None
    vx, vy = variant, variant // 3
    if dedup:
        # An infinite input to setify must keep yielding new pairs, so
        # an infinite side stays distinct and the duplicates sit on the
        # finite side (on y when both sides are alike).
        dup_x = fin_x and not fin_y
        mx, rx = side(rng, fin_x, True, dup_x, len_x, vx)
        my, ry = side(rng, fin_y, True, not dup_x, len_y, vy)
    else:
        mx, rx = side(rng, fin_x, variant % 2 == 0, False, len_x, vx)
        my, ry = side(rng, fin_y, variant // 2 % 2 == 0, False, len_y, vy)
    zvals = symbols(rng, 2 + variant % 5) if nested else None
    if fin_x != fin_y:
        # Pairs that setify must pull, per element of the finite side
        # (nesting multiplies a finite x by the inner side's length).
        finite = len_y if fin_y else len_x * (len(zvals) if nested else 1)
        k = min(k, FINITE_K_PER_ELEM * finite // (2 if dedup else 1))

    def x_source():
        src = tap("leaf", mx(sg))
        if nested:
            src = library_product(sg, inner_kind)(src, tap("leaf", sg.from_list(zvals)))
        return src

    def x_ref():
        return PRODUCTS[inner_kind](rx(), zvals) if nested else rx()

    def build():
        pairs = library_product(sg, kind)(x_source(), tap("leaf", my(sg)))
        if dedup:
            pairs = tap("setify_out", sg.setify(tap("setify_in", pairs)))
        return sg.take(k, pairs)

    def rest(h, first):
        if first is None:
            return []
        render_ = sg.render
        out = [render_(first)]
        out.extend(render_(p) for p in h)
        return out

    def ref():
        it = PRODUCTS[kind](x_ref(), ry())
        if dedup:
            it = dedupe(it)
        out = [render(p) for p in itertools.islice(it, k)]
        return out, len(out)

    name = "fair-%s-%s%s%s" % (kind, shape, "-nested" if nested else "", "-setify" if dedup else "")
    return Op(name, build, lambda h: h.ask(), rest, ref)


def plan(sg, rng, ctx, tap=None):
    tap = tap or (lambda name, src: src)
    cells = [
        (kind, shape, nested, dedup, k, length)
        for length in LENGTHS
        for kind in KINDS
        for shape in SHAPES
        for nested in (False, True)
        for dedup in (False, True)
        for k in K_SIZES
    ]
    inner = iter(balanced(rng, KINDS, len(cells)))
    ops = [
        make_op(sg, rng, kind, shape, nested, dedup, jitter(rng, k), length, next(inner), v, tap)
        for v, (kind, shape, nested, dedup, k, length) in enumerate(cells)
    ]
    rng.shuffle(ops)
    return ops, None
