"""Spans of finite sets and maps between them.

A span X <-f- S -g-> Y is a bridge from X to Y.  Composition is by
pullback over the shared foot; the apex of a composite is a SubsetApex
of the product of the two apexes, listing position pairs.  Apexes are
equal when they list the same atomic coordinates, which makes
composition literally associative.  Identity spans are absorbed on the nose.
Identity and braiding spans over FinSets have word legs (see
``finset.FinFn``), and so do their tensor products: the middle-four
interchange on A x A x A x A costs nothing until a pullback evaluates it
on the points of the other span.  Any other tensor product keeps its
legs as products of the factors' legs over an implicit product apex, so
a composite with it joins one factor at a time and its full table is
never built.  A map of spans is given by its apex map, a ``FinFn``.
"""

import numpy as np

from .errors import FeetMismatch, NotMonic
from .finset import (
    FinFn,
    FinSet,
    compose_fn,
    identity_fn,
    product,
    pullback,
    swap_fn,
    tensor_fn,
)


class Span:
    """left <- apex -> right."""

    def __init__(self, left, apex, right, f, g):
        for side, leg, foot in (("left", f, left), ("right", g, right)):
            if leg.dom != apex:
                raise FeetMismatch("%s leg starts at %r, not at the apex %r" % (side, leg.dom, apex))
            if leg.cod != foot:
                raise FeetMismatch("%s leg ends at %r, not at the foot %r" % (side, leg.cod, foot))
        self.left = left
        self.apex = apex
        self.right = right
        self.f = f
        self.g = g

    def __eq__(self, other):
        return (
            isinstance(other, Span)
            and self.left == other.left
            and self.right == other.right
            and self.apex == other.apex
            and self.f.same_values(other.f)
            and self.g.same_values(other.g)
        )

    def __repr__(self):
        return "Span(%r <- %r -> %r)" % (self.left, self.apex, self.right)


def identity_span(x):
    return Span(x, x, x, identity_fn(x), identity_fn(x))


def is_identity_span(s):
    return s.f.is_identity() and s.g.is_identity()


def compose_spans(a, b):
    """First a, then b.  Identity spans are absorbed literally."""
    if a.right != b.left:
        raise FeetMismatch("cannot chain %r after %r" % (b, a))
    if is_identity_span(a):
        return b
    if is_identity_span(b):
        return a
    apex, p1, p2 = pullback(a.g, b.f)
    return Span(a.left, apex, b.right, compose_fn(p1, a.f), compose_fn(p2, b.g))


def tensor_spans(a, b):
    if _is_unit_identity_span(a):
        return b
    if _is_unit_identity_span(b):
        return a
    left = product([a.left, b.left])
    right = product([a.right, b.right])
    apex = product([a.apex, b.apex])
    return Span(left, apex, right, tensor_fn(apex, left, a.f, b.f),
                tensor_fn(apex, right, a.g, b.g))


def _is_unit_identity_span(s):
    return s.left.size == 1 and isinstance(s.left, FinSet) and s.left.shape == () and is_identity_span(s)


def braiding_span(a, b):
    """The coordinate swap a x b -> b x a as a span with identity left leg."""
    ab = product([a, b])
    return Span(ab, ab, product([b, a]), identity_fn(ab), swap_fn(a, b))


def from_function(h, direction="co"):
    """Embed a function as a span: covariantly with identity left leg,
    contravariantly with identity right leg."""
    if direction == "co":
        return Span(h.dom, h.dom, h.cod, identity_fn(h.dom), h)
    if direction == "contra":
        return Span(h.cod, h.dom, h.dom, h, identity_fn(h.dom))
    raise ValueError("direction must be 'co' or 'contra'")


def reverse_span(s):
    return Span(s.right, s.apex, s.left, s.g, s.f)


def span_legs_bijective(s):
    return s.f.is_bijective() and s.g.is_bijective()


def match_by_signature(cols1, cols2):
    """Greedy bijection between two lists of rows with equal multisets.

    cols1 and cols2 are parallel lists of integer columns describing each
    side's elements.  Returns (table, None) matching equal signatures in
    ascending signature order, ties broken by position, or (None, info)
    where info holds the first signature whose multiplicities differ.
    A side whose first column rises strictly is read in place, unsorted.
    """
    n1 = len(cols1[0]) if cols1 else 0
    n2 = len(cols2[0]) if cols2 else 0
    if n1 != n2:
        return None, ("size", n1, n2)
    if n1 == 0:
        return np.zeros(0, dtype=np.int64), None
    # an order of None is the identity: the rows are their own sorted copy
    order1, order2 = (None if _ascends(cols) else np.lexsort(tuple(reversed(cols)))
                      for cols in (cols1, cols2))
    for c1, c2 in zip(cols1, cols2):
        s1 = c1 if order1 is None else c1[order1]
        s2 = c2 if order2 is None else c2[order2]
        if not np.array_equal(s1, s2):
            bad = int(np.nonzero(s1 != s2)[0][0])
            sig1 = tuple(int(c[bad if order1 is None else order1[bad]]) for c in cols1)
            sig2 = tuple(int(c[bad if order2 is None else order2[bad]]) for c in cols2)
            return None, ("signature", sig1, sig2)
    table = np.arange(n1, dtype=np.int64) if order2 is None else order2
    if order1 is not None:
        table, sorted_table = np.empty(n1, dtype=np.int64), table
        table[order1] = sorted_table
    return table, None


def _ascends(cols):
    # rows whose first column rises strictly are already in lexsort
    # order; rows with a tie there are sorted.  count_nonzero costs less
    # than all() on short rows.
    first = cols[0]
    return np.count_nonzero(first[1:] > first[:-1]) == first.size - 1


def feet_pairs(s1, s2):
    """The apex positions (a, b) of two parallel spans that sit over the
    same pair of feet, ascending in a and then in b."""
    width = s1.right.size
    feet = FinSet((s1.left.size * width,))
    _, p1, p2 = pullback(
        FinFn(FinSet((s1.apex.size,)), feet, s1.f.table * width + s1.g.table),
        FinFn(FinSet((s2.apex.size,)), feet, s2.f.table * width + s2.g.table))
    return p1.table, p2.table


def spans_isomorphic(s1, s2):
    """The apex map of the canonical leg-preserving bijection between two
    spans, or None."""
    if s1.left != s2.left or s1.right != s2.right:
        return None
    table, _ = match_by_signature(
        [s1.f.table, s1.g.table], [s2.f.table, s2.g.table]
    )
    if table is None:
        return None
    return FinFn(s1.apex, s2.apex, table)


def unique_map_to_monic(src, tgt):
    """The apex map of the unique span map src => tgt when a leg of tgt
    is injective.

    Returns None when some apex element of src has no image.  Raises
    NotMonic when neither leg of tgt is injective.
    """
    if src.left != tgt.left or src.right != tgt.right:
        raise FeetMismatch("span map needs equal feet")
    if not (tgt.f.is_injective() or tgt.g.is_injective()):
        raise NotMonic("target span has no injective leg")
    # an injective leg leaves at most one target element over each pair of feet
    s, t = feet_pairs(src, tgt)
    if not np.array_equal(s, np.arange(src.apex.size)):
        return None
    return FinFn(src.apex, tgt.apex, t)
