"""Spans of finite sets: composition, tensor, braiding, isomorphism."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_finset import _tabled, table_fns, word_fns

from spanv.errors import FeetMismatch, NotMonic
from spanv.finset import FinFn, FinSet, identity_fn, reindex_fn
from spanv.span import (
    Span,
    braiding_span,
    compose_spans,
    from_function,
    identity_span,
    is_identity_span,
    match_by_signature,
    reverse_span,
    span_legs_bijective,
    spans_isomorphic,
    tensor_spans,
    unique_map_to_monic,
)


def _random_span(rng, nl, na, nr):
    left, apex, right = FinSet((nl,)), FinSet((na,)), FinSet((nr,))
    return Span(left, apex, right,
                FinFn(apex, left, rng.integers(0, nl, size=na)),
                FinFn(apex, right, rng.integers(0, nr, size=na)))


def test_identity_span_absorbed():
    rng = np.random.default_rng(0)
    s = _random_span(rng, 3, 4, 2)
    assert compose_spans(identity_span(s.left), s) == s
    assert compose_spans(s, identity_span(s.right)) == s
    assert is_identity_span(identity_span(FinSet((5,))))
    assert not is_identity_span(s)


def test_compose_against_relation_composition():
    rng = np.random.default_rng(1)
    a = _random_span(rng, 3, 5, 4)
    b = _random_span(rng, 4, 6, 2)
    comp = compose_spans(a, b)
    pairs = [(i, j) for i in range(5) for j in range(6)
             if a.g.table[i] == b.f.table[j]]
    assert comp.apex.size == len(pairs)
    assert np.array_equal(comp.f.table, [a.f.table[i] for i, _ in pairs])
    assert np.array_equal(comp.g.table, [b.g.table[j] for _, j in pairs])


def test_compose_feet_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(FeetMismatch):
        compose_spans(_random_span(rng, 2, 3, 4), _random_span(rng, 5, 3, 2))


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_compose_associative_literally(seed):
    # both orders list the same atomic coordinates in the same order
    rng = np.random.default_rng(seed)
    a = _random_span(rng, 3, 4, 3)
    b = _random_span(rng, 3, 4, 3)
    c = _random_span(rng, 3, 4, 3)
    assert compose_spans(compose_spans(a, b), c) == compose_spans(a, compose_spans(b, c))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composite_apex_lists_coordinate_pairs(data):
    # a composite's apex element is a pair of elements of the two apexes:
    # both associations list every agreeing triple in lexicographic order,
    # each as the concatenated atomic coordinates of its three elements
    feet = [FinSet((data.draw(st.integers(1, 3)),)) for _ in range(4)]
    spans = []
    for left, right in zip(feet, feet[1:]):
        apex = FinSet(tuple(data.draw(st.lists(st.integers(1, 3), max_size=2))))
        legs = [data.draw(st.lists(st.integers(0, foot.size - 1), min_size=apex.size,
                                   max_size=apex.size)) for foot in (left, right)]
        spans.append(Span(left, apex, right, FinFn(apex, left, legs[0]),
                          FinFn(apex, right, legs[1])))
    a, b, c = spans
    assume(not any(is_identity_span(s) for s in spans))  # absorbed, not paired
    triples = [list(a.apex.decode([i])[0]) + list(b.apex.decode([j])[0])
               + list(c.apex.decode([k])[0])
               for i in range(a.apex.size) for j in range(b.apex.size)
               for k in range(c.apex.size)
               if a.g.table[i] == b.f.table[j] and b.g.table[j] == c.f.table[k]]
    width = len(a.apex.shape) + len(b.apex.shape) + len(c.apex.shape)
    for comp in (compose_spans(compose_spans(a, b), c),
                 compose_spans(a, compose_spans(b, c))):
        listed = comp.apex.decode(np.arange(comp.apex.size))
        assert listed.shape == (len(triples), width)
        assert listed.tolist() == triples


def test_tensor_spans():
    rng = np.random.default_rng(3)
    a = _random_span(rng, 2, 3, 2)
    b = _random_span(rng, 3, 2, 4)
    t = tensor_spans(a, b)
    assert t.apex.size == 6
    for i in range(3):
        for j in range(2):
            pos = i * 2 + j
            assert int(t.f.table[pos]) == a.f.table[i] * 3 + b.f.table[j]
            assert int(t.g.table[pos]) == a.g.table[i] * 4 + b.g.table[j]


def test_braiding_span_swaps():
    x, y = FinSet((2,)), FinSet((3,))
    bs = braiding_span(x, y)
    assert span_legs_bijective(bs)
    for a in range(2):
        for b in range(3):
            assert int(bs.g.table[a * 3 + b]) == b * 2 + a


def test_from_function_and_reverse():
    h = FinFn(FinSet((3,)), FinSet((2,)), [1, 0, 0])
    co = from_function(h)
    contra = from_function(h, "contra")
    assert np.array_equal(co.g.table, h.table)
    assert reverse_span(co) == contra
    assert reverse_span(reverse_span(co)) == co


def test_match_by_signature():
    table, info = match_by_signature([np.array([1, 0, 1])], [np.array([0, 1, 1])])
    assert info is None
    assert np.array_equal(np.sort(table), [0, 1, 2])
    table, info = match_by_signature([np.array([1, 1, 0])], [np.array([0, 0, 1])])
    assert table is None
    assert info[0] == "signature"


def _lexsort_match(cols1, cols2):
    """The reference match: both sides sorted by lexsort, always."""
    n1 = len(cols1[0]) if cols1 else 0
    n2 = len(cols2[0]) if cols2 else 0
    if n1 != n2:
        return None, ("size", n1, n2)
    if n1 == 0:
        return np.zeros(0, dtype=np.int64), None
    order1 = np.lexsort(tuple(reversed(cols1)))
    order2 = np.lexsort(tuple(reversed(cols2)))
    for c1, c2 in zip(cols1, cols2):
        s1, s2 = c1[order1], c2[order2]
        if not np.array_equal(s1, s2):
            bad = int(np.nonzero(s1 != s2)[0][0])
            return None, ("signature", tuple(int(c[order1[bad]]) for c in cols1),
                          tuple(int(c[order2[bad]]) for c in cols2))
    table = np.empty(n1, dtype=np.int64)
    table[order1] = order2
    return table, None


def _signature_cases(rng):
    """Pairs of row lists: both, one or neither side ascending, with and
    without ties in the first column, equal multisets or not."""
    cases = [([], []), ([np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)])]
    for width in (1, 2, 3):
        for n in (1, 2, 3, 8, 40):
            for high in (1, 2, 5, 3 * n):
                rows = [rng.integers(0, high, size=n) for _ in range(width)]
                if width > 1 and high > 2:
                    # a first column that rises strictly over unsorted rows
                    rows[0] = np.arange(n) * 2
                ascending = [c[np.lexsort(tuple(reversed(rows)))] for c in rows]
                perm = rng.permutation(n)
                shuffled = [c[perm] for c in ascending]
                bent = [c.copy() for c in shuffled]
                bent[rng.integers(width)][rng.integers(n)] += 1
                for a, b in ((ascending, [c.copy() for c in ascending]), (ascending, shuffled),
                             (shuffled, ascending), (rows, shuffled), (shuffled, rows),
                             (ascending, bent), (bent, ascending), (rows, bent),
                             (ascending, [c[:-1] for c in ascending])):
                    cases.append((a, b))
    return cases


def test_match_by_signature_matches_the_lexsort_match():
    # rows that already ascend are read in place: the table and the
    # mismatch info are those of sorting both sides
    rng = np.random.default_rng(21)
    cases = _signature_cases(rng)
    kinds = set()
    for cols1, cols2 in cases:
        want_table, want_info = _lexsort_match(cols1, cols2)
        table, info = match_by_signature(cols1, cols2)
        assert info == want_info
        kinds.add(None if info is None else info[0])
        if want_table is None:
            assert table is None
        else:
            assert table.dtype == np.int64 and np.array_equal(table, want_table)
    assert kinds == {None, "size", "signature"}


def test_spans_isomorphic_relabelled():
    rng = np.random.default_rng(4)
    s = _random_span(rng, 3, 6, 3)
    perm = rng.permutation(6)
    t = Span(s.left, s.apex, s.right,
             FinFn(s.apex, s.left, s.f.table[perm]),
             FinFn(s.apex, s.right, s.g.table[perm]))
    m = spans_isomorphic(s, t)
    assert m is not None and m.is_bijective()


def test_spans_not_isomorphic():
    # same feet, different left-leg multiplicities
    x, apex = FinSet((2,)), FinSet((3,))
    g = FinFn(apex, x, [0, 0, 0])
    s = Span(x, apex, x, FinFn(apex, x, [0, 0, 1]), g)
    t = Span(x, apex, x, FinFn(apex, x, [0, 1, 1]), g)
    assert spans_isomorphic(s, t) is None


def test_unique_map_to_monic():
    x = FinSet((2, 2))
    apex = FinSet((2,))
    diag = FinFn(apex, x, [0, 3])
    # target has injective legs: the diagonal relation
    tgt = Span(x, apex, x, diag, diag)
    src = Span(x, apex, x, diag, diag)
    m = unique_map_to_monic(src, tgt)
    assert m is not None and np.array_equal(m.table, [0, 1])
    # no factorisation when the source hits a point outside the target
    bad = Span(x, apex, x, FinFn(apex, x, [0, 1]), FinFn(apex, x, [0, 0]))
    assert unique_map_to_monic(bad, tgt) is None
    fat = Span(x, FinSet((4,)), x,
               FinFn(FinSet((4,)), x, [0, 0, 1, 1]), FinFn(FinSet((4,)), x, [0, 1, 0, 1]))
    with pytest.raises(NotMonic):
        unique_map_to_monic(src, fat)


def test_unique_map_to_monic_through_the_right_leg():
    # only the target's right leg is injective: its left leg sends 0 and 1 to 0
    x, y = FinSet((2,)), FinSet((3,))
    apex = FinSet((2,))
    tgt = Span(x, apex, y, FinFn(apex, x, [0, 0]), FinFn(apex, y, [2, 0]))
    assert not tgt.f.is_injective() and tgt.g.is_injective()
    src_apex = FinSet((3,))
    src = Span(x, src_apex, y, FinFn(src_apex, x, [0, 0, 0]), FinFn(src_apex, y, [0, 2, 0]))
    m = unique_map_to_monic(src, tgt)
    assert m is not None and np.array_equal(m.table, [1, 0, 1])
    # a right foot the target misses, and a right foot over the wrong left foot
    for left, right in (([0, 0, 0], [0, 1, 0]), ([0, 1, 0], [0, 2, 0])):
        off = Span(x, src_apex, y, FinFn(src_apex, x, left), FinFn(src_apex, y, right))
        assert unique_map_to_monic(off, tgt) is None


@st.composite
def _span_pairs(draw):
    """Two small parallel spans with random legs, the target sometimes
    given an injective leg."""
    nl, nr = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    left, right = FinSet((nl,)), FinSet((nr,))

    def span(n, injective):
        apex = FinSet((n,))
        legs = [draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)) for k in (nl, nr)]
        if injective is not None:
            k = (nl, nr)[injective]
            legs[injective] = draw(st.permutations(range(k)))[:n]
        return Span(left, apex, right, FinFn(apex, left, legs[0]), FinFn(apex, right, legs[1]))

    injective = draw(st.sampled_from([None, 0, 1]))
    k = None if injective is None else (nl, nr)[injective]
    tgt = span(draw(st.integers(0, 4 if k is None else k)), injective)
    return span(draw(st.integers(0, 4)), None), tgt


@settings(max_examples=300, deadline=None)
@given(_span_pairs())
def test_unique_map_to_monic_matches_its_definition(pair):
    # a map exists exactly when each source element has one target
    # element over its feet, and then it sends the element there
    src, tgt = pair
    over = [[b for b in range(tgt.apex.size)
             if (tgt.f.table[b], tgt.g.table[b]) == (src.f.table[a], src.g.table[a])]
            for a in range(src.apex.size)]
    if not (tgt.f.is_injective() or tgt.g.is_injective()):
        with pytest.raises(NotMonic):
            unique_map_to_monic(src, tgt)
        return
    m = unique_map_to_monic(src, tgt)
    if all(len(bs) == 1 for bs in over):
        assert m is not None and m.table.tolist() == [bs[0] for bs in over]
    else:
        assert m is None


# Spans whose legs are words (see test_finset) against the same spans with
# materialised tables.

def _tabled_span(s):
    return Span(s.left, s.apex, s.right, _tabled(s.f), _tabled(s.g))


@st.composite
def word_spans(draw, sizes=st.integers(0, 3)):
    """A span over a FinSet apex with a word on one leg or on both."""
    shape = tuple(draw(st.lists(sizes, max_size=4)))
    f = draw(word_fns(dom_shape=shape))
    g = draw(word_fns(dom_shape=shape))
    side = draw(st.sampled_from(["left", "right", "both"]))
    if side != "both":
        n = f.dom.size
        table = FinFn(f.dom, FinSet((2,)), draw(st.lists(st.integers(0, 1), min_size=n,
                                                         max_size=n)))
        f, g = (f, table) if side == "left" else (table, g)
    return Span(f.cod, f.dom, g.cod, f, g)


def _same_span_tables(s, t):
    assert (s.left, s.right) == (t.left, t.right)
    assert s.apex == t.apex
    assert np.array_equal(s.f.table, t.f.table)
    assert np.array_equal(s.g.table, t.g.table)


@settings(max_examples=300, deadline=None)
@given(word_spans(), word_spans())
def test_tensor_of_word_spans_matches_tables(a, b):
    t = tensor_spans(a, b)
    _same_span_tables(t, tensor_spans(_tabled_span(a), _tabled_span(b)))
    assert t == _tabled_span(t)


def _another_leg(data, leg):
    # a permuting word with the same ends, else the leg itself
    word = data.draw(word_fns(dom_shape=leg.dom.shape, permuting=True))
    return word if word.cod == leg.cod else leg


@settings(max_examples=300, deadline=None)
@given(word_spans(sizes=st.sampled_from([0, 1, 1, 2, 2])), st.data())
def test_is_identity_span_of_word_legs_matches_tables(s, data):
    # on a square span, size-1 and equal-size factors let a permuting
    # word that is not the identity word have the identity table
    ident = identity_fn(s.apex)
    square = Span(s.apex, s.apex, s.apex, _another_leg(data, ident), _another_leg(data, ident))
    for span in (s, square):
        assert is_identity_span(span) == is_identity_span(_tabled_span(span))


@settings(max_examples=300, deadline=None)
@given(word_spans(sizes=st.sampled_from([0, 1, 1, 2])), st.data())
def test_span_equality_of_word_legs_matches_tables(s, data):
    t = Span(s.left, s.apex, s.right, _another_leg(data, s.f), _another_leg(data, s.g))
    assert (s == t) == (_tabled_span(s) == _tabled_span(t))
    assert s == _tabled_span(s)
