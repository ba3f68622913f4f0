"""Row-major codec, subset apexes, pullbacks and function builders."""

import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanv.errors import CodMismatch, OutOfBounds, ShapeMismatch, TableOutOfRange
from spanv.finset import (
    UNIT,
    FinFn,
    FinSet,
    SubsetApex,
    compose_fn,
    diagonal_fn,
    identity_fn,
    product,
    pullback,
    reindex_fn,
    swap_fn,
    terminal_fn,
)

shapes = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(tuple)


def test_codec_against_enumeration():
    # row-major order must agree with itertools.product
    x = FinSet((2, 3, 4))
    assert x.size == 24
    assert x.strides == (12, 4, 1)
    for code, coords in enumerate(itertools.product(range(2), range(3), range(4))):
        assert int(x.encode([list(coords)])[0]) == code
        assert tuple(x.decode([code])[0]) == coords


def test_unit_set():
    assert UNIT.size == 1
    assert UNIT.shape == ()
    assert int(UNIT.encode(np.zeros((1, 0), dtype=np.int64))[0]) == 0


@given(shapes, st.integers(0, 2**32))
def test_codec_roundtrip(shape, seed):
    x = FinSet(shape)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, x.size, size=10)
    assert np.array_equal(x.encode(x.decode(codes)), codes)


def test_finset_refuses_more_than_2_62_elements():
    # every code is an int64, so a set whose codes would not fit is refused
    assert FinSet((2,) * 62).size == 2**62
    for shape in ((3,) * 46, (2**62 + 1,)):
        with pytest.raises(OutOfBounds, match="too large"):
            FinSet(shape)
    with pytest.raises(OutOfBounds, match=r"\(1099511627776, 1099511627776\)"):
        product([FinSet((2**40,)), FinSet((2**40,))])


def test_subset_apex_refuses_a_product_past_2_62():
    # checked on the factor sizes before any pair code is computed
    assert SubsetApex(FinSet((2**31,)), FinSet((2**31,)), [0, 2**62 - 1]).size == 2
    with pytest.raises(OutOfBounds, match="sizes 2147483648 and 4294967296 is too large"):
        SubsetApex(FinSet((2**31,)), FinSet((2**32,)), [0])


def test_subset_apex():
    a, b = FinSet((3,)), FinSet((3,))
    apex = SubsetApex(a, b, [2, 5, 7])
    assert apex.size == 3
    assert apex.shape == (3, 3)
    assert np.array_equal(apex.decode([0, 1, 2]), [[0, 2], [1, 2], [2, 1]])
    assert np.array_equal(apex.position_of([5, 7, 2]), [1, 2, 0])
    # a factor that is itself an apex decodes to its own atomic coordinates
    nested = SubsetApex(apex, FinSet((2,)), [1, 4])
    assert nested.shape == (3, 3, 2)
    assert np.array_equal(nested.decode([0, 1]), [[0, 2, 1], [2, 1, 0]])
    with pytest.raises(AssertionError):
        apex.position_of([3])  # not a member


@pytest.mark.parametrize("members, error, message", [
    ([5, 2], ShapeMismatch, "do not ascend strictly at position 1"),
    ([2, 2], ShapeMismatch, "do not ascend strictly at position 1"),
    ([[2, 5]], ShapeMismatch, "shape (1, 2)"),
    ([2, 9], TableOutOfRange, "member 9 is outside a product of size 9"),
    ([-1, 2], TableOutOfRange, "member -1 is outside a product of size 9"),
], ids=["descending", "repeated", "not-a-list", "past-the-end", "negative"])
def test_subset_apex_refuses_bad_members(members, error, message):
    with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
        SubsetApex(FinSet((3,)), FinSet((3,)), members)


def test_subset_apex_checks_hold_under_python_O():
    # python -O strips asserts; the constructor's checks are typed errors
    script = (
        "from spanv.errors import SpanVError\n"
        "from spanv.finset import FinSet, SubsetApex\n"
        "for members in ([5, 2], [[2, 5]], [2, 9], [-1, 2]):\n"
        "    try:\n"
        "        SubsetApex(FinSet((3,)), FinSet((3,)), members)\n"
        "    except SpanVError as err:\n"
        "        print(type(err).__name__)\n")
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["ShapeMismatch", "ShapeMismatch",
                                  "TableOutOfRange", "TableOutOfRange"]


def test_product_concatenates():
    a, b = FinSet((2, 3)), FinSet((4,))
    p = product([a, b])
    assert p.shape == (2, 3, 4)
    first, second = SubsetApex(FinSet((2,)), UNIT, [1]), SubsetApex(FinSet((3,)), UNIT, [0, 2])
    sub = product([first, second])
    assert (sub.left, sub.right, sub.shape) == (first, second, (2, 3))
    assert np.array_equal(sub.members, [0, 1])
    assert np.array_equal(sub.decode([0, 1]), [[1, 0], [1, 2]])


def test_fn_builders():
    x = FinSet((2, 3))
    assert np.array_equal(identity_fn(x).table, np.arange(6))
    assert np.array_equal(terminal_fn(x).table, np.zeros(6, dtype=np.int64))
    dg = diagonal_fn(x)
    coords = x.decode(np.arange(6))
    assert np.array_equal(dg.cod.decode(dg.table), np.hstack([coords, coords]))
    sw = swap_fn(FinSet((2,)), FinSet((3,)))
    for a in range(2):
        for b in range(3):
            assert int(sw.table[a * 3 + b]) == b * 2 + a


def test_reindex_fn():
    dom = FinSet((2, 3))
    cod = FinSet((3, 2, 3))
    fn = reindex_fn(dom, cod, [1, 0, 1])
    for code, (a, b) in enumerate(itertools.product(range(2), range(3))):
        assert tuple(cod.decode([fn.table[code]])[0]) == (b, a, b)
    # a word must name existing factors of the right sizes
    for word in ([1, 0], [0, 0, 1], [1, 0, 2], [1, -1, 1]):
        with pytest.raises(ShapeMismatch):
            reindex_fn(dom, cod, word)


def test_compose_fn():
    x, y, z = FinSet((3,)), FinSet((4,)), FinSet((2,))
    f = FinFn(x, y, [1, 3, 0])
    g = FinFn(y, z, [0, 1, 1, 0])
    assert np.array_equal(compose_fn(f, g).table, [1, 0, 0])
    with pytest.raises(CodMismatch):
        compose_fn(g, f)


def _brute_pullback(f, g):
    # all agreeing pairs in lexicographic order
    return [(i, j) for i in range(f.dom.size) for j in range(g.dom.size)
            if f.table[i] == g.table[j]]


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**32))
def test_pullback_universal_property(na, nb, nc, seed):
    rng = np.random.default_rng(seed)
    a, b, c = FinSet((na,)), FinSet((nb,)), FinSet((nc,))
    f = FinFn(a, c, rng.integers(0, nc, size=na))
    g = FinFn(b, c, rng.integers(0, nc, size=nb))
    apex, p1, p2 = pullback(f, g)
    pairs = list(zip(p1.table.tolist(), p2.table.tolist()))
    assert pairs == _brute_pullback(f, g)
    # the apex lists exactly those pairs, by their pair codes
    assert (apex.left, apex.right) == (a, b)
    assert np.array_equal(apex.members, p1.table * b.size + p2.table)
    assert np.array_equal(f.table[p1.table], g.table[p2.table])
    # any commuting cone factors uniquely through the apex
    t = FinSet((3,))
    t1 = rng.integers(0, na, size=3)
    t2 = np.empty(3, dtype=np.int64)
    for i in range(3):
        matches = [j for j in range(nb) if g.table[j] == f.table[t1[i]]]
        if not matches:
            return
        t2[i] = matches[rng.integers(0, len(matches))]
    u = apex.position_of(t1 * b.size + t2)
    assert np.array_equal(p1.table[u], t1)
    assert np.array_equal(p2.table[u], t2)


def test_pullback_needs_shared_codomain():
    f = identity_fn(FinSet((2,)))
    g = identity_fn(FinSet((3,)))
    with pytest.raises(CodMismatch):
        pullback(f, g)


def test_fn_validates_range():
    with pytest.raises(TableOutOfRange):
        FinFn(FinSet((2,)), FinSet((2,)), [0, 2])


# Word legs are functions between FinSets given by a reindexing word whose
# table is built only when read.  Every operation with a fast path for words
# must agree with the same operation on the materialised table.

word_shapes = st.lists(st.integers(0, 3), min_size=0, max_size=4).map(tuple)


def _reference_table(fn):
    # decode, pick coordinates, encode: independent of the word code paths
    codes = np.arange(fn.dom.size, dtype=np.int64)
    return fn.cod.encode(fn.dom.decode(codes)[:, list(fn.word)])


def _tabled(fn):
    """The same function stored as a table."""
    table = _reference_table(fn) if fn.word is not None else fn.table
    return FinFn(fn.dom, fn.cod, table)


@st.composite
def word_fns(draw, dom_shape=None, permuting=None):
    """A word leg out of a FinSet: a permutation of its factors, or any
    word (diagonals, projections, repeats)."""
    if dom_shape is None:
        dom_shape = draw(word_shapes)
    if permuting is None:
        permuting = draw(st.booleans())
    k = len(dom_shape)
    if permuting:
        word = draw(st.permutations(range(k)))
    elif k:
        word = draw(st.lists(st.integers(0, k - 1), max_size=4))
    else:
        word = []
    dom = FinSet(dom_shape)
    return reindex_fn(dom, FinSet(tuple(dom_shape[j] for j in word)), word)


@st.composite
def table_fns(draw, cod):
    """A table leg into cod, out of a FinSet or a SubsetApex."""
    n = draw(st.integers(0, 6))
    values = st.integers(0, cod.size - 1) if cod.size else st.nothing()
    table = draw(st.lists(values, min_size=n, max_size=n)) if cod.size else []
    if draw(st.booleans()):
        dom = FinSet((len(table),))
    else:
        members = sorted(draw(st.sets(st.integers(0, 9), min_size=len(table),
                                      max_size=len(table))))
        dom = SubsetApex(FinSet((5,)), FinSet((2,)), members) if cod.size else FinSet((0,))
    return FinFn(dom, cod, table)


@st.composite
def words_into(draw, target):
    """A word leg into target: its factors permuted, maybe with one more
    factor for the word to project away."""
    perm = draw(st.permutations(range(len(target.shape))))
    extra = draw(st.lists(st.integers(0, 3), max_size=1))
    dom = FinSet(tuple(target.shape[j] for j in perm) + tuple(extra))
    return reindex_fn(dom, target, [perm.index(t) for t in range(len(perm))])


@st.composite
def cospans(draw):
    """(f, g) into one codomain, with a word on the left, the right or both."""
    word = draw(word_fns())
    side = draw(st.sampled_from(["left", "right", "both"]))
    other = draw(words_into(word.cod) if side == "both" else table_fns(word.cod))
    return (other, word) if side == "right" else (word, other)


@settings(max_examples=200, deadline=None)
@given(word_fns(), st.data())
def test_word_leg_matches_its_table(fn, data):
    reference = _reference_table(fn)
    if fn.dom.size:
        positions = data.draw(st.lists(st.integers(0, fn.dom.size - 1), max_size=8))
        assert np.array_equal(fn.at(np.array(positions, dtype=np.int64)),
                              reference[positions])
    assert np.array_equal(fn.table, reference)
    if fn.permutes():
        assert np.array_equal(fn.inverse().table[fn.table], np.arange(fn.dom.size))


@settings(max_examples=300, deadline=None)
@given(cospans())
def test_pullback_of_word_legs_matches_tables(pair):
    f, g = pair
    apex, p1, p2 = pullback(f, g)
    ref_apex, r1, r2 = pullback(_tabled(f), _tabled(g))
    assert apex == ref_apex
    assert np.array_equal(apex.members, ref_apex.members)
    assert np.array_equal(p1.table, r1.table)
    assert np.array_equal(p2.table, r2.table)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_fn_of_word_legs_matches_tables(data):
    side = data.draw(st.sampled_from(["first", "second", "both"]))
    if side == "first":
        f = data.draw(word_fns())
        n = f.cod.size
        g = FinFn(f.cod, FinSet((3,)), data.draw(st.lists(st.integers(0, 2), min_size=n,
                                                          max_size=n)))
    else:
        g = data.draw(word_fns())
        f = data.draw(words_into(g.dom) if side == "both" else table_fns(g.dom))
    composite = compose_fn(f, g)
    reference = compose_fn(_tabled(f), _tabled(g))
    assert (composite.dom, composite.cod) == (reference.dom, reference.cod)
    assert np.array_equal(composite.table, reference.table)
    assert composite == reference
