"""Row-major codec, subset apexes, pullbacks and function builders."""

import copy
import itertools
import math
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanv import finset as finset_module
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
    tensor_fn,
    terminal_fn,
)
from spanv.span import Span

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


def test_finsets_are_interned():
    # one instance per shape, however the shape is spelled or reached
    x = FinSet((2, 3))
    assert x is FinSet([2, 3]) is FinSet(np.array([2, 3])) is FinSet((np.int64(2), 3))
    assert x is product([FinSet((2,)), FinSet((3,))])
    assert FinSet() is FinSet([]) is UNIT
    assert x.axes == (0, 1) and UNIT.axes == ()
    assert identity_fn(x).word is x.axes


def test_bad_shapes_raise_on_every_call_under_python_O():
    # a refused shape is never cached, so it is refused again; a zero
    # factor does not let the other factors pass the int64 bound
    script = (
        "from spanv.errors import SpanVError\n"
        "from spanv.finset import FinSet\n"
        "for shape in [(2, -1), [2, -1], (3,) * 46, (3,) * 46, (0, 2 ** 70), (0, 2 ** 70)]:\n"
        "    try:\n"
        "        FinSet(shape)\n"
        "    except SpanVError as err:\n"
        "        print(type(err).__name__, '|', err)\n")
    lines = []
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                             text=True, check=True)
        lines.append(run.stdout.splitlines())
    assert lines[0] == lines[1]
    assert [line.split(" | ")[0] for line in lines[0]] == ["NegativeSize"] * 2 + ["OutOfBounds"] * 4
    assert lines[0][4].endswith("nonzero factors multiply to 1180591620717411303424")


def test_copies_and_pickles_give_back_the_interned_set():
    x = FinSet((2, 3))
    for duplicate in (copy.copy, copy.deepcopy, lambda y: pickle.loads(pickle.dumps(y))):
        assert duplicate(x) is x and duplicate(UNIT) is UNIT
    fn = copy.deepcopy(identity_fn(x))
    assert fn.dom is x and fn.cod is x
    assert UNIT.shape == () and UNIT.size == 1 and x.shape == (2, 3)


def test_a_finset_is_read_only():
    x = FinSet((2, 3))
    for attempt in (lambda: setattr(x, "shape", (4,)), lambda: setattr(x, "extra", 1),
                    lambda: delattr(x, "size")):
        with pytest.raises(AttributeError, match=r"FinSet\(2, 3\) is read-only"):
            attempt()
    with pytest.raises(ValueError, match="read-only"):
        x._stride[0] = 5
    assert x.shape == (2, 3) and x.strides == (3, 1) and x.size == 6


def _reference_decode(shape, codes):
    strides = [math.prod(shape[j + 1:]) for j in range(len(shape))]
    out = np.empty(codes.shape + (len(shape),), dtype=np.int64)
    for j, (n, stride) in enumerate(zip(shape, strides)):
        out[..., j] = (codes // stride) % n
    return out


def _reference_encode(shape, coords):
    out = np.zeros(coords.shape[:-1], dtype=np.int64)
    for j in range(len(shape)):
        out += coords[..., j] * math.prod(shape[j + 1:])
    return out


@pytest.mark.parametrize("seed", range(12))
def test_codec_matches_a_per_factor_loop(seed):
    rng = np.random.default_rng(seed)
    fixed = [(), (0,), (2, 0, 3), (1, 1), (5,), (2, 3, 4, 1, 2)]
    shape = fixed[seed] if seed < len(fixed) else tuple(
        int(n) for n in rng.integers(0, 5, size=rng.integers(0, 7)))
    x = FinSet(shape)
    assert x.strides == tuple(math.prod(shape[j + 1:]) for j in range(len(shape)))
    cases = [np.zeros((0,), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)]
    if x.size:
        cases += [rng.integers(0, x.size, size=(3, 4)), np.int64(x.size - 1)]
    for codes in cases:
        coords = x.decode(codes)
        assert coords.dtype == np.int64
        assert np.array_equal(coords, _reference_decode(shape, codes))
        assert np.array_equal(x.encode(coords), _reference_encode(shape, coords))
        assert np.array_equal(x.encode(coords), codes)


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
    with pytest.raises(TableOutOfRange, match="pair code 3 is not a member"):
        apex.position_of([3])
    # equality compares every element, up to the last one
    square = FinSet((4,)), FinSet((4,))
    head = list(range(11))
    assert SubsetApex(*square, head + [12]) == SubsetApex(*square, head + [12])
    assert SubsetApex(*square, head + [12]) != SubsetApex(*square, head + [13])


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


def _argsort_join(values, table):
    """The reference join of values into a table: the table sorted by a
    stable argsort, always."""
    order = np.argsort(table, kind="stable")
    gsorted = table[order]
    starts = np.searchsorted(gsorted, values, side="left")
    counts = np.searchsorted(gsorted, values, side="right") - starts
    k = np.repeat(np.arange(values.size, dtype=np.int64), counts)
    offsets = np.arange(k.size, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return k, order[starts[k] + offsets]


def test_table_join_matches_the_argsort_join():
    # a table that already ascends is searched in place: the pairs are
    # those of sorting it first, in the same order
    rng = np.random.default_rng(21)
    tables = [[], [3], [0], [0, 1, 2, 5, 9], [0, 0, 1, 1, 1, 4, 9, 9], [2, 2, 2],
              [5, 1, 4, 1, 0, 9], [0, 1, 3, 2], [1, 0]]
    for n in (2, 7, 50):
        tables += [np.sort(rng.integers(0, 10, size=n)), rng.integers(0, 10, size=n),
                   np.sort(rng.choice(12, size=min(n, 12), replace=False))]
    for table in tables:
        table = np.asarray(table, dtype=np.int64)
        g = FinFn(FinSet((table.size,)), FinSet((12,)), table)
        # values missing from the table, repeated, and out of order
        for values in (np.arange(12), rng.integers(0, 12, size=13), np.zeros(0, dtype=np.int64),
                       np.array([11, 9, 9, 7, 0])):
            k, b = finset_module._join(values, g)
            want_k, want_b = _argsort_join(values, table)
            assert k.dtype == b.dtype == np.int64
            assert np.array_equal(k, want_k) and np.array_equal(b, want_b)


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
    # a word decodes, picks coordinates and encodes; a product pairs its
    # factors' values one point at a time: independent of both code paths
    if fn.factors is not None:
        fa, fb = fn.factors
        ta, tb = _reference_table(fa), _reference_table(fb)
        return np.array([ta[i] * fb.cod.size + tb[j]
                         for i in range(fa.dom.size) for j in range(fb.dom.size)],
                        dtype=np.int64).reshape(-1)
    if fn.word is None:
        return fn.table
    codes = np.arange(fn.dom.size, dtype=np.int64)
    return fn.cod.encode(fn.dom.decode(codes)[:, list(fn.word)])


def _tabled(fn):
    """The same function stored as a table."""
    return FinFn(fn.dom, fn.cod, _reference_table(fn))


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
def words_into(draw, target, project=True):
    """A word leg into target: its factors permuted, maybe (with project)
    with one more factor for the word to project away."""
    perm = draw(st.permutations(range(len(target.shape))))
    extra = draw(st.lists(st.integers(0, 3), max_size=int(project)))
    dom = FinSet(tuple(target.shape[j] for j in perm) + tuple(extra))
    return reindex_fn(dom, target, [perm.index(t) for t in range(len(perm))])


@st.composite
def any_words_into(draw, target):
    """Any word leg into target: an output factor reads a new input factor
    or one already read of its size (a diagonal), input factors that no
    output reads are projected away, and the input factors are shuffled."""
    shape = draw(st.lists(st.integers(0, 3), max_size=2))
    word = []
    for n in target.shape:
        same = [j for j, m in enumerate(shape) if m == n]
        if same and draw(st.booleans()):
            word.append(draw(st.sampled_from(same)))
        else:
            word.append(len(shape))
            shape.append(n)
    perm = draw(st.permutations(range(len(shape))))
    return reindex_fn(FinSet(tuple(shape[j] for j in perm)), target,
                      [perm.index(j) for j in word])


PRODUCT_KINDS = ["word x table", "table x word", "table x table", "product x table",
                 "table x product"]


@st.composite
def products_into(draw, target, kinds):
    """A tensor_fn product into target, split anywhere, of a word and a
    table factor (kinds "word", "table", in that order), of two tables,
    or of a table and a product of two such factors (kind "product")."""
    cut = draw(st.integers(0, len(target.shape)))
    parts = [FinSet(target.shape[:cut]), FinSet(target.shape[cut:])]
    factors = []
    for kind, part in zip(kinds, parts):
        if kind == "product":
            inner = draw(st.sampled_from(PRODUCT_KINDS[:3])).split(" x ")
            factors.append(draw(products_into(part, inner)))
        else:
            factors.append(draw(any_words_into(part) if kind == "word" else table_fns(part)))
    return tensor_fn(product([p.dom for p in factors]), target, *factors)


COSPAN_KINDS = ["table", "word", "words_into", "permutation", "table | word", *PRODUCT_KINDS]


@st.composite
def cospans(draw):
    """(f, g, kind) into one codomain: f is a word with diagonals,
    projections and zero-size factors, and g is a table, any word, a
    permutation with or without one factor projected away, or a tensor_fn
    product of a word and a table (either order), of two tables or of a
    table and such a product (either order); or f is a table and g the
    word.  f permutes its factors half of the time."""
    word = draw(word_fns())
    kind = draw(st.sampled_from(COSPAN_KINDS))
    target = word.cod
    if kind in ("table", "table | word"):
        other = draw(table_fns(target))
    elif kind == "word":
        other = draw(any_words_into(target))
    elif kind == "words_into":
        other = draw(words_into(target))
    elif kind == "permutation":
        other = draw(words_into(target, project=False))
    else:
        other = draw(products_into(target, kind.split(" x ")))
    return (other, word, kind) if kind == "table | word" else (word, other, kind)


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


def _pointwise_table(fn):
    """A word's table one point at a time in Python integers: decode the
    point factor by factor, read the word's coordinates, encode them."""
    table = []
    for code in range(fn.dom.size):
        coords = []
        for n in reversed(fn.dom.shape):
            code, c = divmod(code, n)
            coords.insert(0, c)
        value = 0
        for j, n in zip(fn.word, fn.cod.shape):
            value = value * n + coords[j]
        table.append(value)
    return np.array(table, dtype=np.int64)


WORD_CASES = [
    ((), ()),                       # the empty shape
    ((3, 2), (0, 1)),               # the identity
    ((3, 1, 2), (0, 1, 2)),         # the identity with a size-1 factor
    ((3, 2), ()),                   # the terminal map
    ((2, 3, 2), (0, 0, 2)),         # a diagonal and a projection
    ((2, 3), (1, 0, 1, 1)),         # a shuffle with repeats
    ((1, 3, 1), (2, 1, 0, 1)),      # size-1 factors, read and repeated
    ((2, 0, 3), (2, 0)),            # a size-0 factor left unread
    ((0, 2), (1,)),                 # a size-0 factor first, unread
    ((3, 4), (1,)),                 # the last factor alone
    ((2, 3, 4), (0, 1)),            # a prefix: no division needed
    ((2, 3, 4), (1, 2)),            # a suffix: no remainder needed
]


@pytest.mark.parametrize("shape, word", WORD_CASES)
def test_word_table_is_its_pointwise_table(shape, word):
    dom = FinSet(shape)
    fn = reindex_fn(dom, FinSet(tuple(shape[j] for j in word)), word)
    reference = _pointwise_table(fn)
    assert np.array_equal(fn.table, reference)
    assert fn.table.dtype == np.int64 and fn.table.shape == (dom.size,)
    if dom.size > 1:
        fresh = reindex_fn(dom, fn.cod, word)
        positions = np.arange(dom.size - 1, -1, -2, dtype=np.int64)
        assert np.array_equal(fresh.at(positions), reference[positions])
        assert "table" not in vars(fresh)


@settings(max_examples=300, deadline=None)
@given(st.one_of(word_fns(), word_shapes.map(lambda shape: identity_fn(FinSet(shape)))))
def test_drawn_word_tables_are_their_pointwise_tables(fn):
    assert np.array_equal(fn.table, _pointwise_table(fn))


@pytest.mark.parametrize("seed", range(40))
def test_partial_evaluation_matches_the_table(seed):
    # a word asked for fewer points than its domain has evaluates only
    # those points, block by block: blocks that start at factor 0, end at
    # the last factor, stand alone or repeat, against the whole table
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 5, size=rng.integers(1, 6)))
    k = len(shape)
    kind = seed % 4
    if kind == 0:
        word = tuple(int(j) for j in rng.permutation(k))
    elif kind == 1:
        start = int(rng.integers(0, k))
        word = tuple(range(start, int(rng.integers(start + 1, k + 1))))
    else:
        word = tuple(int(j) for j in rng.integers(0, k, size=rng.integers(0, 6)))
    dom = FinSet(shape)
    cod = FinSet(tuple(shape[j] for j in word))
    fn = reindex_fn(dom, cod, word)
    positions = rng.integers(0, dom.size, size=max(dom.size // 3, 1) if dom.size > 1 else 0)
    values = fn.at(positions)
    assert "table" not in vars(fn)
    assert values.shape == positions.shape
    reference = _pointwise_table(fn)
    assert np.array_equal(values, reference[positions])
    assert np.array_equal(reindex_fn(dom, cod, word).table[positions], values)


@settings(max_examples=600, deadline=None)
@given(cospans())
def test_pullback_of_word_legs_matches_tables(pair):
    f, g, kind = pair
    apex, p1, p2 = pullback(f, g)
    if kind == "permutation":
        # the graph of the word f ; g^-1, with f itself never tabulated
        assert "table" not in vars(f)
    ref_apex, r1, r2 = pullback(_tabled(f), _tabled(g))
    assert apex == ref_apex
    assert np.array_equal(apex.members, ref_apex.members)
    assert np.array_equal(p1.table, r1.table)
    assert np.array_equal(p2.table, r2.table)
    if f.dom.size * g.dom.size <= 400:
        pairs = list(zip(p1.table.tolist(), p2.table.tolist()))
        assert pairs == _brute_pullback(_tabled(f), _tabled(g))


def test_word_fibres_are_boxes():
    # x -> (x0, x0, x2) on (2, 3, 2) reads factor 0 twice and never reads
    # factor 1: a value's fibre is empty when its diagonal disagrees, else
    # the three points of the free factor, in row-major order
    dom = FinSet((2, 3, 2))
    f = reindex_fn(dom, FinSet((2, 2, 2)), [0, 0, 2])
    g = FinFn(FinSet((3,)), f.cod, f.cod.encode([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    apex, p1, p2 = pullback(f, g)
    assert "table" not in vars(f)
    assert p1.table.tolist() == dom.encode([[0, j, 1] for j in range(3)]
                                           + [[1, j, 0] for j in range(3)]).tolist()
    assert p2.table.tolist() == [2, 2, 2, 0, 0, 0]
    assert np.array_equal(apex.members, p1.table * 3 + p2.table)


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


@st.composite
def product_factors(draw):
    """Two factor functions, at least one of them a table: words out of
    FinSets, tables out of FinSets or SubsetApexes, factor domains of
    sizes 0 and 1 among them."""
    kinds = draw(st.sampled_from([("table", "word"), ("word", "table"), ("table", "table")]))
    return [draw(word_fns()) if kind == "word" else draw(table_fns(FinSet(draw(word_shapes))))
            for kind in kinds]


def _product_of(factors):
    fa, fb = factors
    return tensor_fn(product([fa.dom, fb.dom]), product([fa.cod, fb.cod]), fa, fb)


def _positions(data, size):
    if not size:
        return np.zeros(0, dtype=np.int64)
    return np.array(data.draw(st.lists(st.integers(0, size - 1), max_size=8)), dtype=np.int64)


def _retabled(data, fn):
    """fn as a table with at most one entry moved: a table factor for
    building a second product of the same split."""
    table = _reference_table(fn).copy()
    if table.size and fn.cod.size > 1 and data.draw(st.booleans()):
        k = data.draw(st.integers(0, table.size - 1))
        table[k] = (table[k] + 1) % fn.cod.size
    return FinFn(fn.dom, fn.cod, table)


@settings(max_examples=300, deadline=None)
@given(product_factors(), st.data())
def test_product_leg_matches_its_table(factors, data):
    fn = _product_of(factors)
    assert fn.factors is not None
    reference = _reference_table(fn)
    positions = _positions(data, fn.dom.size)
    assert np.array_equal(fn.at(positions), reference[positions])
    assert "table" not in vars(fn)
    # a product of the same split compares factor by factor, and names the
    # row-major first position where the two tables differ
    other = tensor_fn(fn.dom, fn.cod, *(_retabled(data, f) for f in factors))
    differs = np.flatnonzero(_reference_table(other) != reference)
    first = int(differs[0]) if differs.size else None
    assert other.first_difference(fn) == fn.first_difference(other) == first
    assert other.same_values(fn) == fn.same_values(other) == (first is None)
    assert "table" not in vars(fn) and "table" not in vars(other)
    assert fn.same_values(_tabled(fn)) and _tabled(fn).same_values(fn)
    assert fn.first_difference(FinFn(fn.dom, fn.cod, _reference_table(other))) == first
    assert np.array_equal(fn.table, reference)


@settings(max_examples=300, deadline=None)
@given(product_factors(), st.data())
def test_compose_fn_of_product_legs_matches_tables(factors, data):
    fn = _product_of(factors)
    side = data.draw(st.sampled_from(["first", "second", "both"]))
    if side == "first":
        n = fn.cod.size
        other = FinFn(fn.cod, FinSet((3,)), data.draw(st.lists(st.integers(0, 2), min_size=n,
                                                               max_size=n)))
        f, g = fn, other
    elif side == "second":
        f, g = data.draw(table_fns(fn.dom)), fn
    else:
        # a second product out of fn's codomain, split where fn's factors
        # end or anywhere else
        shape = fn.cod.shape
        cut = data.draw(st.integers(0, len(shape)))
        second = [FinFn(FinSet(part), FinSet((3,)),
                        data.draw(st.lists(st.integers(0, 2), min_size=FinSet(part).size,
                                           max_size=FinSet(part).size)))
                  for part in (shape[:cut], shape[cut:])]
        f, g = fn, tensor_fn(fn.cod, product([q.cod for q in second]), *second)
    composite = compose_fn(f, g)
    reference = compose_fn(_tabled(f), _tabled(g))
    assert (composite.dom, composite.cod) == (reference.dom, reference.cod)
    factorwise = side == "both" and all(p.cod == q.dom for p, q in zip(factors, g.factors))
    assert (composite.factors is not None) == factorwise
    assert np.array_equal(composite.table, reference.table)


@settings(max_examples=300, deadline=None)
@given(product_factors(), st.data())
def test_pullback_of_product_legs_matches_tables(factors, data):
    fn = _product_of(factors)
    side = data.draw(st.sampled_from(["left", "right", "both"]))
    if side == "both":
        other = _product_of([data.draw(table_fns(p.cod)) for p in factors])
    else:
        other = data.draw(st.one_of(table_fns(fn.cod), words_into(fn.cod)))
    f, g = (fn, other) if side == "left" else (other, fn)
    apex, p1, p2 = pullback(f, g)
    ref_apex, r1, r2 = pullback(_tabled(f), _tabled(g))
    assert apex == ref_apex
    assert np.array_equal(apex.members, ref_apex.members)
    assert np.array_equal(p1.table, r1.table)
    assert np.array_equal(p2.table, r2.table)
    assert "table" not in vars(fn)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_values_of_nested_products_match_their_tables(data):
    target = FinSet(data.draw(word_shapes))
    kinds = data.draw(st.sampled_from(PRODUCT_KINDS)).split(" x ")
    fn = data.draw(products_into(target, kinds))
    values = finset_module._values(fn)
    assert "table" not in vars(fn)
    assert not any("table" in vars(p) for p in fn.factors if p.factors is not None)
    reference = _reference_table(fn)
    assert np.array_equal(values, reference)
    assert np.array_equal(fn.at(np.arange(fn.dom.size, dtype=np.int64)), reference)
    assert np.array_equal(fn.table, reference)
    assert finset_module._values(fn) is fn.table


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_pullback_of_a_permutation_against_a_product_matches_tables(data):
    # f^-1 is linear in the coordinates, which split between the product's
    # factors: on either side, the pairs are a grid sum of the factors'
    # renamed values, and neither leg is tabulated
    perm = data.draw(word_fns(permuting=True))
    kinds = data.draw(st.sampled_from(PRODUCT_KINDS)).split(" x ")
    prod = data.draw(products_into(perm.cod, kinds))
    f, g = (perm, prod) if data.draw(st.booleans()) else (prod, perm)
    apex, p1, p2 = pullback(f, g)
    assert "table" not in vars(perm) and "table" not in vars(prod)
    ref_apex, r1, r2 = pullback(_tabled(f), _tabled(g))
    assert apex == ref_apex
    assert np.array_equal(apex.members, ref_apex.members)
    assert np.array_equal(p1.table, r1.table)
    assert np.array_equal(p2.table, r2.table)
    if f.dom.size * g.dom.size <= 400:
        pairs = list(zip(p1.table.tolist(), p2.table.tolist()))
        assert pairs == _brute_pullback(_tabled(f), _tabled(g))


ONE_ELEMENT_SHAPES = [(), (1,), (1, 1)]


@st.composite
def constant_fns(draw, target):
    """A composite into the one-element set target, whose table is the
    zero-stride constant: a table, a product or a word, then a table into
    target, or a table then a word; no word is the identity, which
    compose_fn absorbs."""
    kind = draw(st.sampled_from(["table", "product", "word", "table then word"]))
    if kind == "table then word":
        last = draw(any_words_into(target).filter(lambda w: w.word != w.dom.axes))
        return compose_fn(draw(table_fns(last.dom)), last)
    first = {"table": lambda: draw(table_fns(FinSet((3,)))),
             "product": lambda: _product_of(draw(product_factors())),
             "word": lambda: draw(word_fns().filter(lambda w: w.word != w.dom.axes))}[kind]()
    return compose_fn(first, FinFn(first.cod, target, np.zeros(first.cod.size, dtype=np.int64)))


@st.composite
def legs_into(draw, target):
    """Any leg form into target: a table, a word, a permutation, a product
    or another computed constant."""
    kind = draw(st.sampled_from(["table", "word", "words_into", "permutation", "constant",
                                 *PRODUCT_KINDS]))
    if kind == "table":
        return draw(table_fns(target))
    if kind == "word":
        return draw(any_words_into(target))
    if kind in ("words_into", "permutation"):
        return draw(words_into(target, project=kind == "words_into"))
    if kind == "constant":
        return draw(constant_fns(target))
    return draw(products_into(target, kind.split(" x ")))


def _same_pullback(got, want):
    (apex, p1, p2), (ref_apex, r1, r2) = got, want
    assert apex == ref_apex and np.array_equal(apex.members, ref_apex.members)
    assert np.array_equal(p1.table, r1.table) and np.array_equal(p2.table, r2.table)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_constant_tables_behave_as_their_tabulated_copies(data):
    # compose_fn gives a map into a one-element set a read-only zero-stride
    # table; it and a copy holding np.zeros(n) agree under every reader
    target = FinSet(data.draw(st.sampled_from(ONE_ELEMENT_SHAPES)))
    const = data.draw(constant_fns(target))
    table = const.table
    assert table.shape == (const.dom.size,) and table.strides == (0,)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[...] = 0
    copy = FinFn(const.dom, const.cod, np.zeros(const.dom.size, dtype=np.int64))
    positions = _positions(data, const.dom.size)
    assert np.array_equal(const.at(positions), copy.at(positions))
    assert const.first_difference(copy) is None and copy.first_difference(const) is None
    assert const.same_values(copy) and copy.same_values(const) and const == copy
    assert const.is_injective() == copy.is_injective() == (const.dom.size <= 1)
    leg = data.draw(legs_into(target))
    _same_pullback(pullback(const, leg), pullback(copy, leg))
    _same_pullback(pullback(leg, const), pullback(leg, copy))
    before = data.draw(st.one_of(table_fns(const.dom), words_into(const.dom))
                       if isinstance(const.dom, FinSet) else table_fns(const.dom))
    after = FinFn(target, FinSet((2,)), [data.draw(st.integers(0, 1))])
    for got, want in ((compose_fn(before, const), compose_fn(before, copy)),
                      (compose_fn(const, after), compose_fn(copy, after))):
        assert (got.dom, got.cod) == (want.dom, want.cod)
        assert np.array_equal(got.table, want.table) and got == want
    other = data.draw(st.one_of(table_fns(FinSet((2,))), word_fns()))
    for a, b in ((const, other), (other, const)):
        a_copy, b_copy = (copy, b) if a is const else (a, copy)
        got = tensor_fn(product([a.dom, b.dom]), product([a.cod, b.cod]), a, b)
        want = tensor_fn(got.dom, got.cod, a_copy, b_copy)
        positions = _positions(data, got.dom.size)
        assert np.array_equal(got.at(positions), want.at(positions))
        assert got.same_values(want) and np.array_equal(got.table, want.table)


def test_a_terminal_composite_allocates_no_table():
    # composing a 10^5-point table with the terminal word reads neither
    # side: the composite's table is the shared zero at stride 0
    n = 10 ** 5
    f = FinFn(FinSet((n,)), FinSet((7,)), np.arange(n, dtype=np.int64) % 7)
    end = terminal_fn(FinSet((7,)))
    tracemalloc.start()
    try:
        composite = compose_fn(f, end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak
    assert "table" not in vars(end) and composite.table.strides == (0,)
    assert np.array_equal(composite.table, np.zeros(n))


def test_full_product_apex_lists_every_pair_without_storing_them():
    sub = SubsetApex(FinSet((3,)), FinSet((3,)), [2, 5, 7])
    full = product([sub, FinSet((2, 2))])
    assert full.size == 12 and full.full and "members" not in vars(full)
    assert np.array_equal(full.decode([0, 5, 11]),
                          [[0, 2, 0, 0], [1, 2, 0, 1], [2, 1, 1, 1]])
    assert np.array_equal(full.position_of([0, 11]), [0, 11])
    with pytest.raises(TableOutOfRange, match="pair code 12 is not a member"):
        full.position_of([12])
    assert "members" not in vars(full)
    assert np.array_equal(full.members, np.arange(12))
    assert full == SubsetApex(sub, FinSet((2, 2)), np.arange(12))


def test_input_checks_hold_under_python_O():
    # python -O strips asserts; each check an input can reach is a typed error
    script = (
        "from spanv.cells import Column\n"
        "from spanv.errors import SpanVError\n"
        "from spanv.finset import FinFn, FinSet, SubsetApex, identity_fn, reindex_fn\n"
        "from spanv.span import Span\n"
        "a = FinSet((2,))\n"
        "sub = SubsetApex(a, a, [1, 2])\n"
        "leg = identity_fn(a)\n"
        "for attempt in (lambda: FinSet((2, 3)).encode([1, 2, 0]),\n"
        "                lambda: sub.position_of([3]),\n"
        "                lambda: SubsetApex(a, a, []).position_of([0]),\n"
        "                lambda: reindex_fn(sub, a, (0,)),\n"
        "                lambda: Span(a, FinSet((3,)), a, leg, leg),\n"
        "                lambda: Span(a, a, FinSet((3,)), leg, leg),\n"
        "                lambda: FinFn(a, FinSet((2, 2)), word=[0, 0]).inverse(),\n"
        "                lambda: FinFn(a, a, [1, 0]).inverse(),\n"
        "                lambda: Column([1], 3).all_equal(Column([1], 2), int.__eq__),\n"
        "                lambda: Column([1, 2], 3, [0, 1, 0]).zip_with(Column([1], 2), max)):\n"
        "    try:\n"
        "        attempt()\n"
        "    except SpanVError as err:\n"
        "        print(type(err).__name__, '|', err)\n")
    lines = []
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                             text=True, check=True)
        lines.append(run.stdout.splitlines())
    assert lines[0] == lines[1]
    assert [line.split(" | ")[0] for line in lines[0]] == [
        "ShapeMismatch", "TableOutOfRange", "TableOutOfRange", "ShapeMismatch",
        "FeetMismatch", "FeetMismatch", "NotInvertible", "NotInvertible",
        "ShapeMismatch", "ShapeMismatch"]
    assert "width" not in lines[0][0] and "(3,)" in lines[0][0]
    assert "pair code 3 is not a member" in lines[0][1]
    assert "0 of 4" in lines[0][2]
    assert "left leg starts at FinSet(2,)" in lines[0][4]
    assert "right leg ends at FinSet(2,)" in lines[0][5]
    assert lines[0][6].endswith("got word (0, 0)") and lines[0][7].endswith("got word None")
    assert all(line.endswith("column of 3 entries with one of 2") for line in lines[0][8:])
