"""Row-major codec, subset apexes, pullbacks and function builders."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanv.errors import CodMismatch, TableOutOfRange
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
    assert np.array_equal(x.position_of(codes), codes)


def test_codec_huge_ambient():
    # sizes past int64 fall back to python-int arithmetic
    x = FinSet((3,) * 46)
    assert x.size == 3**46
    assert x.size > 2**62
    coords = np.zeros((2, 46), dtype=np.int64)
    coords[0, 0] = 2
    coords[1, -1] = 1
    codes = x.encode(coords)
    assert codes[0] == 2 * 3**45
    assert codes[1] == 1
    assert np.array_equal(x.decode(codes), coords)
    apex = SubsetApex(x, [1, 2 * 3**45])
    assert np.array_equal(apex.position_of([2 * 3**45, 1]), [1, 0])


def test_subset_apex():
    amb = FinSet((3, 3))
    apex = SubsetApex(amb, [2, 5, 7])
    assert apex.size == 3
    assert np.array_equal(apex.decode([0, 1, 2]), [[0, 2], [1, 2], [2, 1]])
    assert np.array_equal(apex.position_of([5, 7, 2]), [1, 2, 0])
    with pytest.raises(AssertionError):
        SubsetApex(amb, [5, 2])  # members must ascend
    with pytest.raises(AssertionError):
        apex.position_of([3])  # not a member


def test_product_concatenates():
    a, b = FinSet((2, 3)), FinSet((4,))
    p = product([a, b])
    assert p.shape == (2, 3, 4)
    sub = product([SubsetApex(FinSet((2,)), [1]), SubsetApex(FinSet((3,)), [0, 2])])
    assert sub.ambient.shape == (2, 3)
    assert np.array_equal(sub.members, [3, 5])


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
    u = apex.position_of(a.members[t1] * b.size + t2)
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
