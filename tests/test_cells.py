"""Enriched spans, their 2-cells, and the pasting helpers."""

import numpy as np
import pytest

from spanv.cells import (
    Column,
    InvalidCell,
    VCell1,
    VFam,
    braiding_cell,
    cells_equal,
    compose_cells,
    hcompose_2cells,
    identity_2cell,
    identity_cell,
    invert_2cell,
    make_2cell,
    tensor_2cells,
    tensor_cells,
    tensor_fams,
    try_make_2cell,
    unit_fam,
    vcompose_2cells,
)
from spanv.errors import (
    BoundaryMismatch,
    ComponentShapeError,
    FactorizationViolation,
    FamMismatch,
    OutOfBounds,
    ShapeMismatch,
    TriangleViolation,
)
from spanv.finset import FinFn, FinSet, identity_fn
from spanv.pasting import (
    canonical_cell_iso,
    find_2cells,
    find_unique_2cell,
    paste,
    two_cells_equal,
)
from spanv.span import Span
from spanv.vbackend import FinSetBackend, MatBackend, TrivialBackend


def _mat_fam(be, dims):
    return VFam(be, FinSet((len(dims),)), list(dims))


def _point_cell(be, fam_a, fam_b, x, y, alpha):
    # one apex element sitting over (x, y)
    apex = FinSet((1,))
    span = Span(fam_a.base, apex, fam_b.base,
                FinFn(apex, fam_a.base, [x]), FinFn(apex, fam_b.base, [y]))
    return VCell1(fam_a, fam_b, span, [alpha])


def test_fam_validation():
    be = MatBackend(prime=3)
    with pytest.raises(ShapeMismatch, match="1 objects for a base of 2"):
        VFam(be, FinSet((2,)), [1])  # one object per base element


def test_tensor_fams_row_major():
    be = MatBackend(prime=3)
    a = _mat_fam(be, [2, 3])
    b = _mat_fam(be, [1, 4])
    t = tensor_fams(a, b)
    assert list(t.objs) == [2, 8, 3, 12]
    assert tensor_fams(unit_fam(be), a) is a


def test_cell_component_validation():
    be = MatBackend(prime=3)
    a = _mat_fam(be, [2, 3])
    with pytest.raises(ComponentShapeError):
        _point_cell(be, a, a, 0, 1, be.mor(np.zeros((2, 2))))
    cell = _point_cell(be, a, a, 0, 1, be.mor(np.zeros((2, 3))))
    assert cell.alphas[0].shape == (2, 3)
    with pytest.raises(ShapeMismatch, match="2 components for an apex of 1"):
        VCell1(a, a, cell.span, [be.mor(np.zeros((2, 3)))] * 2)
    with pytest.raises(FamMismatch):
        VCell1(a, a, Span(FinSet((3,)), FinSet((1,)), a.base,
                          FinFn(FinSet((1,)), FinSet((3,)), [0]),
                          FinFn(FinSet((1,)), a.base, [0])), [be.mor(np.zeros((2, 2)))])


def test_compose_cells_multiplies_components():
    be = MatBackend(prime=5)
    a, b, c = _mat_fam(be, [2]), _mat_fam(be, [2]), _mat_fam(be, [2])
    f = _point_cell(be, a, b, 0, 0, be.mor([[1, 2], [3, 4]]))
    g = _point_cell(be, b, c, 0, 0, be.mor([[0, 1], [1, 0]]))
    comp = compose_cells(f, g)
    assert comp.span.apex.size == 1
    assert np.array_equal(comp.alphas[0], be.compose(f.alphas[0], g.alphas[0]))


def test_tensor_cells_krons_components():
    be = MatBackend(prime=5)
    a = _mat_fam(be, [2])
    f = _point_cell(be, a, a, 0, 0, be.mor([[1, 2], [3, 4]]))
    t = tensor_cells(f, f)
    assert np.array_equal(t.alphas[0], np.kron(f.alphas[0], f.alphas[0]) % 5)


def test_identity_absorbed_in_composition():
    be = FinSetBackend()
    fam = VFam(be, FinSet((2,)), [FinSet((2,)), FinSet((3,))])
    one = identity_cell(fam)
    cell = _point_cell(be, fam, fam, 0, 1,
                       FinFn(FinSet((2,)), FinSet((3,)), [0, 2]))
    assert compose_cells(one, cell) is cell
    assert compose_cells(cell, identity_cell(fam)) is cell


def test_braiding_cell_is_invertible():
    be = MatBackend(prime=3)
    a, b = _mat_fam(be, [1, 2]), _mat_fam(be, [3])
    br = braiding_cell(a, b)
    assert br.span.f.is_bijective() and br.span.g.is_bijective()
    # braiding then braiding back is isomorphic to the identity
    back = braiding_cell(b, a)
    round_trip = compose_cells(br, back)
    assert canonical_cell_iso(round_trip, identity_cell(tensor_fams(a, b))) is not None


def test_make_2cell_validations():
    tb = TrivialBackend()
    fam = VFam(tb, FinSet((2,)))
    apex = FinSet((2,))
    sp1 = Span(fam.base, apex, fam.base, identity_fn(apex), identity_fn(apex))
    sp2 = Span(fam.base, apex, fam.base, identity_fn(apex), FinFn(apex, fam.base, [1, 0]))
    c1 = VCell1(fam, fam, sp1, None)
    c2 = VCell1(fam, fam, sp2, None)
    two = make_2cell(c1, c1, [0, 1])
    assert np.array_equal(two.u, [0, 1])
    with pytest.raises(TriangleViolation) as err:
        make_2cell(c1, c2, [0, 1])
    assert err.value.element == (0,)
    with pytest.raises(BoundaryMismatch):
        make_2cell(c1, c1, [0])
    with pytest.raises(BoundaryMismatch):
        make_2cell(c1, c1, [0, 5])
    bad = try_make_2cell(c1, c2, [0, 1])
    assert isinstance(bad, InvalidCell)
    assert bad.element == (0,)


def test_cells_over_equal_backends_compose():
    # separately built backends with the same parameters are the same backend
    a, b = MatBackend(prime=3), MatBackend(prime=3)
    assert a == b and hash(a) == hash(b)
    assert a != MatBackend(prime=5) and a != MatBackend(boolean=True)
    fa, fb = _mat_fam(a, [2]), _mat_fam(b, [2])
    f = _point_cell(a, fa, fa, 0, 0, a.mor([[1, 1], [0, 1]]))
    g = _point_cell(b, fb, fb, 0, 0, b.mor([[1, 2], [0, 1]]))
    assert np.array_equal(compose_cells(f, g).alphas[0], [[1, 0], [0, 1]])


def test_constant_components_store_no_codes():
    # one distinct value costs O(1) memory at any length, also after a tensor
    fam = VFam(TrivialBackend(), FinSet((300,)))
    assert tensor_fams(fam, fam).objs.codes is None
    cell = tensor_cells(identity_cell(fam), identity_cell(fam))
    assert len(cell.alphas) == 300 * 300 and cell.alphas.codes is None


def test_first_bad_component_is_first_in_apex_order():
    be = MatBackend(prime=3)
    fam = _mat_fam(be, [2])
    a, b = be.mor([[1, 0], [0, 1]]), be.mor([[1, 1], [0, 1]])
    apex = FinSet((4,))
    span = Span(fam.base, apex, fam.base,
                FinFn(apex, fam.base, [0] * 4), FinFn(apex, fam.base, [0] * 4))
    src = VCell1(fam, fam, span, [b, a, a, b])
    assert len(src.alphas.values) == 2  # equal morphisms are stored once
    # the pair (b, a) at element 3 sorts before (a, b) at element 2
    with pytest.raises(FactorizationViolation) as err:
        make_2cell(src, VCell1(fam, fam, span, [b, a, b, a]), [0, 1, 2, 3])
    assert err.value.element == (2,)
    with pytest.raises(ComponentShapeError, match="component 2 "):
        VCell1(fam, fam, span, [a, b, be.mor(np.zeros((2, 3))), be.mor(np.zeros((3, 2)))])


def test_make_2cell_checks_components():
    be = MatBackend(prime=3)
    fam = _mat_fam(be, [2])
    c1 = _point_cell(be, fam, fam, 0, 0, be.mor([[1, 0], [0, 1]]))
    c2 = _point_cell(be, fam, fam, 0, 0, be.mor([[1, 1], [0, 1]]))
    with pytest.raises(FactorizationViolation) as err:
        make_2cell(c1, c2, [0])
    assert err.value.element == (0,)


_TB = TrivialBackend()


def _parallel_pair(seed, nl=2, na=4, nr=2):
    # two parallel trivial cells with a canonical iso between them
    rng = np.random.default_rng(seed)
    dom, cod = VFam(_TB, FinSet((nl,))), VFam(_TB, FinSet((nr,)))
    apex = FinSet((na,))
    f = rng.integers(0, nl, size=na)
    g = rng.integers(0, nr, size=na)
    perm = rng.permutation(na)
    s = VCell1(dom, cod, Span(dom.base, apex, cod.base,
                              FinFn(apex, dom.base, f), FinFn(apex, cod.base, g)), None)
    t = VCell1(dom, cod, Span(dom.base, apex, cod.base,
                              FinFn(apex, dom.base, f[perm]), FinFn(apex, cod.base, g[perm])), None)
    return s, t


def test_vertical_composition_and_inverse():
    s, t = _parallel_pair(11)
    up = canonical_cell_iso(s, t)
    down = canonical_cell_iso(t, s)
    assert up is not None and down is not None
    both = vcompose_2cells(up, down)
    ok, info = two_cells_equal(both, identity_2cell(s))
    assert ok, info
    inv = invert_2cell(up)
    assert inv is not None
    ok, _ = two_cells_equal(inv, down)
    assert ok


def test_horizontal_composition_interchange():
    s1, t1 = _parallel_pair(21)
    s2, t2 = _parallel_pair(22)
    a = canonical_cell_iso(s1, t1)
    b = canonical_cell_iso(t1, s1)
    c = canonical_cell_iso(s2, t2)
    d = canonical_cell_iso(t2, s2)
    # (a ; b) horizontally composed with (c ; d) can be evaluated either way
    lhs = hcompose_2cells(vcompose_2cells(a, b), vcompose_2cells(c, d))
    rhs = vcompose_2cells(hcompose_2cells(a, c), hcompose_2cells(b, d))
    ok, info = two_cells_equal(lhs, rhs)
    assert ok, info


def test_tensor_2cells_interchange():
    s1, t1 = _parallel_pair(31)
    s2, t2 = _parallel_pair(32)
    a = canonical_cell_iso(s1, t1)
    c = canonical_cell_iso(s2, t2)
    both = tensor_2cells(a, c)
    assert both.src.span.apex.size == s1.span.apex.size * s2.span.apex.size
    ok, _ = two_cells_equal(
        both, tensor_2cells(a, c))
    assert ok


def test_whisker_and_paste():
    s, t = _parallel_pair(41, nl=2, na=3, nr=2)
    a = canonical_cell_iso(s, t)
    frame = identity_cell(s.dom)
    left = hcompose_2cells(identity_2cell(frame), a)
    assert cells_equal(left.src, compose_cells(frame, s))
    b = canonical_cell_iso(t, s)
    ok, _ = two_cells_equal(paste([a, b]), identity_2cell(s))
    assert ok


def test_find_2cells_and_search_limit():
    tb = TrivialBackend()
    fam = VFam(tb, FinSet((1,)))
    apex_many = FinSet((4,))
    wide = VCell1(fam, fam, Span(fam.base, apex_many, fam.base,
                                 FinFn(apex_many, fam.base, [0] * 4),
                                 FinFn(apex_many, fam.base, [0] * 4)), None)
    found = find_2cells(identity_cell(fam), wide)
    assert len(found) == 4
    assert find_unique_2cell(identity_cell(fam), wide) is None
    with pytest.raises(OutOfBounds):
        find_2cells(wide, wide)  # 4^4 candidates is past the cap
    assert len(find_2cells(wide, wide, 256)) == 256


def _relabelled_pair():
    # an apex of 3 over {0, 1} with both legs [0, 0, 1], and a relabelled
    # copy with both legs [1, 0, 0]: four 2-cells between any two of them
    fam = VFam(TrivialBackend(), FinSet((2,)))
    apex = FinSet((3,))

    def cell(legs):
        leg = FinFn(apex, fam.base, legs)
        return VCell1(fam, fam, Span(fam.base, apex, fam.base, leg, leg), None)

    return {"a": cell([0, 0, 1]), "b": cell([1, 0, 0])}


def test_two_cells_equal_names_the_first_differing_element():
    cells = _relabelled_pair()

    def two(ends, table):
        found = {tuple(t.u.tolist()): t for t in find_2cells(cells[ends[0]], cells[ends[1]], 64)}
        assert len(found) == 4
        return found[tuple(table)]

    cases = [
        # equal boundaries
        (two("ab", [1, 1, 0]), two("ab", [1, 2, 0]), {"element": [1], "this": [1], "other": [2]}),
        # bridged targets, then bridged sources, then both
        (two("aa", [0, 1, 2]), two("ab", [2, 2, 0]), {"element": [0], "this": [1], "other": [2]}),
        (two("ab", [1, 2, 0]), two("bb", [0, 1, 1]), {"element": [1], "this": [2], "other": [1]}),
        (two("aa", [0, 0, 2]), two("bb", [0, 2, 1]), {"element": [0], "this": [1], "other": [2]}),
        (two("aa", [1, 0, 2]), two("bb", [0, 2, 1]), None),
    ]
    for x, y, info in cases:
        assert two_cells_equal(x, y) == (info is None, info)
        assert two_cells_equal(paste([x, identity_2cell(x.tgt)]), y) == (info is None, info)


def test_pasting_keeps_word_and_product_maps_lazy():
    a = _relabelled_pair()["a"]
    i = identity_2cell(a)
    both = paste([i, i]).apex_map
    assert both.word is not None and "table" not in vars(both)
    swap = make_2cell(a, a, [1, 0, 2])
    t = tensor_2cells(swap, i)
    back = paste([t, t])
    assert back.apex_map.factors is not None and "table" not in vars(back.apex_map)
    assert two_cells_equal(back, identity_2cell(t.src)) == (True, None)
    assert np.array_equal(back.u, np.arange(9))


def _unique_pairs(a, b, fn, key, outer):
    """The reference zip_with/outer: pairs numbered by np.unique, always."""
    width = len(b.values)
    dense_a = np.zeros(a.size, dtype=np.int64) if a.codes is None else a.codes
    dense_b = np.zeros(b.size, dtype=np.int64) if b.codes is None else b.codes
    size = a.size * b.size if outer else a.size
    if a.codes is None and b.codes is None:
        return Column(fn(a.values * width, b.values * len(a.values)), size, key=key)
    pairs = (dense_a[:, None] * width + dense_b).ravel() if outer else dense_a * width + dense_b
    distinct, codes = np.unique(pairs, return_inverse=True)
    left, right = np.divmod(distinct, width)
    values = fn([a.values[i] for i in left.tolist()], [b.values[j] for j in right.tolist()])
    return Column(values, size, codes.reshape(-1), key)


def _coded(rng, values, size):
    return Column(list(values), size, rng.integers(0, len(values), size=size))


def test_pair_numbering_matches_np_unique():
    # a pair space no larger than the column is numbered by marking the
    # pairs that occur: values, codes and fn's arguments are those of
    # numbering by np.unique
    rng = np.random.default_rng(21)
    zips = [(_coded(rng, "ab", 6), _coded(rng, "xyz", 6)),     # space 6 = size
            (_coded(rng, "ab", 5), _coded(rng, "xyz", 5)),     # space 6 > size
            (_coded(rng, "ab", 7), _coded(rng, "xyz", 7)),
            (_coded(rng, "abcd", 40), _coded(rng, "xyz", 40)),
            (Column(list("ab"), 4, [1, 1, 1, 1]), Column(list("xy"), 4, [0, 0, 0, 0])),
            (Column(["a"], 9), _coded(rng, "xyz", 9)),         # one constant side
            (_coded(rng, "abc", 3), Column(["x"], 3)),
            (Column(["a"], 5), Column(["x"], 5)),
            (Column([], 0), Column([], 0))]
    outers = [(_coded(rng, "ab", 2), _coded(rng, "xyz", 3)),
              (_coded(rng, "ab", 3), _coded(rng, "xyz", 2)),
              (_coded(rng, "abc", 4), _coded(rng, "xy", 5)),
              (Column(["a"], 3), _coded(rng, "xy", 4)),
              (_coded(rng, "ab", 3), Column([], 0)),
              (Column([], 0), _coded(rng, "xy", 4))]
    calls = []

    def pair(xs, ys):
        calls.append((list(xs), list(ys)))
        return [x + y for x, y in zip(xs, ys)]

    for (a, b), outer in [(case, False) for case in zips] + [(case, True) for case in outers]:
        for key in (None, lambda v: v[0]):
            want = _unique_pairs(a, b, pair, key, outer)
            want_calls, calls[:] = calls[:], []
            got = (a.outer if outer else a.zip_with)(b, pair, key)
            assert calls == want_calls
            assert (got.size, got.values) == (want.size, want.values)
            assert (got.codes is None and want.codes is None) or (
                got.codes.dtype == np.int64 and np.array_equal(got.codes, want.codes))
            calls.clear()
