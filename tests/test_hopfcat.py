"""Hom-indexed enriched categories, groupoids, and the two-way bridges."""

import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spanv import cells as cells_module
from spanv import hopfcat, vbackend
from spanv.cells import Column, InvalidCell, VCell1, VCell2, make_2cell
from spanv.errors import (NotAGroupoid, NotFirm, NotInvertible, NotOverX2, ShapeMismatch,
                          SpanVError, UnsupportedBackend)
from spanv.finset import (UNIT, FinFn, FinSet, SubsetApex, diagonal_fn, identity_fn, pullback,
                          terminal_fn)
from spanv.hopfcat import (
    FIELDS,
    FrobVCat,
    GroupoidData,
    HopfVCat,
    VFunctorData,
    check_frobenius_vcat,
    check_frobenius_vfunctor,
    check_hopf_vcat,
    check_semi_hopf_vcat,
    codiscrete_groupoid,
    cyclic_group_groupoid,
    discrete_groupoid,
    frobcat_to_spanv,
    group_algebra_hopf,
    groupoid_structures,
    groupoid_to_hopfcat,
    hopfcat_data_equal,
    hopfcat_to_spanv,
    linearise,
    mat_frobenius_example,
    opposite_vcat,
    spanv_to_hopfcat,
    vfunctor_to_spanv,
)
from spanv.structures import (
    AxiomResult,
    antipode_context,
    check_frobenius,
    check_oplax_bimonoid,
    check_oplax_bimonoid_morphism,
    check_oplax_hopf,
    check_oplax_inverse,
    infer_unique_structure_cells,
    morita_uniqueness_iso,
)
from spanv.vbackend import FinSetBackend, MatBackend, NonzeroMatrix, per_check

CAT_AXIOMS = ["cat-assoc", "cat-unit-left", "cat-unit-right"]
HOPF_AXIOMS = CAT_AXIOMS + [
    "local-coassoc", "local-counit-left", "local-counit-right",
    "mult-comult", "unit-comult", "mult-counit", "unit-counit"]
FROB_AXIOMS = CAT_AXIOMS + [
    "cocat-coassoc", "cocat-counit-left", "cocat-counit-right",
    "frobenius-left", "frobenius-right"]


def test_codiscrete_groupoid_tables():
    g = codiscrete_groupoid(2)
    assert g.g1.size == 4
    # (a,b) composed with (b,c) is (a,c); check every composable pair
    for pos in range(g.pairs.size):
        left = g.g1.decode([g.p1.table[pos]])[0]
        right = g.g1.decode([g.p2.table[pos]])[0]
        assert left[1] == right[0]
        out = g.g1.decode([g.comp.table[pos]])[0]
        assert (out[0], out[1]) == (left[0], right[1])
    # inverses swap the two coordinates
    for m in range(4):
        a, b = g.g1.decode([m])[0]
        assert tuple(g.g1.decode([g.inv.table[m]])[0]) == (b, a)


def test_codiscrete_composition_matches_the_pullback_decode():
    # the composition table is read along the word (x, y, z) -> (x, z);
    # the oracle decodes each composable pair of a pullback instead
    for n in range(7):
        g = codiscrete_groupoid(n)
        pairs, _, _ = pullback(g.tgt, g.src)
        coords = pairs.decode(np.arange(pairs.size))
        assert np.array_equal(g.comp.table, coords[:, 0] * n + coords[:, 3])


def test_mat_frobenius_cocategory_matches_the_middle_index_sum():
    # comlt and couni are the transposes of m and u; the oracle builds
    # the cocomposition as a sum over a middle index instead
    for p, max_n in ((3, 3), (2, 4), (5, 2)):
        fc = mat_frobenius_example(p, max_n)
        for x, y, z in itertools.product(range(max_n), repeat=3):
            dd = np.zeros((fc.homs[x][z], fc.homs[x][y] * fc.homs[y][z]), dtype=np.int64)
            for i, j, t in itertools.product(range(x + 1), range(z + 1), range(y + 1)):
                dd[i * (z + 1) + j, (i * (y + 1) + t) * fc.homs[y][z] + t * (z + 1) + j] = 1
            assert np.array_equal(fc.comlt[x][y][z], dd)
        for x in range(max_n):
            assert np.array_equal(fc.couni[x], np.eye(x + 1, dtype=np.int64).reshape(-1, 1))


def test_cyclic_groupoid_is_the_group():
    g = cyclic_group_groupoid(3)
    assert g.g0.size == 1 and g.g1.size == 3
    for pos in range(g.pairs.size):
        a = int(g.p1.table[pos])
        b = int(g.p2.table[pos])
        assert int(g.comp.table[pos]) == (a + b) % 3
    assert [int(v) for v in g.inv.table] == [0, 2, 1]


def test_discrete_groupoid_has_only_identities():
    g = discrete_groupoid(3)
    assert g.g1.size == 3
    assert np.array_equal(g.e.table, [0, 1, 2])


def test_groupoid_validation_rejects_bad_tables():
    g = codiscrete_groupoid(2)
    wrong_e = g.e.table.copy()
    wrong_e[0] = 1  # identity of object 0 must start at 0
    with pytest.raises(NotAGroupoid, match="^identities have wrong boundaries$"):
        GroupoidData(g.g0, g.g1, g.src, g.tgt, g.comp.table,
                     FinFn(g.g0, g.g1, wrong_e), g.inv)
    wrong_inv = g.inv.table.copy()
    wrong_inv[1] = 1  # (0,1) inverted must be (1,0)
    with pytest.raises(NotAGroupoid, match="^inverse has wrong boundaries$"):
        GroupoidData(g.g0, g.g1, g.src, g.tgt, g.comp.table, g.e,
                     FinFn(g.g1, g.g1, wrong_inv))
    wrong_comp = g.comp.table.copy()
    wrong_comp[0] = (wrong_comp[0] + 1) % 4
    with pytest.raises(NotAGroupoid, match="^composite changes the target$"):
        GroupoidData(g.g0, g.g1, g.src, g.tgt, wrong_comp, g.e, g.inv)
    wrong_comp = g.comp.table.copy()
    wrong_comp[0] = 2  # (0,0)(0,0) must stay at object 0
    with pytest.raises(NotAGroupoid, match="^composite changes the source$"):
        GroupoidData(g.g0, g.g1, g.src, g.tgt, wrong_comp, g.e, g.inv)
    # the laws: their check_hopf_vcat row, its at and its diff
    c = cyclic_group_groupoid(4)
    laws = [(FinFn(c.g0, c.g1, [2]), c.inv, c.comp.table,
             "cat-unit-left fails at [0, 0]: {'entry': [0], 'this': 2, 'other': 0}"),
            (c.e, FinFn(c.g1, c.g1, [0, 3, 1, 2]), c.comp.table,
             "antipode-left fails at [0, 0]: {'entry': [2], 'this': 3, 'other': 0}"),
            (c.e, c.inv, np.where(np.arange(16) == 5, 3, c.comp.table),
             "cat-assoc fails at [0, 0, 0, 0]: {'entry': [22], 'this': 1, 'other': 0}")]
    for e, inv, comp, message in laws:
        with pytest.raises(NotAGroupoid) as err:
            GroupoidData(c.g0, c.g1, c.src, c.tgt, comp, e, inv)
        assert str(err.value) == message


def test_group_algebra_tables_frozen():
    h = group_algebra_hopf(2, 2)
    assert np.array_equal(h.m[0][0][0], [[1, 0], [0, 1], [0, 1], [1, 0]])
    assert np.array_equal(h.u[0], [[1, 0]])
    assert np.array_equal(h.delta[0][0], [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert np.array_equal(h.eps[0][0], [[1], [1]])
    assert np.array_equal(h.s[0][0], np.eye(2))


def test_group_algebras_are_hopf():
    for p in (2, 3):
        for k in (2, 3):
            report = check_hopf_vcat(group_algebra_hopf(p, k))
            assert report.ok
            names = [r.name for r in report.results]
            assert names == HOPF_AXIOMS + ["antipode-left", "antipode-right"]


def test_identity_antipode_fails_on_z3():
    h = group_algebra_hopf(2, 3)
    bad = HopfVCat(h.backend, h.objects, h.homs, h.m, h.u, h.delta, h.eps,
                   [[np.eye(3, dtype=np.int64)]])
    assert check_semi_hopf_vcat(bad).ok  # still a bimonoid-like category
    report = check_hopf_vcat(bad)
    assert not report.ok
    failing = report["antipode-left"]
    assert failing.counterexample == {
        "at": [0, 0], "diff": {"entry": [1, 0], "this": 0, "other": 1}}


def test_mat_frobenius_oracle():
    fc = mat_frobenius_example(2, 2)
    assert [fc.homs[x][y] for x in range(2) for y in range(2)] == [1, 2, 2, 4]
    # comultiplying the single basis cell of hom(0,0) through object 1
    # inserts both middle indices: kron positions 0 and 3
    assert np.array_equal(fc.comlt[0][1][0], [[1, 0, 0, 1]])
    assert np.array_equal(fc.couni[1], [[1], [0], [0], [1]])
    for p in (2, 3):
        report = check_frobenius_vcat(mat_frobenius_example(p, 3))
        assert report.ok
        assert [r.name for r in report.results] == FROB_AXIOMS


def test_groupoid_to_hopfcat_checks():
    for make in (codiscrete_groupoid, cyclic_group_groupoid, discrete_groupoid):
        h = groupoid_to_hopfcat(make(2))
        assert isinstance(h.backend, FinSetBackend)
        assert check_hopf_vcat(h).ok


def test_bridge_roundtrip_identity():
    for n in (1, 2, 3):
        h = groupoid_to_hopfcat(codiscrete_groupoid(n))
        bim, anti = hopfcat_to_spanv(h)
        assert check_oplax_bimonoid(bim).ok
        assert check_oplax_hopf(bim, anti).ok
        back = spanv_to_hopfcat(bim, anti)
        assert hopfcat_data_equal(back, h)


def test_mat_bridge_roundtrip():
    for p in (2, 3):
        h = group_algebra_hopf(p, 2)
        bim, anti = hopfcat_to_spanv(h)
        assert check_oplax_bimonoid(bim).ok
        assert check_oplax_hopf(bim, anti).ok
        assert hopfcat_data_equal(spanv_to_hopfcat(bim, anti), h)


def test_frobcat_bridge():
    fr = frobcat_to_spanv(mat_frobenius_example(3, 2))
    assert check_frobenius(fr).ok


def test_bridge_rejects_non_square_carrier():
    mon, com, _, bim, anti, _ = groupoid_structures(cyclic_group_groupoid(2))
    with pytest.raises(NotOverX2):
        spanv_to_hopfcat(bim, anti)


def test_identity_functor_bridges():
    fc = mat_frobenius_example(2, 2)
    n = fc.objects.size
    fun = VFunctorData(identity_fn(fc.objects),
                       [[fc.backend.id(fc.homs[x][y]) for y in range(n)]
                        for x in range(n)])
    assert check_frobenius_vfunctor(fc, fc, fun).ok
    h = group_algebra_hopf(3, 2)
    hfun = VFunctorData(identity_fn(h.objects), [[h.backend.id(h.homs[0][0])]])
    morph = vfunctor_to_spanv(h, h, hfun)
    bim, _ = hopfcat_to_spanv(h)
    assert check_oplax_bimonoid_morphism(bim, bim, morph).ok


def test_broken_functor_detected():
    fc = mat_frobenius_example(2, 2)
    n = fc.objects.size
    comps = [[fc.backend.id(fc.homs[x][y]) for y in range(n)] for x in range(n)]
    comps[1][1] = fc.backend.mor(np.zeros((4, 4)))  # kills hom(1,1)
    fun = VFunctorData(identity_fn(fc.objects), comps)
    report = check_frobenius_vfunctor(fc, fc, fun)
    assert not report.ok


def test_opposite_is_involutive():
    h = groupoid_to_hopfcat(codiscrete_groupoid(2))
    op = opposite_vcat(h)
    assert check_hopf_vcat(op).ok
    assert hopfcat_data_equal(opposite_vcat(op), h)
    assert not hopfcat_data_equal(op, groupoid_to_hopfcat(discrete_groupoid(2)))


def _sweedler(p):
    """Sweedler's 4-dimensional Hopf algebra over Z/p, basis 1, g, x, gx:
    g^2 = 1, x^2 = 0, xg = -gx, g grouplike, Delta x = x(x)1 + g(x)x,
    S(x) = -gx.  Neither commutative nor cocommutative; S has order 4."""
    one, g, x, gx = range(4)
    products = {(g, g): [(1, one)], (g, x): [(1, gx)], (g, gx): [(1, x)],
                (x, g): [(-1, gx)], (gx, g): [(-1, x)]}
    for b in range(4):
        products[(one, b)] = products[(b, one)] = [(1, b)]
    mm = np.zeros((16, 4), dtype=np.int64)
    for (a, b), terms in products.items():
        for coeff, c in terms:
            mm[a * 4 + b, c] += coeff
    coproducts = {one: [(one, one)], g: [(g, g)], x: [(x, one), (g, x)],
                  gx: [(gx, g), (one, gx)]}
    dd = np.zeros((4, 16), dtype=np.int64)
    for a, terms in coproducts.items():
        for b, c in terms:
            dd[a, b * 4 + c] = 1
    uu = np.zeros((1, 4), dtype=np.int64)
    uu[0, one] = 1
    ee = np.zeros((4, 1), dtype=np.int64)
    ee[[one, g], 0] = 1
    ss = np.zeros((4, 4), dtype=np.int64)
    ss[one, one] = ss[g, g] = ss[gx, x] = 1
    ss[x, gx] = -1
    backend = MatBackend(prime=p)
    return HopfVCat(backend, FinSet((1,)), [[4]], [[[backend.mor(mm)]]], [uu],
                    [[dd]], [[ee]], [[backend.mor(ss)]])


def _bridged_ok(h):
    bim, anti = hopfcat_to_spanv(h)
    return check_oplax_bimonoid(bim).ok and check_oplax_hopf(bim, anti).ok


def test_no_dense_tensor_power_is_stored(monkeypatch):
    # k[Z/8]: the interchange matrices on H (x) H (x) H (x) H are n^4 x n^4,
    # but every structure map has one nonzero per row, so on both routes
    # no stored matrix keeps more than n^4 entries and no dense table is built
    n = 8
    made, dense = [], []

    def recording(method):
        def record(*args, **kwargs):
            made.append(method(*args, **kwargs))
            return made[-1]
        return record

    for name in ("mor", "id", "compose", "tensor_mor", "braiding"):
        monkeypatch.setattr(MatBackend, name, recording(getattr(MatBackend, name)))
    to_array = NonzeroMatrix.__array__
    monkeypatch.setattr(NonzeroMatrix, "__array__",
                        lambda f, *args, **kwargs: dense.append(f) or to_array(f, *args, **kwargs))
    h = group_algebra_hopf(3, n)
    assert check_hopf_vcat(h).ok and _bridged_ok(h)
    assert any(f.shape == (n**4, n**4) for f in made)
    assert max(f.pos.size if isinstance(f, NonzeroMatrix) else np.size(f) for f in made) <= n**4
    assert not dense


def test_opposite_takes_the_inverse_antipode():
    # S has order 4 here, so S^-1 = S^3 differs from S: an opposite that
    # keeps S fails both antipode laws directly and the antipode cells
    # through the bridge
    h = _sweedler(3)
    assert check_hopf_vcat(h).ok and _bridged_ok(h)
    op = opposite_vcat(h)
    assert check_hopf_vcat(op).ok
    assert _bridged_ok(op)
    s, backend = h.s[0][0], h.backend
    assert backend.eq_mor(op.s[0][0], backend.compose(backend.compose(s, s), s))
    assert hopfcat_data_equal(opposite_vcat(op), h)


def test_opposite_refuses_a_non_invertible_antipode():
    h = _sweedler(3)
    singular = np.array(h.s[0][0])
    singular[:, 2] = 0
    broken = HopfVCat(h.backend, h.objects, h.homs, h.m, h.u, h.delta, h.eps, [[singular]])
    with pytest.raises(NotInvertible):
        opposite_vcat(broken)


def _failures(report):
    return {r.name: r.counterexample for r in report.results if not r.ok}


def _bump(table, index, entry, p):
    """A deep copy of a nested field table with one matrix entry moved by 1 mod p."""
    if not index:
        out = np.array(table)
        out[entry] = (out[entry] + 1) % p
        return out
    return [_bump(t, index[1:], entry, p) if i == index[0] else t
            for i, t in enumerate(table)]


def test_frobenius_mutants_name_the_same_laws_and_entries():
    fc = mat_frobenius_example(3, 2)
    cases = (
        ("m", (0, 1, 1), (1, 0), {
            "cat-assoc": {"at": [0, 1, 0, 1], "diff": {"entry": [1, 0], "this": 0, "other": 1}},
            "frobenius-left": {"at": [0, 1, 1, 1],
                               "diff": {"entry": [1, 0], "this": 1, "other": 0}},
            "frobenius-right": {"at": [0, 1, 0, 1],
                                "diff": {"entry": [0, 1], "this": 0, "other": 1}}}),
        ("m", (1, 1, 0), (3, 1), {
            "cat-assoc": {"at": [0, 1, 1, 0], "diff": {"entry": [11, 0], "this": 0, "other": 1}},
            "frobenius-left": {"at": [0, 1, 0, 1],
                               "diff": {"entry": [3, 1], "this": 0, "other": 1}},
            "frobenius-right": {"at": [1, 1, 0, 1],
                                "diff": {"entry": [3, 4], "this": 1, "other": 0}}}),
        ("comlt", (1, 0, 1), (0, 2), {
            "cocat-coassoc": {"at": [0, 1, 0, 1],
                              "diff": {"entry": [0, 2], "this": 0, "other": 1}},
            "frobenius-left": {"at": [1, 0, 1, 0],
                               "diff": {"entry": [0, 2], "this": 1, "other": 0}},
            "frobenius-right": {"at": [0, 1, 1, 0],
                                "diff": {"entry": [4, 0], "this": 0, "other": 1}}}),
        ("u", (1,), (0, 1), {
            "cat-unit-left": {"at": [1, 0], "diff": {"entry": [1, 0], "this": 1, "other": 0}},
            "cat-unit-right": {"at": [0, 1], "diff": {"entry": [0, 1], "this": 1, "other": 0}}}),
        ("couni", (1,), (2, 0), {
            "cocat-counit-left": {"at": [1, 0],
                                  "diff": {"entry": [1, 0], "this": 1, "other": 0}},
            "cocat-counit-right": {"at": [0, 1],
                                   "diff": {"entry": [0, 1], "this": 1, "other": 0}}}),
    )
    for field, index, entry, want in cases:
        tables = dict(m=fc.m, u=fc.u, comlt=fc.comlt, couni=fc.couni)
        tables[field] = _bump(tables[field], index, entry, 3)
        bad = FrobVCat(fc.backend, fc.objects, fc.homs, **tables)
        assert _failures(check_frobenius_vcat(bad)) == want, (field, index)


def test_broken_functor_component_names_the_entry():
    fc = mat_frobenius_example(3, 2)
    comps = [[fc.backend.id(fc.homs[x][y]) for y in range(2)] for x in range(2)]
    comps[0][1] = np.array(comps[0][1])
    comps[0][1][1, 0] = 2
    fun = VFunctorData(identity_fn(fc.objects), comps)
    assert _failures(check_frobenius_vfunctor(fc, fc, fun)) == {
        "functor-mult": {"at": [0, 1, 0], "diff": {"entry": [2, 0], "this": 0, "other": 2}},
        "opfunctor-comult": {"at": [0, 1, 0], "diff": {"entry": [0, 1], "this": 2, "other": 0}}}


def test_mutated_comultiplication_names_the_entry():
    h = group_algebra_hopf(3, 2)
    bad = HopfVCat(h.backend, h.objects, h.homs, h.m, h.u,
                   _bump(h.delta, (0, 0), (1, 3), 3), h.eps, h.s)
    assert _failures(check_semi_hopf_vcat(bad)) == {
        "local-counit-left": {"at": [0, 0], "diff": {"entry": [1, 1], "this": 2, "other": 1}},
        "local-counit-right": {"at": [0, 0], "diff": {"entry": [1, 1], "this": 2, "other": 1}}}
    z = groupoid_to_hopfcat(cyclic_group_groupoid(3))
    d = z.delta[0][0]
    table = d.table.copy()
    table[1] = 5
    bad = HopfVCat(z.backend, z.objects, z.homs, z.m, z.u, [[FinFn(d.dom, d.cod, table)]],
                   z.eps, z.s)
    assert _failures(check_semi_hopf_vcat(bad)) == {
        "local-counit-left": {"at": [0, 0], "diff": {"entry": [1], "this": 2, "other": 1}},
        "mult-comult": {"at": [0, 0, 0], "diff": {"entry": [4], "this": 8, "other": 7}}}


def _counting(counts, name):
    """MatBackend's batched method name, adding the pairs of each batch to counts[name]."""
    method = getattr(MatBackend, name)

    def count(self, fs, gs):
        counts[name] += len(fs)
        return method(self, fs, gs)
    return count


def test_each_check_computes_each_product_once(monkeypatch):
    # fields are stored in the backend's form, so no call converts them
    # again; a check computes each distinct product once, and the next
    # check on the same instance computes them all again
    h = group_algebra_hopf(3, 4)
    fields = (h.m[0][0][0], h.u[0], h.delta[0][0], h.eps[0][0], h.s[0][0])
    assert all(isinstance(f, NonzeroMatrix) for f in fields)
    counts = {"compose_many": 0, "_products": 0}
    for name in counts:
        monkeypatch.setattr(MatBackend, name, _counting(counts, name))
    first = check_hopf_vcat(h)
    once = dict(counts)
    second = check_hopf_vcat(h)
    assert 0 < once["_products"] < once["compose_many"]
    assert counts == {name: 2 * count for name, count in once.items()}
    assert [r.as_dict() for r in second.results] == [r.as_dict() for r in first.results]
    assert vbackend._MEMO.get() is None


def test_the_product_kernel_runs_once_per_written_compose(monkeypatch):
    # each law runs once, on columns over its distinct tuples, so each
    # c(...) written in a row is one batch: the kernel runs at most that
    # often however many tuples the row has (every tuple of the matrix
    # category's entries is distinct)
    written = {"cat-assoc": 2, "cat-unit-left": 1, "cat-unit-right": 1, "cocat-coassoc": 2,
               "cocat-counit-left": 1, "cocat-counit-right": 1, "frobenius-left": 2,
               "frobenius-right": 2}
    batches, ran = [], {}
    products, run_laws = MatBackend._products, hopfcat._run_laws
    monkeypatch.setattr(MatBackend, "_products", lambda self, fs, gs: batches.append(
        len(fs)) or products(self, fs, gs))

    def counted(name, law):
        def run(*columns):
            before = len(batches)
            sides = law(*columns)
            ran[name] = ran.get(name, 0) + len(batches) - before
            return sides
        return run

    monkeypatch.setattr(hopfcat, "_run_laws", lambda backend, n, grids, rows: run_laws(
        backend, n, grids, [(name, arity, reads, counted(name, law))
                            for name, arity, reads, law in rows]))
    assert check_frobenius_vcat(mat_frobenius_example(3, 3)).ok
    assert ran.keys() == written.keys()
    assert [name for name in written if ran[name] > written[name]] == []
    assert sum(batches) > 10 * len(batches)


def test_a_bridge_inside_a_check_shares_its_memo(monkeypatch):
    memos = []
    product = MatBackend._products
    monkeypatch.setattr(MatBackend, "_products", lambda self, fs, gs: memos.append(
        vbackend._MEMO.get()) or product(self, fs, gs))
    h = group_algebra_hopf(3, 3)
    for _ in range(2):
        hopfcat_to_spanv(h)
    assert memos and len({id(m) for m in memos}) == 2 and None not in memos
    memos.clear()

    @per_check
    def bridged_check():
        bim, anti = hopfcat_to_spanv(h)
        bridged = len(memos)
        hopfcat_to_spanv(h)
        assert len(memos) == bridged  # every product of the second run is shared
        return check_oplax_bimonoid(bim).ok and check_oplax_hopf(bim, anti).ok

    assert bridged_check()
    assert len({id(m) for m in memos}) == 1 and None not in memos


_BAD_ARGUMENTS = """
import numpy as np
from spanv.cells import VFam
from spanv.finset import FinSet, identity_fn
from spanv.hopfcat import (FrobVCat, HopfVCat, VFunctorData, codiscrete_groupoid,
                           cyclic_group_groupoid, group_algebra_hopf, mat_frobenius_example)
from spanv.vbackend import FinSetBackend
from spanv.finset import FinFn
from spanv.hopfcat import GroupoidData
h = group_algebra_hopf(3, 2)
fc = mat_frobenius_example(2, 2)
c = cyclic_group_groupoid(3)
for make in (lambda: group_algebra_hopf(3, 0), lambda: group_algebra_hopf(3, -2),
             lambda: mat_frobenius_example(3, 0),
             # sizes that are not whole numbers
             lambda: group_algebra_hopf(3, 2.5), lambda: mat_frobenius_example(3, 2.5),
             lambda: codiscrete_groupoid(2.5), lambda: cyclic_group_groupoid(2.5),
             lambda: FinSet((2, "3")),
             # sizes that are not numbers, and shapes that are not sequences
             lambda: group_algebra_hopf(3, "3"), lambda: mat_frobenius_example(3, "3"),
             lambda: FinSet(3), lambda: FinSet(None),
             # Z/3 with a wrong identity, inverse or composite: one law each
             lambda: GroupoidData(c.g0, c.g1, c.src, c.tgt, c.comp.table,
                                  FinFn(c.g0, c.g1, [1]), c.inv),
             lambda: GroupoidData(c.g0, c.g1, c.src, c.tgt, c.comp.table, c.e,
                                  FinFn(c.g1, c.g1, [0, 1, 2])),
             lambda: GroupoidData(c.g0, c.g1, c.src, c.tgt, [0, 1, 2, 1, 2, 0, 2, 0, 0], c.e,
                                  c.inv),
             lambda: HopfVCat(FinSetBackend(), FinSet((2, 2)), [], [], [], [], []),
             lambda: VFunctorData(np.arange(2), []),
             lambda: VFam(FinSetBackend(), 3),
             # grids one level too short or not lists at all
             lambda: HopfVCat(h.backend, h.objects, [], h.m, h.u, h.delta, h.eps),
             lambda: HopfVCat(h.backend, h.objects, h.homs, [], h.u, h.delta, h.eps),
             lambda: HopfVCat(h.backend, h.objects, h.homs, [h.m[0][0][0]], h.u, h.delta,
                              h.eps),
             lambda: HopfVCat(h.backend, h.objects, h.homs, h.m, 5, h.delta, h.eps),
             lambda: FrobVCat(fc.backend, fc.objects, [fc.homs[0], 7], fc.m, fc.u, fc.comlt,
                              fc.couni),
             lambda: FrobVCat(fc.backend, fc.objects, fc.homs, fc.m, fc.u,
                              [fc.comlt[0], fc.comlt[1][:1]], fc.couni),
             lambda: VFunctorData(identity_fn(fc.objects), [fc.homs[0]])):
    try:
        make()
    except Exception as err:
        print(type(err).__name__, err)
"""


def test_bad_constructor_arguments_raise_typed_errors_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, *flags, "-c", _BAD_ARGUMENTS], capture_output=True,
                           text=True, env=env, timeout=60) for flags in ([], ["-O"])]
    assert runs[0].stdout.splitlines() == [
        "OutOfBounds group order must be at least 1, got 0",
        "OutOfBounds group order must be at least 1, got -2",
        "OutOfBounds max_n must be at least 1, got 0",
        *["ShapeMismatch shape (2.5,) has a factor that is not a whole number"] * 4,
        "ShapeMismatch shape (2, '3') has a factor that is not a whole number",
        *["ShapeMismatch shape ('3',) has a factor that is not a whole number"] * 2,
        "ShapeMismatch shape 3 is not a sequence of sizes",
        "ShapeMismatch shape None is not a sequence of sizes",
        "NotAGroupoid cat-unit-left fails at [0, 0]: {'entry': [0], 'this': 1, 'other': 0}",
        "NotAGroupoid antipode-left fails at [0, 0]: {'entry': [1], 'this': 2, 'other': 0}",
        "NotAGroupoid cat-assoc fails at [0, 0, 0, 0]: {'entry': [14], 'this': 0, 'other': 1}",
        "ShapeMismatch the objects must be a one-axis FinSet, got FinSet(2, 2)",
        "ShapeMismatch the object map must be a FinFn, got ndarray",
        "ShapeMismatch a family's base must be a FinSet, got int",
        "ShapeMismatch homs must list 1 entries",
        "ShapeMismatch m must list 1 entries",
        "ShapeMismatch m[0] must list 1 entries",
        "ShapeMismatch u must list 1 entries",
        "ShapeMismatch homs[1] must list 2 entries",
        "ShapeMismatch comlt[1] must list 2 entries",
        "ShapeMismatch components must list 2 entries",
    ], runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""


_HOPF_WITHOUT_ANTIPODE = """
from spanv.cli import run_checks
from spanv.hopfcat import HopfVCat, check_hopf_vcat, group_algebra_hopf
h = group_algebra_hopf(3, 2)
semi = HopfVCat(h.backend, h.objects, h.homs, h.m, h.u, h.delta, h.eps)
try:
    check_hopf_vcat(semi)
except Exception as err:
    print(type(err).__name__, err)
print(run_checks("hopfcat", semi).ok, len(run_checks("hopfcat", semi).results))
"""


def test_hopf_check_without_antipode_names_the_field_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, *flags, "-c", _HOPF_WITHOUT_ANTIPODE],
                           capture_output=True, text=True, env=env, timeout=60)
            for flags in ([], ["-O"])]
    # the CLI still routes such a structure to the semi-Hopf laws
    assert runs[0].stdout.splitlines() == [
        "SchemaError missing field 's': check_hopf_vcat needs an antipode; "
        "check_semi_hopf_vcat checks the rest",
        "True %d" % len(check_semi_hopf_vcat(group_algebra_hopf(3, 2)).results),
    ], runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""


def test_inference_returns_none_when_a_cell_is_not_forced():
    # one extra nonzero in delta breaks the grouplike comultiplication, so
    # the bridged theta fails validation and no theta cell is forced
    h = group_algebra_hopf(3, 3)
    delta = np.asarray(h.backend.mor(h.delta[0][0])).copy()
    delta[2, 0] = (delta[2, 0] + 1) % 3
    bad = HopfVCat(h.backend, h.objects, h.homs, h.m, h.u, [[delta]], h.eps, h.s)
    bim, _ = hopfcat_to_spanv(bad)
    assert isinstance(bim.theta, InvalidCell)
    assert infer_unique_structure_cells(bim.monoid, bim.comonoid) is None


def _per_tuple_laws(backend, n, grids, rows):
    """The reference runner: every law at every index tuple, row-major,
    reading each entry through Column indexing.  The law ops act on
    Columns, so each tuple's entries go in as one-entry Columns."""
    grids = dict(grids, I=Column([backend.unit], 1))
    results = []
    for name, arity, reads, law in rows:
        result = AxiomResult(name, True)
        for idx in itertools.product(range(n), repeat=arity):
            entries = []
            for read in reads.split():
                grid = read.rstrip("0123456789")
                assert grids[grid].size == n ** len(read[len(grid):]), read
                flat = 0
                for digit in read[len(grid):]:
                    flat = flat * n + idx[int(digit)]
                entries.append(Column([grids[grid][flat]], 1))
            lhs, rhs = (side[0] for side in law(*entries))
            if not backend.eq_mor(lhs, rhs):
                result = AxiomResult(name, False, {
                    "at": list(idx), "diff": backend.first_difference(lhs, rhs)})
                break
        results.append(result)
    return results


def _on_every_hom(h, n):
    """The category on n objects whose every hom, composition and
    comonoid is that of the one-object category h: all of its entries
    are equal, so each law has one distinct tuple of entries."""
    return HopfVCat(h.backend, FinSet((n,)), [[h.homs[0][0]] * n] * n,
                    [[[h.m[0][0][0]] * n] * n] * n, [h.u[0]] * n, [[h.delta[0][0]] * n] * n,
                    [[h.eps[0][0]] * n] * n, [[h.s[0][0]] * n] * n)


def _moved(backend, mor, rng):
    """mor with one entry moved, or None if no entry can move."""
    if isinstance(mor, FinFn):
        if mor.cod.size < 2 or mor.dom.size == 0:
            return None
        table = mor.table.copy()
        i = rng.randrange(table.size)
        table[i] = (table[i] + 1 + rng.randrange(mor.cod.size - 1)) % mor.cod.size
        return FinFn(mor.dom, mor.cod, table)
    a = np.array(backend.mor(mor))
    a[rng.randrange(a.shape[0]), rng.randrange(a.shape[1])] += 1
    return a


def _mutants(v, rng):
    """v with one entry of one field moved: the first, the last and a
    seeded entry of every field."""
    n = v.n
    for name in (f for f in v.fields if f in v.columns):
        arity = FIELDS[name][0]
        seeded = tuple(rng.randrange(n) for _ in range(arity))
        for idx in sorted({(0,) * arity, (n - 1,) * arity, seeded}):
            table = getattr(v, name)
            entry = table
            for i in idx:
                entry = entry[i]
            mor = _moved(v.backend, entry, rng)
            if mor is None:
                continue
            tables = {f: getattr(v, f) for f in v.fields}
            tables[name] = _replaced(table, idx, mor)
            yield type(v)(v.backend, v.objects, v.homs, **tables)


def _replaced(table, idx, entry):
    if not idx:
        return entry
    return [_replaced(t, idx[1:], entry) if i == idx[0] else t for i, t in enumerate(table)]


def test_distinct_tuple_runner_matches_a_per_tuple_loop(monkeypatch):
    rng = random.Random(15)
    hopf = [groupoid_to_hopfcat(make(n)) for make in
            (codiscrete_groupoid, discrete_groupoid, cyclic_group_groupoid) for n in (1, 2, 3, 4)]
    hopf += [group_algebra_hopf(p, k) for p in (2, 3, 5) for k in range(1, 7)]
    # many objects with equal entries: a moved entry fails at several tuples
    hopf += [_on_every_hom(groupoid_to_hopfcat(cyclic_group_groupoid(3)), 3),
             _on_every_hom(group_algebra_hopf(3, 2), 3)]
    frob = [mat_frobenius_example(p, n) for p in (2, 3) for n in (1, 2, 3)]
    fc, small = mat_frobenius_example(3, 3), mat_frobenius_example(3, 2)
    comps = [[fc.backend.id(fc.homs[x][y]) for y in range(3)] for x in range(3)]
    comps[2][1] = _moved(fc.backend, comps[2][1], rng)
    checks = [(check_hopf_vcat, v) for h in hopf for v in [h, *_mutants(h, rng)]]
    checks += [(check_frobenius_vcat, v) for f in frob for v in [f, *_mutants(f, rng)]]
    checks += [(lambda fun: check_frobenius_vfunctor(fc, fc, fun),
                VFunctorData(identity_fn(fc.objects), comps)),
               (lambda fun: check_frobenius_vfunctor(small, fc, fun),
                VFunctorData(FinFn(small.objects, fc.objects, [0, 1]),
                             [row[:2] for row in comps[:2]]))]
    failed, later = 0, 0
    for check, v in checks:
        got = [r.as_dict() for r in check(v).results]
        with monkeypatch.context() as patch:
            patch.setattr(hopfcat, "_run_laws", _per_tuple_laws)
            want = [r.as_dict() for r in check(v).results]
        assert got == want
        failed += any(r["status"] == "fail" for r in got)
        # a first failure past the first tuple tests the row-major order
        later += any(r["status"] == "fail" and any(r["counterexample"]["at"]) for r in got)
    assert (len(checks), failed, later) == (211, 172, 45)


def test_direct_check_cost_does_not_grow_with_the_objects(monkeypatch):
    # every entry of the codiscrete FinSet category is equal, so each law
    # is decided once however many objects there are
    calls = []
    compose = FinSetBackend.compose
    monkeypatch.setattr(FinSetBackend, "compose",
                        lambda self, f, g: calls.append(1) or compose(self, f, g))
    counts = []
    for n in (2, 6):
        calls.clear()
        assert check_hopf_vcat(groupoid_to_hopfcat(codiscrete_groupoid(n))).ok
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_a_direct_check_of_constant_grids_stores_no_index_tuples():
    # every grid of a codiscrete category holds one value, and a constant
    # Column never reads the word it is read along, so the laws store no
    # index tuple and no code per tuple however many objects there are
    h = groupoid_to_hopfcat(codiscrete_groupoid(16))
    assert check_hopf_vcat(h).ok
    tracemalloc.start()
    try:
        check_hopf_vcat(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _tabulated_power(fn, k):
    """The k-th tensor power of an object map as a table, by the index
    formulas the functor checks once wrote out."""
    f0, na, nb = fn.table, fn.dom.size, fn.cod.size
    if k == 2:
        codes = np.arange(na * na, dtype=np.int64)
        table = f0[codes // na] * nb + f0[codes % na]
        assert np.array_equal(table, (f0[:, None] * nb + f0).ravel())
    else:
        at = f0[np.indices((na,) * k).reshape(k, -1)]
        table = np.ravel_multi_index(tuple(at), (nb,) * k)
    return FinFn(FinSet((na,) * k), FinSet((nb,) * k), table)


def _functor_report(check):
    try:
        return [r.as_dict() for r in check().results]
    except ShapeMismatch as err:
        return str(err)


def test_object_map_powers_match_the_index_formulas(monkeypatch):
    # object maps that are neither injective nor onto, between object
    # sets of different sizes, give the same tables, verdicts and
    # counterexamples as the tabulated formulas
    maps = [(3, 2, [0, 1, 1]), (3, 2, [1, 1, 0]), (2, 3, [2, 2]), (2, 3, [1, 0]),
            (3, 3, [2, 2, 0]), (3, 3, [0, 1, 2]), (1, 3, [2])]
    for na, nb, f0 in maps:
        fn = FinFn(FinSet((na,)), FinSet((nb,)), f0)
        for k in (1, 2, 3):
            assert np.array_equal(hopfcat._power(fn, k).table, _tabulated_power(fn, k).table)
    rng = random.Random(23)
    checks = []
    for p in (2, 3):
        cats = {3: mat_frobenius_example(p, 3), 2: mat_frobenius_example(p, 2)}
        for na, nb, f0 in maps[:-1]:
            ca, cb = cats[na], cats[nb]
            for noise in (0.0, 0.2, 0.5):
                comps = [[np.array([[rng.randrange(p) if rng.random() < noise else int(i == j)
                                     for j in range(cb.homs[f0[x]][f0[y]])]
                                    for i in range(ca.homs[x][y])], dtype=np.int64)
                          for y in range(na)] for x in range(na)]
                fun = VFunctorData(FinFn(ca.objects, cb.objects, f0), comps)
                checks.append(lambda ca=ca, cb=cb, fun=fun: check_frobenius_vfunctor(ca, cb, fun))
            fun = VFunctorData(FinFn(ca.objects, cb.objects, f0),
                               [[ca.backend.id(ca.homs[x][y]) for y in range(na)]
                                for x in range(na)])
            checks.append(lambda ca=ca, cb=cb, fun=fun: check_frobenius_vfunctor(ca, cb, fun))
    groupoids = [(codiscrete_groupoid(3), codiscrete_groupoid(2), [0, 1, 1]),
                 (discrete_groupoid(3), codiscrete_groupoid(2), [1, 1, 0]),
                 (codiscrete_groupoid(2), codiscrete_groupoid(3), [2, 2]),
                 (codiscrete_groupoid(3), discrete_groupoid(3), [2, 2, 2]),
                 (_union_groupoid(), _union_groupoid(), [2, 2, 2])]
    for ga, gb, f0 in groupoids:
        ha, hb = groupoid_to_hopfcat(ga), groupoid_to_hopfcat(gb)
        fun = VFunctorData(FinFn(ha.objects, hb.objects, f0), [
            [FinFn(ha.homs[x][y], hb.homs[f0[x]][f0[y]], np.zeros(ha.homs[x][y].size, int))
             for y in range(ha.n)] for x in range(ha.n)])
        bims = [hopfcat_to_spanv(h)[0] for h in (ha, hb)]
        checks.append(lambda ha=ha, hb=hb, fun=fun, bims=bims: check_oplax_bimonoid_morphism(
            *bims, vfunctor_to_spanv(ha, hb, fun)))
    reports = []
    for check in checks:
        got = _functor_report(check)
        with monkeypatch.context() as patch:
            patch.setattr(hopfcat, "_power", _tabulated_power)
            assert _functor_report(check) == got
        reports.append(got)
    refused = sum(isinstance(r, str) for r in reports)
    failed = sum(not isinstance(r, str) and any(x["status"] == "fail" for x in r)
                 for r in reports)
    assert (len(checks), refused, failed) == (53, 10, 34)


def _z3_antipode_mutant():
    z = groupoid_to_hopfcat(cyclic_group_groupoid(3))
    s = z.s[0][0]
    table = s.table.copy()
    table[1] = 1
    return HopfVCat(z.backend, z.objects, z.homs, z.m, z.u, z.delta, z.eps,
                    [[FinFn(s.dom, s.cod, table)]])


def test_an_invalid_context_cell_fails_firmness_by_name():
    bim, anti = hopfcat_to_spanv(_z3_antipode_mutant())
    assert isinstance(anti.tau1, InvalidCell)
    ctx = antipode_context(bim, anti)
    [hopf] = check_oplax_hopf(bim, anti).results
    [inverse] = check_oplax_inverse(bim, ctx).results
    assert (hopf.name, hopf.counterexample["invalid"]) == ("antipode-cells", "tau1")
    assert (inverse.name, inverse.counterexample["invalid"]) == ("antipode-cells", "tau")
    assert inverse.counterexample["element"] == hopf.counterexample["element"]
    assert inverse.note == hopf.note == anti.tau1.error
    good_bim, good = hopfcat_to_spanv(groupoid_to_hopfcat(cyclic_group_groupoid(3)))
    with pytest.raises(NotFirm, match="^tau is not a 2-cell: " + anti.tau1.error):
        morita_uniqueness_iso(bim, ctx, ctx)
    assert morita_uniqueness_iso(good_bim, *[antipode_context(good_bim, good)] * 2)


_FUNCTOR_OBJECT_MAPS = """
from spanv.finset import FinFn, FinSet
from spanv.hopfcat import (VFunctorData, check_frobenius_vfunctor, group_algebra_hopf,
                           mat_frobenius_example, vfunctor_to_spanv)
fc = mat_frobenius_example(2, 2)
h = group_algebra_hopf(3, 2)
ident = [[fc.backend.id(fc.homs[x][y]) for y in range(2)] for x in range(2)]
for run in (lambda: check_frobenius_vfunctor(
                fc, fc, VFunctorData(FinFn(FinSet((1,)), FinSet((2,)), [0]), [[ident[0][0]]])),
            lambda: check_frobenius_vfunctor(
                fc, fc, VFunctorData(FinFn(FinSet((2,)), FinSet((3,)), [0, 1]), ident)),
            lambda: vfunctor_to_spanv(
                h, h, VFunctorData(FinFn(FinSet((2,)), FinSet((1,)), [0, 0]), ident))):
    try:
        run()
    except Exception as err:
        print(type(err).__name__, err)
"""


def test_functor_object_map_must_join_the_two_object_sets_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, *flags, "-c", _FUNCTOR_OBJECT_MAPS],
                           capture_output=True, text=True, env=env, timeout=60)
            for flags in ([], ["-O"])]
    assert runs[0].stdout.splitlines() == [
        "ShapeMismatch the object map's domain FinSet(1,) is not FinSet(2,)",
        "ShapeMismatch the object map's codomain FinSet(3,) is not FinSet(2,)",
        "ShapeMismatch the object map's domain FinSet(2,) is not FinSet(1,)",
    ], runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""


def test_a_functor_component_with_wrong_ends_is_named():
    # the direct laws run column-wise over every tuple at once, so a
    # component that cannot compose is refused by name before any law
    # runs, whether or not an earlier component fails a law
    fc, h = mat_frobenius_example(3, 3), group_algebra_hopf(3, 2)
    comps = [[fc.backend.id(fc.homs[x][y]) for y in range(3)] for x in range(3)]
    comps[2][1] = np.ones((6, 1), dtype=np.int64)
    early = [row[:] for row in comps]
    early[0][0] = np.array([[2]])
    for bad in (comps, early):
        with pytest.raises(ShapeMismatch, match=r"^components\[2\]\[1\] has wrong ends$"):
            check_frobenius_vfunctor(fc, fc, VFunctorData(identity_fn(fc.objects), bad))
    with pytest.raises(ShapeMismatch, match=r"^components\[0\]\[0\] has wrong ends$"):
        vfunctor_to_spanv(h, h, VFunctorData(identity_fn(h.objects), [[np.eye(3, dtype=int)]]))


_WRONG_ENDS = """
import numpy as np
from spanv.finset import FinFn, FinSet
from spanv.hopfcat import (FIELDS, codiscrete_groupoid, group_algebra_hopf, groupoid_to_hopfcat,
                           mat_frobenius_example)


def bent(mor, grow):
    # mor with one more domain element or row (grow[0]) and codomain
    # element or column (grow[1])
    if isinstance(mor, FinFn):
        dom, cod = (FinSet((end.size + 1,)) if g else end
                    for end, g in zip((mor.dom, mor.cod), grow))
        return FinFn(dom, cod, np.zeros(dom.size, dtype=np.int64))
    return np.zeros(tuple(np.add(np.asarray(mor).shape, grow)), dtype=np.int64)


def replaced(table, idx, entry):
    if not idx:
        return entry
    return [replaced(t, idx[1:], entry) if i == idx[0] else t for i, t in enumerate(table)]


# (row-major position, grown ends) of each bent entry; -1 is the last entry
CASES = ([(-1, (1, 0))], [(-1, (0, 1))], [(-1, (1, 1))], [(-1, (1, 0)), (0, (0, 1))])
for v in (group_algebra_hopf(3, 2), mat_frobenius_example(3, 2),
          groupoid_to_hopfcat(codiscrete_groupoid(2))):
    for name in v.fields:
        arity = FIELDS[name][0]
        for bends in CASES[:3 if v.n == 1 else 4]:
            tables = {f: getattr(v, f) for f in v.fields}
            for at, grow in bends:
                idx = np.unravel_index(at % v.n ** arity, (v.n,) * arity)
                entry = tables[name]
                for i in idx:
                    entry = entry[i]
                tables[name] = replaced(tables[name], idx, bent(entry, grow))
            try:
                type(v)(v.backend, v.objects, v.homs, **tables)
            except Exception as err:
                print(type(err).__name__, err)
"""


def test_constructor_names_the_first_wrong_end_under_python_O():
    # a wrong domain, a wrong codomain alone, both (the domain is named)
    # and two bad entries (the row-major first is named), in every field
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, *flags, "-c", _WRONG_ENDS], capture_output=True,
                           text=True, env=env, timeout=60) for flags in ([], ["-O"])]
    want = []
    for n, fields in ((1, HopfVCat.fields), (2, FrobVCat.fields), (2, HopfVCat.fields)):
        for name in fields:
            arity = FIELDS[name][0]
            last = name + "[%d]" % (n - 1) * arity
            want += ["ShapeMismatch %s has wrong %s" % (last, end)
                     for end in ("domain", "codomain", "domain")]
            if n > 1:
                want.append("ShapeMismatch %s has wrong codomain" % (name + "[0]" * arity))
    assert want[:4] == ["ShapeMismatch m[0][0][0] has wrong domain",
                        "ShapeMismatch m[0][0][0] has wrong codomain",
                        "ShapeMismatch m[0][0][0] has wrong domain",
                        "ShapeMismatch u[0] has wrong domain"]
    assert runs[0].stdout.splitlines() == want, runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""


# each field entry's (domain, codomain), read entry by entry from the
# nested homs H, the object tensor t and the unit I
_ENTRY_ENDS = {
    "m": lambda H, t, I, x, y, z: (t(H[x][y], H[y][z]), H[x][z]),
    "u": lambda H, t, I, x: (I, H[x][x]),
    "delta": lambda H, t, I, x, y: (H[x][y], t(H[x][y], H[x][y])),
    "eps": lambda H, t, I, x, y: (H[x][y], I),
    "s": lambda H, t, I, x, y: (H[x][y], H[y][x]),
    "comlt": lambda H, t, I, x, y, z: (H[x][z], t(H[x][y], H[y][z])),
    "couni": lambda H, t, I, x: (H[x][x], I),
}


def _per_entry_field_ends(cls, backend, homs, tables):
    """The reference ends check of a category's fields: a loop over every
    entry, row-major, field by field; the error it raises, or None."""
    n = len(homs)
    for name, table in zip(cls.fields, tables):
        if table is None:
            continue
        arity = FIELDS[name][0]
        for idx in itertools.product(range(n), repeat=arity):
            mor = table
            for i in idx:
                mor = mor[i]
            mor = backend.mor(mor)
            dom, cod = _ENTRY_ENDS[name](homs, backend.tensor_obj, backend.unit, *idx)
            label = name + "[%d]" * arity % idx
            if not backend.eq_obj(backend.dom(mor), dom):
                return ShapeMismatch("%s has wrong domain" % label)
            if not backend.eq_obj(backend.cod(mor), cod):
                return ShapeMismatch("%s has wrong codomain" % label)
    return None


def _per_entry_component_ends(ca, cb, fun):
    """The reference ends check of a functor's components."""
    backend, f0 = ca.backend, fun.obj_map.table
    for x, y in itertools.product(range(ca.n), repeat=2):
        f = backend.mor(fun.components[x][y])
        if not (backend.eq_obj(backend.dom(f), ca.homs[x][y])
                and backend.eq_obj(backend.cod(f), cb.homs[f0[x]][f0[y]])):
            return ShapeMismatch("components[%d][%d] has wrong ends" % (x, y))
    return None


def _bent(mor, rng):
    """mor with a seeded choice of its ends grown by one."""
    grow = rng.choice([(1, 0), (0, 1), (1, 1)])
    if isinstance(mor, FinFn):
        # a map out of a nonempty set needs a nonempty codomain
        dom, cod = (FinSet((end.size + 1,)) if g or (i and mor.cod.size == 0) else end
                    for i, (end, g) in enumerate(zip((mor.dom, mor.cod), grow)))
        return FinFn(dom, cod, np.zeros(dom.size, dtype=np.int64))
    return np.zeros(tuple(np.add(np.asarray(mor).shape, grow)), dtype=np.int64)


def _seeded_entries(grid, n, arity, rng):
    """grid with one or two seeded entries bent or taken from another place."""
    grid = [list(map(list, row)) if arity == 3 else list(row) if arity == 2 else row
            for row in grid]
    flat = list(itertools.product(range(n), repeat=arity))
    for idx in rng.sample(flat, min(len(flat), rng.choice([1, 2]))):
        *outer, last = idx
        row = grid
        for i in outer:
            row = row[i]
        other = grid
        for i in rng.choice(flat):
            other = other[i]
        row[last] = _bent(row[last], rng) if rng.random() < 0.7 else other
    return grid


def _error(make):
    try:
        make()
    except ShapeMismatch as err:
        return err
    return None


def test_column_ends_check_matches_a_per_entry_loop():
    rng = random.Random(20)
    cats = [group_algebra_hopf(3, 3), mat_frobenius_example(2, 3), mat_frobenius_example(3, 2),
            groupoid_to_hopfcat(codiscrete_groupoid(3)),
            groupoid_to_hopfcat(cyclic_group_groupoid(3)), groupoid_to_hopfcat(_union_groupoid())]
    cases = []
    for v in cats:
        for name in v.fields:
            for _ in range(8):
                tables = [getattr(v, f) for f in v.fields]
                i = v.fields.index(name)
                tables[i] = _seeded_entries(tables[i], v.n, FIELDS[name][0], rng)
                cases.append((
                    lambda v=v, tables=tables: type(v)(v.backend, v.objects, v.homs, *tables),
                    _per_entry_field_ends(type(v), v.backend, v.homs, tables)))
        # one hom grown, so the homs are no longer symmetric
        for x, y in itertools.permutations(range(v.n), 2):
            homs = [list(row) for row in v.homs]
            hom = homs[x][y]
            homs[x][y] = FinSet((hom.size + 1,)) if isinstance(hom, FinSet) else hom + 1
            tables = [getattr(v, f) for f in v.fields]
            cases.append((lambda v=v, homs=homs, tables=tables: type(v)(
                v.backend, v.objects, homs, *tables),
                          _per_entry_field_ends(type(v), v.backend, homs, tables)))
    fc, small = mat_frobenius_example(3, 3), mat_frobenius_example(3, 2)
    union = groupoid_to_hopfcat(_union_groupoid())
    functors = [(fc, fc, [0, 1, 2]), (small, fc, [0, 1]), (small, fc, [1, 0]),
                (union, union, [0, 1, 2])]
    for ca, cb, f0 in functors:
        ident = [[ca.backend.id(ca.homs[x][y]) for y in range(ca.n)] for x in range(ca.n)]
        for _ in range(12):
            fun = VFunctorData(FinFn(ca.objects, cb.objects, f0),
                               _seeded_entries(ident, ca.n, 2, rng))
            cases.append((lambda ca=ca, cb=cb, fun=fun: hopfcat._functor_components(ca, cb, fun),
                           _per_entry_component_ends(ca, cb, fun)))
    wrong = 0
    for make, want in cases:
        got = _error(make)
        assert (type(got), str(got)) == (type(want), str(want))
        wrong += want is not None
    assert (len(cases), wrong) == (292, 252)


def _union_groupoid(seed=27):
    """The disjoint union of (codiscrete 2) x Z/3 on objects 0 and 1 with
    Z/2 on object 2: vertex groups of orders 3 and 2, four homs of three
    members and four empty homs; the 14 morphisms are numbered in a seeded
    order, so the members of each hom interleave with the others."""
    mors = [(x, y, k, 3) for x in range(2) for y in range(2) for k in range(3)]
    mors += [(2, 2, k, 2) for k in range(2)]
    random.Random(seed).shuffle(mors)
    code = {m: i for i, m in enumerate(mors)}
    g0, g1 = FinSet((3,)), FinSet((len(mors),))
    src, tgt = (FinFn(g1, g0, [m[end] for m in mors]) for end in (0, 1))
    _, p1, p2 = pullback(tgt, src)
    comp = [code[(f[0], g[1], (f[2] + g[2]) % f[3], f[3])]
            for f, g in ((mors[i], mors[j]) for i, j in zip(p1.table, p2.table))]
    e = FinFn(g0, g1, [code[(x, x, 0, 3 if x < 2 else 2)] for x in range(3)])
    inv = FinFn(g1, g1, [code[(y, x, -k % p, p)] for x, y, k, p in mors])
    return GroupoidData(g0, g1, src, tgt, comp, e, inv)


def _hand_written_laws(G):
    """The groupoid checks as GroupoidData once wrote them out: the
    boundaries, both identity laws and both inverse laws by position
    lookups, and associativity over a pullback of every composable triple."""
    n0, n1 = G.g0.size, G.g1.size
    src, tgt, e, inv = G.src.table, G.tgt.table, G.e.table, G.inv.table
    comp = G.comp.table
    ids = np.arange(n0)
    if not (np.array_equal(src[e], ids) and np.array_equal(tgt[e], ids)):
        raise NotAGroupoid("identities have wrong boundaries")
    left, right = G.p1.table, G.p2.table
    if not np.array_equal(src[comp], src[left]):
        raise NotAGroupoid("composite changes the source")
    if not np.array_equal(tgt[comp], tgt[right]):
        raise NotAGroupoid("composite changes the target")
    allg = np.arange(n1)
    pos = G.pairs.position_of
    if not np.array_equal(comp[pos(e[src] * n1 + allg)], allg):
        raise NotAGroupoid("left identity law fails")
    if not np.array_equal(comp[pos(allg * n1 + e[tgt])], allg):
        raise NotAGroupoid("right identity law fails")
    if not (np.array_equal(src[inv], tgt) and np.array_equal(tgt[inv], src)):
        raise NotAGroupoid("inverse has wrong boundaries")
    if not np.array_equal(comp[pos(allg * n1 + inv)], e[src]):
        raise NotAGroupoid("an inverse fails on the right")
    if not np.array_equal(comp[pos(inv * n1 + allg)], e[tgt]):
        raise NotAGroupoid("an inverse fails on the left")
    mid_tgt = FinFn(G.pairs, G.g0, tgt[right])
    triples, q1, q2 = pullback(mid_tgt, G.src)
    g, h, k = left[q1.table], right[q1.table], q2.table
    gh = comp[q1.table]
    hk = comp[pos(h * n1 + k)]
    if not np.array_equal(comp[pos(gh * n1 + k)], comp[pos(g * n1 + hk)]):
        raise NotAGroupoid("composition is not associative")


_BOUNDARY_MESSAGES = ["identities have wrong boundaries", "composite changes the source",
                      "composite changes the target", "inverse has wrong boundaries"]


def _refusal(make, *fields):
    """The NotAGroupoid message make raises on the fields, or None."""
    try:
        make(*fields)
    except NotAGroupoid as err:
        return str(err)
    return None


def test_library_groupoids_pass_the_public_constructor():
    # the library's constructors skip the checks; every groupoid they
    # build passes them, and the hand-written laws
    groupoids = [make(n) for n in range(8) for make in (codiscrete_groupoid, discrete_groupoid)]
    groupoids += [cyclic_group_groupoid(k) for k in range(1, 13)] + [_union_groupoid()]
    for G in groupoids:
        fields = G.g0, G.g1, G.src, G.tgt, G.comp.table, G.e, G.inv
        assert _refusal(GroupoidData, *fields) is None, G
        _hand_written_laws(G)


def _relabelled(G, rng):
    """G's boundaries, and its composition, identity and inverse tables,
    with its morphisms renumbered by a seeded permutation: the same
    groupoid, its homs' members interleaved anew."""
    n1 = G.g1.size
    sigma = np.array(rng.sample(range(n1), n1), dtype=np.int64)
    back = np.argsort(sigma)
    src, tgt = (FinFn(G.g1, G.g0, end.table[back]) for end in (G.src, G.tgt))
    _, p1, p2 = pullback(tgt, src)
    comp = sigma[G.comp.table[G.pairs.position_of(back[p1.table] * n1 + back[p2.table])]]
    return src, tgt, [comp, sigma[G.e.table], sigma[G.inv.table[back]]]


def test_groupoid_laws_refuse_what_the_hand_written_laws_refuse():
    # a renumbered groupoid passes, and each of its single-entry mutants
    # of the composition, identities or inverses is refused by the
    # constructor exactly when the hand-written laws refuse it, always
    # with NotAGroupoid, and with the same message when the hand-written
    # checks stop at a boundary
    rng = random.Random(26)
    families = [codiscrete_groupoid(2), codiscrete_groupoid(3), cyclic_group_groupoid(3),
                cyclic_group_groupoid(4), discrete_groupoid(3), _union_groupoid()]
    hand_written = lambda *fields: _hand_written_laws(GroupoidData._of_tables(*fields))
    seen = set()
    for _ in range(300):
        G = rng.choice(families)
        src, tgt, tables = _relabelled(G, rng)

        def verdicts():
            fields = (G.g0, G.g1, src, tgt, tables[0], FinFn(G.g0, G.g1, tables[1]),
                      FinFn(G.g1, G.g1, tables[2]))
            return [_refusal(make, *fields) for make in (hand_written, GroupoidData)]

        assert verdicts() == [None, None]
        table = rng.choice(tables)
        i = rng.randrange(table.size)
        table[i] = (table[i] + rng.randrange(1, G.g1.size)) % G.g1.size
        want, got = verdicts()
        assert (want is None) == (got is None), (G, tables, want, got)
        assert want not in _BOUNDARY_MESSAGES or got == want, (G, tables, want, got)
        seen.add(got and got.split(" fails")[0])
    # every single-entry mutant of a groupoid is refused
    assert seen == {*_BOUNDARY_MESSAGES, "cat-assoc", "cat-unit-left", "antipode-left"}


def test_library_groupoids_are_built_without_a_law_check():
    # the triple pullback of the hand-written associativity check took
    # 99 MB at codiscrete n=32 and 197 MB at Z/128
    for make, size in ((codiscrete_groupoid, 32), (cyclic_group_groupoid, 128)):
        make(size)
        tracemalloc.start()
        try:
            make(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (make.__name__, peak)


def _nested(n, arity, entry):
    """The nested table holding entry(*idx) at every index."""
    if arity == 0:
        return entry()
    return [_nested(n, arity - 1, lambda *idx, i=i: entry(i, *idx)) for i in range(n)]


def _per_entry_hopfcat(G):
    """The reference groupoid build, entry by entry: each hom's members by
    a search of the boundary tables, each composite by its pair's position."""
    backend, n, n1 = FinSetBackend(), G.g0.size, G.g1.size
    mems = [[np.nonzero((G.src.table == x) & (G.tgt.table == y))[0] for y in range(n)]
            for x in range(n)]
    homs = [[FinSet((len(mem),)) for mem in row] for row in mems]
    loc = np.zeros(n1, dtype=np.int64)
    for row in mems:
        for mem in row:
            loc[mem] = np.arange(len(mem))

    def mult(x, y, z):
        codes = (mems[x][y][:, None] * n1 + mems[y][z][None, :]).ravel()
        return FinFn(backend.tensor_obj(homs[x][y], homs[y][z]), homs[x][z],
                     loc[G.comp.table[G.pairs.position_of(codes)]])

    def diagonal(x, y):
        d = np.arange(homs[x][y].size, dtype=np.int64)
        return FinFn(homs[x][y], backend.tensor_obj(homs[x][y], homs[x][y]), d * d.size + d)

    return HopfVCat(
        backend, G.g0, homs, _nested(n, 3, mult),
        _nested(n, 1, lambda x: FinFn(UNIT, homs[x][x], [loc[G.e.table[x]]])),
        _nested(n, 2, diagonal),
        _nested(n, 2, lambda x, y: FinFn(homs[x][y], UNIT,
                                         np.zeros(homs[x][y].size, dtype=np.int64))),
        _nested(n, 2, lambda x, y: FinFn(homs[x][y], homs[y][x],
                                         loc[G.inv.table[mems[x][y]]])))


def test_groupoid_build_matches_a_per_entry_build():
    groupoids = [_union_groupoid()] + [make(n) for n in range(6) for make in (
        codiscrete_groupoid, cyclic_group_groupoid, discrete_groupoid) if n or make is not
        cyclic_group_groupoid]
    for G in groupoids:
        h = groupoid_to_hopfcat(G)
        assert hopfcat_data_equal(h, _per_entry_hopfcat(G)), G
        bim, anti = hopfcat_to_spanv(h)
        assert check_hopf_vcat(h).ok and check_oplax_bimonoid(bim).ok, G
        assert check_oplax_hopf(bim, anti).ok, G
    union = groupoid_to_hopfcat(groupoids[0])
    assert [[hom.size for hom in row] for row in union.homs] == [[3, 3, 0], [3, 3, 0], [0, 0, 2]]


def test_groupoid_build_reads_the_tables_once(monkeypatch):
    # each hom's members and every composite come off the groupoid's
    # tables in one pass, with no search per entry, and the ends of the
    # entries are checked once per distinct pair of objects
    calls = []
    eq_obj = FinSetBackend.eq_obj
    monkeypatch.setattr(FinSetBackend, "eq_obj",
                        lambda self, a, b: calls.append(1) or eq_obj(self, a, b))
    counts = []
    for n in (2, 6):
        G = codiscrete_groupoid(n)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(SubsetApex, "position_of", None)
            groupoid_to_hopfcat(G)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_groupoids_with_unequal_homs_pass_and_fail_by_both_routes():
    # the homs of a discrete groupoid and of the union are not all equal,
    # so the bridge's Columns carry codes; one moved antipode entry of the
    # union fails the antipode laws by both routes and nothing else
    for G in (discrete_groupoid(4), _union_groupoid()):
        h = groupoid_to_hopfcat(G)
        assert check_hopf_vcat(h).ok and _bridged_ok(h), G
    union = groupoid_to_hopfcat(_union_groupoid())
    s = union.s[0][1]
    table = s.table.copy()
    table[1] = (table[1] + 1) % s.cod.size
    antipode = [list(row) for row in union.s]
    antipode[0][1] = FinFn(s.dom, s.cod, table)
    mutant = HopfVCat(union.backend, union.objects, union.homs, union.m, union.u, union.delta,
                      union.eps, antipode)
    assert _failures(check_hopf_vcat(mutant)) == {
        "antipode-left": {"at": [0, 1], "diff": {"entry": [1], "this": 1, "other": 0}},
        "antipode-right": {"at": [0, 1], "diff": {"entry": [1], "this": 0, "other": 1}}}
    bim, anti = hopfcat_to_spanv(mutant)
    assert check_oplax_bimonoid(bim).ok
    [hopf] = [r for r in check_oplax_hopf(bim, anti).results if not r.ok]
    assert (hopf.name, hopf.counterexample["invalid"]) == ("antipode-cells", "tau1")


def test_small_pair_spaces_are_numbered_without_a_sort(monkeypatch):
    # During the bridged discrete n=4 bimonoid check, Column._pairs never
    # sorts a column whose pair space is no larger than the column: it
    # marks the pairs that occur instead
    spaces, sorted_spaces = [], []
    pairs, unique = Column._pairs, np.unique

    def record_pairs(self, other, size, fn, key, pair_codes):
        spaces.append((len(self.values) * len(other.values), size,
                       self.codes is not None or other.codes is not None))
        return pairs(self, other, size, fn, key, pair_codes)

    def record_unique(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "spanv.cells":
            sorted_spaces.append(spaces[-1])
        return unique(*args, **kwargs)

    bim, _ = hopfcat_to_spanv(groupoid_to_hopfcat(discrete_groupoid(4)))
    monkeypatch.setattr(Column, "_pairs", record_pairs)
    monkeypatch.setattr(np, "unique", record_unique)
    assert check_oplax_bimonoid(bim).ok
    assert any(coded and space <= size for space, size, coded in spaces)
    assert all(space > size for space, size, _ in sorted_spaces)


# The earlier per-entry opposite and data equality, kept as oracles for
# the Column forms: opposite_vcat takes and composes whole Columns, and
# hopfcat_data_equal compares them once per distinct pair of values.

def _per_entry_inverse_antipode(backend, homs, s, x, y):
    p = backend.compose(s[x][y], s[y][x])
    ident = backend.id(homs[x][y])
    prev, power, seen = ident, p, set()
    while not backend.eq_mor(power, ident):
        key = backend.mor_key(power)
        if key in seen:
            raise NotInvertible("antipode s[%d][%d] is not invertible" % (x, y))
        seen.add(key)
        prev, power = power, backend.compose(power, p)
    inverse = backend.compose(s[y][x], prev)
    if not backend.eq_mor(backend.compose(inverse, s[x][y]), backend.id(homs[y][x])):
        raise NotInvertible("antipode s[%d][%d] is not invertible" % (x, y))
    return inverse


def _per_entry_opposite(h):
    backend, n = h.backend, h.n
    homs, delta, eps = ([[g[y][x] for y in range(n)] for x in range(n)]
                        for g in (h.homs, h.delta, h.eps))
    m = _nested(n, 3, lambda x, y, z: backend.compose(
        backend.braiding(h.homs[y][x], h.homs[z][y]), h.m[z][y][x]))
    s = None
    if h.s is not None:
        s = _nested(n, 2, lambda x, y: _per_entry_inverse_antipode(backend, h.homs, h.s, x, y))
    return HopfVCat(backend, h.objects, homs, m, list(h.u), delta, eps, s)


def _per_entry_data_equal(a, b):
    if (type(a) is not type(b) or a.backend != b.backend or a.n != b.n
            or a.columns.keys() != b.columns.keys()):
        return False
    keys = {name: a.backend.obj_key if name == "H" else a.backend.mor_key for name in a.columns}
    return all(keys[name](p) == keys[name](q)
               for name in a.columns for p, q in zip(a.columns[name], b.columns[name]))


def _opposite_or_message(opposite, h):
    try:
        return opposite(h)
    except NotInvertible as err:
        return str(err)


def _reports(h, bridged=True):
    """The direct report and, when asked, the bridged bimonoid and hopf
    reports, as dicts."""
    out = [r.as_dict() for r in (check_hopf_vcat if h.s is not None
                                 else check_semi_hopf_vcat)(h).results]
    if bridged:
        bim, anti = hopfcat_to_spanv(h)
        results = check_oplax_bimonoid(bim).results
        if anti is not None:
            results += check_oplax_hopf(bim, anti).results
        out += [r.as_dict() for r in results]
    return out


def _with_antipode(h, moves):
    """h with the antipode entries at the given (x, y) replaced."""
    s = [list(row) for row in h.s]
    for (x, y), mor in moves.items():
        s[x][y] = mor
    return HopfVCat(h.backend, h.objects, h.homs, h.m, h.u, h.delta, h.eps, s)


def _singular(mor):
    """A matrix with mor's shape whose last column is zero."""
    a = np.array(mor)
    a[:, -1] = 0
    return a


def _not_injective(f):
    return FinFn(f.dom, f.cod, np.zeros(f.dom.size, dtype=np.int64))


def _random_vcat(backend, homs, rng, kind=HopfVCat):
    """Every entry a seeded morphism with the right ends, and the antipode
    entry at (x, y) mostly a bijection when H[x][y] and H[y][x] match.
    It satisfies no law: opposite_vcat reads the data alone."""
    n, t, unit = len(homs), backend.tensor_obj, backend.unit

    def mor(name, *idx):
        dom, cod = _ENTRY_ENDS[name](homs, t, unit, *idx)
        if isinstance(backend, FinSetBackend):
            if name == "s" and dom == cod and rng.random() < 0.7:
                return FinFn(dom, cod, rng.sample(range(dom.size), dom.size))
            return FinFn(dom, cod, [rng.randrange(cod.size) for _ in range(dom.size)])
        if name == "s" and dom == cod and rng.random() < 0.7:
            return np.eye(dom, dtype=np.int64)[rng.sample(range(dom), dom)] * rng.choice([1, 2])
        return np.array([[rng.randrange(3) for _ in range(cod)] for _ in range(dom)])

    return kind(backend, FinSet((n,)), homs, *(
        _nested(n, FIELDS[name][0], lambda *idx, name=name: mor(name, *idx))
        for name in kind.fields))


def test_opposite_matches_a_per_entry_opposite():
    sweedler, backend = _sweedler(3), MatBackend(prime=3)
    constant = _on_every_hom(sweedler, 3)
    union = groupoid_to_hopfcat(_union_groupoid())
    named = [sweedler, constant, _on_every_hom(_sweedler(5), 2), group_algebra_hopf(3, 4),
             union, HopfVCat(union.backend, union.objects, union.homs, union.m, union.u,
                             union.delta, union.eps)]
    named += [groupoid_to_hopfcat(make(n)) for make in (
        codiscrete_groupoid, cyclic_group_groupoid, discrete_groupoid) for n in range(4)
        if n or make is not cyclic_group_groupoid]
    # antipodes whose first singular entry, row-major, is not at (0, 0)
    singular = {
        "antipode s[1][2] is not invertible": _with_antipode(
            constant, {(1, 2): _singular(constant.s[1][2]), (2, 2): _singular(constant.s[2][2])}),
        "antipode s[0][2] is not invertible": _with_antipode(
            constant, {(2, 0): _singular(constant.s[2][0])}),
        "antipode s[2][2] is not invertible": _with_antipode(
            union, {(2, 2): _not_injective(union.s[2][2])}),
        "antipode s[0][1] is not invertible": _with_antipode(
            union, {(1, 0): _not_injective(union.s[1][0])}),
    }
    for h in named:
        got, want = opposite_vcat(h), _per_entry_opposite(h)
        assert hopfcat_data_equal(got, want) and _per_entry_data_equal(got, want), h
        assert _reports(got) == _reports(want), h
        assert _per_entry_data_equal(opposite_vcat(got), h), h
    for message, h in singular.items():
        assert _opposite_or_message(_per_entry_opposite, h) == message
        with pytest.raises(NotInvertible, match=r"^%s$" % re.escape(message)):
            opposite_vcat(h)
    # seeded data with no laws: opposite and refusal agree entry by entry
    rng, outcomes = random.Random(22), []
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        sizes = [[rng.choice([1, 2, 3]) for _ in range(n)] for _ in range(n)]
        for x, y in itertools.combinations(range(n), 2):
            if rng.random() < 0.7:
                sizes[y][x] = sizes[x][y]
        if rng.random() < 0.5:
            h = _random_vcat(FinSetBackend(), [[FinSet((k,)) for k in row] for row in sizes], rng)
        else:
            h = _random_vcat(backend, [[min(k, 2) for k in row] for row in sizes], rng)
        got, want = (_opposite_or_message(op, h) for op in (opposite_vcat, _per_entry_opposite))
        if isinstance(want, str):
            assert got == want
        else:
            assert hopfcat_data_equal(got, want) and _per_entry_data_equal(got, want)
            assert _reports(got, bridged=False) == _reports(want, bridged=False)
        outcomes.append(want if isinstance(want, str) else "inverted")
    assert (len(outcomes), outcomes.count("inverted")) == (60, 34)
    assert any(s not in ("inverted", "antipode s[0][0] is not invertible") for s in outcomes)


def test_data_equality_matches_a_per_entry_comparison():
    rng = random.Random(23)
    cats = [group_algebra_hopf(3, 3), mat_frobenius_example(3, 2), _sweedler(3),
            groupoid_to_hopfcat(_union_groupoid()), groupoid_to_hopfcat(cyclic_group_groupoid(3))]
    pairs = [(a, b) for a in cats for b in cats]
    pairs += [(v, w) for v in cats for w in [*_mutants(v, rng), _rebuilt(v)]]
    verdicts = [hopfcat_data_equal(a, b) for a, b in pairs]
    assert verdicts == [_per_entry_data_equal(a, b) for a, b in pairs]
    assert (len(pairs), sum(verdicts)) == (63, 10)


def _rebuilt(v):
    """v built again from its nested views, every entry a new object."""
    if isinstance(v.backend, MatBackend):
        def copy(e):
            return np.array(v.backend.mor(e))
    else:
        def copy(e):
            return FinFn(e.dom, e.cod, e.table.copy())

    def grid(g, arity):
        return copy(g) if arity == 0 else [grid(e, arity - 1) for e in g]

    return type(v)(v.backend, v.objects, v.homs, *(
        None if getattr(v, f) is None else grid(getattr(v, f), FIELDS[f][0]) for f in v.fields))


def _flat_column(grid, arity):
    """A nested grid's entries as an unmerged row-major Column."""
    for _ in range(arity - 1):
        grid = [entry for row in grid for entry in row]
    return Column(list(grid), len(grid), np.arange(len(grid)))


def test_column_built_categories_match_nested_built_ones(monkeypatch):
    cats = [group_algebra_hopf(3, 4), _sweedler(3), _on_every_hom(_sweedler(3), 3),
            mat_frobenius_example(3, 3), mat_frobenius_example(2, 1),
            groupoid_to_hopfcat(_union_groupoid()), groupoid_to_hopfcat(discrete_groupoid(3)),
            groupoid_to_hopfcat(codiscrete_groupoid(0))]
    g = group_algebra_hopf(3, 4)
    cats.append(HopfVCat(g.backend, g.objects, g.homs, g.m, g.u, g.delta, g.eps))
    conversions = []
    mor = MatBackend.mor
    monkeypatch.setattr(MatBackend, "mor", lambda self, data, *args: conversions.append(
        not isinstance(data, NonzeroMatrix)) or mor(self, data, *args))
    for v in cats:
        kind, grids = type(v), [getattr(v, f) for f in v.fields]
        nested = kind(v.backend, v.objects, v.homs, *grids)
        stored = kind(v.backend, v.objects, v.columns["H"], *map(v.columns.get, v.fields))
        # dense entries, one per stored value of each field: each is converted once
        dense = {f: c.map(np.asarray) if isinstance(v.backend, MatBackend) and f != "H" else c
                 for f, c in v.columns.items()}
        conversions.clear()
        raw = kind(v.backend, v.objects, dense["H"], *map(dense.get, v.fields))
        if isinstance(v.backend, MatBackend):
            assert sum(conversions) == sum(len(c.values) for f, c in dense.items() if f != "H")
        # unmerged Columns for every other field, nested grids for the rest
        mixed = kind(v.backend, v.objects, _flat_column(v.homs, 2), *(
            _flat_column(g, FIELDS[f][0]) if i % 2 == 0 and g is not None else g
            for i, (f, g) in enumerate(zip(v.fields, grids))))
        for w in (stored, raw, mixed):
            assert hopfcat_data_equal(w, nested) and _per_entry_data_equal(w, nested), v
            assert {f: len(c.values) for f, c in w.columns.items()} == {
                f: len(c.values) for f, c in nested.columns.items()}, v
            assert all(isinstance(x, NonzeroMatrix) for f, c in w.columns.items() if f != "H"
                       for x in c.values) or not isinstance(v.backend, MatBackend)
            assert w.homs == nested.homs and [getattr(w, f) is None for f in v.fields] == [
                g is None for g in grids]
            check = check_frobenius_vcat if kind is FrobVCat else (
                check_hopf_vcat if v.s is not None else check_semi_hopf_vcat)
            assert [r.as_dict() for r in check(w).results] == [
                r.as_dict() for r in check(nested).results], v


def test_column_fields_name_the_same_wrong_end_as_nested_ones():
    rng = random.Random(21)
    cats = [group_algebra_hopf(3, 2), mat_frobenius_example(2, 3),
            groupoid_to_hopfcat(codiscrete_groupoid(3)), groupoid_to_hopfcat(_union_groupoid())]
    wrong = 0
    for v in cats:
        for name in v.fields:
            arity = FIELDS[name][0]
            for _ in range(6):
                tables = [getattr(v, f) for f in v.fields]
                i = v.fields.index(name)
                tables[i] = _seeded_entries(tables[i], v.n, arity, rng)
                want = _error(lambda: type(v)(v.backend, v.objects, v.homs, *tables))
                tables[i] = _flat_column(tables[i], arity)
                got = _error(lambda: type(v)(v.backend, v.objects, v.columns["H"], *tables))
                assert (type(got), str(got)) == (type(want), str(want))
                wrong += want is not None
    assert wrong == 99


_WRONG_LENGTH = """
from spanv.cells import Column
from spanv.hopfcat import (FrobVCat, HopfVCat, codiscrete_groupoid, group_algebra_hopf,
                           groupoid_to_hopfcat, mat_frobenius_example, opposite_vcat)
h = groupoid_to_hopfcat(codiscrete_groupoid(2))
fc = mat_frobenius_example(3, 2)
g = group_algebra_hopf(3, 2)
H, m, s = h.columns["H"], h.columns["m"], h.columns["s"]
for make in (lambda: HopfVCat(h.backend, h.objects, H.take([0, 1, 2]), h.m, h.u, h.delta, h.eps),
             lambda: HopfVCat(h.backend, h.objects, Column([], 0), h.m, h.u, h.delta, h.eps),
             lambda: HopfVCat(h.backend, h.objects, H, m.take([0] * 9), h.u, h.delta, h.eps),
             lambda: HopfVCat(h.backend, h.objects, H, m, h.u, h.delta, h.eps, s.take([1])),
             lambda: FrobVCat(fc.backend, fc.objects, fc.homs, fc.m,
                              fc.columns["u"].take([0, 1, 0]), fc.comlt, fc.couni),
             # the fields are read in order, nested or not
             lambda: HopfVCat(h.backend, h.objects, [], m.take([0]), h.u, h.delta, h.eps),
             lambda: HopfVCat(h.backend, h.objects, H, m.take([0]), [], h.delta, h.eps),
             lambda: HopfVCat(h.backend, h.objects, H, h.m, s, h.delta, h.eps),
             # and the refusal of a singular antipode is unchanged
             lambda: opposite_vcat(HopfVCat(g.backend, g.objects, g.homs, g.m, g.u, g.delta,
                                            g.eps, [[[[0, 0], [0, 1]]]]))):
    try:
        make()
    except Exception as err:
        print(type(err).__name__, err)
"""


def test_a_column_of_the_wrong_length_is_refused_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, *flags, "-c", _WRONG_LENGTH], capture_output=True,
                           text=True, env=env, timeout=60) for flags in ([], ["-O"])]
    assert runs[0].stdout.splitlines() == [
        "ShapeMismatch homs must hold 4 entries, got 3",
        "ShapeMismatch homs must hold 4 entries, got 0",
        "ShapeMismatch m must hold 8 entries, got 9",
        "ShapeMismatch s must hold 4 entries, got 1",
        "ShapeMismatch u must hold 2 entries, got 3",
        "ShapeMismatch homs must list 2 entries",
        "ShapeMismatch m must hold 8 entries, got 1",
        "ShapeMismatch u must hold 2 entries, got 4",
        "NotInvertible antipode s[0][0] is not invertible",
    ], runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""


def test_builders_never_walk_a_nested_grid(monkeypatch):
    # groupoid_to_hopfcat, spanv_to_hopfcat and opposite_vcat hand the
    # constructor row-major Columns, so no nested grid is walked
    cats = [groupoid_to_hopfcat(_union_groupoid()), _on_every_hom(_sweedler(3), 3)]
    # homs that are not symmetric, so a transposed grid has wrong ends
    lopsided = _random_vcat(FinSetBackend(), [[FinSet((k,)) for k in row]
                                              for row in ((1, 2), (3, 2))], random.Random(5))
    bridged = [hopfcat_to_spanv(v) for v in cats + [lopsided]]
    monkeypatch.setattr(hopfcat, "_entries", lambda *args: pytest.fail("walked a nested grid"))
    for G in (_union_groupoid(), codiscrete_groupoid(4), discrete_groupoid(3),
              cyclic_group_groupoid(4), discrete_groupoid(0)):
        assert check_hopf_vcat(groupoid_to_hopfcat(G)).ok
    for v, (bim, anti) in zip(cats + [lopsided], bridged):
        assert hopfcat_data_equal(spanv_to_hopfcat(bim, anti), v)
    for v in cats:
        assert hopfcat_data_equal(opposite_vcat(opposite_vcat(v)), v)


def test_opposite_cost_does_not_grow_with_the_objects(monkeypatch):
    # every entry of the codiscrete category on Sweedler's algebra is
    # equal, so its opposite composes and inverts one distinct pair of
    # entries however many objects there are
    pairs = []
    compose_many = MatBackend.compose_many
    monkeypatch.setattr(MatBackend, "compose_many", lambda self, fs, gs: pairs.append(
        len(fs)) or compose_many(self, fs, gs))
    counts = []
    for n in (2, 6):
        h = _on_every_hom(_sweedler(3), n)
        pairs.clear()
        opposite_vcat(h)
        counts.append(sum(pairs))
    assert counts[0] == counts[1] > 0


def _hand_built_group_algebra(p, order):
    """The group algebra of Z/order over Z/p with its five structure maps
    written out as dense matrices: the reference for its linearised build."""
    k = int(order)
    g, pairs = np.arange(k), np.arange(k * k)
    mm = np.zeros((k * k, k), dtype=np.int64)
    mm[pairs, (pairs // k + pairs % k) % k] = 1
    uu = np.zeros((1, k), dtype=np.int64)
    uu[0, 0] = 1
    dd = np.zeros((k, k * k), dtype=np.int64)
    dd[g, g * k + g] = 1
    ss = np.zeros((k, k), dtype=np.int64)
    ss[g, (-g) % k] = 1
    return HopfVCat(MatBackend(prime=p), FinSet((1,)), [[k]], [[[mm]]], [uu], [[dd]],
                    [[np.ones((k, 1), dtype=np.int64)]], [[ss]])


def _column_keys(v):
    """Each grid's size, codes and value keys."""
    return {name: (c.size, None if c.codes is None else c.codes.tolist(),
                   [(v.backend.obj_key if name == "H" else v.backend.mor_key)(x) for x in c.values])
            for name, c in v.columns.items()}


def test_group_algebra_is_the_linearised_cyclic_groupoid():
    for p in (2, 3, 5, 7):
        for k in range(1, 9):
            h, want = group_algebra_hopf(p, k), _hand_built_group_algebra(p, k)
            assert _column_keys(h) == _column_keys(want), (p, k)
            assert _reports(h, bridged=False) == _reports(want, bridged=False), (p, k)


def _linearised_diff(diff):
    """A first difference of two functions as that of their 0/1 matrices:
    the first row that differs, at the smaller of its two columns."""
    (w,), f, g = diff["entry"], diff["this"], diff["other"]
    return {"entry": [w, min(f, g)], "this": int(f < g), "other": int(g < f)}


def _groupoid_families(sizes, *more):
    """The codiscrete, discrete and cyclic groupoids of the given sizes, the
    union groupoid and more, each over finite sets, with their mutants."""
    rng = random.Random(25)
    cats = [groupoid_to_hopfcat(make(n)) for make in (
        codiscrete_groupoid, discrete_groupoid, cyclic_group_groupoid) for n in sizes]
    cats += [groupoid_to_hopfcat(_union_groupoid()), *more]
    return [w for v in cats for w in [v, *_mutants(v, rng)]]


def _action_category():
    """Z/2 on object 0 acting on the three arrows 0 -> 1 by swapping the
    first two, with the identity alone on object 1 and no arrow 1 -> 0:
    a category that is no groupoid, its homs of sizes 2, 3, 0 and 1, with
    the diagonal comonoid on each hom, so semi-Hopf over finite sets."""
    backend, t = FinSetBackend(), FinSetBackend().tensor_obj
    homs = [[FinSet((2,)), FinSet((3,))], [FinSet((0,)), UNIT]]
    tables = {(0, 0, 0): [0, 1, 1, 0], (0, 0, 1): [0, 1, 2, 1, 0, 2], (0, 1, 1): [0, 1, 2],
              (1, 1, 1): [0]}
    return HopfVCat(
        backend, FinSet((2,)), homs,
        _nested(2, 3, lambda x, y, z: FinFn(t(homs[x][y], homs[y][z]), homs[x][z],
                                            tables.get((x, y, z), []))),
        _nested(2, 1, lambda x: FinFn(UNIT, homs[x][x], [0])),
        _nested(2, 2, lambda x, y: diagonal_fn(homs[x][y])),
        _nested(2, 2, lambda x, y: terminal_fn(homs[x][y])))


def test_linearise_keeps_every_direct_verdict():
    # linearisation is faithful and strong monoidal, so a category over
    # finite sets and its linearisation over any matrix backend fail the
    # same laws at the same index tuple, at the matching matrix entry
    cats = _groupoid_families(range(1, 5), _action_category())
    frob_homs = [[FinSet((k,)) for k in row] for row in ((1, 2), (2, 1))]
    cats += [_random_vcat(FinSetBackend(), frob_homs, random.Random(seed), FrobVCat)
             for seed in range(3)]
    # homs of unequal sizes, so the braiding meets unequal factors
    cats += [_random_vcat(FinSetBackend(), [[FinSet((k,)) for k in row]
                                            for row in ((1, 2), (3, 2))], random.Random(seed))
             for seed in range(3)]
    cats.append(_random_vcat(FinSetBackend(), [[UNIT] * 2] * 2, random.Random(0), FrobVCat))
    failing = 0
    for v in cats:
        check = check_frobenius_vcat if isinstance(v, FrobVCat) else (
            check_hopf_vcat if v.s is not None else check_semi_hopf_vcat)
        want = [(r.name, r.ok, r.counterexample and r.counterexample["at"],
                 r.counterexample and _linearised_diff(r.counterexample["diff"]))
                for r in check(v).results]
        failing += not all(ok for _, ok, _, _ in want)
        for backend in (MatBackend(prime=2), MatBackend(prime=3), MatBackend(boolean=True)):
            got = [(r.name, r.ok, r.counterexample and r.counterexample["at"],
                    r.counterexample and r.counterexample["diff"])
                   for r in check(linearise(v, backend)).results]
            assert got == want, (v, backend)
    assert (len(cats), failing) == (45, 30)


def test_linearise_keeps_every_bridged_report():
    # the span route reports the same failures of a category over finite
    # sets and of its linearisation, also with empty homs and many objects
    def span_reports(v):
        bim, anti = hopfcat_to_spanv(v)
        return [r.as_dict() for r in check_oplax_bimonoid(bim).results + (
            [] if anti is None else check_oplax_hopf(bim, anti).results)]

    cats = _groupoid_families(range(1, 4), _action_category())
    failing = 0
    for v in cats:
        want = span_reports(v)
        failing += any(r["status"] == "fail" for r in want)
        assert span_reports(linearise(v, MatBackend(prime=3))) == want, v
    assert (len(cats), failing) == (31, 20)


def _checking_every_derived_cell(patch, refused):
    """Build each derived cell through the public checks: VCell1._of as
    VCell1(...) and VCell2._of as make_2cell, recording every refusal."""
    marked, inside = VCell2._of, []

    def checked_1cell(dom, cod, span, alphas):
        try:
            return VCell1(dom, cod, span, alphas)
        except SpanVError as err:
            refused.append(err)
            raise

    def checked_2cell(src, tgt, u):
        if inside:
            # make_2cell's own result, after its check
            return marked(src, tgt, u)
        inside.append(True)
        try:
            return make_2cell(src, tgt, u)
        except SpanVError as err:
            refused.append(err)
            raise
        finally:
            inside.pop()

    patch.setattr(VCell1, "_of", staticmethod(checked_1cell))
    patch.setattr(VCell2, "_of", staticmethod(checked_2cell))


def _bridged_reports(v):
    if isinstance(v, FrobVCat):
        return [r.as_dict() for r in check_frobenius(frobcat_to_spanv(v)).results]
    bim, anti = hopfcat_to_spanv(v)
    results = check_oplax_bimonoid(bim).results
    if anti is not None:
        results += check_oplax_hopf(bim, anti).results
    return [r.as_dict() for r in results]


def _trivial_reports(G):
    """Every span-layer check of a groupoid's trivial-backend structures,
    with its forced structure cells and the Morita isos of its antipode."""
    mon, com, _, bim, anti, frob = groupoid_structures(G)
    results = (check_frobenius(frob).results + check_oplax_bimonoid(bim).results
               + check_oplax_hopf(bim, anti).results)
    ctx = antipode_context(bim, anti)
    maps = [cell.u.tolist() for cell in (*infer_unique_structure_cells(mon, com),
                                         *morita_uniqueness_iso(bim, ctx, ctx))]
    return [r.as_dict() for r in results], maps


def test_every_derived_cell_passes_the_public_checks(monkeypatch):
    # a composite, tensor, braiding or identity of checked 1-cells and a
    # composite, tensor, inverse, pasting, canonical iso or found 2-cell of
    # checked 2-cells is built without a check; routed back through the
    # public checks, none is refused and every report stays the same
    rng = random.Random(28)
    cats = _groupoid_families(range(1, 4), _action_category())
    cats += [linearise(v, MatBackend(prime=3)) for v in cats]
    cats += [w for v in [group_algebra_hopf(3, k) for k in range(1, 7)]
             + [mat_frobenius_example(3, n) for n in range(1, 4)] for w in [v, *_mutants(v, rng)]]
    groupoids = [make(n) for make in (codiscrete_groupoid, discrete_groupoid,
                                      cyclic_group_groupoid) for n in range(1, 4)]
    groupoids.append(_union_groupoid())
    cases = ([lambda v=v: _bridged_reports(v) for v in cats]
             + [lambda G=G: _trivial_reports(G) for G in groupoids])
    want = [case() for case in cases]
    refused = []
    with monkeypatch.context() as patch:
        _checking_every_derived_cell(patch, refused)
        got = [case() for case in cases]
    assert refused == []
    assert got == want
    failing = sum(any(r["status"] == "fail" for r in reports) for reports in want[:len(cats)])
    assert (len(cats), len(groupoids), failing) == (124, 10, 93)


def _counting_calls(patch, counts, *functions):
    """Count the calls of each function wherever a spanv module binds it."""
    for fn in functions:
        def counted(*args, fn=fn):
            counts[fn.__name__] += 1
            return fn(*args)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spanv":
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patch.setattr(module, attr, counted)


def test_a_bridged_check_checks_each_cell_once_where_it_enters(monkeypatch):
    # the structure cells enter through try_make_2cell and the field cells
    # through the public VCell1, called by the bridge; every cell the
    # checks derive from them is built without checking it again
    init = VCell1.__init__
    for v in (groupoid_to_hopfcat(codiscrete_groupoid(3)), group_algebra_hopf(3, 4)):
        counts, callers = dict.fromkeys(
            ("make_2cell", "try_make_2cell", "first_wrong_end", "VCell1"), 0), set()

        def public(cell, *args):
            callers.add(sys._getframe(1).f_globals["__name__"])
            counts["VCell1"] += 1
            init(cell, *args)

        with monkeypatch.context() as patch:
            _counting_calls(patch, counts, cells_module.make_2cell,
                            cells_module.try_make_2cell, cells_module.first_wrong_end)
            patch.setattr(VCell1, "__init__", public)
            bim, anti = hopfcat_to_spanv(v)
            assert check_oplax_bimonoid(bim).ok and check_oplax_hopf(bim, anti).ok
        assert counts["make_2cell"] == counts["try_make_2cell"] == 6
        assert counts["first_wrong_end"] == counts["VCell1"] > 0
        assert callers == {"spanv.hopfcat"}


def test_linearise_runs_from_finite_sets_to_matrices():
    g = groupoid_to_hopfcat(cyclic_group_groupoid(3))
    h = linearise(g, MatBackend(prime=5))
    assert h.homs == [[3]] and np.array_equal(h.s[0][0], [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    for v, backend in ((g, FinSetBackend()), (h, MatBackend(prime=3))):
        with pytest.raises(UnsupportedBackend, match="finite sets to matrices"):
            linearise(v, backend)


def test_sizes_are_whole_numbers():
    # an integral float names the same set, and an order that is one
    # still builds the group algebra
    assert FinSet((2.0, 3)) is FinSet((2, 3))
    assert hopfcat_data_equal(group_algebra_hopf(3, 2.0), group_algebra_hopf(3, 2))
    assert hopfcat_data_equal(mat_frobenius_example(3, 2.0), mat_frobenius_example(3, 2))
    for shape in ((1, float("nan")), (float("inf"),), (None,)):
        with pytest.raises(ShapeMismatch, match="not a whole number"):
            FinSet(shape)
