"""Bimonoid, Hopf, Frobenius, module and morphism checkers on pair carriers."""

import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from spanv import cells as cells_module
from spanv import finset as finset_module
from spanv import pasting as pasting_module
from spanv import span as span_module
from spanv.cells import (
    InvalidCell,
    VCell1,
    VCell2,
    VFam,
    cells_equal,
    identity_cell,
    invert_2cell,
    make_2cell,
    tensor_2cells,
    tensor_cells,
    tensor_fams,
    try_make_2cell,
    unit_fam,
)
from spanv.errors import NotBimodule, TriangleViolation
from spanv.finset import (
    UNIT,
    FinFn,
    FinSet,
    SubsetApex,
    diagonal_fn,
    identity_fn,
    reindex_fn,
    terminal_fn,
)
from spanv.hopfcat import codiscrete_groupoid, discrete_groupoid, groupoid_structures
from spanv.pasting import (
    canonical_cell_iso,
    find_2cells,
    find_unique_2cell,
    identity_2cell,
    paste,
    two_cells_equal,
)
from spanv.span import Span, reverse_span, span_legs_bijective, spans_isomorphic
from spanv.structures import (
    AntipodeData,
    ComonoidData,
    FrobeniusData,
    MonoidData,
    OplaxBimonoidData,
    OplaxModuleData,
    OplaxMorphismData,
    antipode_context,
    check_frobenius,
    check_fusion_inverse,
    check_module_morphism,
    check_module_transformation,
    check_oplax_bimonoid,
    check_oplax_bimonoid_morphism,
    check_oplax_hopf,
    check_oplax_module,
    check_strict_comonoid,
    check_strict_monoid,
    compose_chain,
    convolution,
    convolution_to_endo,
    convolution_unit,
    endo_to_convolution,
    framed,
    fusion_cell,
    infer_unique_structure_cells,
    morita_uniqueness_iso,
    regular_module,
    tensor_2chain,
    tensor_chain,
    tensor_module_morphism,
    tensor_modules,
    unit_module,
)
from spanv.structures import bimonoid as bimonoid_module
from spanv.structures.bimonoid import _Parts
from spanv.vbackend import MatBackend, TrivialBackend

TWELVE = ["ax1", "ax2a", "ax2b", "ax3", "ax4a", "ax4b",
          "ax5", "ax6", "ax7", "ax8", "ax9", "ax10"]


@pytest.fixture(scope="module")
def pair2():
    return groupoid_structures(codiscrete_groupoid(2))


def test_pair_bimonoid_all_axioms(pair2):
    mon, com, _, bim, _, _ = pair2
    assert check_strict_monoid(mon).ok
    assert check_strict_comonoid(com).ok
    report = check_oplax_bimonoid(bim)
    assert report.ok
    names = [r.name for r in report.results]
    for axiom in TWELVE:
        assert axiom in names


def test_pair_structure_cells_frozen(pair2):
    # apex maps for the four structure cells, |X| = 2, in apex order
    _, _, _, bim, _, _ = pair2
    assert np.array_equal(bim.theta.u, np.arange(8))
    assert np.array_equal(bim.theta0.u, [0, 3])
    assert np.array_equal(bim.chi.u, [0, 1, 6, 7, 8, 9, 14, 15])
    assert np.array_equal(bim.chi0.u, [0, 0])


def test_infer_recovers_structure_cells(pair2):
    mon, com, _, bim, _, _ = pair2
    cells = infer_unique_structure_cells(mon, com)
    assert cells is not None
    for found, given in zip(cells, (bim.theta, bim.theta0, bim.chi, bim.chi0)):
        assert np.array_equal(found.u, given.u)


def test_pair_hopf_antipode(pair2):
    _, _, _, bim, anti, _ = pair2
    report = check_oplax_hopf(bim, anti)
    assert report.ok
    assert [r.name for r in report.results] == [
        "pqp-exchange", "pqp-invertible", "qpq-exchange", "qpq-invertible"]
    # the antipode reverses pairs: (a,b) goes to (b,a)
    sw = anti.s.span
    base = anti.s.dom.base
    for pos in range(sw.apex.size):
        a, b = base.decode([sw.f.table[pos]])[0]
        assert tuple(base.decode([sw.g.table[pos]])[0]) == (b, a)


def test_antipode_cells_are_semantic(pair2):
    # tau1 sends (a,b) to the triple (a,b,a); tau2 to (a,b,b)
    _, _, _, bim, anti, _ = pair2
    for tau, third in ((anti.tau1, 0), (anti.tau2, 1)):
        src, tgt = tau.src.span, tau.tgt.span
        base = tau.src.dom.base
        for pos in range(src.apex.size):
            a, b = base.decode([src.f.table[pos]])[0]
            triple = tuple(tgt.apex.decode([tau.u[pos]])[0])
            assert triple == (a, b, (a, b)[third])


def test_fusion_template(pair2):
    _, _, _, bim, _, _ = pair2
    fus = fusion_cell(bim)
    x3, x4 = FinSet((2, 2, 2)), FinSet((2, 2, 2, 2))
    template = Span(x4, x3, x4,
                    reindex_fn(x3, x4, [0, 1, 1, 2]),
                    reindex_fn(x3, x4, [0, 2, 1, 2]))
    assert spans_isomorphic(fus.span, template) is not None
    assert not span_legs_bijective(fus.span)
    # the element (0,1,0) of the cube maps to (0,1,1,0) and (0,0,1,0)
    hits = [pos for pos in range(fus.span.apex.size)
            if fus.span.f.table[pos] == 6 and fus.span.g.table[pos] == 2]
    assert hits == [2]


def test_fusion_reverse_is_inverse(pair2):
    _, _, _, bim, _, _ = pair2
    fus = fusion_cell(bim)
    rev = VCell1(fus.cod, fus.dom, reverse_span(fus.span), None)
    report = check_fusion_inverse(bim, rev)
    assert report.ok


def test_convolution_unit_and_f_of_identity(pair2):
    _, _, _, bim, _, _ = pair2
    one = identity_cell(bim.monoid.carrier)
    assert cells_equal(convolution_to_endo(bim, one), fusion_cell(bim))
    cu = convolution_unit(bim)
    # the unit of convolution lands on constant pairs only
    base = cu.cod.base
    for pos in range(cu.span.apex.size):
        a, b = base.decode([cu.span.g.table[pos]])[0]
        assert a == b


def _random_endo(rng, carrier):
    base = carrier.base
    na = int(rng.integers(1, 6))
    apex = FinSet((na,))
    return VCell1(carrier, carrier,
                  Span(base, apex, base,
                       FinFn(apex, base, rng.integers(0, base.size, size=na)),
                       FinFn(apex, base, rng.integers(0, base.size, size=na))),
                  None)


def test_convolution_endo_correspondence(pair2):
    # F(f (*) g) = F(f) ; F(g) and G(F(f)) = f, on random 1-cells
    _, _, _, bim, _, _ = pair2
    rng = np.random.default_rng(5)
    carrier = bim.monoid.carrier
    for _ in range(10):
        f = _random_endo(rng, carrier)
        g = _random_endo(rng, carrier)
        conv_fg = convolution(bim, f, g)
        lhs = convolution_to_endo(bim, conv_fg)
        rhs = compose_chain(convolution_to_endo(bim, f), convolution_to_endo(bim, g))
        assert canonical_cell_iso(lhs, rhs) is not None
        back = endo_to_convolution(bim, convolution_to_endo(bim, f))
        assert canonical_cell_iso(back, f) is not None


def test_convolution_associative_up_to_iso(pair2):
    _, _, _, bim, _, _ = pair2
    rng = np.random.default_rng(6)
    carrier = bim.monoid.carrier
    f, g, h = (_random_endo(rng, carrier) for _ in range(3))
    lhs = convolution(bim, f, convolution(bim, g, h))
    rhs = convolution(bim, convolution(bim, f, g), h)
    assert canonical_cell_iso(lhs, rhs) is not None


def _relabel(cell, perm):
    sp = cell.span
    apex = FinSet((sp.apex.size,))
    return VCell1(cell.dom, cell.cod,
                  Span(sp.left, apex, sp.right,
                       FinFn(apex, sp.left, sp.f.table[perm]),
                       FinFn(apex, sp.right, sp.g.table[perm])),
                  None)


def test_morita_uniqueness(pair2):
    _, _, _, bim, anti, _ = pair2
    one = identity_cell(bim.monoid.carrier)
    s2 = _relabel(anti.s, np.array([1, 3, 0, 2]))
    cu = convolution_unit(bim)
    anti2 = AntipodeData(
        s2,
        find_unique_2cell(convolution(bim, one, s2), cu),
        find_unique_2cell(convolution(bim, s2, one), cu))
    assert check_oplax_hopf(bim, anti2).ok
    ctx1 = antipode_context(bim, anti)
    ctx2 = antipode_context(bim, anti2)
    phi, psi = morita_uniqueness_iso(bim, ctx1, ctx2)
    ok, info = two_cells_equal(paste([phi, psi]), identity_2cell(ctx1.q))
    assert ok, info
    ok, info = two_cells_equal(paste([psi, phi]), identity_2cell(ctx2.q))
    assert ok, info


def test_module_suite(pair2):
    mon, _, _, bim, _, _ = pair2
    reg = regular_module(mon)
    assert check_oplax_module(mon, reg).ok
    unit = unit_module(bim)
    assert check_oplax_module(mon, unit).ok
    double = tensor_modules(bim, reg, reg)
    assert check_oplax_module(mon, double).ok


def test_tensor_of_strict_module_morphisms(pair2):
    mon, _, _, bim, _, _ = pair2
    reg = regular_module(mon)
    f = identity_cell(reg.carrier)
    phi = canonical_cell_iso(
        compose_chain(reg.rho, f),
        compose_chain(tensor_chain(f, identity_cell(mon.carrier)), reg.rho))
    assert phi is not None and invert_2cell(phi) is not None
    assert check_module_morphism(mon, reg, reg, f, phi).ok
    fg, tau = tensor_module_morphism(bim, reg, reg, reg, reg, (f, phi), (f, phi))
    assert invert_2cell(tau) is not None
    double = tensor_modules(bim, reg, reg)
    assert check_module_morphism(mon, double, double, fg, tau).ok


def test_module_transformation(pair2):
    mon, _, _, _, _, _ = pair2
    reg = regular_module(mon)
    f = identity_cell(reg.carrier)
    phi = canonical_cell_iso(
        compose_chain(reg.rho, f),
        compose_chain(tensor_chain(f, identity_cell(mon.carrier)), reg.rho))
    same = (f, phi)
    assert check_module_transformation(mon, reg, reg, same, same, identity_2cell(f)).ok


def test_module_transformation_detects_mismatched_mediators():
    # a one-element carrier acting on itself through two apex elements over
    # the same feet: swapping them gives a second mediating cell
    monoid = groupoid_structures(discrete_groupoid(1))[0]
    carrier = monoid.carrier
    one, two, feet = FinSet((1,)), FinSet((2,)), FinSet((1, 1))
    rho = VCell1(tensor_fams(carrier, carrier), carrier,
                 Span(feet, two, one, FinFn(two, feet, [0, 0]), FinFn(two, one, [0, 0])),
                 None)
    mod = OplaxModuleData(carrier, rho, None, None)  # only the action is read
    f = identity_cell(carrier)
    phi, psi = identity_2cell(rho), make_2cell(rho, rho, [1, 0])
    report = check_module_transformation(monoid, mod, mod, (f, phi), (f, psi),
                                         identity_2cell(f))
    assert not report.ok
    assert report["action-compat"].counterexample["element"] == [0]
    assert check_module_transformation(monoid, mod, mod, (f, psi), (f, psi),
                                       identity_2cell(f)).ok


def test_module_morphism_checks_fail_on_an_invalid_cell(pair2):
    mon, _, _, _, _, _ = pair2
    reg = regular_module(mon)
    f = identity_cell(reg.carrier)
    src = compose_chain(reg.rho, f)
    tgt = compose_chain(tensor_chain(f, identity_cell(mon.carrier)), reg.rho)
    u = canonical_cell_iso(src, tgt).u.copy()
    u[0] = u[1]  # apex elements 0 and 1 sit over different left feet
    bad = try_make_2cell(src, tgt, u)
    assert isinstance(bad, InvalidCell)
    poisoned = {"invalid": "phi", "element": bad.element}
    report = check_module_morphism(mon, reg, reg, f, bad)
    assert [(r.name, r.ok, r.counterexample) for r in report.results] == [
        ("action-square", False, poisoned), ("unit-square", False, poisoned)]
    report = check_module_transformation(mon, reg, reg, (f, bad), (f, bad),
                                         identity_2cell(f))
    assert [(r.name, r.ok, r.counterexample) for r in report.results] == [
        ("action-compat", False, poisoned)]
    assert report["action-compat"].note == bad.error


MORPHISM_AXIOMS = [
    "monoid-assoc", "monoid-unit-left", "monoid-unit-right",
    "comonoid-coassoc", "comonoid-counit-left", "comonoid-counit-right",
    "mult-comult", "unit-comult", "mult-counit", "unit-counit"]


def _identity_comparisons(bim):
    """The identity 1-cell on the carrier with its four canonical
    comparison cells."""
    f = identity_cell(bim.monoid.carrier)
    ff = tensor_cells(f, f)
    return f, {
        "phi": canonical_cell_iso(compose_chain(bim.monoid.mlt, f),
                                  compose_chain(ff, bim.monoid.mlt)),
        "phi0": canonical_cell_iso(compose_chain(bim.monoid.uni, f), bim.monoid.uni),
        "psi": canonical_cell_iso(compose_chain(bim.comonoid.lcm, ff),
                                  compose_chain(f, bim.comonoid.lcm)),
        "psi0": canonical_cell_iso(bim.comonoid.lcu, compose_chain(f, bim.comonoid.lcu)),
    }


def test_identity_bimonoid_morphism(pair2):
    _, _, _, bim, _, _ = pair2
    f, cells = _identity_comparisons(bim)
    report = check_oplax_bimonoid_morphism(bim, bim, OplaxMorphismData(f, **cells))
    assert report.ok
    assert [r.name for r in report.results] == MORPHISM_AXIOMS


def _failures(report, gen):
    """The names of the failing results, each of which must name gen as
    its invalid generator."""
    failed = [r for r in report.results if not r.ok]
    assert all(r.counterexample["invalid"] == gen for r in failed)
    return [r.name for r in failed]


@pytest.mark.parametrize("gen, expected", [
    ("theta", ["ax1", "ax2a", "ax2b", "ax5", "ax7", "ax9"]),
    ("theta0", ["ax2a", "ax2b", "ax6", "ax8", "ax10"]),
    ("chi", ["ax3", "ax4a", "ax4b", "ax7", "ax9"]),
    ("chi0", ["ax4a", "ax4b", "ax8", "ax10"]),
])
def test_an_invalid_structure_cell_poisons_exactly_its_axioms(pair2, gen, expected):
    bim = pair2[3]
    cells = {name: getattr(bim, name) for name in ("theta", "theta0", "chi", "chi0")}
    cells[gen] = InvalidCell(None, None, None, "poisoned", element=[0])
    report = check_oplax_bimonoid(OplaxBimonoidData(bim.monoid, bim.comonoid, **cells))
    assert _failures(report, gen) == expected
    assert report[expected[0]].note == "poisoned"


@pytest.mark.parametrize("gen, expected", [
    ("phi", ["monoid-assoc", "monoid-unit-left", "monoid-unit-right",
             "mult-comult", "mult-counit"]),
    ("phi0", ["monoid-unit-left", "monoid-unit-right", "unit-comult", "unit-counit"]),
    ("psi", ["comonoid-coassoc", "comonoid-counit-left", "comonoid-counit-right",
             "mult-comult", "unit-comult"]),
    ("psi0", ["comonoid-counit-left", "comonoid-counit-right", "mult-counit",
              "unit-counit"]),
])
def test_an_invalid_comparison_cell_poisons_exactly_its_axioms(pair2, gen, expected):
    bim = pair2[3]
    f, cells = _identity_comparisons(bim)
    cells[gen] = InvalidCell(None, None, None, "poisoned", element=[0])
    report = check_oplax_bimonoid_morphism(bim, bim, OplaxMorphismData(f, **cells))
    assert [r.name for r in report.results] == MORPHISM_AXIOMS
    assert _failures(report, gen) == expected


def _idempotent_bimonoid():
    # the two-element monoid {e, a} with aa = a; not a group
    tb = TrivialBackend()
    m, mm = FinSet((2,)), FinSet((2, 2))
    carrier = VFam(tb, m)
    mlt = VCell1(tensor_fams(carrier, carrier), carrier,
                 Span(mm, mm, m, identity_fn(mm), FinFn(mm, m, [0, 1, 1, 1])), None)
    uni = VCell1(unit_fam(tb), carrier,
                 Span(UNIT, UNIT, m, identity_fn(UNIT), FinFn(UNIT, m, [0])), None)
    lcm = VCell1(carrier, tensor_fams(carrier, carrier),
                 Span(m, m, mm, identity_fn(m), diagonal_fn(m)), None)
    lcu = VCell1(carrier, unit_fam(tb),
                 Span(m, m, UNIT, identity_fn(m), terminal_fn(m)), None)
    monoid = MonoidData(carrier, mlt, uni)
    comonoid = ComonoidData(carrier, lcm, lcu)
    cells = infer_unique_structure_cells(monoid, comonoid)
    assert cells is not None
    return OplaxBimonoidData(monoid, comonoid, *cells)


def test_idempotent_monoid_is_bimonoid_but_not_hopf():
    bim = _idempotent_bimonoid()
    assert check_oplax_bimonoid(bim).ok
    one = identity_cell(bim.monoid.carrier)
    # no 2-cell can collapse convolution with the identity to the unit
    assert find_2cells(convolution(bim, one, one), convolution_unit(bim)) == []
    fus = fusion_cell(bim)
    rev = VCell1(fus.cod, fus.dom, reverse_span(fus.span), None)
    with pytest.raises(NotBimodule):
        check_fusion_inverse(bim, rev)


def test_frobenius_structures(pair2):
    _, _, _, _, _, frob = pair2
    report = check_frobenius(frob)
    assert report.ok
    assert [r.name for r in report.results] == [
        "mon-assoc", "mon-unit-l", "mon-unit-r",
        "comon-coassoc", "comon-counit-l", "comon-counit-r",
        "frob-l", "frob-r"]


def test_broken_comultiplication_is_located(pair2):
    mon, _, cocomp, _, _, _ = pair2
    sp = cocomp.lcm.span
    keep = np.arange(sp.apex.size) != 3  # drop one composable pair
    apex = FinSet((int(keep.sum()),))
    broken = VCell1(cocomp.lcm.dom, cocomp.lcm.cod,
                    Span(sp.left, apex, sp.right,
                         FinFn(apex, sp.left, sp.f.table[keep]),
                         FinFn(apex, sp.right, sp.g.table[keep])), None)
    report = check_frobenius(FrobeniusData(
        mon, ComonoidData(cocomp.carrier, broken, cocomp.lcu)))
    assert not report.ok
    bad = report["frob-l"]
    assert not bad.ok
    # legs of the mismatched signature read (x,y,y,z) and (x,w,w,z)
    assert bad.counterexample == {
        "reason": "signature multiplicities differ",
        "this": {"left": [0, 0, 0, 1], "right": [0, 1, 1, 1]},
        "other": {"left": [0, 1, 1, 0], "right": [0, 0, 0, 0]}}


def test_pair_sizes_one_and_three():
    for n in (1, 3):
        mon, com, _, bim, anti, frob = groupoid_structures(codiscrete_groupoid(n))
        assert check_oplax_bimonoid(bim).ok
        assert check_oplax_hopf(bim, anti).ok
        assert check_frobenius(frob).ok


def test_interchange_legs_are_never_tabulated(monkeypatch):
    # On the codiscrete groupoid with n objects, |A| = n^2 and the
    # middle-four interchange (1 s 1) on A x A x A x A has n^8 apex
    # elements, while every composite it meets has at most n^7: its legs
    # are words that are never tabulated, and no function of n^8 points is
    # evaluated or stored.  A word is evaluated on some points by _reindex
    # and on a whole grid (its table, or a fibre's box) by _grid.
    words, tables, points = [], [], []
    fn_init, reindex, grid = FinFn.__init__, FinFn._reindex, finset_module._grid

    def record_fn(fn, dom, cod, table=None, word=None, factors=None):
        fn_init(fn, dom, cod, table, word, factors)
        if word is not None:
            words.append(fn)
        elif table is not None:
            tables.append(fn)

    def record_reindex(fn, positions):
        points.append(np.size(positions))
        return reindex(fn, positions)

    def record_grid(dom, weights):
        out = grid(dom, weights)
        points.append(out.size)
        return out

    monkeypatch.setattr(FinFn, "__init__", record_fn)
    monkeypatch.setattr(FinFn, "_reindex", record_reindex)
    monkeypatch.setattr(finset_module, "_grid", record_grid)
    _, _, _, bim, anti, _ = groupoid_structures(codiscrete_groupoid(4))
    assert check_oplax_bimonoid(bim).ok
    assert check_oplax_hopf(bim, anti).ok
    big = bim.monoid.carrier.base.size ** 4
    interchange = [fn for fn in words if fn.dom.size == big]
    assert interchange
    # a word's table, once built, is kept as its table attribute
    assert not any("table" in vars(fn) for fn in interchange)
    assert max(fn.dom.size for fn in tables) < big
    assert points and max(points) < big


def test_rows_and_tables_that_ascend_are_never_sorted(monkeypatch):
    # Joining a table reads a table that already ascends in place, and
    # matching apex elements by signature reads rows in place when their
    # first column rises strictly.  A stable sort returns the identity
    # order exactly when its input ascends, so during the trivial
    # codiscrete n=5 bimonoid check no argsort called from the span or
    # finset layer may return it, and no lexsort may return it on rows
    # whose primary key (the last key) rises strictly.
    sorts, matched, joined = [], [], []

    def recording(sort, strict_primary):
        def recorded(keys, *args, **kwargs):
            order = sort(keys, *args, **kwargs)
            if sys._getframe(1).f_globals["__name__"] in ("spanv.span", "spanv.finset"):
                primary = keys[-1] if strict_primary else None
                if primary is None or np.all(np.diff(primary) > 0):
                    sorts.append(np.array_equal(order, np.arange(order.size)))
            return order
        return recorded

    def record(calls, fn):
        return lambda *args: calls.append(1) or fn(*args)

    for name, strict_primary in (("lexsort", True), ("argsort", False)):
        monkeypatch.setattr(np, name, recording(getattr(np, name), strict_primary))
    monkeypatch.setattr(pasting_module, "match_by_signature",
                        record(matched, pasting_module.match_by_signature))
    monkeypatch.setattr(finset_module, "_join", record(joined, finset_module._join))
    _, _, _, bim, _, _ = groupoid_structures(codiscrete_groupoid(5))
    assert check_oplax_bimonoid(bim).ok
    assert matched and joined
    assert not any(sorts)


def test_interchange_against_a_product_builds_no_array_of_its_size(monkeypatch):
    # On codiscrete n=7 the build pulls the interchange, a permuting word
    # on 7^8 points, back along a product of two tables of 343 entries:
    # its 117,649 pairs are a grid sum of the two tables' renamed values.
    # No array of 7^8 entries, which takes at least 7^8 bytes, is built.
    joins, pullback = [], cells_module.pullback

    def record_pullback(f, g):
        if not (f.permutes() and f.dom.size == 7 ** 8 and g.factors is not None):
            return pullback(f, g)
        tracemalloc.start()
        try:
            result = pullback(f, g)
            joins.append((tracemalloc.get_traced_memory()[1], result[0].size))
        finally:
            tracemalloc.stop()
        assert "table" not in vars(f) and "table" not in vars(g)
        return result

    monkeypatch.setattr(cells_module, "pullback", record_pullback)
    monkeypatch.setattr(span_module, "pullback", record_pullback)
    groupoid_structures(codiscrete_groupoid(7))
    assert joins
    assert all(size == 7 ** 6 and peak < 7 ** 8 for peak, size in joins)


def test_a_bimonoid_check_holds_only_the_memory_it_reads():
    # On trivial codiscrete n=8 the legs into the unit are zero-stride
    # tables and the mixing tail is freed after ax2b: the check's traced
    # peak above its instance was 28.2 MB before both, and is 15.2 MB
    _, _, _, bim, _, _ = groupoid_structures(codiscrete_groupoid(8))
    tracemalloc.start()
    try:
        assert check_oplax_bimonoid(bim).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20, peak


def test_shared_composites_are_freed_after_their_last_row(monkeypatch):
    # mix is read by ax1 to ax2b and share by ax5 to ax9: neither is alive
    # while a later row runs, and the results are those of a check that
    # keeps both
    _, _, _, bim, _, _ = groupoid_structures(codiscrete_groupoid(4))
    kept = [r.as_dict() for r in check_oplax_bimonoid(bim).results]
    parts, refs, alive = [], {}, {}
    init, run_axioms = _Parts.__init__, bimonoid_module.run_axioms
    monkeypatch.setattr(_Parts, "__init__", lambda self, *a: parts.append(self) or init(self, *a))

    def watched(name, build):
        def run():
            alive[name] = {shared: ref() is not None for shared, ref in refs.items()}
            faces = build()
            for shared in ("mix", "share"):
                if shared in vars(parts[-1]):
                    refs[shared] = weakref.ref(vars(parts[-1])[shared])
            return faces
        return run

    monkeypatch.setattr(bimonoid_module, "run_axioms", lambda rows, gens: run_axioms(
        [(name, needs, watched(name, build)) for name, needs, build in rows], gens))
    assert [r.as_dict() for r in check_oplax_bimonoid(bim).results] == kept
    assert alive["ax2b"] == {"mix": True} and alive["ax3"] == {"mix": False}
    assert alive["ax9"] == {"mix": False, "share": True}
    assert alive["ax10"] == {"mix": False, "share": False}


def test_a_word_leg_joins_through_its_fibres():
    # On codiscrete n=7, whiskering id x id x theta with d x 1 x 1 pulls
    # back the word leg x -> (x0, x1, x0, x1, x2, ..., x5) of 7^6 points
    # against a product: the 16,807 pairs are read off the word's fibres
    # and the word is never tabulated
    _, _, _, bim, _, _ = groupoid_structures(codiscrete_groupoid(7))
    p = _Parts(bim.monoid, bim.comonoid)
    pre = tensor_chain(p.d, p.one, p.one)
    leg = pre.span.g
    assert leg.word == (0, 1, 0, 1, 2, 3, 4, 5) and leg.dom.size == 7 ** 6
    two = framed(tensor_2chain(p.id2one2, bim.theta), pre=pre)
    assert two.src.span.apex.size == 7 ** 5
    assert "table" not in vars(leg)


def test_every_apex_lists_int64_pair_codes(monkeypatch):
    # codiscrete n=3 nests pullbacks deep enough that codes in a product
    # of every atomic factor would pass int64; pair codes never do
    built = []
    apex_init = SubsetApex.__init__

    def record_apex(apex, *args):
        apex_init(apex, *args)
        built.append(apex)

    monkeypatch.setattr(SubsetApex, "__init__", record_apex)
    _, _, _, bim, anti, frob = groupoid_structures(codiscrete_groupoid(3))
    assert check_oplax_bimonoid(bim).ok
    assert check_oplax_hopf(bim, anti).ok
    assert check_frobenius(frob).ok
    assert built
    assert [apex for apex in built if apex.members.dtype != np.int64] == []


def _recording(made, init):
    def record(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        made.append(obj)
    return record


def test_no_array_of_n7_entries_is_stored(monkeypatch):
    # On codiscrete n=4 the tensor of an identity 2-cell with theta or chi
    # has n^7 apex elements, but every composite it is whiskered into is
    # far smaller: no table, member list or 2-cell map of n^7 entries is
    # stored, here or in any lazy attribute built later.
    made = []
    for cls in (FinFn, SubsetApex, VCell2):
        monkeypatch.setattr(cls, "__init__", _recording(made, cls.__init__))
    if hasattr(FinFn, "_of_table"):
        # computed tables skip __init__ and its range check
        of_table = FinFn._of_table

        def record_table(*args):
            made.append(of_table(*args))
            return made[-1]
        monkeypatch.setattr(FinFn, "_of_table", record_table)
    n = 4
    _, _, _, bim, anti, frob = groupoid_structures(codiscrete_groupoid(n))
    assert check_oplax_bimonoid(bim).ok
    assert check_oplax_hopf(bim, anti).ok
    assert check_frobenius(frob).ok
    assert any(isinstance(obj, SubsetApex) and obj.size >= n ** 7 for obj in made)
    stored = [(type(obj).__name__, name, value.size) for obj in made
              for name, value in vars(obj).items()
              if isinstance(value, np.ndarray) and value.size >= n ** 7]
    assert stored == []


def _tabulated(cell):
    """The same 1-cell with both legs of its span stored as tables."""
    s = cell.span
    span = Span(s.left, s.apex, s.right,
                FinFn(s.apex, s.left, s.f.table), FinFn(s.apex, s.right, s.g.table))
    return VCell1(cell.dom, cell.cod, span, cell.alphas)


def _moved(two, k):
    """two with entry k of its apex map moved: not a 2-cell, built unchecked."""
    u = two.u.copy()
    u[k] = (u[k] + 1) % two.tgt.span.apex.size
    return VCell2(two.src, two.tgt, u)


@pytest.mark.parametrize("moved", ["neither", "left", "right", "both"])
def test_tensor_of_a_mutated_2cell_fails_as_the_tabulated_tensor(moved):
    # chi x theta on product legs against the same tensor with tabulated
    # legs and map; moving entry 1 of chi and entry 2 of theta makes the
    # row-major first failure of "both" theta's, in row 0
    _, _, _, bim, _, _ = groupoid_structures(codiscrete_groupoid(2))
    x = _moved(bim.chi, 1) if moved in ("left", "both") else bim.chi
    y = _moved(bim.theta, 2) if moved in ("right", "both") else bim.theta
    src = tensor_cells(x.src, y.src)
    tgt = tensor_cells(x.tgt, y.tgt)
    assert src.span.f.factors is not None and tgt.span.g.factors is not None
    u = (x.u[:, None] * y.tgt.span.apex.size + y.u[None, :]).ravel()
    if moved == "neither":
        assert np.array_equal(tensor_2cells(x, y).u, u)
        assert np.array_equal(make_2cell(_tabulated(src), _tabulated(tgt), u).u, u)
        return
    with pytest.raises(TriangleViolation) as lazy:
        tensor_2cells(x, y)
    with pytest.raises(TriangleViolation) as tabulated:
        make_2cell(_tabulated(src), _tabulated(tgt), u)
    assert str(lazy.value) == str(tabulated.value)
    assert lazy.value.element == tabulated.value.element
    first = {"left": 1 * y.src.span.apex.size, "right": 2, "both": 2}[moved]
    assert str(lazy.value).endswith("apex element %d" % first)


def _tabulating(monkeypatch):
    """Store every tensor product of functions as a table and every full
    product apex as a member list, as they were before product forms."""
    lazy_fn, lazy_pair = finset_module.tensor_fn, finset_module._product_pair

    def tabulated_fn(dom, cod, fa, fb):
        fn = lazy_fn(dom, cod, fa, fb)
        return fn if fn.word is not None else FinFn(dom, cod, fn.table)

    def listed_pair(a, b):
        apex = lazy_pair(a, b)
        if isinstance(apex, SubsetApex):
            return SubsetApex(a, b, np.arange(apex.size, dtype=np.int64))
        return apex

    for module in (span_module, cells_module):
        monkeypatch.setattr(module, "tensor_fn", tabulated_fn)
    monkeypatch.setattr(finset_module, "_product_pair", listed_pair)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_forms_give_the_tabulated_reports(n, monkeypatch):
    # every line of the hopf and frobenius reports, on the groupoid and on
    # each structure cell with one apex-map entry moved, is the same with
    # product forms as with tables (chi0 maps into a one-element apex, so
    # its moved map is itself)
    def report_lines():
        _, _, _, bim, anti, frob = groupoid_structures(codiscrete_groupoid(n))
        lines = (check_oplax_bimonoid(bim).lines() + check_oplax_hopf(bim, anti).lines()
                 + check_frobenius(frob).lines())
        gens = {"theta": bim.theta, "theta0": bim.theta0, "chi": bim.chi, "chi0": bim.chi0}
        for name, cell in gens.items():
            moved = _moved(cell, cell.u.size - 1)
            mutant = OplaxBimonoidData(bim.monoid, bim.comonoid, **dict(
                gens, **{name: try_make_2cell(cell.src, cell.tgt, moved.u)}))
            lines += check_oplax_bimonoid(mutant).lines() + check_oplax_hopf(mutant, anti).lines()
        return lines

    lazy = report_lines()
    assert any("FAIL" in line for line in lazy)
    _tabulating(monkeypatch)
    assert report_lines() == lazy


_PASTE_AND_MODULE_INPUTS = """
from spanv.cells import VCell1, VFam, tensor_fams, unit_fam
from spanv.finset import UNIT, FinFn, FinSet, identity_fn
from spanv.pasting import paste
from spanv.span import Span
from spanv.structures import MonoidData, regular_module
from spanv.vbackend import TrivialBackend
tb = TrivialBackend()
m, mm = FinSet((2,)), FinSet((2, 2))
carrier = VFam(tb, m)
uni = VCell1(unit_fam(tb), carrier,
             Span(UNIT, UNIT, m, identity_fn(UNIT), FinFn(UNIT, m, [0])), None)

def monoid(table):
    mlt = VCell1(tensor_fams(carrier, carrier), carrier,
                 Span(mm, mm, m, identity_fn(mm), FinFn(mm, m, table)), None)
    return MonoidData(carrier, mlt, uni)

# nand is not associative; the constant 0 is associative but has no unit
for attempt in (lambda: paste([]), lambda: regular_module(monoid([1, 1, 1, 0])),
                lambda: regular_module(monoid([0, 0, 0, 0]))):
    try:
        attempt()
    except Exception as err:
        print(type(err).__name__, err)
"""


def test_empty_paste_and_irregular_monoids_are_typed_under_python_O():
    runs = [subprocess.run([sys.executable, *flags, "-c", _PASTE_AND_MODULE_INPUTS],
                           capture_output=True, text=True, timeout=60)
            for flags in ([], ["-O"])]
    assert runs[0].stdout.splitlines() == [
        "PasteError nothing to paste: no faces given",
        "PasteError the monoid is not strictly associative: no canonical cell for xi",
        "PasteError the monoid is not strictly unital: no canonical cell for xi0",
    ], runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""
