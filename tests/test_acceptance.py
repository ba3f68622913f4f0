"""End-to-end acceptance checks, one per shipped guarantee.

Each test covers one headline property of the package and prints a
single pass/FAIL line, so `pytest -s tests/test_acceptance.py` reads as
a checklist.  All assertions are exact; nothing here is approximate.
"""

import contextlib
import itertools
import json
import re
from pathlib import Path

import numpy as np

from spanv.cells import VCell1, cells_equal, identity_cell, invert_2cell
from spanv.cli import build_report, load_structure, main, run_checks
from spanv.finset import FinFn, FinSet, reindex_fn
from spanv.hopfcat import (
    check_frobenius_vcat,
    check_hopf_vcat,
    codiscrete_groupoid,
    discrete_groupoid,
    frobcat_to_spanv,
    group_algebra_hopf,
    groupoid_structures,
    groupoid_to_hopfcat,
    hopfcat_data_equal,
    hopfcat_to_spanv,
    mat_frobenius_example,
    spanv_to_hopfcat,
    vopcat_as_comonoid,
)
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
    antipode_context,
    check_frobenius,
    check_fusion_inverse,
    check_module_morphism,
    check_oplax_bimonoid,
    check_oplax_hopf,
    check_oplax_module,
    check_strict_comonoid,
    compose_chain,
    convolution,
    convolution_to_endo,
    convolution_unit,
    endo_to_convolution,
    fusion_cell,
    infer_unique_structure_cells,
    morita_uniqueness_iso,
    regular_module,
    tensor_chain,
    tensor_module_morphism,
    tensor_modules,
    unit_module,
)
from spanv.vbackend import FinSetBackend, MatBackend, left_kan_along_function

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

LAWS = ["mon-assoc", "mon-unit-l", "mon-unit-r",
        "comon-coassoc", "comon-counit-l", "comon-counit-r"]
AXIOMS = ["ax1", "ax2a", "ax2b", "ax3", "ax4a", "ax4b",
          "ax5", "ax6", "ax7", "ax8", "ax9", "ax10"]
FIRMNESS = ["pqp-exchange", "pqp-invertible", "qpq-exchange", "qpq-invertible"]


@contextlib.contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print("FAIL  %s" % label)
        raise
    print("pass  %s" % label)


def _pair(n):
    return groupoid_structures(codiscrete_groupoid(n))


def test_pair_bimonoid_axioms_and_forced_cells():
    with verdict("pair carriers satisfy every bimonoid axiom and their cells are forced"):
        for n in (1, 2, 3):
            mon, com, _, bim, _, _ = _pair(n)
            report = check_oplax_bimonoid(bim)
            assert report.ok
            assert [r.name for r in report.results] == LAWS + AXIOMS
            cells = infer_unique_structure_cells(mon, com)
            assert cells is not None
            for found, given in zip(cells, (bim.theta, bim.theta0, bim.chi, bim.chi0)):
                assert np.array_equal(found.u, given.u)


def test_pair_reversal_antipode_is_firm():
    with verdict("the pair-reversal antipode passes the Hopf test with all composites invertible"):
        for n in (1, 2, 3):
            _, _, _, bim, anti, _ = _pair(n)
            base = anti.s.dom.base
            sw = anti.s.span
            for pos in range(sw.apex.size):
                a, b = base.decode([sw.f.table[pos]])[0]
                assert tuple(base.decode([sw.g.table[pos]])[0]) == (b, a)
            # the collapse cells pick the triples (a,b,a) and (a,b,b)
            for tau, third in ((anti.tau1, 0), (anti.tau2, 1)):
                src, tgt = tau.src.span, tau.tgt.span
                for pos in range(src.apex.size):
                    a, b = base.decode([src.f.table[pos]])[0]
                    triple = tuple(tgt.apex.decode([tau.u[pos]])[0])
                    assert triple == (a, b, (a, b)[third])
            report = check_oplax_hopf(bim, anti)
            assert report.ok
            assert [r.name for r in report.results] == FIRMNESS


def test_fusion_matches_template_and_reverses():
    with verdict("fusion is the splitting template, non-invertible, undone by its reverse"):
        for n in (1, 2, 3):
            _, _, _, bim, _, _ = _pair(n)
            fus = fusion_cell(bim)
            x3, x4 = FinSet((n, n, n)), FinSet((n, n, n, n))
            template = Span(x4, x3, x4,
                            reindex_fn(x3, x4, [0, 1, 1, 2]),
                            reindex_fn(x3, x4, [0, 2, 1, 2]))
            assert spans_isomorphic(fus.span, template) is not None
            seen = set()
            for pos in range(fus.span.apex.size):
                a, b, b2, c = x4.decode([fus.span.f.table[pos]])[0]
                a2, c2, b3, c3 = x4.decode([fus.span.g.table[pos]])[0]
                assert b2 == b and (a2, c2, b3, c3) == (a, c, b, c)
                seen.add((a, b, c))
            assert len(seen) == fus.span.apex.size == n ** 3
            if n >= 2:
                assert not span_legs_bijective(fus.span)
        for n in (1, 2):
            _, _, _, bim, _, _ = _pair(n)
            fus = fusion_cell(bim)
            rev = VCell1(fus.cod, fus.dom, reverse_span(fus.span), None)
            assert check_fusion_inverse(bim, rev).ok


def _witness_name(cell, pos):
    # an element of either exchange composite is fully named by its
    # composable input triple (x, z, q) and the output splitting point y
    x, z, z2, q = cell.span.left.decode([cell.span.f.table[pos]])[0]
    assert z == z2
    y = cell.span.right.decode([cell.span.g.table[pos]])[0][1]
    return (x, z, q, y)


def test_frobenius_laws_with_identity_witness():
    with verdict("point and pair structures are Frobenius, witnessed by the identity"):
        for n in (1, 2, 3):
            _, _, _, _, _, frob = groupoid_structures(discrete_groupoid(n))
            assert check_frobenius(frob).ok
        for n in (1, 2, 3):
            _, _, _, _, _, frob = _pair(n)
            assert check_frobenius(frob).ok
            m, d = frob.monoid.mlt, frob.comonoid.lcm
            one = identity_cell(frob.monoid.carrier)
            middle = compose_chain(m, d)
            for side in (compose_chain(tensor_chain(d, one), tensor_chain(one, m)),
                         compose_chain(tensor_chain(one, d), tensor_chain(m, one))):
                witnesses = find_2cells(side, middle)
                assert len(witnesses) == 1
                w = witnesses[0]
                assert side.span.apex.size == n ** 4
                for pos in range(side.span.apex.size):
                    assert _witness_name(side, pos) == _witness_name(middle, int(w.u[pos]))


def test_enriched_instances_bridge_and_roundtrip():
    with verdict("enriched instances pass directly, bridge to passing structures, and roundtrip"):
        hopf_cats = [groupoid_to_hopfcat(codiscrete_groupoid(n)) for n in (1, 2, 3)]
        hopf_cats += [group_algebra_hopf(p, k) for p in (2, 3) for k in (2, 3)]
        assert isinstance(hopf_cats[0].backend, FinSetBackend)
        for h in hopf_cats:
            assert check_hopf_vcat(h).ok
            bim, anti = hopfcat_to_spanv(h)
            assert check_oplax_bimonoid(bim).ok
            assert check_oplax_hopf(bim, anti).ok
            assert hopfcat_data_equal(spanv_to_hopfcat(bim, anti), h)
        for p in (2, 3):
            fc = mat_frobenius_example(p, 3)
            assert check_frobenius_vcat(fc).ok
            assert check_frobenius(frobcat_to_spanv(fc)).ok
            assert check_strict_comonoid(vopcat_as_comonoid(fc)).ok


def _relabel(cell, perm):
    sp = cell.span
    apex = FinSet((sp.apex.size,))
    return VCell1(cell.dom, cell.cod,
                  Span(sp.left, apex, sp.right,
                       FinFn(apex, sp.left, sp.f.table[perm]),
                       FinFn(apex, sp.right, sp.g.table[perm])),
                  None)


def test_context_comparison_is_elementwise_identity():
    with verdict("two firm contexts compare through mutually inverse cells, elementwise"):
        _, _, _, bim, anti, _ = _pair(2)
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
        for first, second, q in ((phi, psi, ctx1.q), (psi, phi, ctx2.q)):
            comp = paste([first, second])
            assert two_cells_equal(comp, identity_2cell(q))[0]
            assert np.array_equal(comp.u, np.arange(comp.src.span.apex.size))


def _trivial_endo(rng, carrier):
    base = carrier.base
    na = int(rng.integers(1, 6))
    apex = FinSet((na,))
    return VCell1(carrier, carrier,
                  Span(base, apex, base,
                       FinFn(apex, base, rng.integers(0, base.size, size=na)),
                       FinFn(apex, base, rng.integers(0, base.size, size=na))),
                  None)


def _mat_endo(rng, carrier):
    backend, base = carrier.backend, carrier.base
    na = int(rng.integers(1, 4))
    apex = FinSet((na,))
    obj = carrier.objs[0]
    alphas = [backend.mor(rng.integers(0, backend.prime, size=obj * obj), obj, obj)
              for _ in range(na)]
    return VCell1(carrier, carrier,
                  Span(base, apex, base,
                       FinFn(apex, base, np.zeros(na, dtype=np.int64)),
                       FinFn(apex, base, np.zeros(na, dtype=np.int64))),
                  alphas)


def test_convolution_endomorphism_correspondence():
    with verdict("convolution corresponds to composition of bimodule endocells, 100 rounds each"):
        mat_bim, _ = hopfcat_to_spanv(group_algebra_hopf(3, 2))
        for bim, make, seed in ((_pair(2)[3], _trivial_endo, 7),
                                (mat_bim, _mat_endo, 11)):
            one = identity_cell(bim.monoid.carrier)
            assert cells_equal(convolution_to_endo(bim, one), fusion_cell(bim))
            rng = np.random.default_rng(seed)
            carrier = bim.monoid.carrier
            for _ in range(100):
                f = make(rng, carrier)
                g = make(rng, carrier)
                lhs = convolution_to_endo(bim, convolution(bim, f, g))
                rhs = compose_chain(convolution_to_endo(bim, f),
                                    convolution_to_endo(bim, g))
                assert canonical_cell_iso(lhs, rhs) is not None
                back = endo_to_convolution(bim, convolution_to_endo(bim, f))
                assert canonical_cell_iso(back, f) is not None


def test_module_suite_and_strict_tensor():
    with verdict("regular, unit and tensor modules pass; strict morphisms tensor to strict"):
        mon, _, _, bim, _, _ = _pair(2)
        reg = regular_module(mon)
        assert check_oplax_module(mon, reg).ok
        unit = unit_module(bim)
        assert check_oplax_module(mon, unit).ok
        double = tensor_modules(bim, reg, reg)
        assert check_oplax_module(mon, double).ok
        f = identity_cell(reg.carrier)
        phi = canonical_cell_iso(
            compose_chain(reg.rho, f),
            compose_chain(tensor_chain(f, identity_cell(mon.carrier)), reg.rho))
        assert phi is not None and invert_2cell(phi) is not None
        assert check_module_morphism(mon, reg, reg, f, phi).ok
        fg, tau = tensor_module_morphism(bim, reg, reg, reg, reg, (f, phi), (f, phi))
        assert invert_2cell(tau) is not None
        assert check_module_morphism(mon, double, double, fg, tau).ok


def test_pushforward_dimension_law_exhaustive():
    with verdict("pushforward dimensions add up fibrewise for every map of sets up to size 5"):
        be = MatBackend(prime=2)
        rng = np.random.default_rng(9)
        checked = 0
        for ns in range(1, 6):
            for ny in range(1, 6):
                s, y = FinSet((ns,)), FinSet((ny,))
                dims = [int(d) for d in rng.integers(1, 5, size=ns)]
                for table in itertools.product(range(ny), repeat=ns):
                    g = FinFn(s, y, np.array(table, dtype=np.int64))
                    out, injs = left_kan_along_function(be, g, dims)
                    for point in range(ny):
                        assert out[point] == sum(
                            d for i, d in enumerate(dims) if table[i] == point)
                    for i, inj in enumerate(injs):
                        assert inj.shape == (dims[i], out[table[i]])
                    checked += 1
        assert checked == sum(ny ** ns for ns in range(1, 6) for ny in range(1, 6))


# one bumped integer each: apex maps of all four structure cells, both
# collapse cells, and three leg tables
MUTATIONS = [
    (("cells", "theta", 0), 8),
    (("cells", "theta", 5), 8),
    (("cells", "theta0", 0), 4),
    (("cells", "theta0", 1), 4),
    (("cells", "chi", 0), 16),
    (("cells", "chi", 3), 16),
    (("cells", "chi", 7), 16),
    (("antipode", "tau1", 1), 4),
    (("antipode", "tau2", 2), 4),
    (("mlt", "g", 0), 4),
    (("uni", "g", 0), 4),
    (("lcm", "f", 1), 4),
]


def test_single_point_mutations_are_detected():
    with verdict("each of 12 single-point fixture mutations fails with a concrete counterexample"):
        raw = (FIXTURES / "x2-hopf.json").read_bytes()
        pristine = json.loads(raw)
        kind, structure = load_structure(json.loads(raw))
        assert run_checks(kind, structure).ok
        for path, modulus in MUTATIONS:
            data = json.loads(raw)
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = (node[path[-1]] + 1) % modulus
            assert data != pristine
            kind, structure = load_structure(data)
            report = build_report(kind, run_checks(kind, structure),
                                  json.dumps(data).encode())
            failed = [r for r in report["results"] if r["status"] == "fail"]
            assert len(failed) >= 1
            elements = [r["counterexample"]["element"] for r in failed
                        if isinstance(r.get("counterexample"), dict)
                        and r["counterexample"].get("element") is not None]
            assert elements and all(
                isinstance(e, list) and all(isinstance(v, int) for v in e)
                for e in elements)
            assert report["summary"]["failed"] == len(failed)


_STAMP = re.compile(rb'"generated_at": "[^"]*"')


def _normalised(raw):
    return _STAMP.sub(b'"generated_at": null', raw)


def test_reports_are_byte_stable_with_documented_exit_codes(tmp_path):
    with verdict("shipped fixtures reproduce their reports byte for byte; exit codes hold"):
        for stem, want in (("x2-hopf", 0), ("mat-frobenius", 0),
                           ("corrupted-theta0", 1)):
            report_path = tmp_path / (stem + "-report.json")
            status = main(["check", str(FIXTURES / (stem + ".json")),
                           "--report", str(report_path), "--quiet"])
            assert status == want
            golden = (GOLDEN / (stem + "-report.json")).read_bytes()
            assert _normalised(report_path.read_bytes()) == _normalised(golden)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 2
        assert main(["check", str(tmp_path / "absent.json")]) == 2
