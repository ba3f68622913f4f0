"""Monoid, comonoid and Frobenius structures on enriched spans,
their strict laws, and the report type shared by all checkers."""

from functools import reduce

from ..cells import (
    InvalidCell,
    compose_cells,
    hcompose_2cells,
    identity_2cell,
    identity_cell,
    tensor_2cells,
    tensor_cells,
)
from ..errors import PasteError
from ..pasting import _canonical_iso_ex, paste, two_cells_equal
from ..vbackend import per_check


def compose_chain(*cells):
    """Left-fold of compose_cells; the fixed association used throughout."""
    return reduce(compose_cells, cells)


def tensor_chain(*cells):
    return reduce(tensor_cells, cells)


def tensor_2chain(*twos):
    return reduce(tensor_2cells, twos)


def framed(two, pre=None, post=None):
    """Whisker a 2-cell with 1-cells on either side, first pre, then
    post; None skips a side."""
    if pre is not None:
        two = hcompose_2cells(identity_2cell(pre), two)
    if post is not None:
        two = hcompose_2cells(two, identity_2cell(post))
    return two


class AxiomResult:
    def __init__(self, name, ok, counterexample=None, note=None):
        self.name = name
        self.ok = bool(ok)
        self.counterexample = counterexample
        self.note = note

    def line(self):
        status = "pass" if self.ok else "FAIL"
        extra = ""
        if not self.ok and self.counterexample is not None:
            extra = "  %r" % (self.counterexample,)
        if self.note:
            extra += "  (%s)" % self.note
        return "%-24s %s%s" % (self.name, status, extra)

    def as_dict(self):
        out = {"id": self.name, "status": "pass" if self.ok else "fail"}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note:
            out["note"] = self.note
        return out

    def __repr__(self):
        return "AxiomResult(%s)" % self.line()


class CheckReport:
    def __init__(self, results):
        self.results = list(results)

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def __getitem__(self, name):
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def lines(self):
        return [r.line() for r in self.results]

    def __repr__(self):
        return "\n".join(self.lines())


class MonoidData:
    """A carrier family with multiplication and unit 1-cells."""

    def __init__(self, carrier, mlt, uni):
        self.carrier = carrier
        self.mlt = mlt
        self.uni = uni


class ComonoidData:
    """A carrier family with comultiplication and counit 1-cells."""

    def __init__(self, carrier, lcm, lcu):
        self.carrier = carrier
        self.lcm = lcm
        self.lcu = lcu


class OplaxBimonoidData:
    """A monoid and comonoid on one carrier, glued by four structure 2-cells.

    theta:  mlt then lcm   =>  (lcm x lcm) then (1 s 1) then (mlt x mlt)
    theta0: uni then lcm   =>  uni x uni
    chi:    mlt then lcu   =>  lcu x lcu
    chi0:   uni then lcu   =>  identity on the unit family
    """

    def __init__(self, monoid, comonoid, theta, theta0, chi, chi0):
        self.monoid = monoid
        self.comonoid = comonoid
        self.theta = theta
        self.theta0 = theta0
        self.chi = chi
        self.chi0 = chi0


class AntipodeData:
    """An antipode 1-cell with its two convolution 2-cells into the unit."""

    def __init__(self, s, tau1, tau2):
        self.s = s
        self.tau1 = tau1
        self.tau2 = tau2


class FrobeniusData:
    def __init__(self, monoid, comonoid):
        self.monoid = monoid
        self.comonoid = comonoid


class MoritaContextData:
    """1-cells p, q with 2-cells mu: q (.) p => unit, tau: p (.) q => unit."""

    def __init__(self, p, q, mu, tau):
        self.p = p
        self.q = q
        self.mu = mu
        self.tau = tau


class OplaxModuleData:
    """A right action rho with its two coherence 2-cells.

    xi:  (1 x mlt) then rho  =>  (rho x 1) then rho
    xi0: (1 x uni) then rho  =>  identity on the carrier
    """

    def __init__(self, carrier, rho, xi, xi0):
        self.carrier = carrier
        self.rho = rho
        self.xi = xi
        self.xi0 = xi0


class OplaxMorphismData:
    """A 1-cell f with oplax comparison 2-cells for both structures.

    phi:  mlt_A then f  =>  (f x f) then mlt_B        phi0: uni_A then f => uni_B
    psi:  lcm_A then (f x f)  =>  f then lcm_B        psi0: lcu_A => f then lcu_B
    """

    def __init__(self, f, phi, phi0, psi, psi0):
        self.f = f
        self.phi = phi
        self.phi0 = phi0
        self.psi = psi
        self.psi0 = psi0


def paste_result(name, left_faces, right_faces):
    """Paste both sides of an axiom and compare them; a boundary that
    cannot be bridged fails the axiom with its counterexample."""
    try:
        ok, info = two_cells_equal(paste(left_faces), paste(right_faces))
        return AxiomResult(name, ok, info)
    except PasteError as err:
        return AxiomResult(name, False, err.counterexample, note=str(err))


def invalid_result(name, gen, cell):
    """Fail an axiom whose generator gen failed validation as cell."""
    return AxiomResult(name, False, {"invalid": gen, "element": cell.element},
                       note=cell.error)


def run_axioms(rows, gens):
    """Run a table of (name, needs, build) rows over the generators gens.

    An axiom that needs a generator which failed validation fails with
    the first such generator in its needs; every other axiom pastes the
    two sides build() returns and compares them.
    """
    results = []
    for name, needs, build in rows:
        bad = [gen for gen in needs if isinstance(gens[gen], InvalidCell)]
        if bad:
            results.append(invalid_result(name, bad[0], gens[bad[0]]))
        else:
            results.append(paste_result(name, *build()))
    return results


def _iso_result(name, a, b):
    cell, info = _canonical_iso_ex(a, b)
    return AxiomResult(name, cell is not None, info)


@per_check
def check_strict_monoid(mon):
    """Associativity and unit laws, up to the canonical structural bridges."""
    m, j = mon.mlt, mon.uni
    one = identity_cell(mon.carrier)
    return CheckReport([
        _iso_result("mon-assoc",
                    compose_chain(tensor_chain(m, one), m),
                    compose_chain(tensor_chain(one, m), m)),
        _iso_result("mon-unit-l", compose_chain(tensor_chain(j, one), m), one),
        _iso_result("mon-unit-r", compose_chain(tensor_chain(one, j), m), one),
    ])


@per_check
def check_strict_comonoid(com):
    d, e = com.lcm, com.lcu
    one = identity_cell(com.carrier)
    return CheckReport([
        _iso_result("comon-coassoc",
                    compose_chain(d, tensor_chain(d, one)),
                    compose_chain(d, tensor_chain(one, d))),
        _iso_result("comon-counit-l", compose_chain(d, tensor_chain(e, one)), one),
        _iso_result("comon-counit-r", compose_chain(d, tensor_chain(one, e)), one),
    ])


@per_check
def check_frobenius(fr):
    """Monoid and comonoid laws plus the two exchange laws."""
    m = fr.monoid.mlt
    d = fr.comonoid.lcm
    one = identity_cell(fr.monoid.carrier)
    middle = compose_chain(m, d)
    results = check_strict_monoid(fr.monoid).results
    results += check_strict_comonoid(fr.comonoid).results
    results.append(_iso_result(
        "frob-l", compose_chain(tensor_chain(d, one), tensor_chain(one, m)), middle))
    results.append(_iso_result(
        "frob-r", compose_chain(tensor_chain(one, d), tensor_chain(m, one)), middle))
    return CheckReport(results)
