"""The convolution product on endo-1-cells of a bimonoid carrier,
oplax inverses and antipodes, and the fusion reformulation."""

import itertools

from ..cells import (
    InvalidCell,
    hcompose_2cells,
    identity_2cell,
    identity_cell,
    invert_2cell,
    tensor_2cells,
    tensor_cells,
)
from ..errors import NotBimodule, NotFirm
from ..pasting import canonical_cell_iso, find_2cells, paste, two_cells_equal
from ..vbackend import per_check
from .base import (
    AxiomResult,
    CheckReport,
    MoritaContextData,
    compose_chain,
    framed,
    invalid_result,
    tensor_chain,
)


def convolution(bim, f, g):
    """lcm, then f x g, then mlt."""
    return compose_chain(bim.comonoid.lcm, tensor_cells(f, g), bim.monoid.mlt)


def convolution_unit(bim):
    """lcu then uni: the unit object of the convolution product."""
    return compose_chain(bim.comonoid.lcu, bim.monoid.uni)


def antipode_boundaries(bim, s):
    """Source and target 1-cells of an antipode s's two convolution cells."""
    one = identity_cell(bim.monoid.carrier)
    unit = convolution_unit(bim)
    return {"tau1": (convolution(bim, one, s), unit),
            "tau2": (convolution(bim, s, one), unit)}


def convolution_2cells(bim, x, y):
    """The convolution of two 2-cells, whiskered by lcm and mlt."""
    return framed(tensor_2cells(x, y), pre=bim.comonoid.lcm, post=bim.monoid.mlt)


def _firmness(bim, ctx, names=("tau", "mu")):
    """The two defining equations with invertibility, plus the inverses.
    If tau or mu (called by names) failed validation, the result is one
    failed antipode-cells law naming the first of them, and no inverses."""
    for name, cell in zip(names, (ctx.tau, ctx.mu)):
        if isinstance(cell, InvalidCell):
            return [invalid_result("antipode-cells", name, cell)], None, None
    id_p = identity_2cell(ctx.p)
    id_q = identity_2cell(ctx.q)
    results = []
    side_p = convolution_2cells(bim, id_p, ctx.mu)
    other_p = convolution_2cells(bim, ctx.tau, id_p)
    ok, info = two_cells_equal(side_p, other_p)
    results.append(AxiomResult("pqp-exchange", ok, info))
    alpha = invert_2cell(side_p)
    results.append(AxiomResult(
        "pqp-invertible", alpha is not None and invert_2cell(other_p) is not None))
    side_q = convolution_2cells(bim, id_q, ctx.tau)
    other_q = convolution_2cells(bim, ctx.mu, id_q)
    ok, info = two_cells_equal(side_q, other_q)
    results.append(AxiomResult("qpq-exchange", ok, info))
    beta = invert_2cell(side_q)
    results.append(AxiomResult(
        "qpq-invertible", beta is not None and invert_2cell(other_q) is not None))
    return results, alpha, beta


@per_check
def check_oplax_inverse(bim, ctx):
    """Check that a Morita context on the carrier's endo-cells is firm."""
    results, _, _ = _firmness(bim, ctx)
    return CheckReport(results)


def morita_uniqueness_iso(bim, ctx1, ctx2):
    """The canonical isomorphism between the q-sides of two firm contexts.

    Returns (phi, psi), mutually inverse 2-cells between the two q
    1-cells, built from the inverses guaranteed by firmness.  Raises
    NotFirm naming the first law that fails if a context is not firm.
    """
    results1, alpha1, beta1 = _firmness(bim, ctx1)
    results2, alpha2, beta2 = _firmness(bim, ctx2)
    failed = [r for r in results1 + results2 if not r.ok]
    if failed:
        invalid = (failed[0].counterexample or {}).get("invalid")
        raise NotFirm("%s fails" % failed[0].name if invalid is None else
                      "%s is not a 2-cell: %s" % (invalid, failed[0].note))
    id_q1 = identity_2cell(ctx1.q)
    id_q2 = identity_2cell(ctx2.q)

    def conv2(x, y):
        return convolution_2cells(bim, x, y)

    phi = paste([
        beta1,
        conv2(conv2(id_q1, alpha2), id_q1),
        conv2(conv2(ctx1.mu, id_q2), ctx1.tau),
    ])
    psi = paste([
        beta2,
        conv2(conv2(id_q2, alpha1), id_q2),
        conv2(conv2(ctx2.mu, id_q1), ctx2.tau),
    ])
    ok1, info1 = two_cells_equal(paste([phi, psi]), id_q1)
    ok2, info2 = two_cells_equal(paste([psi, phi]), id_q2)
    # cannot fail: both contexts are firm, and firm inverses are unique up to phi and psi
    assert ok1, info1
    assert ok2, info2
    return phi, psi


def antipode_context(bim, antipode):
    """The Morita context carried by an antipode: p is the identity cell."""
    one = identity_cell(bim.monoid.carrier)
    return MoritaContextData(one, antipode.s, antipode.tau2, antipode.tau1)


@per_check
def check_oplax_hopf(bim, antipode):
    """Check an antipode: its context on (identity, s) must be firm."""
    results, _, _ = _firmness(bim, antipode_context(bim, antipode), ("tau1", "tau2"))
    return CheckReport(results)


def fusion_cell(bim):
    """(1 x lcm) then (mlt x 1) on the doubled carrier: the identity
    carried across by convolution_to_endo."""
    return convolution_to_endo(bim, identity_cell(bim.monoid.carrier))


def convolution_to_endo(bim, f):
    """(1 x lcm) then (1 x f x 1) then (mlt x 1)."""
    one = identity_cell(bim.monoid.carrier)
    return compose_chain(
        tensor_chain(one, bim.comonoid.lcm),
        tensor_chain(one, f, one),
        tensor_chain(bim.monoid.mlt, one),
    )


def endo_to_convolution(bim, g):
    """(uni x 1) then g then (1 x lcu)."""
    one = identity_cell(bim.monoid.carrier)
    return compose_chain(
        tensor_chain(bim.monoid.uni, one), g, tensor_chain(one, bim.comonoid.lcu))


def _is_bimodule_endo(bim, g):
    """Left linearity for (mlt x 1) and right colinearity for (1 x lcm)."""
    one = identity_cell(bim.monoid.carrier)
    act = tensor_chain(bim.monoid.mlt, one)
    coact = tensor_chain(one, bim.comonoid.lcm)
    linear = canonical_cell_iso(
        compose_chain(act, g), compose_chain(tensor_chain(one, g), act))
    colinear = canonical_cell_iso(
        compose_chain(g, coact), compose_chain(coact, tensor_chain(g, one)))
    return linear is not None and colinear is not None


@per_check
def check_fusion_inverse(bim, candidate):
    """Check a candidate oplax inverse of the fusion cell.

    The candidate must be a module and comodule endomorphism of the
    doubled carrier (else NotBimodule).  Searches for the two collapse
    2-cells and verifies the exchange equations with invertibility.
    """
    if not _is_bimodule_endo(bim, candidate):
        raise NotBimodule("candidate is not linear and colinear")
    fus = fusion_cell(bim)
    if not _is_bimodule_endo(bim, fus):
        raise NotBimodule("fusion cell is not linear and colinear")
    doubled = tensor_cells(
        identity_cell(bim.monoid.carrier), identity_cell(bim.monoid.carrier))
    t1s = find_2cells(compose_chain(fus, candidate), doubled)
    t2s = find_2cells(compose_chain(candidate, fus), doubled)
    id_c = identity_2cell(candidate)
    id_f = identity_2cell(fus)
    for t1, t2 in itertools.product(t1s, t2s):
        pairs = [
            (hcompose_2cells(id_c, t1), hcompose_2cells(t2, id_c)),
            (hcompose_2cells(t1, id_f), hcompose_2cells(id_f, t2)),
        ]
        ok = all(two_cells_equal(a, b)[0] for a, b in pairs)
        ok = ok and all(
            invert_2cell(x) is not None for a, b in pairs for x in (a, b))
        if ok:
            return CheckReport([
                AxiomResult("fusion-collapse-left", True),
                AxiomResult("fusion-collapse-right", True),
            ])
    return CheckReport([AxiomResult(
        "fusion-inverse", False,
        {"candidates": [len(t1s), len(t2s)]},
        note="no pair of collapse cells satisfies the exchange equations")])
