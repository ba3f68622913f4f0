"""Oplax right modules over a monoid: the two coherence axioms, the
regular and unit modules, and the tensor of modules over a bimonoid."""

from ..cells import (
    InvalidCell,
    braiding_cell,
    identity_2cell,
    identity_cell,
    tensor_fams,
    unit_fam,
)
from ..pasting import canonical_cell_iso, paste_with_boundaries
from .base import (
    AxiomResult,
    CheckReport,
    OplaxModuleData,
    compose_chain,
    framed,
    paste_result,
    tensor_2chain,
    tensor_chain,
)


def check_oplax_module(monoid, mod):
    """The pentagon-style and triangle-style axioms for an oplax action."""
    m, j = monoid.mlt, monoid.uni
    one_m = identity_cell(monoid.carrier)
    one_x = identity_cell(mod.carrier)
    id2_m = identity_2cell(one_m)
    rho, xi, xi0 = mod.rho, mod.xi, mod.xi0
    results = []
    if isinstance(xi, InvalidCell):
        info = {"invalid": "xi", "element": xi.element}
        results.append(AxiomResult("module-assoc", False, info, note=xi.error))
        results.append(AxiomResult("module-unit", False, info, note=xi.error))
        return CheckReport(results)
    left = [
        framed(xi, pre=tensor_chain(one_x, m, one_m)),
        framed(tensor_2chain(xi, id2_m), post=rho),
    ]
    right = [
        framed(xi, pre=tensor_chain(one_x, one_m, m)),
        framed(xi, pre=tensor_chain(rho, one_m, one_m)),
    ]
    results.append(paste_result("module-assoc", left, right))
    if isinstance(xi0, InvalidCell):
        results.append(AxiomResult(
            "module-unit", False,
            {"invalid": "xi0", "element": xi0.element}, note=xi0.error))
        return CheckReport(results)
    left = [
        framed(xi, pre=tensor_chain(one_x, j, one_m)),
        framed(tensor_2chain(xi0, id2_m), post=rho),
    ]
    results.append(paste_result("module-unit", left, [identity_2cell(rho)]))
    return CheckReport(results)


def regular_module(monoid):
    """The monoid acting on itself; the structure cells are the canonical
    associativity and unit bridges."""
    m, j = monoid.mlt, monoid.uni
    one = identity_cell(monoid.carrier)
    xi = canonical_cell_iso(
        compose_chain(tensor_chain(one, m), m),
        compose_chain(tensor_chain(m, one), m))
    xi0 = canonical_cell_iso(compose_chain(tensor_chain(one, j), m), one)
    assert xi is not None and xi0 is not None
    return OplaxModuleData(monoid.carrier, m, xi, xi0)


def unit_module(bim):
    """The unit family as a module; the action is the counit and the
    structure cells are the counit halves of the bimonoid structure."""
    m = bim.monoid.mlt
    e = bim.comonoid.lcu
    one_i = identity_cell(unit_fam(bim.monoid.carrier.backend))
    one_m = identity_cell(bim.monoid.carrier)
    src = compose_chain(tensor_chain(one_i, m), e)
    tgt = compose_chain(tensor_chain(e, one_m), e)
    xi = paste_with_boundaries(src, [bim.chi], tgt)
    return OplaxModuleData(one_i.dom, e, xi, bim.chi0)


def tensor_modules(bim, modx, mody):
    """The module structure on a tensor of modules over a bimonoid.

    The action shares the acting factor through the comultiplication;
    the coherence cells combine the bimonoid's theta cells with the two
    modules' own cells.
    """
    m, j = bim.monoid.mlt, bim.monoid.uni
    carrier = bim.monoid.carrier
    one_m = identity_cell(carrier)
    one_x = identity_cell(modx.carrier)
    one_y = identity_cell(mody.carrier)
    d = bim.comonoid.lcm
    xy = tensor_fams(modx.carrier, mody.carrier)
    s_ym = braiding_cell(mody.carrier, carrier)
    rho = compose_chain(
        tensor_chain(one_x, one_y, d),
        tensor_chain(one_x, s_ym, one_m),
        tensor_chain(modx.rho, mody.rho))
    tail = compose_chain(
        tensor_chain(one_x, s_ym, one_m), tensor_chain(modx.rho, mody.rho))
    id2_xy = identity_2cell(identity_cell(xy))
    s_mm = braiding_cell(carrier, carrier)
    s_ymm = braiding_cell(mody.carrier, tensor_fams(carrier, carrier))
    share = compose_chain(
        tensor_chain(one_x, one_y, d, d),
        tensor_chain(one_x, one_y, one_m, s_mm, one_m),
        tensor_chain(one_x, s_ymm, one_m, one_m))
    xi = paste_with_boundaries(
        compose_chain(tensor_chain(one_x, one_y, m), rho),
        [
            framed(tensor_2chain(id2_xy, bim.theta), post=tail),
            framed(tensor_2chain(modx.xi, mody.xi), pre=share),
        ],
        compose_chain(tensor_chain(rho, one_m), rho))
    xi0 = paste_with_boundaries(
        compose_chain(tensor_chain(one_x, one_y, j), rho),
        [
            framed(tensor_2chain(id2_xy, bim.theta0), post=tail),
            tensor_2chain(modx.xi0, mody.xi0),
        ],
        identity_cell(xy))
    return OplaxModuleData(xy, rho, xi, xi0)
