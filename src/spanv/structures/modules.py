"""Oplax right modules over a monoid: the two coherence axioms, the
regular and unit modules, and the tensor of modules over a bimonoid."""

from ..cells import (
    braiding_cell,
    identity_2cell,
    identity_cell,
    tensor_fams,
    unit_fam,
)
from ..errors import PasteError
from ..pasting import canonical_cell_iso, paste_with_boundaries
from ..vbackend import per_check
from .base import (
    CheckReport,
    OplaxModuleData,
    compose_chain,
    framed,
    run_axioms,
    tensor_2chain,
    tensor_chain,
)


def module_boundaries(monoid, carrier, rho):
    """Source and target 1-cells of an action rho's two coherence cells."""
    one_x = identity_cell(carrier)
    one_m = identity_cell(monoid.carrier)
    return {
        "xi": (compose_chain(tensor_chain(one_x, monoid.mlt), rho),
               compose_chain(tensor_chain(rho, one_m), rho)),
        "xi0": (compose_chain(tensor_chain(one_x, monoid.uni), rho), one_x),
    }


@per_check
def check_oplax_module(monoid, mod):
    """The pentagon-style and triangle-style axioms for an oplax action."""
    m, j = monoid.mlt, monoid.uni
    one_m = identity_cell(monoid.carrier)
    one_x = identity_cell(mod.carrier)
    id2_m = identity_2cell(one_m)
    rho, xi, xi0 = mod.rho, mod.xi, mod.xi0
    rows = [
        ("module-assoc", ("xi",), lambda: (
            [framed(xi, pre=tensor_chain(one_x, m, one_m)),
             framed(tensor_2chain(xi, id2_m), post=rho)],
            [framed(xi, pre=tensor_chain(one_x, one_m, m)),
             framed(xi, pre=tensor_chain(rho, one_m, one_m))])),
        ("module-unit", ("xi", "xi0"), lambda: (
            [framed(xi, pre=tensor_chain(one_x, j, one_m)),
             framed(tensor_2chain(xi0, id2_m), post=rho)],
            [identity_2cell(rho)])),
    ]
    return CheckReport(run_axioms(rows, {"xi": xi, "xi0": xi0}))


def regular_module(monoid):
    """The monoid acting on itself; the structure cells are the canonical
    associativity and unit bridges."""
    m, j = monoid.mlt, monoid.uni
    one = identity_cell(monoid.carrier)
    xi = canonical_cell_iso(
        compose_chain(tensor_chain(one, m), m),
        compose_chain(tensor_chain(m, one), m))
    xi0 = canonical_cell_iso(compose_chain(tensor_chain(one, j), m), one)
    if xi is None or xi0 is None:
        raise PasteError("the monoid is not strictly %s: no canonical cell for %s"
                         % (("associative", "xi") if xi is None else ("unital", "xi0")))
    return OplaxModuleData(monoid.carrier, m, xi, xi0)


def unit_module(bim):
    """The unit family as a module; the action is the counit and the
    structure cells are the counit halves of the bimonoid structure."""
    e = bim.comonoid.lcu
    unit = unit_fam(bim.monoid.carrier.backend)
    src, tgt = module_boundaries(bim.monoid, unit, e)["xi"]
    return OplaxModuleData(unit, e, paste_with_boundaries(src, [bim.chi], tgt), bim.chi0)


def _tensor_action(bim, modx, mody):
    """The action on X x Y over a bimonoid: (share, rho), where share is
    (1 x 1 x lcm) then (1 x s x 1) and rho follows it with (rho_X x rho_Y)."""
    carrier = bim.monoid.carrier
    one_x = identity_cell(modx.carrier)
    share = compose_chain(
        tensor_chain(one_x, identity_cell(mody.carrier), bim.comonoid.lcm),
        tensor_chain(one_x, braiding_cell(mody.carrier, carrier), identity_cell(carrier)))
    return share, compose_chain(share, tensor_chain(modx.rho, mody.rho))


def tensor_modules(bim, modx, mody):
    """The module structure on a tensor of modules over a bimonoid.

    The action shares the acting factor through the comultiplication;
    the coherence cells combine the bimonoid's theta cells with the two
    modules' own cells.
    """
    carrier = bim.monoid.carrier
    one_m = identity_cell(carrier)
    one_x = identity_cell(modx.carrier)
    one_y = identity_cell(mody.carrier)
    d = bim.comonoid.lcm
    xy = tensor_fams(modx.carrier, mody.carrier)
    _, rho = _tensor_action(bim, modx, mody)
    s_ym = braiding_cell(mody.carrier, carrier)
    tail = compose_chain(
        tensor_chain(one_x, s_ym, one_m), tensor_chain(modx.rho, mody.rho))
    id2_xy = identity_2cell(identity_cell(xy))
    s_mm = braiding_cell(carrier, carrier)
    s_ymm = braiding_cell(mody.carrier, tensor_fams(carrier, carrier))
    share = compose_chain(
        tensor_chain(one_x, one_y, d, d),
        tensor_chain(one_x, one_y, one_m, s_mm, one_m),
        tensor_chain(one_x, s_ymm, one_m, one_m))
    faces = {
        "xi": [framed(tensor_2chain(id2_xy, bim.theta), post=tail),
               framed(tensor_2chain(modx.xi, mody.xi), pre=share)],
        "xi0": [framed(tensor_2chain(id2_xy, bim.theta0), post=tail),
                tensor_2chain(modx.xi0, mody.xi0)],
    }
    cells = {name: paste_with_boundaries(src, faces[name], tgt)
             for name, (src, tgt) in module_boundaries(bim.monoid, xy, rho).items()}
    return OplaxModuleData(xy, rho, **cells)
