"""Oplax morphisms: between monoids, comonoids, bimonoids and modules."""

from ..cells import (
    braiding_cell,
    identity_2cell,
    identity_cell,
    tensor_cells,
)
from ..pasting import paste_with_boundaries
from ..vbackend import per_check
from .base import (
    CheckReport,
    compose_chain,
    framed,
    run_axioms,
    tensor_2chain,
    tensor_chain,
)


def morphism_boundaries(bim_a, bim_b, f):
    """Source and target 1-cells of the four comparison cells of a
    bimonoid morphism f."""
    ff = tensor_cells(f, f)
    return {
        "phi": (compose_chain(bim_a.monoid.mlt, f), compose_chain(ff, bim_b.monoid.mlt)),
        "phi0": (compose_chain(bim_a.monoid.uni, f), bim_b.monoid.uni),
        "psi": (compose_chain(bim_a.comonoid.lcm, ff), compose_chain(f, bim_b.comonoid.lcm)),
        "psi0": (bim_a.comonoid.lcu, compose_chain(f, bim_b.comonoid.lcu)),
    }


def _monoid_rows(mon_a, mon_b, f, phi, phi0):
    """Compatibility of a lax structure on f with the two multiplications."""
    ma, ja = mon_a.mlt, mon_a.uni
    mb = mon_b.mlt
    one_a = identity_cell(mon_a.carrier)
    id2_f = identity_2cell(f)
    return [
        ("monoid-assoc", ("phi",), lambda: (
            [framed(phi, pre=tensor_chain(one_a, ma)),
             framed(tensor_2chain(id2_f, phi), post=mb)],
            [framed(phi, pre=tensor_chain(ma, one_a)),
             framed(tensor_2chain(phi, id2_f), post=mb)])),
        ("monoid-unit-left", ("phi", "phi0"), lambda: (
            [framed(phi, pre=tensor_chain(ja, one_a)),
             framed(tensor_2chain(phi0, id2_f), post=mb)],
            [id2_f])),
        ("monoid-unit-right", ("phi", "phi0"), lambda: (
            [framed(phi, pre=tensor_chain(one_a, ja)),
             framed(tensor_2chain(id2_f, phi0), post=mb)],
            [id2_f])),
    ]


@per_check
def check_oplax_monoid_morphism(mon_a, mon_b, f, phi, phi0):
    rows = _monoid_rows(mon_a, mon_b, f, phi, phi0)
    return CheckReport(run_axioms(rows, {"phi": phi, "phi0": phi0}))


def _comonoid_rows(com_a, com_b, f, psi, psi0):
    """Compatibility of an oplax structure on f with the comultiplications."""
    da = com_a.lcm
    db, eb = com_b.lcm, com_b.lcu
    one_b = identity_cell(com_b.carrier)
    id2_f = identity_2cell(f)
    return [
        ("comonoid-coassoc", ("psi",), lambda: (
            [framed(tensor_2chain(id2_f, psi), pre=da),
             framed(psi, post=tensor_chain(one_b, db))],
            [framed(tensor_2chain(psi, id2_f), pre=da),
             framed(psi, post=tensor_chain(db, one_b))])),
        ("comonoid-counit-left", ("psi0", "psi"), lambda: (
            [framed(tensor_2chain(psi0, id2_f), pre=da),
             framed(psi, post=tensor_chain(eb, one_b))],
            [id2_f])),
        ("comonoid-counit-right", ("psi0", "psi"), lambda: (
            [framed(tensor_2chain(id2_f, psi0), pre=da),
             framed(psi, post=tensor_chain(one_b, eb))],
            [id2_f])),
    ]


@per_check
def check_oplax_comonoid_morphism(com_a, com_b, f, psi, psi0):
    rows = _comonoid_rows(com_a, com_b, f, psi, psi0)
    return CheckReport(run_axioms(rows, {"psi": psi, "psi0": psi0}))


@per_check
def check_oplax_bimonoid_morphism(bim_a, bim_b, morph):
    """A morphism of bimonoids: lax monoidal, oplax comonoidal, and the
    four squares tying the two structures together.

    A cell that failed validation poisons exactly the axioms that
    mention it; the bimonoids' own cells are named with [src] or [tgt].
    """
    f, phi, phi0 = morph.f, morph.phi, morph.phi0
    psi, psi0 = morph.psi, morph.psi0
    ma, ja = bim_a.monoid.mlt, bim_a.monoid.uni
    da = bim_a.comonoid.lcm
    mb = bim_b.monoid.mlt
    db, eb = bim_b.comonoid.lcm, bim_b.comonoid.lcu
    one_a = identity_cell(bim_a.monoid.carrier)
    one_b = identity_cell(bim_b.monoid.carrier)
    sga = braiding_cell(bim_a.monoid.carrier, bim_a.monoid.carrier)
    sgb = braiding_cell(bim_b.monoid.carrier, bim_b.monoid.carrier)
    ff = tensor_cells(f, f)
    share_a = compose_chain(
        tensor_chain(da, da), tensor_chain(one_a, sga, one_a))
    mix_b = compose_chain(
        tensor_chain(one_b, sgb, one_b), tensor_chain(mb, mb))
    gens = {
        "phi": phi, "phi0": phi0, "psi": psi, "psi0": psi0,
        "theta[src]": bim_a.theta, "theta0[src]": bim_a.theta0,
        "chi[src]": bim_a.chi, "chi0[src]": bim_a.chi0,
        "theta[tgt]": bim_b.theta, "theta0[tgt]": bim_b.theta0,
        "chi[tgt]": bim_b.chi, "chi0[tgt]": bim_b.chi0,
    }
    rows = _monoid_rows(bim_a.monoid, bim_b.monoid, f, phi, phi0)
    rows += _comonoid_rows(bim_a.comonoid, bim_b.comonoid, f, psi, psi0)
    rows += [
        ("mult-comult", ("theta[src]", "phi", "psi", "theta[tgt]"), lambda: (
            [framed(bim_a.theta, post=ff),
             framed(tensor_2chain(phi, phi), pre=share_a),
             framed(tensor_2chain(psi, psi), post=mix_b)],
            [framed(psi, pre=ma),
             framed(phi, post=db),
             framed(bim_b.theta, pre=ff)])),
        ("unit-comult", ("theta0[src]", "phi0", "psi", "theta0[tgt]"), lambda: (
            [framed(bim_a.theta0, post=ff), tensor_2chain(phi0, phi0)],
            [framed(psi, pre=ja), framed(phi0, post=db), bim_b.theta0])),
        ("mult-counit", ("chi[src]", "psi0", "phi", "chi[tgt]"), lambda: (
            [bim_a.chi, tensor_2chain(psi0, psi0)],
            [framed(psi0, pre=ma),
             framed(phi, post=eb),
             framed(bim_b.chi, pre=ff)])),
        ("unit-counit", ("chi0[src]", "psi0", "phi0", "chi0[tgt]"), lambda: (
            [bim_a.chi0],
            [framed(psi0, pre=ja), framed(phi0, post=eb), bim_b.chi0])),
    ]
    return CheckReport(run_axioms(rows, gens))


@per_check
def check_module_morphism(monoid, mod_x, mod_y, f, phi):
    """A map of modules: phi mediates between acting before or after f."""
    m, j = monoid.mlt, monoid.uni
    one_m = identity_cell(monoid.carrier)
    one_x = identity_cell(mod_x.carrier)
    id2_m = identity_2cell(one_m)
    gens = {"xi[src]": mod_x.xi, "xi0[src]": mod_x.xi0,
            "xi[tgt]": mod_y.xi, "xi0[tgt]": mod_y.xi0, "phi": phi}
    rows = [
        ("action-square", ("xi[src]", "phi", "xi[tgt]"), lambda: (
            [framed(mod_x.xi, post=f),
             framed(phi, pre=tensor_chain(mod_x.rho, one_m)),
             framed(tensor_2chain(phi, id2_m), post=mod_y.rho)],
            [framed(phi, pre=tensor_chain(one_x, m)),
             framed(mod_y.xi, pre=tensor_chain(f, one_m, one_m))])),
        ("unit-square", ("phi", "xi0[tgt]", "xi0[src]"), lambda: (
            [framed(phi, pre=tensor_chain(one_x, j)),
             framed(mod_y.xi0, pre=f)],
            [framed(mod_x.xi0, post=f)])),
    ]
    return CheckReport(run_axioms(rows, gens))


@per_check
def check_module_transformation(monoid, mod_x, mod_y, morph_f, morph_g, a):
    """a: f => g is modular when the two mediating cells agree across it."""
    _, phi = morph_f
    _, psi = morph_g
    id2_m = identity_2cell(identity_cell(monoid.carrier))
    rows = [("action-compat", ("phi", "a", "psi"), lambda: (
        [phi, framed(tensor_2chain(a, id2_m), post=mod_y.rho)],
        [framed(a, pre=mod_x.rho), psi]))]
    return CheckReport(run_axioms(rows, {"phi": phi, "a": a, "psi": psi}))


def tensor_module_morphism(bim, mod_x, mod_z, mod_y, mod_u, morph_f, morph_g):
    """Tensor two module morphisms (X -> Y) and (Z -> U); the mediating
    cell shares the acting factor, then runs the two squares side by side."""
    f, phi = morph_f
    g, psi = morph_g
    d = bim.comonoid.lcm
    carrier = bim.monoid.carrier
    one_m = identity_cell(carrier)
    one_x = identity_cell(mod_x.carrier)
    one_y = identity_cell(mod_y.carrier)
    one_z = identity_cell(mod_z.carrier)
    one_u = identity_cell(mod_u.carrier)
    share_src = compose_chain(
        tensor_chain(one_x, one_z, d),
        tensor_chain(one_x, braiding_cell(mod_z.carrier, carrier), one_m))
    rho_src = compose_chain(share_src, tensor_chain(mod_x.rho, mod_z.rho))
    share_tgt = compose_chain(
        tensor_chain(one_y, one_u, d),
        tensor_chain(one_y, braiding_cell(mod_u.carrier, carrier), one_m))
    rho_tgt = compose_chain(share_tgt, tensor_chain(mod_y.rho, mod_u.rho))
    fg = tensor_cells(f, g)
    tau = paste_with_boundaries(
        compose_chain(rho_src, fg),
        [framed(tensor_2chain(phi, psi), pre=share_src)],
        compose_chain(tensor_chain(f, g, one_m), rho_tgt))
    return fg, tau
