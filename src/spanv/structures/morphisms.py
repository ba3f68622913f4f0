"""Oplax morphisms of bimonoids and of modules."""

from ..cells import identity_2cell, identity_cell, tensor_cells
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
from .bimonoid import _Parts
from .modules import _tensor_action


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


@per_check
def check_oplax_bimonoid_morphism(bim_a, bim_b, morph):
    """A morphism of bimonoids: lax monoidal, oplax comonoidal, and the
    four squares tying the two structures together.

    A cell that failed validation poisons exactly the axioms that
    mention it; the bimonoids' own cells are named with [src] or [tgt].
    """
    f, phi, phi0 = morph.f, morph.phi, morph.phi0
    psi, psi0 = morph.psi, morph.psi0
    pa = _Parts(bim_a.monoid, bim_a.comonoid)
    pb = _Parts(bim_b.monoid, bim_b.comonoid)
    ff = tensor_cells(f, f)
    id2_f = identity_2cell(f)
    gens = {
        "phi": phi, "phi0": phi0, "psi": psi, "psi0": psi0,
        "theta[src]": bim_a.theta, "theta0[src]": bim_a.theta0,
        "chi[src]": bim_a.chi, "chi0[src]": bim_a.chi0,
        "theta[tgt]": bim_b.theta, "theta0[tgt]": bim_b.theta0,
        "chi[tgt]": bim_b.chi, "chi0[tgt]": bim_b.chi0,
    }
    rows = [
        ("monoid-assoc", ("phi",), lambda: (
            [framed(phi, pre=tensor_chain(pa.one, pa.m)),
             framed(tensor_2chain(id2_f, phi), post=pb.m)],
            [framed(phi, pre=tensor_chain(pa.m, pa.one)),
             framed(tensor_2chain(phi, id2_f), post=pb.m)])),
        ("monoid-unit-left", ("phi", "phi0"), lambda: (
            [framed(phi, pre=tensor_chain(pa.j, pa.one)),
             framed(tensor_2chain(phi0, id2_f), post=pb.m)],
            [id2_f])),
        ("monoid-unit-right", ("phi", "phi0"), lambda: (
            [framed(phi, pre=tensor_chain(pa.one, pa.j)),
             framed(tensor_2chain(id2_f, phi0), post=pb.m)],
            [id2_f])),
        ("comonoid-coassoc", ("psi",), lambda: (
            [framed(tensor_2chain(id2_f, psi), pre=pa.d),
             framed(psi, post=tensor_chain(pb.one, pb.d))],
            [framed(tensor_2chain(psi, id2_f), pre=pa.d),
             framed(psi, post=tensor_chain(pb.d, pb.one))])),
        ("comonoid-counit-left", ("psi0", "psi"), lambda: (
            [framed(tensor_2chain(psi0, id2_f), pre=pa.d),
             framed(psi, post=tensor_chain(pb.e, pb.one))],
            [id2_f])),
        ("comonoid-counit-right", ("psi0", "psi"), lambda: (
            [framed(tensor_2chain(id2_f, psi0), pre=pa.d),
             framed(psi, post=tensor_chain(pb.one, pb.e))],
            [id2_f])),
        ("mult-comult", ("theta[src]", "phi", "psi", "theta[tgt]"), lambda: (
            [framed(bim_a.theta, post=ff),
             framed(tensor_2chain(phi, phi), pre=pa.share),
             framed(tensor_2chain(psi, psi), post=pb.mix)],
            [framed(psi, pre=pa.m),
             framed(phi, post=pb.d),
             framed(bim_b.theta, pre=ff)])),
        ("unit-comult", ("theta0[src]", "phi0", "psi", "theta0[tgt]"), lambda: (
            [framed(bim_a.theta0, post=ff), tensor_2chain(phi0, phi0)],
            [framed(psi, pre=pa.j), framed(phi0, post=pb.d), bim_b.theta0])),
        ("mult-counit", ("chi[src]", "psi0", "phi", "chi[tgt]"), lambda: (
            [bim_a.chi, tensor_2chain(psi0, psi0)],
            [framed(psi0, pre=pa.m),
             framed(phi, post=pb.e),
             framed(bim_b.chi, pre=ff)])),
        ("unit-counit", ("chi0[src]", "psi0", "phi0", "chi0[tgt]"), lambda: (
            [bim_a.chi0],
            [framed(psi0, pre=pa.j), framed(phi0, post=pb.e), bim_b.chi0])),
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
    share_src, rho_src = _tensor_action(bim, mod_x, mod_z)
    _, rho_tgt = _tensor_action(bim, mod_y, mod_u)
    fg = tensor_cells(f, g)
    tau = paste_with_boundaries(
        compose_chain(rho_src, fg),
        [framed(tensor_2chain(phi, psi), pre=share_src)],
        compose_chain(tensor_chain(f, g, identity_cell(bim.monoid.carrier)), rho_tgt))
    return fg, tau
