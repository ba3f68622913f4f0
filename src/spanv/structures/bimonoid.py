"""The oplax bimonoid checker: ten coherence axioms for the four
structure 2-cells, plus inference of those cells when they are unique."""

from functools import cached_property

from ..cells import (
    braiding_cell,
    identity_2cell,
    identity_cell,
    tensor_cells,
    unit_fam,
)
from ..pasting import find_unique_2cell
from ..vbackend import per_check
from .base import (
    CheckReport,
    check_strict_comonoid,
    check_strict_monoid,
    compose_chain,
    framed,
    run_axioms,
    tensor_2chain,
    tensor_chain,
)


class _Parts:
    """Shared ingredients for the axiom rows of one bimonoid.  The
    mixing tail and the sharing head are built on first read, since
    structure_cell_boundaries reads neither, and live until the last row
    that reads them: that row builds its faces through ``last_read``,
    which frees the composite before they are pasted."""

    def __init__(self, monoid, comonoid):
        self.m = monoid.mlt
        self.j = monoid.uni
        self.d = comonoid.lcm
        self.e = comonoid.lcu
        self.one = identity_cell(monoid.carrier)
        self.id2m = identity_2cell(self.m)
        self.id2j = identity_2cell(self.j)
        self.id2one = identity_2cell(self.one)
        self.id2one2 = identity_2cell(tensor_cells(self.one, self.one))

    @cached_property
    def _mid(self):
        # the middle-four interchange (1 s 1) on A x A x A x A; its legs are
        # permuting words, so the two composites below never tabulate it
        return tensor_chain(self.one, braiding_cell(self.one.dom, self.one.dom), self.one)

    @cached_property
    def mix(self):
        """(1 s 1) then (m x m), the mixing tail of the split-multiplication."""
        return compose_chain(self._mid, tensor_chain(self.m, self.m))

    @cached_property
    def share(self):
        """(d x d) then (1 s 1), the sharing head used on the other side."""
        return compose_chain(tensor_chain(self.d, self.d), self._mid)

    def last_read(self, name, faces):
        """faces, with the shared composite name freed: no later row reads it."""
        vars(self).pop(name, None)
        return faces


def structure_cell_boundaries(monoid, comonoid):
    """Source and target 1-cells of the four structure 2-cells."""
    p = _Parts(monoid, comonoid)
    # the left fold: d x d then the interchange is a graph on d x d's
    # apex, which m x m is pulled back along, so the mixing tail, as
    # large as m x m's apex, is never built
    split = compose_chain(tensor_chain(p.d, p.d), p._mid, tensor_chain(p.m, p.m))
    return {
        "theta": (compose_chain(p.m, p.d), split),
        "theta0": (compose_chain(p.j, p.d), tensor_chain(p.j, p.j)),
        "chi": (compose_chain(p.m, p.e), tensor_chain(p.e, p.e)),
        "chi0": (compose_chain(p.j, p.e), identity_cell(unit_fam(monoid.carrier.backend))),
    }


@per_check
def check_oplax_bimonoid(bim):
    """Strict (co)monoid laws, then the ten structure-cell axioms.

    A structure cell that failed validation poisons exactly the axioms
    that mention it; their results carry the original counterexample.
    """
    results = check_strict_monoid(bim.monoid).results
    results += check_strict_comonoid(bim.comonoid).results
    p = _Parts(bim.monoid, bim.comonoid)
    th, th0, ch, ch0 = bim.theta, bim.theta0, bim.chi, bim.chi0
    rows = [
        ("ax1", ("theta",), lambda: (
            [framed(th, pre=tensor_chain(p.one, p.m)),
             framed(tensor_2chain(p.id2one2, th),
                    pre=tensor_chain(p.d, p.one, p.one), post=p.mix)],
            [framed(th, pre=tensor_chain(p.m, p.one)),
             framed(tensor_2chain(th, p.id2one2),
                    pre=tensor_chain(p.one, p.one, p.d), post=p.mix)])),
        ("ax2a", ("theta", "theta0"), lambda: (
            [framed(th, pre=tensor_chain(p.j, p.one)),
             framed(tensor_2chain(th0, p.id2one2), pre=p.d, post=p.mix)],
            [identity_2cell(p.d)])),
        ("ax2b", ("theta", "theta0"), lambda: p.last_read("mix", (
            [framed(th, pre=tensor_chain(p.one, p.j)),
             framed(tensor_2chain(p.id2one2, th0), pre=p.d, post=p.mix)],
            [identity_2cell(p.d)]))),
        ("ax3", ("chi",), lambda: (
            [framed(ch, pre=tensor_chain(p.m, p.one)),
             framed(tensor_2chain(ch, p.id2one), post=p.e)],
            [framed(ch, pre=tensor_chain(p.one, p.m)),
             framed(tensor_2chain(p.id2one, ch), post=p.e)])),
        ("ax4a", ("chi", "chi0"), lambda: (
            [framed(ch, pre=tensor_chain(p.j, p.one)),
             framed(tensor_2chain(ch0, p.id2one), post=p.e)],
            [identity_2cell(p.e)])),
        ("ax4b", ("chi", "chi0"), lambda: (
            [framed(ch, pre=tensor_chain(p.one, p.j)),
             framed(tensor_2chain(p.id2one, ch0), post=p.e)],
            [identity_2cell(p.e)])),
        ("ax5", ("theta",), lambda: (
            [framed(th, post=tensor_chain(p.d, p.one)),
             framed(tensor_2chain(th, p.id2m), pre=p.share)],
            [framed(th, post=tensor_chain(p.one, p.d)),
             framed(tensor_2chain(p.id2m, th), pre=p.share)])),
        ("ax6", ("theta0",), lambda: (
            [framed(th0, post=tensor_chain(p.d, p.one)), tensor_2chain(th0, p.id2j)],
            [framed(th0, post=tensor_chain(p.one, p.d)), tensor_2chain(p.id2j, th0)])),
        ("ax7", ("theta", "chi"), lambda: (
            [framed(th, post=tensor_chain(p.one, p.e)),
             framed(tensor_2chain(p.id2m, ch), pre=p.share)],
            [p.id2m])),
        ("ax8", ("theta0", "chi0"), lambda: (
            [framed(th0, post=tensor_chain(p.one, p.e)), tensor_2chain(p.id2j, ch0)],
            [p.id2j])),
        ("ax9", ("theta", "chi"), lambda: p.last_read("share", (
            [framed(th, post=tensor_chain(p.e, p.one)),
             framed(tensor_2chain(ch, p.id2m), pre=p.share)],
            [p.id2m]))),
        ("ax10", ("theta0", "chi0"), lambda: (
            [framed(th0, post=tensor_chain(p.e, p.one)), tensor_2chain(ch0, p.id2j)],
            [p.id2j])),
    ]
    gens = {"theta": th, "theta0": th0, "chi": ch, "chi0": ch0}
    results += run_axioms(rows, gens)
    return CheckReport(results)


def infer_unique_structure_cells(monoid, comonoid):
    """Recover (theta, theta0, chi, chi0) when each is forced, else None."""
    bounds = structure_cell_boundaries(monoid, comonoid)
    cells = []
    for name in ("theta", "theta0", "chi", "chi0"):
        cell = find_unique_2cell(*bounds[name])
        if cell is None:
            return None
        cells.append(cell)
    return tuple(cells)
