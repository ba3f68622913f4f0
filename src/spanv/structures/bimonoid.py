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
    """Shared ingredients for the axiom programs of one bimonoid.  The
    mixing tail and the sharing head are built on first read, since
    structure_cell_boundaries reads only the tail."""

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


def structure_cell_boundaries(monoid, comonoid):
    """Source and target 1-cells of the four structure 2-cells."""
    p = _Parts(monoid, comonoid)
    split = compose_chain(tensor_chain(p.d, p.d), p.mix)
    return {
        "theta": (compose_chain(p.m, p.d), split),
        "theta0": (compose_chain(p.j, p.d), tensor_chain(p.j, p.j)),
        "chi": (compose_chain(p.m, p.e), tensor_chain(p.e, p.e)),
        "chi0": (compose_chain(p.j, p.e), identity_cell(unit_fam(monoid.carrier.backend))),
    }


def _ax1(p, g):
    th = g["theta"]
    left = [
        framed(th, pre=tensor_chain(p.one, p.m)),
        framed(tensor_2chain(p.id2one2, th),
               pre=tensor_chain(p.d, p.one, p.one), post=p.mix),
    ]
    right = [
        framed(th, pre=tensor_chain(p.m, p.one)),
        framed(tensor_2chain(th, p.id2one2),
               pre=tensor_chain(p.one, p.one, p.d), post=p.mix),
    ]
    return left, right


def _ax2a(p, g):
    left = [
        framed(g["theta"], pre=tensor_chain(p.j, p.one)),
        framed(tensor_2chain(g["theta0"], p.id2one2), pre=p.d, post=p.mix),
    ]
    return left, [identity_2cell(p.d)]


def _ax2b(p, g):
    left = [
        framed(g["theta"], pre=tensor_chain(p.one, p.j)),
        framed(tensor_2chain(p.id2one2, g["theta0"]), pre=p.d, post=p.mix),
    ]
    return left, [identity_2cell(p.d)]


def _ax3(p, g):
    ch = g["chi"]
    left = [
        framed(ch, pre=tensor_chain(p.m, p.one)),
        framed(tensor_2chain(ch, p.id2one), post=p.e),
    ]
    right = [
        framed(ch, pre=tensor_chain(p.one, p.m)),
        framed(tensor_2chain(p.id2one, ch), post=p.e),
    ]
    return left, right


def _ax4a(p, g):
    left = [
        framed(g["chi"], pre=tensor_chain(p.j, p.one)),
        framed(tensor_2chain(g["chi0"], p.id2one), post=p.e),
    ]
    return left, [identity_2cell(p.e)]


def _ax4b(p, g):
    left = [
        framed(g["chi"], pre=tensor_chain(p.one, p.j)),
        framed(tensor_2chain(p.id2one, g["chi0"]), post=p.e),
    ]
    return left, [identity_2cell(p.e)]


def _ax5(p, g):
    th = g["theta"]
    left = [
        framed(th, post=tensor_chain(p.d, p.one)),
        framed(tensor_2chain(th, p.id2m), pre=p.share),
    ]
    right = [
        framed(th, post=tensor_chain(p.one, p.d)),
        framed(tensor_2chain(p.id2m, th), pre=p.share),
    ]
    return left, right


def _ax6(p, g):
    th0 = g["theta0"]
    left = [
        framed(th0, post=tensor_chain(p.d, p.one)),
        tensor_2chain(th0, p.id2j),
    ]
    right = [
        framed(th0, post=tensor_chain(p.one, p.d)),
        tensor_2chain(p.id2j, th0),
    ]
    return left, right


def _ax7(p, g):
    left = [
        framed(g["theta"], post=tensor_chain(p.one, p.e)),
        framed(tensor_2chain(p.id2m, g["chi"]), pre=p.share),
    ]
    return left, [p.id2m]


def _ax8(p, g):
    left = [
        framed(g["theta0"], post=tensor_chain(p.one, p.e)),
        tensor_2chain(p.id2j, g["chi0"]),
    ]
    return left, [p.id2j]


def _ax9(p, g):
    left = [
        framed(g["theta"], post=tensor_chain(p.e, p.one)),
        framed(tensor_2chain(g["chi"], p.id2m), pre=p.share),
    ]
    return left, [p.id2m]


def _ax10(p, g):
    left = [
        framed(g["theta0"], post=tensor_chain(p.e, p.one)),
        tensor_2chain(g["chi0"], p.id2j),
    ]
    return left, [p.id2j]


AXIOMS = [
    ("ax1", ("theta",), _ax1),
    ("ax2a", ("theta", "theta0"), _ax2a),
    ("ax2b", ("theta", "theta0"), _ax2b),
    ("ax3", ("chi",), _ax3),
    ("ax4a", ("chi", "chi0"), _ax4a),
    ("ax4b", ("chi", "chi0"), _ax4b),
    ("ax5", ("theta",), _ax5),
    ("ax6", ("theta0",), _ax6),
    ("ax7", ("theta", "chi"), _ax7),
    ("ax8", ("theta0", "chi0"), _ax8),
    ("ax9", ("theta", "chi"), _ax9),
    ("ax10", ("theta0", "chi0"), _ax10),
]


@per_check
def check_oplax_bimonoid(bim):
    """Strict (co)monoid laws, then the ten structure-cell axioms.

    A structure cell that failed validation poisons exactly the axioms
    that mention it; their results carry the original counterexample.
    """
    results = check_strict_monoid(bim.monoid).results
    results += check_strict_comonoid(bim.comonoid).results
    parts = _Parts(bim.monoid, bim.comonoid)
    gens = {"theta": bim.theta, "theta0": bim.theta0, "chi": bim.chi, "chi0": bim.chi0}
    results += run_axioms(AXIOMS, gens, parts, gens)
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
