"""Enriched categories whose homs carry comonoid structure, Frobenius
enriched categories, finite groupoids, concrete examples, and bridges
between all of these and the span layer over a squared index set.

An enriched category here has a finite object set X and a backend
object H[x][y] for every pair, with composition read left to right:
m[x][y][z] maps H[x][y] (x) H[y][z] to H[x][z].
"""

import itertools

import numpy as np

from .cells import (
    VCell1,
    VFam,
    tensor_fams,
    try_make_2cell,
    unit_fam,
)
from .errors import NotAGroupoid, NotOverX2, ShapeMismatch
from .finset import (
    UNIT,
    FinFn,
    FinSet,
    diagonal_fn,
    identity_fn,
    pullback,
    reindex_fn,
    swap_fn,
    terminal_fn,
)
from .span import Span, feet_pairs, spans_isomorphic
from .structures import (
    AntipodeData,
    AxiomResult,
    CheckReport,
    ComonoidData,
    FrobeniusData,
    MonoidData,
    OplaxBimonoidData,
    OplaxMorphismData,
    antipode_boundaries,
    infer_unique_structure_cells,
    morphism_boundaries,
    structure_cell_boundaries,
)
from .vbackend import FinSetBackend, MatBackend, TrivialBackend


def _expect(backend, mor, dom, cod, label):
    if not backend.eq_obj(backend.dom(mor), dom):
        raise ShapeMismatch("%s has wrong domain" % label)
    if not backend.eq_obj(backend.cod(mor), cod):
        raise ShapeMismatch("%s has wrong codomain" % label)


class HopfVCat:
    """An enriched category with a comonoid on every hom, and optionally
    an antipode family s[x][y]: H[x][y] -> H[y][x]."""

    def __init__(self, backend, objects, homs, m, u, delta, eps, s=None):
        assert isinstance(objects, FinSet) and len(objects.shape) == 1
        n = objects.size
        self.backend = backend
        self.objects = objects
        self.n = n
        self.homs = homs
        self.m = m
        self.u = u
        self.delta = delta
        self.eps = eps
        self.s = s
        t = backend.tensor_obj
        for x, y, z in itertools.product(range(n), repeat=3):
            _expect(backend, m[x][y][z], t(homs[x][y], homs[y][z]), homs[x][z],
                    "m[%d][%d][%d]" % (x, y, z))
        for x in range(n):
            _expect(backend, u[x], backend.unit, homs[x][x], "u[%d]" % x)
        for x, y in itertools.product(range(n), repeat=2):
            _expect(backend, delta[x][y], homs[x][y], t(homs[x][y], homs[x][y]),
                    "delta[%d][%d]" % (x, y))
            _expect(backend, eps[x][y], homs[x][y], backend.unit, "eps[%d][%d]" % (x, y))
            if s is not None:
                _expect(backend, s[x][y], homs[x][y], homs[y][x], "s[%d][%d]" % (x, y))

    def __repr__(self):
        return "HopfVCat(%r, %d objects)" % (self.backend, self.n)


class FrobVCat:
    """An enriched category with an enriched cocategory structure:
    comlt[x][y][z]: H[x][z] -> H[x][y] (x) H[y][z] and couni[x] on the
    endo homs."""

    def __init__(self, backend, objects, homs, m, u, comlt, couni):
        assert isinstance(objects, FinSet) and len(objects.shape) == 1
        n = objects.size
        self.backend = backend
        self.objects = objects
        self.n = n
        self.homs = homs
        self.m = m
        self.u = u
        self.comlt = comlt
        self.couni = couni
        t = backend.tensor_obj
        for x, y, z in itertools.product(range(n), repeat=3):
            _expect(backend, m[x][y][z], t(homs[x][y], homs[y][z]), homs[x][z],
                    "m[%d][%d][%d]" % (x, y, z))
            _expect(backend, comlt[x][y][z], homs[x][z], t(homs[x][y], homs[y][z]),
                    "comlt[%d][%d][%d]" % (x, y, z))
        for x in range(n):
            _expect(backend, u[x], backend.unit, homs[x][x], "u[%d]" % x)
            _expect(backend, couni[x], homs[x][x], backend.unit, "couni[%d]" % x)

    def __repr__(self):
        return "FrobVCat(%r, %d objects)" % (self.backend, self.n)


class VFunctorData:
    """An object map with a component morphism for every hom."""

    def __init__(self, obj_map, components):
        assert isinstance(obj_map, FinFn)
        self.obj_map = obj_map
        self.components = components


def _first_mor_diff(lhs, rhs):
    if isinstance(lhs, np.ndarray):
        if lhs.shape != rhs.shape:
            return {"shapes": [list(lhs.shape), list(rhs.shape)]}
        where = np.argwhere(lhs != rhs)[0]
        return {"entry": [int(v) for v in where],
                "this": int(lhs[tuple(where)]), "other": int(rhs[tuple(where)])}
    if isinstance(lhs, FinFn):
        if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
            return {"shapes": [lhs.dom.shape, rhs.dom.shape]}
        w = int(np.nonzero(lhs.table != rhs.table)[0][0])
        return {"entry": [w], "this": int(lhs.table[w]), "other": int(rhs.table[w])}
    return None


def _eq_axiom(backend, name, triples):
    """Pass iff lhs == rhs at every index; record the first difference."""
    for where, lhs, rhs in triples:
        if not backend.eq_mor(lhs, rhs):
            return AxiomResult(name, False,
                               {"at": list(where), "diff": _first_mor_diff(lhs, rhs)})
    return AxiomResult(name, True)


def _category_axioms(backend, n, homs, m, u):
    t, c, iden = backend.tensor_mor, backend.compose, backend.id
    results = [_eq_axiom(backend, "cat-assoc", (
        ((x, y, z, w),
         c(t(m[x][y][z], iden(homs[z][w])), m[x][z][w]),
         c(t(iden(homs[x][y]), m[y][z][w]), m[x][y][w]))
        for x, y, z, w in itertools.product(range(n), repeat=4)))]
    results.append(_eq_axiom(backend, "cat-unit-left", (
        ((x, y), c(t(u[x], iden(homs[x][y])), m[x][x][y]), iden(homs[x][y]))
        for x, y in itertools.product(range(n), repeat=2))))
    results.append(_eq_axiom(backend, "cat-unit-right", (
        ((x, y), c(t(iden(homs[x][y]), u[y]), m[x][y][y]), iden(homs[x][y]))
        for x, y in itertools.product(range(n), repeat=2))))
    return results


def check_semi_hopf_vcat(h):
    """Category laws, a comonoid on every hom, and the compatibility of
    composition and identities with those comonoids."""
    backend, n, homs = h.backend, h.n, h.homs
    m, u, delta, eps = h.m, h.u, h.delta, h.eps
    t, c, iden = backend.tensor_mor, backend.compose, backend.id
    results = _category_axioms(backend, n, homs, m, u)
    results.append(_eq_axiom(backend, "local-coassoc", (
        ((x, y),
         c(delta[x][y], t(delta[x][y], iden(homs[x][y]))),
         c(delta[x][y], t(iden(homs[x][y]), delta[x][y])))
        for x, y in itertools.product(range(n), repeat=2))))
    results.append(_eq_axiom(backend, "local-counit-left", (
        ((x, y), c(delta[x][y], t(eps[x][y], iden(homs[x][y]))), iden(homs[x][y]))
        for x, y in itertools.product(range(n), repeat=2))))
    results.append(_eq_axiom(backend, "local-counit-right", (
        ((x, y), c(delta[x][y], t(iden(homs[x][y]), eps[x][y])), iden(homs[x][y]))
        for x, y in itertools.product(range(n), repeat=2))))

    def split(x, y, z):
        dd = t(delta[x][y], delta[y][z])
        mid = t(t(iden(homs[x][y]), backend.braiding(homs[x][y], homs[y][z])),
                iden(homs[y][z]))
        return c(c(dd, mid), t(m[x][y][z], m[x][y][z]))

    results.append(_eq_axiom(backend, "mult-comult", (
        ((x, y, z), c(m[x][y][z], delta[x][z]), split(x, y, z))
        for x, y, z in itertools.product(range(n), repeat=3))))
    results.append(_eq_axiom(backend, "unit-comult", (
        ((x,), c(u[x], delta[x][x]), t(u[x], u[x])) for x in range(n))))
    results.append(_eq_axiom(backend, "mult-counit", (
        ((x, y, z), c(m[x][y][z], eps[x][z]), t(eps[x][y], eps[y][z]))
        for x, y, z in itertools.product(range(n), repeat=3))))
    results.append(_eq_axiom(backend, "unit-counit", (
        ((x,), c(u[x], eps[x][x]), iden(backend.unit)) for x in range(n))))
    return CheckReport(results)


def check_hopf_vcat(h):
    """The semi checks plus the two antipode equations at every hom."""
    assert h.s is not None
    backend, n, homs = h.backend, h.n, h.homs
    t, c, iden = backend.tensor_mor, backend.compose, backend.id
    results = check_semi_hopf_vcat(h).results
    results.append(_eq_axiom(backend, "antipode-left", (
        ((x, y),
         c(c(h.delta[x][y], t(h.s[x][y], iden(homs[x][y]))), h.m[y][x][y]),
         c(h.eps[x][y], h.u[y]))
        for x, y in itertools.product(range(n), repeat=2))))
    results.append(_eq_axiom(backend, "antipode-right", (
        ((x, y),
         c(c(h.delta[x][y], t(iden(homs[x][y]), h.s[x][y])), h.m[x][y][x]),
         c(h.eps[x][y], h.u[x]))
        for x, y in itertools.product(range(n), repeat=2))))
    return CheckReport(results)


def check_frobenius_vcat(fc):
    """Category and cocategory laws plus both indexed exchange squares."""
    backend, n, homs = fc.backend, fc.n, fc.homs
    m, u, comlt, couni = fc.m, fc.u, fc.comlt, fc.couni
    t, c, iden = backend.tensor_mor, backend.compose, backend.id
    results = _category_axioms(backend, n, homs, m, u)
    results.append(_eq_axiom(backend, "cocat-coassoc", (
        ((x, y, z, w),
         c(comlt[x][z][w], t(comlt[x][y][z], iden(homs[z][w]))),
         c(comlt[x][y][w], t(iden(homs[x][y]), comlt[y][z][w])))
        for x, y, z, w in itertools.product(range(n), repeat=4))))
    results.append(_eq_axiom(backend, "cocat-counit-left", (
        ((x, y), c(comlt[x][x][y], t(couni[x], iden(homs[x][y]))), iden(homs[x][y]))
        for x, y in itertools.product(range(n), repeat=2))))
    results.append(_eq_axiom(backend, "cocat-counit-right", (
        ((x, y), c(comlt[x][y][y], t(iden(homs[x][y]), couni[y])), iden(homs[x][y]))
        for x, y in itertools.product(range(n), repeat=2))))
    results.append(_eq_axiom(backend, "frobenius-left", (
        ((x, y, z, w),
         c(m[x][y][z], comlt[x][w][z]),
         c(t(comlt[x][w][y], iden(homs[y][z])),
           t(iden(homs[x][w]), m[w][y][z])))
        for x, y, z, w in itertools.product(range(n), repeat=4))))
    results.append(_eq_axiom(backend, "frobenius-right", (
        ((x, y, z, w),
         c(m[x][y][z], comlt[x][w][z]),
         c(t(iden(homs[x][y]), comlt[y][w][z]),
           t(m[x][y][w], iden(homs[w][z]))))
        for x, y, z, w in itertools.product(range(n), repeat=4))))
    return CheckReport(results)


def check_frobenius_vfunctor(ca, cb, fun):
    """The four squares: composition, identities, cocomposition and
    coidentities all commute with the components."""
    backend = ca.backend
    t, c, iden = backend.tensor_mor, backend.compose, backend.id
    n = ca.n
    f0 = fun.obj_map.table
    fc = fun.components
    results = [_eq_axiom(backend, "functor-mult", (
        ((x, y, z),
         c(ca.m[x][y][z], fc[x][z]),
         c(t(fc[x][y], fc[y][z]), cb.m[f0[x]][f0[y]][f0[z]]))
        for x, y, z in itertools.product(range(n), repeat=3)))]
    results.append(_eq_axiom(backend, "functor-unit", (
        ((x,), c(ca.u[x], fc[x][x]), cb.u[f0[x]]) for x in range(n))))
    results.append(_eq_axiom(backend, "opfunctor-comult", (
        ((x, y, z),
         c(ca.comlt[x][y][z], t(fc[x][y], fc[y][z])),
         c(fc[x][z], cb.comlt[f0[x]][f0[y]][f0[z]]))
        for x, y, z in itertools.product(range(n), repeat=3))))
    results.append(_eq_axiom(backend, "opfunctor-counit", (
        ((x,), ca.couni[x], c(fc[x][x], cb.couni[f0[x]])) for x in range(n))))
    return CheckReport(results)


def mat_frobenius_example(p, max_n):
    """Rectangular matrices over Z/p as a Frobenius enriched category.

    Object x stands for size x+1; the hom at (x, y) is the space of
    (x+1) by (y+1) matrices with basis cells e[i][j], composition is
    matrix product on basis cells, cocomposition sums over a middle
    index and the coidentity reads off the trace.
    """
    assert max_n >= 1
    backend = MatBackend(prime=p)
    objects = FinSet((max_n,))
    size = [x + 1 for x in range(max_n)]
    homs = [[size[x] * size[y] for y in range(max_n)] for x in range(max_n)]

    def cell(x, y, i, j):
        return i * size[y] + j

    m = [[[None] * max_n for _ in range(max_n)] for _ in range(max_n)]
    comlt = [[[None] * max_n for _ in range(max_n)] for _ in range(max_n)]
    for x, y, z in itertools.product(range(max_n), repeat=3):
        mm = np.zeros((homs[x][y] * homs[y][z], homs[x][z]), dtype=np.int64)
        for i, j, k, w in itertools.product(
                range(size[x]), range(size[y]), range(size[y]), range(size[z])):
            if j == k:
                mm[cell(x, y, i, j) * homs[y][z] + cell(y, z, k, w), cell(x, z, i, w)] = 1
        m[x][y][z] = mm
        dd = np.zeros((homs[x][z], homs[x][y] * homs[y][z]), dtype=np.int64)
        for i, j, t in itertools.product(range(size[x]), range(size[z]), range(size[y])):
            dd[cell(x, z, i, j), cell(x, y, i, t) * homs[y][z] + cell(y, z, t, j)] = 1
        comlt[x][y][z] = dd
    u = []
    couni = []
    for x in range(max_n):
        uu = np.zeros((1, homs[x][x]), dtype=np.int64)
        ee = np.zeros((homs[x][x], 1), dtype=np.int64)
        for i in range(size[x]):
            uu[0, cell(x, x, i, i)] = 1
            ee[cell(x, x, i, i), 0] = 1
        u.append(uu)
        couni.append(ee)
    return FrobVCat(backend, objects, homs, m, u, comlt, couni)


def group_algebra_hopf(p, order):
    """The group algebra of a cyclic group over Z/p as a one-object
    instance: basis the group elements, grouplike comultiplication,
    antipode by inversion."""
    backend = MatBackend(prime=p)
    k = int(order)
    assert k >= 1
    mm = np.zeros((k * k, k), dtype=np.int64)
    for g, h in itertools.product(range(k), repeat=2):
        mm[g * k + h, (g + h) % k] = 1
    uu = np.zeros((1, k), dtype=np.int64)
    uu[0, 0] = 1
    dd = np.zeros((k, k * k), dtype=np.int64)
    ee = np.ones((k, 1), dtype=np.int64)
    ss = np.zeros((k, k), dtype=np.int64)
    for g in range(k):
        dd[g, g * k + g] = 1
        ss[g, (-g) % k] = 1
    return HopfVCat(backend, FinSet((1,)), [[k]], [[[mm]]], [uu],
                    [[dd]], [[ee]], [[ss]])


class GroupoidData:
    """A finite groupoid: objects, morphisms, boundaries, a composition
    table over the composable-pair subset, identities and inverses.
    The groupoid laws are checked on construction."""

    def __init__(self, g0, g1, src, tgt, comp_table, e, inv):
        self.g0 = g0
        self.g1 = g1
        self.src = src
        self.tgt = tgt
        self.e = e
        self.inv = inv
        pairs, p1, p2 = pullback(tgt, src)
        self.pairs = pairs
        self.p1 = p1
        self.p2 = p2
        self.comp = FinFn(pairs, g1, comp_table)
        self._validate()

    def _validate(self):
        n0, n1 = self.g0.size, self.g1.size
        src, tgt, e, inv = self.src.table, self.tgt.table, self.e.table, self.inv.table
        comp = self.comp.table
        ids = np.arange(n0)
        if not (np.array_equal(src[e], ids) and np.array_equal(tgt[e], ids)):
            raise NotAGroupoid("identities have wrong boundaries")
        left = self.p1.table
        right = self.p2.table
        if not np.array_equal(src[comp], src[left]):
            raise NotAGroupoid("composite changes the source")
        if not np.array_equal(tgt[comp], tgt[right]):
            raise NotAGroupoid("composite changes the target")
        allg = np.arange(n1)
        pos = self.pairs.position_of
        if not np.array_equal(comp[pos(e[src] * n1 + allg)], allg):
            raise NotAGroupoid("left identity law fails")
        if not np.array_equal(comp[pos(allg * n1 + e[tgt])], allg):
            raise NotAGroupoid("right identity law fails")
        if not (np.array_equal(src[inv], tgt) and np.array_equal(tgt[inv], src)):
            raise NotAGroupoid("inverse has wrong boundaries")
        if not np.array_equal(comp[pos(allg * n1 + inv)], e[src]):
            raise NotAGroupoid("an inverse fails on the right")
        if not np.array_equal(comp[pos(inv * n1 + allg)], e[tgt]):
            raise NotAGroupoid("an inverse fails on the left")
        # associativity over all composable triples
        mid_tgt = FinFn(self.pairs, self.g0, tgt[right])
        triples, q1, q2 = pullback(mid_tgt, self.src)
        g = left[q1.table]
        h = right[q1.table]
        k = q2.table
        gh = comp[q1.table]
        hk = comp[pos(h * n1 + k)]
        if not np.array_equal(comp[pos(gh * n1 + k)], comp[pos(g * n1 + hk)]):
            raise NotAGroupoid("composition is not associative")

    def hom(self, x, y):
        return np.nonzero((self.src.table == x) & (self.tgt.table == y))[0]

    def __repr__(self):
        return "GroupoidData(%d objects, %d morphisms)" % (self.g0.size, self.g1.size)


def codiscrete_groupoid(n):
    """Exactly one morphism between any two objects; morphism (x, y)
    has code x*n + y."""
    g0 = FinSet((n,))
    g1 = FinSet((n, n))
    src = reindex_fn(g1, g0, (0,))
    tgt = reindex_fn(g1, g0, (1,))
    e = diagonal_fn(g0)
    codes = np.arange(g1.size, dtype=np.int64)
    inv = FinFn(g1, g1, (codes % n) * n + codes // n)
    pairs, _, _ = pullback(tgt, src)
    coords = pairs.decode(np.arange(pairs.size))
    comp_table = coords[:, 0] * n + coords[:, 3]
    return GroupoidData(g0, g1, src, tgt, comp_table, e, inv)


def cyclic_group_groupoid(k):
    """The cyclic group of order k as a one-object groupoid."""
    g0 = FinSet((1,))
    g1 = FinSet((k,))
    zeros = FinFn(g1, g0, np.zeros(k, dtype=np.int64))
    e = FinFn(g0, g1, np.zeros(1, dtype=np.int64))
    inv = FinFn(g1, g1, (-np.arange(k)) % k)
    codes = np.arange(k * k, dtype=np.int64)
    comp_table = (codes // k + codes % k) % k
    return GroupoidData(g0, g1, zeros, zeros, comp_table, e, inv)


def discrete_groupoid(n):
    """Only identity morphisms."""
    g0 = FinSet((n,))
    ident = identity_fn(g0)
    return GroupoidData(g0, g0, ident, ident, np.arange(n, dtype=np.int64),
                        ident, ident)


def _leg_forced_cell(src_cell, tgt_cell):
    """The 2-cell whose apex map is forced element by element by the two
    legs.  Validation failures come back as InvalidCell records."""
    s, u = feet_pairs(src_cell.span, tgt_cell.span)
    forced = np.array_equal(s, np.arange(src_cell.span.apex.size))
    assert forced, "apex map is not forced by the legs"
    return try_make_2cell(src_cell, tgt_cell, u)


def _forced_cells(bounds):
    """Each generator of a boundary table as its leg-forced 2-cell."""
    return {name: _leg_forced_cell(*pair) for name, pair in bounds.items()}


def groupoid_structures(G):
    """All span-layer structures carried by a finite groupoid.

    Returns (monoid, comonoid, cocomposition comonoid, bimonoid,
    antipode, frobenius): the composition monoid, the diagonal comonoid,
    the reversed-composition comonoid, the bimonoid built from the first
    two with its forced structure cells, inversion with its two
    convolution cells, and the Frobenius pairing of composition with
    reversed composition.
    """
    backend = TrivialBackend()
    carrier = VFam(backend, G.g1)
    doubled = tensor_fams(carrier, carrier)
    unit = unit_fam(backend)
    g1, pairs = G.g1, G.pairs
    base2 = FinSet(g1.shape + g1.shape)
    incl = FinFn(pairs, base2, pairs.members)
    mlt = VCell1(doubled, carrier, Span(base2, pairs, g1, incl, G.comp), None)
    uni = VCell1(unit, carrier,
                 Span(UNIT, G.g0, g1, terminal_fn(G.g0), G.e), None)
    monoid = MonoidData(carrier, mlt, uni)
    lcm = VCell1(carrier, doubled,
                 Span(g1, g1, base2, identity_fn(g1), diagonal_fn(g1)), None)
    lcu = VCell1(carrier, unit,
                 Span(g1, g1, UNIT, identity_fn(g1), terminal_fn(g1)), None)
    comonoid = ComonoidData(carrier, lcm, lcu)
    colcm = VCell1(carrier, doubled, Span(g1, pairs, base2, G.comp, incl), None)
    colcu = VCell1(carrier, unit,
                   Span(g1, G.g0, UNIT, G.e, terminal_fn(G.g0)), None)
    cocomposition = ComonoidData(carrier, colcm, colcu)
    cells = infer_unique_structure_cells(monoid, comonoid)
    assert cells is not None
    bim = OplaxBimonoidData(monoid, comonoid, *cells)
    s = VCell1(carrier, carrier, Span(g1, g1, g1, identity_fn(g1), G.inv), None)
    antipode = AntipodeData(s, **_forced_cells(antipode_boundaries(bim, s)))
    frobenius = FrobeniusData(monoid, cocomposition)
    return monoid, comonoid, cocomposition, bim, antipode, frobenius


def groupoid_to_hopfcat(G, backend=None):
    """A groupoid as an enriched category over finite sets: homs are the
    hom-sets, comultiplication is the diagonal, antipode the inversion."""
    if backend is None:
        backend = FinSetBackend()
    n = G.g0.size
    n1 = G.g1.size
    mems = [[G.hom(x, y) for y in range(n)] for x in range(n)]
    homs = [[FinSet((len(mems[x][y]),)) for y in range(n)] for x in range(n)]
    loc = np.zeros(n1, dtype=np.int64)
    for x, y in itertools.product(range(n), repeat=2):
        loc[mems[x][y]] = np.arange(len(mems[x][y]))
    pos = G.pairs.position_of
    m = [[[None] * n for _ in range(n)] for _ in range(n)]
    for x, y, z in itertools.product(range(n), repeat=3):
        a, b = mems[x][y], mems[y][z]
        codes = (a[:, None] * n1 + b[None, :]).ravel()
        m[x][y][z] = FinFn(backend.tensor_obj(homs[x][y], homs[y][z]), homs[x][z],
                           loc[G.comp.table[pos(codes)]])
    u = [FinFn(UNIT, homs[x][x], [loc[G.e.table[x]]]) for x in range(n)]
    delta = [[None] * n for _ in range(n)]
    eps = [[None] * n for _ in range(n)]
    s = [[None] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        k = homs[x][y].size
        d = np.arange(k, dtype=np.int64)
        delta[x][y] = FinFn(homs[x][y], backend.tensor_obj(homs[x][y], homs[x][y]),
                            d * k + d)
        eps[x][y] = FinFn(homs[x][y], UNIT, np.zeros(k, dtype=np.int64))
        s[x][y] = FinFn(homs[x][y], homs[y][x], loc[G.inv.table[mems[x][y]]])
    return HopfVCat(backend, G.g0, homs, m, u, delta, eps, s)


def _x2_pairs(n):
    base = FinSet((n, n))
    first = reindex_fn(base, FinSet((n,)), (0,))
    second = reindex_fn(base, FinSet((n,)), (1,))
    pairs, _, _ = pullback(second, first)
    coords = pairs.decode(np.arange(pairs.size))
    return base, pairs, coords


def _x2_template_spans(n):
    """The spans every squared-index instance is built on."""
    base, pairs, coords = _x2_pairs(n)
    objline = FinSet((n,))
    base2 = FinSet(base.shape + base.shape)
    incl = FinFn(pairs, base2, pairs.members)
    comp = FinFn(pairs, base, coords[:, 0] * n + coords[:, 3])
    return {
        "base": base,
        "pairs": pairs,
        "coords": coords,
        "mlt": Span(base2, pairs, base, incl, comp),
        "uni": Span(UNIT, objline, base, terminal_fn(objline), diagonal_fn(objline)),
        "lcm": Span(base, base, base2, identity_fn(base), diagonal_fn(base)),
        "lcu": Span(base, base, UNIT, identity_fn(base), terminal_fn(base)),
        "anti": Span(base, base, base, identity_fn(base),
                     swap_fn(objline, objline)),
        "colcm": Span(base, pairs, base2, comp, incl),
        "colcu": Span(base, objline, UNIT, diagonal_fn(objline),
                      terminal_fn(objline)),
    }


def _carrier_fam(backend, n, homs):
    return VFam(backend, FinSet((n, n)), [homs[x][y] for x in range(n) for y in range(n)])


def _monoid_part(backend, n, homs, m, u, tm):
    carrier = _carrier_fam(backend, n, homs)
    doubled = tensor_fams(carrier, carrier)
    mlt = VCell1(doubled, carrier, tm["mlt"], [m[x][y][z] for x, y, _, z in tm["coords"]])
    uni = VCell1(unit_fam(backend), carrier, tm["uni"], list(u))
    return MonoidData(carrier, mlt, uni)


def hopfcat_to_spanv(h):
    """Realize an enriched category over the span layer: composition
    over the composable-pairs span, hom comonoids over the diagonal,
    plus the forced structure cells, and the antipode if present."""
    backend, n = h.backend, h.n
    tm = _x2_template_spans(n)
    monoid = _monoid_part(backend, n, h.homs, h.m, h.u, tm)
    carrier = monoid.carrier
    doubled = tensor_fams(carrier, carrier)
    pair_idx = [(x, y) for x in range(n) for y in range(n)]
    lcm = VCell1(carrier, doubled, tm["lcm"], [h.delta[x][y] for x, y in pair_idx])
    lcu = VCell1(carrier, unit_fam(backend), tm["lcu"], [h.eps[x][y] for x, y in pair_idx])
    comonoid = ComonoidData(carrier, lcm, lcu)
    bim = OplaxBimonoidData(
        monoid, comonoid, **_forced_cells(structure_cell_boundaries(monoid, comonoid)))
    if h.s is None:
        return bim, None
    s = VCell1(carrier, carrier, tm["anti"], [h.s[x][y] for x, y in pair_idx])
    return bim, AntipodeData(s, **_forced_cells(antipode_boundaries(bim, s)))


def _transport(cell, template, label):
    """Reorder a cell's components along the canonical span isomorphism
    onto a template span."""
    iso = spans_isomorphic(cell.span, template)
    if iso is None:
        raise NotOverX2("%s does not match the squared-index template" % label)
    inverse = np.empty_like(iso.table)
    inverse[iso.table] = np.arange(iso.table.size)
    return cell.alphas.take(inverse)


def spanv_to_hopfcat(bim, antipode=None):
    """Recognize a span-layer bimonoid as an enriched category.

    The carrier base must be a square and all spans must match the
    squared-index templates; otherwise NotOverX2 is raised.
    """
    fam = bim.monoid.carrier
    shape = fam.base.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise NotOverX2("carrier base %r is not a squared index set" % (shape,))
    n = shape[0]
    tm = _x2_template_spans(n)
    backend = fam.backend
    homs = [[fam.objs[x * n + y] for y in range(n)] for x in range(n)]
    # the template lists composable pairs (x, y), (y, z) in (x, y, z) order
    mvals = _transport(bim.monoid.mlt, tm["mlt"], "multiplication")
    m = [[[mvals[(x * n + y) * n + z] for z in range(n)] for y in range(n)] for x in range(n)]
    u = _transport(bim.monoid.uni, tm["uni"], "unit")
    dvals = _transport(bim.comonoid.lcm, tm["lcm"], "comultiplication")
    evals = _transport(bim.comonoid.lcu, tm["lcu"], "counit")
    delta = [[dvals[x * n + y] for y in range(n)] for x in range(n)]
    eps = [[evals[x * n + y] for y in range(n)] for x in range(n)]
    s = None
    if antipode is not None:
        svals = _transport(antipode.s, tm["anti"], "antipode")
        s = [[svals[x * n + y] for y in range(n)] for x in range(n)]
    return HopfVCat(backend, FinSet((n,)), homs, m, list(u), delta, eps, s)


def vopcat_as_comonoid(fc):
    """The cocomposition of an enriched cocategory as a span-layer
    comonoid on the squared carrier."""
    backend, n = fc.backend, fc.n
    tm = _x2_template_spans(n)
    carrier = _carrier_fam(backend, n, fc.homs)
    doubled = tensor_fams(carrier, carrier)
    lcm = VCell1(carrier, doubled, tm["colcm"],
                 [fc.comlt[x][y][z] for x, y, _, z in tm["coords"]])
    lcu = VCell1(carrier, unit_fam(backend), tm["colcu"], list(fc.couni))
    return ComonoidData(carrier, lcm, lcu)


def frobcat_to_spanv(fc):
    """Composition monoid plus cocomposition comonoid on the squared
    carrier."""
    tm = _x2_template_spans(fc.n)
    monoid = _monoid_part(fc.backend, fc.n, fc.homs, fc.m, fc.u, tm)
    return FrobeniusData(monoid, vopcat_as_comonoid(fc))


def vfunctor_to_spanv(ha, hb, fun):
    """An enriched functor as a span-layer morphism of the realized
    structures, with all four comparison cells forced by the legs."""
    bim_a, _ = hopfcat_to_spanv(ha)
    bim_b, _ = hopfcat_to_spanv(hb)
    na, nb = ha.n, hb.n
    base_a, base_b = FinSet((na, na)), FinSet((nb, nb))
    f0 = fun.obj_map.table
    codes = np.arange(base_a.size, dtype=np.int64)
    table = f0[codes // na] * nb + f0[codes % na]
    fspan = Span(base_a, base_a, base_b, identity_fn(base_a),
                 FinFn(base_a, base_b, table))
    pair_idx = [(x, y) for x in range(na) for y in range(na)]
    f = VCell1(bim_a.monoid.carrier, bim_b.monoid.carrier, fspan,
               [fun.components[x][y] for x, y in pair_idx])
    return OplaxMorphismData(f, **_forced_cells(morphism_boundaries(bim_a, bim_b, f)))


def opposite_vcat(h):
    """Reverse all homs; composition braids before composing the other
    way around, and the antipode family transposes."""
    backend, n = h.backend, h.n
    homs = [[h.homs[y][x] for y in range(n)] for x in range(n)]
    m = [[[backend.compose(backend.braiding(h.homs[y][x], h.homs[z][y]),
                           h.m[z][y][x])
           for z in range(n)] for y in range(n)] for x in range(n)]
    delta = [[h.delta[y][x] for y in range(n)] for x in range(n)]
    eps = [[h.eps[y][x] for y in range(n)] for x in range(n)]
    s = None
    if h.s is not None:
        s = [[h.s[y][x] for y in range(n)] for x in range(n)]
    return HopfVCat(backend, h.objects, homs, m, list(h.u), delta, eps, s)


def hopfcat_data_equal(a, b):
    """Field-by-field data equality of two enriched categories."""
    if a.backend != b.backend or a.n != b.n:
        return False
    if (a.s is None) != (b.s is None):
        return False
    k = a.backend.mor_key
    ko = a.backend.obj_key
    n = a.n
    for x, y in itertools.product(range(n), repeat=2):
        if ko(a.homs[x][y]) != ko(b.homs[x][y]):
            return False
        if k(a.delta[x][y]) != k(b.delta[x][y]) or k(a.eps[x][y]) != k(b.eps[x][y]):
            return False
        if a.s is not None and k(a.s[x][y]) != k(b.s[x][y]):
            return False
    for x in range(n):
        if k(a.u[x]) != k(b.u[x]):
            return False
    for x, y, z in itertools.product(range(n), repeat=3):
        if k(a.m[x][y][z]) != k(b.m[x][y][z]):
            return False
    return True
