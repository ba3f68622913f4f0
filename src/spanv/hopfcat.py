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
    Column,
    VCell1,
    VFam,
    first_wrong_end,
    tensor_fams,
    try_make_2cell,
    unit_fam,
)
from .errors import (
    NotAGroupoid,
    NotInvertible,
    NotOverX2,
    OutOfBounds,
    SchemaError,
    ShapeMismatch,
    UnsupportedBackend,
)
from .finset import (
    UNIT,
    FinFn,
    FinSet,
    _whole_shape,
    diagonal_fn,
    identity_fn,
    pullback,
    reindex_fn,
    tensor_fn,
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
    morphism_boundaries,
    structure_cell_boundaries,
)
from .vbackend import FinSetBackend, MatBackend, TrivialBackend, _one_per_row, pairwise, per_check

# Every field of an enriched category, declared once: name: (number of
# object indices of an entry, (dom, cod) of the entries at index axes as
# Columns, from H(x, y), the homs read along the word (x, y) of an entry's
# index tuple, the object tensor t and the unit I, and the span of
# _groupoid_spans that carries them over X x X, row-major)
FIELDS = {
    "m": (3, lambda H, t, I, x, y, z: (t(H(x, y), H(y, z)), H(x, z)), "mlt"),
    "u": (1, lambda H, t, I, x: (I, H(x, x)), "uni"),
    "delta": (2, lambda H, t, I, x, y: (H(x, y), t(H(x, y), H(x, y))), "lcm"),
    "eps": (2, lambda H, t, I, x, y: (H(x, y), I), "lcu"),
    "s": (2, lambda H, t, I, x, y: (H(x, y), H(y, x)), "anti"),
    "comlt": (3, lambda H, t, I, x, y, z: (H(x, z), t(H(x, y), H(y, z))), "colcm"),
    "couni": (1, lambda H, t, I, x: (H(x, x), I), "colcu"),
}


def _indices(n, arity):
    """Every index tuple over n objects, row-major."""
    return itertools.product(range(n), repeat=arity)


def _entries(table, n, arity, name):
    """A nested table's entries, row-major.  Every level above the
    entries must be a list or tuple of n items; a level that is not fails
    with the field name and its index path."""
    for idx in _indices(n, arity):
        entry = table
        for depth, i in enumerate(idx):
            if not isinstance(entry, (list, tuple)) or len(entry) != n:
                raise ShapeMismatch("%s must list %d entries"
                                    % (name + "[%d]" * depth % idx[:depth], n))
            entry = entry[i]
        yield entry


def _nest(flat, n, arity):
    """Row-major entries as nested lists, arity levels deep."""
    rows = list(flat)
    for _ in range(arity - 1):
        # n = 0 has no rows; range still needs a nonzero step
        rows = [rows[i:i + n] for i in range(0, len(rows), max(n, 1))]
    return rows


def _row_major(entries):
    """A list of row-major entries as a Column; the constructor merges equal ones."""
    return Column(entries, len(entries), np.arange(len(entries)))


def _tabulate(n, arity, entry):
    """The row-major Column holding entry(*idx) at every index."""
    return _row_major([entry(*idx) for idx in _indices(n, arity)])


def _grid_column(grid, n, arity, name, convert, key):
    """A grid, nested or a row-major Column, as a Column of convert's
    results, one call per stored value, merged by key."""
    if not isinstance(grid, Column):
        grid = _row_major(list(_entries(grid, n, arity, name)))
    elif grid.size != n ** arity:
        raise ShapeMismatch("%s must hold %d entries, got %d" % (name, n ** arity, grid.size))
    return Column(list(map(convert, grid.values)), grid.size, grid.codes, key)


def _grid_at(grid, tuples, word):
    """A row-major grid over the objects, read at the positions word of
    every index tuple in tuples: the grid along that reindexing word."""
    return grid.along(reindex_fn(tuples, FinSet(tuples.shape[:1] * len(word)), word))


def _power(fn, k):
    """fn tensored with itself, k factors, between row-major tuples."""
    power = fn
    for _ in range(k - 1):
        power = tensor_fn(FinSet(power.dom.shape + fn.dom.shape),
                          FinSet(power.cod.shape + fn.cod.shape), power, fn)
    return power


class _VCat:
    """The homs and the declared fields of an enriched category, each given
    nested or as a row-major Column.  columns holds each grid as a Column:
    the homs under "H", and each field's entries as backend.mor of them,
    with the ends FIELDS gives, checked column-wise; nested attributes view them."""

    fields = ()
    optional = ()

    def __init__(self, backend, objects, homs, *tables):
        if not (isinstance(objects, FinSet) and len(objects.shape) == 1):
            raise ShapeMismatch("the objects must be a one-axis FinSet, got %r" % (objects,))
        n = objects.size
        self.backend, self.objects, self.n = backend, objects, n
        H = _grid_column(homs, n, 2, "homs", lambda a: a, backend.obj_key)
        self.columns, self.homs = {"H": H}, _nest(H, n, 2)
        for name, table in zip(self.fields, tables):
            if table is None and name in self.optional:
                setattr(self, name, None)
                continue
            arity, ends, _ = FIELDS[name]
            mors = _grid_column(table, n, arity, name, backend.mor, backend.mor_key)
            tuples = FinSet((n,) * arity)
            bad = first_wrong_end(backend, mors, *ends(
                lambda *word: _grid_at(H, tuples, word),
                lambda a, b: a.zip_with(b, pairwise(backend.tensor_obj), backend.obj_key),
                Column([backend.unit], mors.size), *tuples.axes))
            if bad is not None:
                raise ShapeMismatch("%s has wrong %s" % (
                    name + "[%d]" * arity % tuple(tuples.decode(bad[0])), bad[1]))
            self.columns[name] = mors
            setattr(self, name, _nest(mors, n, arity))

    def __repr__(self):
        return "%s(%r, %d objects)" % (type(self).__name__, self.backend, self.n)


class HopfVCat(_VCat):
    """An enriched category with a comonoid on every hom, and optionally
    an antipode family s[x][y]: H[x][y] -> H[y][x]."""

    fields = ("m", "u", "delta", "eps", "s")
    optional = ("s",)

    def __init__(self, backend, objects, homs, m, u, delta, eps, s=None):
        super().__init__(backend, objects, homs, m, u, delta, eps, s)


class FrobVCat(_VCat):
    """An enriched category with an enriched cocategory structure:
    comlt[x][y][z]: H[x][z] -> H[x][y] (x) H[y][z] and couni[x] on the
    endo homs."""

    fields = ("m", "u", "comlt", "couni")

    def __init__(self, backend, objects, homs, m, u, comlt, couni):
        super().__init__(backend, objects, homs, m, u, comlt, couni)


class VFunctorData:
    """An object map with a component morphism for every hom."""

    def __init__(self, obj_map, components):
        if not isinstance(obj_map, FinFn):
            raise ShapeMismatch("the object map must be a FinFn, got %s"
                                % type(obj_map).__name__)
        n = obj_map.dom.size
        self.obj_map = obj_map
        self.components = _nest(list(_entries(components, n, 2, "components")), n, 2)


def _run_laws(backend, n, grids, rows):
    """One result per (name, arity, reads, law) row.  reads lists the
    entries a law reads at an index tuple, each a grid's name and the
    positions of its indices: "m023 H01" is m[x][z][w] and H[x][y] at
    (x, y, z, w), and "I" is the unit object.  Each read is its grid along
    that reindexing word of the tuples, row-major.  law maps them to two
    morphisms that must be equal, and runs once, on these Columns, whose
    every operation calls the backend once per distinct pair of values; so
    its first false entry is the first failing tuple, where a failure
    records the first entry that differs."""
    grids = dict(grids, I=Column([backend.unit], 1))
    results = []
    for name, arity, reads, law in rows:
        tuples, columns = FinSet((n,) * arity), []
        for read in reads.split():
            grid = read.rstrip("0123456789")
            columns.append(_grid_at(grids[grid], tuples, [int(i) for i in read[len(grid):]]))
        lhs, rhs = law(*columns)
        bad = lhs.zip_with(rhs, pairwise(backend.eq_mor)).first_false()
        results.append(AxiomResult(name, True) if bad is None else AxiomResult(name, False, {
            "at": tuples.decode(bad).tolist(),
            "diff": backend.first_difference(lhs[bad], rhs[bad])}))
    return results


def _column_ops(backend):
    """compose, tensor, identity and braiding of Columns, entry by entry,
    each one backend call."""
    mor = backend.mor_key
    return (lambda f, g: f.zip_with(g, backend.compose_many, mor),
            lambda f, g: f.zip_with(g, backend.tensor_many, mor),
            lambda a: a.map(backend.id),
            lambda a, b: a.zip_with(b, pairwise(backend.braiding), mor))


def _category_laws(backend):
    """Rows for associativity and the two unit laws of composition."""
    c, t, iden, _ = _column_ops(backend)
    return [
        ("cat-assoc", 4, "m012 H23 m023 H01 m123 m013",
         lambda m012, H23, m023, H01, m123, m013: (
             c(t(m012, iden(H23)), m023), c(t(iden(H01), m123), m013))),
        ("cat-unit-left", 2, "u0 H01 m001", lambda u0, H, m: (c(t(u0, iden(H)), m), iden(H))),
        ("cat-unit-right", 2, "H01 u1 m011", lambda H, u1, m: (c(t(iden(H), u1), m), iden(H))),
    ]


@per_check
def check_semi_hopf_vcat(h):
    """Category laws, a comonoid on every hom, and the compatibility of
    composition and identities with those comonoids."""
    backend = h.backend
    c, t, iden, braid = _column_ops(backend)
    return CheckReport(_run_laws(backend, h.n, h.columns, _category_laws(backend) + [
        ("local-coassoc", 2, "delta01 H01", lambda d, H: (
            c(d, t(d, iden(H))), c(d, t(iden(H), d)))),
        ("local-counit-left", 2, "delta01 eps01 H01", lambda d, e, H: (
            c(d, t(e, iden(H))), iden(H))),
        ("local-counit-right", 2, "delta01 H01 eps01", lambda d, H, e: (
            c(d, t(iden(H), e)), iden(H))),
        ("mult-comult", 3, "m012 delta02 delta01 delta12 H01 H12",
         lambda m012, d02, d01, d12, H01, H12: (c(m012, d02), c(c(t(d01, d12), t(t(
             iden(H01), braid(H01, H12)), iden(H12))), t(m012, m012)))),
        ("unit-comult", 1, "u0 delta00", lambda u, d: (c(u, d), t(u, u))),
        ("mult-counit", 3, "m012 eps02 eps01 eps12", lambda m012, e02, e01, e12: (
            c(m012, e02), t(e01, e12))),
        ("unit-counit", 1, "u0 eps00 I", lambda u, e, I: (c(u, e), iden(I))),
    ]))


@per_check
def check_hopf_vcat(h):
    """The semi checks plus the two antipode equations at every hom."""
    if h.s is None:
        raise SchemaError("missing field 's': check_hopf_vcat needs an antipode; "
                          "check_semi_hopf_vcat checks the rest")
    backend = h.backend
    c, t, iden, _ = _column_ops(backend)
    return CheckReport(check_semi_hopf_vcat(h).results + _run_laws(backend, h.n, h.columns, [
        ("antipode-left", 2, "delta01 s01 H01 m101 eps01 u1",
         lambda d01, s01, H01, m101, e01, u1: (c(c(d01, t(s01, iden(H01))), m101), c(e01, u1))),
        ("antipode-right", 2, "delta01 H01 s01 m010 eps01 u0",
         lambda d01, H01, s01, m010, e01, u0: (c(c(d01, t(iden(H01), s01)), m010), c(e01, u0))),
    ]))


@per_check
def check_frobenius_vcat(fc):
    """Category and cocategory laws plus both indexed exchange squares."""
    backend = fc.backend
    c, t, iden, _ = _column_ops(backend)
    return CheckReport(_run_laws(backend, fc.n, fc.columns, _category_laws(backend) + [
        ("cocat-coassoc", 4, "comlt023 comlt012 H23 comlt013 H01 comlt123",
         lambda k023, k012, H23, k013, H01, k123: (
             c(k023, t(k012, iden(H23))), c(k013, t(iden(H01), k123)))),
        ("cocat-counit-left", 2, "comlt001 couni0 H01", lambda k001, e0, H01: (
            c(k001, t(e0, iden(H01))), iden(H01))),
        ("cocat-counit-right", 2, "comlt011 H01 couni1", lambda k011, H01, e1: (
            c(k011, t(iden(H01), e1)), iden(H01))),
        ("frobenius-left", 4, "m012 comlt032 comlt031 H12 H03 m312",
         lambda m012, k032, k031, H12, H03, m312: (
             c(m012, k032), c(t(k031, iden(H12)), t(iden(H03), m312)))),
        ("frobenius-right", 4, "m012 comlt032 H01 comlt132 m013 H32",
         lambda m012, k032, H01, k132, m013, H32: (
             c(m012, k032), c(t(iden(H01), k132), t(m013, iden(H32))))),
    ]))


def _functor_components(ca, cb, fun):
    """fun's components, row-major, as a Column; its object map must run
    ca -> cb, and its component at (x, y) from ca's hom there to cb's hom
    at the objects (x, y) go to."""
    for side, end, v in (("domain", fun.obj_map.dom, ca), ("codomain", fun.obj_map.cod, cb)):
        if end != v.objects:
            raise ShapeMismatch("the object map's %s %r is not %r" % (side, end, v.objects))
    backend = ca.backend
    components = _grid_column(fun.components, ca.n, 2, "components", backend.mor, backend.mor_key)
    bad = first_wrong_end(backend, components, ca.columns["H"],
                          cb.columns["H"].along(_power(fun.obj_map, 2)))
    if bad is not None:
        raise ShapeMismatch("components[%d][%d] has wrong ends"
                            % tuple(FinSet((ca.n, ca.n)).decode(bad[0])))
    return components


@per_check
def check_frobenius_vfunctor(ca, cb, fun):
    """The four squares: composition, identities, cocomposition and
    coidentities all commute with the components.  The grids "b..." are
    those of cb along the tensor powers of the object map."""
    backend = ca.backend
    c, t, _, _ = _column_ops(backend)
    grids = dict(ca.columns, F=_functor_components(ca, cb, fun))
    for name in ("m", "u", "comlt", "couni"):
        grids["b" + name] = cb.columns[name].along(_power(fun.obj_map, FIELDS[name][0]))
    return CheckReport(_run_laws(backend, ca.n, grids, [
        ("functor-mult", 3, "m012 F02 F01 F12 bm012", lambda m012, F02, F01, F12, bm012: (
            c(m012, F02), c(t(F01, F12), bm012))),
        ("functor-unit", 1, "u0 F00 bu0", lambda u0, F00, bu0: (c(u0, F00), bu0)),
        ("opfunctor-comult", 3, "comlt012 F01 F12 F02 bcomlt012",
         lambda k012, F01, F12, F02, bk012: (c(k012, t(F01, F12)), c(F02, bk012))),
        ("opfunctor-counit", 1, "couni0 F00 bcouni0", lambda e0, F00, be0: (e0, c(F00, be0))),
    ]))


def mat_frobenius_example(p, max_n):
    """Rectangular matrices over Z/p as a Frobenius enriched category.

    Object x stands for size x+1; the hom at (x, y) is the space of
    (x+1) by (y+1) matrices with basis cells e[i][j], composition is
    matrix product on basis cells, cocomposition sums over a middle
    index and the coidentity reads off the trace: the cocategory is the
    transpose of the category.
    """
    max_n, = _whole_shape((max_n,))
    if max_n < 1:
        raise OutOfBounds("max_n must be at least 1, got %s" % (max_n,))
    objects = FinSet((max_n,))
    size = [x + 1 for x in range(max_n)]
    homs = [[a * b for b in size] for a in size]

    def cell(x, y, i, j):
        return i * size[y] + j

    def mult(x, y, z):
        mm = np.zeros((homs[x][y] * homs[y][z], homs[x][z]), dtype=np.int64)
        for i, j, w in itertools.product(range(size[x]), range(size[y]), range(size[z])):
            mm[cell(x, y, i, j) * homs[y][z] + cell(y, z, j, w), cell(x, z, i, w)] = 1
        return mm

    def trace(x):
        tr = np.zeros((1, homs[x][x]), dtype=np.int64)
        tr[0, [cell(x, x, i, i) for i in range(size[x])]] = 1
        return tr

    m, u = _tabulate(max_n, 3, mult), _tabulate(max_n, 1, trace)
    return FrobVCat(MatBackend(prime=p), objects, homs,
                    m, u, m.map(np.transpose), u.map(np.transpose))


def group_algebra_hopf(p, order):
    """The group algebra of a cyclic group over Z/p as a one-object
    instance: the linearisation of the group, so its basis is the group
    elements, its comultiplication grouplike and its antipode inversion."""
    backend = MatBackend(prime=p)
    order, = _whole_shape((order,))
    if order < 1:
        raise OutOfBounds("group order must be at least 1, got %s" % (order,))
    return linearise(groupoid_to_hopfcat(cyclic_group_groupoid(order)), backend)


class GroupoidData:
    """A finite groupoid: objects, morphisms, boundaries, a composition
    table over the composable-pair subset, identities and inverses.
    Construction checks the boundaries, then the laws by check_hopf_vcat
    (its cat-unit, antipode and cat-assoc rows, the comonoids diagonal);
    the library's groupoids are groupoids by construction and skip both."""

    def __init__(self, g0, g1, src, tgt, comp_table, e, inv):
        self._fill(g0, g1, src, tgt, comp_table, e, inv)
        src, tgt, e, inv, comp = (f.table for f in (src, tgt, e, inv, self.comp))
        ids = np.arange(g0.size)
        if not (np.array_equal(src[e], ids) and np.array_equal(tgt[e], ids)):
            raise NotAGroupoid("identities have wrong boundaries")
        if not np.array_equal(src[comp], src[self.p1.table]):
            raise NotAGroupoid("composite changes the source")
        if not np.array_equal(tgt[comp], tgt[self.p2.table]):
            raise NotAGroupoid("composite changes the target")
        if not (np.array_equal(src[inv], tgt) and np.array_equal(tgt[inv], src)):
            raise NotAGroupoid("inverse has wrong boundaries")
        # groupoid_to_hopfcat relies on the boundaries above, not on the laws
        for r in check_hopf_vcat(groupoid_to_hopfcat(self)).results:
            if not r.ok:
                raise NotAGroupoid("%s fails at %s: %r" % (
                    r.name, r.counterexample["at"], r.counterexample["diff"]))

    @classmethod
    def _of_tables(cls, *tables):
        # a groupoid by construction, so it skips every check
        G = cls.__new__(cls)
        G._fill(*tables)
        return G

    def _fill(self, g0, g1, src, tgt, comp_table, e, inv):
        self.g0, self.g1, self.src, self.tgt, self.e, self.inv = g0, g1, src, tgt, e, inv
        self.pairs, self.p1, self.p2 = pullback(tgt, src)
        self.comp = FinFn(self.pairs, g1, comp_table)

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
    inv = reindex_fn(g1, g1, (1, 0))
    # the composable pairs ((x, y), (y, z)) ascend as (x, y, z) row-major
    comp = reindex_fn(FinSet((n,) * 3), g1, (0, 2))
    return GroupoidData._of_tables(g0, g1, src, tgt, comp.table, e, inv)


def cyclic_group_groupoid(k):
    """The cyclic group of order k as a one-object groupoid."""
    g0, g1 = FinSet((1,)), FinSet((k,))
    k = g1.size
    zeros = FinFn(g1, g0, np.zeros(k, dtype=np.int64))
    e = FinFn(g0, g1, np.zeros(1, dtype=np.int64))
    inv = FinFn(g1, g1, (-np.arange(k)) % k)
    codes = np.arange(k * k, dtype=np.int64)
    comp_table = (codes // k + codes % k) % k
    return GroupoidData._of_tables(g0, g1, zeros, zeros, comp_table, e, inv)


def discrete_groupoid(n):
    """Only identity morphisms."""
    g0 = FinSet((n,))
    ident = identity_fn(g0)
    return GroupoidData._of_tables(g0, g0, ident, ident, np.arange(n, dtype=np.int64),
                                   ident, ident)


def groupoid_to_hopfcat(G):
    """A groupoid as an enriched category over finite sets: homs are the
    hom-sets, comultiplication is the diagonal, antipode the inversion.
    Every table is read off the morphisms sorted by hom and the composable
    pairs sorted by (x, y, z) and place in the hom; the composites fit
    their homs by construction, so their range goes unchecked."""
    backend = FinSetBackend()
    t = backend.tensor_obj
    n = G.g0.size
    hom = G.src.table * n + G.tgt.table
    by_hom, sizes = np.argsort(hom, kind="stable"), np.bincount(hom, minlength=n * n)
    loc = np.argsort(by_hom) - (np.cumsum(sizes) - sizes)[hom]
    flat = [FinSet((int(k),)) for k in sizes]
    homs, H = _nest(flat, n, 2), Column.from_list(flat, backend.obj_key)
    g, h = G.p1.table, G.p2.table
    comps = loc[G.comp.table[np.lexsort((loc[h], loc[g], hom[g] * n + G.tgt.table[h]))]]
    cuts = np.cumsum(sizes.reshape(n, n, 1) * sizes.reshape(n, n)).tolist()
    invs = np.split(loc[G.inv.table[by_hom]], np.cumsum(sizes)[:-1])
    return HopfVCat(
        backend, G.g0, H,
        _row_major([FinFn._of_table(t(homs[x][y], homs[y][z]), homs[x][z], comps[a:b])
                    for (x, y, z), a, b in zip(_indices(n, 3), [0] + cuts, cuts)]),
        _tabulate(n, 1, lambda x: FinFn(UNIT, homs[x][x], [loc[G.e.table[x]]])),
        H.map(lambda A: FinFn(A, t(A, A), np.arange(A.size) * (A.size + 1))),
        H.map(lambda A: FinFn(A, UNIT, np.zeros(A.size, int))),
        _tabulate(n, 2, lambda x, y: FinFn(homs[x][y], homs[y][x], invs[x * n + y])))


def linearise(v, backend):
    """The change of base of a category over finite sets to matrices: a hom
    set goes to its size, a function f: A -> B to the 0/1 matrix with a 1 at
    (a, f(a)), once per distinct value.  It is faithful and strong monoidal."""
    if not (isinstance(v.backend, FinSetBackend) and isinstance(backend, MatBackend)):
        raise UnsupportedBackend("linearise takes finite sets to matrices")
    return type(v)(backend, v.objects, v.columns["H"].map(lambda A: A.size), *[
        None if g is None else g.map(lambda f: _one_per_row(f.table, f.cod.size))
        for g in map(v.columns.get, v.fields)])


def _groupoid_spans(G):
    """The spans of a groupoid's structures over its morphisms: composition
    (mlt) and identities (uni), the diagonal comonoid (lcm, lcu), inversion
    (anti), and reversed composition with its counit (colcm, colcu).  Those
    of codiscrete_groupoid(n) carry every enriched category on n objects."""
    g1, pairs = G.g1, G.pairs
    base2 = FinSet(g1.shape + g1.shape)
    incl = FinFn(pairs, base2, pairs.members)
    return {
        "mlt": Span(base2, pairs, g1, incl, G.comp),
        "uni": Span(UNIT, G.g0, g1, terminal_fn(G.g0), G.e),
        "lcm": Span(g1, g1, base2, identity_fn(g1), diagonal_fn(g1)),
        "lcu": Span(g1, g1, UNIT, identity_fn(g1), terminal_fn(g1)),
        "anti": Span(g1, g1, g1, identity_fn(g1), G.inv),
        "colcm": Span(g1, pairs, base2, G.comp, incl),
        "colcu": Span(g1, G.g0, UNIT, G.e, terminal_fn(G.g0)),
    }


def _span_cells(spans, carrier, components):
    """Each named span as a 1-cell with the given components (None:
    identities on the unit).  Its feet pick its families: the carrier,
    the carrier's tensor square or the unit family."""
    fams = {fam.base.shape: fam for fam in
            (carrier, tensor_fams(carrier, carrier), unit_fam(carrier.backend))}
    return {name: VCell1(fams[spans[name].left.shape], fams[spans[name].right.shape],
                         spans[name], alphas)
            for name, alphas in components.items()}


def _field_cells(v):
    """Each given field of an enriched category as a 1-cell over the
    squared index set, its entries laid on its span in row-major order."""
    carrier = VFam(v.backend, FinSet((v.n, v.n)), v.columns["H"])
    components = {FIELDS[name][2]: v.columns[name] for name in v.fields if name in v.columns}
    return _span_cells(_groupoid_spans(codiscrete_groupoid(v.n)), carrier, components)


def _leg_forced_cell(src_cell, tgt_cell):
    """The 2-cell whose apex map is forced element by element by the two
    legs.  Validation failures come back as InvalidCell records."""
    s, u = feet_pairs(src_cell.span, tgt_cell.span)
    forced = np.array_equal(s, np.arange(src_cell.span.apex.size))
    # cannot fail: on groupoid spans one target element lies over the feet of each source element
    assert forced, "apex map is not forced by the legs"
    return try_make_2cell(src_cell, tgt_cell, u)


def _forced_cells(bounds):
    """Each generator of a boundary table as its leg-forced 2-cell."""
    return {name: _leg_forced_cell(*pair) for name, pair in bounds.items()}


def _bimonoid(cells):
    """The bimonoid of the mlt, uni, lcm and lcu cells with its forced
    structure cells, and the antipode on the anti cell if there is one."""
    carrier = cells["mlt"].cod
    monoid = MonoidData(carrier, cells["mlt"], cells["uni"])
    comonoid = ComonoidData(carrier, cells["lcm"], cells["lcu"])
    bim = OplaxBimonoidData(
        monoid, comonoid, **_forced_cells(structure_cell_boundaries(monoid, comonoid)))
    s = cells.get("anti")
    if s is None:
        return bim, None
    return bim, AntipodeData(s, **_forced_cells(antipode_boundaries(bim, s)))


def groupoid_structures(G):
    """All span-layer structures carried by a finite groupoid.

    Returns (monoid, comonoid, cocomposition comonoid, bimonoid,
    antipode, frobenius): the composition monoid, the diagonal comonoid,
    the reversed-composition comonoid, the bimonoid built from the first
    two with its forced structure cells, inversion with its two
    convolution cells, and the Frobenius pairing of composition with
    reversed composition.
    """
    spans = _groupoid_spans(G)
    cells = _span_cells(spans, VFam(TrivialBackend(), G.g1), dict.fromkeys(spans))
    bim, antipode = _bimonoid(cells)
    cocomposition = ComonoidData(bim.monoid.carrier, cells["colcm"], cells["colcu"])
    return (bim.monoid, bim.comonoid, cocomposition, bim, antipode,
            FrobeniusData(bim.monoid, cocomposition))


@per_check
def hopfcat_to_spanv(h):
    """Realize an enriched category over the span layer: composition
    over the composable-pairs span, hom comonoids over the diagonal,
    plus the forced structure cells, and the antipode if present."""
    return _bimonoid(_field_cells(h))


def _transport(cell, template, label):
    """Reorder a cell's components along the canonical span isomorphism
    onto a template span."""
    iso = spans_isomorphic(template, cell.span)
    if iso is None:
        raise NotOverX2("%s does not match the squared-index template" % label)
    return cell.alphas.along(iso)


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
    spans = _groupoid_spans(codiscrete_groupoid(n))
    cells = {"mlt": bim.monoid.mlt, "uni": bim.monoid.uni,
             "lcm": bim.comonoid.lcm, "lcu": bim.comonoid.lcu,
             "anti": None if antipode is None else antipode.s}
    tables = [None if cells[span] is None else
              _transport(cells[span], spans[span], "the %s span" % span)
              for _, _, span in (FIELDS[name] for name in HopfVCat.fields)]
    return HopfVCat(fam.backend, FinSet((n,)), fam.objs, *tables)


def vopcat_as_comonoid(fc):
    """The cocomposition of an enriched cocategory as a span-layer
    comonoid on the squared carrier."""
    return frobcat_to_spanv(fc).comonoid


@per_check
def frobcat_to_spanv(fc):
    """Composition monoid plus cocomposition comonoid on the squared
    carrier."""
    cells = _field_cells(fc)
    carrier = cells["mlt"].cod
    return FrobeniusData(MonoidData(carrier, cells["mlt"], cells["uni"]),
                         ComonoidData(carrier, cells["colcm"], cells["colcu"]))


@per_check
def vfunctor_to_spanv(ha, hb, fun):
    """An enriched functor as a span-layer morphism of the realized
    structures, with all four comparison cells forced by the legs."""
    components = _functor_components(ha, hb, fun)
    bim_a, _ = hopfcat_to_spanv(ha)
    bim_b, _ = hopfcat_to_spanv(hb)
    f0 = _power(fun.obj_map, 2)
    fspan = Span(f0.dom, f0.dom, f0.cod, identity_fn(f0.dom), f0)
    f = VCell1(bim_a.monoid.carrier, bim_b.monoid.carrier, fspan, components)
    return OplaxMorphismData(f, **_forced_cells(morphism_boundaries(bim_a, bim_b, f)))


def _inverse_antipode(backend, s, t):
    """s^-1 for s: A -> B and t: B -> A from backend operations alone; None if there is none.

    With P = s then t and P^k the identity, the inverse is t then P^(k-1).
    The powers of P live in a finite monoid, so a repeated power before
    the identity shows that P is not invertible.
    """
    p = backend.compose(s, t)
    ident = backend.id(backend.dom(s))
    prev, power, seen = ident, p, set()
    while not backend.eq_mor(power, ident):
        key = backend.mor_key(power)
        if key in seen:
            return None
        seen.add(key)
        prev, power = power, backend.compose(power, p)
    inverse = backend.compose(t, prev)
    # P^k = id gives a right inverse only; the other side can still fail
    if not backend.eq_mor(backend.compose(inverse, s), backend.id(backend.cod(s))):
        return None
    return inverse


def opposite_vcat(h):
    """Reverse all homs; composition braids before composing the other
    way around, and the antipode at (x, y) is the inverse of s[x][y].
    Raises NotInvertible naming the first s[x][y], row-major, with no inverse."""
    backend, n, grids = h.backend, h.n, h.columns
    compose, _, _, braid = _column_ops(backend)
    pairs, triples, H = FinSet((n, n)), FinSet((n,) * 3), grids["H"]
    swap = reindex_fn(pairs, pairs, (1, 0))
    # m[z][y][x] after the braiding of H[y][x] (x) H[z][y]
    m = compose(braid(_grid_at(H, triples, (1, 0)), _grid_at(H, triples, (2, 1))),
                _grid_at(grids["m"], triples, (2, 1, 0)))
    s = grids.get("s")
    if s is not None:
        s = s.zip_with(s.along(swap), pairwise(lambda a, b: _inverse_antipode(backend, a, b)))
        bad = s.map(lambda v: v is not None).first_false()
        if bad is not None:
            raise NotInvertible("antipode s[%d][%d] is not invertible" % tuple(pairs.decode(bad)))
    return HopfVCat(backend, h.objects, H.along(swap), m, grids["u"],
                    grids["delta"].along(swap), grids["eps"].along(swap), s)


def hopfcat_data_equal(a, b):
    """Field-by-field data equality of two enriched categories of one kind."""
    if (type(a) is not type(b) or a.backend != b.backend or a.n != b.n
            or a.columns.keys() != b.columns.keys()):
        return False
    return all(a.columns[k].all_equal(b.columns[k], pairwise(
        a.backend.eq_obj if k == "H" else a.backend.eq_mor)) for k in a.columns)
