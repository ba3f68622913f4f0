"""Families of backend objects over finite sets, and the cells between them.

An object here is a family A = (A_x) of backend objects indexed by a
finite set X.  A 1-cell (X, A) -> (Y, B) is a span X <- S -> Y together
with a component morphism alpha_s: A_{f(s)} -> B_{g(s)} for every apex
element.  A 2-cell is a map of the underlying spans u with
alpha_s = beta_{u(s)}, so equality of 2-cells is equality of u.

The apex map of a 2-cell is a ``finset.FinFn``.  An identity 2-cell
keeps the identity and a tensor of 2-cells keeps its two factor maps,
so a whiskered tensor reads the map only at the points of the
composite.  ``make_2cell`` checks a product map against product legs
factor by factor, with the same verdict and counterexample as on the
tabulated map.

A cell is checked once, where it enters: by the public ``VCell1``
constructor and by ``make_2cell`` (so ``try_make_2cell``).  Composites,
tensors, braidings and identities of 1-cells are built by the private
``VCell1._of`` without a check.  A checked 2-cell is marked ``_checked``
(only ``VCell2._of`` sets it): identities, canonical isos and found
2-cells are marked, and a composite, tensor, inverse or pasting of marked
2-cells is marked without a check.  One built from an unmarked
``VCell2`` is checked by ``make_2cell`` or, for a vertical composite or
a pasting, left unmarked.
"""

from functools import cached_property

import numpy as np

from .errors import (
    BoundaryMismatch,
    CodMismatch,
    ComponentShapeError,
    FactorizationViolation,
    FamMismatch,
    ShapeMismatch,
    SpanVError,
    TableOutOfRange,
    TriangleViolation,
)
from .finset import FinFn, FinSet, compose_fn, identity_fn, pullback, tensor_fn
from .span import Span, braiding_span, identity_span, is_identity_span, tensor_spans
from .vbackend import pairwise


class Column:
    """A sequence of backend values, dictionary-encoded.

    Entry i is values[codes[i]], with codes an int64 array.  A column
    with one value stores no codes, so it costs O(1) memory at any
    length.  Columns built from a list, and the results of tensor,
    compose and braiding, merge values whose backend keys are equal.
    zip_with and outer call fn(xs, ys) once, on the lists of the first and
    second values of every occurring pair, so a backend's compose_many or
    tensor_many is one backend call per operation; map calls fn once per
    stored value.  Then one numpy step maps the codes.  The distinct pairs
    ascend by pair code; when there are no more possible pairs than
    entries they are numbered by marking, without a sort.
    """

    def __init__(self, values, size, codes=None, key=None):
        if size == 0:
            values = []
        if key is not None and len(values) > 1:
            merged = Column.from_list(values, key)
            if len(merged.values) < len(values):
                values = merged.values
                codes = None if merged.codes is None else merged.codes[codes]
        self.values = values
        self.size = int(size)
        self.codes = None if len(values) <= 1 else np.asarray(codes, dtype=np.int64)

    @classmethod
    def from_list(cls, items, key):
        """Encode a list, merging entries whose keys are equal."""
        index, values = {}, []
        codes = np.empty(len(items), dtype=np.int64)
        for i, item in enumerate(items):
            codes[i] = index.setdefault(key(item), len(values))
            if codes[i] == len(values):
                values.append(item)
        return cls(values, len(items), codes)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        return self.values[0 if self.codes is None else self.codes[int(i)]]

    def __iter__(self):
        return (self[i] for i in range(self.size))

    def expand(self, per_value):
        """The array whose entry i is per_value[codes[i]]."""
        per_value = np.asarray(per_value)
        if self.codes is None:
            return np.repeat(per_value, self.size)
        return per_value[self.codes]

    def take(self, index):
        """Entries at the given positions, in that order."""
        codes = None if self.codes is None else self.codes[index]
        return Column(self.values, len(index), codes)

    def along(self, fn):
        """Entry s is self[fn(s)]; a constant column never reads fn's
        table, and along the identity on positions the codes are shared."""
        codes = self.codes if self.codes is None or fn.positional else self.codes[fn.table]
        return Column(self.values, fn.dom.size, codes)

    def map(self, fn):
        return Column([fn(v) for v in self.values], self.size, self.codes)

    def zip_with(self, other, fn, key=None):
        """Entry i is fn's result at the pair (self[i], other[i])."""
        if self.size != other.size:
            raise ShapeMismatch("cannot pair a column of %d entries with one of %d"
                                % (self.size, other.size))
        width = len(other.values)
        return self._pairs(other, self.size, fn, key,
                           lambda: self._dense() * width + other._dense())

    def outer(self, other, fn, key=None):
        """Row-major product: entry i * len(other) + j is fn's result at (self[i], other[j])."""
        width = len(other.values)
        return self._pairs(other, self.size * other.size, fn, key,
                           lambda: (self._dense()[:, None] * width + other._dense()).ravel())

    def _dense(self):
        return np.zeros(self.size, dtype=np.int64) if self.codes is None else self.codes

    def _pairs(self, other, size, fn, key, pair_codes):
        # one call of fn on the distinct pairs of values; pair_codes()
        # numbers each entry's pair and is never built when both sides are constant
        if self.codes is None and other.codes is None:
            return Column(fn(self.values * len(other.values), other.values * len(self.values)),
                          size, key=key)
        pairs, space = pair_codes(), len(self.values) * len(other.values)
        if space <= size:
            # a pair space no larger than the column is numbered by marking
            # the pairs that occur, in the ascending order np.unique gives
            seen = np.zeros(space, dtype=bool)
            seen[pairs] = True
            distinct, codes = np.flatnonzero(seen), (np.cumsum(seen) - 1)[pairs]
        else:
            distinct, codes = np.unique(pairs, return_inverse=True)
        left, right = np.divmod(distinct, len(other.values))
        values = fn([self.values[i] for i in left.tolist()],
                    [other.values[j] for j in right.tolist()])
        return Column(values, size, codes.reshape(-1), key)

    def first_false(self):
        """The first position holding a false value, or None."""
        if self.size == 0 or all(self.values):
            return None
        return int(np.argmin(self.expand([bool(v) for v in self.values])))

    def all_equal(self, other, eq):
        return self is other or self.zip_with(other, eq).first_false() is None


def first_wrong_end(backend, mors, doms, cods):
    """The first i where mors[i] does not run doms[i] -> cods[i] (Columns),
    as (i, "domain"), also when both ends are wrong, or (i, "codomain")."""
    eq = pairwise(backend.eq_obj)
    d, c = (mors.map(end).zip_with(want, eq).first_false()
            for end, want in ((backend.dom, doms), (backend.cod, cods)))
    bad = [(i, end) for i, end in ((d, "domain"), (c, "codomain")) if i is not None]
    return min(bad, key=lambda b: b[0], default=None)


class VFam:
    """A family of backend objects indexed by a finite set: a Column, a
    list with one object per base element, or None for all unit objects."""

    def __init__(self, backend, base, objs=None):
        if not isinstance(base, FinSet):
            raise ShapeMismatch("a family's base must be a FinSet, got %s" % type(base).__name__)
        if objs is None:
            objs = Column([backend.unit], base.size)
        self.backend = backend
        self.base = base
        self.objs = objs if isinstance(objs, Column) else Column.from_list(objs, backend.obj_key)
        if self.objs.size != base.size:
            raise ShapeMismatch("family has %d objects for a base of %d elements"
                                % (self.objs.size, base.size))

    def __repr__(self):
        return "VFam(%r over %r)" % (self.backend, self.base)


def fams_equal(a, b):
    return a is b or (a.backend == b.backend and a.base == b.base
                      and a.objs.all_equal(b.objs, pairwise(a.backend.eq_obj)))


def unit_fam(backend):
    return VFam(backend, FinSet(()))


def tensor_fams(a, b):
    if a.base.shape == ():
        return b
    if b.base.shape == ():
        return a
    backend = a.backend
    objs = a.objs.outer(b.objs, pairwise(backend.tensor_obj), backend.obj_key)
    return VFam(backend, FinSet(a.base.shape + b.base.shape), objs)


class VCell1:
    """A span with a backend morphism over every apex element: a Column,
    a list, or None for the identity on the unit object everywhere.  The
    constructor checks the span's feet against the families, the number
    of components and every component's ends."""

    def __init__(self, dom, cod, span, alphas):
        backend = dom.backend
        if span.left != dom.base or span.right != cod.base:
            raise FamMismatch("span feet %r, %r do not match family bases %r, %r"
                              % (span.left, span.right, dom.base, cod.base))
        if alphas is None:
            alphas = Column([backend.id(backend.unit)], span.apex.size)
        elif not isinstance(alphas, Column):
            alphas = Column.from_list(alphas, backend.mor_key)
        if alphas.size != span.apex.size:
            raise ShapeMismatch("cell has %d components for an apex of %d elements"
                                % (alphas.size, span.apex.size))
        bad = first_wrong_end(backend, alphas, dom.objs.along(span.f), cod.objs.along(span.g))
        if bad is not None:
            raise ComponentShapeError("component %d has wrong boundary" % bad[0])
        self.backend = backend
        self.dom = dom
        self.cod = cod
        self.span = span
        self.alphas = alphas
        self._is_id = None

    @classmethod
    def _of(cls, dom, cod, span, alphas):
        # a composite, tensor, braiding or identity of checked cells fits
        # its families by construction, so it skips every check
        cell = cls.__new__(cls)
        cell.backend, cell.dom, cell.cod, cell.span, cell.alphas = (
            dom.backend, dom, cod, span, alphas)
        cell._is_id = None
        return cell

    def __repr__(self):
        return "VCell1(%r => %r, apex %r)" % (self.dom.base, self.cod.base, self.span.apex)


def cells_equal(a, b):
    """Literal equality of 1-cells: same span, same families, same components."""
    if a is b:
        return True
    # unequal 1-cells mostly differ in their spans: test those first
    if a.span != b.span:
        return False
    if not fams_equal(a.dom, b.dom) or not fams_equal(a.cod, b.cod):
        return False
    return a.alphas.all_equal(b.alphas, pairwise(a.backend.eq_mor))


def identity_cell(fam):
    cell = VCell1._of(fam, fam, identity_span(fam.base), fam.objs.map(fam.backend.id))
    cell._is_id = True
    return cell


def is_identity_cell(cell):
    if cell._is_id is None:
        backend = cell.backend
        cell._is_id = is_identity_span(cell.span) and cell.alphas.all_equal(
            cell.dom.objs.map(backend.id), pairwise(backend.eq_mor))
    return cell._is_id


def _is_unit_identity_cell(cell):
    return cell.dom.base.shape == () and cell.cod.base.shape == () and is_identity_cell(cell)


def compose_cells(a, b):
    """First a, then b.  Identity cells are absorbed literally."""
    if not fams_equal(a.cod, b.dom):
        raise CodMismatch("cannot chain %r after %r" % (b, a))
    if is_identity_cell(a):
        return b
    if is_identity_cell(b):
        return a
    apex, p1, p2 = pullback(a.span.g, b.span.f)
    span = Span(a.span.left, apex, b.span.right,
                compose_fn(p1, a.span.f), compose_fn(p2, b.span.g))
    backend = a.backend
    alphas = a.alphas.along(p1).zip_with(
        b.alphas.along(p2), backend.compose_many, backend.mor_key)
    return VCell1._of(a.dom, b.cod, span, alphas)


def tensor_cells(a, b):
    """Side-by-side tensor.  The identity cell on the unit family is absorbed."""
    if _is_unit_identity_cell(a):
        return b
    if _is_unit_identity_cell(b):
        return a
    span = tensor_spans(a.span, b.span)
    backend = a.backend
    alphas = a.alphas.outer(b.alphas, backend.tensor_many, backend.mor_key)
    return VCell1._of(tensor_fams(a.dom, b.dom), tensor_fams(a.cod, b.cod), span, alphas)


def braiding_cell(a, b):
    """The symmetry (X, A) tensor (Y, B) -> (Y, B) tensor (X, A)."""
    backend = a.backend
    span = braiding_span(a.base, b.base)
    alphas = a.objs.outer(b.objs, pairwise(backend.braiding), backend.mor_key)
    return VCell1._of(tensor_fams(a, b), tensor_fams(b, a), span, alphas)


class VCell2:
    """A map of enriched spans: an apex map that preserves legs and
    components, a FinFn or a table; its table u is built on first read.
    The constructor checks nothing and leaves the cell unmarked:
    make_2cell checks one."""

    _checked = False

    def __init__(self, src, tgt, u):
        self.src = src
        self.tgt = tgt
        self.apex_map = u if isinstance(u, FinFn) else FinFn(src.span.apex, tgt.span.apex, u)

    @classmethod
    def _of(cls, src, tgt, u):
        # checked by make_2cell or a 2-cell by construction: marked, so
        # what is built from marked cells alone needs no check
        cell = cls(src, tgt, u)
        cell._checked = True
        return cell

    @cached_property
    def u(self):
        return self.apex_map.table

    def __repr__(self):
        return "VCell2(%r => %r)" % (self.src, self.tgt)


class InvalidCell:
    """A rejected 2-cell candidate, remembering why it was rejected."""

    def __init__(self, src, tgt, u, error, element=None):
        self.src = src
        self.tgt = tgt
        self.u = u
        self.error = error
        self.element = element

    def __repr__(self):
        return "InvalidCell(%s)" % self.error


def make_2cell(src, tgt, u):
    """The 2-cell src => tgt with apex map u, a table or a FinFn, after
    checking both leg triangles and every component; it is marked, so
    cells derived from it alone are built without a check."""
    if not fams_equal(src.dom, tgt.dom) or not fams_equal(src.cod, tgt.cod):
        raise BoundaryMismatch("source and target do not share boundaries")
    if not isinstance(u, FinFn):
        try:
            u = FinFn(src.span.apex, tgt.span.apex, u)
        except ShapeMismatch:
            raise BoundaryMismatch("apex map has length %d, expected %d"
                                   % (np.size(u), src.span.apex.size)) from None
        except TableOutOfRange:
            raise BoundaryMismatch("apex map value out of range") from None
    for side, leg, image in (("left", src.span.f, compose_fn(u, tgt.span.f)),
                             ("right", src.span.g, compose_fn(u, tgt.span.g))):
        bad = image.first_difference(leg)
        if bad is not None:
            err = TriangleViolation("%s leg disagrees at apex element %d" % (side, bad))
            err.element = tuple(src.span.apex.decode(np.array([bad]))[0].tolist())
            raise err
    s = src.alphas.zip_with(tgt.alphas.along(u), pairwise(src.backend.eq_mor)).first_false()
    if s is not None:
        err = FactorizationViolation("component disagrees at apex element %d" % s)
        err.element = tuple(src.span.apex.decode(np.array([s]))[0].tolist())
        raise err
    return VCell2._of(src, tgt, u)


def try_make_2cell(src, tgt, u):
    """Validate a 2-cell candidate; return an InvalidCell record on failure."""
    try:
        return make_2cell(src, tgt, u)
    except SpanVError as err:
        return InvalidCell(src, tgt, u, str(err), getattr(err, "element", None))


def identity_2cell(cell):
    return VCell2._of(cell, cell, identity_fn(cell.span.apex))


def vcompose_2cells(x, y):
    """First x, then y, down the page; unmarked unless both are marked."""
    if not cells_equal(x.tgt, y.src):
        raise BoundaryMismatch("middle boundaries differ")
    make = VCell2._of if x._checked and y._checked else VCell2
    return make(x.src, y.tgt, compose_fn(x.apex_map, y.apex_map))


def _pair_positions(comp, left, right):
    """Split composite apex positions into (left apex, right apex) positions."""
    if is_identity_cell(left):
        return right.span.f.table, np.arange(right.span.apex.size, dtype=np.int64)
    if is_identity_cell(right):
        return np.arange(left.span.apex.size, dtype=np.int64), left.span.g.table
    # the composite's apex is a subset of left apex x right apex
    return comp.span.apex.pair_positions()


def _pair_encode(comp, left, right, lpos, rpos):
    """Inverse of _pair_positions on the target composite."""
    if is_identity_cell(left):
        return rpos
    if is_identity_cell(right):
        return lpos
    return comp.span.apex.position_of(lpos * right.span.apex.size + rpos)


def hcompose_2cells(x, y):
    """Compose side by side along the shared middle family; checked
    unless both are marked."""
    src = compose_cells(x.src, y.src)
    tgt = compose_cells(x.tgt, y.tgt)
    lpos, rpos = _pair_positions(src, x.src, y.src)
    u = _pair_encode(tgt, x.tgt, y.tgt, x.apex_map.at(lpos), y.apex_map.at(rpos))
    return (VCell2._of if x._checked and y._checked else make_2cell)(src, tgt, u)


def tensor_2cells(x, y):
    """Side-by-side tensor; its apex map keeps the two factor maps.
    Checked unless both are marked."""
    src = tensor_cells(x.src, y.src)
    tgt = tensor_cells(x.tgt, y.tgt)
    u = tensor_fn(src.span.apex, tgt.span.apex, x.apex_map, y.apex_map)
    return (VCell2._of if x._checked and y._checked else make_2cell)(src, tgt, u)


def invert_2cell(two):
    """The inverse 2-cell when the apex map is a bijection, else None;
    checked unless two is marked."""
    n = two.src.span.apex.size
    if two.tgt.span.apex.size != n:
        return None
    if n and np.bincount(two.u, minlength=n).max() != 1:
        return None
    inv = np.empty(n, dtype=np.int64)
    inv[two.u] = np.arange(n, dtype=np.int64)
    return (VCell2._of if two._checked else make_2cell)(two.tgt, two.src, inv)
