"""Finite sets as products of atomic factors, with a positional codec.

An element of ``FinSet((n1, ..., nk))`` is an integer code in
``range(n1 * ... * nk)``, row-major: the last factor varies fastest.
``SubsetApex`` carves a subset out of such an ambient product while
remembering the ambient code of every element.  All functions are stored
as position tables, so composition is table lookup.
"""

import numpy as np

from .errors import CodMismatch, NegativeSize, ShapeMismatch, TableOutOfRange

# Apex ambients concatenate through pullbacks and products, so their
# sizes outgrow int64 quickly even while the apexes stay small.  Codes
# are kept as Python ints (object arrays) beyond this bound.
_INT64_SAFE = 2 ** 62


def _code_array(values, bound):
    values = np.asarray(values)
    if values.dtype != object and bound <= _INT64_SAFE:
        return values.astype(np.int64)
    return values.astype(object)


class FinSet:
    """A finite set presented as a product of atomic factors."""

    def __init__(self, shape=()):
        self.shape = tuple(int(n) for n in shape)
        if any(n < 0 for n in self.shape):
            raise NegativeSize("factor %d of shape %r is negative"
                               % (min(self.shape), self.shape))
        size = 1
        strides = []
        for n in reversed(self.shape):
            strides.append(size)
            size *= n
        self.strides = tuple(reversed(strides))
        self.size = size
        self._members = None

    @property
    def ambient(self):
        return self

    @property
    def members(self):
        # a FinSet is its own ambient, so members are just all codes
        if self._members is None:
            self._members = np.arange(self.size, dtype=np.int64)
        return self._members

    def position_of(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size:
            assert codes.min() >= 0 and codes.max() < self.size
        return codes

    def encode(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        assert coords.shape[-1] == len(self.shape)
        if not self.shape:
            return np.zeros(coords.shape[:-1], dtype=np.int64)
        if self.size > _INT64_SAFE:
            strides = np.array(self.strides, dtype=object)
            return coords.astype(object) @ strides
        return coords @ np.array(self.strides, dtype=np.int64)

    def decode(self, codes):
        codes = _code_array(codes, self.size)
        out = np.empty(codes.shape + (len(self.shape),), dtype=np.int64)
        for j, (n, stride) in enumerate(zip(self.shape, self.strides)):
            out[..., j] = (codes // stride) % n
        return out

    def __eq__(self, other):
        return isinstance(other, FinSet) and self.shape == other.shape

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.shape)

    def __repr__(self):
        return "FinSet%r" % (self.shape,)


UNIT = FinSet(())


class SubsetApex:
    """A subset of an ambient FinSet, listed by strictly increasing codes."""

    def __init__(self, ambient, members):
        assert isinstance(ambient, FinSet)
        members = _code_array(members, ambient.size)
        assert members.ndim == 1
        if members.size:
            assert members[0] >= 0 and members[-1] < ambient.size
            assert (np.diff(members) > 0).all()
        self.ambient = ambient
        self.members = members
        self.size = int(members.size)

    def position_of(self, codes):
        codes = _code_array(codes, self.ambient.size)
        if codes.size == 0:
            return np.zeros(0, dtype=np.int64)
        if self.members.dtype != codes.dtype:
            codes = codes.astype(self.members.dtype)
        pos = np.searchsorted(self.members, codes)
        assert self.size > 0
        capped = np.minimum(pos, self.size - 1)
        assert (self.members[capped] == codes).all()
        return pos.astype(np.int64)

    def decode(self, positions):
        positions = np.asarray(positions, dtype=np.int64)
        return self.ambient.decode(self.members[positions])

    def __eq__(self, other):
        return (
            isinstance(other, SubsetApex)
            and self.ambient == other.ambient
            and np.array_equal(self.members, other.members)
        )

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        if self.members.dtype == object:
            return hash((self.ambient, tuple(self.members.tolist())))
        return hash((self.ambient, self.members.tobytes()))

    def __repr__(self):
        return "SubsetApex(%r, %d of %d)" % (self.ambient, self.size, self.ambient.size)


def product(factors):
    """Product of finite sets; the empty-shape unit is absorbed literally."""
    result = UNIT
    for factor in factors:
        result = _product_pair(result, factor)
    return result


def _product_pair(a, b):
    if isinstance(a, FinSet) and a.shape == ():
        return b
    if isinstance(b, FinSet) and b.shape == ():
        return a
    if isinstance(a, FinSet) and isinstance(b, FinSet):
        return FinSet(a.shape + b.shape)
    ambient = FinSet(a.ambient.shape + b.ambient.shape)
    am = _code_array(a.members, ambient.size)
    bm = _code_array(b.members, ambient.size)
    codes = (am[:, None] * b.ambient.size + bm[None, :]).ravel()
    return SubsetApex(ambient, codes)


class FinFn:
    """A function between finite sets, stored as a table of codomain positions."""

    def __init__(self, dom, cod, table):
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (dom.size,):
            raise ShapeMismatch("table has shape %r, domain has size %d" % (table.shape, dom.size))
        if table.size and (table.min() < 0 or table.max() >= cod.size):
            bad = int(np.argmax((table < 0) | (table >= cod.size)))
            raise TableOutOfRange("table value %d at position %d is outside a codomain of size %d"
                                  % (table[bad], bad, cod.size))
        self.dom = dom
        self.cod = cod
        self.table = table

    def __eq__(self, other):
        return (
            isinstance(other, FinFn)
            and self.dom == other.dom
            and self.cod == other.cod
            and np.array_equal(self.table, other.table)
        )

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        return "FinFn(%r -> %r)" % (self.dom, self.cod)

    def is_injective(self):
        return len(np.unique(self.table)) == self.table.size

    def is_bijective(self):
        return self.dom.size == self.cod.size and self.is_injective()


def identity_fn(x):
    return FinFn(x, x, np.arange(x.size, dtype=np.int64))


def compose_fn(f, g):
    """First f, then g."""
    if f.cod != g.dom:
        raise CodMismatch("cannot chain %r after %r" % (g, f))
    return FinFn(f.dom, g.cod, g.table[f.table])


def pullback(f, g):
    """Pullback of two functions into a shared codomain.

    Returns (P, p1, p2) where P is a SubsetApex of the product of the two
    domains listing the pairs that agree in the codomain, in ascending
    code order, and p1, p2 are the projections.
    """
    if f.cod != g.cod:
        raise CodMismatch("pullback needs a shared codomain, got %r and %r" % (f.cod, g.cod))
    a, b = f.dom, g.dom
    order = np.argsort(g.table, kind="stable")
    gsorted = g.table[order]
    starts = np.searchsorted(gsorted, f.table, side="left")
    ends = np.searchsorted(gsorted, f.table, side="right")
    counts = ends - starts
    total = int(counts.sum())
    a_idx = np.repeat(np.arange(a.size, dtype=np.int64), counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    b_idx = order[starts[a_idx] + offsets]
    ambient = FinSet(a.ambient.shape + b.ambient.shape)
    am = _code_array(a.members[a_idx], ambient.size)
    bm = _code_array(b.members[b_idx], ambient.size)
    apex = SubsetApex(ambient, am * b.ambient.size + bm)
    return apex, FinFn(apex, a, a_idx), FinFn(apex, b, b_idx)


def reindex_fn(dom, cod, word):
    """The function whose output factor t reads input factor word[t].

    Repeating an index gives diagonals, dropping indices gives
    projections, permuting them gives coordinate shuffles.
    """
    assert isinstance(dom, FinSet) and isinstance(cod, FinSet)
    assert len(word) == len(cod.shape)
    codes = np.arange(dom.size, dtype=np.int64)
    table = np.zeros(dom.size, dtype=np.int64)
    for t, j in enumerate(word):
        assert cod.shape[t] == dom.shape[j]
        table += ((codes // dom.strides[j]) % dom.shape[j]) * cod.strides[t]
    return FinFn(dom, cod, table)


def diagonal_fn(x, copies=2):
    """x -> x^copies, every output block reading the same input."""
    word = tuple(range(len(x.shape))) * copies
    return reindex_fn(x, FinSet(x.shape * copies), word)


def terminal_fn(x):
    """The unique map to the one-element set."""
    return reindex_fn(x, UNIT, ())


def swap_fn(a, b):
    """a x b -> b x a as a coordinate shuffle."""
    la, lb = len(a.shape), len(b.shape)
    word = tuple(range(la, la + lb)) + tuple(range(la))
    return reindex_fn(FinSet(a.shape + b.shape), FinSet(b.shape + a.shape), word)
