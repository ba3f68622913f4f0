"""Finite sets as products of atomic factors, with a positional codec.

An element of ``FinSet((n1, ..., nk))`` is an integer code in
``range(n1 * ... * nk)``, row-major: the last factor varies fastest.
Sets are hash-consed: one read-only instance per shape, validated and
given its strides and identity word once, so equal sets are identical.
``SubsetApex`` is a subset of the product of two finite sets, listed by
the pair codes ``i * right.size + j`` of positions in its two factors:
the factorised form of a pullback, whose codes stay below the product of
two sizes that fit in memory.  Decoding a pair decodes both factors, so
an apex element's atomic coordinates never depend on how it was built.
A pullback along a bijection is a graph: the pairs (i, h(i)) of a
function h, one per position i of the other side, in that order.  Its
apex stores the table of h and no codes, and its first projection is the
identity on positions, which has no table until one is read: composing
along it reads the other function on the apex, and copies nothing.

A function is a table of codomain positions; between two FinSets, a
reindexing word (see ``reindex_fn``); or the tensor product of two
functions (see ``tensor_fn``).  A word's or a product's table is built
only when something reads it.  A word is linear in its coordinates: its
table is a grid, one broadcast step per factor, and its fibre over a
value is a box, the value fixing the factors it reads and the others
free, so a pullback of a word against anything but a larger table reads
no table of the word.  A product keeps its two factors: its values are
the grid of theirs, it is composed and compared factor by factor, and a
pullback along it joins one factor at a time, or renames each factor's
values through a permutation.  The product of an apex with any set is a
``SubsetApex`` that lists every pair without storing the list.  A map
into a one-element set is the constant 0: ``compose_fn`` gives it a
read-only zero-stride view of one shared zero as its table, which stores
nothing per point.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CodMismatch,
    NegativeSize,
    NotInvertible,
    OutOfBounds,
    ShapeMismatch,
    TableOutOfRange,
)

# Every element code is an int64; sizes are checked as Python ints before
# any int64 product.  A set past this bound has no table that fits in memory.
_MAX_SIZE = 2 ** 62

# the one FinSet of each shape, kept for the life of the process
_INTERNED = {}

# the one zero that every table into a one-element set reads
_ZERO = np.zeros(1, dtype=np.int64)
_ZERO.flags.writeable = False


def _constant(n):
    # n zeros at stride 0: read-only, since they are all the one _ZERO
    return np.ndarray((n,), np.int64, _ZERO, strides=(0,))


def _whole_shape(shape):
    """shape as a tuple of ints; ShapeMismatch naming it unless it is a
    sequence of whole numbers (2.5 or "3" would pass int() as another size)."""
    given = ints = None
    try:
        given = tuple(shape)
        ints = tuple(int(n) for n in given)
    except (TypeError, ValueError, OverflowError):
        pass
    if given is None:
        raise ShapeMismatch("shape %r is not a sequence of sizes" % (shape,))
    if ints != given:
        raise ShapeMismatch("shape %r has a factor that is not a whole number" % (given,))
    return ints


class FinSet:
    """A finite set presented as a product of atomic factors, one per shape."""

    __slots__ = ("shape", "strides", "size", "axes", "_radix", "_stride")

    def __new__(cls, shape=()):
        try:
            return _INTERNED[shape]
        except (KeyError, TypeError):
            pass
        shape = _whole_shape(shape)
        if shape in _INTERNED:
            return _INTERNED[shape]
        if any(n < 0 for n in shape):
            raise NegativeSize("factor %d of shape %r is negative" % (min(shape), shape))
        # every coordinate and stride is an int64, an empty set's too
        bound = math.prod(n or 1 for n in shape)
        if bound > _MAX_SIZE:
            raise OutOfBounds("FinSet%r is too large: its nonzero factors multiply to %d"
                              % (shape, bound))
        strides = tuple(math.prod(shape[k + 1:]) for k in range(len(shape)))
        radix, stride = np.array(shape, dtype=np.int64), np.array(strides, dtype=np.int64)
        radix.flags.writeable = stride.flags.writeable = False
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (shape, strides, math.prod(shape),
                                               tuple(range(len(shape))), radix, stride)):
            object.__setattr__(self, name, value)
        return _INTERNED.setdefault(shape, self)

    def _read_only(self, *args):
        raise AttributeError("FinSet%r is read-only" % (self.shape,))

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        # copies and unpickled sets are the interned instance
        return FinSet, (self.shape,)

    def encode(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim == 0 or coords.shape[-1] != len(self.shape):
            raise ShapeMismatch("coordinates of shape %r do not fit the %d factors of %r"
                                % (coords.shape, len(self.shape), self))
        return coords @ self._stride

    def decode(self, codes):
        coords = np.asarray(codes, dtype=np.int64)[..., None] // self._stride
        return np.remainder(coords, self._radix, out=coords)

    def __eq__(self, other):
        return self is other or (isinstance(other, FinSet) and self.shape == other.shape)

    def __hash__(self):
        return hash(self.shape)

    def __repr__(self):
        return "FinSet%r" % (self.shape,)


UNIT = FinSet(())


class SubsetApex:
    """A subset of left x right, listed by strictly increasing pair codes
    i * right.size + j of a position i in left and j in right.  Without
    members it is every pair, the full product: a pair code is then its
    own position, and the list is built only if something reads it.  The
    graph form, which only ``pullback`` builds, is the graph of a table h
    from left's positions to right's: element i is the pair (i, h[i]).
    It stores h, and builds the list only if something reads it."""

    def __init__(self, left, right, members=None):
        bound = left.size * right.size
        if bound > _MAX_SIZE:
            raise OutOfBounds("product of sizes %d and %d is too large" % (left.size, right.size))
        self.left = left
        self.right = right
        self.shape = left.shape + right.shape
        self.full = members is None
        self.graph = None
        if self.full:
            self.size = bound
            return
        members = np.asarray(members, dtype=np.int64)
        if members.ndim != 1:
            raise ShapeMismatch("members have shape %r, not a list" % (members.shape,))
        stalls = members[1:] <= members[:-1]
        if stalls.any():
            raise ShapeMismatch("members do not ascend strictly at position %d"
                                % (np.argmax(stalls) + 1))
        if members.size and (members[0] < 0 or members[-1] >= bound):
            bad = members[0] if members[0] < 0 else members[-1]
            raise TableOutOfRange("member %d is outside a product of size %d" % (bad, bound))
        self.members = members
        self.size = int(members.size)

    @classmethod
    def _of_graph(cls, left, right, h):
        # h comes from pullback, a table of right's positions, one per
        # position of left
        apex = cls.__new__(cls)
        apex.left, apex.right, apex.shape = left, right, left.shape + right.shape
        apex.full, apex.graph, apex.size = False, h, left.size
        return apex

    @cached_property
    def members(self):
        codes = np.arange(self.size, dtype=np.int64)
        if self.graph is not None:
            codes *= self.right.size
            codes += self.graph
        return codes

    def pair_positions(self):
        """The positions in left and in right of every element, in order."""
        if self.graph is not None:
            return np.arange(self.size, dtype=np.int64), self.graph
        return np.divmod(self.members, self.right.size)

    def position_of(self, codes):
        """The positions of the given pair codes, each of them a member."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.full:
            pos = codes
            found = (codes >= 0) & (codes < self.size)
        elif self.graph is not None:
            # i * right.size + j is a member exactly when h[i] == j; an
            # empty right leaves the graph empty, and any divisor finds nothing
            pos, j = np.divmod(codes, max(self.right.size, 1))
            found = (pos >= 0) & (pos < self.size)
            found[found] = self.graph[pos[found]] == j[found]
        else:
            pos = np.searchsorted(self.members, codes)
            found = pos < self.size
            found[found] = self.members[pos[found]] == codes[found]
        if not found.all():
            raise TableOutOfRange("pair code %d is not a member of %r"
                                  % (codes.flat[np.argmin(found)], self))
        return pos

    def decode(self, positions):
        """The atomic coordinates of the elements at these positions: the
        left factor's coordinates, then the right factor's."""
        codes = np.asarray(positions, dtype=np.int64)
        if self.graph is not None:
            i, j = codes, self.graph[codes]
        else:
            i, j = np.divmod(codes if self.full else self.members[codes], self.right.size)
        return np.concatenate([self.left.decode(i), self.right.decode(j)], axis=-1)

    def __eq__(self, other):
        # equal exactly when both list the same atomic coordinates, so the
        # two associations of a triple composite are literally equal; blocks
        # of doubling length, from 8, stop the decoding at the first block
        # that differs
        if self is other:
            return True
        if not (isinstance(other, SubsetApex) and self.shape == other.shape
                and self.size == other.size):
            return False
        start, width = 0, 8
        while start < self.size:
            block = np.arange(start, min(start + width, self.size), dtype=np.int64)
            if not np.array_equal(self.decode(block), other.decode(block)):
                return False
            start, width = start + width, 2 * width
        return True

    def __hash__(self):
        return hash((self.shape, self.size))

    def __repr__(self):
        return "SubsetApex(%r x %r, %d of %d)" % (self.left, self.right, self.size,
                                                   self.left.size * self.right.size)


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
    return SubsetApex(a, b)


class FinFn:
    """A function between finite sets: a table of codomain positions, a
    reindexing word between FinSets, or the tensor product of two factor
    functions.  A word's or a product's table is built when first read.
    A map into a one-element set that ``compose_fn`` tabulates keeps a
    zero-stride table: every read sees zeros, and a write raises
    ValueError.  ``positional`` marks the identity on positions between
    two sets of one size, the first projection of a graph."""

    positional = False

    def __init__(self, dom, cod, table=None, word=None, factors=None):
        self.dom = dom
        self.cod = cod
        self.word = None
        self.factors = None
        if word is not None:
            # words come checked from reindex_fn or are built from checked words
            self.word = tuple(word)
            return
        if factors is not None:
            # factors come from tensor_fn, which lays dom and cod out row-major
            self.factors = tuple(factors)
            return
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (dom.size,):
            raise ShapeMismatch("table has shape %r, domain has size %d" % (table.shape, dom.size))
        if table.size and (table.min() < 0 or table.max() >= cod.size):
            bad = int(np.argmax((table < 0) | (table >= cod.size)))
            raise TableOutOfRange("table value %d at position %d is outside a codomain of size %d"
                                  % (table[bad], bad, cod.size))
        self.table = table

    @classmethod
    def _of_table(cls, dom, cod, table):
        # a table computed from checked functions fits dom and cod by
        # construction, so it skips the two passes of the range check
        fn = cls.__new__(cls)
        fn.dom, fn.cod, fn.word, fn.factors, fn.table = dom, cod, None, None, table
        return fn

    @cached_property
    def table(self):
        # stored on the instance by the first read, which from then on
        # answers every read without this hook: a property would tax
        # every read of every table, in every inner loop of the span layer
        if self.factors is not None:
            return _values(self)
        if self.word == self.dom.axes:
            return np.arange(self.dom.size, dtype=np.int64)
        # a word is linear in its coordinates: input factor j adds its
        # coordinate times the codomain strides of the outputs reading it
        weights = [0] * len(self.dom.shape)
        for t, j in enumerate(self.word):
            weights[j] += self.cod.strides[t]
        return _grid(self.dom, weights)

    def at(self, positions):
        """The images of the given domain positions.  A product evaluates
        each factor on its share of the points.  A word asked for fewer
        points than its domain has evaluates only those points; asked
        for more, it builds and keeps its table, which then serves every
        later call."""
        if "table" in vars(self):
            return self.table[positions]
        if self.factors is not None:
            fa, fb = self.factors
            i, j = np.divmod(np.asarray(positions, dtype=np.int64), fb.dom.size)
            return fa.at(i) * fb.cod.size + fb.at(j)
        if len(positions) >= self.dom.size:
            return self.table[positions]
        return self._reindex(np.array(positions, dtype=np.int64))

    def _reindex(self, positions):
        # decode fewer points than the domain has, move their coordinates,
        # encode them again; a run of output factors reading consecutive
        # input factors moves as one mixed-radix block, divided unless its
        # last factor has stride 1 and reduced unless it starts at factor 0
        word, dom = self.word, self.dom
        if word == dom.axes:
            return positions
        out = None
        for start, stop, _ in _runs(word):
            first, last = word[start], word[stop - 1]
            block = positions if dom.strides[last] == 1 else positions // dom.strides[last]
            if first:
                block = block % math.prod(dom.shape[first:last + 1])
            block = block * self.cod.strides[stop - 1]
            out = block if out is None else out + block
        return np.zeros(positions.shape, dtype=np.int64) if out is None else out

    def permutes(self):
        """Whether this is a word that permutes its domain's factors."""
        return self.word is not None and tuple(sorted(self.word)) == self.dom.axes

    def inverse(self):
        """The inverse of a permuting word, again a word."""
        if not self.permutes():
            raise NotInvertible("inverse needs a word that permutes its factors, got word %r"
                                % (self.word,))
        word = [0] * len(self.word)
        for t, j in enumerate(self.word):
            word[j] = t
        return FinFn(self.cod, self.dom, word=word)

    def _word_key(self):
        # words give equal tables exactly when they agree on every output
        # factor of size other than 1, or when the domain is empty
        if self.dom.size == 0:
            return ()
        return tuple(j for j, n in zip(self.word, self.cod.shape) if n != 1)

    def _splits_like(self, other):
        # two products over factors of the same sizes agree exactly when
        # every factor agrees, or when their domain is empty
        return (self.factors is not None and other.factors is not None
                and all(p.dom.size == q.dom.size and p.cod.size == q.cod.size
                        for p, q in zip(self.factors, other.factors)))

    def same_values(self, other):
        """Whether two functions between the same sets agree everywhere."""
        if self.word is not None and other.word is not None:
            return self._word_key() == other._word_key()
        return self.first_difference(other) is None

    def first_difference(self, other):
        """The first domain position where two functions between the same
        sets differ, or None.  Between products of the same split it is
        the row-major first of the factors' first differences."""
        if self._splits_like(other):
            if self.dom.size == 0:
                return None
            first, second = (p.first_difference(q) for p, q in zip(self.factors, other.factors))
            if first is None and second is None:
                return None
            # row 0 fails wherever the second factor does, unless the
            # first factor fails there already
            i = 0 if second is not None else first
            j = 0 if i == first else second
            return i * self.factors[1].dom.size + j
        if self.word is not None and other.word is not None and self.same_values(other):
            return None
        bad = np.flatnonzero(self.table != other.table)
        return int(bad[0]) if bad.size else None

    def __eq__(self, other):
        return (isinstance(other, FinFn) and self.dom == other.dom
                and self.cod == other.cod and self.same_values(other))

    def __repr__(self):
        return "FinFn(%r -> %r)" % (self.dom, self.cod)

    def is_identity(self):
        """Whether this is the identity, with the table of the identity."""
        if self.dom != self.cod:
            return False
        if self.word is not None:
            return self.same_values(identity_fn(self.dom))
        return np.array_equal(self.table, np.arange(self.dom.size))

    def is_injective(self):
        return len(np.unique(self.table)) == self.table.size

    def is_bijective(self):
        return self.dom.size == self.cod.size and self.is_injective()


class _Positions(FinFn):
    """Position i to position i of a set of the same size: the first
    projection of a graph.  Its table is built only if something reads
    it; composing or reading along it copies nothing."""

    positional = True

    def __init__(self, dom, cod):
        self.dom, self.cod, self.word, self.factors = dom, cod, None, None

    @cached_property
    def table(self):
        return np.arange(self.dom.size, dtype=np.int64)

    def at(self, positions):
        return np.asarray(positions, dtype=np.int64)


def identity_fn(x):
    if isinstance(x, FinSet):
        return FinFn(x, x, word=x.axes)
    return FinFn(x, x, np.arange(x.size, dtype=np.int64))


def compose_fn(f, g):
    """First f, then g.  An identity word is absorbed on either side."""
    if f.cod != g.dom:
        raise CodMismatch("cannot chain %r after %r" % (g, f))
    if f.word is not None and f.word == f.dom.axes:
        return g
    if g.word is not None and g.word == g.dom.axes:
        return f
    if f.word is not None and g.word is not None:
        return FinFn(f.dom, g.cod, word=[f.word[j] for j in g.word])
    if (f.factors is not None and g.factors is not None
            and all(p.cod == q.dom for p, q in zip(f.factors, g.factors))):
        return FinFn(f.dom, g.cod, factors=[compose_fn(p, q) for p, q in zip(f.factors, g.factors)])
    if g.cod.size == 1:
        # the constant 0, which reads neither f nor g
        return FinFn._of_table(f.dom, g.cod, _constant(f.dom.size))
    if f.positional:
        # g read on f's domain: a product keeps its factors, since f's
        # positions are g's; anything else shares g's table
        if g.factors is not None:
            return FinFn(f.dom, g.cod, factors=g.factors)
        return FinFn._of_table(f.dom, g.cod, g.table)
    return FinFn._of_table(f.dom, g.cod, g.at(f.table))


def tensor_fn(dom, cod, fa, fb):
    """fa x fb from dom to cod, the products of the factors' domains and of
    their codomains, both row-major.  Two words tensor by concatenation,
    the second shifted past the first's factors; anything else keeps its
    two factors."""
    if fa.word is not None and fb.word is not None:
        shift = len(fa.dom.shape)
        return FinFn(dom, cod, word=fa.word + tuple(shift + j for j in fb.word))
    return FinFn(dom, cod, factors=(fa, fb))


def pullback(f, g):
    """Pullback of two functions into a shared codomain.

    Returns (P, p1, p2) where P is the SubsetApex of the product of the
    two domains listing the pairs that agree in the codomain, ascending
    in the first position and then in the second, and p1, p2 are the
    projections.  Along a permuting word g, P is the graph of f ; g^-1
    and p1 is the identity on positions.
    """
    if f.cod != g.cod:
        raise CodMismatch("pullback needs a shared codomain, got %r and %r" % (f.cod, g.cod))
    a, b = f.dom, g.dom
    if a.size * b.size > _MAX_SIZE:
        raise OutOfBounds("product of sizes %d and %d is too large" % (a.size, b.size))
    if g.permutes():
        # f ; g^-1 is a word, a grid or a table read through a word, so a
        # word or a product f is never tabulated
        inverse = g.inverse()
        h = (_renamed(f, g) if f.factors is not None
             else FinFn(a, b, word=[f.word[j] for j in inverse.word]).table if f.word is not None
             else inverse.at(f.table))
        apex = SubsetApex._of_graph(a, b, h)
        return apex, _Positions(apex, a), FinFn._of_table(apex, b, h)
    ordered = False
    if f.word is not None and g.factors is not None:
        a_idx, b_idx = ((_renamed(g, f), np.arange(b.size, dtype=np.int64)) if f.permutes()
                        else _split_join(f, g))
    elif f.permutes() or g.factors is None and (
            f.factors is not None or f.word is not None and g.word is None and b.size <= a.size):
        # join g's values into f instead; into a word's fibres only if g has no more points
        b_idx, a_idx = _join(_values(g), f)
    else:
        a_idx, b_idx = _join(_values(f), g)
        ordered = True
    codes = a_idx * b.size + b_idx
    if not ordered:
        codes.sort(kind="stable")
        a_idx, b_idx = np.divmod(codes, b.size)
    apex = SubsetApex(a, b, codes)
    return apex, FinFn._of_table(apex, a, a_idx), FinFn._of_table(apex, b, b_idx)


def _values(fn):
    # every value of fn; a product's are the grid of its factors' values,
    # worked out without keeping its table
    if fn.factors is None or "table" in vars(fn):
        return fn.table
    fa, fb = fn.factors
    return (_values(fa)[:, None] * fb.cod.size + _values(fb)[None, :]).ravel()


def _renamed(fn, p):
    # the product fn's values through p^-1, for a permuting word p: p^-1
    # is linear, a value's coordinate t landing on p.dom's factor p.word[t],
    # so each factor of fn is renamed alone and the two add on a grid
    fa, fb = fn.factors
    weights, m = p.dom._stride[list(p.word)], len(fa.cod.shape)
    left = fa.cod.decode(_values(fa)) @ weights[:m]
    right = fb.cod.decode(_values(fb)) @ weights[m:]
    return (left[:, None] + right[None, :]).ravel()


def _grid(dom, weights):
    # the sum of coordinate j times weights[j] at every point of dom,
    # row-major, one broadcast step per factor: a factor of weight 0
    # repeats each partial sum, and one of weight None is left out
    out = np.zeros(1, dtype=np.int64)
    for j in dom.axes:
        n, w = dom.shape[j], weights[j]
        if w is not None and n != 1:
            out = (out[:, None] + np.arange(n, dtype=np.int64) * w).ravel() if w else np.repeat(out, n)
    return out


def _split_join(f, g):
    # the pairs, in no order, of a word f against a product g, factor by
    # factor: g's table factor, the selective side, joins its sub-word's
    # fibres first; the other sub-word is evaluated only where they meet
    m = len(g.factors[0].cod.shape)
    subs = [FinFn(f.dom, p.cod, word=w) for p, w in zip(g.factors, (f.word[:m], f.word[m:]))]
    lead = int(g.factors[0].word is not None)
    b_lead, a_idx = _join(_values(g.factors[lead]), subs[lead])
    k, b_other = _join(subs[1 - lead].at(a_idx), g.factors[1 - lead])
    b1, b2 = (b_lead[k], b_other) if lead == 0 else (b_other, b_lead[k])
    return a_idx[k], b1 * g.factors[1].dom.size + b2


def _join(values, g):
    """Every pair (k, b) with g(b) == values[k], ascending in k and then in
    b.  A product joins one factor at a time, on the split of each value,
    and a word reads each fibre off a value: neither reads g's table.  A
    table that already ascends is searched in place, unsorted."""
    if g.factors is not None:
        ga, gb = g.factors
        k, b1 = _join(values // gb.cod.size, ga)
        k2, b2 = _join(values[k] % gb.cod.size, gb)
        return k[k2], b1[k2] * gb.dom.size + b2
    if g.word is not None:
        return _fibres(values, g)
    table = g.table
    order = np.argsort(table, kind="stable") if np.count_nonzero(table[1:] < table[:-1]) else None
    gsorted = table if order is None else table[order]
    starts = np.searchsorted(gsorted, values, side="left")
    counts = np.searchsorted(gsorted, values, side="right") - starts
    k = np.repeat(np.arange(values.size, dtype=np.int64), counts)
    b = starts[k] + np.arange(k.size, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return k, b if order is None else order[b]


def _fibres(values, g):
    # a word's fibre over a value is a box: the value's coordinates fix the
    # factors the word reads, block by block, and must agree where it reads
    # a factor twice; the unread factors run free, in row-major order
    word, dom, cod = g.word, g.dom, g.cod
    box = None
    if len(set(word)) < len(dom.axes):
        box = _grid(dom, [None if j in word else dom.strides[j] for j in dom.axes])
        if not box.size:
            return np.zeros((2, 0), dtype=np.int64)
    base, ok = np.zeros(values.shape, dtype=np.int64), None
    for start, stop, repeat in _runs(word):
        first, last = word[start], word[stop - 1]
        block = (values // cod.strides[stop - 1]) % math.prod(cod.shape[start:stop])
        if repeat:
            agree = (base // dom.strides[last]) % math.prod(dom.shape[first:last + 1]) == block
            ok = agree if ok is None else ok & agree
        else:
            base += block * dom.strides[last]
    k = np.arange(values.size, dtype=np.int64) if ok is None else np.flatnonzero(ok)
    base = base if ok is None else base[k]
    if box is None or box.size == 1:
        return k, base
    return np.repeat(k, box.size), (base[:, None] + box).ravel()


@lru_cache(maxsize=1024)
def _runs(word):
    # the runs [start, stop) of a word's output factors that read
    # consecutive input factors, all for the first time or all again
    runs = []
    for t, j in enumerate(word):
        if runs and j == word[t - 1] + 1 and runs[-1][2] == (j in word[:t]):
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1, j in word[:t]])
    return tuple(map(tuple, runs))


def reindex_fn(dom, cod, word):
    """The function whose output factor t reads input factor word[t].

    Repeating an index gives diagonals, dropping indices gives
    projections, permuting them gives coordinate shuffles.
    """
    if not (isinstance(dom, FinSet) and isinstance(cod, FinSet)):
        raise ShapeMismatch("a reindexing word maps a FinSet to a FinSet, not %r to %r"
                            % (dom, cod))
    word = tuple(word)
    if (len(word) != len(cod.shape) or any(not 0 <= j < len(dom.shape) for j in word)
            or tuple(dom.shape[j] for j in word) != cod.shape):
        raise ShapeMismatch("word %r does not map %r to %r" % (word, dom, cod))
    return FinFn(dom, cod, word=word)


def diagonal_fn(x):
    """The diagonal x -> x^2, both output blocks reading the same input."""
    return reindex_fn(x, FinSet(x.shape * 2), x.axes * 2)


def terminal_fn(x):
    """The unique map to the one-element set."""
    return reindex_fn(x, UNIT, ())


def swap_fn(a, b):
    """a x b -> b x a as a coordinate shuffle."""
    la, lb = len(a.shape), len(b.shape)
    word = tuple(range(la, la + lb)) + tuple(range(la))
    return reindex_fn(FinSet(a.shape + b.shape), FinSet(b.shape + a.shape), word)
