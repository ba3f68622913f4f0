"""Finite sets as products of atomic factors, with a positional codec.

An element of ``FinSet((n1, ..., nk))`` is an integer code in
``range(n1 * ... * nk)``, row-major: the last factor varies fastest.
``SubsetApex`` is a subset of the product of two finite sets, listed by
the pair codes ``i * right.size + j`` of positions in its two factors:
the factorised form of a pullback, whose codes stay below the product of
two sizes that fit in memory.  Decoding a pair decodes both factors, so
an apex element's atomic coordinates never depend on how it was built.

A function is a table of codomain positions or, between two FinSets, a
reindexing word (see ``reindex_fn``) whose table is built only when
something reads it.  Identities, braidings and their tensor products
stay words, so composing with or pulling back along a coordinate
shuffle evaluates it only on the points that take part, never on its
whole domain.
"""

import math

import numpy as np

from .errors import CodMismatch, NegativeSize, OutOfBounds, ShapeMismatch, TableOutOfRange

# Every element code is an int64; sizes are checked as Python ints before
# any int64 product.  A set past this bound has no table that fits in memory.
_MAX_SIZE = 2 ** 62


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
        if size > _MAX_SIZE:
            raise OutOfBounds("FinSet%r is too large: %d elements" % (self.shape, size))
        self.strides = tuple(reversed(strides))
        self.size = size

    def encode(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        assert coords.shape[-1] == len(self.shape)
        if not self.shape:
            return np.zeros(coords.shape[:-1], dtype=np.int64)
        return coords @ np.array(self.strides, dtype=np.int64)

    def decode(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
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
    """A subset of left x right, listed by strictly increasing pair codes
    i * right.size + j of a position i in left and j in right."""

    def __init__(self, left, right, members):
        bound = left.size * right.size
        if bound > _MAX_SIZE:
            raise OutOfBounds("product of sizes %d and %d is too large" % (left.size, right.size))
        members = np.asarray(members, dtype=np.int64)
        if members.ndim != 1:
            raise ShapeMismatch("members have shape %r, not a list" % (members.shape,))
        stalls = np.diff(members) <= 0
        if stalls.any():
            raise ShapeMismatch("members do not ascend strictly at position %d"
                                % (np.argmax(stalls) + 1))
        if members.size and (members[0] < 0 or members[-1] >= bound):
            bad = members[0] if members[0] < 0 else members[-1]
            raise TableOutOfRange("member %d is outside a product of size %d" % (bad, bound))
        self.left = left
        self.right = right
        self.members = members
        self.size = int(members.size)
        self.shape = left.shape + right.shape

    def position_of(self, codes):
        """The positions of the given pair codes, each of them a member."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size == 0:
            return np.zeros(0, dtype=np.int64)
        pos = np.searchsorted(self.members, codes)
        assert self.size > 0
        assert (self.members[np.minimum(pos, self.size - 1)] == codes).all()
        return pos

    def decode(self, positions):
        """The atomic coordinates of the elements at these positions: the
        left factor's coordinates, then the right factor's."""
        i, j = np.divmod(self.members[np.asarray(positions, dtype=np.int64)], self.right.size)
        return np.concatenate([self.left.decode(i), self.right.decode(j)], axis=-1)

    def __eq__(self, other):
        # equal exactly when both list the same atomic coordinates, so the
        # two associations of a triple composite are literally equal
        if self is other:
            return True
        if not (isinstance(other, SubsetApex) and self.shape == other.shape
                and self.size == other.size):
            return False
        everything = np.arange(self.size, dtype=np.int64)
        return np.array_equal(self.decode(everything), other.decode(everything))

    def __ne__(self, other):
        return not self == other

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
    return SubsetApex(a, b, np.arange(a.size * b.size, dtype=np.int64))


class _WordTable:
    """The table attribute of a word: built on first read and stored on the
    instance, which from then on answers every read without this hook.  A
    property would tax every read of every table, and tables are read in
    every inner loop of the span layer."""

    def __get__(self, fn, owner=None):
        if fn is None:
            return self
        table = vars(fn)["table"] = fn._reindex(np.arange(fn.dom.size, dtype=np.int64))
        return table


class FinFn:
    """A function between finite sets: a table of codomain positions, or a
    reindexing word between FinSets whose table is built when first read."""

    table = _WordTable()

    def __init__(self, dom, cod, table=None, word=None):
        self.dom = dom
        self.cod = cod
        self.word = None
        if word is not None:
            # words come checked from reindex_fn or are built from checked words
            self.word = tuple(word)
            return
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (dom.size,):
            raise ShapeMismatch("table has shape %r, domain has size %d" % (table.shape, dom.size))
        if table.size and (table.min() < 0 or table.max() >= cod.size):
            bad = int(np.argmax((table < 0) | (table >= cod.size)))
            raise TableOutOfRange("table value %d at position %d is outside a codomain of size %d"
                                  % (table[bad], bad, cod.size))
        self.table = table

    def at(self, positions):
        """The images of the given domain positions.  A word asked for
        fewer points than its domain has evaluates only those points;
        asked for more, it builds and keeps its table, which then serves
        every later call."""
        if self.word is None or "table" in vars(self) or len(positions) >= self.dom.size:
            return self.table[positions]
        return self._reindex(np.array(positions, dtype=np.int64))

    def _reindex(self, positions):
        # decode the points, move their coordinates, encode them again; a
        # run of output factors reading consecutive input factors moves as
        # one mixed-radix block, so an identity costs nothing and a tensor
        # of identities and diagonals costs one step per block
        word, dom = self.word, self.dom
        if word == tuple(range(len(dom.shape))):
            return positions
        out = np.zeros(positions.shape, dtype=np.int64)
        start = 0
        while start < len(word):
            stop = start + 1
            while stop < len(word) and word[stop] == word[stop - 1] + 1:
                stop += 1
            first, last = word[start], word[stop - 1]
            block = (positions // dom.strides[last]) % math.prod(dom.shape[first:last + 1])
            out += block * self.cod.strides[stop - 1]
            start = stop
        return out

    def permutes(self):
        """Whether this is a word that permutes its domain's factors."""
        return self.word is not None and sorted(self.word) == list(range(len(self.dom.shape)))

    def inverse(self):
        """The inverse of a permuting word, again a word."""
        assert self.permutes()
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

    def same_values(self, other):
        """Whether two functions between the same sets agree everywhere."""
        if self.word is not None and other.word is not None:
            return self._word_key() == other._word_key()
        return np.array_equal(self.table, other.table)

    def __eq__(self, other):
        return (isinstance(other, FinFn) and self.dom == other.dom
                and self.cod == other.cod and self.same_values(other))

    def __ne__(self, other):
        return not self == other

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


def identity_fn(x):
    if isinstance(x, FinSet):
        return FinFn(x, x, word=range(len(x.shape)))
    return FinFn(x, x, np.arange(x.size, dtype=np.int64))


def compose_fn(f, g):
    """First f, then g."""
    if f.cod != g.dom:
        raise CodMismatch("cannot chain %r after %r" % (g, f))
    if f.word is not None and g.word is not None:
        return FinFn(f.dom, g.cod, word=[f.word[j] for j in g.word])
    return FinFn(f.dom, g.cod, g.at(f.table))


def pullback(f, g):
    """Pullback of two functions into a shared codomain.

    Returns (P, p1, p2) where P is the SubsetApex of the product of the
    two domains listing the pairs that agree in the codomain, ascending
    in the first position and then in the second, and p1, p2 are the
    projections.
    """
    if f.cod != g.cod:
        raise CodMismatch("pullback needs a shared codomain, got %r and %r" % (f.cod, g.cod))
    a, b = f.dom, g.dom
    if g.permutes():
        # every a meets exactly one b: rename instead of joining
        a_idx = np.arange(a.size, dtype=np.int64)
        b_idx = g.inverse().at(f.table)
    elif f.permutes():
        a_of_b = f.inverse().at(g.table)
        b_idx = np.argsort(a_of_b, kind="stable")
        a_idx = a_of_b[b_idx]
    else:
        order = np.argsort(g.table, kind="stable")
        gsorted = g.table[order]
        starts = np.searchsorted(gsorted, f.table, side="left")
        ends = np.searchsorted(gsorted, f.table, side="right")
        counts = ends - starts
        total = int(counts.sum())
        a_idx = np.repeat(np.arange(a.size, dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        b_idx = order[starts[a_idx] + offsets]
    apex = SubsetApex(a, b, a_idx * b.size + b_idx)
    return apex, FinFn(apex, a, a_idx), FinFn(apex, b, b_idx)


def reindex_fn(dom, cod, word):
    """The function whose output factor t reads input factor word[t].

    Repeating an index gives diagonals, dropping indices gives
    projections, permuting them gives coordinate shuffles.
    """
    assert isinstance(dom, FinSet) and isinstance(cod, FinSet)
    word = tuple(word)
    if (len(word) != len(cod.shape) or any(not 0 <= j < len(dom.shape) for j in word)
            or tuple(dom.shape[j] for j in word) != cod.shape):
        raise ShapeMismatch("word %r does not map %r to %r" % (word, dom, cod))
    return FinFn(dom, cod, word=word)


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
