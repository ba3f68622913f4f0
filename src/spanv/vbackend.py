"""Pluggable symmetric monoidal backends for the enrichment.

Every backend exposes the same small interface: objects, morphisms,
identities, diagrammatic composition, tensor, braiding, equality tests
and hashable keys.  Matrices over a prime field or the boolean semiring,
finite sets with functions, and a trivial one-object one-morphism
backend are provided.
"""

import numpy as np

from .errors import InvalidBackend, ShapeMismatch, UnsupportedBackend
from .finset import UNIT, FinFn, FinSet, compose_fn, identity_fn, swap_fn


class _Backend:
    """Backends are values: equal when they have the same kind and parameters."""

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self).__name__,) + tuple(sorted(vars(self).items())))


class TrivialBackend(_Backend):
    """One object, one morphism.  Enrichment in this backend is vacuous."""

    unit = ()

    def eq_obj(self, a, b):
        return True

    def eq_mor(self, f, g):
        return True

    def id(self, obj):
        return ()

    def compose(self, f, g):
        return ()

    def tensor_obj(self, a, b):
        return ()

    def tensor_mor(self, f, g):
        return ()

    def braiding(self, a, b):
        return ()

    def dom(self, f):
        return ()

    def cod(self, f):
        return ()

    def mor_key(self, f):
        return 0

    def obj_key(self, a):
        return 0

    def direct_sum(self, objs):
        raise UnsupportedBackend("trivial backend has no direct sums")

    def __repr__(self):
        return "TrivialBackend()"


class NonzeroMatrix:
    """A matrix stored by its nonzeros: its shape, the row-major flat
    positions of its nonzero entries in ascending order, and the int64
    values there.  The dense table is built only when something reads it
    as an array."""

    __slots__ = ("shape", "pos", "vals")

    def __init__(self, shape, pos, vals):
        self.shape = shape
        self.pos = pos
        self.vals = vals

    @property
    def nbytes(self):
        return self.pos.nbytes + self.vals.nbytes

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape[0] * self.shape[1], dtype=np.int64)
        out[self.pos] = self.vals
        out = out.reshape(self.shape)
        return out if dtype is None else out.astype(dtype)


def _one_per_row(cols, width):
    """The 0/1 matrix whose row i holds a single 1, in column cols[i]."""
    n = len(cols)
    return NonzeroMatrix((n, int(width)), np.arange(n, dtype=np.int64) * width + cols,
                         np.ones(n, dtype=np.int64))


class MatBackend(_Backend):
    """Matrices over Z/p (p prime) or over the boolean semiring.

    Objects are dimensions; a morphism n -> m is an n x m matrix acting on
    row vectors, so diagrammatic composition is plain matrix product, and
    tensor pairs basis vectors row-major (the Kronecker product).  A
    morphism is a NonzeroMatrix with values reduced mod p (always 1 over
    the booleans); every operation also accepts a dense 2-D int array and
    converts it on entry.  Products and tensors touch only nonzeros; their
    int64 sums are exact while k * (p - 1)**2 stays below 2**63.
    """

    unit = 1

    def __init__(self, prime=None, boolean=False):
        if (prime is None) == (not boolean):
            raise InvalidBackend("pass a prime or boolean=True")
        if prime is not None and not (
                prime >= 2 and all(prime % d for d in range(2, int(prime**0.5) + 1))):
            raise InvalidBackend("modulus %r is not a prime" % (prime,))
        self.prime = prime
        self.boolean = boolean

    def _reduce(self, a):
        if self.boolean:
            return (a != 0).astype(np.int64)
        return np.mod(a, self.prime)

    def mor(self, data, dom=None, cod=None):
        """data as a morphism: a NonzeroMatrix is kept, anything else is
        read as an int array (dom x cod when given) and reduced."""
        if isinstance(data, NonzeroMatrix):
            return data
        a = np.asarray(data, dtype=np.int64)
        a = self._reduce(a if dom is None else a.reshape(dom, cod))
        if a.ndim != 2:
            raise ShapeMismatch("a morphism is a matrix, got %d axes" % a.ndim)
        flat = a.ravel()
        pos = flat.nonzero()[0]
        return NonzeroMatrix(a.shape, pos, flat[pos])

    def eq_obj(self, a, b):
        return a == b

    def eq_mor(self, f, g):
        f, g = self.mor(f), self.mor(g)
        return (f.shape == g.shape and np.array_equal(f.pos, g.pos)
                and np.array_equal(f.vals, g.vals))

    def id(self, obj):
        return _one_per_row(np.arange(obj), obj)

    def compose(self, f, g):
        f, g = self.mor(f), self.mor(g)
        (n, k), m = f.shape, g.shape[1]
        if k != g.shape[0]:
            raise ShapeMismatch("cannot chain %r after %r" % (g.shape, f.shape))
        # Gustavson's product over both operands' nonzeros: each nonzero
        # (i, c) of f meets every nonzero (c, j) of g, which is one slice of
        # g's row-major list, and the products landing on one (i, j) add up
        f_rows, f_cols = np.divmod(f.pos, k)
        g_rows, g_cols = np.divmod(g.pos, m)
        row_len = np.bincount(g_rows, minlength=k)
        per = row_len[f_cols]
        left = np.arange(f.pos.size).repeat(per)
        ends = per.cumsum()
        right = np.arange(left.size) + (
            (row_len.cumsum() - row_len)[f_cols] - (ends - per)).repeat(per)
        pos = f_rows[left] * m + g_cols[right]
        order = pos.argsort()
        pos = pos[order]
        first = np.ones(pos.size, dtype=bool)
        first[1:] = pos[1:] != pos[:-1]
        heads = first.nonzero()[0]
        sums = self._reduce(np.add.reduceat((f.vals[left] * g.vals[right])[order], heads))
        keep = sums != 0
        return NonzeroMatrix((n, m), pos[heads][keep], sums[keep])

    def tensor_obj(self, a, b):
        return a * b

    def tensor_mor(self, f, g):
        f, g = self.mor(f), self.mor(g)
        (n1, m1), (n2, m2) = f.shape, g.shape
        # entry (i1 * n2 + i2, j1 * m2 + j2) is f[i1, j1] * g[i2, j2], which
        # is nonzero over a field or the booleans, so nothing is dropped
        i1, j1 = np.divmod(f.pos, m1)
        i2, j2 = np.divmod(g.pos, m2)
        width = m1 * m2
        pos = np.add.outer(i1 * n2 * width + j1 * m2, i2 * width + j2).ravel()
        order = pos.argsort()
        vals = self._reduce(np.multiply.outer(f.vals, g.vals).ravel()[order])
        return NonzeroMatrix((n1 * n2, width), pos[order], vals)

    def braiding(self, a, b):
        i, j = np.divmod(np.arange(a * b), b)
        return _one_per_row(j * a + i, b * a)

    def dom(self, f):
        return f.shape[0]

    def cod(self, f):
        return f.shape[1]

    def mor_key(self, f):
        f = self.mor(f)
        return (f.shape, f.pos.tobytes(), f.vals.tobytes())

    def obj_key(self, a):
        return a

    def direct_sum(self, objs):
        total = int(sum(objs))
        injections = []
        offset = 0
        for n in objs:
            injections.append(_one_per_row(offset + np.arange(n), total))
            offset += n
        return total, injections

    def __repr__(self):
        if self.boolean:
            return "MatBackend(boolean=True)"
        return "MatBackend(prime=%d)" % self.prime


class FinSetBackend(_Backend):
    """Finite sets and functions with the cartesian monoidal structure."""

    unit = UNIT

    def eq_obj(self, a, b):
        return a == b

    def eq_mor(self, f, g):
        return f == g

    def id(self, obj):
        return identity_fn(obj)

    def compose(self, f, g):
        return compose_fn(f, g)

    def tensor_obj(self, a, b):
        if a.shape == ():
            return b
        if b.shape == ():
            return a
        return FinSet(a.shape + b.shape)

    def tensor_mor(self, f, g):
        dom = self.tensor_obj(f.dom, g.dom)
        cod = self.tensor_obj(f.cod, g.cod)
        table = (f.table[:, None] * g.cod.size + g.table[None, :]).ravel()
        return FinFn(dom, cod, table)

    def braiding(self, a, b):
        return swap_fn(a, b)

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def mor_key(self, f):
        return (f.dom.shape, f.cod.shape, f.table.tobytes())

    def obj_key(self, a):
        return a.shape

    def direct_sum(self, objs):
        total = int(sum(obj.size for obj in objs))
        out = FinSet((total,))
        injections = []
        offset = 0
        for obj in objs:
            injections.append(FinFn(obj, out, offset + np.arange(obj.size)))
            offset += obj.size
        return out, injections

    def __repr__(self):
        return "FinSetBackend()"


def left_kan_along_function(backend, g, objs):
    """Push a family of objects over S forward along g: S -> Y.

    The object over y is the direct sum of the objects over the fibre of
    y, in ascending order of S-elements.  Returns the family over Y and
    the list of block injections indexed by S.  Dimension-like invariants
    add up fibrewise.
    """
    assert len(objs) == g.dom.size
    fibres = [[] for _ in range(g.cod.size)]
    for s, y in enumerate(g.table):
        fibres[int(y)].append(s)
    out = [None] * g.cod.size
    injections = [None] * g.dom.size
    for y, fibre in enumerate(fibres):
        obj, injs = backend.direct_sum([objs[s] for s in fibre])
        out[y] = obj
        for s, inj in zip(fibre, injs):
            injections[s] = inj
    return out, injections
