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


class MatBackend(_Backend):
    """Matrices over Z/p (p prime) or over the boolean semiring.

    Objects are dimensions; a morphism n -> m is an n x m int64 matrix,
    reduced mod p (0/1 for the boolean semiring), acting on row vectors,
    so diagrammatic composition is plain matrix product.  Tensor is the
    Kronecker product, which matches the row-major pairing of basis
    vectors.
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
        a = self._reduce(np.asarray(data, dtype=np.int64))
        if dom is not None:
            a = a.reshape(dom, cod)
        if a.ndim != 2:
            raise ShapeMismatch("a morphism is a matrix, got %d axes" % a.ndim)
        return a

    def eq_obj(self, a, b):
        return a == b

    def eq_mor(self, f, g):
        return f.shape == g.shape and np.array_equal(f, g)

    def id(self, obj):
        return np.eye(obj, dtype=np.int64)

    def compose(self, f, g):
        if f.shape[1] != g.shape[0]:
            raise ShapeMismatch("cannot chain %r after %r" % (g.shape, f.shape))
        if 8 * np.count_nonzero(f) > f.size:
            return self._reduce(f @ g)
        # Gustavson's row-wise product: row i of f @ g sums the rows of g
        # that row i's nonzeros select.  np.nonzero is row-major, so each
        # output row is one contiguous segment; chunks of f.shape[0]
        # nonzeros keep the gathered rows no larger than the output.
        rows, cols = np.nonzero(f)
        out = np.zeros((f.shape[0], g.shape[1]), dtype=np.int64)
        step = max(f.shape[0], 1)
        for start in range(0, rows.size, step):
            r, c = rows[start:start + step], cols[start:start + step]
            heads = np.flatnonzero(np.diff(r, prepend=-1))
            out[r[heads]] += np.add.reduceat(f[r, c, None] * g[c], heads, axis=0)
        return self._reduce(out)

    def tensor_obj(self, a, b):
        return a * b

    def tensor_mor(self, f, g):
        out = np.kron(f, g)
        # operands are reduced, so when no product of two entries reaches p
        # neither does any entry of the Kronecker product
        if self.boolean or f.max(initial=0) * g.max(initial=0) < self.prime:
            return out
        return self._reduce(out)

    def braiding(self, a, b):
        p = np.zeros((a * b, b * a), dtype=np.int64)
        i, j = np.divmod(np.arange(a * b), b)
        p[np.arange(a * b), j * a + i] = 1
        return p

    def dom(self, f):
        return f.shape[0]

    def cod(self, f):
        return f.shape[1]

    def mor_key(self, f):
        return (f.shape, f.tobytes())

    def obj_key(self, a):
        return a

    def direct_sum(self, objs):
        total = int(sum(objs))
        injections = []
        offset = 0
        for n in objs:
            inj = np.zeros((n, total), dtype=np.int64)
            inj[np.arange(n), offset + np.arange(n)] = 1
            injections.append(inj)
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
