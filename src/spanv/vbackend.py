"""Pluggable symmetric monoidal backends for the enrichment.

Every backend exposes the same small interface: objects, morphisms,
identities, diagrammatic composition, tensor, braiding, equality tests
and hashable keys.  Matrices over a prime field or the boolean semiring,
finite sets with functions, and a trivial one-object one-morphism
backend are provided.

While a checker decorated with ``per_check`` runs, the matrix backend
computes each distinct product, tensor and identity once.
"""

import functools
from contextvars import ContextVar

import numpy as np

from .errors import InvalidBackend, ShapeMismatch, UnsupportedBackend
from .finset import UNIT, FinFn, FinSet, compose_fn, identity_fn, product, swap_fn, tensor_fn


# operand keys -> result, for the checker running now; None outside one
_MEMO = ContextVar("spanv_memo", default=None)


def per_check(fn):
    """fn with one memo of matrix products, tensors and identities for
    the whole call: the outermost decorated call opens it and drops it on
    return, and the decorated calls it makes share it.  No result is
    reused from one check to the next."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if _MEMO.get() is not None:
            return fn(*args, **kwargs)
        token = _MEMO.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _MEMO.reset(token)

    return run


def _memoised(key, make, *args):
    """make(*args), computed once per key while a checker runs."""
    memo = _MEMO.get()
    if memo is None:
        return make(*args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = make(*args)
    return out


class _Backend:
    """Backends are values: equal when they have the same kind and parameters."""

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self).__name__,) + tuple(sorted(vars(self).items())))


class TrivialBackend(_Backend):
    """One object, one morphism.  Enrichment in this backend is vacuous."""

    unit = ()

    def mor(self, data):
        return data

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
    values there.  Both arrays are made read-only, since a memoised
    result is shared by every caller.  The key is built on first read
    and kept; the dense table is built only when something reads the
    matrix as an array."""

    __slots__ = ("shape", "pos", "vals", "_key")

    def __init__(self, shape, pos, vals):
        pos.setflags(write=False)
        vals.setflags(write=False)
        self.shape = shape
        self.pos = pos
        self.vals = vals
        self._key = None

    @property
    def key(self):
        """(shape, position bytes, value bytes), equal exactly when the
        matrices are.  The arrays then read those bytes, so the matrix is
        held once."""
        if self._key is None:
            pos, vals = self.pos.tobytes(), self.vals.tobytes()
            self._key = (self.shape, pos, vals)
            self.pos, self.vals = np.frombuffer(pos, np.int64), np.frombuffer(vals, np.int64)
        return self._key

    @property
    def nbytes(self):
        return self.pos.nbytes + self.vals.nbytes

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape[0] * self.shape[1], dtype=np.int64)
        out[self.pos] = self.vals
        out = out.reshape(self.shape)
        return out if dtype is None else out.astype(dtype)


# the largest prime p with (p - 1)**2 <= 2**32
_PRIME_LIMIT = 65537


def _one_per_row(cols, width):
    """The 0/1 matrix whose row i holds a single 1, in column cols[i]."""
    n = len(cols)
    return NonzeroMatrix((n, int(width)), np.arange(n, dtype=np.int64) * width + cols,
                         np.ones(n, dtype=np.int64))


def _identity(n):
    return _one_per_row(np.arange(n), n)


class MatBackend(_Backend):
    """Matrices over Z/p (p prime) or over the boolean semiring.

    Objects are dimensions; a morphism n -> m is an n x m matrix acting on
    row vectors, so diagrammatic composition is plain matrix product, and
    tensor pairs basis vectors row-major (the Kronecker product).  A
    morphism is a NonzeroMatrix with values reduced mod p (always 1 over
    the booleans); every operation also accepts a dense 2-D int array and
    converts it on entry.  Products and tensors touch only nonzeros.

    The prime is at most 65537, so (p - 1)**2 <= 2**32 and a product's
    int64 sums of fewer than 2**31 terms are exact.  While a checker
    decorated with per_check runs, compose, tensor_mor and id look their
    result up by the operands' keys and compute each distinct one once;
    outside a checker they compute every call.
    """

    unit = 1

    def __init__(self, prime=None, boolean=False):
        if (prime is None) == (not boolean):
            raise InvalidBackend("pass a prime or boolean=True")
        if prime is not None and prime > _PRIME_LIMIT:
            raise InvalidBackend("prime %r is above %d, past which int64 matrix products "
                                 "can overflow" % (prime, _PRIME_LIMIT))
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
        if f is g:
            return True
        f, g = self.mor(f), self.mor(g)
        return (f.shape == g.shape and np.array_equal(f.pos, g.pos)
                and np.array_equal(f.vals, g.vals))

    def id(self, obj):
        return _memoised(("id", obj), _identity, obj)

    def compose(self, f, g):
        f, g = self.mor(f), self.mor(g)
        return _memoised(("compose", self.prime, f.key, g.key), self._product, f, g)

    def _product(self, f, g):
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
        return _memoised(("tensor", self.prime, f.key, g.key), self._kron, f, g)

    def _kron(self, f, g):
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
        return self.mor(f).key

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

    def mor(self, data):
        return data

    def eq_obj(self, a, b):
        return a == b

    def eq_mor(self, f, g):
        return f == g

    def id(self, obj):
        return identity_fn(obj)

    def compose(self, f, g):
        return compose_fn(f, g)

    def tensor_obj(self, a, b):
        return product([a, b])

    def tensor_mor(self, f, g):
        return tensor_fn(product([f.dom, g.dom]), product([f.cod, g.cod]), f, g)

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
    if len(objs) != g.dom.size:
        raise ShapeMismatch("%d objects for a domain of %d elements" % (len(objs), g.dom.size))
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
