"""Pluggable symmetric monoidal backends for the enrichment.

Every backend exposes the same small interface: objects, morphisms,
identities, diagrammatic composition, tensor, braiding, equality tests
and hashable keys.  Matrices over a prime field or the boolean semiring,
finite sets with functions, and a trivial one-object one-morphism
backend are provided.

compose_many and tensor_many are one call on two equal-length lists of
operands: the matrix backend runs one kernel over the whole batch, the
others go pair by pair.  While a checker decorated with ``per_check``
runs, the matrix backend computes each distinct product, tensor and
identity once: a batch looks every pair up and computes only the misses.
"""

import functools
import itertools
import operator
from contextvars import ContextVar

import numpy as np

from .errors import InvalidBackend, OutOfBounds, ShapeMismatch, UnsupportedBackend
from .finset import (_MAX_SIZE, UNIT, FinFn, FinSet, compose_fn, identity_fn, product, swap_fn,
                     tensor_fn)


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


def _memoised(keys, make, *args):
    """The result for each key.  make maps the lists of args at the keys
    not computed yet to their results and runs once per call: a running
    check computes each key once, and outside a check each call computes
    its distinct keys."""
    memo = _MEMO.get()
    memo = {} if memo is None else memo
    todo = {key: i for i, key in enumerate(keys) if key not in memo}
    if todo:
        memo.update(zip(todo, make(*([arg[i] for i in todo.values()] for arg in args))))
    return [memo[key] for key in keys]


def pairwise(op):
    """op(x, y) as a function of two equal-length lists of operands."""
    return lambda xs, ys: list(map(op, xs, ys))


class _Backend:
    """Backends are values: equal when they have the same kind and parameters."""

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self).__name__,) + tuple(sorted(vars(self).items())))

    def compose_many(self, fs, gs):
        """compose of each pair of two equal-length lists, in one call."""
        return list(map(self.compose, fs, gs))

    def tensor_many(self, fs, gs):
        """tensor_mor of each pair of two equal-length lists, in one call."""
        return list(map(self.tensor_mor, fs, gs))


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


def _starts(sizes):
    """0 and the running sums of a batch's block sizes, summed as Python
    ints, so a total past int64 is refused before any array holds it."""
    starts = list(itertools.accumulate(sizes, initial=0))
    if starts[-1] > _MAX_SIZE:
        raise OutOfBounds("a batch of %d blocks holds %d entries" % (len(sizes), starts[-1]))
    return np.array(starts, dtype=np.int64)


def _nonzeros(mats):
    """Every nonzero of a list of matrices as its matrix's index, row,
    column and value, concatenated."""
    block = np.arange(len(mats)).repeat([a.pos.size for a in mats])
    width = np.array([a.shape[1] for a in mats], dtype=np.int64)
    rows, cols = np.divmod(np.concatenate([a.pos for a in mats]), width[block])
    return block, rows, cols, np.concatenate([a.vals for a in mats])


def _meet(f_keys, g_keys, size):
    """(left, right) for every pair of an f item and a g item whose keys
    in range(size) are equal, ascending in left and then in right; the g
    keys must ascend, so those of one key are one slice."""
    count = np.bincount(g_keys, minlength=size)
    per = count[f_keys]
    left = np.arange(per.size).repeat(per)
    skip = (count.cumsum() - count)[f_keys] - (per.cumsum() - per)
    return left, np.arange(left.size) + skip.repeat(per)


def _split(shapes, out, pos, vals):
    """The batch's matrices, block b holding the ascending positions from
    out[b] on.  Each block keeps views of pos and vals, with its positions
    shifted to its own in place: a copy of a large block costs nearly as
    much as its sort."""
    cut = np.searchsorted(pos, out).tolist()
    mats = []
    for b, (shape, lo, hi) in enumerate(zip(shapes, cut, cut[1:])):
        pos[lo:hi] -= out[b]
        mats.append(NonzeroMatrix(shape, pos[lo:hi], vals[lo:hi]))
    return mats


class MatBackend(_Backend):
    """Matrices over Z/p (p prime) or over the boolean semiring.

    Objects are dimensions; a morphism n -> m is an n x m matrix acting on
    row vectors, so diagrammatic composition is plain matrix product, and
    tensor pairs basis vectors row-major (the Kronecker product).  A
    morphism is a NonzeroMatrix with values reduced mod p (always 1 over
    the booleans); every operation also accepts a dense 2-D int array and
    converts it on entry.  Products and tensors touch only nonzeros, and
    compose_many and tensor_many run one kernel over a whole batch:
    compose and tensor_mor are batches of one.

    The prime is an integer of at most 65537, so (p - 1)**2 <= 2**32 and a
    product's int64 sums of fewer than 2**31 terms are exact.  While a
    checker decorated with per_check runs, a batch looks its results up
    by the operands' keys and computes each distinct one once, and so
    does id; outside a checker each call computes its distinct pairs.
    """

    unit = 1

    def __init__(self, prime=None, boolean=False):
        if (prime is None) == (not boolean):
            raise InvalidBackend("pass a prime or boolean=True")
        if isinstance(prime, bool) or (prime is not None and not hasattr(prime, "__index__")):
            raise InvalidBackend("modulus %r is not an integer" % (prime,))
        prime = None if prime is None else operator.index(prime)
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

    def first_difference(self, f, g):
        """Their shapes, or the row-major first entry where they differ."""
        f, g = np.asarray(self.mor(f)), np.asarray(self.mor(g))
        if f.shape != g.shape:
            return {"shapes": [list(f.shape), list(g.shape)]}
        where = np.argwhere(f != g)[0]
        return {"entry": [int(v) for v in where],
                "this": int(f[tuple(where)]), "other": int(g[tuple(where)])}

    def id(self, obj):
        return _memoised([("id", obj)], lambda objs: list(map(_identity, objs)), [obj])[0]

    def compose(self, f, g):
        return self.compose_many([f], [g])[0]

    def compose_many(self, fs, gs):
        return self._batch("compose", self._products, fs, gs)

    def tensor_obj(self, a, b):
        return a * b

    def tensor_mor(self, f, g):
        return self.tensor_many([f], [g])[0]

    def tensor_many(self, fs, gs):
        return self._batch("tensor", self._krons, fs, gs)

    def _batch(self, op, kernel, fs, gs):
        fs, gs = [self.mor(f) for f in fs], [self.mor(g) for g in gs]
        return _memoised([(op, self.prime, f.key, g.key) for f, g in zip(fs, gs)], kernel, fs, gs)

    def _products(self, fs, gs):
        """f @ g for each pair, as Gustavson's product of the block-diagonal
        matrices of the fs and of the gs: pair b's inner indices start at
        inner[b]; each nonzero (i, c) of f meets every nonzero (c, j) of g,
        and the products landing on one (i, j) add up."""
        for f, g in zip(fs, gs):
            if f.shape[1] != g.shape[0]:
                raise ShapeMismatch("cannot chain %r after %r" % (g.shape, f.shape))
        shapes = [(f.shape[0], g.shape[1]) for f, g in zip(fs, gs)]
        out = _starts([n * m for n, m in shapes])
        if len(fs) == 1:  # one pair skips the block offsets, which double its cost
            (f,), (g,) = fs, gs
            (i, c), (c2, j) = np.divmod(f.pos, f.shape[1]), np.divmod(g.pos, g.shape[1])
            left, right = _meet(c, c2, f.shape[1])
            pos, f_vals, g_vals = i[left] * g.shape[1] + j[right], f.vals, g.vals
        else:
            inner = _starts([f.shape[1] for f in fs])
            f_block, i, c, f_vals = _nonzeros(fs)
            g_block, c2, j, g_vals = _nonzeros(gs)
            left, right = _meet(c + inner[f_block], c2 + inner[g_block], int(inner[-1]))
            at_f = out[f_block] + i * np.array([m for _, m in shapes])[f_block]
            pos = at_f[left] + j[right]
        # the terms are built in sorted order and reduced at once, while they
        # are still in cache
        order = pos.argsort()
        pos = pos[order]
        first = np.ones(pos.size, dtype=bool)
        first[1:] = pos[1:] != pos[:-1]
        heads = first.nonzero()[0]
        sums = self._reduce(np.add.reduceat((f_vals[left] * g_vals[right])[order], heads))
        keep = sums != 0
        return _split(shapes, out, pos[heads][keep], sums[keep])

    def _krons(self, fs, gs):
        """The Kronecker product of each pair: every nonzero of f meets
        every nonzero of g in its block, and one sort orders the batch."""
        shapes = [(f.shape[0] * g.shape[0], f.shape[1] * g.shape[1]) for f, g in zip(fs, gs)]
        out = _starts([n * m for n, m in shapes])
        # entry (i1 * n2 + i2, j1 * m2 + j2) is f[i1, j1] * g[i2, j2], which
        # is nonzero over a field or the booleans, so nothing is dropped
        if len(fs) == 1:  # one pair meets all of its nonzeros: their outer sum
            (f,), (g,), width = fs, gs, shapes[0][1]
            (i1, j1), (i2, j2) = np.divmod(f.pos, f.shape[1]), np.divmod(g.pos, g.shape[1])
            pos = np.add.outer(i1 * g.shape[0] * width + j1 * g.shape[1], i2 * width + j2).ravel()
            order = pos.argsort()
            vals = self._reduce(np.multiply.outer(f.vals, g.vals).ravel()[order])
        else:
            n2, m2, width = (np.array(d) for d in zip(*(
                (g.shape[0], g.shape[1], m) for g, (_, m) in zip(gs, shapes))))
            f_block, i1, j1, f_vals = _nonzeros(fs)
            g_block, i2, j2, g_vals = _nonzeros(gs)
            left, right = _meet(f_block, g_block, len(gs))
            at_f = out[f_block] + (i1 * n2[f_block] * width[f_block] + j1 * m2[f_block])
            pos = at_f[left] + (i2 * width[g_block] + j2)[right]
            order = pos.argsort()
            vals = self._reduce((f_vals[left] * g_vals[right])[order])
        return _split(shapes, out, pos[order], vals)

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

    def first_difference(self, f, g):
        if f.dom != g.dom or f.cod != g.cod:
            return {"shapes": [f.dom.shape, g.dom.shape]}
        w = f.first_difference(g)
        return {"entry": [w], "this": int(f.table[w]), "other": int(g.table[w])}

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
