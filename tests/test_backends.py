"""Enrichment backends and the pushforward along a function."""

import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanv.errors import InvalidBackend, OutOfBounds, ShapeMismatch, UnsupportedBackend
from spanv.finset import FinFn, FinSet, reindex_fn, tensor_fn
from spanv.vbackend import (
    FinSetBackend,
    MatBackend,
    NonzeroMatrix,
    TrivialBackend,
    left_kan_along_function,
    per_check,
)


def test_trivial_backend():
    tb = TrivialBackend()
    assert tb.compose(tb.id(()), ()) == ()
    assert tb.eq_mor((), ())
    with pytest.raises(UnsupportedBackend):
        tb.direct_sum([(), ()])


def test_mat_compose_mod_p():
    be = MatBackend(prime=3)
    f = be.mor([[1, 2], [0, 1]])
    g = be.mor([[2, 0], [1, 1]])
    # (f @ g) mod 3, worked by hand
    assert np.array_equal(be.compose(f, g), [[1, 2], [1, 1]])
    assert np.array_equal(be.id(2), np.eye(2))
    with pytest.raises(ShapeMismatch):
        be.compose(be.mor(np.zeros((2, 3))), be.mor(np.zeros((2, 3))))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 97, None]), st.integers(0, 6), st.integers(0, 24),
       st.integers(0, 6), st.floats(0, 1), st.integers(0, 96), st.integers(0, 96),
       st.integers(0, 2**32))
def test_mat_products_are_exact(p, n, k, m, density, f_top, g_top, seed):
    # compose and tensor_mor touch only nonzeros; each must equal reducing
    # the plain int64 product of the dense tables, and a dense operand must
    # act as the same morphism as its nonzero form
    be = MatBackend(boolean=True) if p is None else MatBackend(prime=p)
    modulus = 2 if p is None else p
    rng = np.random.default_rng(seed)

    def operand(rows, cols, top):
        entries = rng.integers(0, top % modulus + 1, size=(rows, cols))
        return np.where(rng.random((rows, cols)) < density, entries, 0)

    def reduced(a):
        return (a != 0).astype(np.int64) if p is None else np.mod(a, p)

    f, g = operand(n, k, f_top), operand(k, m, g_top)
    nf, ng = be.mor(f), be.mor(g)
    for dense, nonzeros in ((f, nf), (g, ng)):
        assert be.eq_mor(dense, nonzeros) and be.eq_mor(nonzeros, dense)
        assert be.mor_key(dense) == be.mor_key(nonzeros)
    products = ((be.compose, reduced(f @ g)), (be.tensor_mor, reduced(np.kron(f, g))))
    for x, y in ((nf, ng), (f, g), (nf, g), (f, ng)):
        for op, want in products:
            got = op(x, y)
            dense = np.asarray(got)
            assert dense.dtype == np.int64
            assert dense.shape == want.shape
            assert np.array_equal(dense, want)
            assert be.eq_mor(got, want) and be.mor_key(got) == be.mor_key(want)


def test_mat_rejects_composite_modulus():
    with pytest.raises(InvalidBackend):
        MatBackend(prime=4)


def test_mat_refuses_primes_whose_products_overflow():
    # 3 * (p - 1)**2 wraps int64 at p = 2**31 - 1 (giving 2147483646, not
    # 3); p = 65537 is the largest prime with (p - 1)**2 <= 2**32
    with pytest.raises(InvalidBackend, match="65537"):
        MatBackend(prime=2**31 - 1)
    p = 65537
    be = MatBackend(prime=p)
    row, col = be.mor([[p - 1] * 3]), be.mor([[p - 1]] * 3)
    assert np.array_equal(be.compose(row, col), [[3]])


def test_memo_lives_for_one_check(monkeypatch):
    # inside a check each distinct product is computed once and shared;
    # the next check computes it again, and outside a check every call does
    be = MatBackend(prime=3)
    made = []
    product = MatBackend._products
    monkeypatch.setattr(MatBackend, "_products",
                        lambda self, fs, gs: made.append(len(fs)) or product(self, fs, gs))
    f, g = be.mor([[1, 2], [0, 1]]), be.mor([[2, 0], [1, 1]])

    def check():
        return [be.compose(f, g), be.compose(f, g), be.tensor_mor(f, g),
                be.tensor_mor(f, g), be.id(2), be.id(2)]

    first = per_check(check)()
    assert made == [1]
    assert first[0] is first[1] and first[2] is first[3] and first[4] is first[5]
    second = per_check(check)()
    assert len(made) == 2 and second[0] is not first[0]
    assert [be.mor_key(m) for m in second] == [be.mor_key(m) for m in first]
    check()
    assert len(made) == 4
    # a shared result refuses in-place writes, before and after its key is read
    for m in (first[0], first[2], first[4], be.compose(f, g)):
        for arr in (m.pos, m.vals):
            with pytest.raises(ValueError):
                arr[0] = 2


def test_mat_mor_reshapes():
    be = MatBackend(prime=5)
    m = be.mor([0, 1, 2, 3, 4, 5], 2, 3)
    assert m.shape == (2, 3)
    assert np.array_equal(m, [[0, 1, 2], [3, 4, 0]])


def test_mat_tensor_is_kron():
    be = MatBackend(prime=7)
    f = be.mor([[1, 2]])
    g = be.mor([[3], [4]])
    assert be.tensor_obj(2, 3) == 6
    assert np.array_equal(be.tensor_mor(f, g), np.kron(f, g) % 7)


def test_mat_braiding_permutes_basis():
    be = MatBackend(prime=2)
    b = be.braiding(2, 3)
    for i in range(2):
        for j in range(3):
            row = np.zeros(6, dtype=np.int64)
            row[i * 3 + j] = 1
            out = be.compose(be.mor(row.reshape(1, 6)), b)
            assert int(np.nonzero(out)[1][0]) == j * 2 + i


def test_boolean_backend():
    be = MatBackend(boolean=True)
    f = be.mor([[1, 1], [0, 1]])
    # OR-AND semiring: 1 + 1 stays 1
    assert np.array_equal(be.compose(f, f), [[1, 1], [0, 1]])


def test_finset_backend():
    be = FinSetBackend()
    x, y = FinSet((2,)), FinSet((3,))
    assert be.tensor_obj(x, y) == FinSet((2, 3))
    assert be.tensor_obj(be.unit, x) == x
    f = FinFn(x, x, [1, 0])
    g = FinFn(y, y, [0, 0, 1])
    t = be.tensor_mor(f, g)
    for a in range(2):
        for b in range(3):
            assert int(t.table[a * 3 + b]) == f.table[a] * 3 + g.table[b]
    assert be.eq_mor(be.compose(f, f), be.id(x))


def test_direct_sum_blocks():
    be = MatBackend(prime=5)
    total, injs = be.direct_sum([2, 1, 3])
    assert total == 6
    assert np.array_equal(np.vstack(injs), np.eye(6))
    fb = FinSetBackend()
    out, fins = fb.direct_sum([FinSet((2,)), FinSet((3,))])
    assert out.size == 5
    assert np.array_equal(fins[0].table, [0, 1])
    assert np.array_equal(fins[1].table, [2, 3, 4])


def test_kan_dimension_law_exhaustive():
    # dimensions add up over fibres, for every function between small sets
    be = MatBackend(prime=5)
    rng = np.random.default_rng(7)
    for ns in range(1, 4):
        for ny in range(1, 4):
            s_set, y_set = FinSet((ns,)), FinSet((ny,))
            for table in itertools.product(range(ny), repeat=ns):
                g = FinFn(s_set, y_set, list(table))
                dims = [int(d) for d in rng.integers(1, 5, size=ns)]
                out, injs = left_kan_along_function(be, g, dims)
                for y in range(ny):
                    assert out[y] == sum(d for s, d in enumerate(dims) if table[s] == y)
                for s, inj in enumerate(injs):
                    assert inj.shape == (dims[s], out[table[s]])


def test_kan_over_finset_backend():
    be = FinSetBackend()
    g = FinFn(FinSet((3,)), FinSet((2,)), [1, 0, 1])
    out, injs = left_kan_along_function(be, g, [FinSet((2,)), FinSet((3,)), FinSet((1,))])
    assert out[0].size == 3 and out[1].size == 3
    # fibre of 1 is {0, 2} in ascending order, so blocks are [0,1] then [2]
    assert np.array_equal(injs[0].table, [0, 1])
    assert np.array_equal(injs[2].table, [2])
    assert np.array_equal(injs[1].table, [0, 1, 2])


def test_kan_family_length_is_checked_under_python_O():
    # python -O strips asserts; a family that does not match the domain is
    # a typed error naming both lengths, not a dropped object or an IndexError
    script = (
        "from spanv.finset import FinFn, FinSet\n"
        "from spanv.vbackend import MatBackend, left_kan_along_function\n"
        "g = FinFn(FinSet((3,)), FinSet((2,)), [0, 1, 1])\n"
        "for objs in ([1, 2, 3, 4], [1, 2]):\n"
        "    try:\n"
        "        print(left_kan_along_function(MatBackend(prime=3), g, objs)[0])\n"
        "    except Exception as err:\n"
        "        print(type(err).__name__, err)\n")
    runs = [subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                           text=True, timeout=60) for flags in ([], ["-O"])]
    assert runs[0].stdout.splitlines() == [
        "ShapeMismatch 4 objects for a domain of 3 elements",
        "ShapeMismatch 2 objects for a domain of 3 elements",
    ], runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""


def test_mat_prime_must_be_an_integer_under_python_O():
    # a float prime computed float64 values whose bytes the key read as
    # int64, so f @ f came out as the zero matrix; only integers (not
    # bools) are primes, and an integer-like prime is stored as an int
    script = (
        "import numpy as np\n"
        "from spanv.vbackend import MatBackend\n"
        "for prime in (3.0, True, '3', np.int64(3)):\n"
        "    try:\n"
        "        b = MatBackend(prime=prime)\n"
        "    except Exception as err:\n"
        "        print(type(err).__name__, err)\n"
        "        continue\n"
        "    f = b.mor([[1, 2], [2, 2]])\n"
        "    print(b, b == MatBackend(prime=3), np.asarray(b.compose(f, f)).tolist())\n")
    runs = [subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                           text=True, timeout=60) for flags in ([], ["-O"])]
    assert runs[0].stdout.splitlines() == [
        "InvalidBackend modulus 3.0 is not an integer",
        "InvalidBackend modulus True is not an integer",
        "InvalidBackend modulus '3' is not an integer",
        "MatBackend(prime=3) True [[2, 0], [0, 2]]",
    ], runs[0].stderr
    assert runs[1].stdout == runs[0].stdout and runs[1].stderr == runs[0].stderr == ""


@pytest.mark.parametrize("p", [2, 3, 5, None])
def test_batched_kernels_match_dense_products(p):
    # one batch of mixed shapes, 1 x 1 blocks, empty and zero operands and
    # products that cancel to zero, against the dense int64 product and
    # np.kron reduced mod p; each pair is also run as a batch of one
    be = MatBackend(boolean=True) if p is None else MatBackend(prime=p)
    modulus = 2 if p is None else p
    rng = np.random.default_rng(modulus)

    def reduced(a):
        return (a != 0).astype(np.int64) if p is None else np.mod(a, p)

    def operand(rows, cols):
        density = rng.choice([0.0, 0.3, 1.0])
        entries = rng.integers(0, modulus, size=(rows, cols))
        return reduced(np.where(rng.random((rows, cols)) < density, entries, 0))

    dims = [(1, 1, 1), (1, 1, 1), (0, 2, 3), (2, 0, 3), (3, 2, 0)]
    dims += [tuple(int(d) for d in rng.integers(0, 5, size=3)) for _ in range(60)]
    fs = [operand(n, k) for n, k, _ in dims] + [np.array([[1, 1]]), np.array([[1, 0]])]
    gs = [operand(k, m) for _, k, m in dims] + [np.array([[1], [modulus - 1]]),
                                                np.array([[0], [1]])]
    products = [reduced(f @ g) for f, g in zip(fs, gs)]
    assert not products[-1].any() and (p is None or not products[-2].any())
    tensor_gs = [operand(*(int(d) for d in rng.integers(0, 4, size=2))) for _ in fs]
    tensors = [reduced(np.kron(f, g)) for f, g in zip(fs, tensor_gs)]
    assert sum(f.any() for f in fs) > 15 and sum(not f.any() for f in fs) > 5
    for batch, single, lefts, rights, want in (
            (be.compose_many, be.compose, fs, gs, products),
            (be.tensor_many, be.tensor_mor, fs, tensor_gs, tensors)):
        nonzero = [be.mor(f) for f in lefts], [be.mor(g) for g in rights]
        # twice over, so the memo of a check answers the second half
        for got in (batch(lefts, rights), batch(*nonzero),
                    per_check(batch)(lefts + lefts, rights + rights),
                    [single(f, g) for f, g in zip(lefts, rights)]):
            assert len(got) in (len(want), 2 * len(want))
            for out, dense in zip(got, want + want):
                assert np.asarray(out).shape == dense.shape
                assert np.array_equal(out, dense) and be.eq_mor(out, dense)
    assert be.compose_many([], []) == be.tensor_many([], []) == []


def test_a_shape_mismatch_in_a_batch_names_its_first_bad_pair():
    be = MatBackend(prime=3)
    good = [be.mor(np.ones((2, 2)))] * 3
    bad = [(be.mor(np.ones((2, 3))), be.mor(np.ones((2, 3)))),
           (be.mor(np.ones((1, 4))), be.mor(np.ones((3, 1))))]
    with pytest.raises(ShapeMismatch) as single:
        be.compose(*bad[0])
    with pytest.raises(ShapeMismatch) as batched:
        be.compose_many(good + [bad[0][0]] + good + [bad[1][0]],
                        good + [bad[0][1]] + good + [bad[1][1]])
    assert str(batched.value) == str(single.value) == "cannot chain (2, 3) after (2, 3)"


def test_a_batch_too_large_for_int64_positions_is_refused():
    # its block offsets are summed as Python ints before any int64 array
    # holds them: a product or tensor of 2**32 x 2**32 matrices is refused
    # without allocating, and so are two outputs of 2**62 entries each
    be = MatBackend(prime=3)
    empty = np.zeros(0, dtype=np.int64)

    def zero(n, m):
        return NonzeroMatrix((n, m), empty.copy(), empty.copy())

    with pytest.raises(OutOfBounds):
        be.compose(zero(2**32, 1), zero(1, 2**32))
    with pytest.raises(OutOfBounds):
        be.tensor_mor(zero(2**16, 2**16), zero(2**16, 2**16))
    assert np.asarray(be.compose(zero(2, 1), zero(1, 3))).shape == (2, 3)
    assert be.compose(zero(2**31, 1), zero(1, 2**31)).shape == (2**31, 2**31)
    with pytest.raises(OutOfBounds):
        be.compose_many([zero(2**31, 1)] * 2, [zero(1, 2**31), zero(1, 2**31 + 1)])


def _mat_values(rng, be, modulus):
    """A random matrix, its dense copy, a zero matrix of the other shape
    and every single-entry mutant."""
    rows, cols = rng.integers(0, 4, size=2)
    dense = rng.integers(0, modulus, size=(rows, cols))
    values = [be.mor(dense), dense, be.mor(np.zeros((cols, rows), dtype=np.int64))]
    for i, j in itertools.product(range(rows), range(cols)):
        mutant = dense.copy()
        mutant[i, j] = (mutant[i, j] + 1) % modulus
        values.append(be.mor(mutant))
    return values


def _finset_values(rng):
    """A random function as a table, the same function as a word and as a
    product where it is one, its table on a domain of another shape of the
    same size, and every single-entry mutant."""
    shape = tuple(int(n) for n in rng.integers(1, 4, size=2))
    dom, flat = FinSet(shape), FinSet((shape[0] * shape[1],))
    table = rng.integers(0, 3, size=dom.size)
    values = [FinFn(dom, FinSet((3,)), table), FinFn(flat, FinSet((3,)), table),
              reindex_fn(dom, FinSet(shape[::-1]), (1, 0)),
              FinFn(dom, FinSet(shape[::-1]), reindex_fn(dom, FinSet(shape[::-1]), (1, 0)).table),
              tensor_fn(dom, FinSet((3, 3)), *(FinFn(FinSet((n,)), FinSet((3,)),
                                                     rng.integers(0, 3, size=n)) for n in shape))]
    values.append(FinFn(dom, FinSet((3, 3)), values[-1].table))
    for k in range(dom.size):
        mutant = table.copy()
        mutant[k] = (mutant[k] + 1) % 3
        values.append(FinFn(dom, FinSet((3,)), mutant))
    return values


@pytest.mark.parametrize("seed", range(12))
def test_keys_are_equal_exactly_when_values_are(seed):
    # Columns merge values by keys, so in every backend two morphisms (or
    # objects) have equal keys exactly when eq_mor (or eq_obj) holds: over
    # random values, other forms of the same value and single-entry mutants
    rng = np.random.default_rng(seed)
    p = [2, 3, 5][seed % 3]
    cases = [(TrivialBackend(), [(), ()], [(), ()])]
    for be, modulus in ((MatBackend(prime=p), p), (MatBackend(boolean=True), 2)):
        cases.append((be, _mat_values(rng, be, modulus), [0, 1, 2, np.int64(2), 3]))
    shape = tuple(int(n) for n in rng.integers(1, 4, size=2))
    objects = [FinSet(shape), FinSet((shape[0] * shape[1],)), FinSet(shape[::-1]),
               FinSet((shape[0] + 1, shape[1])), FinSet((shape[0], shape[1] + 1))]
    cases.append((FinSetBackend(), _finset_values(rng), objects))
    for be, mors, objs in cases:
        for eq, key, values in ((be.eq_mor, be.mor_key, mors), (be.eq_obj, be.obj_key, objs)):
            for a, b in itertools.product(values, repeat=2):
                assert bool(eq(a, b)) == (key(a) == key(b)), (be, a, b)
