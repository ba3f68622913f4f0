"""Enrichment backends and the pushforward along a function."""

import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanv.errors import InvalidBackend, ShapeMismatch, UnsupportedBackend
from spanv.finset import FinFn, FinSet
from spanv.vbackend import (
    FinSetBackend,
    MatBackend,
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
    product = MatBackend._product
    monkeypatch.setattr(MatBackend, "_product",
                        lambda self, f, g: made.append(1) or product(self, f, g))
    f, g = be.mor([[1, 2], [0, 1]]), be.mor([[2, 0], [1, 1]])

    def check():
        return [be.compose(f, g), be.compose(f, g), be.tensor_mor(f, g),
                be.tensor_mor(f, g), be.id(2), be.id(2)]

    first = per_check(check)()
    assert len(made) == 1
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
