"""Smith normal form: pinned examples, an independent minor-gcd oracle, and
randomized structural properties."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact9.intlinalg import (
    _GUARD, _abs_sum, _pivot, max_abs, safe_matmul, snf, snf_columns, snf_rows, sparse_matmul,
)


def naive_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * naive_det(minor)
        total += -term if j % 2 else term
    return total


def minor_gcd_diagonal(matrix):
    """Independent oracle: d_1 ... d_k = gcd of all k x k minors."""
    rows = [list(map(int, r)) for r in matrix]
    m, n = len(rows), len(rows[0])
    diag = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(naive_det(sub)))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


def check_snf(matrix):
    a = np.asarray(matrix, dtype=object)
    res = snf(matrix)
    u, d, v = np.asarray(res.u, object), np.asarray(res.d, object), np.asarray(res.v, object)
    assert np.array_equal(np.dot(np.dot(u, a), v), d)
    diag = res.diagonal
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x and y % x == 0
        # zeros only at the tail
    nz = [x for x in diag if x]
    assert diag[: len(nz)] == nz
    assert np.array_equal(np.dot(np.asarray(res.u, object), np.asarray(res.u_inv, object)), np.eye(u.shape[0], dtype=object))
    assert np.array_equal(np.dot(np.asarray(res.v, object), np.asarray(res.v_inv, object)), np.eye(v.shape[0], dtype=object))
    return res


def test_identity():
    res = snf(np.eye(3, dtype=int))
    assert np.array_equal(res.d, np.eye(3, dtype=int))
    assert np.array_equal(res.u, np.eye(3, dtype=int))
    assert np.array_equal(res.v, np.eye(3, dtype=int))


def test_zero():
    res = snf(np.zeros((2, 2), dtype=int))
    assert not res.d.any()
    assert np.array_equal(res.u, np.eye(2, dtype=int))
    assert np.array_equal(res.v, np.eye(2, dtype=int))


def test_two_four_example():
    a = [[2, 4], [6, 8]]
    res = check_snf(a)
    # d1 = gcd of the entries, d1 * d2 = |determinant| = 8
    assert res.diagonal == [2, 4]
    assert minor_gcd_diagonal(a) == [2, 4]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_matches_minor_gcd_oracle(m, n, data):
    rows = [
        [data.draw(st.integers(-20, 20)) for _ in range(n)] for _ in range(m)
    ]
    res = check_snf(rows)
    assert [x for x in res.diagonal if x] == minor_gcd_diagonal(rows)


def test_bigint_fallback():
    a = [[10**30, 1], [1, 10**30]]
    res = check_snf(a)
    assert res.diagonal[0] == 1
    assert res.diagonal[1] == 10**60 - 1


def check_one_sided(matrix):
    """Each one-sided SNF gives snf's d, rank and transforms of its side, and None for the other.

    The values agree exactly; the dtypes may not, since a one-sided call
    bounds fewer matrices and can stay on int64 where snf falls back.
    """
    full = check_snf(matrix)
    cols, rows = snf_columns(matrix), snf_rows(matrix)
    for one in (cols, rows):
        assert one.rank == full.rank
        assert np.array_equal(one.d, full.d)
    assert cols.u is None and cols.u_inv is None
    assert np.array_equal(cols.v, full.v) and np.array_equal(cols.v_inv, full.v_inv)
    assert rows.v is None and rows.v_inv is None
    assert np.array_equal(rows.u, full.u) and np.array_equal(rows.u_inv, full.u_inv)
    return full


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.floats(0.1, 1.0),
    st.data(),
)
def test_one_sided_snf_matches_snf(m, n, density, data):
    rows = [
        [data.draw(st.integers(-20, 20)) if data.draw(st.floats(0, 1)) < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    check_one_sided(rows)


def test_one_sided_snf_of_empty_matrices():
    for shape in ((0, 3), (3, 0), (0, 0)):
        res = check_one_sided(np.zeros(shape, dtype=np.int64))
        assert res.rank == 0


def test_one_sided_snf_bigint_fallback():
    """Entries above the guard send all three factorisations down the exact path."""
    big = _GUARD + 1
    a = np.asarray([[2 * big, 3 * big, 1], [4 * big, big, 5], [6, 7 * big, 2 * big]], dtype=np.int64)
    res = check_one_sided(a)
    assert res.d.dtype == object
    assert snf_columns(a).d.dtype == snf_rows(a).d.dtype == object
    assert [x for x in res.diagonal if x] == minor_gcd_diagonal(a)


def test_int64_minimum_takes_the_exact_path():
    """-2^63 is its own np.abs, so a bound read through np.abs lets it wrap."""
    prod = safe_matmul(np.asarray([[-(2**63)]], dtype=np.int64), np.asarray([[2]], dtype=np.int64))
    assert prod.dtype == object and prod.tolist() == [[-(2**64)]]
    res = check_snf(np.asarray([[-(2**63), 1]], dtype=np.int64))
    assert res.d.dtype == object and res.diagonal == [1]


def test_abs_sum_is_exact_past_the_int64_range():
    q = np.full(8, 2**61 - 1, dtype=np.int64)
    q[0] = -q[0]
    assert _abs_sum(q, 2**61) == 8 * (2**61 - 1)
    assert _abs_sum(np.asarray([-(2**63), 5], dtype=np.int64), 2**63) == 2**63 + 5
    assert _abs_sum(np.asarray([-3, 0, 4]), 4) == 7


def least_entry(block):
    """Reference pivot: the first entry of least nonzero size, in row-major order."""
    best = None
    for i, row in enumerate(block.tolist()):
        for j, x in enumerate(row):
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
    return None if best is None else best[1:]


def check_pivot(block, chunk):
    want = least_entry(block)
    assert _pivot(block, chunk) == want
    assert _pivot(block.astype(object), chunk) == want
    # the engine passes the residual block, a strided view
    framed = np.zeros((block.shape[0] + 2, block.shape[1] + 3), dtype=np.int64)
    framed[2:, 3:] = block
    assert _pivot(framed[2:, 3:], chunk) == want


def test_pivot_cases():
    for shape in ((0, 0), (0, 4), (4, 0), (5, 7)):
        check_pivot(np.zeros(shape, dtype=np.int64), 8)
    # no unit: the least-size search runs; ties go to the first in row-major order
    check_pivot(np.asarray([[0, 6, -2], [3, -2, 0]]), 4)
    # a unit only in the last row, past many chunks
    block = np.full((50, 30), 6, dtype=np.int64)
    block[49, 29] = -1
    check_pivot(block, 64)
    # units at either side of a chunk boundary: chunks of 3 rows of 5
    for i, j in ((2, 4), (3, 0)):
        block = np.full((9, 5), 2, dtype=np.int64)
        block[i, j] = 1
        block[8, 0] = -1
        check_pivot(block, 15)
    # blocks wider than the chunk: each chunk is one row
    block = np.zeros((6, 40), dtype=np.int64)
    block[4, 39] = 1
    block[5, 0] = -1
    check_pivot(block, 8)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from([(0,), (0, 2, -2, 3, -3, 6, -6), (0, 1, -1, 2, -5), (0, 0, 0, 0, 1, -1, 4)]),
    st.integers(1, 40),
    st.data(),
)
def test_chunked_pivot_matches_least_entry_search(m, n, values, chunk, data):
    block = np.asarray([[data.draw(st.sampled_from(values)) for _ in range(n)] for _ in range(m)], dtype=np.int64)
    check_pivot(block.reshape(m, n), chunk)


def exact_product(a, b):
    """Reference product on Python ints, by the definition."""
    a, b = np.asarray(a), np.asarray(b)
    inner, cols = b.shape
    return [[sum(int(row[k]) * int(b[k, c]) for k in range(inner)) for c in range(cols)] for row in a]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from([1, 2**20, 2**31, 2**40]),
    st.sampled_from([1, 2**20, 2**31]),
    st.floats(0.0, 1.0),
    st.data(),
)
def test_sparse_product_matches_safe_matmul(m, n, p, scale_a, scale_b, density, data):
    """The product over nonzeros is exact, on int64 only when the guard allows it."""

    def draw(rows, cols, scale):
        entries = [
            data.draw(st.integers(-3, 3)) * scale if data.draw(st.floats(0, 1)) < density else 0
            for _ in range(rows * cols)
        ]
        return np.asarray(entries, dtype=np.int64).reshape(rows, cols)

    a, b = draw(m, n, scale_a), draw(n, p, scale_b)
    got = sparse_matmul(a, b)
    assert got.shape == (m, p)
    assert got.tolist() == safe_matmul(a, b).tolist() == exact_product(a, b)
    terms = max([0] + [int(np.count_nonzero(b[:, c])) for c in range(p)])
    if max_abs(a) * max_abs(b) * terms >= 2**62:
        assert got.dtype == object
    else:
        assert got.dtype == np.int64


def test_sparse_product_guard_counts_the_fullest_column():
    """An entry sums as many products as its column of b has nonzeros."""
    a = np.asarray([[2**31, 2**31]], dtype=np.int64)
    one = sparse_matmul(a, np.asarray([[2**30], [0]], dtype=np.int64))
    assert one.dtype == np.int64 and one.tolist() == [[2**61]]
    two = sparse_matmul(a, np.asarray([[2**30], [2**30]], dtype=np.int64))
    assert two.dtype == object and two.tolist() == [[2**62]]
    # object operands and uint64 take the exact path
    assert sparse_matmul(np.asarray([[2**70]], dtype=object), [[3]]).tolist() == [[3 * 2**70]]
    assert sparse_matmul(np.asarray([[2**64 - 1]], dtype=np.uint64), [[2]]).tolist() == [[2**65 - 2]]
    with pytest.raises(ValueError):
        sparse_matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


NON_INTEGER = (
    [[1.5, 2]],
    np.asarray([[1.0, 2.0]]),
    np.asarray([[1.5, 2]], dtype=object),
    np.asarray([[Fraction(3, 2), 2]], dtype=object),
    [["1", "2"]],
)


@pytest.mark.parametrize("bad", NON_INTEGER)
def test_non_integer_entries_are_refused(bad):
    """A float or other non-integer entry raises instead of being truncated."""
    for factor in (snf, snf_rows, snf_columns):
        with pytest.raises(TypeError):
            factor(bad)
    with pytest.raises(TypeError):
        safe_matmul(bad, [[1], [1]])
    with pytest.raises(TypeError):
        safe_matmul([[1]], bad)
    with pytest.raises(TypeError):
        sparse_matmul(bad, [[1], [1]])


def test_integer_inputs_of_every_dtype_agree():
    rows = [[2, 4, 6], [3, 0, 9], [1, 5, 7]]
    ref = snf(np.asarray(rows, dtype=np.int64))
    for matrix in [rows, np.asarray(rows, dtype=object)] + [
        np.asarray(rows, dtype=t)
        for t in (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32, np.uint64)
    ]:
        res = snf(matrix)
        assert res.rank == ref.rank
        for name in ("u", "d", "v", "u_inv", "v_inv"):
            got, want = getattr(res, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (matrix, name)
        assert safe_matmul(matrix, matrix).tolist() == exact_product(rows, rows)
    flags = np.asarray([[True, False], [True, True]])
    assert np.array_equal(snf(flags).d, snf([[1, 0], [1, 1]]).d)
    assert snf(np.zeros((0, 3))).rank == 0


def test_uint64_past_the_int64_range_is_exact():
    big = np.asarray([[2**64 - 1]], dtype=np.uint64)
    assert safe_matmul(big, [[1]]).tolist() == [[2**64 - 1]]
    assert snf(big).diagonal == [2**64 - 1]


def test_numpy_scalars_in_object_operands_do_not_wrap():
    """Object entries are multiplied as Python ints, on either side."""
    big = np.asarray([[np.int64(2**62)]], dtype=object)
    assert safe_matmul(big, [[4]]).tolist() == [[2**64]]
    assert safe_matmul([[4]], big).tolist() == [[2**64]]
    assert sparse_matmul(big, [[4]]).tolist() == [[2**64]]
