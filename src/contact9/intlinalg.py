"""Exact integer matrix algebra: the Smith normal form, two-sided or keeping
only the row or the column transforms, and matrix products that never wrap,
dense or formed from the nonzeros alone.

Matrices are numpy arrays of integers; a float or other non-integer entry
raises TypeError rather than being truncated.  Computations run on int64
with an explicit magnitude guard: entries are kept far enough below the
int64 bound that no single elimination step can wrap.  If the guard trips,
the computation restarts on object-dtype arrays holding Python big integers,
so results are always exact.  Every magnitude bound is read as
``max(m.max(), -m.min())`` in Python ints, since ``np.abs`` maps -2^63 to
itself, and the sums of quotient sizes that grow the bounds are exact too.
The elimination tracks one bound for the matrix and its forward transforms
and one for the inverses, and falls back only when the true largest entry
is too large, so how tightly the bounds are tracked changes no result.

The elimination pivots on the first entry of least nonzero size in
row-major order of the residual block.  When the block holds a ±1, that is
its first ±1, found by scanning a few rows at a time; only a block without
a unit is searched in full.  A unit pivot divides every entry, so it is
cleared in one pass per side, with the entries as quotients and no
remainder check.  Once the column below a pivot is clear, the row step
changes the pivot's row of the matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SNF", "snf", "snf_columns", "snf_rows"]

# A matrix with an entry above _GUARD is eliminated on Python ints from the
# start; below it, a running bound proves every int64 update wrap-free.
_GUARD = 1 << 30
# The pivot search scans whole rows, about _CHUNK entries at a time, for a unit.
_CHUNK = 512


class _Overflow(Exception):
    pass


def _integers(a) -> np.ndarray:
    """``a`` as an array of integers: integer and object arrays as they are,
    but uint64, which can exceed int64, as Python ints, and bools and empty
    arrays as int64.

    Raises TypeError on a float or other non-integer dtype, or an object
    entry that is not an integer, instead of truncating it.
    """
    src = np.asarray(a)
    kind = src.dtype.kind
    if kind == "i" or (kind == "u" and src.itemsize < 8):
        return src
    if kind == "O":
        try:
            # x & 0 is defined for integers alone
            np.bitwise_and(src, 0)
        except TypeError:
            raise TypeError("integer matrix expected, got a non-integer entry") from None
        return src
    if kind == "u":
        return src.astype(object)
    if kind == "b" or not src.size:
        return src.astype(np.int64)
    raise TypeError(f"integer matrix expected, got dtype {src.dtype}")


# Python ints of the entries of an object array: a numpy integer scalar held
# in one would multiply with int64 wrap-around.
_python_ints = np.frompyfunc(int, 1, 1)


def _asarray(a, big: bool) -> np.ndarray:
    """A fresh 2-d copy of ``a``: int64, or object dtype holding Python ints."""
    src = _integers(a)
    if src.dtype == object:
        src = _python_ints(src)
    if src.ndim == 1:
        src = src.reshape(0, 0) if src.size == 0 else src.reshape(1, -1)
    if src.ndim != 2:
        raise ValueError("matrix expected")
    if big:
        return np.array(src.tolist(), dtype=object).reshape(src.shape)
    return src.astype(np.int64)


def max_abs(m: np.ndarray) -> int:
    """The largest absolute entry of ``m`` (0 if empty), as a Python int.

    Read from the maximum and the minimum: ``np.abs`` maps -2^63 to itself.
    """
    return max(int(m.max()), -int(m.min())) if m.size else 0


def _identity(n: int, big: bool) -> np.ndarray:
    if big:
        m = np.zeros((n, n), dtype=object)
        np.fill_diagonal(m, 1)
        return m
    return np.eye(n, dtype=np.int64)


def _to_object(a: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape, dtype=object)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i, j] = int(a[i, j])
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix/vector product on Python ints (never wraps)."""
    ao = _python_ints(a) if a.dtype == object else _to_object(a)
    bo = _python_ints(b) if b.dtype == object else np.asarray(b, dtype=object)
    return np.dot(ao, bo)


def safe_matmul(a, b) -> np.ndarray:
    """Exact matrix product: int64 BLAS path when provably wrap-free, else big ints."""
    a = _integers(a)
    b = _integers(b)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.dtype != object and b.dtype != object:
        a64 = a.astype(np.int64)
        b64 = b.astype(np.int64)
        if max_abs(a64) * max_abs(b64) * max(a64.shape[1], 1) < (1 << 62):
            return a64 @ b64
    return _dot(a, b)


def sparse_matmul(a, b) -> np.ndarray:
    """Exact ``a @ b``, formed from the nonzeros of ``a`` and ``b`` alone.

    Each nonzero a[i, s] meets the nonzeros b[s, c] of row s of ``b``, and
    the products of the pairs are scatter-added into entry (i, c), so zero
    entries cost nothing.  An entry of the result sums at most as many
    products as the fullest column of ``b`` has nonzeros; the int64 sum is
    used only when that many products of the largest entries stay below
    2^62, and otherwise the product is ``safe_matmul``'s, on Python ints.
    """
    a = _integers(a)
    b = _integers(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("matrices of matching shapes expected")
    if a.dtype == object or b.dtype == object:
        return safe_matmul(a, b)
    a = a.astype(np.int64, copy=False)
    b = b.astype(np.int64, copy=False)
    ai, aj = np.nonzero(a)
    br, bc = np.nonzero(b)
    if max_abs(a) * max_abs(b) * int(np.bincount(bc, minlength=1).max()) >= (1 << 62):
        return safe_matmul(a, b)
    # pair each a[i, s] with the nonzeros of row s of b, which are b's
    # nonzeros first[s] to first[s] + per_row[s] - 1 in row-major order
    per_row = np.bincount(br, minlength=b.shape[0])
    first = np.cumsum(per_row) - per_row
    meets = per_row[aj]
    pair_a = np.repeat(np.arange(aj.size), meets)
    pair_b = np.arange(pair_a.size) + np.repeat(first[aj] - (np.cumsum(meets) - meets), meets)
    out = np.zeros(a.shape[0] * b.shape[1], dtype=np.int64)
    np.add.at(out, ai[pair_a] * b.shape[1] + bc[pair_b], a[ai, aj][pair_a] * b[br, bc][pair_b])
    return out.reshape(a.shape[0], b.shape[1])


@dataclass
class SNF:
    """U @ A @ V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    ``u_inv`` and ``v_inv`` are the exact inverses of ``u`` and ``v``.  A
    one-sided factorisation leaves the transforms of the other side None.
    """

    u: np.ndarray | None
    d: np.ndarray
    v: np.ndarray | None
    u_inv: np.ndarray | None
    v_inv: np.ndarray | None
    rank: int

    @property
    def diagonal(self) -> list[int]:
        k = min(self.d.shape)
        return [int(self.d[i, i]) for i in range(k)]


def _abs_sum(q: np.ndarray, limit: int) -> int:
    """The sum of ``|q|`` as a Python int, given that no ``|q|`` exceeds ``limit``.

    The int64 sum is wrap-free while ``len(q) * max|q| < 2^63``; past that the
    entries are summed as Python ints.
    """
    if q.size * limit < (1 << 63) or q.size * max_abs(q) < (1 << 63):
        return int(np.abs(q).sum())
    return sum(abs(x) for x in q.tolist())


def _swap(m: np.ndarray, i: int, j: int):
    """Swap rows i and j of ``m`` in place."""
    t = m[i].copy()
    m[i] = m[j]
    m[j] = t


def _pivot(block: np.ndarray, chunk: int = _CHUNK) -> tuple[int, int] | None:
    """(i, j) of the first entry of least nonzero size in row-major order, or None.

    When the block holds a unit, that entry is its first ±1, found by scanning
    whole rows, about ``chunk`` entries at a time, up to the first chunk that
    holds one.  Only a block without a unit is searched in full.
    """
    if not block.size:
        return None
    nr, nc = block.shape
    step = max(1, chunk // nc)
    for i0 in range(0, nr, step):
        unit = np.abs(block[i0 : i0 + step]) == 1
        k = int(unit.argmax())
        if unit.flat[k]:
            i, j = divmod(k, nc)
            return i0 + i, j
    ii, jj = np.nonzero(block)
    if not ii.size:
        return None
    k = int(np.argmin(np.abs(block[ii, jj])))
    return int(ii[k]), int(jj[k])


def _snf_inplace(a: np.ndarray, big: bool, rows: bool, cols: bool) -> SNF:
    """Eliminate ``a`` to Smith form, keeping the row and/or column transforms."""
    nr, nc = a.shape
    # u_inv and v are kept transposed, so every update of a transform is a
    # row operation
    u, u_inv_t = (_identity(nr, big), _identity(nr, big)) if rows else (None, None)
    v_t, v_inv = (_identity(nc, big), _identity(nc, big)) if cols else (None, None)

    # Overestimates of the largest absolute entry of the matrices updated
    # forwards (a, u, v_t) and of the inverses (u_inv_t, v_inv), maintained so
    # int64 batch updates can be proven wrap-free in advance.  A forward
    # update adds one multiple of the pivot's row or column to each hit one,
    # so it grows its bound by at most (1 + max|q|); only the inverses sum
    # the hit rows into one and grow by (1 + sum|q|).  The row step leaves a
    # no larger: row r of a becomes zeros or remainders below the pivot.
    fwd = inv = 1
    if not big and a.size:
        fwd = max(1, max_abs(a))
        if fwd > _GUARD:
            raise _Overflow

    def recompute_bounds() -> tuple[int, int]:
        return (
            max([1] + [max_abs(m) for m in (a, u, v_t) if m is not None]),
            max([1] + [max_abs(m) for m in (u_inv_t, v_inv) if m is not None]),
        )

    def admit(q: np.ndarray, forward: bool, inverse: bool):
        # allow an update by the nonzero quotients q, of the matrices named.
        # It is refused only when the true largest entry times (1 + sum|q|)
        # reaches 2^61, so the int64/bigint decision does not depend on how
        # tight the bounds are.
        nonlocal fwd, inv
        if big:
            return
        qsum = _abs_sum(q, fwd)
        if max(fwd, inv) * (1 + qsum) >= (1 << 61):
            fwd, inv = recompute_bounds()
            if max(fwd, inv) * (1 + qsum) >= (1 << 61):
                raise _Overflow
        if forward:
            # every |q| >= 1, so max|q| <= sum|q| - (len(q) - 1)
            fwd *= 2 + qsum - q.size
        if inverse:
            inv *= 1 + qsum

    # Rows and columns before r are zero off the diagonal, so the swaps and
    # the negation touch a from column (or row) r on.
    def row_swap(k):
        for m in (a[:, r:], u, u_inv_t) if rows else (a[:, r:],):
            _swap(m, r, k)

    def col_swap(k):
        for m in (a[r:].T, v_t, v_inv) if cols else (a[r:].T,):
            _swap(m, r, k)

    def row_negate():
        a[r, r:] = -a[r, r:]
        if rows:
            u[r] = -u[r]
            u_inv_t[r] = -u_inv_t[r]

    n = min(nr, nc)
    r = 0
    while r < n:
        # pivot: chosen from a alone, so d and the kept transforms do not
        # depend on the sides kept
        at = _pivot(a[r:, r:])
        if at is None:
            break
        i, j = at
        if i:
            row_swap(r + i)
        if j:
            col_swap(r + j)
        if a[r, r] < 0:
            row_negate()
        while True:
            # a unit pivot divides everything: its quotients are the entries
            # themselves and it leaves no remainder
            p = a[r, r]
            hit = a[r + 1 :, r].nonzero()[0]
            if hit.size:
                hit += r + 1
                q = a[hit, r]
                if p != 1:
                    q //= p
                    moved = q != 0
                    hit, q = hit[moved], q[moved]
                admit(q, True, rows)
                a[hit, r:] -= q[:, None] * a[r, r:]
                if rows:
                    u[hit] -= q[:, None] * u[r]
                    u_inv_t[r] += np.dot(q, u_inv_t[hit])
                if p != 1:
                    rest = a[r + 1 :, r].nonzero()[0]
                    if rest.size:
                        row_swap(r + 1 + int(rest[0]))
                        if a[r, r] < 0:
                            row_negate()
                        continue
            # column r is zero below the pivot now, so the row step changes
            # row r of a alone.  Without column transforms, a unit pivot's
            # row step only clears the row; its quotients are needed only
            # when the int64 check could refuse them, and |q| <= fwd.
            if p == 1 and not cols and (big or max(fwd, inv) * (1 + (nc - r - 1) * fwd) < (1 << 61)):
                a[r, r + 1 :] = 0
                break
            hit = a[r, r + 1 :].nonzero()[0]
            if hit.size:
                hit += r + 1
                q = a[r, hit]
                if p != 1:
                    q //= p
                    moved = q != 0
                    hit, q = hit[moved], q[moved]
                admit(q, cols, cols)
                if p == 1:
                    a[r, r + 1 :] = 0
                else:
                    a[r, hit] -= p * q
                if cols:
                    v_t[hit] -= q[:, None] * v_t[r]
                    v_inv[r] += np.dot(q, v_inv[hit])
                if p != 1:
                    rest = a[r, r + 1 :].nonzero()[0]
                    if rest.size:
                        col_swap(r + 1 + int(rest[0]))
                        if a[r, r] < 0:
                            row_negate()
                        continue
            break
        piv = int(a[r, r])
        if piv != 1:
            rest = a[r + 1 :, r + 1 :]
            if rest.size:
                bad = np.nonzero(rest % piv)
                if bad[0].size:
                    k = r + 1 + int(bad[0][0])
                    admit(np.ones(1, dtype=np.int64), True, rows)
                    a[r] += a[k]
                    if rows:
                        u[r] += u[k]
                        u_inv_t[k] -= u_inv_t[r]
                    continue  # redo this pivot with the offending row mixed in
        r += 1

    u_inv = None if u_inv_t is None else np.ascontiguousarray(u_inv_t.T)
    v = None if v_t is None else np.ascontiguousarray(v_t.T)
    return SNF(u=u, d=a, v=v, u_inv=u_inv, v_inv=v_inv, rank=r)


def _factor(matrix, rows: bool, cols: bool) -> SNF:
    try:
        return _snf_inplace(_asarray(matrix, big=False), False, rows, cols)
    except (_Overflow, OverflowError):
        return _snf_inplace(_asarray(matrix, big=True), True, rows, cols)


def snf(matrix) -> SNF:
    """Smith normal form with transforms and their inverses."""
    return _factor(matrix, rows=True, cols=True)


def snf_columns(matrix) -> SNF:
    """Smith normal form with only the column transforms ``v`` and ``v_inv``."""
    return _factor(matrix, rows=False, cols=True)


def snf_rows(matrix) -> SNF:
    """Smith normal form with only the row transforms ``u`` and ``u_inv``."""
    return _factor(matrix, rows=True, cols=False)
