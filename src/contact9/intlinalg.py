"""Exact integer matrix algebra: the Smith normal form, two-sided or keeping
only the row or the column transforms, and a matrix product that never wraps.

Matrices are numpy arrays.  Computations run on int64 with an explicit
magnitude guard: entries are kept far enough below the int64 bound that no
single elimination step can wrap.  If the guard trips, the computation
restarts on object-dtype arrays holding Python big integers, so results are
always exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SNF", "snf", "snf_columns", "snf_rows"]

# A matrix with an entry above _GUARD is eliminated on Python ints from the
# start; below it, a running bound proves every int64 update wrap-free.
_GUARD = 1 << 30


class _Overflow(Exception):
    pass


def _asarray(a, big: bool) -> np.ndarray:
    """A fresh 2-d copy of ``a``: int64, or object dtype holding Python ints."""
    src = np.asarray(a)
    if src.dtype.kind not in "iu" or src.dtype == np.uint64:
        src = np.frompyfunc(int, 1, 1)(np.asarray(a, dtype=object))
    if src.ndim == 1:
        src = src.reshape(0, 0) if src.size == 0 else src.reshape(1, -1)
    if src.ndim != 2:
        raise ValueError("matrix expected")
    if big:
        return np.array(src.tolist(), dtype=object).reshape(src.shape)
    return src.astype(np.int64)


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
    """Exact matrix/vector product via object dtype (never wraps)."""
    ao = a if a.dtype == object else _to_object(a)
    bo = np.asarray(b, dtype=object)
    return np.dot(ao, bo)


def safe_matmul(a, b) -> np.ndarray:
    """Exact matrix product: int64 BLAS path when provably wrap-free, else big ints."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.dtype != object and b.dtype != object:
        a64 = a.astype(np.int64)
        b64 = b.astype(np.int64)
        ma = int(np.abs(a64).max()) if a64.size else 0
        mb = int(np.abs(b64).max()) if b64.size else 0
        inner = a64.shape[1]
        if ma * mb * max(inner, 1) < (1 << 62):
            return a64 @ b64
    return _dot(a, b)


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


def _snf_inplace(a: np.ndarray, big: bool, rows: bool, cols: bool) -> SNF:
    """Eliminate ``a`` to Smith form, keeping the row and/or column transforms."""
    nr, nc = a.shape
    u, u_inv = (_identity(nr, big), _identity(nr, big)) if rows else (None, None)
    v, v_inv = (_identity(nc, big), _identity(nc, big)) if cols else (None, None)

    # Overestimate of the largest absolute entry across the updated matrices,
    # maintained so int64 batch updates can be proven wrap-free in advance.
    bound = 1
    if not big and a.size:
        bound = max(1, int(np.abs(a).max()))
        if bound > _GUARD:
            raise _Overflow

    def recompute_bound() -> int:
        return max([1] + [int(np.abs(m).max()) for m in (a, u, u_inv, v, v_inv) if m is not None and m.size])

    def admit(qsum: int):
        # allow an update multiplying the bound by (1 + qsum)
        nonlocal bound
        if big:
            return
        if bound * (1 + qsum) >= (1 << 61):
            bound = recompute_bound()
            if bound * (1 + qsum) >= (1 << 61):
                raise _Overflow
        bound *= 1 + qsum

    def row_swap(i, j):
        a[[i, j], :] = a[[j, i], :]
        if rows:
            u[[i, j], :] = u[[j, i], :]
            u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def col_swap(i, j):
        a[:, [i, j]] = a[:, [j, i]]
        if cols:
            v[:, [i, j]] = v[:, [j, i]]
            v_inv[[i, j], :] = v_inv[[j, i], :]

    def row_negate(i):
        a[i, :] = -a[i, :]
        if rows:
            u[i, :] = -u[i, :]
            u_inv[:, i] = -u_inv[:, i]

    n = min(nr, nc)
    r = 0
    while r < n:
        # pivot: the first entry of least nonzero size in row-major order, chosen
        # from a alone, so d and the kept transforms do not depend on the sides kept
        block = a[r:, r:]
        ii, jj = np.divmod(np.flatnonzero(block != 0), block.shape[1])
        if not ii.size:
            break
        k = int(np.argmin(np.abs(block[ii, jj])))
        i, j = int(ii[k]), int(jj[k])
        if i:
            row_swap(r, r + int(i))
        if j:
            col_swap(r, r + int(j))
        if a[r, r] < 0:
            row_negate(r)
        while True:
            colv = a[r + 1 :, r]
            if np.any(colv):
                q = colv // a[r, r]
                admit(int(np.abs(q).sum()))
                hit = r + 1 + np.flatnonzero(q)
                q = q[q != 0]
                a[hit, r:] -= np.outer(q, a[r, r:])
                if rows:
                    u[hit, :] -= np.outer(q, u[r, :])
                    u_inv[:, r] += np.dot(u_inv[:, hit], q)
                rem = a[r + 1 :, r]
                if np.any(rem):
                    i = int(np.nonzero(rem)[0][0])
                    row_swap(r, r + 1 + i)
                    if a[r, r] < 0:
                        row_negate(r)
                    continue
            roww = a[r, r + 1 :]
            if np.any(roww):
                q = roww // a[r, r]
                admit(int(np.abs(q).sum()))
                hit = r + 1 + np.flatnonzero(q)
                q = q[q != 0]
                a[r:, hit] -= np.outer(a[r:, r], q)
                if cols:
                    v[:, hit] -= np.outer(v[:, r], q)
                    v_inv[r, :] += np.dot(q, v_inv[hit, :])
                rem = a[r, r + 1 :]
                if np.any(rem):
                    j = int(np.nonzero(rem)[0][0])
                    col_swap(r, r + 1 + j)
                    if a[r, r] < 0:
                        row_negate(r)
                    continue
                continue  # a col_swap above may have refilled column r
            break
        piv = int(a[r, r])
        if piv != 1:
            rest = a[r + 1 :, r + 1 :]
            if rest.size:
                bad = np.nonzero(rest % piv)
                if bad[0].size:
                    i = int(bad[0][0])
                    admit(1)
                    a[r, :] += a[r + 1 + i, :]
                    if rows:
                        u[r, :] += u[r + 1 + i, :]
                        u_inv[:, r + 1 + i] -= u_inv[:, r]
                    continue  # redo this pivot with the offending row mixed in
        r += 1

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
