"""Linear algebra over the field with two elements.

Vectors and matrices are numpy uint8 arrays with entries in {0, 1}; all
operations reduce mod 2.  Rows of a matrix are vectors; a subspace is kept
as a row-reduced echelon basis so membership tests and canonical coset
representatives are cheap.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "asmat", "zeros", "eye", "mat_mul", "mat_vec", "echelon", "rank",
    "solve", "nullspace", "inverse", "is_invertible", "random_invertible",
    "Subspace",
]


def asmat(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.uint8) & 1
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def mat_mul(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return (a.astype(np.int64) @ b.astype(np.int64) & 1).astype(np.uint8)


def mat_vec(a, v) -> np.ndarray:
    return mat_mul(a, np.asarray(v, dtype=np.uint8).reshape(-1, 1)).reshape(-1)


def echelon(a) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form, returning (matrix, pivot column list)."""
    m = asmat(a).copy()
    if m.ndim != 2:
        raise ValueError("matrix expected")
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hot = np.nonzero(m[r:, c])[0]
        if hot.size == 0:
            continue
        p = r + int(hot[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a) -> int:
    return len(echelon(a)[1])


def solve(a, b):
    """One solution x of a @ x = b over F2, or None if inconsistent."""
    a = asmat(a)
    b = np.asarray(b, dtype=np.uint8).reshape(-1) & 1
    rows, cols = a.shape
    if b.shape[0] != rows:
        raise ValueError("dimension mismatch")
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    red, pivots = echelon(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for i, c in enumerate(pivots):
        x[c] = red[i, cols]
    return x


def nullspace(a) -> np.ndarray:
    """Matrix whose rows form a basis of the right kernel of a."""
    a = asmat(a)
    rows, cols = a.shape
    red, pivots = echelon(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = red[i, f]
    return basis


def inverse(a) -> np.ndarray:
    a = asmat(a)
    n, m = a.shape
    if n != m:
        raise ValueError("square matrix expected")
    aug = np.concatenate([a, eye(n)], axis=1)
    red, pivots = echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible over F2")
    return red[:, n:]


def is_invertible(a) -> bool:
    a = asmat(a)
    return a.shape[0] == a.shape[1] and rank(a) == a.shape[0]


def random_invertible(rng, n: int) -> np.ndarray:
    """Uniform-ish random invertible n x n matrix over F2 (rejection sampling)."""
    if n == 0:
        return zeros(0, 0)
    while True:
        m = (np.asarray(rng.integers(0, 2, size=(n, n)))).astype(np.uint8)
        if is_invertible(m):
            return m


class Subspace:
    """A subspace of F2^n held as a row-echelon basis.

    ``reduce`` returns the canonical representative of a coset (the vector
    with zeros in all pivot positions), so two vectors lie in the same coset
    iff their reductions are equal.
    """

    def __init__(self, vectors, ambient_dim: int | None = None):
        vecs = [np.asarray(v, dtype=np.uint8).reshape(-1) & 1 for v in vectors]
        if vecs:
            n = vecs[0].shape[0]
            if any(v.shape[0] != n for v in vecs):
                raise ValueError("mixed vector lengths")
            if ambient_dim is not None and ambient_dim != n:
                raise ValueError("ambient dimension mismatch")
        else:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for empty generating set")
            n = ambient_dim
        self.ambient_dim = n
        if vecs:
            red, pivots = echelon(np.stack(vecs))
            self.basis = red[: len(pivots)].copy()
            self.pivots = pivots
        else:
            self.basis = zeros(0, n)
            self.pivots = []
        self.basis.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, v) -> np.ndarray:
        v = np.array(v, dtype=np.uint8).reshape(-1) & 1
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector has wrong length")
        for row, piv in zip(self.basis, self.pivots):
            if v[piv]:
                v ^= row
        return v

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
