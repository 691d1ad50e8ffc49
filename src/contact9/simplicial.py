"""Finite simplicial complexes and cochain-level operations.

A complex is given by its maximal simplices over a totally ordered vertex
set; every subset of a facet is implicitly a simplex.  Simplices are
canonically written as tuples of vertex ids sorted by the vertex order fixed
at construction.

Cochains are sparse maps from simplices to coefficients.  Coefficients live
in Z (``modulus`` 0) or Z/2^j (``modulus`` 2**j).  The cup product uses the
front-face/back-face rule; the higher products ``cup_i`` use overlapping
interval partitions of the vertex positions, which satisfy, mod 2,

    d(x cup_i y) = x cup_{i-1} y + y cup_{i-1} x + dx cup_i y + x cup_i dy.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from functools import lru_cache

import numpy as np

__all__ = [
    "SimplicialComplex", "Cochain", "coboundary", "cup", "cup_i", "square", "bockstein", "reduce_mod",
    "RingMismatchError",
]


class RingMismatchError(ValueError):
    pass


def _check_modulus(modulus: int) -> int:
    modulus = int(modulus)
    if modulus == 0:
        return 0
    if modulus < 2 or modulus & (modulus - 1):
        raise ValueError(f"coefficient modulus must be 0 (integers) or a power of two, got {modulus}")
    return modulus


class SimplicialComplex:
    """Finite complex over ordered vertices, stored by its facets."""

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        canon = []
        for facet in facets:
            f = tuple(facet)
            if any(v not in self._pos for v in f):
                raise ValueError(f"facet {f!r} uses an unknown vertex")
            if len(set(f)) != len(f):
                raise ValueError(f"facet {f!r} repeats a vertex")
            canon.append(tuple(sorted(f, key=self._pos.__getitem__)))
        canon.sort(key=lambda f: (len(f), tuple(self._pos[v] for v in f)))
        for i, f in enumerate(canon):
            fs = set(f)
            for g in canon[i + 1 :]:
                if f == g:
                    raise ValueError(f"facet {f!r} is contained in facet {g!r} (duplicate)")
                if fs < set(g):
                    raise ValueError(f"facet {f!r} is contained in facet {g!r}")
        self.facets = tuple(canon)
        self.dimension = max((len(f) - 1 for f in self.facets), default=-1)
        self._simplices: dict[int, tuple[tuple, ...]] = {}
        self._index: dict[int, dict[tuple, int]] = {}

    def position(self, vertex) -> int:
        return self._pos[vertex]

    def sort_simplex(self, vertices) -> tuple:
        return tuple(sorted(vertices, key=self._pos.__getitem__))

    def simplices(self, d: int) -> tuple[tuple, ...]:
        """All d-simplices, ordered lexicographically in the vertex order."""
        if d < 0 or d > self.dimension:
            return ()
        if d not in self._simplices:
            seen = set()
            for f in self.facets:
                if len(f) >= d + 1:
                    seen.update(combinations(f, d + 1))
            ordered = sorted(seen, key=lambda s: tuple(self._pos[v] for v in s))
            self._simplices[d] = tuple(ordered)
            self._index[d] = {s: i for i, s in enumerate(ordered)}
        return self._simplices[d]

    def simplex_index(self, d: int) -> dict[tuple, int]:
        self.simplices(d)
        return self._index.get(d, {})

    def n_simplices(self, d: int) -> int:
        return len(self.simplices(d))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.n_simplices(d) for d in range(self.dimension + 1))

    def __repr__(self):
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self.facets)} facets, dim {self.dimension})"
        )


class Cochain:
    """Sparse cochain: degree, coefficient modulus, simplex -> value map."""

    __slots__ = ("complex", "degree", "modulus", "values")

    def __init__(self, complex: SimplicialComplex, degree: int, modulus: int, values=None):
        self.complex = complex
        self.degree = int(degree)
        self.modulus = _check_modulus(modulus)
        idx = complex.simplex_index(self.degree)
        vals = {}
        for s, c in (values or {}).items():
            s = tuple(s)
            if s not in idx:
                raise ValueError(f"{s!r} is not a {self.degree}-simplex of the complex")
            c = int(c) % self.modulus if self.modulus else int(c)
            if c:
                vals[s] = c
        self.values = vals

    def __call__(self, simplex) -> int:
        return self.values.get(tuple(simplex), 0)

    def same_ring(self, other: "Cochain") -> bool:
        return self.complex is other.complex and self.modulus == other.modulus

    def __add__(self, other: "Cochain") -> "Cochain":
        if not self.same_ring(other) or self.degree != other.degree:
            raise RingMismatchError("cochain addition needs matching complex, ring and degree")
        vals = dict(self.values)
        for s, c in other.values.items():
            vals[s] = vals.get(s, 0) + c
        return Cochain(self.complex, self.degree, self.modulus, vals)

    def __neg__(self) -> "Cochain":
        return Cochain(self.complex, self.degree, self.modulus, {s: -c for s, c in self.values.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.complex, self.degree, self.modulus, {s: k * c for s, c in self.values.items()})

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.same_ring(other)
            and self.degree == other.degree
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.complex), self.degree, self.modulus, tuple(sorted(self.values.items()))))

    def vector(self) -> list[int]:
        """Dense coefficient vector in the canonical simplex order."""
        idx = self.complex.simplex_index(self.degree)
        out = [0] * len(idx)
        for s, c in self.values.items():
            out[idx[s]] = c
        return out

    @classmethod
    def from_vector(cls, complex: SimplicialComplex, degree: int, modulus: int, vec) -> "Cochain":
        simps = complex.simplices(degree)
        return cls(complex, degree, modulus, {s: int(c) for s, c in zip(simps, vec)})

    def __repr__(self):
        ring = "Z" if self.modulus == 0 else f"Z/{self.modulus}"
        return f"Cochain(deg {self.degree}, {ring}, {len(self.values)} terms)"


def coboundary(x: Cochain) -> Cochain:
    """(dx)(v0..v_{d+1}) = sum_i (-1)^i x(v0..^vi..v_{d+1})."""
    cx = x.complex
    out: dict[tuple, int] = {}
    for tau in cx.simplices(x.degree + 1):
        total = 0
        for i in range(len(tau)):
            face = tau[:i] + tau[i + 1 :]
            c = x.values.get(face)
            if c:
                total += -c if i & 1 else c
        if x.modulus:
            total %= x.modulus
        if total:
            out[tau] = total
    return Cochain(cx, x.degree + 1, x.modulus, out)


def coboundary_matrix(complex: SimplicialComplex, d: int) -> np.ndarray:
    """Matrix of the coboundary C^d -> C^{d+1} in the canonical bases, as
    int64.  The faces of a simplex are distinct, so face i of every row sets
    one entry to (-1)^i."""
    rows = complex.simplices(d + 1)
    cols = complex.simplex_index(d)
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if not cols:  # no d-simplices (d < 0 or d > dimension): the zero map
        return mat
    for i in range(d + 2):
        faces = np.fromiter((cols[tau[:i] + tau[i + 1 :]] for tau in rows), dtype=np.intp, count=len(rows))
        mat[np.arange(len(rows)), faces] = -1 if i & 1 else 1
    return mat


def cup(x: Cochain, y: Cochain) -> Cochain:
    """Front-face/back-face cup product (valid over any coefficient ring)."""
    if not x.same_ring(y):
        raise RingMismatchError("cup product needs matching complex and coefficient ring")
    cx = x.complex
    p, q = x.degree, y.degree
    out: dict[tuple, int] = {}
    for sigma in cx.simplices(p + q):
        c = x.values.get(sigma[: p + 1])
        if not c:
            continue
        cprime = y.values.get(sigma[p:])
        if not cprime:
            continue
        total = c * cprime
        if x.modulus:
            total %= x.modulus
        if total:
            out[sigma] = total
    return Cochain(cx, p + q, x.modulus, out)


@lru_cache(maxsize=None)
def _partitions(n: int, i: int, p: int, q: int) -> tuple:
    """Overlapping interval partitions of {0..n} into i+2 blocks.

    Cut points 0 <= r_0 <= ... <= r_i <= n split {0..n} into consecutive
    blocks [r_{j-1}, r_j] sharing endpoints.  Returns the (even-union,
    odd-union) position tuples for partitions where the even union has p+1
    elements and the odd union has q+1.
    """
    keep = []
    for cuts in combinations_with_replacement(range(n + 1), i + 1):
        even: set[int] = set()
        odd: set[int] = set()
        prev = 0
        for j, r in enumerate(list(cuts) + [n]):
            block = range(prev, r + 1)
            (even if j % 2 == 0 else odd).update(block)
            prev = r
        if len(even) == p + 1 and len(odd) == q + 1:
            keep.append((tuple(sorted(even)), tuple(sorted(odd))))
    return tuple(keep)


def cup_i(x: Cochain, y: Cochain, i: int) -> Cochain:
    """Steenrod higher product x cup_i y (mod 2 coefficients only)."""
    if i < 0:
        raise ValueError("cup_i index must be non-negative")
    if not x.same_ring(y):
        raise RingMismatchError("cup_i needs matching complex and coefficient ring")
    if x.modulus != 2:
        raise RingMismatchError("cup_i is defined here only for mod-2 coefficients")
    cx = x.complex
    p, q = x.degree, y.degree
    n = p + q - i
    if n < 0 or n > cx.dimension:
        return Cochain(cx, max(n, 0), 2, {})
    parts = _partitions(n, i, p, q)
    out: dict[tuple, int] = {}
    for sigma in cx.simplices(n):
        total = 0
        for even, odd in parts:
            ce = x.values.get(tuple(sigma[k] for k in even))
            if not ce:
                continue
            co = y.values.get(tuple(sigma[k] for k in odd))
            if co:
                total ^= 1
        if total:
            out[sigma] = 1
    return Cochain(cx, n, 2, out)


def square(x: Cochain, k: int) -> Cochain:
    """Sq^k of a mod-2 cocycle of degree p >= k: x cup_{p-k} x."""
    return cup_i(x, x, x.degree - k)


def bockstein(x: Cochain) -> Cochain:
    """Integral cocycle d(lift x) / m of a mod-m cocycle x (the connecting map)."""
    m = x.modulus
    lift = coboundary(Cochain(x.complex, x.degree, 0, x.values))
    vals = {}
    for s, c in lift.values.items():
        if c % m:
            raise AssertionError("Bockstein lift produced a coboundary not divisible by the modulus")
        vals[s] = c // m
    return Cochain(x.complex, x.degree + 1, 0, vals)


def reduce_mod(x: Cochain, modulus: int) -> Cochain:
    """The cochain x with its coefficients reduced modulo ``modulus``."""
    return Cochain(x.complex, x.degree, modulus, x.values)
