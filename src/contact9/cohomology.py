"""Cohomology groups and class-level operations of a finite simplicial complex.

Each coboundary C^d -> C^{d+1} is factorised once, by a column-side Smith
normal form U delta V = D.  The cocycle lattice (the kernel over Z; over
Z/2^j the cochains whose coboundary vanishes mod 2^j) has a basis of scaled
columns of V, so V^-1 gives lattice coordinates with no further
factorisation.  One row-side SNF per group, of the relations (coboundaries,
and over Z/2^j also 2^j times every cochain) in those coordinates, gives the
orders and the generators.  All arithmetic is exact integer arithmetic.

The coboundaries in those coordinates are V^-1 delta_{d-1}.  Since
delta_d delta_{d-1} = 0, D V^-1 delta_{d-1} = U delta_d delta_{d-1} = 0, so
its rows above the rank of D are zero.  The rows from the rank on, the
coordinates in the kernel over Z, are formed once per degree from the
nonzeros of V^-1 and of delta_{d-1} (``image``) and shared by every
coefficient ring: over Z/2^j they follow rank rows of zeros.

Every computed group carries explicit representative cocycles, and cocycles
convert back to generator coordinates, which is what makes the class-level
operations (cup, Steenrod squares, Bocksteins, coefficient reductions) exact
and testable.  ``classes_of`` converts any number of cocycles of one ring and
degree in one product, so ``model.from_simplicial`` solves all its tables
once per ring and degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .intlinalg import SNF, max_abs, safe_matmul, snf_columns, snf_rows, sparse_matmul
from .simplicial import (
    Cochain, SimplicialComplex, bockstein, coboundary, coboundary_matrix, cup, reduce_mod, square,
)

__all__ = ["GradedGroup", "CohomologyClass", "Cohomology", "cohomology"]


@dataclass(frozen=True)
class GradedGroup:
    """One graded piece: free rank, torsion chain, and generator cocycles.

    Generators are ordered free part first, then torsion in increasing order
    of the torsion coefficients (which form a divisibility chain).
    """

    degree: int
    free_rank: int
    torsion: tuple[int, ...]
    basis_cocycles: tuple[Cochain, ...]

    @property
    def n_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def orders(self) -> tuple[int, ...]:
        """Per-generator order; 0 means infinite."""
        return (0,) * self.free_rank + self.torsion

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CohomologyClass:
    """A cohomology class in generator coordinates (torsion coords reduced)."""

    modulus: int
    degree: int
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass
class _DegreeData:
    """A group; a cocycle x has lattice coordinates ``coords @ x / scale``."""

    group: GradedGroup
    coords: np.ndarray                # rows: the kept rows of the coboundary SNF's V^-1
    scale: np.ndarray                 # column: per lattice coordinate, its divisor
    adapt: np.ndarray                 # the relation SNF's U: lattice to adapted coordinates
    gen_cols: list[int]               # adapted coordinates of the generators, in public order


def _divide_rows(y: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Exact quotient of row i of ``y`` by ``scale[i]``."""
    s = scale.astype(y.dtype)
    q = y // s
    if np.any(q * s != y):
        raise ArithmeticError("cochain is not in the cocycle lattice")
    return q


def _scale_rows(mat: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Exact ``factors * mat`` for a column of factors, on Python ints if int64 could wrap."""
    if mat.dtype != object and max_abs(mat) * max_abs(factors) < (1 << 62):
        return factors * mat
    return factors.astype(object) * mat.astype(object)


class Cohomology:
    """All cohomology rings of one complex, with class-level operations."""

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex
        self._delta: dict[int, np.ndarray] = {}
        self._delta_snf: dict[int, SNF] = {}
        self._image: dict[int, np.ndarray] = {}
        self._data: dict[tuple[int, int], _DegreeData] = {}

    # -- raw matrices ------------------------------------------------

    def delta(self, d: int) -> np.ndarray:
        if d not in self._delta:
            self._delta[d] = coboundary_matrix(self.complex, d)
        return self._delta[d]

    def delta_snf(self, d: int) -> SNF:
        """Column-side SNF of the coboundary C^d -> C^{d+1}."""
        if d not in self._delta_snf:
            self._delta_snf[d] = snf_columns(self.delta(d))
        return self._delta_snf[d]

    def image(self, d: int) -> np.ndarray:
        """``V^-1[rank:] delta_{d-1}`` for the coboundary SNF of degree d: the
        coboundaries of (d-1)-cochains in kernel coordinates, and every
        nonzero row of ``V^-1 delta_{d-1}``."""
        if d not in self._image:
            res = self.delta_snf(d)
            self._image[d] = sparse_matmul(res.v_inv[res.rank :], self.delta(d - 1))
        return self._image[d]

    # -- group construction -------------------------------------------

    def _degree_data(self, modulus: int, degree: int) -> _DegreeData:
        key = (modulus, degree)
        if key not in self._data:
            self._data[key] = self._build(modulus, degree)
        return self._data[key]

    def _build(self, modulus: int, degree: int) -> _DegreeData:
        x = self.complex
        n_d = x.n_simplices(degree)
        if n_d == 0:
            empty = np.zeros((0, 0), dtype=np.int64)
            return _DegreeData(GradedGroup(degree, 0, (), ()), empty, empty, empty, [])

        res = self.delta_snf(degree)
        # the relations in lattice coordinates: the coboundaries, and for
        # Z/2^j also 2^j times every cochain
        relations = self.image(degree)
        if modulus == 0:
            # saturated kernel lattice of the coboundary: the last columns of V
            keep = slice(res.rank, None)
            scale = np.ones((n_d - res.rank, 1), dtype=np.int64)
        else:
            # cochains whose coboundary vanishes mod 2^j: every column of V,
            # scaled; the coboundaries have zero coordinates above the rank
            keep = slice(None)
            diagonal = res.diagonal
            scale = np.asarray([[modulus // gcd(diagonal[i], modulus) if i < res.rank else 1] for i in range(n_d)])
            relations = np.concatenate([np.zeros((res.rank, relations.shape[1]), dtype=relations.dtype), relations])
            relations = np.concatenate([relations, _scale_rows(res.v_inv, modulus // scale)], axis=1)
        rel_snf = snf_rows(relations)

        orders = rel_snf.diagonal[: rel_snf.rank] + [0] * (len(scale) - rel_snf.rank)
        if modulus and any(t == 0 or modulus % t for t in orders):
            raise ArithmeticError("mod-2^j group has a generator order not dividing the modulus")

        free_cols = [i for i, t in enumerate(orders) if t == 0]
        tors_cols = [i for i, t in enumerate(orders) if t >= 2]
        tors_cols.sort(key=lambda i: orders[i])
        gen_cols = free_cols + tors_cols

        # generators: the columns of lattice @ U^-1 for the relation SNF's U
        reps = safe_matmul(res.v[:, keep], _scale_rows(rel_snf.u_inv[:, gen_cols], scale))
        group = GradedGroup(
            degree=degree,
            free_rank=len(free_cols),
            torsion=tuple(orders[c] for c in tors_cols),
            basis_cocycles=tuple(Cochain.from_vector(x, degree, modulus, col) for col in reps.T),
        )
        return _DegreeData(group, res.v_inv[keep], scale, rel_snf.u, gen_cols)

    def group(self, modulus: int, degree: int) -> GradedGroup:
        return self._degree_data(modulus, degree).group

    def groups(self, modulus: int) -> list[GradedGroup]:
        return [self.group(modulus, d) for d in range(self.complex.dimension + 1)]

    # -- classes -------------------------------------------------------

    def zero_class(self, modulus: int, degree: int) -> CohomologyClass:
        g = self.group(modulus, degree)
        return CohomologyClass(modulus, degree, (0,) * g.n_generators)

    def basis_classes(self, modulus: int, degree: int) -> list[CohomologyClass]:
        g = self.group(modulus, degree)
        out = []
        for i in range(g.n_generators):
            coords = [0] * g.n_generators
            coords[i] = 1
            out.append(CohomologyClass(modulus, degree, tuple(coords)))
        return out

    def class_of(self, cochain: Cochain) -> CohomologyClass:
        """Coordinates of a cocycle's class; raises if it is not a cocycle."""
        return self.classes_of(cochain.modulus, cochain.degree, [cochain])[0]

    def classes_of(self, modulus: int, degree: int, cochains) -> list[CohomologyClass]:
        """Classes of cocycles of one ring and degree, solved in one product."""
        cochains = list(cochains)
        for c in cochains:
            if c.complex is not self.complex:
                raise ValueError("cochain belongs to a different complex")
            if (c.modulus, c.degree) != (modulus, degree):
                raise ValueError("classes_of needs cochains of one ring and degree")
            if not coboundary(c).is_zero():
                raise ValueError("not a cocycle")
        if not cochains:
            return []
        data = self._degree_data(modulus, degree)
        if data.group.n_generators == 0:
            return [CohomologyClass(modulus, degree, ())] * len(cochains)
        vecs = np.asarray([c.vector() for c in cochains], dtype=object).T
        y = safe_matmul(data.adapt, _divide_rows(safe_matmul(data.coords, vecs), data.scale))[data.gen_cols]
        orders = data.group.orders
        return [
            CohomologyClass(modulus, degree, tuple(int(c) % t if t else int(c) for c, t in zip(col, orders)))
            for col in y.T
        ]

    def representative(self, cls: CohomologyClass) -> Cochain:
        data = self._degree_data(cls.modulus, cls.degree)
        g = data.group
        if len(cls.coords) != g.n_generators:
            raise ValueError("coordinate length mismatch")
        out = Cochain(self.complex, cls.degree, cls.modulus, {})
        for c, rep in zip(cls.coords, g.basis_cocycles):
            if c:
                out = out + rep.scale(int(c))
        return out

    def add(self, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
        if (a.modulus, a.degree) != (b.modulus, b.degree):
            raise ValueError("class addition needs matching ring and degree")
        orders = self.group(a.modulus, a.degree).orders
        coords = tuple(
            (x + y) % t if t else x + y for x, y, t in zip(a.coords, b.coords, orders)
        )
        return CohomologyClass(a.modulus, a.degree, coords)

    # -- operations ------------------------------------------------------

    def cup(self, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
        if a.modulus != b.modulus:
            raise ValueError("cup product needs matching coefficient ring")
        z = cup(self.representative(a), self.representative(b))
        return self.class_of(z)

    def sq(self, k: int, a: CohomologyClass) -> CohomologyClass:
        """Steenrod square on a mod-2 class, via the higher cup products."""
        if a.modulus != 2:
            raise ValueError("Steenrod squares act on mod-2 classes")
        if k < 0:
            raise ValueError("negative Steenrod square")
        p = a.degree
        if k > p:
            return self.zero_class(2, p + k)
        return self.class_of(square(self.representative(a), k))

    def bockstein(self, a: CohomologyClass) -> CohomologyClass:
        """Connecting map H^i(X; Z/2^j) -> H^{i+1}(X; Z): lift, coboundary, divide."""
        if a.modulus < 2:
            raise ValueError("Bockstein acts on mod-2^j classes")
        return self.class_of(bockstein(self.representative(a)))

    def reduce_mod(self, j: int, a: CohomologyClass) -> CohomologyClass:
        """Coefficient reduction H^i(X; Z) -> H^i(X; Z/2^j)."""
        if a.modulus != 0:
            raise ValueError("reduce_mod acts on integral classes")
        if j < 1:
            raise ValueError("modulus exponent must be positive")
        return self.class_of(reduce_mod(self.representative(a), 2 ** j))


def cohomology(x: SimplicialComplex, modulus: int = 0) -> list[GradedGroup]:
    """Cohomology groups of a complex with Z (modulus 0) or Z/2^j coefficients."""
    return Cohomology(x).groups(modulus)


def pullback_cochain(domain: SimplicialComplex, c: Cochain, vertex_map) -> Cochain:
    """Pull a cochain back along the simplicial isomorphism induced by vertex_map.

    ``vertex_map`` sends vertices of ``domain`` to vertices of ``c.complex``;
    the sign of the per-simplex sorting permutation makes this a chain map
    over the integers.
    """
    out: dict[tuple, int] = {}
    target = c.complex
    for sigma in domain.simplices(c.degree):
        image = [vertex_map[v] for v in sigma]
        key = {v: i for i, v in enumerate(image)}
        srt = target.sort_simplex(image)
        perm = [key[v] for v in srt]
        sign = _perm_sign(perm)
        val = c.values.get(tuple(srt), 0)
        if val:
            out[sigma] = sign * val
    return Cochain(domain, c.degree, c.modulus, out)


def _perm_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign

