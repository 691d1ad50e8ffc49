"""Algebraic cohomology models of closed manifolds.

A ``CohomologyModel`` records, for each degree: the integral group (free
rank plus torsion chain), the mod-2 vector space with a named basis, the
coefficient-reduction and Bockstein matrices, the Steenrod-square matrices,
mod-2 product tensors for all degree pairs, and integral product tensors for
the pairs the decision procedure needs.  A ``ManifoldModel`` is a
9-dimensional model together with the optional degree-5 tangential invariant
class and an optional externally supplied degree-8 obstruction coset.

Models are declared data (9-manifolds are not triangulated here);
``validate`` is the trust boundary and reports every violated invariant with
a witness.  Everything is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import f2
from .cohomology import Cohomology
from .intlinalg import _python_ints
from .simplicial import SimplicialComplex, bockstein, cup, reduce_mod, square

if TYPE_CHECKING:
    from .charclasses import SWClasses, WuClasses

__all__ = [
    "F2Class", "ZClass", "GradedPiece", "CohomologyModel", "ManifoldModel",
    "Violation", "ValidationReport", "validate", "build_product",
    "connected_sum", "from_simplicial", "NotClosedManifoldError",
]


class NotClosedManifoldError(ValueError):
    pass


@dataclass(frozen=True)
class F2Class:
    """Mod-2 class in basis coordinates."""

    degree: int
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) & 1 for b in self.bits))

    def is_zero(self) -> bool:
        return not any(self.bits)

    def __add__(self, other: "F2Class") -> "F2Class":
        if self.degree != other.degree or len(self.bits) != len(other.bits):
            raise ValueError("mod-2 class addition needs matching degree")
        return F2Class(self.degree, tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def vec(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.uint8)


@dataclass(frozen=True)
class ZClass:
    """Integral class in generator coordinates (free first, then torsion)."""

    degree: int
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def vec(self) -> np.ndarray:
        return np.asarray([int(c) for c in self.coords], dtype=object)


@dataclass(frozen=True)
class GradedPiece:
    z_rank: int
    z_torsion: tuple[int, ...]
    f2_basis: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "z_torsion", tuple(int(t) for t in self.z_torsion))
        object.__setattr__(self, "f2_basis", tuple(str(s) for s in self.f2_basis))
        for t in self.z_torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(self.z_torsion, self.z_torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")

    @property
    def f2_dim(self) -> int:
        return len(self.f2_basis)

    @property
    def z_gens(self) -> int:
        return self.z_rank + len(self.z_torsion)

    @property
    def z_orders(self) -> tuple[int, ...]:
        return (0,) * self.z_rank + self.z_torsion


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _f2_einsum(spec: str, *operands) -> np.ndarray:
    """An einsum contraction of integer arrays, reduced mod 2."""
    return (np.einsum(spec, *operands, dtype=np.int64) & 1).astype(np.uint8)


def _pull_back(left: np.ndarray, right: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The product tensor t precomposed with two linear maps,
    einsum("px,qy,pqz->xyz", left, right, t) in the operands' arithmetic."""
    p, q, z = t.shape
    return right.T @ (left.T @ t.reshape(p, q * z)).reshape(left.shape[1], q, z)


def _reduce_rows(a, orders: tuple, axis: int = 0) -> np.ndarray:
    """Exact copy in Python ints, reduced modulo orders[r] at index r of the
    axis; the free generators (order 0) come first, as in ``z_orders``."""
    out = _python_ints(np.asarray(a, dtype=object))
    rank = orders.count(0)
    if rank < len(orders):
        torsion = (slice(None),) * axis + (slice(rank, None),)
        out[torsion] %= np.array(orders[rank:], dtype=object).reshape((-1,) + (1,) * (out.ndim - 1 - axis))
    return out


class CohomologyModel:
    """Graded cohomology data of a closed n-manifold; immutable."""

    def __init__(
        self,
        dimension: int,
        pieces,
        rho2,
        beta,
        sq,
        cup2,
        cup_int=None,
        orientable: bool = True,
        label: str = "",
    ):
        self.dimension = int(dimension)
        self.pieces: tuple[GradedPiece, ...] = tuple(pieces)
        if len(self.pieces) != self.dimension + 1:
            raise ValueError("need one graded piece per degree 0..n")
        self.label = label
        self.orientable = bool(orientable)
        self._f2_dims = tuple(p.f2_dim for p in self.pieces)
        self._z_gens = tuple(p.z_gens for p in self.pieces)
        self._z_orders = tuple(p.z_orders for p in self.pieces)

        self.rho2 = tuple(
            _freeze(np.asarray(m, dtype=np.uint8).reshape(self.f2_dim(i), self.z_gens(i)))
            for i, m in enumerate(rho2)
        )
        bs = []
        for i, m in enumerate(beta):
            tgt = self.z_gens(i + 1) if i + 1 <= self.dimension else 0
            bs.append(_freeze(np.asarray(m, dtype=np.int64).reshape(tgt, self.f2_dim(i))))
        if len(bs) != self.dimension + 1:
            raise ValueError("need one Bockstein matrix per degree")
        self.beta = tuple(bs)

        self.sq: dict[tuple[int, int], np.ndarray] = {}
        for (k, i), m in dict(sq).items():
            tgt = self.f2_dim(i + k) if i + k <= self.dimension else 0
            mm = _freeze(np.asarray(m, dtype=np.uint8).reshape(tgt, self.f2_dim(i)))
            if mm.any():
                self.sq[(int(k), int(i))] = mm

        # a product past the top has no coordinates, so no tensor is kept for it
        self.cup2: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), t in dict(cup2).items():
            tt = _freeze(np.asarray(t, dtype=np.uint8).reshape(self.f2_dim(i), self.f2_dim(j), self.f2_dim(i + j)))
            if i + j <= self.dimension:
                self.cup2[(int(i), int(j))] = tt

        self.cup_int: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), t in dict(cup_int or {}).items():
            src = np.asarray(t, dtype=object).reshape(self.z_gens(i), self.z_gens(j), self.z_gens(i + j))
            if i + j <= self.dimension:
                self.cup_int[(int(i), int(j))] = _freeze(_reduce_rows(src, self.z_orders(i + j), axis=2))

    # -- shapes ---------------------------------------------------------

    def piece(self, i: int) -> GradedPiece:
        if 0 <= i <= self.dimension:
            return self.pieces[i]
        return GradedPiece(0, (), ())

    def f2_dim(self, i: int) -> int:
        return self._f2_dims[i] if 0 <= i <= self.dimension else 0

    def z_gens(self, i: int) -> int:
        return self._z_gens[i] if 0 <= i <= self.dimension else 0

    def z_orders(self, i: int) -> tuple[int, ...]:
        return self._z_orders[i] if 0 <= i <= self.dimension else ()

    # -- class constructors ----------------------------------------------

    def zero_f2(self, i: int) -> F2Class:
        return F2Class(i, (0,) * self.f2_dim(i))

    def zero_z(self, i: int) -> ZClass:
        return ZClass(i, (0,) * self.z_gens(i))

    def f2(self, i: int, bits) -> F2Class:
        bits = tuple(int(b) & 1 for b in bits)
        if len(bits) != self.f2_dim(i):
            raise ValueError("coordinate length mismatch")
        return F2Class(i, bits)

    def z(self, i: int, coords) -> ZClass:
        orders = self.z_orders(i)
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(orders):
            raise ValueError("coordinate length mismatch")
        return ZClass(i, tuple(c % o if o else c for c, o in zip(coords, orders)))

    def basis_f2(self, i: int) -> list[F2Class]:
        d = self.f2_dim(i)
        return [F2Class(i, tuple(1 if k == j else 0 for k in range(d))) for j in range(d)]

    def basis_z(self, i: int) -> list[ZClass]:
        d = self.z_gens(i)
        return [self.z(i, [1 if k == j else 0 for k in range(d)]) for j in range(d)]

    # -- operation tensors --------------------------------------------------

    def sq_matrix(self, k: int, i: int) -> np.ndarray:
        """Matrix of Sq^k from degree i to degree i + k.

        Sq^0 is the identity whatever is stored; k > i, i + k > n and an
        absent entry give the zero matrix.
        """
        if k == 0:
            return f2.eye(self.f2_dim(i))
        m = self.sq.get((k, i)) if k <= i and i + k <= self.dimension else None
        return f2.zeros(self.f2_dim(i + k), self.f2_dim(i)) if m is None else m & 1

    def cup_tensor(self, i: int, j: int) -> np.ndarray:
        """Mod-2 product tensor of degrees (i, j), indexed [left, right, product].

        i + j > n or a zero dimension gives the zero tensor; a missing tensor
        between nonzero dimensions raises ``KeyError``.
        """
        t = self.cup2.get((i, j))
        if t is not None:
            return t & 1
        shape = (self.f2_dim(i), self.f2_dim(j), self.f2_dim(i + j))
        if all(shape):
            raise KeyError(f"mod-2 product tensor ({i},{j}) missing")
        return np.zeros(shape, dtype=np.uint8)

    # -- operations -------------------------------------------------------

    def cup(self, a: F2Class, b: F2Class) -> F2Class:
        out = _f2_einsum("x,y,xyz->z", a.vec(), b.vec(), self.cup_tensor(a.degree, b.degree))
        return F2Class(a.degree + b.degree, tuple(int(v) for v in out))

    def has_cup_z(self, i: int, j: int) -> bool:
        """Whether ``cup_z`` multiplies degrees i and j: the integral product
        tensor is declared, or every product is zero for want of generators."""
        return (i, j) in self.cup_int or i + j > self.dimension or not (
            self.z_gens(i) and self.z_gens(j) and self.z_gens(i + j)
        )

    def cup_z(self, a: ZClass, b: ZClass) -> ZClass:
        i, j = a.degree, b.degree
        if not self.has_cup_z(i, j):
            raise KeyError(f"integral product tensor ({i},{j}) missing")
        t = self.cup_int.get((i, j))
        if t is None:
            return self.zero_z(i + j)
        return self.z(i + j, np.einsum("x,y,xyc->c", a.vec(), b.vec(), t))

    def sq_map(self, k: int, a: F2Class) -> F2Class:
        if k < 0:
            raise ValueError("negative Steenrod square")
        out = f2.mat_vec(self.sq_matrix(k, a.degree), a.vec())
        return F2Class(a.degree + k, tuple(int(v) for v in out))

    def rho2_map(self, a: ZClass) -> F2Class:
        m = self.rho2[a.degree] if a.degree <= self.dimension else None
        if m is None or m.size == 0:
            return self.zero_f2(a.degree)
        return F2Class(a.degree, tuple(int(v) for v in f2.mat_vec(m, [c & 1 for c in a.coords])))

    def beta_map(self, a: F2Class) -> ZClass:
        i = a.degree
        if i > self.dimension or i + 1 > self.dimension:
            return self.zero_z(i + 1)
        return self.z(i + 1, self.beta[i].astype(object).dot(a.vec().astype(object)))

    # -- evaluation against the fundamental class --------------------------

    def eval_top(self, a: F2Class) -> int:
        if a.degree != self.dimension:
            raise ValueError("only top-degree classes pair with the fundamental class")
        if self.f2_dim(self.dimension) != 1:
            raise ValueError("top mod-2 group is not one-dimensional")
        return int(a.bits[0])

    def pair(self, a: F2Class, b: F2Class) -> int:
        return self.eval_top(self.cup(a, b))

    def pairing_matrix(self, i: int) -> np.ndarray:
        """<a b, [M]> for the basis classes a of degree i and b of degree n - i."""
        if self.f2_dim(self.dimension) != 1:
            raise ValueError("top mod-2 group is not one-dimensional")
        return self.cup_tensor(i, self.dimension - i)[:, :, 0]

    # -- comparisons -------------------------------------------------------

    def differences(self, other: "CohomologyModel"):
        """The tables in which another model of this dimension differs, as
        (family, key) pairs: per degree d, ("sq", (k, d)) for k ascending,
        ("beta", d) modulo the generator orders and ("rho2", d); then
        ("cup2", (i, j)) and ("cup_int", (i, j)) by pair.  A product tensor
        declared on one side only is ("cup2 missing", (i, j)) or
        ("cup_int missing", (i, j)); a square left out is zero."""

        def tables(family: str, degree=None):
            mine, theirs = getattr(self, family), getattr(other, family)
            for key in sorted(mine.keys() | theirs.keys()):
                if degree not in (None, key[1]):
                    continue
                if family != "sq" and (key not in mine or key not in theirs):
                    yield family + " missing", key
                elif not np.array_equal(mine.get(key), theirs.get(key)):
                    yield family, key

        for d in range(self.dimension + 1):
            yield from tables("sq", d)
            if not np.array_equal(*(_reduce_rows(m.beta[d], m.z_orders(d + 1)) for m in (self, other))):
                yield "beta", d
            if not np.array_equal(self.rho2[d], other.rho2[d]):
                yield "rho2", d
        yield from tables("cup2")
        yield from tables("cup_int")

    def equals(self, other: "CohomologyModel") -> bool:
        return (
            isinstance(other, CohomologyModel)
            and (self.dimension, self.orientable, self.pieces) == (other.dimension, other.orientable, other.pieces)
            and next(self.differences(other), None) is None
        )

    def __repr__(self):
        return f"CohomologyModel({self.label or 'unnamed'}, dim {self.dimension})"


@dataclass(frozen=True)
class ManifoldModel:
    """A 9-dimensional cohomology model plus the optional extra decision data."""

    cohomology: CohomologyModel
    phi_hat: F2Class | None = None
    omega_pc: F2Class | None = None
    label: str = ""

    def __post_init__(self):
        if self.cohomology.dimension != 9:
            raise ValueError("manifold models are 9-dimensional")

    @property
    def m(self) -> CohomologyModel:
        return self.cohomology

    def __repr__(self):
        return f"ManifoldModel({self.label or self.cohomology.label or 'unnamed'})"


def _cohomology(model) -> CohomologyModel:
    """The cohomology model of a manifold model, or the model itself."""
    return model.cohomology if isinstance(model, ManifoldModel) else model


# -- validation ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    check: str
    degree: int | None
    detail: str

    def __str__(self):
        at = f" [degree {self.degree}]" if self.degree is not None else ""
        return f"{self.check}{at}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    wu: WuClasses | None = None  # the Wu classes, once the nine-manifold check has solved them
    sw: SWClasses | None = None  # the Stiefel-Whitney classes, with W3 and W7, that it derived from them

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, degree, detail: str):
        self.violations.append(Violation(check, degree, detail))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def _structural_checks(m: CohomologyModel, rep: ValidationReport):
    n = m.dimension
    # Bockstein matrices must land in the 2-torsion part: twice each value is
    # zero modulo its generator's order (order 0 for a free generator)
    for i, beta in enumerate(m.beta):
        if not beta.any():
            continue
        orders = m.z_orders(i + 1)
        b = _reduce_rows(beta, orders)
        for c, j in zip(*np.nonzero(_reduce_rows(2 * b, orders) != 0)):
            if orders[c] == 0:
                rep.add("bockstein_torsion_valued", i, f"beta hits free generator {c}")
            else:
                rep.add("bockstein_two_torsion", i, f"beta value {b[c, j]} not killed by 2 in Z/{orders[c]}")
    if m.piece(0).z_rank != 1 or m.piece(0).z_torsion or m.f2_dim(0) != 1:
        rep.add("unit_degree", 0, "H^0 must be Z with one mod-2 generator")
    else:
        if not np.array_equal(m.rho2[0], np.array([[1]], dtype=np.uint8)):
            rep.add("unit_reduction", 0, "reduction of the integral unit is not the mod-2 unit")
    if m.f2_dim(n) != 1:
        rep.add("top_degree", n, "top mod-2 group must be one-dimensional")
    if m.orientable and (m.piece(n).z_rank != 1 or m.piece(n).z_torsion):
        rep.add("orientation", n, "orientable model needs H^n = Z")
    if m.orientable and m.f2_dim(n) == 1 and m.piece(n).z_rank == 1 and not m.piece(n).z_torsion:
        if not np.array_equal(m.rho2[n], np.array([[1]], dtype=np.uint8)):
            rep.add("orientation_reduction", n, "mod-2 reduction of the orientation class is not the mod-2 fundamental class")
    # unit action: the unit's slice of every product tensor with it is the identity
    if m.f2_dim(0) == 1:
        for j in range(n + 1):
            eye = f2.eye(m.f2_dim(j))
            bad = np.zeros((m.f2_dim(j), 2), dtype=bool)
            if (0, j) in m.cup2:
                bad[:, 0] = (m.cup_tensor(0, j)[0] != eye).any(axis=1)
            if (j, 0) in m.cup2:
                bad[:, 1] = (m.cup_tensor(j, 0)[:, 0] != eye).any(axis=1)
            for _e, side in np.argwhere(bad):
                rep.add("unit_action", j, f"unit does not act as identity on the {('left', 'right')[side]}")
    # required tensors present
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if m.f2_dim(i) and m.f2_dim(j) and m.f2_dim(i + j) and (i, j) not in m.cup2:
                rep.add("product_tensor_missing", i, f"mod-2 tensor ({i},{j}) absent")


def _operation_checks(m: CohomologyModel, rep: ValidationReport):
    n = m.dimension
    # Sq^0 = id is implicit; stored k=0 matrices must be the identity
    for (k, i), mat in m.sq.items():
        if k == 0 and not np.array_equal(mat, f2.eye(m.f2_dim(i))):
            rep.add("sq0_identity", i, "stored Sq^0 is not the identity")
        if k > i and mat.any():
            rep.add("sq_above_degree", i, f"Sq^{k} nonzero on degree {i}")
    # the mod-2 tables over the bases of all degrees; an absent product
    # tensor reads as zero (``_structural_checks`` reports it).  Products of
    # them are int64 sums of at most N^2 terms 0 or 1 over N basis elements,
    # so they cannot wrap.
    at = _offsets(m._f2_dims)
    sq = _total_square(m).astype(np.int64)
    cup = _whole((at,) * 3, {(i, j, i + j): t & 1 for (i, j), t in m.cup2.items()}, np.uint8)
    degree = np.arange(n + 1) == np.repeat(np.arange(n + 1), np.diff(at))[:, None]
    span = [slice(at[d], at[d + 1]) for d in range(n + 1)]
    # Sq^i x = x x: the columns of Sq^i against the diagonal of the (i, i) tensor
    for i in range(n // 2 + 1):
        x, xx = span[i], span[2 * i]
        for _ in np.flatnonzero((sq[xx, x].T != cup[x, x, xx].diagonal().T).any(axis=1)):
            rep.add("sq_top_is_square", i, f"Sq^{i} != cup square on basis element")
    # Cartan formula Sq(ab) = Sq(a) Sq(b), once per pair of degrees (i, j):
    # the product pushed along the total square against the product of the
    # squares; its residual in degree i + j + k is the formula for Sq^k
    for (i, j) in sorted(m.cup2):
        top = min(i + j, n - i - j)  # the largest k with Sq^k on degree i + j
        if not (m.f2_dim(i) and m.f2_dim(j) and top > 0):
            continue
        x, y, xy = span[i], span[j], span[i + j]
        z = slice(at[i + j + 1], at[i + j + top + 1])
        # Sq^s a and Sq^t b reach the degrees up to i + s and j + t, s + t <= top
        p, q = (slice(at[d], at[d + min(d, top) + 1]) for d in (i, j))
        residual = (cup[x, y, xy] @ sq[z, xy].T ^ _pull_back(sq[p, x], sq[q, y], cup[p, q, z])) & 1
        for k in (residual @ degree[z, i + j + 1:i + j + top + 1]).nonzero()[2]:
            rep.add("cartan", i + j, f"Sq^{k + 1} on product of degrees ({i},{j})")
    # beta rho2 = 0 on integral generators and rho2 beta = Sq^1 on mod-2 ones
    for i in range(n + 1):
        beta = _reduce_rows(m.beta[i], m.z_orders(i + 1))
        beta_rho2 = _reduce_rows(beta.dot((m.rho2[i] & 1).astype(object)), m.z_orders(i + 1))
        for _ in np.flatnonzero((beta_rho2 != 0).any(axis=0)):
            rep.add("beta_rho2", i, "beta of an integral reduction is nonzero")
        if i < n:
            lhs = _f2_einsum("rc,cj->rj", m.rho2[i + 1], (beta & 1).astype(np.int64))
            for _ in np.flatnonzero((lhs != m.sq_matrix(1, i)).any(axis=0)):
                rep.add("rho2_beta_sq1", i, "reduction of the Bockstein differs from Sq^1")


def _ring_checks(m: CohomologyModel, rep: ValidationReport):
    n = m.dimension
    for (i, j) in sorted(m.cup2):
        if i <= j and (j, i) in m.cup2:
            bad = (m.cup_tensor(i, j) != m.cup_tensor(j, i).transpose(1, 0, 2)).any(axis=2)
            for _ in np.flatnonzero(bad):
                rep.add("commutativity", i + j, f"mod-2 products ({i},{j}) vs ({j},{i}) differ")
    # associativity (ab)c = a(bc), two contractions per triple of degrees
    # over the product tensors, absent ones zero
    f = m._f2_dims
    cup = {
        (i, j): (m.cup2[i, j] & 1).astype(np.int64) if (i, j) in m.cup2 else np.zeros((f[i], f[j], f[i + j]), np.int64)
        for i in range(n + 1) for j in range(n + 1 - i)
    }
    pairs = {(i, j): t.reshape(f[i] * f[j], f[i + j]) for (i, j), t in cup.items()}
    rows = {(i, j): t.reshape(f[i], f[j] * f[i + j]) for (i, j), t in cup.items()}
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            for k in range(1, n + 1 - i - j):
                if not (f[i] and f[j] and f[k] and f[i + j + k]):
                    continue
                left = (pairs[i, j] @ rows[i + j, k]).reshape(f[i], f[j] * f[k], -1)
                residual = (left ^ pairs[j, k] @ cup[i, j + k]) & 1
                for _ in np.flatnonzero(residual.any(axis=2)):
                    rep.add("associativity", i + j + k, f"degrees ({i},{j},{k})")
    # integral tensors reduce to the mod-2 tensors
    for (i, j), t in sorted(m.cup_int.items()):
        if (i, j) not in m.cup2:
            continue
        lhs = (t & 1).astype(np.int64) @ m.rho2[i + j].T
        rhs = _pull_back(m.rho2[i].astype(np.int64), m.rho2[j], m.cup2[i, j])
        for x, y in zip(*((lhs ^ rhs) & 1).any(axis=2).nonzero()):
            rep.add("integral_product_reduction", i + j, f"pair ({i},{j}) generators ({x},{y})")


def _pairing_checks(m: CohomologyModel, rep: ValidationReport):
    n = m.dimension
    if m.f2_dim(n) != 1:
        return
    for i in range(n + 1):
        if m.f2_dim(i) != m.f2_dim(n - i):
            rep.add("poincare_pairing", i, f"mod-2 dimensions {m.f2_dim(i)} vs {m.f2_dim(n - i)} differ")
            continue
        if m.f2_dim(i) == 0:
            continue
        if (i, n - i) not in m.cup2:
            rep.add("poincare_pairing", i, "pairing tensor missing")
            continue
        mat = m.pairing_matrix(i)
        if f2.rank(mat) != m.f2_dim(i):
            rep.add("poincare_pairing", i, "mod-2 intersection pairing is degenerate")


def validate(model) -> ValidationReport:
    """Check every structural invariant; returns a report (empty iff valid)."""
    m = _cohomology(model)
    rep = ValidationReport()
    _structural_checks(m, rep)
    _operation_checks(m, rep)
    _ring_checks(m, rep)
    _pairing_checks(m, rep)

    if isinstance(model, ManifoldModel):
        if model.phi_hat is not None:
            if model.phi_hat.degree != 5 or len(model.phi_hat.bits) != m.f2_dim(5):
                rep.add("phi_hat", 5, "tangential invariant class malformed")
        if model.omega_pc is not None:
            if model.omega_pc.degree != 8 or len(model.omega_pc.bits) != m.f2_dim(8):
                rep.add("omega_pc", 8, "supplied obstruction coset representative malformed")

    if rep.ok and m.dimension == 9 and m.orientable:
        _nine_manifold_checks(m, rep)
    return rep


def _nine_manifold_checks(m: CohomologyModel, rep: ValidationReport):
    """Wu-formula consequences for orientable 9-manifolds, and the extra
    Stiefel-Whitney relations that hold once the degree-3 integral class
    vanishes."""
    from .charclasses import characteristic_classes

    rep.wu, rep.sw, broken = characteristic_classes(m)
    rep.violations += broken


# -- builders ---------------------------------------------------------------


def _push(m: CohomologyModel, F, G, Z, H, units: bool = True):
    """Every operation tensor of m carried along per-degree linear maps.

    ``F[d]`` sends mod-2 coordinates of degree d forward and ``G[d]`` brings
    them back; ``Z[d]`` and ``H[d]`` do the same for integral coordinates.
    Returns (rho2, beta, sq, cup2, cup_int): F rho2 H, F Sq G and the mod-2
    products mod 2; Z beta G and the integral products in exact integers,
    not reduced modulo the generator orders.  Without ``units`` the product
    tensors of the pairs (0, j) and (j, 0) are left out.
    """
    n = m.dimension
    F, G = ([np.asarray(x[d], dtype=np.int64) for d in range(n + 1)] for x in (F, G))
    Z, H = ([np.asarray(x[d], dtype=object) for d in range(n + 1)] for x in (Z, H))
    rho2 = [_f2_einsum("ab,bc,cd->ad", F[d], m.rho2[d], (H[d] % 2).astype(np.int64)) for d in range(n + 1)]
    beta = [Z[d + 1].dot(m.beta[d].astype(object)).dot(G[d].astype(object)) for d in range(n)]
    beta.append(np.zeros((0, G[n].shape[1]), dtype=object))
    sq = {(k, d): _f2_einsum("ab,bc,cd->ad", F[d + k], t, G[d]) for (k, d), t in m.sq.items()}
    cup2 = {(i, j): _pull_back(G[i], G[j], t) @ F[i + j].T & 1 for (i, j), t in m.cup2.items() if units or (i and j)}
    cup_int = {(i, j): _pull_back(H[i], H[j], t) @ Z[i + j].T for (i, j), t in m.cup_int.items() if units or (i and j)}
    return rho2, beta, sq, cup2, cup_int


def _offsets(sizes) -> np.ndarray:
    """Where each degree starts in a basis of all degrees, and its end."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def _whole(offsets, blocks: dict, dtype) -> np.ndarray:
    """A graded table as one array over the bases of all degrees: the block
    ``blocks[(d_1, d_2, ...)]`` sits at degree d_k of axis k, whose degrees
    start at ``offsets[k]``; every other block is zero."""
    out = np.zeros(tuple(int(o[-1]) for o in offsets), dtype=dtype)
    for degrees, block in blocks.items():
        out[tuple(slice(o[d], o[d + 1]) for o, d in zip(offsets, degrees))] = block
    return out


def _total_square(m: CohomologyModel) -> np.ndarray:
    """The total square Sq = Sq^0 + Sq^1 + ... as one matrix over the mod-2
    bases of all degrees, in order of degree."""
    at = _offsets(m._f2_dims)
    squares = [(0, d) for d in range(m.dimension + 1)] + [(k, d) for k, d in m.sq if 0 < k <= d]
    return _whole((at, at), {(d + k, d): m.sq_matrix(k, d) for k, d in squares}, np.uint8)


def _tensor_model(a: CohomologyModel, b: CohomologyModel, label: str = "") -> CohomologyModel:
    """Graded tensor product of models; requires the second factor torsion-free
    so that the integral cross-product map is a ring isomorphism in every degree.

    Each table family of a factor is laid out as one array over its bases of
    all degrees, and the product's table is the Kronecker product of the two
    factors' arrays: its entry at the pairs (u1, v1), (u2, v2), ... of basis
    elements is ta[u1, u2, ...] * tb[v1, v2, ...].  The product basis is the
    pairs (u, v) in Kronecker (u-major) order stably sorted by total degree:
    degree d holds one block per pair of degrees (i, j) with i + j = d, in
    order of i, each in Kronecker order.  The integral generators of each
    degree are then stably sorted by order, free first.  Each block of the
    product's tables is read from the factors' arrays at the pairs of its
    degrees, so no Kronecker product larger than the block is formed.  Block
    (d + k, d) of the total squares is the Cartan sum for Sq^k, since each
    source and target pair of degree pairs has one (s, t); the integral
    products carry the sign (-1)^(j1 i2).
    """
    if any(b.piece(j).z_torsion for j in range(b.dimension + 1)):
        raise ValueError("second tensor factor must be torsion-free")
    n = a.dimension + b.dimension
    fa, fb, za, zb = (
        _offsets([size(d) for d in range(m.dimension + 1)])
        for m, size in ((a, a.f2_dim), (b, b.f2_dim), (a, a.z_gens), (b, b.z_gens))
    )
    # a pair is as free as its first generator
    orders_a = np.array([o for i in range(a.dimension + 1) for o in a.z_orders(i)], dtype=np.int64)

    def basis(at_a, at_b, orders=None):
        """The product basis of each degree as the index arrays (u, v) of its
        pairs in the factors' bases."""
        deg_a, deg_b = (np.repeat(np.arange(len(at) - 1), np.diff(at)) for at in (at_a, at_b))
        total = np.add.outer(deg_a, deg_b).ravel()
        perm = np.lexsort((total,) if orders is None else (np.repeat(orders, len(deg_b)), total))
        cuts = np.cumsum(np.bincount(total, minlength=n + 1))[:-1]
        return [np.divmod(p, len(deg_b)) for p in np.split(perm, cuts)]

    def block(ta, tb, rows, cols, depth=None):
        """The block of the Kronecker product of ta and tb whose axes run over
        the given bases: a matrix, or a tensor if ``depth`` is given."""
        (u1, v1), (u2, v2) = rows, cols
        if depth is None:
            return ta[u1[:, None], u2] * tb[v1[:, None], v2]
        u3, v3 = depth
        return ta[u1[:, None, None], u2[:, None], u3] * tb[v1[:, None, None], v2[:, None], v3]

    F, Z = basis(fa, fb), basis(za, zb, orders_a)
    names_a = [x for i in range(a.dimension + 1) for x in a.piece(i).f2_basis]
    names_b = [y for j in range(b.dimension + 1) for y in b.piece(j).f2_basis]
    pieces = []
    for (fu, fv), (zu, _) in zip(F, Z):
        o = orders_a[zu]
        names = (
            names_b[v] if u < fa[1] else names_a[u] if v < fb[1] else f"{names_a[u]}*{names_b[v]}"
            for u, v in zip(fu, fv)
        )
        pieces.append(GradedPiece(int((o == 0).sum()), tuple(o[o > 0].tolist()), tuple(names)))

    rho2_a = _whole((fa, za), {(d, d): a.rho2[d] for d in range(a.dimension + 1)}, np.uint8)
    rho2_b = _whole((fb, zb), {(j, j): b.rho2[j] for j in range(b.dimension + 1)}, np.uint8)
    # beta(u x v) = beta(u) x vZ where vZ is the integral class reducing to v
    # (second factor torsion-free, so its reduction is invertible)
    beta_a = _whole((za, fa), {(d + 1, d): a.beta[d] for d in range(a.dimension)}, np.int64)
    beta_b = _whole((zb, fb), {(j, j): f2.inverse(b.rho2[j]) for j in range(b.dimension + 1) if b.f2_dim(j)}, np.int64)
    sq_a, sq_b = _total_square(a), _total_square(b)
    cup2_a, cup2_b = (
        _whole((at,) * 3, {
            (i, j, i + j): m.cup_tensor(i, j) for i in range(m.dimension + 1) for j in range(m.dimension + 1 - i)
        }, np.uint8)
        for m, at in ((a, fa), (b, fb))
    )
    int_a, int_b = (
        _whole((at,) * 3, {(i, j, i + j): t for (i, j), t in m.cup_int.items()}, object)
        for m, at in ((a, za), (b, zb))
    )
    # (-1)^(j1 i2): the left generator's degree in b times the right one's in a
    odd_b, odd_a = (np.repeat(np.arange(len(at) - 1) % 2, np.diff(at)) for at in (zb, za))

    def products(B):
        """The degree pairs (i, j) whose product block is not empty in basis B."""
        return [(i, j) for i in range(n + 1) for j in range(n + 1 - i) if all(len(B[d][0]) for d in (i, j, i + j))]

    return CohomologyModel(
        dimension=n,
        pieces=pieces,
        rho2=[block(rho2_a, rho2_b, F[d], Z[d]) for d in range(n + 1)],
        beta=[block(beta_a, beta_b, Z[d + 1], F[d]) for d in range(n)] + [np.zeros((0, len(F[n][0])), dtype=np.int64)],
        sq={(k, d): block(sq_a, sq_b, F[d + k], F[d]) for d in range(n + 1) for k in range(1, min(d, n - d) + 1)},
        cup2={(i, j): block(cup2_a, cup2_b, F[i], F[j], F[i + j]) for i, j in products(F)},
        cup_int={
            (i, j): block(int_a, int_b, Z[i], Z[j], Z[i + j]) * (1 - 2 * np.outer(odd_b[Z[i][1]], odd_a[Z[j][0]]))[..., None]
            for i, j in products(Z)
        },
        orientable=a.orientable and b.orientable,
        label=label or f"{a.label}x{b.label}",
    )


def build_product(a: CohomologyModel, b: CohomologyModel) -> CohomologyModel:
    """Cartesian-product model for torsion-free factors (cross-product rules);
    ``_tensor_model`` rejects a second factor with torsion."""
    if any(a.piece(i).z_torsion for i in range(a.dimension + 1)):
        raise ValueError("first factor has torsion; the product builder requires torsion-free factors")
    return _tensor_model(a, b)


def connected_sum(a, b):
    """Connected sum of two oriented n-manifold models, n >= 2: middle degrees
    direct-sum, one fused unit and one fused orientation, cross products
    vanishing.  Two ``ManifoldModel``s give a ``ManifoldModel`` and two
    ``CohomologyModel``s of one dimension a ``CohomologyModel``.

    Each summand's tables are pushed along its inclusion into the sum and the
    two images added.  In the middle degrees the sum's basis is a's then b's,
    with the integral generators stably sorted free-first.
    """
    manifold = isinstance(a, ManifoldModel)
    if manifold != isinstance(b, ManifoldModel):
        raise TypeError("connected sum needs two manifold models or two cohomology models")
    ma, mb = _cohomology(a), _cohomology(b)
    if ma.dimension != mb.dimension or ma.dimension < 2:
        raise ValueError("connected sum needs two models of one dimension n >= 2")
    if not (ma.orientable and mb.orientable):
        raise ValueError("connected sum needs orientable models")
    n = ma.dimension

    pieces = []
    fa, fb, za, zb = [], [], [], []  # inclusions of a and of b, mod 2 and integral
    for d in range(n + 1):
        if d in (0, n):
            pieces.append(GradedPiece(1, (), ("1",) if d == 0 else ("top",)))
            for maps, k in ((fa, ma.f2_dim(d)), (fb, mb.f2_dim(d)), (za, ma.z_gens(d)), (zb, mb.z_gens(d))):
                maps.append(np.ones((1, k), dtype=np.int64))
            continue
        e = np.eye(ma.f2_dim(d) + mb.f2_dim(d), dtype=np.int64)
        fa.append(e[:, :ma.f2_dim(d)])
        fb.append(e[:, ma.f2_dim(d):])
        orders = np.array(ma.z_orders(d) + mb.z_orders(d), dtype=np.int64)
        order = np.argsort(orders, kind="stable")
        e = np.eye(len(orders), dtype=np.int64)[order]
        za.append(e[:, :ma.z_gens(d)])
        zb.append(e[:, ma.z_gens(d):])
        names = tuple(f"{s}@a" for s in ma.piece(d).f2_basis) + tuple(f"{s}@b" for s in mb.piece(d).f2_basis)
        torsion = orders[order][orders[order] > 0]
        pieces.append(GradedPiece(len(orders) - len(torsion), tuple(torsion.tolist()), names))
    (rho2_a, beta_a, sq, cup2_a, int_a), (rho2_b, beta_b, sq_b, cup2_b, int_b) = (
        _push(m, f, [x.T for x in f], z, [x.T for x in z], units=False) for m, f, z in ((ma, fa, za), (mb, fb, zb))
    )

    # both factor units/orientations map to the single fused generator
    rho2 = [np.ones((1, 1), dtype=np.uint8) if d in (0, n) else rho2_a[d] ^ rho2_b[d] for d in range(n + 1)]
    beta = [x + y for x, y in zip(beta_a, beta_b)]
    beta[0] = np.zeros_like(beta[0])
    for key, t in sq_b.items():
        sq[key] = sq[key] ^ t if key in sq else t

    # products: unit pairs act as the identity (so their images are not
    # carried); other pairs add the summands' images, which are disjoint
    # (cross products between the summands vanish, products into the top
    # degree land on the fused orientation class)
    def unit_or_sum(i, j, shape, tables, dtype):
        if i == 0:
            return np.eye(shape[1], dtype=dtype)[None]
        if j == 0:
            return np.eye(shape[0], dtype=dtype)[:, None]
        return sum((t[(i, j)] for t in tables if (i, j) in t), np.zeros(shape, dtype=dtype))

    cup2, cup_int = {}, {}
    f2_dims, z_dims = [p.f2_dim for p in pieces], [p.z_gens for p in pieces]
    for i in range(n + 1):
        for j in range(n + 1 - i):
            shape = (f2_dims[i], f2_dims[j], f2_dims[i + j])
            if all(shape):
                cup2[(i, j)] = unit_or_sum(i, j, shape, (cup2_a, cup2_b), np.uint8)
            shape = (z_dims[i], z_dims[j], z_dims[i + j])
            # a summand with classes in all three degrees but no integral
            # tensor cannot be assembled honestly
            if all(shape) and ((i, j) in ma.cup_int or (i, j) in mb.cup_int) and all(
                m.has_cup_z(i, j) for m in (ma, mb)
            ):
                cup_int[(i, j)] = unit_or_sum(i, j, shape, (int_a, int_b), object)

    label = f"{a.label or ma.label}#{b.label or mb.label}"
    summed = CohomologyModel(
        dimension=n, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=True, label=label,
    )
    if not manifold:
        return summed

    def joined(x, y, d):
        if x is None or y is None:
            return None
        return summed.f2(d, f2.mat_vec(fa[d], x.vec()) ^ f2.mat_vec(fb[d], y.vec()))

    return ManifoldModel(
        summed, phi_hat=joined(a.phi_hat, b.phi_hat, 5), omega_pc=joined(a.omega_pc, b.omega_pc, 8), label=label,
    )


def from_simplicial(x: SimplicialComplex, label: str = "") -> CohomologyModel:
    """Compute the full operation tables of a triangulated closed manifold.

    The closed-manifold property is checked a posteriori: the mod-2
    intersection pairing must be nondegenerate with one-dimensional top group.
    The mod-2 Betti numbers are checked against the Euler characteristic
    counted from the simplices; a mismatch is an engine fault.
    """
    coh = Cohomology(x)
    n = x.dimension
    pieces = []
    for d in range(n + 1):
        gz = coh.group(0, d)
        g2 = coh.group(2, d)
        pieces.append(
            GradedPiece(
                z_rank=gz.free_rank,
                z_torsion=gz.torsion,
                f2_basis=tuple(f"e{d}_{k}" for k in range(len(g2.torsion))),
            )
        )
    if x.euler_characteristic() != sum((-1) ** d * p.f2_dim for d, p in enumerate(pieces)):
        raise ArithmeticError("mod-2 Betti numbers disagree with the Euler characteristic")

    # Every table entry is the class of one cocycle.  Queue the cocycles by
    # target (ring, degree), solve each target once, then slice the tables out.
    zreps = [coh.group(0, d).basis_cocycles for d in range(n + 1)]
    f2reps = [coh.group(2, d).basis_cocycles for d in range(n + 1)]
    queued: dict[tuple[int, int], list] = {}

    def queue(modulus: int, degree: int, cochains: list) -> tuple:
        batch = queued.setdefault((modulus, degree), [])
        batch.extend(cochains)
        return (modulus, degree), slice(len(batch) - len(cochains), len(batch))

    rho2_q = [queue(2, d, [reduce_mod(z, 2) for z in zreps[d]]) for d in range(n + 1)]
    beta_q = {d: queue(0, d + 1, [bockstein(e) for e in f2reps[d]]) for d in range(n) if pieces[d + 1].z_gens}
    sq_q = {
        (k, d): queue(2, d + k, [square(e, k) for e in f2reps[d]])
        for k in range(1, n + 1)
        for d in range(k, n + 1 - k)
        if pieces[d].f2_dim and pieces[d + k].f2_dim
    }
    cup2_q, cup_int_q = {}, {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if pieces[i].f2_dim and pieces[j].f2_dim and pieces[i + j].f2_dim:
                cup2_q[(i, j)] = queue(2, i + j, [cup(a, b) for a in f2reps[i] for b in f2reps[j]])
            if pieces[i].z_gens and pieces[j].z_gens and pieces[i + j].z_gens:
                cup_int_q[(i, j)] = queue(0, i + j, [cup(a, b) for a in zreps[i] for b in zreps[j]])
    solved = {key: coh.classes_of(*key, batch) for key, batch in queued.items() if batch}

    def coords(ticket: tuple, dtype) -> np.ndarray:
        """Coordinates of a queued slice, one row per cocycle."""
        (modulus, degree), rows = ticket
        classes = solved.get((modulus, degree), [])[rows]
        width = coh.group(modulus, degree).n_generators
        return np.array([c.coords for c in classes], dtype=dtype).reshape(len(classes), width)

    rho2 = [coords(t, np.uint8).T for t in rho2_q]
    beta = [
        coords(beta_q[d], np.int64).T if d in beta_q else np.zeros((0, pieces[d].f2_dim), dtype=np.int64)
        for d in range(n + 1)
    ]
    sq = {key: mtx for key, t in sq_q.items() if (mtx := coords(t, np.uint8).T).any()}
    cup2 = {
        (i, j): coords(t, np.uint8).reshape(pieces[i].f2_dim, pieces[j].f2_dim, -1)
        for (i, j), t in cup2_q.items()
    }
    cup_int = {
        (i, j): coords(t, object).reshape(pieces[i].z_gens, pieces[j].z_gens, -1)
        for (i, j), t in cup_int_q.items()
    }

    if n < 0 or pieces[n].f2_dim != 1:  # n < 0: the empty complex
        raise NotClosedManifoldError("top mod-2 cohomology is not one-dimensional")
    top = pieces[n]
    orientable = top.z_rank == 1 and not top.z_torsion

    model = CohomologyModel(
        dimension=n, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=orientable, label=label or f"simplicial[{x!r}]",
    )
    rep = ValidationReport()
    _pairing_checks(model, rep)
    if not rep.ok:
        raise NotClosedManifoldError(str(rep.violations[0]))
    return model


# -- base changes ------------------------------------------------------------


def random_z_automorphism(orders, rng, moves: int = 8):
    """Random automorphism of Z^f + sum Z/t_i as (matrix, inverse) pair.

    Built from elementary moves that respect the torsion signature, so both
    matrices are exact inverses modulo the generator orders.
    """
    n = len(orders)
    m = np.eye(n, dtype=object)
    minv = np.eye(n, dtype=object)
    free = [i for i, o in enumerate(orders) if o == 0]
    tors = [i for i, o in enumerate(orders) if o]

    def lmul(e, einv):
        nonlocal m, minv
        m = _reduce_rows(np.dot(e, m), orders)
        minv = _reduce_rows(np.dot(minv, einv), orders)

    for _ in range(moves):
        kind = int(rng.integers(0, 4))
        if kind == 0 and len(free) >= 2:
            i, j = rng.choice(len(free), size=2, replace=False)
            i, j = free[int(i)], free[int(j)]
            c = int(rng.integers(-2, 3))
            e = np.eye(n, dtype=object); e[i, j] = c
            einv = np.eye(n, dtype=object); einv[i, j] = -c
            lmul(e, einv)
        elif kind == 1 and free:
            i = free[int(rng.integers(0, len(free)))]
            e = np.eye(n, dtype=object); e[i, i] = -1
            lmul(e, e.copy())
        elif kind == 2 and len(tors) >= 2:
            i, j = rng.choice(len(tors), size=2, replace=False)
            i, j = tors[int(i)], tors[int(j)]
            if orders[i] == orders[j]:
                e = np.eye(n, dtype=object); e[i, j] = 1
                einv = np.eye(n, dtype=object); einv[i, j] = -1
                lmul(e, einv)
        elif kind == 3 and free and tors:
            # basis change g_free -> g_free - t: in coordinates the torsion
            # row picks up the free column (never the other way round)
            i = tors[int(rng.integers(0, len(tors)))]
            j = free[int(rng.integers(0, len(free)))]
            e = np.eye(n, dtype=object); e[i, j] = 1
            einv = np.eye(n, dtype=object); einv[i, j] = -1
            lmul(e, einv)
    return m, minv


def _permutation_z_automorphism(orders, rng):
    """Random permutation of like generators (order-preserving signature)."""
    n = len(orders)
    perm = list(range(n))
    by_order: dict[int, list[int]] = {}
    for i, o in enumerate(orders):
        by_order.setdefault(o, []).append(i)
    for group in by_order.values():
        shuffled = list(group)
        rng.shuffle(shuffled)
        for src, dst in zip(group, shuffled):
            perm[src] = dst
    m = np.zeros((n, n), dtype=object)
    minv = np.zeros((n, n), dtype=object)
    for src, dst in enumerate(perm):
        m[dst, src] = 1
        minv[src, dst] = 1
    return m, minv


def random_model_iso(model, rng, permutation_only: bool = False):
    """Per-degree invertible maps, as data for ``transform_model``.

    Returns (f2_maps, f2_inv, z_maps, z_inv) keyed by degree.
    """
    m = _cohomology(model)
    f2_maps, f2_invs, z_maps, z_invs = {}, {}, {}, {}
    for d in range(m.dimension + 1):
        dim = m.f2_dim(d)
        if permutation_only:
            perm = np.arange(dim)
            rng.shuffle(perm)
            mat = f2.zeros(dim, dim)
            for src, dst in enumerate(perm):
                mat[dst, src] = 1
        else:
            mat = f2.random_invertible(rng, dim)
        f2_maps[d] = mat
        f2_invs[d] = f2.inverse(mat) if dim else f2.zeros(0, 0)
        orders = m.z_orders(d)
        if permutation_only:
            z, zinv = _permutation_z_automorphism(orders, rng)
        else:
            z, zinv = random_z_automorphism(orders, rng)
        z_maps[d] = z
        z_invs[d] = zinv
    # keep the fundamental data in place: unit and orientation fixed
    for d in (0, m.dimension):
        if m.f2_dim(d) == 1:
            f2_maps[d] = f2.eye(1)
            f2_invs[d] = f2.eye(1)
    if m.orientable and m.z_gens(m.dimension) == 1:
        z_maps[m.dimension] = np.eye(1, dtype=object)
        z_invs[m.dimension] = np.eye(1, dtype=object)
    if m.z_gens(0) == 1:
        z_maps[0] = np.eye(1, dtype=object)
        z_invs[0] = np.eye(1, dtype=object)
    return f2_maps, f2_invs, z_maps, z_invs


def transform_model(model, f2_maps, f2_invs, z_maps, z_invs):
    """The isomorphic model whose generators are the images under the maps.

    Same type as the input (plain model or manifold model with transported
    extra classes).
    """
    manifold = isinstance(model, ManifoldModel)
    m = model.cohomology if manifold else model
    rho2, beta, sq, cup2, cup_int = _push(m, f2_maps, f2_invs, z_maps, z_invs)
    core = CohomologyModel(
        dimension=m.dimension, pieces=m.pieces, rho2=rho2,
        beta=[_reduce_rows(x, m.z_orders(d + 1)) for d, x in enumerate(beta)],
        sq=sq, cup2=cup2, cup_int=cup_int, orientable=m.orientable, label=m.label + "'",
    )
    if not manifold:
        return core

    def image(x):
        return None if x is None else core.f2(x.degree, f2.mat_vec(f2_maps[x.degree], x.vec()))

    label = (model.label or m.label) + "'"
    return ManifoldModel(core, phi_hat=image(model.phi_hat), omega_pc=image(model.omega_pc), label=label)
