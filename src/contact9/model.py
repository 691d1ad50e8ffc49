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

import numpy as np

from . import f2
from .cohomology import Cohomology
from .simplicial import SimplicialComplex

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
    """The product tensor t precomposed with two linear maps, mod 2:
    out[x, y] = t(left[:, x], right[:, y])."""
    return _f2_einsum("qy,xqz->xyz", right, np.einsum("px,pqz->xqz", left, t, dtype=np.int64))


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

        self.cup2: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), t in dict(cup2).items():
            tgt = self.f2_dim(i + j) if i + j <= self.dimension else 0
            tt = _freeze(np.asarray(t, dtype=np.uint8).reshape(self.f2_dim(i), self.f2_dim(j), tgt))
            self.cup2[(int(i), int(j))] = tt

        self.cup_int: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), t in dict(cup_int or {}).items():
            tgt = self.z_gens(i + j) if i + j <= self.dimension else 0
            arr = np.empty((self.z_gens(i), self.z_gens(j), tgt), dtype=object)
            src = np.asarray(t, dtype=object).reshape(arr.shape)
            orders = self.z_orders(i + j) if i + j <= self.dimension else ()
            for a in range(arr.shape[0]):
                for b in range(arr.shape[1]):
                    for c in range(arr.shape[2]):
                        val = int(src[a, b, c])
                        o = orders[c]
                        arr[a, b, c] = val % o if o else val
            self.cup_int[(int(i), int(j))] = _freeze(arr)

    # -- shapes ---------------------------------------------------------

    def piece(self, i: int) -> GradedPiece:
        if 0 <= i <= self.dimension:
            return self.pieces[i]
        return GradedPiece(0, (), ())

    def f2_dim(self, i: int) -> int:
        return self.piece(i).f2_dim

    def z_gens(self, i: int) -> int:
        return self.piece(i).z_gens

    def z_orders(self, i: int) -> tuple[int, ...]:
        return self.piece(i).z_orders

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

    def z_add(self, a: ZClass, b: ZClass) -> ZClass:
        if a.degree != b.degree:
            raise ValueError("degree mismatch")
        return self.z(a.degree, [x + y for x, y in zip(a.coords, b.coords)])

    def z_scale(self, k: int, a: ZClass) -> ZClass:
        return self.z(a.degree, [k * x for x in a.coords])

    def z_sub(self, a: ZClass, b: ZClass) -> ZClass:
        return self.z_add(a, self.z_scale(-1, b))

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
            return t & 1  # stored past the top, it has no product coordinates
        shape = (self.f2_dim(i), self.f2_dim(j), self.f2_dim(i + j))
        if all(shape):
            raise KeyError(f"mod-2 product tensor ({i},{j}) missing")
        return np.zeros(shape, dtype=np.uint8)

    # -- operations -------------------------------------------------------

    def cup(self, a: F2Class, b: F2Class) -> F2Class:
        out = _f2_einsum("x,y,xyz->z", a.vec(), b.vec(), self.cup_tensor(a.degree, b.degree))
        return F2Class(a.degree + b.degree, tuple(int(v) for v in out))

    def cup_z(self, a: ZClass, b: ZClass) -> ZClass:
        i, j = a.degree, b.degree
        if i + j > self.dimension:
            return self.zero_z(i + j)
        t = self.cup_int.get((i, j))
        if t is None:
            if self.z_gens(i) == 0 or self.z_gens(j) == 0 or self.z_gens(i + j) == 0:
                return self.zero_z(i + j)
            raise KeyError(f"integral product tensor ({i},{j}) missing")
        out = [0] * self.z_gens(i + j)
        for x, cx in enumerate(a.coords):
            if not cx:
                continue
            for y, cy in enumerate(b.coords):
                if not cy:
                    continue
                for c in range(len(out)):
                    out[c] += cx * cy * int(t[x, y, c])
        return self.z(i + j, out)

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
        m = self.beta[i]
        out = [0] * self.z_gens(i + 1)
        for j in np.nonzero(a.vec())[0]:
            for c in range(len(out)):
                out[c] += int(m[c, j])
        return self.z(i + 1, out)

    # -- evaluation against the fundamental class --------------------------

    def eval_top(self, a: F2Class) -> int:
        if a.degree != self.dimension:
            raise ValueError("only top-degree classes pair with the fundamental class")
        if self.f2_dim(self.dimension) != 1:
            raise ValueError("top mod-2 group is not one-dimensional")
        return int(a.bits[0])

    def eval_top_z(self, a: ZClass) -> int:
        if not self.orientable:
            raise ValueError("integral fundamental class needs an orientable model")
        if a.degree != self.dimension:
            raise ValueError("only top-degree classes pair with the fundamental class")
        return int(a.coords[0])

    def pair(self, a: F2Class, b: F2Class) -> int:
        return self.eval_top(self.cup(a, b))

    def pairing_matrix(self, i: int) -> np.ndarray:
        """<a b, [M]> for the basis classes a of degree i and b of degree n - i."""
        if self.f2_dim(self.dimension) != 1:
            raise ValueError("top mod-2 group is not one-dimensional")
        return self.cup_tensor(i, self.dimension - i)[:, :, 0]

    # -- comparisons -------------------------------------------------------

    def equals(self, other: "CohomologyModel") -> bool:
        if not isinstance(other, CohomologyModel):
            return False
        if self.dimension != other.dimension or self.orientable != other.orientable:
            return False
        if self.pieces != other.pieces:
            return False
        for a, b in zip(self.rho2, other.rho2):
            if not np.array_equal(a, b):
                return False
        for a, b in zip(self.beta, other.beta):
            if not np.array_equal(a, b):
                return False
        if set(self.sq) != set(other.sq) or set(self.cup2) != set(other.cup2):
            return False
        if set(self.cup_int) != set(other.cup_int):
            return False
        return (
            all(np.array_equal(self.sq[k], other.sq[k]) for k in self.sq)
            and all(np.array_equal(self.cup2[k], other.cup2[k]) for k in self.cup2)
            and all(np.array_equal(self.cup_int[k], other.cup_int[k]) for k in self.cup_int)
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

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, degree, detail: str):
        self.violations.append(Violation(check, degree, detail))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def _reduce_rows(mat: np.ndarray, orders) -> np.ndarray:
    """Exact copy in Python ints, row r reduced modulo orders[r] when nonzero."""
    out = np.array(mat, dtype=object)
    for r, o in enumerate(orders):
        out[r] = [int(v) % o if o else int(v) for v in out[r]]
    return out


def _structural_checks(m: CohomologyModel, rep: ValidationReport):
    n = m.dimension
    # Bockstein matrices must land in the 2-torsion part
    for i in range(n + 1):
        b = m.beta[i]
        orders = m.z_orders(i + 1) if i + 1 <= n else ()
        for c, o in enumerate(orders):
            for j in range(m.f2_dim(i)):
                v = int(b[c, j]) % o if o else int(b[c, j])
                if o == 0 and v != 0:
                    rep.add("bockstein_torsion_valued", i, f"beta hits free generator {c}")
                elif o and (2 * v) % o:
                    rep.add("bockstein_two_torsion", i, f"beta value {v} not killed by 2 in Z/{o}")
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
    # Sq^i x = x x: the columns of Sq^i against the diagonal of the (i, i) tensor
    for i in range(n // 2 + 1):
        if m.f2_dim(i):
            bad = (m.sq_matrix(i, i).T != np.einsum("xxz->xz", m.cup_tensor(i, i))).any(axis=1)
            for _ in np.flatnonzero(bad):
                rep.add("sq_top_is_square", i, f"Sq^{i} != cup square on basis element")
    # Cartan formula: Sq^k (a b) = sum_s Sq^s a Sq^(k-s) b on all basis pairs
    for (i, j) in sorted(m.cup2):
        if i + j > n or not (m.f2_dim(i) and m.f2_dim(j)):
            continue
        t = m.cup_tensor(i, j)
        ks = range(1, min(i + j, n - i - j) + 1)
        bad = np.zeros((m.f2_dim(i), m.f2_dim(j), len(ks)), dtype=bool)
        for k in ks:
            lhs = _f2_einsum("zc,xyc->xyz", m.sq_matrix(k, i + j), t)
            rhs = np.zeros_like(lhs)
            for s in range(k + 1):
                left, right = m.sq_matrix(s, i), m.sq_matrix(k - s, j)
                if left.any() and right.any():
                    rhs ^= _pull_back(left, right, m.cup_tensor(i + s, j + k - s))
            bad[:, :, k - 1] = (lhs != rhs).any(axis=2)
        for _x, _y, k in np.argwhere(bad):
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
    # associativity (a b) c = a (b c) over all basis triples inside the dimension
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            for k in range(1, n + 1 - i - j):
                if not (m.f2_dim(i) and m.f2_dim(j) and m.f2_dim(k)):
                    continue
                left = _f2_einsum("xyp,pzq->xyzq", m.cup_tensor(i, j), m.cup_tensor(i + j, k))
                right = _f2_einsum("yzp,xpq->xyzq", m.cup_tensor(j, k), m.cup_tensor(i, j + k))
                for _ in np.flatnonzero((left != right).any(axis=3)):
                    rep.add("associativity", i + j + k, f"degrees ({i},{j},{k})")
    # integral tensors reduce to the mod-2 tensors
    for (i, j), t in sorted(m.cup_int.items()):
        if i + j > n or (i, j) not in m.cup2:
            continue
        lhs = _f2_einsum("zc,xyc->xyz", m.rho2[i + j], (t & 1).astype(np.int64))
        rhs = _pull_back(m.rho2[i], m.rho2[j], m.cup_tensor(i, j))
        for x, y in np.argwhere((lhs != rhs).any(axis=2)):
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
    if isinstance(model, ManifoldModel):
        m = model.cohomology
    else:
        m = model
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
    from .charclasses import WuSolveError, nine_manifold_identities, solve_wu_degree, sw_from_wu

    try:
        wu = {k: solve_wu_degree(m, k) for k in range(1, m.dimension + 1)}
    except WuSolveError as e:
        rep.add("wu_solvable", None, str(e))
        return
    for k, v in wu.items():
        if k not in (2, 4) and not v.is_zero():
            rep.add("wu_vanishing", k, f"Wu class in degree {k} is nonzero")
    rep.violations += nine_manifold_identities(m, sw_from_wu(m, wu))


# -- builders ---------------------------------------------------------------


def _tensor_model(a: CohomologyModel, b: CohomologyModel, label: str = "") -> CohomologyModel:
    """Graded tensor product of models; requires the second factor torsion-free
    so that the integral cross-product map is a ring isomorphism in every degree."""
    for i in range(b.dimension + 1):
        if b.piece(i).z_torsion:
            raise ValueError("second tensor factor must be torsion-free")
    n = a.dimension + b.dimension

    # index maps: pairs (degree_a, idx_a, degree_b, idx_b)
    f2_pairs: dict[int, list[tuple[int, int, int, int]]] = {d: [] for d in range(n + 1)}
    z_pairs: dict[int, list[tuple[int, int, int, int]]] = {d: [] for d in range(n + 1)}
    for i in range(a.dimension + 1):
        for j in range(b.dimension + 1):
            d = i + j
            for x in range(a.f2_dim(i)):
                for y in range(b.f2_dim(j)):
                    f2_pairs[d].append((i, x, j, y))
            for x in range(a.z_gens(i)):
                for y in range(b.z_gens(j)):
                    z_pairs[d].append((i, x, j, y))

    # order integral generators free-first (pair is free iff the a-generator is free)
    def pair_order(p):
        i, x, j, y = p
        return a.z_orders(i)[x]

    for d in range(n + 1):
        z_pairs[d].sort(key=lambda p: (pair_order(p) != 0, pair_order(p), p))

    f2_index = {d: {p: k for k, p in enumerate(f2_pairs[d])} for d in range(n + 1)}
    z_index = {d: {p: k for k, p in enumerate(z_pairs[d])} for d in range(n + 1)}

    def name(i, x, j, y):
        na = a.piece(i).f2_basis[x]
        nb = b.piece(j).f2_basis[y]
        if i == 0:
            return nb
        if j == 0:
            return na
        return f"{na}*{nb}"

    pieces = []
    for d in range(n + 1):
        orders = [pair_order(p) for p in z_pairs[d]]
        pieces.append(
            GradedPiece(
                z_rank=sum(1 for o in orders if o == 0),
                z_torsion=tuple(o for o in orders if o),
                f2_basis=tuple(name(*p) for p in f2_pairs[d]),
            )
        )

    rho2 = []
    for d in range(n + 1):
        mtx = np.zeros((len(f2_pairs[d]), len(z_pairs[d])), dtype=np.uint8)
        for col, (i, x, j, y) in enumerate(z_pairs[d]):
            va = a.rho2[i][:, x]
            vb = b.rho2[j][:, y]
            for xa in np.nonzero(va)[0]:
                for yb in np.nonzero(vb)[0]:
                    mtx[f2_index[d][(i, int(xa), j, int(yb))], col] ^= 1
        rho2.append(mtx)

    # Bockstein: beta(u x v) = beta(u) x vZ where vZ is the integral class
    # reducing to v (second factor torsion-free, so its reduction is invertible)
    rho_b_inv = [f2.inverse(b.rho2[j]) if b.f2_dim(j) else f2.zeros(0, 0) for j in range(b.dimension + 1)]
    beta = []
    for d in range(n + 1):
        tgt = len(z_pairs[d + 1]) if d + 1 <= n else 0
        mtx = np.zeros((tgt, len(f2_pairs[d])), dtype=np.int64)
        if tgt:
            for col, (i, x, j, y) in enumerate(f2_pairs[d]):
                if i + 1 > a.dimension:
                    continue
                bvec = a.beta[i][:, x]
                vz = rho_b_inv[j][:, y]
                for za in np.nonzero(np.asarray(bvec))[0]:
                    for zb in np.nonzero(vz)[0]:
                        row = z_index[d + 1][(i + 1, int(za), j, int(zb))]
                        mtx[row, col] += int(bvec[za])
        beta.append(mtx)

    sq: dict[tuple[int, int], np.ndarray] = {}
    for k in range(1, n + 1):
        for d in range(n + 1 - k):
            src = f2_pairs[d]
            tgt = f2_pairs[d + k]
            if not src or not tgt:
                continue
            mtx = np.zeros((len(tgt), len(src)), dtype=np.uint8)
            for col, (i, x, j, y) in enumerate(src):
                ea = F2Class(i, tuple(1 if t == x else 0 for t in range(a.f2_dim(i))))
                eb = F2Class(j, tuple(1 if t == y else 0 for t in range(b.f2_dim(j))))
                for s in range(k + 1):
                    sa = a.sq_map(s, ea)
                    sb = b.sq_map(k - s, eb)
                    if sa.degree > a.dimension or sb.degree > b.dimension:
                        continue
                    for xa in np.nonzero(sa.vec())[0]:
                        for yb in np.nonzero(sb.vec())[0]:
                            mtx[f2_index[d + k][(i + s, int(xa), j + k - s, int(yb))], col] ^= 1
            if mtx.any():
                sq[(k, d)] = mtx

    cup2 = {}
    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            src1, src2, tgt = f2_pairs[d1], f2_pairs[d2], f2_pairs[d1 + d2]
            if not (src1 and src2 and tgt):
                continue
            t = np.zeros((len(src1), len(src2), len(tgt)), dtype=np.uint8)
            for r1, (i1, x1, j1, y1) in enumerate(src1):
                for r2, (i2, x2, j2, y2) in enumerate(src2):
                    if i1 + i2 > a.dimension or j1 + j2 > b.dimension:
                        continue
                    pa = a.cup(
                        F2Class(i1, tuple(1 if t_ == x1 else 0 for t_ in range(a.f2_dim(i1)))),
                        F2Class(i2, tuple(1 if t_ == x2 else 0 for t_ in range(a.f2_dim(i2)))),
                    )
                    pb = b.cup(
                        F2Class(j1, tuple(1 if t_ == y1 else 0 for t_ in range(b.f2_dim(j1)))),
                        F2Class(j2, tuple(1 if t_ == y2 else 0 for t_ in range(b.f2_dim(j2)))),
                    )
                    for xa in np.nonzero(pa.vec())[0]:
                        for yb in np.nonzero(pb.vec())[0]:
                            t[r1, r2, f2_index[d1 + d2][(i1 + i2, int(xa), j1 + j2, int(yb))]] ^= 1
            cup2[(d1, d2)] = t

    cup_int = {}
    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            src1, src2, tgt = z_pairs[d1], z_pairs[d2], z_pairs[d1 + d2]
            if not (src1 and src2 and tgt):
                continue
            t = np.zeros((len(src1), len(src2), len(tgt)), dtype=object)
            for r1, (i1, x1, j1, y1) in enumerate(src1):
                for r2, (i2, x2, j2, y2) in enumerate(src2):
                    if i1 + i2 > a.dimension or j1 + j2 > b.dimension:
                        continue
                    if (i1, i2) not in a.cup_int or (j1, j2) not in b.cup_int:
                        continue
                    pa = a.cup_z(a.basis_z(i1)[x1], a.basis_z(i2)[x2])
                    pb = b.cup_z(b.basis_z(j1)[y1], b.basis_z(j2)[y2])
                    sign = -1 if (j1 % 2) and (i2 % 2) else 1
                    for za, ca in enumerate(pa.coords):
                        if not ca:
                            continue
                        for zb, cb in enumerate(pb.coords):
                            if not cb:
                                continue
                            row = z_index[d1 + d2][(i1 + i2, za, j1 + j2, zb)]
                            t[r1, r2, row] += sign * ca * cb
            cup_int[(d1, d2)] = t

    return CohomologyModel(
        dimension=n,
        pieces=pieces,
        rho2=rho2,
        beta=beta,
        sq=sq,
        cup2=cup2,
        cup_int=cup_int,
        orientable=a.orientable and b.orientable,
        label=label or f"{a.label}x{b.label}",
    )


def build_product(a: CohomologyModel, b: CohomologyModel) -> CohomologyModel:
    """Cartesian-product model for torsion-free factors (cross-product rules)."""
    for m, side in ((a, "first"), (b, "second")):
        for i in range(m.dimension + 1):
            if m.piece(i).z_torsion:
                raise ValueError(f"{side} factor has torsion; the product builder requires torsion-free factors")
    return _tensor_model(a, b)


def connected_sum(a: ManifoldModel, b: ManifoldModel) -> ManifoldModel:
    """Connected sum of oriented 9-manifold models: middle degrees direct-sum,
    one fused unit and one fused orientation, cross products vanishing."""
    ma, mb = a.cohomology, b.cohomology
    if ma.dimension != 9 or mb.dimension != 9:
        raise ValueError("connected sum needs two 9-dimensional models")
    if not (ma.orientable and mb.orientable):
        raise ValueError("connected sum needs orientable models")
    n = 9

    # generator bookkeeping: in middle degrees, a-generators then b-generators,
    # with integral free generators first and torsion merged in ascending order
    f2_map_a: dict[int, list[int]] = {}
    f2_map_b: dict[int, list[int]] = {}
    z_map_a: dict[int, list[int]] = {}
    z_map_b: dict[int, list[int]] = {}
    pieces = []
    for d in range(10):
        if d in (0, 9):
            pieces.append(GradedPiece(1, (), ("1",) if d == 0 else ("top",)))
            f2_map_a[d] = [0] * ma.f2_dim(d)
            f2_map_b[d] = [0] * mb.f2_dim(d)
            z_map_a[d] = [0] * ma.z_gens(d)
            z_map_b[d] = [0] * mb.z_gens(d)
            continue
        names = tuple(f"{s}@a" for s in ma.piece(d).f2_basis) + tuple(
            f"{s}@b" for s in mb.piece(d).f2_basis
        )
        f2_map_a[d] = list(range(ma.f2_dim(d)))
        f2_map_b[d] = [ma.f2_dim(d) + k for k in range(mb.f2_dim(d))]
        gens = [("a", k, o) for k, o in enumerate(ma.z_orders(d))] + [
            ("b", k, o) for k, o in enumerate(mb.z_orders(d))
        ]
        gens.sort(key=lambda g: (g[2] != 0, g[2], g[0], g[1]))
        z_map_a[d] = [0] * ma.z_gens(d)
        z_map_b[d] = [0] * mb.z_gens(d)
        for pos, (side, k, _o) in enumerate(gens):
            (z_map_a if side == "a" else z_map_b)[d][k] = pos
        pieces.append(
            GradedPiece(
                z_rank=sum(1 for g in gens if g[2] == 0),
                z_torsion=tuple(g[2] for g in gens if g[2]),
                f2_basis=names,
            )
        )

    rho2 = []
    for d in range(10):
        dim = len(pieces[d].f2_basis)
        gens = pieces[d].z_gens
        blocks = [(ma.rho2[d], f2_map_a[d], z_map_a[d]), (mb.rho2[d], f2_map_b[d], z_map_b[d])]
        mtx = np.zeros((dim, gens), dtype=np.int64)
        for src, rmap, cmap in blocks:
            for r in range(src.shape[0]):
                for c in range(src.shape[1]):
                    if src[r, c]:
                        mtx[rmap[r], cmap[c]] ^= int(src[r, c])
        if d in (0, 9):
            # both factor units/orientations map to the single fused generator
            mtx = np.array([[1]], dtype=np.int64)
        rho2.append(mtx.astype(np.uint8))

    beta = []
    for d in range(10):
        tgt = pieces[d + 1].z_gens if d + 1 <= 9 else 0
        mtx = np.zeros((tgt, len(pieces[d].f2_basis)), dtype=np.int64)
        if tgt:
            for src, cmap, rmap in (
                (ma.beta[d], f2_map_a[d], z_map_a[d + 1]),
                (mb.beta[d], f2_map_b[d], z_map_b[d + 1]),
            ):
                for r in range(src.shape[0]):
                    for c in range(src.shape[1]):
                        if src[r, c]:
                            mtx[rmap[r], cmap[c]] += int(src[r, c])
            if d == 0:
                mtx = np.zeros((tgt, 1), dtype=np.int64)
        beta.append(mtx)

    sq: dict[tuple[int, int], np.ndarray] = {}
    keys = set(ma.sq) | set(mb.sq)
    for (k, d) in keys:
        if d + k > 9:
            continue
        mtx = np.zeros((len(pieces[d + k].f2_basis), len(pieces[d].f2_basis)), dtype=np.uint8)
        for src_model, fmap_src, fmap_tgt in (
            (ma, f2_map_a, f2_map_a),
            (mb, f2_map_b, f2_map_b),
        ):
            src = src_model.sq.get((k, d))
            if src is None:
                continue
            for r in range(src.shape[0]):
                for c in range(src.shape[1]):
                    if src[r, c]:
                        mtx[fmap_tgt[d + k][r], fmap_src[d][c]] ^= 1
        if mtx.any():
            sq[(k, d)] = mtx

    # products: unit pairs act as the identity; middle-degree pairs assemble
    # block-diagonally (cross products between the summands vanish, products
    # into the top degree land on the fused orientation class)
    cup2 = {}
    for i in range(10):
        for j in range(10 - i):
            di, dj, dt = len(pieces[i].f2_basis), len(pieces[j].f2_basis), len(pieces[i + j].f2_basis)
            if not (di and dj and dt):
                continue
            t = np.zeros((di, dj, dt), dtype=np.uint8)
            if i == 0:
                for y in range(dj):
                    t[0, y, y] = 1
            elif j == 0:
                for x in range(di):
                    t[x, 0, x] = 1
            else:
                for src_model, fm in ((ma, f2_map_a), (mb, f2_map_b)):
                    tensor = src_model.cup2.get((i, j))
                    if tensor is None:
                        continue
                    for x in range(tensor.shape[0]):
                        for y in range(tensor.shape[1]):
                            for c in range(tensor.shape[2]):
                                if tensor[x, y, c]:
                                    t[fm[i][x], fm[j][y], fm[i + j][c]] ^= 1
            cup2[(i, j)] = t

    cup_int = {}
    pairs = set(ma.cup_int) | set(mb.cup_int)
    for (i, j) in sorted(pairs):
        if i + j > 9:
            continue
        zi, zj, zt = pieces[i].z_gens, pieces[j].z_gens, pieces[i + j].z_gens
        if not (zi and zj and zt):
            continue
        blocks = []
        assemblable = True
        for src_model, zm in ((ma, z_map_a), (mb, z_map_b)):
            tensor = src_model.cup_int.get((i, j))
            if tensor is None:
                # a factor with no classes in one of the degrees contributes
                # nothing; otherwise the pair cannot be assembled honestly
                if src_model.z_gens(i) and src_model.z_gens(j) and src_model.z_gens(i + j):
                    assemblable = False
                continue
            blocks.append((tensor, zm))
        if not assemblable:
            continue
        t = np.zeros((zi, zj, zt), dtype=object)
        if i == 0:
            for y in range(zj):
                t[0, y, y] = 1
        elif j == 0:
            for x in range(zi):
                t[x, 0, x] = 1
        else:
            for tensor, zm in blocks:
                for x in range(tensor.shape[0]):
                    for y in range(tensor.shape[1]):
                        for c in range(tensor.shape[2]):
                            if tensor[x, y, c]:
                                t[zm[i][x], zm[j][y], zm[i + j][c]] += int(tensor[x, y, c])
        cup_int[(i, j)] = t

    label = f"{a.label or ma.label}#{b.label or mb.label}"
    summed = CohomologyModel(
        dimension=9, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=True, label=label,
    )

    phi = None
    if a.phi_hat is not None and b.phi_hat is not None:
        bits = [0] * summed.f2_dim(5)
        for k, v in enumerate(a.phi_hat.bits):
            bits[f2_map_a[5][k]] ^= v
        for k, v in enumerate(b.phi_hat.bits):
            bits[f2_map_b[5][k]] ^= v
        phi = summed.f2(5, bits)
    omega = None
    if a.omega_pc is not None and b.omega_pc is not None:
        bits = [0] * summed.f2_dim(8)
        for k, v in enumerate(a.omega_pc.bits):
            bits[f2_map_a[8][k]] ^= v
        for k, v in enumerate(b.omega_pc.bits):
            bits[f2_map_b[8][k]] ^= v
        omega = summed.f2(8, bits)
    return ManifoldModel(summed, phi_hat=phi, omega_pc=omega, label=label)


def from_simplicial(x: SimplicialComplex, label: str = "") -> CohomologyModel:
    """Compute the full operation tables of a triangulated closed manifold.

    The closed-manifold property is checked a posteriori: the mod-2
    intersection pairing must be nondegenerate with one-dimensional top group.
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

    rho2 = []
    for d in range(n + 1):
        cols = [coh.reduce_mod(1, g).coords for g in coh.basis_classes(0, d)]
        mtx = np.zeros((pieces[d].f2_dim, pieces[d].z_gens), dtype=np.uint8)
        for c, col in enumerate(cols):
            mtx[:, c] = col
        rho2.append(mtx)

    beta = []
    for d in range(n + 1):
        tgt = pieces[d + 1].z_gens if d + 1 <= n else 0
        mtx = np.zeros((tgt, pieces[d].f2_dim), dtype=np.int64)
        if tgt:
            for c, e in enumerate(coh.basis_classes(2, d)):
                mtx[:, c] = coh.bockstein(e).coords
        beta.append(mtx)

    sq = {}
    for k in range(1, n + 1):
        for d in range(n + 1 - k):
            if not (pieces[d].f2_dim and pieces[d + k].f2_dim) or k > d:
                continue
            mtx = np.zeros((pieces[d + k].f2_dim, pieces[d].f2_dim), dtype=np.uint8)
            for c, e in enumerate(coh.basis_classes(2, d)):
                mtx[:, c] = coh.sq(k, e).coords
            if mtx.any():
                sq[(k, d)] = mtx

    cup2 = {}
    cup_int = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            di, dj, dt = pieces[i].f2_dim, pieces[j].f2_dim, pieces[i + j].f2_dim
            if di and dj and dt:
                t = np.zeros((di, dj, dt), dtype=np.uint8)
                for xx, ea in enumerate(coh.basis_classes(2, i)):
                    for yy, eb in enumerate(coh.basis_classes(2, j)):
                        t[xx, yy, :] = coh.cup(ea, eb).coords
                cup2[(i, j)] = t
            zi, zj, zt = pieces[i].z_gens, pieces[j].z_gens, pieces[i + j].z_gens
            if zi and zj and zt:
                t = np.zeros((zi, zj, zt), dtype=object)
                for xx, ga in enumerate(coh.basis_classes(0, i)):
                    for yy, gb in enumerate(coh.basis_classes(0, j)):
                        for cc, val in enumerate(coh.cup(ga, gb).coords):
                            t[xx, yy, cc] = int(val)
                cup_int[(i, j)] = t

    top = pieces[n]
    if top.f2_dim != 1:
        raise NotClosedManifoldError("top mod-2 cohomology is not one-dimensional")
    orientable = top.z_rank == 1 and not top.z_torsion

    model = CohomologyModel(
        dimension=n, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=orientable, label=label or f"simplicial[{x!r}]",
    )
    for i in range(n + 1):
        if model.f2_dim(i) != model.f2_dim(n - i):
            raise NotClosedManifoldError(f"mod-2 Betti numbers not symmetric at degree {i}")
        if model.f2_dim(i) and f2.rank(model.pairing_matrix(i)) != model.f2_dim(i):
            raise NotClosedManifoldError(f"mod-2 intersection pairing degenerate at degree {i}")
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
    m = model.cohomology if hasattr(model, "cohomology") else model
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
    n = m.dimension

    rho2 = []
    for d in range(n + 1):
        zi = np.asarray(z_invs[d], dtype=object)
        z2 = np.zeros(zi.shape, dtype=np.uint8)
        for r in range(zi.shape[0]):
            for c in range(zi.shape[1]):
                z2[r, c] = int(zi[r, c]) % 2
        rho2.append(f2.mat_mul(f2.mat_mul(f2_maps[d], m.rho2[d]), z2))

    beta = []
    for d in range(n + 1):
        if d + 1 > n:
            beta.append(np.zeros((0, m.f2_dim(d)), dtype=np.int64))
            continue
        mid = np.dot(np.asarray(z_maps[d + 1], dtype=object), np.asarray(m.beta[d], dtype=object))
        out = np.dot(mid, np.asarray(f2_invs[d], dtype=object))
        out = _reduce_rows(out, m.z_orders(d + 1))
        beta.append(np.asarray([[int(x) for x in row] for row in out], dtype=np.int64))

    sq = {}
    for (k, d), mat in m.sq.items():
        if d + k > n:
            continue
        sq[(k, d)] = f2.mat_mul(f2.mat_mul(f2_maps[d + k], mat), f2_invs[d])

    cup2 = {}
    for (i, j), t in m.cup2.items():
        if i + j > n:
            continue
        di, dj, dt = t.shape
        new = np.zeros_like(t)
        fi, fj, ft = f2_invs[i], f2_invs[j], f2_maps[i + j]
        for x in range(di):
            for y in range(dj):
                acc = np.zeros(dt, dtype=np.uint8)
                for x0 in range(di):
                    if not fi[x0, x]:
                        continue
                    for y0 in range(dj):
                        if fj[y0, y]:
                            acc ^= t[x0, y0]
                new[x, y] = f2.mat_vec(ft, acc) if dt else acc
        cup2[(i, j)] = new

    cup_int = {}
    for (i, j), t in m.cup_int.items():
        if i + j > n:
            continue
        zi, zj, zt = t.shape
        new = np.zeros((zi, zj, zt), dtype=object)
        zi_inv = np.asarray(z_invs[i], dtype=object)
        zj_inv = np.asarray(z_invs[j], dtype=object)
        z_out = np.asarray(z_maps[i + j], dtype=object)
        orders = m.z_orders(i + j)
        for x in range(zi):
            for y in range(zj):
                acc = np.zeros(zt, dtype=object)
                for x0 in range(zi):
                    cx = int(zi_inv[x0, x])
                    if not cx:
                        continue
                    for y0 in range(zj):
                        cy = int(zj_inv[y0, y])
                        if cy:
                            acc = acc + cx * cy * t[x0, y0]
                out = np.dot(z_out, acc) if zt else acc
                for c, o in enumerate(orders):
                    new[x, y, c] = int(out[c]) % o if o else int(out[c])
        cup_int[(i, j)] = new

    core = CohomologyModel(
        dimension=n, pieces=m.pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=m.orientable, label=m.label + "'",
    )
    if not manifold:
        return core
    phi = None
    if model.phi_hat is not None:
        phi = core.f2(5, f2.mat_vec(f2_maps[5], model.phi_hat.vec()))
    omega = None
    if model.omega_pc is not None:
        omega = core.f2(8, f2.mat_vec(f2_maps[8], model.omega_pc.vec()))
    return ManifoldModel(core, phi_hat=phi, omega_pc=omega, label=(model.label or m.label) + "'")
