"""Wu and Stiefel-Whitney classes, integral lifts, and the degree-8 coset
arithmetic used by the decision procedure.

Wu classes are solved from the defining property <v_k x, [M]> = <Sq^k x, [M]>
(unique by nondegeneracy of the mod-2 intersection pairing) rather than
declared, so hand-built models get cross-checked.  Stiefel-Whitney classes
come from the Wu formula w = Sq(v); the integral classes are Bocksteins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import f2
from .model import CohomologyModel, F2Class, ManifoldModel, Violation, ZClass, _cohomology, _reduce_rows

__all__ = [
    "WuClasses", "SWClasses", "CosetH8", "SpincData",
    "WuSolveError", "ModelInvariantError", "PreconditionError",
    "solve_wu_degree", "characteristic_classes", "checked_classes", "wu_classes",
    "sw_from_wu", "sw_classes", "nine_manifold_identities", "integral_lift",
    "random_integral_lift", "compute_dm", "annihilator_subspace",
    "sq2_image_subspace",
    "half_product_solutions", "sigma_w4", "spinc_data",
]


class WuSolveError(ValueError):
    """The Wu-class linear system has no (unique) solution: bad pairing data."""


class ModelInvariantError(ValueError):
    """Model data contradicts an identity that holds for closed manifolds."""


class PreconditionError(ValueError):
    """Operation called outside its contract."""


@dataclass(frozen=True)
class WuClasses:
    """Wu classes of an orientable n-manifold model, which vanish in odd
    degrees and in every degree k with 2k > n; for n = 9 only v2 and v4 can
    be nonzero.  Degrees above the dimension read as zero classes."""

    by_degree: dict

    @property
    def v2(self) -> F2Class:
        return self.by_degree.get(2, F2Class(2, ()))

    @property
    def v4(self) -> F2Class:
        return self.by_degree.get(4, F2Class(4, ()))


@dataclass(frozen=True)
class SWClasses:
    """Stiefel-Whitney classes w_1..w_n plus the integral classes in degrees 3, 7."""

    w: dict
    W3: ZClass
    W7: ZClass

    @classmethod
    def from_w(cls, m: CohomologyModel, w: dict) -> "SWClasses":
        """The classes ``w`` with their integral classes W3 = beta w2 and W7 = beta w6."""
        n = m.dimension
        return cls(w, m.beta_map(w[2]) if n >= 2 else m.zero_z(3), m.beta_map(w[6]) if n >= 6 else m.zero_z(7))


@dataclass(frozen=True)
class SpincData:
    """Integral lift data for a model with vanishing degree-3 integral class."""

    c: ZClass            # integral lift of w2
    v: ZClass            # integral lift of w6
    half_cv: ZClass      # a class with 2 * half_cv = c v


class CosetH8:
    """A coset of a subspace of H^8(M; Z/2), canonically reduced."""

    def __init__(self, representative: F2Class, subspace: f2.Subspace):
        if len(representative.bits) != subspace.ambient_dim:
            raise ValueError("representative/subspace dimension mismatch")
        red = subspace.reduce(representative.vec())
        self.representative = F2Class(representative.degree, tuple(int(b) for b in red))
        self.subspace = subspace

    def is_zero(self) -> bool:
        return self.representative.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CosetH8)
            and self.subspace == other.subspace
            and self.representative == other.representative
        )

    def __hash__(self):
        return hash((self.representative, self.subspace))

    def __repr__(self):
        return f"CosetH8(rep={self.representative.bits}, subspace_dim={self.subspace.dim})"


# -- Wu / Stiefel-Whitney ----------------------------------------------------


def solve_wu_degree(m: CohomologyModel, k: int) -> F2Class:
    """The unique v_k with <v_k x, [M]> = <Sq^k x, [M]> for every x: the
    pairing of degrees (k, n - k) against the top row of Sq^k on degree n - k."""
    n = m.dimension
    mat = m.pairing_matrix(k).T
    rhs = m.sq_matrix(k, n - k)[0]
    if m.f2_dim(k) == 0:
        if rhs.any():
            raise WuSolveError(f"degree-{k} Wu system inconsistent: no candidate classes")
        return m.zero_f2(k)
    sol = f2.solve(mat, rhs)
    if sol is None:
        raise WuSolveError(f"degree-{k} Wu system unsolvable")
    if f2.nullspace(mat).shape[0]:
        raise WuSolveError(f"degree-{k} Wu system underdetermined: degenerate pairing")
    return m.f2(k, sol)


def characteristic_classes(model) -> tuple[WuClasses | None, SWClasses | None, list[Violation]]:
    """The Wu classes of an orientable model, solved in every degree, its
    Stiefel-Whitney classes w = Sq(v), and the violations found on the way:
    an unsolvable Wu system (no classes then), a nonzero Wu class v_k of odd
    k or of 2k > n, and in dimension 9 ``nine_manifold_identities``.
    ``validate`` reports these violations; ``checked_classes`` raises the
    first."""
    m = _cohomology(model)
    if not m.orientable:
        raise PreconditionError("Wu classes require an orientable model")
    try:
        wu = {k: solve_wu_degree(m, k) for k in range(1, m.dimension + 1)}
    except WuSolveError as e:
        return None, None, [Violation("wu_solvable", None, str(e))]
    # Sq^k vanishes on degrees below k, so v_k = 0 once 2k > n; orientable
    # means v1 = w1 = 0, so v_{2i+1}, the class of Sq^1 Sq^{2i}, vanishes too
    broken = [
        Violation("wu_vanishing", k, f"Wu class in degree {k} is nonzero")
        for k, v in wu.items() if (k % 2 or 2 * k > m.dimension) and not v.is_zero()
    ]
    sw = SWClasses.from_w(m, sw_from_wu(m, wu))
    if m.dimension == 9:
        broken += nine_manifold_identities(m, sw)
    return WuClasses(by_degree=wu), sw, broken


def checked_classes(model) -> tuple[WuClasses, SWClasses]:
    """The Wu and Stiefel-Whitney classes of an orientable model; raises the
    first violation of ``characteristic_classes`` (``WuSolveError`` for an
    unsolvable Wu system, ``ModelInvariantError`` naming any other check)."""
    wu, sw, broken = characteristic_classes(model)
    if broken:
        first = broken[0]
        raise (WuSolveError if first.check == "wu_solvable" else ModelInvariantError)(str(first))
    return wu, sw


def wu_classes(model) -> WuClasses:
    """Wu classes of an orientable model; their vanishing in odd degrees and
    above half the dimension is verified from the pairings, never assumed."""
    return checked_classes(model)[0]


def sw_from_wu(m: CohomologyModel, wu: dict) -> dict:
    """Stiefel-Whitney classes w_1..w_n from Wu classes by the Wu formula
    w = Sq(v), with the total square: w_k = sum_i Sq^i(v_{k-i})."""
    n = m.dimension
    v = np.concatenate([m.f2(0, [1]).vec()] + [wu[k].vec() for k in range(1, n + 1)])
    w = np.split(f2.mat_vec(m.total_square, v), m.offsets[1:-1])
    return {k: m.f2(k, w[k]) for k in range(1, n + 1)}


def sw_classes(model) -> SWClasses:
    """Stiefel-Whitney classes via the Wu formula, plus the integral classes
    in degrees 3 and 7; 9-dimensional models must satisfy
    ``nine_manifold_identities``."""
    return checked_classes(model)[1]


def nine_manifold_identities(m: CohomologyModel, sw: SWClasses) -> list[Violation]:
    """The identities Stiefel-Whitney classes of a closed orientable
    9-manifold satisfy, as violations by the classes ``sw``: w9 = 0,
    w8 = w4^2 + w2^4, w_{2i+1} = Sq^1 w_{2i}, and, once the degree-3 integral
    class vanishes, odd classes vanish, w6 = Sq^2 w4 and w2 w4 = w2 w6 = 0."""
    w = sw.w
    out = []
    if not w[9].is_zero():
        out.append(Violation("w9_zero", 9, "top Stiefel-Whitney class nonzero"))
    w2sq = m.cup(w[2], w[2])
    if w[8] != m.cup(w[4], w[4]) + m.cup(w2sq, w2sq):
        out.append(Violation("w8_formula", 8, "w8 != w4^2 + w2^4"))
    for i in (1, 2, 3):
        if w[2 * i + 1] != m.sq_map(1, w[2 * i]):
            out.append(Violation("w_odd_formula", 2 * i + 1, f"w{2*i+1} != Sq^1 w{2*i}"))
    if sw.W3.is_zero():
        for k in (1, 3, 5, 7, 9):
            if not w[k].is_zero():
                out.append(Violation(
                    "odd_w_vanishing", k, f"w{k} nonzero on a model with vanishing degree-3 integral class"
                ))
        if w[6] != m.sq_map(2, w[4]):
            out.append(Violation("w6_formula", 6, "w6 != Sq^2 w4"))
        if not m.cup(w[2], w[4]).is_zero():
            out.append(Violation("w2w4_zero", 6, "w2 w4 != 0"))
        if not m.cup(w[2], w[6]).is_zero():
            out.append(Violation("w2w6_zero", 8, "w2 w6 != 0"))
    return out


# -- integral lifts ----------------------------------------------------------


def integral_lift(model, x: F2Class) -> ZClass | None:
    """A class z with rho2(z) = x, or None when the Bockstein obstructs one.

    The particular solution has all coordinates in {0, 1} (least non-negative
    residues); downstream computations are tested for independence of this
    choice.
    """
    m = _cohomology(model)
    mtx = m.rho2[x.degree]
    sol = f2.solve(mtx, x.vec())
    if sol is None:
        return None
    return m.z(x.degree, [int(b) for b in sol])


def random_integral_lift(model, x: F2Class, rng) -> ZClass | None:
    """A uniformly perturbed lift: particular solution plus a random element
    of the kernel of the reduction."""
    m = _cohomology(model)
    base = integral_lift(model, x)
    if base is None:
        return None
    mtx = m.rho2[x.degree]
    null = f2.nullspace(mtx)
    coords = list(base.coords)
    for row in null:
        if rng.integers(0, 2):
            coords = [c + int(b) for c, b in zip(coords, row)]
    for i in range(len(coords)):
        # even multiples of any generator reduce to zero
        coords[i] += 2 * int(rng.integers(-3, 4))
    return m.z(x.degree, coords)


# -- subspaces -----------------------------------------------------------------


def reduction_image_subspace(m: CohomologyModel, degree: int) -> f2.Subspace:
    """Image of the mod-2 reduction in the given degree."""
    return f2.Subspace(list(m.rho2[degree].T), ambient_dim=m.f2_dim(degree))


def bockstein_kernel_subspace(m: CohomologyModel, degree: int) -> f2.Subspace:
    """Kernel of the mod-2 Bockstein in the given degree."""
    nonzero = m.beta[degree] != 0
    return f2.Subspace(list(f2.nullspace(nonzero.astype(np.uint8))), ambient_dim=m.f2_dim(degree))


def sq2_image_subspace(m: CohomologyModel, degree: int = 6) -> f2.Subspace:
    """Sq^2 of the integrally liftable part of H^degree, inside H^{degree+2}."""
    kernel = bockstein_kernel_subspace(m, degree)
    return f2.Subspace(list(f2.mat_mul(kernel.basis, m.sq_matrix(2, degree).T)), ambient_dim=m.f2_dim(degree + 2))


# -- the degree-one subspace and its annihilator description ------------------


def compute_dm(model, sw: SWClasses) -> f2.Subspace:
    """Degree-one classes whose product with w2 lies in the mod-2 image of
    the degree-3 torsion; checked against the annihilator description."""
    m = _cohomology(model)
    w2 = sw.w[2]
    dim1 = m.f2_dim(1)
    mul = (np.einsum("xyz,y->zx", m.cup_tensor(1, 2), w2.vec(), dtype=np.int64) & 1).astype(np.uint8)
    # x w2 = rho2(t) for some torsion t: the x-part of the kernel of [mul | rho2 of the torsion generators]
    aug = np.concatenate([mul, m.rho2[3][:, m.piece(3).z_rank:]], axis=1)
    dm = f2.Subspace([row[:dim1] for row in f2.nullspace(aug)], ambient_dim=dim1)

    ann = annihilator_subspace(m)
    if dm != ann:
        raise ModelInvariantError(
            "degree-one subspace disagrees with the annihilator of Sq^2(rho2 H^6)"
        )
    return dm


def annihilator_subspace(m: CohomologyModel) -> f2.Subspace:
    """Annihilator in H^1 of Sq^2(rho2 H^6) under the intersection pairing:
    the kernel of the pairing of H^1 with Sq^2 rho2 of each generator of H^6."""
    rows = f2.mat_mul(m.pairing_matrix(1), f2.mat_mul(m.sq_matrix(2, 6), m.rho2[6])).T
    return f2.Subspace(list(f2.nullspace(rows)), ambient_dim=m.f2_dim(1))


def bockstein_vanishes_on(m: CohomologyModel, subspace: f2.Subspace) -> bool:
    return not _reduce_rows(m.beta[1].astype(object).dot(subspace.basis.T.astype(object)), m.z_orders(2)).any()


# -- half products -------------------------------------------------------------


def half_product_solutions(c: ZClass, v: ZClass, model) -> tuple[ZClass, list[ZClass]]:
    """One solution d of 2d = c v in degree 8, and the order-2 classes
    (o/2) e_t, one per even-order torsion summand e_t: the other solutions
    are d plus the subset sums of these classes."""
    m = _cohomology(model)
    if not m.has_cup_z(c.degree, v.degree):
        raise PreconditionError(f"half products need the integral product tensor ({c.degree},{v.degree}) (cupZ)")
    w = m.cup_z(c, v)
    if not m.rho2_map(w).is_zero():
        raise ModelInvariantError("product of the chosen lifts is not divisible by 2")
    orders = m.z_orders(8)
    half, order_two = [], []
    for t, (coord, o) in enumerate(zip(w.coords, orders)):
        coord = int(coord)
        if o % 2:
            half.append((coord * pow(2, -1, o)) % o)
            continue
        if coord % 2:
            raise ModelInvariantError(f"even product has an odd {'torsion' if o else 'free'} coordinate")
        half.append(coord // 2)
        if o:
            order_two.append(m.z(8, [o // 2 if s == t else 0 for s in range(len(orders))]))
    return m.z(8, half), order_two


# -- the top invariant ---------------------------------------------------------


def sigma_w4(model: ManifoldModel, sw: SWClasses):
    """<w4 . phi_hat, [M]> for spin models: 0/1, or None when phi_hat is
    needed but absent.  w4 = 0 forces the value 0 without phi_hat."""
    m = model.cohomology
    if not sw.w[2].is_zero():
        raise PreconditionError("the top invariant is defined for spin models only")
    w4 = sw.w[4]
    if w4.is_zero():
        return 0
    if model.phi_hat is None:
        return None
    return m.pair(w4, model.phi_hat)


def spinc_data(model, sw: SWClasses, rng=None) -> SpincData:
    """Choose integral lifts c of w2 and v of w6 plus a half product.

    With ``rng`` the lifts are randomized inside their coset and the half
    product gains a random subset of the order-2 classes of degree 8, which
    is how the choice-independence guarantees are exercised.
    """
    m = _cohomology(model)
    if not sw.W3.is_zero():
        raise PreconditionError("integral lift data needs a vanishing degree-3 integral class")
    lift = (lambda x: random_integral_lift(model, x, rng)) if rng is not None else (
        lambda x: integral_lift(model, x)
    )
    c = lift(sw.w[2])
    v = lift(sw.w[6])
    if c is None:
        raise ModelInvariantError("w2 has no integral lift despite vanishing Bockstein")
    if v is None:
        raise ModelInvariantError("w6 has no integral lift: impossible for a closed manifold model with vanishing degree-3 class")
    half, order_two = half_product_solutions(c, v, model)
    if rng is not None:
        half = m.z(8, half.vec() + sum(int(rng.integers(0, 2)) * g.vec() for g in order_two))
    return SpincData(c=c, v=v, half_cv=half)
