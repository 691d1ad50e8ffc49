"""The contact-structure decision procedure for closed orientable 9-manifolds.

The verdict walks the obstruction trail: the degree-3 integral class, the
degree-7 integral class (always zero once degree 3 vanishes; asserted live),
the degree-8 coset, and the top mod-2 invariant.  A model with insufficient
data (missing tangential invariant class, or a secondary-operation value the
theory does not determine) yields an explicit Undetermined outcome rather
than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import f2
from .charclasses import (
    CosetH8, ModelInvariantError, PreconditionError, SWClasses, WuClasses,
    bockstein_vanishes_on, compute_dm, half_product_solutions, integral_lift,
    sigma_w4, spinc_data, sq2_image_subspace,
)
from .model import CohomologyModel, ManifoldModel, ZClass, _reduce_rows, connected_sum, transform_model, validate

__all__ = [
    "Outcome", "ObstructionStage", "O8Branch", "MissingDatum", "Trail", "Verdict",
    "ValidationFailedError", "GradedIso", "Analysis", "analyse",
    "evaluate_omega_pc", "decide", "decide_connected_sum",
    "check_w7_theorem", "homotopy_invariance_check",
]


class Outcome(str, Enum):
    CONTACT = "contact"
    NO_CONTACT = "no_contact"
    UNDETERMINED = "undetermined"


class ObstructionStage(str, Enum):
    W3 = "W3"      # degree-3 integral class nonzero
    O8 = "O8"      # degree-8 coset nonzero (non-spin branch)
    W8 = "W8"      # w8 nonzero (spin branch)
    O9 = "O9"      # top invariant equal to 1


class O8Branch(str, Enum):
    """How the degree-8 coset is obtained once the degree-3 class vanishes."""

    SPIN = "spin"                    # the class of w8
    W4_ZERO = "w4_zero"              # the zero coset
    LIFT_FORMULA = "lift_formula"    # [w8 - rho2(cv/2)] from integral lifts
    SUPPLIED = "supplied"            # the model's omega_pc
    UNDETERMINED = "undetermined"    # neither the theory nor the data decide it


class MissingDatum(str, Enum):
    PHI_HAT = "phi_hat"
    OMEGA_VALUE = "omega_value"


class ValidationFailedError(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"model failed validation:\n{report}")


@dataclass
class Trail:
    """The obstruction record: entries are None when never reached."""

    o3: ZClass
    o7: ZClass | None = None
    o8: CosetH8 | None = None
    o9: int | None = None


@dataclass
class Verdict:
    outcome: Outcome
    obstruction: ObstructionStage | None
    missing: MissingDatum | None
    trail: Trail
    witness: str
    label: str = ""

    def agrees_with(self, other: "Verdict") -> bool:
        if self.outcome != other.outcome:
            return False
        if self.outcome == Outcome.UNDETERMINED:
            return self.missing == other.missing
        return True

    def __str__(self):
        tail = ""
        if self.obstruction:
            tail = f" at {self.obstruction.value}"
        if self.missing:
            tail = f" (missing {self.missing.value})"
        return f"{self.label or 'model'}: {self.outcome.value}{tail}"


@dataclass(frozen=True)
class Analysis:
    """The facts of one validated model that involve no choice: its Wu and
    Stiefel-Whitney classes (with W3 and W7), the degree-one subspace D_M,
    the subspace Sq^2(rho2 H^6) of H^8 that the degree-8 coset lives modulo,
    and, once W3 vanishes, the outcome of the degree-7 check, the o8 branch
    and (spin branch only) the top invariant.

    Built once by ``analyse`` and passed explicitly; every run of the
    decision procedure on it repeats only the choice of integral lifts and
    half products.
    """

    model: ManifoldModel
    wu: WuClasses
    sw: SWClasses
    dm: f2.Subspace
    sq2_image: f2.Subspace
    w7_vanishes: bool | None = None  # None when W3 != 0
    branch: O8Branch | None = None   # None when W3 != 0
    sigma: int | None = None         # on the spin branch, None when phi_hat is needed but absent

    def coset(self, x) -> CosetH8:
        """The degree-8 coset represented by x."""
        return CosetH8(x, self.sq2_image)


def analyse(model: ManifoldModel) -> Analysis:
    """Validate a 9-manifold model once and derive its choice-free facts;
    raises ``ValidationFailedError`` on an invalid model and
    ``PreconditionError`` outside the procedure's scope."""
    report = validate(model)
    if not report.ok:
        raise ValidationFailedError(report)
    m = model.cohomology
    if not m.orientable:
        raise PreconditionError("the decision procedure needs an orientable model")
    sw = report.sw
    dm, sq2_image = compute_dm(model, sw), sq2_image_subspace(m, 6)
    w7_vanishes = branch = sigma = None
    if sw.W3.is_zero():
        w7_vanishes = _w7_vanishes(m, sw)
        if sw.w[2].is_zero():
            branch, sigma = O8Branch.SPIN, sigma_w4(model, sw)
        elif sw.w[4].is_zero():
            branch = O8Branch.W4_ZERO
        elif bockstein_vanishes_on(m, dm):
            branch = O8Branch.LIFT_FORMULA
            # half products of cv differ by the solutions of 2d = 0, the subset
            # sums of the order-2 classes of H^8: the coset is well defined iff
            # their reductions lie in the subspace
            _, order_two = half_product_solutions(m.zero_z(2), m.zero_z(6), m)
            if not all(sq2_image.contains(m.rho2_map(g).vec()) for g in order_two):
                raise ModelInvariantError(
                    "degree-8 coset depends on the half-product choice; contradicts well-definedness"
                )
        else:
            branch = O8Branch.SUPPLIED if model.omega_pc is not None else O8Branch.UNDETERMINED
    return Analysis(model, report.wu, sw, dm, sq2_image, w7_vanishes, branch, sigma)


def _analysis(model: ManifoldModel | Analysis) -> Analysis:
    return model if isinstance(model, Analysis) else analyse(model)


def evaluate_omega_pc(model: ManifoldModel | Analysis, *, rng=None) -> CosetH8 | None:
    """The degree-8 obstruction coset on the analysis's o8 branch, or None
    when neither the theory nor the data determine it.  Only the lifts and
    the half product of the lift formula depend on ``rng``.
    """
    a = _analysis(model)
    m, w8 = a.model.cohomology, a.sw.w[8]
    if a.branch is None:
        raise PreconditionError("the degree-8 coset needs a vanishing degree-3 integral class")
    if a.branch is O8Branch.SPIN:
        return a.coset(w8)
    if a.branch is O8Branch.W4_ZERO:
        return a.coset(m.zero_f2(8))
    if a.branch is O8Branch.LIFT_FORMULA:
        return a.coset(w8 + m.rho2_map(spinc_data(a.model, a.sw, rng=rng).half_cv))
    if a.branch is O8Branch.SUPPLIED:
        return a.coset(a.model.omega_pc)
    return None


def check_w7_theorem(model: ManifoldModel | Analysis) -> bool:
    """The degree-7 vanishing statement, as ``analyse`` checked it."""
    a = _analysis(model)
    if a.w7_vanishes is None:
        raise PreconditionError("the degree-7 vanishing statement assumes the degree-3 class vanishes")
    return a.w7_vanishes


def _w7_vanishes(m: CohomologyModel, sw: SWClasses) -> bool:
    """Three equivalent forms of the degree-7 vanishing statement, computed
    independently; they must agree (their disagreement is an engine bug)."""
    w6 = sw.w[6]
    via_bockstein = sw.W7.is_zero()
    via_lift = integral_lift(m, w6) is not None
    torsion = m.rho2[3][:, m.piece(3).z_rank:]  # reductions of the degree-3 torsion generators
    torsion_ok = not f2.mat_vec(torsion.T, f2.mat_vec(m.pairing_matrix(3), w6.vec())).any()
    if not (via_bockstein == via_lift == torsion_ok):
        raise AssertionError(
            "inconsistent degree-7 checks: "
            f"bockstein={via_bockstein} lift={via_lift} torsion={torsion_ok}"
        )
    return via_bockstein


def decide(model: ManifoldModel | Analysis, seed: int | None = None) -> Verdict:
    """Decide existence of an (over-twisted) contact structure.

    With ``seed`` the internal choices (integral lifts, half products) are
    randomized inside their allowed sets; the verdict must not change, which
    is what the choice-independence suites verify.  Given an ``Analysis``,
    the model is not validated or analysed again.
    """
    a = _analysis(model)
    model, m, sw = a.model, a.model.cohomology, a.sw
    rng = np.random.default_rng(seed) if seed is not None else None
    label = model.label or m.label

    trail = Trail(o3=sw.W3)
    if not sw.W3.is_zero():
        return Verdict(
            Outcome.NO_CONTACT, ObstructionStage.W3, None, trail,
            witness=f"degree-3 integral class has coordinates {sw.W3.coords}",
            label=label,
        )

    if not a.w7_vanishes:
        raise ModelInvariantError(
            "degree-7 integral class nonzero on a model with vanishing degree-3 class"
        )
    trail.o7 = m.zero_z(7)

    omega = evaluate_omega_pc(a, rng=rng)
    trail.o8 = omega

    if a.branch is O8Branch.SPIN:
        # the coset subspace vanishes for spin models, so omega is just [w8]
        if not omega.is_zero():
            return Verdict(
                Outcome.NO_CONTACT, ObstructionStage.W8, None, trail,
                witness=f"w8 has coordinates {sw.w[8].bits}",
                label=label,
            )
        trail.o9 = sigma = a.sigma
        if sigma is None:
            return Verdict(
                Outcome.UNDETERMINED, None, MissingDatum.PHI_HAT, trail,
                witness="w4 is nonzero and no tangential invariant class was supplied",
                label=label,
            )
        if sigma:
            return Verdict(
                Outcome.NO_CONTACT, ObstructionStage.O9, None, trail,
                witness="the pairing of w4 with the tangential invariant class equals 1",
                label=label,
            )
        return Verdict(Outcome.CONTACT, None, None, trail, witness="all obstructions vanish", label=label)

    # non-spin branch: the top obstruction always vanishes here
    if omega is None:
        return Verdict(
            Outcome.UNDETERMINED, None, MissingDatum.OMEGA_VALUE, trail,
            witness="secondary-operation value not determined by the data",
            label=label,
        )
    if not omega.is_zero():
        return Verdict(
            Outcome.NO_CONTACT, ObstructionStage.O8, None, trail,
            witness=(
                "degree-8 coset representative "
                f"{omega.representative.bits} nonzero modulo a subspace of dimension {omega.subspace.dim}"
            ),
            label=label,
        )
    trail.o9 = 0
    return Verdict(Outcome.CONTACT, None, None, trail, witness="all obstructions vanish", label=label)


def decide_connected_sum(a: ManifoldModel, b: ManifoldModel, seed: int | None = None) -> Verdict:
    """Verdict for the connected sum computed from the summands' invariants,
    cross-checked against deciding the assembled sum whenever both sides are
    determined.  Each summand and the sum are analysed once."""
    aa, ab = analyse(a), analyse(b)
    label = f"{a.label or a.cohomology.label}#{b.label or b.cohomology.label}"

    verdict = _sum_verdict_from_clauses(aa, ab, label, seed)

    direct = decide(connected_sum(a, b), seed=seed)
    if (
        verdict.outcome != Outcome.UNDETERMINED
        and direct.outcome != Outcome.UNDETERMINED
        and verdict.outcome != direct.outcome
    ):
        raise AssertionError(
            f"summand-based verdict {verdict.outcome} disagrees with the assembled sum {direct.outcome}"
        )
    return verdict


def _sum_verdict_from_clauses(a: Analysis, b: Analysis, label, seed) -> Verdict:
    sw_a, sw_b = a.sw, b.sw
    trail = Trail(o3=_direct_sum_class(sw_a.W3, sw_b.W3))
    if not (sw_a.W3.is_zero() and sw_b.W3.is_zero()):
        return Verdict(
            Outcome.NO_CONTACT, ObstructionStage.W3, None, trail,
            witness="a summand has nonzero degree-3 integral class", label=label,
        )
    spin_a, spin_b = a.branch is O8Branch.SPIN, b.branch is O8Branch.SPIN
    if spin_a and spin_b:
        if not (sw_a.w[8].is_zero() and sw_b.w[8].is_zero()):
            return Verdict(
                Outcome.NO_CONTACT, ObstructionStage.W8, None, trail,
                witness="a summand has nonzero w8", label=label,
            )
        sig_a, sig_b = a.sigma, b.sigma
        if sig_a is None or sig_b is None:
            return Verdict(
                Outcome.UNDETERMINED, None, MissingDatum.PHI_HAT, trail,
                witness="a summand is missing its tangential invariant class", label=label,
            )
        if sig_a != sig_b:
            return Verdict(
                Outcome.NO_CONTACT, ObstructionStage.O9, None, trail,
                witness="top invariants of the summands differ", label=label,
            )
        return Verdict(Outcome.CONTACT, None, None, trail, witness="clause for two spin summands", label=label)
    if spin_a or spin_b:
        spin_sw, other = (sw_a, b) if spin_a else (sw_b, a)
        if not spin_sw.w[8].is_zero():
            return Verdict(
                Outcome.NO_CONTACT, ObstructionStage.O8, None, trail,
                witness="the spin summand has nonzero w8", label=label,
            )
        sub = decide(other, seed=seed)
        return Verdict(sub.outcome, sub.obstruction, sub.missing, trail,
                       witness=f"inherited from {other.model.label}", label=label)
    va = decide(a, seed=seed)
    vb = decide(b, seed=seed)
    for v in (va, vb):
        if v.outcome == Outcome.NO_CONTACT:
            return Verdict(
                Outcome.NO_CONTACT, v.obstruction, None, trail,
                witness=f"summand {v.label} admits no contact structure", label=label,
            )
    for v in (va, vb):
        if v.outcome == Outcome.UNDETERMINED:
            return Verdict(Outcome.UNDETERMINED, None, v.missing, trail,
                           witness=f"summand {v.label} undetermined", label=label)
    return Verdict(Outcome.CONTACT, None, None, trail,
                   witness="both non-spin summands admit contact structures", label=label)


def _direct_sum_class(za: ZClass, zb: ZClass) -> ZClass:
    # formal juxtaposition used only for reporting the sum trail
    return ZClass(za.degree, tuple(list(za.coords) + list(zb.coords)))


# -- homotopy invariance -------------------------------------------------------


@dataclass
class GradedIso:
    """A degree-preserving generator correspondence between two models.

    ``f2_maps[d]`` sends mod-2 coordinates of the source to the target;
    ``z_maps[d]`` and ``z_inv_maps[d]`` do the same integrally (with torsion
    coordinates understood modulo their orders).
    """

    f2_maps: dict
    z_maps: dict
    z_inv_maps: dict


class IsoRejected(ValueError):
    pass


# the IsoRejected message for each family of CohomologyModel.differences
_ISO_MESSAGES = {
    "sq": "Sq^{} does not commute in degree {}",
    "beta": "Bockstein does not commute in degree {}",
    "rho2": "reduction does not commute in degree {}",
    "cup2": "cup product does not commute at ({},{})",
    "cup_int": "integral product does not commute at ({},{})",
    "cup2 missing": "product tensor ({},{}) missing on one side",
    "cup_int missing": "integral product tensor ({},{}) missing on one side",
}


def _verify_iso(a: ManifoldModel, b: ManifoldModel, iso: GradedIso):
    """Check that the correspondence is invertible and carries a onto b: a
    carried along it must have b's tables, compared by
    ``CohomologyModel.differences``, and b's extra classes."""
    ma, mb = a.cohomology, b.cohomology
    if ma.dimension != mb.dimension:
        raise IsoRejected("dimension mismatch")
    n = ma.dimension
    F, Z, H = [], [], []  # the mod-2 maps, the integral maps and their inverses
    for d in range(n + 1):
        f = np.asarray(iso.f2_maps.get(d, np.zeros((0, 0))), dtype=np.uint8) & 1
        if f.shape != (mb.f2_dim(d), ma.f2_dim(d)):
            raise IsoRejected(f"mod-2 map in degree {d} has the wrong shape")
        if ma.f2_dim(d) and not f2.is_invertible(f):
            raise IsoRejected(f"mod-2 map in degree {d} not invertible")
        if ma.piece(d).z_orders != mb.piece(d).z_orders:
            raise IsoRejected(f"integral generator signature differs in degree {d}")
        orders, eye = ma.z_orders(d), np.eye(ma.z_gens(d), dtype=object)
        z, zi = (np.asarray(maps.get(d, eye[:0]), dtype=object) for maps in (iso.z_maps, iso.z_inv_maps))
        if z.shape != eye.shape or zi.shape != eye.shape or (
            not np.array_equal(_reduce_rows(zi.dot(_reduce_rows(z, orders)), orders), eye)
        ):
            raise IsoRejected(f"integral map in degree {d} is not invertible")
        F.append(f)
        Z.append(_reduce_rows(z, orders))
        H.append(_reduce_rows(zi, orders))
    if ma.orientable != mb.orientable:
        raise IsoRejected("orientability differs")
    if ma.orientable and not np.array_equal(Z[n][:, :1], [[1]]):
        raise IsoRejected("orientation class not preserved")
    try:
        carried = transform_model(a, F, [f2.inverse(f) for f in F], Z, H)
    except OverflowError:  # a carried Bockstein past int64 cannot be b's
        raise IsoRejected("Bockstein does not commute") from None
    for family, key in carried.cohomology.differences(mb):  # the first difference
        raise IsoRejected(_ISO_MESSAGES[family].format(*np.atleast_1d(key)))
    # extra data must correspond when present on both sides
    if (a.phi_hat is None) != (b.phi_hat is None):
        raise IsoRejected("tangential invariant class present on only one side")
    if carried.phi_hat != b.phi_hat:
        raise IsoRejected("tangential invariant class not preserved")
    if (a.omega_pc is None) != (b.omega_pc is None):
        raise IsoRejected("supplied obstruction coset present on only one side")
    if a.omega_pc is not None:
        sub = sq2_image_subspace(mb, 6)
        if CosetH8(carried.omega_pc, sub) != CosetH8(b.omega_pc, sub):
            raise IsoRejected("supplied obstruction coset not preserved")


def homotopy_invariance_check(a: ManifoldModel, b: ManifoldModel, iso: GradedIso) -> bool:
    """Verify the correspondence, then compare the two verdicts.

    Returns True iff the outcomes agree (Undetermined only matches
    Undetermined for the same missing datum).  A correspondence that fails
    the structure checks is rejected with an exception, not a verdict.
    """
    _verify_iso(a, b, iso)
    return decide(a).agrees_with(decide(b))
