"""The decision procedure: verdict corpus, obstruction trails, connected-sum
clauses, and homotopy invariance."""

from dataclasses import replace

import numpy as np
import pytest

from contact9 import charclasses, f2
from contact9.charclasses import PreconditionError, sw_classes
from contact9.decider import (
    GradedIso, IsoRejected, MissingDatum, ObstructionStage, Outcome,
    ValidationFailedError, _verify_iso, analyse, check_w7_theorem, decide, decide_connected_sum,
    evaluate_omega_pc, homotopy_invariance_check,
)
from contact9.complexes import sphere
from contact9.library import LIBRARY_NAMES, base_models, library, synthetic_spinc_models
from contact9.model import (
    CohomologyModel, GradedPiece, ManifoldModel, build_product, connected_sum, from_simplicial,
    random_model_iso, transform_model,
)

EXPECTED = {
    "S9": (Outcome.CONTACT, None),
    "S1xHP2": (Outcome.NO_CONTACT, ObstructionStage.W8),
    "S1xCP4": (Outcome.CONTACT, None),
    "Dold_5_2": (Outcome.NO_CONTACT, ObstructionStage.W3),
    "M1_surgered": (Outcome.NO_CONTACT, ObstructionStage.O9),
    "M3_sum": (Outcome.NO_CONTACT, ObstructionStage.O8),
}


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_corpus_verdicts(name):
    v = decide(library(name))
    outcome, stage = EXPECTED[name]
    assert v.outcome == outcome
    assert v.obstruction == stage


def test_analyse_derives_sw_classes_once(monkeypatch):
    """Validation's nine-manifold check derives w once; analyse reuses it."""
    calls = {"sw_from_wu": 0, "nine_manifold_identities": 0}
    for name in calls:
        def counted(*args, _f=getattr(charclasses, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(charclasses, name, counted)
    model = library("S1xCP4")
    a = analyse(model)
    assert calls == {"sw_from_wu": 1, "nine_manifold_identities": 1}
    monkeypatch.undo()
    assert a.sw == sw_classes(model)


def test_branch_exclusivity():
    """Each verdict's obstruction stage belongs to the branch its w2
    determines: spin models can only stop at W8/O9, non-spin at W3/O8."""
    spin_stages = {ObstructionStage.W8, ObstructionStage.O9, None}
    nonspin_stages = {ObstructionStage.W3, ObstructionStage.O8, None}
    for name in LIBRARY_NAMES:
        m = library(name)
        spin = sw_classes(m).w[2].is_zero()
        v = decide(m)
        assert v.obstruction in (spin_stages if spin else nonspin_stages), name


def test_trail_structure():
    v = decide(library("S9"))
    assert v.trail.o3.is_zero()
    assert v.trail.o7 is not None and v.trail.o7.is_zero()
    assert v.trail.o8 is not None and v.trail.o8.is_zero()
    assert v.trail.o9 == 0

    v = decide(library("Dold_5_2"))
    assert not v.trail.o3.is_zero()
    assert v.trail.o7 is None and v.trail.o8 is None and v.trail.o9 is None

    v = decide(library("S1xHP2"))
    assert v.trail.o8 is not None and not v.trail.o8.is_zero()
    assert v.trail.o8.subspace.dim == 0  # spin: the subspace vanishes
    assert v.trail.o9 is None


def test_no_contact_witnesses_reverify():
    """Nonzero witnesses recompute correctly from the model."""
    v = decide(library("S1xHP2"))
    sw = sw_classes(library("S1xHP2"))
    assert v.trail.o8.representative == sw.w[8]
    v = decide(library("M1_surgered"))
    assert v.trail.o9 == 1
    m = library("M1_surgered")
    assert m.cohomology.pair(sw_classes(m).w[4], m.phi_hat) == 1
    v = decide(library("Dold_5_2"))
    assert v.trail.o3 == sw_classes(library("Dold_5_2")).W3


def test_omega_pc_examples():
    assert evaluate_omega_pc(library("S9")).is_zero()
    omega = evaluate_omega_pc(library("S1xHP2"))
    assert not omega.is_zero() and omega.subspace.dim == 0
    assert evaluate_omega_pc(library("S1xCP4")).is_zero()
    omega = evaluate_omega_pc(library("M3_sum"))
    assert omega is not None and not omega.is_zero()


def test_omega_pc_requires_spinc():
    with pytest.raises(PreconditionError):
        evaluate_omega_pc(library("Dold_5_2"))


def test_sphere9_triangulation_decides_contact():
    """The boundary of the 10-simplex, through the simplicial engine."""
    m = from_simplicial(sphere(9), label="dDelta10")
    assert decide(ManifoldModel(m, label="dDelta10")).outcome == Outcome.CONTACT


def test_omega_pc_w4_zero_branch():
    m = library("S1xCP4")
    sw = sw_classes(m)
    assert not sw.w[2].is_zero() and sw.w[4].is_zero()
    assert evaluate_omega_pc(analyse(m)).is_zero()


def test_undetermined_phi_hat():
    m = library("M1_surgered")
    stripped = ManifoldModel(m.cohomology, phi_hat=None, label="M1 (no data)")
    v = decide(stripped)
    assert v.outcome == Outcome.UNDETERMINED
    assert v.missing == MissingDatum.PHI_HAT


def test_omega_pc_external_value_branch():
    """A model in the genuinely secondary regime must consume the supplied
    coset or return None."""
    base = synthetic_spinc_models()[0]  # torsion-rich: RP5 x CP2
    m = base.cohomology

    # Fabricate the regime by checking the real branch first: this model has
    # the Bockstein vanishing on its degree-one subspace, so the computed
    # branch applies and the external value must be ignored.
    supplied = ManifoldModel(m, omega_pc=m.f2(8, [1]), label="supplied")
    v1 = decide(base)
    v2 = decide(supplied)
    assert v1.outcome == v2.outcome  # computed branch wins; data ignored


def test_decide_seed_invariance():
    rng = np.random.default_rng(8)
    for name in LIBRARY_NAMES:
        base = decide(library(name))
        for _ in range(20):
            v = decide(library(name), seed=int(rng.integers(0, 2**31)))
            assert v.outcome == base.outcome and v.obstruction == base.obstruction


def test_decide_connected_sum_matrix():
    names = list(LIBRARY_NAMES)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = library(names[i]), library(names[j])
            clause = decide_connected_sum(a, b)                    # asserts agreement internally
            direct = decide(connected_sum(a, b))
            assert clause.outcome == direct.outcome, (names[i], names[j])
            if clause.outcome == Outcome.NO_CONTACT:
                assert clause.obstruction == direct.obstruction


def test_decide_connected_sum_sphere_unit():
    for name in LIBRARY_NAMES:
        x = library(name)
        v = decide_connected_sum(library("S9"), x)
        w = decide(x)
        assert v.outcome == w.outcome
        if v.outcome == Outcome.NO_CONTACT:
            assert v.obstruction == w.obstruction


def test_decide_connected_sum_m1_m1_contact():
    v = decide_connected_sum(library("M1_surgered"), library("M1_surgered"))
    assert v.outcome == Outcome.CONTACT


def test_decide_connected_sum_m0_n_matches_paper():
    v = decide_connected_sum(library("S1xHP2"), library("S1xCP4"))
    assert v.outcome == Outcome.NO_CONTACT
    assert v.obstruction == ObstructionStage.O8


def test_homotopy_invariance_identity():
    m = library("S1xCP4")
    c = m.cohomology
    iso = GradedIso(
        f2_maps={d: np.eye(c.f2_dim(d), dtype=np.uint8) for d in range(10)},
        z_maps={d: np.eye(c.z_gens(d), dtype=object) for d in range(10)},
        z_inv_maps={d: np.eye(c.z_gens(d), dtype=object) for d in range(10)},
    )
    assert homotopy_invariance_check(m, library("S1xCP4"), iso)


def test_homotopy_invariance_relabeled():
    rng = np.random.default_rng(1212)
    for name in LIBRARY_NAMES:
        m = library(name)
        f2m, f2i, zm, zi = random_model_iso(m, rng, permutation_only=True)
        other = transform_model(m, f2m, f2i, zm, zi)
        iso = GradedIso(f2_maps=f2m, z_maps=zm, z_inv_maps=zi)
        assert homotopy_invariance_check(m, other, iso)


def test_homotopy_invariance_rejects_broken_iso():
    """Two models with identical shapes but different Steenrod action: the
    identity correspondence drops the Sq relation and must be rejected."""
    m1 = library("M1_surgered")
    s4s5 = build_product(base_models()["S4"], base_models()["S5"])
    fake = ManifoldModel(s4s5, phi_hat=s4s5.f2(5, [1]), label="S4xS5")
    c = m1.cohomology
    iso = GradedIso(
        f2_maps={d: np.eye(c.f2_dim(d), dtype=np.uint8) for d in range(10)},
        z_maps={d: np.eye(c.z_gens(d), dtype=object) for d in range(10)},
        z_inv_maps={d: np.eye(c.z_gens(d), dtype=object) for d in range(10)},
    )
    with pytest.raises(IsoRejected, match="Sq"):
        homotopy_invariance_check(m1, fake, iso)


def _with_cohomology(model: ManifoldModel, **change) -> ManifoldModel:
    """The manifold model with some fields of its cohomology replaced."""
    c = model.cohomology
    fields = dict(
        dimension=c.dimension, pieces=c.pieces, rho2=c.rho2, beta=c.beta, sq=c.sq,
        cup2=c.cup2, cup_int=c.cup_int, orientable=c.orientable, label=c.label,
    )
    fields.update(change)
    return ManifoldModel(CohomologyModel(**fields), model.phi_hat, model.omega_pc, model.label)


def _replaced(items, index, value) -> list:
    out = list(items)
    out[index] = value
    return out


def _with_supplied_coset(name: str) -> ManifoldModel:
    m = library(name)
    return ManifoldModel(m.cohomology, omega_pc=sw_classes(m).w[8], label=m.label)


def _maps(**changed):
    """Perturbation replacing maps of the correspondence: field=(degree, map)."""
    def perturb(b, iso):
        return b, replace(iso, **{f: {**getattr(iso, f), d: v} for f, (d, v) in changed.items()})
    return perturb


def _tables(**changed):
    """Perturbation rebuilding the copy with fields computed from its cohomology."""
    def perturb(b, iso):
        return _with_cohomology(b, **{k: f(b.cohomology) for k, f in changed.items()}), iso
    return perturb


def _classes(**classes):
    """Perturbation replacing the copy's extra classes (absent unless given)."""
    def perturb(b, iso):
        c = b.cohomology
        return ManifoldModel(c, label=b.label, **{k: f(c) for k, f in classes.items()}), iso
    return perturb


def _torsion_to_free(d: int, entry: int):
    """Perturbation composing the integral map of degree d with the base change
    that adds ``entry`` times the last (torsion) coordinate to the first (free)
    one, and its inverse with the inverse change, so the round trip holds.
    The map then sends a torsion generator onto a free one, which no
    homomorphism does, and the carried Bockstein gains ``entry`` in a free row."""
    def perturb(b, iso):
        e, e_inv = (np.eye(b.cohomology.z_gens(d), dtype=object) for _ in range(2))
        e[0, -1], e_inv[0, -1] = entry, -entry
        return b, replace(
            iso, z_maps={**iso.z_maps, d: e.dot(iso.z_maps[d])},
            z_inv_maps={**iso.z_inv_maps, d: iso.z_inv_maps[d].dot(e_inv)},
        )
    return perturb


# (source model, perturbation of the based copy and its correspondence, message)
_MINUS_ONE = -np.eye(1, dtype=object)
ISO_FAULTS = {
    "shape": ("Dold_5_2", _maps(f2_maps=(4, f2.zeros(4, 3))),
              "mod-2 map in degree 4 has the wrong shape"),
    "singular": ("Dold_5_2", _maps(f2_maps=(4, f2.zeros(3, 3))),
                 "mod-2 map in degree 4 not invertible"),
    "signature": ("Dold_5_2", _tables(pieces=lambda c: _replaced(
        c.pieces, 2, GradedPiece(0, (4,), c.pieces[2].f2_basis))),
        "integral generator signature differs in degree 2"),
    "round_trip": ("Dold_5_2", _maps(z_inv_maps=(4, np.zeros((2, 2), dtype=object))),
                   "integral map in degree 4 is not invertible"),
    "bockstein_past_int64": ("Dold_5_2", _torsion_to_free(4, 2**70), "Bockstein does not commute$"),
    "bockstein": ("Dold_5_2", _tables(beta=lambda c: _replaced(c.beta, 1, c.beta[1] + 1)),
                  "Bockstein does not commute in degree 1$"),
    "reduction": ("Dold_5_2", _tables(rho2=lambda c: _replaced(c.rho2, 4, c.rho2[4] ^ 1)),
                  "reduction does not commute in degree 4"),
    "cup": ("Dold_5_2", _tables(cup2=lambda c: {**c.cup2, (1, 1): c.cup2[(1, 1)] ^ 1}),
            r"cup product does not commute at \(1,1\)"),
    "cup_missing": ("Dold_5_2", _tables(cup2=lambda c: {k: t for k, t in c.cup2.items() if k != (1, 1)}),
                    r"product tensor \(1,1\) missing on one side"),
    "orientability": ("Dold_5_2", _tables(orientable=lambda c: False),
                      "orientability differs"),
    "orientation": ("Dold_5_2", _maps(z_maps=(9, _MINUS_ONE), z_inv_maps=(9, _MINUS_ONE)),
                    "orientation class not preserved"),
    "phi_hat_missing": ("S1xHP2", _classes(),
                        "tangential invariant class present on only one side"),
    "phi_hat": ("S1xHP2", _classes(phi_hat=lambda c: c.zero_f2(5)),
                "tangential invariant class not preserved"),
    "omega_pc_missing": ("M3_sum", _classes(),
                         "supplied obstruction coset present on only one side"),
    "omega_pc": ("M3_sum", _classes(omega_pc=lambda c: c.zero_f2(8)),
                 "supplied obstruction coset not preserved"),
    "cup_int": ("M3_sum", _tables(cup_int=lambda c: {**c.cup_int, (2, 6): -c.cup_int[(2, 6)]}),
                r"integral product does not commute at \(2,6\)"),
    "cup_int_missing": ("M3_sum", _tables(cup_int=lambda c: {k: t for k, t in c.cup_int.items() if k != (2, 6)}),
                        r"integral product tensor \(2,6\) missing on one side"),
}


@pytest.mark.parametrize("case", sorted(ISO_FAULTS))
def test_verify_iso_rejects_each_broken_identity(case):
    """A based copy and its correspondence pass; one perturbed map or field
    is rejected with the message of the identity it breaks."""
    name, perturb, message = ISO_FAULTS[case]
    a = _with_supplied_coset(name) if name == "M3_sum" else library(name)
    f2m, f2i, zm, zi = random_model_iso(a, np.random.default_rng(404))
    b = transform_model(a, f2m, f2i, zm, zi)
    iso = GradedIso(f2_maps=f2m, z_maps=zm, z_inv_maps=zi)
    _verify_iso(a, b, iso)
    with pytest.raises(IsoRejected, match=message):
        _verify_iso(a, *perturb(b, iso))


def test_s4xs5_contact_but_m1_not():
    """Same additive structure, different tangential data, different verdict:
    the decision is driven by the operation tables, not the Betti numbers."""
    s4s5 = build_product(base_models()["S4"], base_models()["S5"])
    fake = ManifoldModel(s4s5, phi_hat=s4s5.f2(5, [1]), label="S4xS5")
    assert decide(fake).outcome == Outcome.CONTACT
    assert decide(library("M1_surgered")).outcome == Outcome.NO_CONTACT


def test_decide_rejects_invalid_model():
    import numpy as np

    from contact9.model import CohomologyModel

    m = library("S1xCP4").cohomology
    cup2 = {k: np.array(v) for k, v in m.cup2.items()}
    cup2[(2, 7)] = np.zeros_like(cup2[(2, 7)])
    broken = CohomologyModel(
        dimension=9, pieces=m.pieces, rho2=[np.array(r) for r in m.rho2],
        beta=[np.array(b) for b in m.beta], sq={k: np.array(v) for k, v in m.sq.items()},
        cup2=cup2, cup_int={k: np.array(v) for k, v in m.cup_int.items()},
        orientable=True, label="broken",
    )
    with pytest.raises(ValidationFailedError):
        decide(ManifoldModel(broken))


def test_secondary_regime_consumes_supplied_coset(monkeypatch):
    """When the degree-one hypothesis fails, the decider never computes the
    coset itself: it consumes the supplied value or reports what is missing."""
    import contact9.decider as dec

    monkeypatch.setattr(dec, "bockstein_vanishes_on", lambda m, sub: False)
    base = library("M3_sum")  # w2 != 0, w4 != 0, W3 = 0
    m = base.cohomology

    v = decide(ManifoldModel(m, label="no data"))
    assert v.outcome == Outcome.UNDETERMINED
    assert v.missing == MissingDatum.OMEGA_VALUE

    # supplied nonzero coset -> obstructed at the degree-8 stage
    supplied = ManifoldModel(m, omega_pc=sw_classes(base).w[8], label="with coset")
    v = decide(supplied)
    assert v.outcome == Outcome.NO_CONTACT and v.obstruction == ObstructionStage.O8

    # supplied value inside the subspace -> zero coset -> contact
    from contact9.charclasses import sq2_image_subspace

    sub = sq2_image_subspace(m, 6)
    assert sub.dim > 0
    inside = ManifoldModel(m, omega_pc=m.f2(8, sub.basis[0]), label="zero coset")
    v = decide(inside)
    assert v.outcome == Outcome.CONTACT


def test_contact_trail_fully_vanishing():
    """A contact verdict always exhibits the complete vanishing trail."""
    contact_models = [library("S9"), library("S1xCP4")]
    contact_models.append(connected_sum(library("M1_surgered"), library("M1_surgered")))
    for m in contact_models:
        v = decide(m)
        assert v.outcome == Outcome.CONTACT
        assert v.trail.o3.is_zero()
        assert v.trail.o7 is not None and v.trail.o7.is_zero()
        assert v.trail.o8 is not None and v.trail.o8.is_zero()
        assert v.trail.o9 == 0
