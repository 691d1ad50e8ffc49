"""Acceptance criteria for the package, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in verbose
failure output) and enforces the stated runtime budgets.  Everything is
exact: there are no numeric tolerances anywhere.
"""

import time

import numpy as np
import pytest

from contact9 import f2
from contact9.charclasses import (
    CosetH8, bockstein_vanishes_on, compute_dm, reduction_image_subspace,
    bockstein_kernel_subspace, spinc_data, sq2_image_subspace, sw_classes,
)
from contact9.cohomology import Cohomology, pullback_cochain
from contact9.complexes import cp2_9, random_complex, rp2_6, rp3_40, sphere, torus_7
from contact9.decider import (
    GradedIso, ObstructionStage, Outcome, check_w7_theorem, decide,
    decide_connected_sum, homotopy_invariance_check,
)
from contact9.library import LIBRARY_NAMES, library, synthetic_spinc_models
from contact9.model import (
    connected_sum, from_simplicial, random_model_iso, transform_model, validate,
)
from contact9.simplicial import SimplicialComplex


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_paper_verdict_corpus():
    """The six library models reproduce the published determinations."""
    t0 = time.monotonic()
    expected = {
        "S9": (Outcome.CONTACT, None),
        "S1xHP2": (Outcome.NO_CONTACT, ObstructionStage.W8),
        "M1_surgered": (Outcome.NO_CONTACT, ObstructionStage.O9),
        "Dold_5_2": (Outcome.NO_CONTACT, ObstructionStage.W3),
        "S1xCP4": (Outcome.CONTACT, None),
        "M3_sum": (Outcome.NO_CONTACT, ObstructionStage.O8),
    }
    mismatches = []
    for name, (outcome, stage) in expected.items():
        v = decide(library(name))
        if v.outcome != outcome or v.obstruction != stage:
            mismatches.append(f"{name}: got {v.outcome}/{v.obstruction}")
    elapsed = time.monotonic() - t0
    report(
        1,
        not mismatches and elapsed < 5.0,
        f"6 verdicts match in {elapsed:.2f}s (<5s)" if not mismatches else "; ".join(mismatches),
    )


def test_criterion_2_w7_vanishing_suite():
    """Degree-7 integral class vanishes on every valid spin^c model,
    including randomized valid mutations, with all three clause checks in
    agreement."""
    rng = np.random.default_rng(271828)
    spinc = [
        m
        for m in [library(n) for n in LIBRARY_NAMES] + synthetic_spinc_models()
        if sw_classes(m).W3.is_zero()
    ]
    pool = list(spinc)
    for k in range(10):
        src = spinc[k % len(spinc)]
        maps = random_model_iso(src, rng, permutation_only=bool(k % 2))
        mutant = transform_model(src, *maps)
        rep = validate(mutant)
        if not rep.ok:
            report(2, False, f"mutation of {src.label} failed validation: {rep}")
        pool.append(mutant)
    bad = []
    for m in pool:
        if not check_w7_theorem(m):  # also asserts the three clauses agree
            bad.append(m.label)
        if not sw_classes(m).w[7].is_zero():
            bad.append(f"{m.label} (w7)")
    report(2, not bad, f"{len(pool)} spin^c models (incl. 10 mutations), W7 = w7 = 0"
           if not bad else "counterexamples: " + ", ".join(bad))


def test_criterion_3_steenrod_engine_goldens():
    """Wu-formula Stiefel-Whitney classes of the reference triangulations,
    plus the Steenrod axiom battery on random complexes."""
    t0 = time.monotonic()
    goldens = [
        (cp2_9(), "CP2", {2: (1,), 4: (1,)}),       # total class 1 + a + a^2
        (rp3_40(), "RP3", {}),                      # total class 1
        (sphere(4), "S4", {}),                      # total class 1
        (torus_7(), "T2", {}),                      # total class 1
    ]
    for x, label, expect in goldens:
        sw = sw_classes(from_simplicial(x, label=label))
        got = {k: v.bits for k, v in sw.w.items() if not v.is_zero()}
        if got != expect:
            report(3, False, f"{label}: expected {expect}, got {got}")

    rng = np.random.default_rng(314159)
    complexes = [random_complex(rng, 8, d, 12) for d in (3, 4, 4, 5, 6)]
    checked = 0
    for x in complexes:
        coh = Cohomology(x)
        for d in range(x.dimension + 1):
            simps = x.simplices(d)
            if not simps:
                continue
            delta = np.asarray(coh.delta(d), dtype=np.uint8) % 2
            null = f2.nullspace(delta) if delta.size else np.eye(len(simps), dtype=np.uint8)
            if null.shape[0] == 0:
                continue
            from contact9.simplicial import Cochain

            for _ in range(6):
                combo = np.zeros(len(simps), dtype=np.uint8)
                for row in null:
                    if rng.integers(0, 2):
                        combo ^= row
                z = Cochain.from_vector(x, d, 2, combo)
                cls = coh.class_of(z)
                checked += 1
                if coh.sq(0, cls) != cls:
                    report(3, False, f"Sq^0 != id on {x!r}")
                if coh.sq(d, cls) != coh.cup(cls, cls):
                    report(3, False, f"top square != cup square on {x!r}")
                if not coh.sq(d + 1, cls).is_zero():
                    report(3, False, f"Sq beyond the degree nonzero on {x!r}")
                if coh.sq(2, coh.sq(2, cls)) != coh.sq(3, coh.sq(1, cls)):
                    report(3, False, f"Sq2 Sq2 != Sq3 Sq1 on {x!r}")
        # Cartan on basis pairs
        for i in range(1, x.dimension):
            for j in range(i, x.dimension + 1 - i):
                for a in coh.basis_classes(2, i):
                    for b in coh.basis_classes(2, j):
                        ab = coh.cup(a, b)
                        for k in range(1, i + j + 1):
                            lhs = coh.sq(k, ab)
                            rhs = coh.zero_class(2, ab.degree + k)
                            for s in range(k + 1):
                                rhs = coh.add(rhs, coh.cup(coh.sq(s, a), coh.sq(k - s, b)))
                            if lhs != rhs:
                                report(3, False, f"Cartan fails on {x!r} at ({i},{j},{k})")
    elapsed = time.monotonic() - t0
    report(
        3,
        checked >= 100 and elapsed < 60.0,
        f"4 golden class tables, {checked} random cocycles over {len(complexes)} complexes "
        f"in {elapsed:.1f}s (<60s)",
    )


def test_criterion_4_choice_independence():
    """[w8 - rho2(cv/2)] identical over >= 20 randomized (c, v, cv/2)
    choices on the circle-times-projective model and 5 synthetic spin^c
    models."""
    rng = np.random.default_rng(161803)
    models = [library("S1xCP4")] + synthetic_spinc_models()
    assert len(models) == 6
    for m in models:
        sw = sw_classes(m)
        if not sw.W3.is_zero() or sw.w[2].is_zero():
            report(4, False, f"{m.label}: not in the relevant regime")
        if not bockstein_vanishes_on(m.cohomology, compute_dm(m, sw)):
            report(4, False, f"{m.label}: hypothesis fails")
        sub = sq2_image_subspace(m.cohomology)
        reference = None
        for _ in range(20):
            data = spinc_data(m, sw, rng=rng)
            coset = CosetH8(sw.w[8] + m.cohomology.rho2_map(data.half_cv), sub)
            if reference is None:
                reference = coset
            elif coset != reference:
                report(4, False, f"{m.label}: coset changed under lift re-choice")
    report(4, True, f"{len(models)} models x 20 randomized lift triples, cosets exactly equal")


def test_criterion_5_connected_sum_consistency():
    """Summand-clause verdicts agree with deciding the assembled sum on all
    15 unordered corpus pairs."""
    names = list(LIBRARY_NAMES)
    pairs = 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = library(names[i]), library(names[j])
            clause = decide_connected_sum(a, b)
            direct = decide(connected_sum(a, b))
            pairs += 1
            if clause.outcome != direct.outcome:
                report(5, False, f"{names[i]}#{names[j]}: {clause.outcome} vs {direct.outcome}")
            if clause.outcome == Outcome.NO_CONTACT and clause.obstruction != direct.obstruction:
                report(5, False, f"{names[i]}#{names[j]}: stages differ")
    report(5, pairs == 15, f"all {pairs} unordered pairs agree exactly")


def test_criterion_6_exactness_and_order_independence():
    """Reduction image equals Bockstein kernel degree-wise on every corpus
    model; simplicial outputs invariant under random vertex reorderings."""
    for m in [library(n) for n in LIBRARY_NAMES] + synthetic_spinc_models():
        for d in range(10):
            if reduction_image_subspace(m.cohomology, d) != bockstein_kernel_subspace(m.cohomology, d):
                report(6, False, f"{m.label}: exactness fails in degree {d}")

    rng = np.random.default_rng(577215)
    complexes = [rp2_6(), torus_7(), sphere(3), cp2_9()]
    for base in complexes:
        coh = Cohomology(base)
        for _ in range(5):
            verts = list(base.vertices)
            rng.shuffle(verts)
            reordered = SimplicialComplex(verts, [list(f) for f in base.facets])
            coh2 = Cohomology(reordered)
            ident = {v: v for v in verts}
            for modulus in (0, 2):
                for d in range(base.dimension + 1):
                    g1, g2 = coh.group(modulus, d), coh2.group(modulus, d)
                    if (g1.free_rank, g1.torsion) != (g2.free_rank, g2.torsion):
                        report(6, False, f"groups differ after reordering {base!r}")
            for d in range(base.dimension + 1):
                for gz in coh2.basis_classes(0, d):
                    gz_pulled = coh.class_of(pullback_cochain(base, coh2.representative(gz), ident))
                    for hz in coh2.basis_classes(0, base.dimension - d):
                        hz_pulled = coh.class_of(pullback_cochain(base, coh2.representative(hz), ident))
                        lhs = coh.cup(gz_pulled, hz_pulled)
                        rhs = coh.class_of(
                            pullback_cochain(base, coh2.representative(coh2.cup(gz, hz)), ident)
                        )
                        if lhs != rhs:
                            report(6, False, f"integral cup not order-independent on {base!r}")
                for e in coh2.basis_classes(2, d):
                    pulled = coh.class_of(pullback_cochain(base, coh2.representative(e), ident))
                    for k in (1, 2):
                        if coh.sq(k, pulled) != coh.class_of(
                            pullback_cochain(base, coh2.representative(coh2.sq(k, e)), ident)
                        ):
                            report(6, False, f"Sq^{k} not order-independent on {base!r}")
                    if coh.bockstein(pulled) != coh.class_of(
                        pullback_cochain(base, coh2.representative(coh2.bockstein(e)), ident)
                    ):
                        report(6, False, f"Bockstein not order-independent on {base!r}")
                    for eb in coh2.basis_classes(2, base.dimension - d):
                        pb = coh.class_of(pullback_cochain(base, coh2.representative(eb), ident))
                        if coh.cup(pulled, pb) != coh.class_of(
                            pullback_cochain(base, coh2.representative(coh2.cup(e, eb)), ident)
                        ):
                            report(6, False, f"cup not order-independent on {base!r}")
    report(6, True, "exactness on 11 models; 5 reorderings per test complex invariant")


def test_criterion_7_square_identity_suite():
    """The degree-6/degree-4 product identities on every applicable corpus
    basis element; zero violations."""
    violations = []
    models = [library(n) for n in LIBRARY_NAMES] + synthetic_spinc_models()
    for model in models:
        m = model.cohomology
        sw = sw_classes(model)
        w2, w4, w6 = sw.w[2], sw.w[4], sw.w[6]
        for y in m.basis_f2(6):
            if m.sq_map(2, y) != m.cup(w2, y):
                violations.append(f"{model.label}: (a)")
        v4 = w4 + m.cup(w2, w2)
        for z in m.basis_f2(4):
            if m.cup(z, z) != m.cup(v4, z):
                violations.append(f"{model.label}: (b)")
        if sw.W3.is_zero():
            sub = sq2_image_subspace(m, 6)
            for u in m.basis_z(2):
                if not sub.contains(m.cup(w6, m.rho2_map(u)).vec()):
                    violations.append(f"{model.label}: (d)")
            if w4.is_zero():
                for y in m.basis_z(4):
                    red = m.rho2_map(y)
                    if not sub.contains(m.cup(red, red).vec()):
                        violations.append(f"{model.label}: (e)")
            if bockstein_vanishes_on(m, compute_dm(model, sw)):
                for z in m.basis_f2(7):
                    if not sub.contains(m.sq_map(1, z).vec()):
                        violations.append(f"{model.label}: (c)")
    report(7, not violations, f"clauses (a)-(e) hold on {len(models)} models"
           if not violations else "violated: " + ", ".join(violations))


def test_criterion_8_homotopy_invariance_smoke():
    """Relabeled-generator copies of every library model give identical
    verdicts through the verified-correspondence check."""
    rng = np.random.default_rng(141421)
    for name in LIBRARY_NAMES:
        m = library(name)
        f2m, f2i, zm, zi = random_model_iso(m, rng, permutation_only=True)
        other = transform_model(m, f2m, f2i, zm, zi)
        iso = GradedIso(f2_maps=f2m, z_maps=zm, z_inv_maps=zi)
        if not homotopy_invariance_check(m, other, iso):
            report(8, False, f"{name}: verdicts differ across a relabeling")
        va, vb = decide(m), decide(other)
        if va.outcome != vb.outcome or va.obstruction != vb.obstruction:
            report(8, False, f"{name}: obstruction stages differ across a relabeling")
    report(8, True, "relabeled copies of all 6 library models give identical verdicts")
