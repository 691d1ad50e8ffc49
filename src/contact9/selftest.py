"""Built-in invariant suites, runnable from the command line.

Each suite returns a result record: name, pass/fail, the number of cases
exercised, and the first counterexample (serialized) on failure.  The same
checks back the pytest acceptance suite; here they are packaged for the
``selftest`` CLI verb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import f2
from .charclasses import (
    bockstein_kernel_subspace, bockstein_vanishes_on, reduction_image_subspace, spinc_data, sw_classes,
)
from .cohomology import Cohomology
from .complexes import cp2_9, random_complex, rp2_6, sphere, torus_7
from .decider import O8Branch, ValidationFailedError, analyse, check_w7_theorem, decide
from .library import corpus, synthetic_spinc_models
from .model import from_simplicial, random_model_iso, transform_model, validate
from .simplicial import Cochain, coboundary, cup_i

__all__ = ["SuiteResult", "run_selftest", "ALL_SUITES"]

DEFAULT_SEED = 1789
DEFAULT_SAMPLES = 20


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    counterexample: str | None = None

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "cases": self.cases,
            "counterexample": self.counterexample,
        }


def _random_cocycles(coh: Cohomology, degree: int, rng, count: int):
    """Random mod-2 cocycles sampled from the cocycle space."""
    x = coh.complex
    simps = x.simplices(degree)
    if not simps:
        return
    delta = np.asarray(coh.delta(degree), dtype=np.uint8) % 2
    null = f2.nullspace(delta) if delta.size else np.eye(len(simps), dtype=np.uint8)
    if null.shape[0] == 0:
        return
    for _ in range(count):
        combo = np.zeros(len(simps), dtype=np.uint8)
        for row in null:
            if rng.integers(0, 2):
                combo ^= row
        yield Cochain.from_vector(x, degree, 2, combo)


def steenrod_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> SuiteResult:
    """Sq axioms, Cartan, the composite relation Sq^2 Sq^2 = Sq^3 Sq^1, and
    the cochain-level coboundary identity of the higher products."""
    rng = np.random.default_rng(seed)
    complexes = [rp2_6(), torus_7()]
    complexes += [random_complex(rng, 8, 4, 12) for _ in range(3)]
    cases = 0
    for x in complexes:
        coh = Cohomology(x)
        for d in range(0, x.dimension + 1):
            for z in _random_cocycles(coh, d, rng, max(2, samples // 5)):
                cls = coh.class_of(z)
                cases += 1
                if coh.sq(0, cls) != cls:
                    return SuiteResult("steenrod", False, cases, f"Sq^0 != id on {x!r} degree {d}")
                if coh.sq(d, cls) != coh.cup(cls, cls):
                    return SuiteResult("steenrod", False, cases, f"top square != cup square on {x!r} degree {d}")
                if not coh.sq(d + 1, cls).is_zero():
                    return SuiteResult("steenrod", False, cases, f"Sq^{d+1} nonzero on degree {d} of {x!r}")
                s1 = coh.sq(1, cls)
                lhs = coh.sq(2, coh.sq(2, cls))
                rhs = coh.sq(3, s1)
                if lhs != rhs:
                    return SuiteResult("steenrod", False, cases, f"Sq2Sq2 != Sq3Sq1 on {x!r} degree {d}")
        # Cartan on random pairs of basis classes
        for i in range(1, x.dimension):
            for j in range(1, x.dimension + 1 - i):
                for a in coh.basis_classes(2, i):
                    for b in coh.basis_classes(2, j):
                        ab = coh.cup(a, b)
                        for k in range(1, i + j + 1):
                            lhs = coh.sq(k, ab)
                            rhs = coh.zero_class(2, ab.degree + k)
                            for s in range(k + 1):
                                rhs = coh.add(rhs, coh.cup(coh.sq(s, a), coh.sq(k - s, b)))
                            cases += 1
                            if lhs != rhs:
                                return SuiteResult(
                                    "steenrod", False, cases,
                                    f"Cartan fails for Sq^{k} at ({i},{j}) on {x!r}",
                                )
    # four-term coboundary identity for the higher products
    x = random_complex(rng, 8, 4, 10)
    for trial in range(samples):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        i = int(rng.integers(0, p + q + 1))
        def rand_cochain(d):
            return Cochain(
                x, d, 2, {s: int(rng.integers(0, 2)) for s in x.simplices(d)}
            )
        u, v = rand_cochain(p), rand_cochain(q)
        lhs = coboundary(cup_i(u, v, i))
        deg = p + q - i + 1
        rhs = cup_i(u, v, i - 1) if i else Cochain(x, deg, 2, {})
        rhs = rhs + (cup_i(v, u, i - 1) if i else Cochain(x, deg, 2, {}))
        rhs = rhs + cup_i(coboundary(u), v, i) + cup_i(u, coboundary(v), i)
        cases += 1
        if lhs != rhs:
            return SuiteResult("steenrod", False, cases, f"coboundary identity fails (p={p}, q={q}, i={i})")
    return SuiteResult("steenrod", True, cases)


def exactness_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> SuiteResult:
    """Image of reduction equals kernel of the Bockstein; reduction of the
    Bockstein equals Sq^1 (on complexes and on every corpus model)."""
    cases = 0
    for x in (rp2_6(), torus_7(), sphere(4), cp2_9()):
        coh = Cohomology(x)
        for d in range(x.dimension + 1):
            img = [coh.reduce_mod(1, g).coords for g in coh.basis_classes(0, d)]
            dim = len(coh.group(2, d).torsion)
            image = f2.Subspace(img, ambient_dim=dim) if dim else f2.Subspace([], ambient_dim=0)
            kernel_vecs = []
            for e in coh.basis_classes(2, d):
                cases += 1
                if coh.reduce_mod(1, coh.bockstein(e)) != coh.sq(1, e):
                    return SuiteResult("exactness", False, cases, f"rho2 beta != Sq1 on {x!r} degree {d}")
            # kernel of the Bockstein, brute force over the whole space
            for bits in _all_bits(dim):
                cls = _cls(coh, d, bits)
                if coh.bockstein(cls).is_zero():
                    kernel_vecs.append(bits)
            kernel = f2.Subspace(kernel_vecs, ambient_dim=dim) if dim else f2.Subspace([], ambient_dim=0)
            cases += 1
            if image != kernel:
                return SuiteResult("exactness", False, cases, f"im rho2 != ker beta on {x!r} degree {d}")
    for model in corpus() + synthetic_spinc_models():
        m = model.cohomology
        for d in range(10):
            image = reduction_image_subspace(m, d)
            kernel = bockstein_kernel_subspace(m, d)
            cases += 1
            if image != kernel:
                return SuiteResult("exactness", False, cases, f"im rho2 != ker beta on {model.label} degree {d}")
    return SuiteResult("exactness", True, cases)


def _all_bits(n):
    for k in range(1 << n):
        yield tuple((k >> i) & 1 for i in range(n))


def _cls(coh, degree, bits):
    from .cohomology import CohomologyClass

    return CohomologyClass(2, degree, tuple(bits))


def wu_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> SuiteResult:
    """Golden total Stiefel-Whitney classes of the reference triangulations."""
    from .complexes import rp3_40

    cases = 0
    expectations = [
        (sphere(4), "S4", {}),
        (torus_7(), "T2", {}),
        (cp2_9(), "CP2", {2: (1,), 4: (1,)}),
        (rp3_40(), "RP3", {}),
    ]
    for x, name, nonzero in expectations:
        model = from_simplicial(x, label=name)
        sw = sw_classes(model)
        got = {k: v.bits for k, v in sw.w.items() if not v.is_zero()}
        cases += 1
        if got != nonzero:
            return SuiteResult("wu_golden", False, cases, f"{name}: expected {nonzero}, got {got}")
    return SuiteResult("wu_golden", True, cases)


def validate_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> SuiteResult:
    cases = 0
    for model in corpus() + synthetic_spinc_models():
        rep = validate(model)
        cases += 1
        if not rep.ok:
            return SuiteResult("validate", False, cases, f"{model.label}: {rep}")
    return SuiteResult("validate", True, cases)


def choice_independence_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> SuiteResult:
    """Verdicts and degree-8 cosets must not depend on internal choices."""
    rng = np.random.default_rng(seed)
    cases = 0
    models = [m for m in corpus() + synthetic_spinc_models()]
    for model in models:
        analysis = analyse(model)
        base = decide(analysis)
        for _ in range(max(1, samples // 4)):
            cases += 1
            other = decide(analysis, seed=int(rng.integers(0, 2**31)))
            if not base.agrees_with(other) or base.obstruction != other.obstruction:
                return SuiteResult(
                    "choice_independence", False, cases,
                    f"{model.label}: verdict changed under internal re-randomization",
                )
        sw = analysis.sw
        if analysis.branch is O8Branch.LIFT_FORMULA:
            reference = None
            for _ in range(samples):
                data = spinc_data(model, sw, rng=rng)
                cases += 1
                coset = analysis.coset(sw.w[8] + model.cohomology.rho2_map(data.half_cv))
                if reference is None:
                    reference = coset
                elif coset != reference:
                    return SuiteResult(
                        "choice_independence", False, cases,
                        f"{model.label}: degree-8 coset depends on the lift choice",
                    )
    return SuiteResult("choice_independence", True, cases)


def w7_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> SuiteResult:
    """The degree-7 vanishing statement on every spin^c corpus model and on
    randomized valid relabelings/base-changes of them."""
    rng = np.random.default_rng(seed)
    cases = 0
    spinc = [a for a in map(analyse, corpus() + synthetic_spinc_models()) if a.sw.W3.is_zero()]
    pool = list(spinc)
    for k in range(10):
        src = spinc[k % len(spinc)].model
        model = transform_model(src, *random_model_iso(src, rng, permutation_only=bool(k % 2)))
        try:
            pool.append(analyse(model))
        except ValidationFailedError as e:
            return SuiteResult("w7", False, len(pool) + 1, f"{model.label}: mutation failed validation: {e.report}")
    for analysis in pool:
        model = analysis.model
        cases += 1
        if not check_w7_theorem(analysis):
            return SuiteResult("w7", False, cases, f"{model.label}: degree-7 integral class nonzero")
        if not analysis.sw.w[7].is_zero():
            return SuiteResult("w7", False, cases, f"{model.label}: w7 nonzero")
    return SuiteResult("w7", True, cases)


def square_identity_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> SuiteResult:
    """Product/square identities in degrees 4 and 6, and membership of the
    relevant products in the degree-8 subspace."""
    cases = 0
    for model in corpus() + synthetic_spinc_models():
        m = model.cohomology
        analysis = analyse(model)
        sw, sub = analysis.sw, analysis.sq2_image
        w2, w4, w6 = sw.w[2], sw.w[4], sw.w[6]
        for y in m.basis_f2(6):
            cases += 1
            if m.sq_map(2, y) != m.cup(w2, y):
                return SuiteResult("square_identities", False, cases, f"{model.label}: Sq^2 y != w2 y in degree 6")
        v4 = m.cup(w4, m.f2(0, [1])) + m.cup(w2, w2)
        for z in m.basis_f2(4):
            cases += 1
            if m.cup(z, z) != m.cup(v4, z):
                return SuiteResult("square_identities", False, cases, f"{model.label}: z^2 != (w4 + w2^2) z in degree 4")
        if sw.W3.is_zero():
            for u in m.basis_z(2):
                cases += 1
                if not sub.contains(m.cup(w6, m.rho2_map(u)).vec()):
                    return SuiteResult("square_identities", False, cases, f"{model.label}: w6 rho2(u) outside the subspace")
            if w4.is_zero():
                for y in m.basis_z(4):
                    cases += 1
                    red = m.rho2_map(y)
                    if not sub.contains(m.cup(red, red).vec()):
                        return SuiteResult("square_identities", False, cases, f"{model.label}: rho2(y^2) outside the subspace")
            if bockstein_vanishes_on(m, analysis.dm):
                for z in m.basis_f2(7):
                    cases += 1
                    if not sub.contains(m.sq_map(1, z).vec()):
                        return SuiteResult("square_identities", False, cases, f"{model.label}: Sq^1 H^7 outside the subspace")
        if analysis.branch is O8Branch.SPIN:
            cases += 1
            if sub.dim != 0:
                return SuiteResult("square_identities", False, cases, f"{model.label}: spin model with nonzero subspace")
    return SuiteResult("square_identities", True, cases)


ALL_SUITES = (
    validate_suite,
    steenrod_suite,
    exactness_suite,
    wu_suite,
    w7_suite,
    square_identity_suite,
    choice_independence_suite,
)


def run_selftest(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> list[SuiteResult]:
    return [suite(seed=seed, samples=samples) for suite in ALL_SUITES]
