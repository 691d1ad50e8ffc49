"""Wu/Stiefel-Whitney solving, integral lifts, subspaces, cosets, half
products and the top invariant."""

import numpy as np
import pytest

from contact9 import charclasses, f2
from contact9.charclasses import (
    CosetH8, ModelInvariantError, PreconditionError, SWClasses, WuClasses, WuSolveError,
    annihilator_subspace, bockstein_kernel_subspace, bockstein_vanishes_on, compute_dm,
    half_product_solutions, integral_lift, nine_manifold_identities, random_integral_lift,
    reduction_image_subspace, sigma_w4, spinc_data, sq2_image_subspace, sw_classes, wu_classes,
)
from contact9.complexes import cp2_9, rp3_40, sphere, torus_7
from contact9.decider import _w7_vanishes, analyse, check_w7_theorem
from contact9.library import base_models, corpus, library, synthetic_spinc_models
from contact9.model import (
    CohomologyModel, GradedPiece, ManifoldModel, build_product, from_simplicial, validate,
)


# -- Wu classes ---------------------------------------------------------------


def test_wu_s9_trivial():
    wu = wu_classes(library("S9"))
    assert all(v.is_zero() for v in wu.by_degree.values())


def test_wu_vanishing_rule_holds_in_every_dimension():
    """v_k = 0 once 2k > n, and odd v_k = 0 on an orientable model: in
    CP2 x CP2 x CP2, v6 = a x b x c is nonzero and no violation."""
    cp2 = base_models()["CP2"]
    m = build_product(build_product(cp2, cp2), cp2)
    wu, sw, broken = charclasses.characteristic_classes(m)
    assert broken == []
    assert not wu.by_degree[6].is_zero()
    assert all(wu.by_degree[k].is_zero() for k in range(7, m.dimension + 1))
    assert all(wu.by_degree[k].is_zero() for k in range(1, 7, 2))
    assert wu_classes(m) == wu and sw_classes(m) == sw


def test_wu_cp2_triangulated():
    m = from_simplicial(cp2_9(), label="CP2")
    wu = wu_classes(m)
    assert wu.v2.bits == (1,)
    assert all(v.is_zero() for k, v in wu.by_degree.items() if k != 2)


def test_wu_s1xhp2():
    wu = wu_classes(library("S1xHP2"))
    assert wu.v4.bits == (1,)
    assert wu.v2.is_zero()


def test_wu_requires_orientable():
    from contact9.complexes import rp2_6

    m = from_simplicial(rp2_6())
    with pytest.raises(PreconditionError, match="orientable"):
        wu_classes(m)


def test_sw_triangulation_goldens():
    # classical total classes: trivial for the spheres, the torus and
    # 3-dimensional projective space; 1 + a + a^2 for the projective plane
    for x, label, expect in (
        (sphere(4), "S4", {}),
        (torus_7(), "T2", {}),
        (rp3_40(), "RP3", {}),
    ):
        sw = sw_classes(from_simplicial(x, label=label))
        assert {k: v.bits for k, v in sw.w.items() if not v.is_zero()} == expect, label


def test_wu_above_the_dimension_is_zero():
    wu = wu_classes(from_simplicial(torus_7(), label="T2"))
    assert wu.v2.bits == (0,)
    assert wu.v4.degree == 4 and wu.v4.bits == ()


# -- the 9-manifold identities ---------------------------------------------------

# S1 x CP4 has one mod-2 class in each degree, s^i a^j with s in degree 1 and a
# in degree 2; its total class is (1 + a)^5 = 1 + a + a^4, and W3 = 0.
NINE_MANIFOLD_CASES = [
    ({}, []),
    ({9: 1}, [("w9_zero", 9), ("odd_w_vanishing", 9)]),
    ({8: 0}, [("w8_formula", 8)]),
    ({3: 1}, [("w_odd_formula", 3), ("odd_w_vanishing", 3)]),
    ({4: 1}, [("w8_formula", 8), ("w2w4_zero", 6)]),
    ({6: 1}, [("w6_formula", 6), ("w2w6_zero", 8)]),
    ({7: 1}, [("w_odd_formula", 7), ("odd_w_vanishing", 7)]),
]


def _s1xcp4_sw(changes: dict) -> dict:
    m = library("S1xCP4").cohomology
    w = dict(sw_classes(m).w)
    for degree, bit in changes.items():
        w[degree] = m.f2(degree, [bit])
    return w


@pytest.mark.parametrize("changes, expected", NINE_MANIFOLD_CASES)
def test_nine_manifold_identities_on_hand_made_classes(changes, expected, monkeypatch):
    m = library("S1xCP4").cohomology
    w = _s1xcp4_sw(changes)
    assert {k: v.bits for k, v in _s1xcp4_sw({}).items() if not v.is_zero()} == {2: (1,), 8: (1,)}
    found = nine_manifold_identities(m, SWClasses.from_w(m, w))
    assert [(v.check, v.degree) for v in found] == expected
    # validation reports from the same function, and sw_classes raises from it
    monkeypatch.setattr(charclasses, "sw_from_wu", lambda _m, _wu: w)
    assert validate(m).violations == found
    if found:
        with pytest.raises(ModelInvariantError, match=found[0].check):
            sw_classes(m)
    else:
        assert sw_classes(m).w == w


def test_wu_violations_are_reported_and_raised_from_one_derivation(monkeypatch):
    m = library("S1xCP4").cohomology
    assert isinstance(validate(m).wu, WuClasses)
    solve = charclasses.solve_wu_degree
    monkeypatch.setattr(charclasses, "solve_wu_degree", lambda m, k: m.f2(3, [1]) if k == 3 else solve(m, k))
    first = validate(m).violations[0]
    assert (first.check, first.degree) == ("wu_vanishing", 3)
    for derive in (wu_classes, sw_classes):
        with pytest.raises(ModelInvariantError, match=first.check):
            derive(m)

    def unsolvable(m, k):
        raise WuSolveError(f"degree-{k} Wu system unsolvable")

    monkeypatch.setattr(charclasses, "solve_wu_degree", unsolvable)
    rep = validate(m)
    assert [(v.check, v.degree) for v in rep.violations] == [("wu_solvable", None)]
    assert rep.wu is None and rep.sw is None
    for derive in (wu_classes, sw_classes):
        with pytest.raises(WuSolveError, match="wu_solvable"):
            derive(m)


def test_nine_manifold_identities_skip_spinc_relations_when_w3_nonzero():
    m = library("Dold_5_2").cohomology
    w = dict(sw_classes(m).w)
    assert not w[3].is_zero()
    assert nine_manifold_identities(m, SWClasses.from_w(m, w)) == []


# -- integral lifts -----------------------------------------------------------


def test_integral_lift_zero():
    m = library("S1xCP4")
    z = integral_lift(m, m.cohomology.zero_f2(4))
    assert z is not None and z.is_zero()


def test_integral_lift_w2_s1xcp4():
    m = library("S1xCP4")
    sw = sw_classes(m)
    c = integral_lift(m, sw.w[2])
    assert c is not None
    assert m.cohomology.rho2_map(c) == sw.w[2]


def test_integral_lift_obstructed_on_dold():
    m = library("Dold_5_2")
    sw = sw_classes(m)
    assert not sw.W3.is_zero()
    assert integral_lift(m, sw.w[2]) is None


def test_random_integral_lift_is_a_lift():
    rng = np.random.default_rng(77)
    m = library("RP5xCP2") if False else synthetic_spinc_models()[0]
    sw = sw_classes(m)
    for _ in range(10):
        z = random_integral_lift(m, sw.w[2], rng)
        assert m.cohomology.rho2_map(z) == sw.w[2]


# -- the degree-one subspace ----------------------------------------------------


def test_dm_simply_connected_trivial():
    m = library("M1_surgered")
    dm = compute_dm(m, sw_classes(m))
    assert dm.dim == 0


def test_dm_spin_is_everything():
    m = library("S1xHP2")
    dm = compute_dm(m, sw_classes(m))
    assert dm.dim == m.cohomology.f2_dim(1)


def test_dm_s1xcp4_trivial():
    # s . w2 is nonzero while the degree-3 torsion vanishes
    m = library("S1xCP4")
    assert compute_dm(m, sw_classes(m)).dim == 0


def test_dm_matches_annihilator_on_corpus():
    for m in [library(n) for n in ("S9", "S1xHP2", "S1xCP4", "Dold_5_2")] + synthetic_spinc_models():
        dm = compute_dm(m, sw_classes(m))  # raises on mismatch
        assert dm == annihilator_subspace(m.cohomology)


# -- cosets ---------------------------------------------------------------------


def test_coset_zero():
    m = library("S1xCP4")
    assert analyse(m).coset(m.cohomology.zero_f2(8)).is_zero()


def test_coset_spin_subspace_trivial():
    for name in ("S9", "S1xHP2", "M1_surgered"):
        m = library(name)
        sub = sq2_image_subspace(m.cohomology, 6)
        assert sub.dim == 0
        sw = sw_classes(m)
        assert CosetH8(sw.w[8], sub).representative == sw.w[8]


def test_coset_s1xcp4_w8_is_zero_coset():
    m = library("S1xCP4")
    sw = sw_classes(m)
    coset = analyse(m).coset(sw.w[8])
    assert coset.is_zero()
    assert sq2_image_subspace(m.cohomology, 6).dim == 1


def test_coset_equality():
    m = library("S1xCP4")
    sub = sq2_image_subspace(m.cohomology, 6)
    a = CosetH8(m.cohomology.f2(8, [1]), sub)
    b = CosetH8(m.cohomology.f2(8, [0]), sub)
    assert a == b  # they differ by the subspace element a^4


# -- the subspace helpers against their per-class definitions ---------------------


def _reference_sq2_image(m, degree):
    kernel = bockstein_kernel_subspace(m, degree)
    vecs = [m.sq_map(2, m.f2(degree, row)).vec() for row in kernel.basis]
    return f2.Subspace(vecs, ambient_dim=m.f2_dim(degree + 2))


def _reference_annihilator(m):
    image = reduction_image_subspace(m, 6)
    vecs = [m.sq_map(2, m.f2(6, row)).vec() for row in image.basis]
    sq2img = f2.Subspace(vecs, ambient_dim=m.f2_dim(8))
    dim1 = m.f2_dim(1)
    rows = [[m.pair(e, m.f2(8, vec)) for e in m.basis_f2(1)] for vec in sq2img.basis]
    if not rows:
        return f2.Subspace(list(np.eye(dim1, dtype=np.uint8)), ambient_dim=dim1)
    return f2.Subspace(list(f2.nullspace(np.asarray(rows, dtype=np.uint8))), ambient_dim=dim1)


def _reference_bockstein_vanishes_on(m, subspace):
    return all(m.beta_map(m.f2(1, row)).is_zero() for row in subspace.basis)


def _reference_torsion_pairing_vanishes(m, w6):
    torsion = m.basis_z(3)[m.piece(3).z_rank:]
    return not any(m.eval_top(m.cup(m.rho2_map(e), w6)) for e in torsion)


def test_subspace_helpers_match_their_per_class_definitions():
    models = corpus() + synthetic_spinc_models()
    assert len(models) == 11
    for model in models:
        m, sw = model.cohomology, sw_classes(model)
        for degree in range(m.dimension - 1):
            assert sq2_image_subspace(m, degree) == _reference_sq2_image(m, degree), (model.label, degree)
        assert annihilator_subspace(m) == _reference_annihilator(m), model.label
        dim1 = m.f2_dim(1)
        subspaces = [compute_dm(model, sw), f2.Subspace(list(f2.eye(dim1)), ambient_dim=dim1)]
        subspaces += [f2.Subspace([e.vec()], ambient_dim=dim1) for e in m.basis_f2(1)]
        for sub in subspaces:
            assert bockstein_vanishes_on(m, sub) == _reference_bockstein_vanishes_on(m, sub), model.label
        torsion_ok = _reference_torsion_pairing_vanishes(m, sw.w[6])
        assert _w7_vanishes(m, sw) == torsion_ok, model.label
        if sw.W3.is_zero():
            assert check_w7_theorem(model) == torsion_ok, model.label


# -- half products ----------------------------------------------------------------


def test_half_product_zero_case():
    m = library("S1xCP4")
    sw = sw_classes(m)
    data = spinc_data(m, sw)
    assert data.v.is_zero()          # w6 = 0 here, canonical lift is 0
    assert data.half_cv.is_zero()


def test_half_product_unique_free_case():
    # synthetic model: H^8 = Z, c v = 2 g => d = g uniquely
    pieces = [GradedPiece(1, (), ("e0",))] + [GradedPiece(0, (), ())] * 9
    pieces[2] = GradedPiece(1, (), ("c",))
    pieces[6] = GradedPiece(1, (), ("v",))
    pieces[8] = GradedPiece(1, (), ("g",))
    pieces[9] = GradedPiece(1, (), ("top",))
    rho2 = [np.eye(pieces[d].f2_dim, dtype=np.uint8) for d in range(10)]
    beta = [np.zeros((pieces[d + 1].z_gens if d < 9 else 0, pieces[d].f2_dim), dtype=np.int64) for d in range(10)]
    cup_int = {(2, 6): np.array([[[2]]], dtype=object)}
    m = CohomologyModel(9, pieces, rho2, beta, {}, {}, cup_int, orientable=True, label="stub")
    half, order_two = half_product_solutions(m.basis_z(2)[0], m.basis_z(6)[0], m)
    assert order_two == [] and half.coords == (1,)


def test_half_product_two_torsion_multiplicity():
    m = synthetic_spinc_models()[0]  # the torsion-rich product model
    sw = sw_classes(m)
    data = spinc_data(m, sw)
    half, order_two = half_product_solutions(data.c, data.v, m)
    assert data.half_cv == half and half.coords == (0,)
    assert len(order_two) == 1  # one per even-order torsion summand of the degree-8 group
    sols = [half, m.cohomology.z(8, half.vec() + order_two[0].vec())]
    assert [d.coords for d in sols] == [(0,), (1,)]
    sub = sq2_image_subspace(m.cohomology)
    cosets = {CosetH8(sw.w[8] + m.cohomology.rho2_map(d), sub) for d in sols}
    assert len(cosets) == 1


def test_half_product_rejects_odd_products():
    pieces = [GradedPiece(1, (), ("e0",))] + [GradedPiece(0, (), ())] * 9
    pieces[2] = GradedPiece(1, (), ("c",))
    pieces[6] = GradedPiece(1, (), ("v",))
    pieces[8] = GradedPiece(1, (), ("g",))
    pieces[9] = GradedPiece(1, (), ("top",))
    rho2 = [np.eye(pieces[d].f2_dim, dtype=np.uint8) for d in range(10)]
    beta = [np.zeros((pieces[d + 1].z_gens if d < 9 else 0, pieces[d].f2_dim), dtype=np.int64) for d in range(10)]
    cup_int = {(2, 6): np.array([[[1]]], dtype=object)}
    m = CohomologyModel(9, pieces, rho2, beta, {}, {}, cup_int, orientable=True, label="stub")
    with pytest.raises(ModelInvariantError, match="divisible"):
        half_product_solutions(m.basis_z(2)[0], m.basis_z(6)[0], m)


# -- the top invariant --------------------------------------------------------------


def _sigma(m):
    return sigma_w4(m, sw_classes(m))


def test_sigma_s9_zero():
    assert _sigma(library("S9")) == 0


def test_sigma_m1_one():
    assert _sigma(library("M1_surgered")) == 1


def test_sigma_s1xhp2_one():
    assert _sigma(library("S1xHP2")) == 1


def test_sigma_requires_spin():
    with pytest.raises(PreconditionError, match="spin"):
        _sigma(library("S1xCP4"))


def test_sigma_absent_without_phi():
    m = library("M1_surgered")
    stripped = ManifoldModel(m.cohomology, phi_hat=None, label="M1 (no data)")
    assert _sigma(stripped) is None


def test_sigma_zero_without_phi_when_w4_vanishes():
    m = library("S1xHP2")
    stripped = ManifoldModel(m.cohomology, phi_hat=None, label="M0 (no data)")
    # w4 is nonzero here so the class is genuinely needed ...
    assert _sigma(m) == 1
    # ... but with w4 = 0 no class is needed at all
    s9 = library("S9")
    assert _sigma(ManifoldModel(s9.cohomology, phi_hat=None, label="S9 (no data)")) == 0


# -- choice independence suites ------------------------------------------------------


def test_omega_coset_choice_independence():
    """The coset [w8 - rho2(cv/2)] over >= 20 randomized (c, v, cv/2) triples."""
    rng = np.random.default_rng(40409)
    models = [library("S1xCP4")] + synthetic_spinc_models()
    for m in models:
        sw = sw_classes(m)
        assert sw.W3.is_zero()
        if sw.w[2].is_zero():
            continue
        dm = compute_dm(m, sw)
        assert bockstein_vanishes_on(m.cohomology, dm)
        sub = sq2_image_subspace(m.cohomology)
        reference = None
        for _ in range(20):
            data = spinc_data(m, sw, rng=rng)
            assert m.cohomology.rho2_map(data.c) == sw.w[2]
            assert m.cohomology.rho2_map(data.v) == sw.w[6]
            coset = CosetH8(sw.w[8] + m.cohomology.rho2_map(data.half_cv), sub)
            if reference is None:
                reference = coset
            assert coset == reference, m.label


def test_w7_three_clauses_consistent():
    from contact9.decider import check_w7_theorem

    for name in ("S9", "S1xHP2", "S1xCP4", "M1_surgered", "M3_sum"):
        assert check_w7_theorem(library(name))
    for m in synthetic_spinc_models():
        assert check_w7_theorem(m)


def test_w7_precondition_fails_on_dold():
    from contact9.decider import check_w7_theorem

    m = library("Dold_5_2")
    with pytest.raises(PreconditionError):
        check_w7_theorem(m)
    # and indeed the degree-7 class is genuinely nonzero there
    assert not sw_classes(m).w[7].is_zero()


def test_secondary_domain_membership_on_corpus():
    """Lifts of w4 lie in the kernel of beta . Sq^2 . rho2 (the domain of the
    secondary operation): the composite is computed step by step from the
    stored matrices."""
    for name in ("S9", "S1xHP2", "S1xCP4", "M1_surgered", "M3_sum"):
        m = library(name)
        c = m.cohomology
        sw = sw_classes(m)
        if not sw.W3.is_zero():
            continue
        u = integral_lift(m, sw.w[4])
        assert u is not None
        composite = c.beta_map(c.sq_map(2, c.rho2_map(u)))
        assert composite.is_zero()


def test_half_product_odd_torsion_inverts_two():
    """With odd-order torsion in degree 8, halving is multiplication by the
    inverse of 2 and the solution stays unique."""
    pieces = [GradedPiece(1, (), ("e0",))] + [GradedPiece(0, (), ())] * 9
    pieces[2] = GradedPiece(1, (), ("c",))
    pieces[6] = GradedPiece(1, (), ("v",))
    pieces[8] = GradedPiece(0, (3,), ("g",))
    pieces[9] = GradedPiece(1, (), ("top",))
    rho2 = [np.eye(pieces[d].f2_dim, dtype=np.uint8) for d in range(10)]
    rho2[8] = np.zeros((1, 1), dtype=np.uint8)  # odd torsion reduces to zero
    beta = [
        np.zeros((pieces[d + 1].z_gens if d < 9 else 0, pieces[d].f2_dim), dtype=np.int64)
        for d in range(10)
    ]
    cup_int = {(2, 6): np.array([[[1]]], dtype=object)}  # c v = g, order 3
    m = CohomologyModel(9, pieces, rho2, beta, {}, {}, cup_int, orientable=True, label="stub")
    half, order_two = half_product_solutions(m.basis_z(2)[0], m.basis_z(6)[0], m)
    # 2 * 2 = 4 = 1 mod 3, so d = 2g
    assert order_two == [] and half.coords == (2,)
