"""Model validation, product/sum builders, and the simplicial bridge."""

import numpy as np
import pytest

from contact9.charclasses import sw_classes, wu_classes
from contact9.complexes import cp2_9, rp2_6, sphere
from contact9.decider import GradedIso, homotopy_invariance_check
from contact9.library import base_models, library
from contact9.model import (
    CohomologyModel, GradedPiece, ManifoldModel, NotClosedManifoldError,
    build_product, connected_sum, from_simplicial, random_model_iso,
    Violation, transform_model, validate,
)
from contact9.simplicial import SimplicialComplex


def kunneth_ranks(a, b, modulus=2):
    conv = [0] * (a.dimension + b.dimension + 1)
    for i in range(a.dimension + 1):
        for j in range(b.dimension + 1):
            conv[i + j] += a.f2_dim(i) * b.f2_dim(j)
    return conv


def test_validate_s9_empty_report():
    assert validate(library("S9")).ok


def test_validate_dold_skips_spinc_block():
    """The odd-class checks run only when the degree-3 integral class
    vanishes; the Dold manifold has it nonzero and must still validate."""
    m = library("Dold_5_2")
    rep = validate(m)
    assert rep.ok
    sw = sw_classes(m)
    assert not sw.W3.is_zero()
    assert not sw.w[3].is_zero()  # odd classes are genuinely nonzero here


def _with_cup2(model: CohomologyModel, pair, tensor) -> CohomologyModel:
    """A copy of the model with the product tensor of one pair replaced, or
    left out if ``tensor`` is None."""
    cup2 = {k: np.array(v) for k, v in model.cup2.items() if k != pair}
    if tensor is not None:
        cup2[pair] = tensor
    return CohomologyModel(
        dimension=model.dimension,
        pieces=model.pieces,
        rho2=[np.array(r) for r in model.rho2],
        beta=[np.array(b) for b in model.beta],
        sq={k: np.array(v) for k, v in model.sq.items()},
        cup2=cup2,
        cup_int={k: np.array(v) for k, v in model.cup_int.items()},
        orientable=model.orientable,
        label=model.label + " (mutated)",
    )


def test_validate_detects_zeroed_pairing_row():
    m = library("S1xCP4").cohomology
    broken = _with_cup2(m, (2, 7), np.zeros_like(m.cup2[(2, 7)]))
    rep = validate(broken)
    assert not rep.ok
    assert any(v.check == "poincare_pairing" and v.degree == 2 for v in rep.violations)


def test_validate_detects_zeroed_product_tensor():
    """Zeroing the (2,6) product of the circle-times-projective model breaks
    ring consistency and is reported."""
    m = library("S1xCP4").cohomology
    broken = _with_cup2(m, (2, 6), np.zeros_like(m.cup2[(2, 6)]))
    rep = validate(broken)
    assert not rep.ok
    kinds = {v.check for v in rep.violations}
    assert kinds & {"associativity", "commutativity", "integral_product_reduction", "poincare_pairing"}


@pytest.mark.parametrize("pair", [(2, 4), (2, 2), (4, 5)])
def test_validate_reports_a_missing_product_tensor(pair):
    """A directly built model may leave out a product tensor between nonzero
    groups; validation reads it as zero and reports it, never raising."""
    broken = _with_cup2(library("S1xCP4").cohomology, pair, None)
    rep = validate(broken)
    i, j = pair
    assert rep.violations[0] == Violation("product_tensor_missing", i, f"mod-2 tensor ({i},{j}) absent")


def test_build_product_unit():
    blocks = base_models()
    x = blocks["CP4"]
    p = build_product(x, blocks["point"])
    assert p.dimension == x.dimension
    for d in range(x.dimension + 1):
        assert p.f2_dim(d) == x.f2_dim(d)
        assert p.piece(d).z_torsion == x.piece(d).z_torsion
    assert validate(p).ok


def test_build_product_circle_cp4():
    blocks = base_models()
    m = build_product(blocks["S1"], blocks["CP4"])
    assert [m.f2_dim(d) for d in range(10)] == [1] * 10
    assert validate(m).ok
    # ring: s^2 = 0, a^5 = 0, s*a^4 generates the top
    s = m.basis_f2(1)[0]
    a = m.basis_f2(2)[0]
    assert m.cup(s, s).is_zero()
    power = a
    for _ in range(3):
        power = m.cup(a, power)
    assert not power.is_zero()          # a^4
    assert m.cup(a, power).is_zero()    # a^5 = 0 would exceed the truncation
    assert m.eval_top(m.cup(s, power)) == 1


def test_build_product_spheres():
    blocks = base_models()
    m = build_product(blocks["S4"], blocks["S5"])
    zs = [m.piece(d).z_rank for d in range(10)]
    assert zs == [1, 0, 0, 0, 1, 1, 0, 0, 0, 1]
    assert validate(m).ok


def test_build_product_kunneth_ranks():
    blocks = base_models()
    for aname, bname in (("S1", "CP4"), ("S4", "S5"), ("CP2", "CP2")):
        a, b = blocks[aname], blocks[bname]
        m = build_product(a, b)
        assert [m.f2_dim(d) for d in range(m.dimension + 1)] == kunneth_ranks(a, b)


def test_build_product_rejects_torsion():
    from contact9.library import rp5_model

    with pytest.raises(ValueError, match="torsion"):
        build_product(rp5_model(), base_models()["CP2"])
    with pytest.raises(ValueError, match="torsion"):
        build_product(base_models()["CP2"], rp5_model())


@pytest.mark.parametrize("scale", [3, 2**40])
def test_build_product_integral_products_scale_exactly(scale):
    """Scaling both factors' integral products by c scales the product's by
    c^2, exactly also past 2^63."""
    s1 = base_models()["S1"]
    scaled = CohomologyModel(
        s1.dimension, s1.pieces, s1.rho2, s1.beta, s1.sq, s1.cup2, {k: t * scale for k, t in s1.cup_int.items()},
    )
    plain, big = build_product(s1, s1), build_product(scaled, scaled)
    assert set(big.cup_int) == set(plain.cup_int)
    for key, t in plain.cup_int.items():
        assert (big.cup_int[key] == t * scale**2).all(), key
    assert (plain.cup_int[(1, 1)] < 0).any()  # the sign (-1)^(j1 i2) of s x 1 . 1 x s


def _s2():
    from contact9.library import monomial_model

    return monomial_model([("x", 2, 2)], {"x": [(1,), (2,)]}, "S2")


def test_connected_sum_of_cohomology_models_in_dimension_four():
    cp2 = base_models()["CP2"]
    s = connected_sum(cp2, cp2)
    assert isinstance(s, CohomologyModel) and s.label == "CP2#CP2"
    assert [s.f2_dim(d) for d in range(5)] == [1, 0, 2, 0, 1]
    assert validate(s).ok
    assert wu_classes(s).v2.bits == (1, 1)  # odd intersection form: not spin
    s2xs2 = build_product(_s2(), _s2())
    assert [s2xs2.f2_dim(d) for d in range(5)] == [1, 0, 2, 0, 1]
    assert validate(s2xs2).ok
    assert wu_classes(s2xs2).v2.is_zero()  # even intersection form: spin


def test_connected_sum_rejects_mismatched_summands():
    blocks = base_models()
    with pytest.raises(TypeError, match="two manifold models or two cohomology models"):
        connected_sum(library("S9"), blocks["S9_block"])
    with pytest.raises(ValueError, match="one dimension"):
        connected_sum(blocks["CP2"], blocks["HP2"])
    with pytest.raises(ValueError, match="n >= 2"):
        connected_sum(blocks["S1"], blocks["S1"])


def test_connected_sum_with_sphere_is_identity():
    for name in ("S1xHP2", "S1xCP4", "M1_surgered"):
        x = library(name)
        s = connected_sum(library("S9"), x)
        mx, ms = x.cohomology, s.cohomology
        for d in range(1, 9):
            assert ms.f2_dim(d) == mx.f2_dim(d)
            assert ms.piece(d).z_torsion == mx.piece(d).z_torsion
        for (i, j), t in mx.cup2.items():
            if 1 <= i and 1 <= j and i + j <= 9:
                assert np.array_equal(ms.cup2[(i, j)], t)
        for key in mx.sq:
            assert np.array_equal(ms.sq[key], mx.sq[key])
        assert validate(s).ok


def test_manifold_model_requires_dimension_nine():
    with pytest.raises(ValueError, match="9-dimensional"):
        ManifoldModel(base_models()["CP4"])


def test_connected_sum_commutative_up_to_relabeling():
    a = library("S1xHP2")
    b = library("S1xCP4")
    ab = connected_sum(a, b)
    ba = connected_sum(b, a)
    # block swap: generators of ab are (a-block, b-block); of ba the reverse
    f2_maps, z_maps, z_invs = {}, {}, {}
    ma, mb = a.cohomology, b.cohomology
    for d in range(10):
        dim = ab.cohomology.f2_dim(d)
        mat = np.zeros((dim, dim), dtype=np.uint8)
        if d in (0, 9):
            mat = np.eye(dim, dtype=np.uint8)
        else:
            na = ma.f2_dim(d)
            nb = mb.f2_dim(d)
            for k in range(na):
                mat[nb + k, k] = 1
            for k in range(nb):
                mat[k, na + k] = 1
        f2_maps[d] = mat
        gens = ab.cohomology.z_gens(d)
        zmat = np.zeros((gens, gens), dtype=object)
        if d in (0, 9):
            zmat = np.eye(gens, dtype=object)
        else:
            za = ma.z_gens(d)
            zb = mb.z_gens(d)
            # both sums order free-then-torsion; with torsion-free summands the
            # blocks are contiguous
            for k in range(za):
                zmat[zb + k, k] = 1
            for k in range(zb):
                zmat[k, za + k] = 1
        z_maps[d] = zmat
        z_invs[d] = zmat.T
    iso = GradedIso(f2_maps=f2_maps, z_maps=z_maps, z_inv_maps=z_invs)
    assert homotopy_invariance_check(ab, ba, iso)


def test_from_simplicial_s4():
    m = from_simplicial(sphere(4), label="S4")
    assert m.orientable
    assert [m.piece(d).z_rank for d in range(5)] == [1, 0, 0, 0, 1]
    assert validate(m).ok


def test_from_simplicial_cp2():
    m = from_simplicial(cp2_9(), label="CP2")
    assert validate(m).ok
    sw = sw_classes(m)
    # total class 1 + a + a^2
    assert sw.w[2].bits == (1,)
    assert sw.w[4].bits == (1,)
    assert sw.w[1].is_zero() and sw.w[3].is_zero()


def test_from_simplicial_rp2_accepted_not_orientable():
    m = from_simplicial(rp2_6(), label="RP2")
    assert not m.orientable
    assert validate(m).ok  # structural invariants hold; orientation not claimed


def test_from_simplicial_checks_the_euler_characteristic(monkeypatch):
    chi = SimplicialComplex.euler_characteristic
    monkeypatch.setattr(SimplicialComplex, "euler_characteristic", lambda x: chi(x) + 1)
    with pytest.raises(ArithmeticError, match="Euler characteristic"):
        from_simplicial(rp2_6())


def test_validate_bockstein_values_in_row_major_order():
    # H^2 = Z + Z/4 + Z/8: the free row must vanish, and twice each torsion
    # entry must vanish modulo its order
    pieces = [GradedPiece(1, (), ("u",)), GradedPiece(0, (), ("a", "b")), GradedPiece(1, (4, 8), ("t",))]
    dims = [p.f2_dim for p in pieces]
    m = CohomologyModel(
        dimension=2, pieces=pieces,
        rho2=[[[1]], np.zeros((2, 0)), np.zeros((1, 3))],
        beta=[np.zeros((0, 1)), [[0, 5], [-3, 6], [4, -7]], np.zeros((0, 1))],
        sq={}, cup2={(i, j): np.zeros((dims[i], dims[j], dims[i + j])) for i in range(3) for j in range(3 - i)},
    )
    found = [(v.check, v.degree, v.detail) for v in validate(m).violations if v.check.startswith("bockstein")]
    assert found == [
        ("bockstein_torsion_valued", 1, "beta hits free generator 0"),
        ("bockstein_two_torsion", 1, "beta value 1 not killed by 2 in Z/4"),
        ("bockstein_two_torsion", 1, "beta value 1 not killed by 2 in Z/8"),
    ]


def test_from_simplicial_rejects_non_manifold():
    # two triangles sharing an edge: a disc-like complex, degenerate pairing
    x = SimplicialComplex([0, 1, 2, 3], [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(NotClosedManifoldError):
        from_simplicial(x)


def test_transform_model_preserves_validity_and_verdict():
    from contact9.decider import decide

    rng = np.random.default_rng(515)
    for name in ("S1xCP4", "Dold_5_2", "M1_surgered"):
        m = library(name)
        base = decide(m)
        for perm_only in (True, False):
            maps = random_model_iso(m, rng, permutation_only=perm_only)
            t = transform_model(m, *maps)
            assert validate(t).ok
            v = decide(t)
            assert v.outcome == base.outcome and v.obstruction == base.obstruction


def _tables_equal_up_to_names(a, b):
    """Model equality ignoring basis-name cosmetics."""
    if a.dimension != b.dimension:
        return False
    for d in range(a.dimension + 1):
        pa, pb = a.piece(d), b.piece(d)
        if (pa.z_rank, pa.z_torsion, pa.f2_dim) != (pb.z_rank, pb.z_torsion, pb.f2_dim):
            return False
    return next(a.differences(b), None) is None


@pytest.mark.parametrize("family, key", [
    ("sq", (2, 4)), ("beta", 3), ("rho2", 4), ("cup2", (1, 1)), ("cup_int", (2, 6)),
])
def test_differences_names_the_one_flipped_table(family, key):
    """Flipping the parity of one entry of a based copy's table is the one
    difference ``differences`` reports, and ``equals`` sees it."""
    base = library("Dold_5_2").cohomology
    copy = transform_model(base, *random_model_iso(base, np.random.default_rng(31)))
    tables = getattr(copy, family)
    table = np.array(tables[key])
    table.flat[0] = 1 - table.flat[0] % 2
    fields = dict(
        dimension=9, pieces=copy.pieces, rho2=copy.rho2, beta=copy.beta, sq=copy.sq,
        cup2=copy.cup2, cup_int=copy.cup_int, orientable=True, label=copy.label,
    )
    same = CohomologyModel(**fields)
    fields[family] = {**tables, key: table} if isinstance(tables, dict) else [
        table if d == key else t for d, t in enumerate(tables)
    ]
    flipped = CohomologyModel(**fields)
    assert list(copy.differences(flipped)) == [(family, key)]
    assert list(flipped.differences(copy)) == [(family, key)]
    assert copy.equals(same) and not copy.equals(flipped)


@pytest.mark.parametrize("family", ["cup2", "cup_int"])
def test_differences_names_a_one_sided_product_tensor(family):
    """A product tensor declared on one side only is its own family, either way."""
    c = library("M3_sum").cohomology
    fields = dict(
        dimension=9, pieces=c.pieces, rho2=c.rho2, beta=c.beta, sq=c.sq,
        cup2=c.cup2, cup_int=c.cup_int, orientable=True,
    )
    fields[family] = {k: t for k, t in getattr(c, family).items() if k != (2, 6)}
    dropped = CohomologyModel(**fields)
    assert list(c.differences(dropped)) == [(family + " missing", (2, 6))]
    assert list(dropped.differences(c)) == [(family + " missing", (2, 6))]


def test_product_tensors_past_the_top_are_not_kept():
    """A product past the top has no coordinates: a tensor given for it is
    dropped, so the model equals its transport along identity maps."""
    c = library("M3_sum").cohomology
    past = {(5, 5): np.zeros((c.f2_dim(5), c.f2_dim(5), 0))}
    x = CohomologyModel(9, c.pieces, c.rho2, c.beta, c.sq, {**c.cup2, **past}, {**c.cup_int, **past}, True)
    assert (5, 5) not in x.cup2 and (5, 5) not in x.cup_int and x.equals(c)
    f2_maps = {d: np.eye(c.f2_dim(d), dtype=np.uint8) for d in range(10)}
    z_maps = {d: np.eye(c.z_gens(d), dtype=object) for d in range(10)}
    assert transform_model(x, f2_maps, f2_maps, z_maps, z_maps).equals(x)


def test_connected_sum_associative_up_to_relabeling():
    """For torsion-free summands both associations produce literally the same
    tables (generators line up block by block)."""
    a, b, c = library("S1xHP2"), library("S1xCP4"), library("M1_surgered")
    left = connected_sum(connected_sum(a, b), c)
    right = connected_sum(a, connected_sum(b, c))
    assert _tables_equal_up_to_names(left.cohomology, right.cohomology)
    assert (left.phi_hat is None) == (right.phi_hat is None)
    from contact9.decider import decide

    vl, vr = decide(left), decide(right)
    assert vl.outcome == vr.outcome and vl.obstruction == vr.obstruction


def test_connected_sum_combines_supplied_omega():
    """Externally supplied degree-8 coset data adds across a sum."""
    base_a = library("S1xCP4")
    base_b = library("S1xCP4")
    wa = ManifoldModel(base_a.cohomology, omega_pc=base_a.cohomology.f2(8, [1]), label="A")
    wb = ManifoldModel(base_b.cohomology, omega_pc=base_b.cohomology.f2(8, [1]), label="B")
    s = connected_sum(wa, wb)
    assert s.omega_pc is not None
    assert s.omega_pc.bits == (1, 1)
    # one summand missing the datum: the sum has no datum
    s2 = connected_sum(wa, base_b)
    assert s2.omega_pc is None


def test_model_constructor_rejects_bad_shapes():
    good = library("S9").cohomology
    with pytest.raises(ValueError):
        CohomologyModel(
            dimension=9,
            pieces=good.pieces[:5],  # wrong length
            rho2=good.rho2, beta=good.beta, sq=good.sq, cup2=good.cup2,
        )
    with pytest.raises(ValueError):
        GradedPieceBad = GradedPiece(0, (1,), ())  # torsion < 2


def test_graded_piece_divisibility_chain():
    GradedPiece(1, (2, 4, 8), ("a", "b", "c"))
    with pytest.raises(ValueError, match="divisibility"):
        GradedPiece(0, (4, 2), ())
    with pytest.raises(ValueError, match="divisibility"):
        GradedPiece(0, (2, 3), ())


def test_from_simplicial_low_dim_bridge_validates():
    from contact9.complexes import torus_7

    for x, label in ((torus_7(), "T2"), (sphere(2), "S2"), (sphere(3), "S3")):
        m = from_simplicial(x, label=label)
        assert validate(m).ok, label
