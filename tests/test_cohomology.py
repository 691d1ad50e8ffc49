"""Cohomology groups and class operations of the reference complexes."""

import importlib
import math

import numpy as np
import pytest

from contact9 import f2, intlinalg
from contact9.cohomology import Cohomology, _divide_rows, _scale_rows, cohomology, pullback_cochain
from contact9.complexes import cp2_9, rp2_6, rp3_40, sphere, torus_7
from contact9.intlinalg import safe_matmul, snf
from contact9.model import from_simplicial
from contact9.simplicial import Cochain, SimplicialComplex, coboundary, coboundary_matrix
from test_simplicial_golden import _small_complexes


def f2_rank_naive(mat):
    """Brute-force row reduction oracle over F2."""
    rows = [int("".join(str(int(v) & 1) for v in r), 2) if len(r) else 0 for r in mat]
    rank = 0
    while rows:
        rows = [r for r in rows if r]
        if not rows:
            break
        piv = rows.pop()
        low = piv & -piv
        rows = [r ^ piv if r & low else r for r in rows]
        rank += 1
    return rank


def test_sphere_integral():
    groups = cohomology(sphere(4), 0)
    assert [g.describe() for g in groups] == ["Z", "0", "0", "0", "Z"]


def test_rp2_mod2_dims_against_rank_oracle():
    x = rp2_6()
    coh = Cohomology(x)
    groups = coh.groups(2)
    assert [g.describe() for g in groups] == ["Z/2", "Z/2", "Z/2"]
    # oracle: dim H^d = n_d - rank(delta_d) - rank(delta_{d-1}) over F2
    deltas = [np.asarray(coh.delta(d)) % 2 for d in range(-1, 3)]
    for d in range(3):
        expect = (
            x.n_simplices(d)
            - f2_rank_naive(deltas[d + 1].tolist())
            - (f2_rank_naive(deltas[d].tolist()) if d > 0 else 0)
        )
        assert len(groups[d].torsion) == expect


def test_rp2_integral():
    groups = cohomology(rp2_6(), 0)
    assert [g.describe() for g in groups] == ["Z", "0", "Z/2"]


def test_torus_integral_and_cup():
    x = torus_7()
    coh = Cohomology(x)
    assert [g.describe() for g in coh.groups(0)] == ["Z", "Z + Z", "Z"]
    a, b = coh.basis_classes(2, 1)
    ab = coh.cup(a, b)
    # brute-force pairing with the fundamental cycle: sum over all triangles
    rep = coh.representative(ab)
    pairing = sum(rep.values.get(s, 0) for s in x.simplices(2)) % 2
    assert pairing == 1
    assert ab.coords == (1,)
    assert coh.cup(a, a).is_zero()
    assert coh.cup(b, b).is_zero()


def test_rp2_cup_square_brute_force():
    x = rp2_6()
    coh = Cohomology(x)
    a = coh.basis_classes(2, 1)[0]
    aa = coh.cup(a, a)
    rep = coh.representative(aa)
    # evaluation against the sum of all 2-simplices
    assert sum(rep.values.get(s, 0) for s in x.simplices(2)) % 2 == 1
    assert aa.coords == (1,)


def test_bockstein_of_reduction_vanishes():
    for x in (rp2_6(), torus_7(), sphere(3)):
        coh = Cohomology(x)
        for d in range(x.dimension + 1):
            for z in coh.basis_classes(0, d):
                assert coh.bockstein(coh.reduce_mod(1, z)).is_zero()


def test_bockstein_rp2():
    coh = Cohomology(rp2_6())
    a = coh.basis_classes(2, 1)[0]
    b = coh.bockstein(a)
    # generator of H^2(Z) = Z/2: lift-coboundary-halve gives the generator
    assert b.coords == (1,)
    assert coh.reduce_mod(1, b) == coh.sq(1, a)


def test_bockstein_torsion_free_vanishes():
    coh = Cohomology(cp2_9())
    for d in range(5):
        for e in coh.basis_classes(2, d):
            assert coh.bockstein(e).is_zero()


def test_reduce_mod_examples():
    coh = Cohomology(cp2_9())
    z = coh.basis_classes(0, 2)[0]
    assert coh.reduce_mod(1, z).coords == (1,)
    zero = coh.zero_class(0, 2)
    assert coh.reduce_mod(1, zero).is_zero()
    twice = coh.add(z, z)
    assert coh.reduce_mod(1, twice).is_zero()


def test_mod4_groups_and_bockstein():
    coh = Cohomology(rp2_6())
    groups4 = coh.groups(4)
    # universal coefficients: H^1 = Tor(H^2(Z), Z/4) = Z/2, H^2 = H^2(Z) x Z/4 = Z/2
    assert [g.describe() for g in groups4] == ["Z/4", "Z/2", "Z/2"]
    gen1 = coh.basis_classes(4, 1)[0]
    b = coh.bockstein(gen1)
    # image of the mod-4 Bockstein generates the 2-torsion of H^2(Z)
    assert b.coords == (1,)
    for d in range(3):
        for z in coh.basis_classes(0, d):
            assert coh.bockstein(coh.reduce_mod(2, z)).is_zero()


def test_exactness_image_rho2_equals_kernel_beta():
    for x in (rp2_6(), torus_7(), sphere(4), cp2_9()):
        coh = Cohomology(x)
        for d in range(x.dimension + 1):
            dim = len(coh.group(2, d).torsion)
            image = {tuple(coh.reduce_mod(1, z).coords) for z in _span(coh, 0, d)}
            kernel = {
                tuple(c.coords) for c in _all_classes(coh, 2, d) if coh.bockstein(c).is_zero()
            }
            assert image == kernel, (x, d)


def _all_classes(coh, modulus, degree):
    from contact9.cohomology import CohomologyClass

    g = coh.group(modulus, degree)
    n = g.n_generators
    orders = g.orders
    if n == 0:
        yield CohomologyClass(modulus, degree, ())
        return
    if n > 6:
        pytest.skip("group too large to enumerate")
    def rec(prefix):
        if len(prefix) == n:
            yield CohomologyClass(modulus, degree, tuple(prefix))
            return
        o = orders[len(prefix)] or 3  # clip free directions
        for v in range(min(o, 3)):
            yield from rec(prefix + [v])
    yield from rec([])


def _span(coh, modulus, degree):
    yield from _all_classes(coh, modulus, degree)


def test_vertex_order_independence():
    """Groups and operations are invariant under re-declaring the vertex
    order, compared through the canonical isomorphism."""
    rng = np.random.default_rng(71)
    for base in (rp2_6(), torus_7(), sphere(3)):
        coh = Cohomology(base)
        for _ in range(3):
            verts = list(base.vertices)
            rng.shuffle(verts)
            reordered = SimplicialComplex(verts, [list(f) for f in base.facets])
            coh2 = Cohomology(reordered)
            identity = {v: v for v in verts}
            for modulus in (0, 2):
                for d in range(base.dimension + 1):
                    g1 = coh.group(modulus, d)
                    g2 = coh2.group(modulus, d)
                    assert (g1.free_rank, g1.torsion) == (g2.free_rank, g2.torsion)
            for d in range(base.dimension + 1):
                for e in coh2.basis_classes(2, d):
                    pulled = coh.class_of(pullback_cochain(base, coh2.representative(e), identity))
                    for k in (1, 2):
                        lhs = coh.sq(k, pulled)
                        rhs = coh.class_of(
                            pullback_cochain(base, coh2.representative(coh2.sq(k, e)), identity)
                        )
                        assert lhs == rhs
                    bl = coh.bockstein(pulled)
                    br = coh.class_of(
                        pullback_cochain(base, coh2.representative(coh2.bockstein(e)), identity)
                    )
                    assert bl == br


def test_operation_ring_contracts():
    coh = Cohomology(rp2_6())
    a = coh.basis_classes(2, 1)[0]
    z = coh.basis_classes(0, 0)[0]
    with pytest.raises(ValueError, match="mod-2"):
        coh.sq(1, z)
    with pytest.raises(ValueError, match="mod-2"):
        coh.bockstein(z)
    with pytest.raises(ValueError, match="integral"):
        coh.reduce_mod(1, a)
    with pytest.raises(ValueError, match="matching"):
        coh.cup(a, z)
    with pytest.raises(ValueError, match="not a cocycle"):
        from contact9.simplicial import Cochain

        x = rp2_6()
        coh2 = Cohomology(x)
        coh2.class_of(Cochain(x, 0, 2, {(x.vertices[0],): 1}))


def test_universal_coefficients_dimension_count():
    """dim H^i(F2) = rank H^i(Z) + #2-torsion(H^i) + #2-torsion(H^{i+1}):
    an independent consistency oracle tying the two coefficient rings."""
    for x in (rp2_6(), torus_7(), sphere(4), cp2_9()):
        coh = Cohomology(x)
        z = [coh.group(0, d) for d in range(x.dimension + 2)]
        for d in range(x.dimension + 1):
            two_tors = sum(1 for t in z[d].torsion if t % 2 == 0)
            two_tors_next = (
                sum(1 for t in z[d + 1].torsion if t % 2 == 0)
                if d + 1 <= x.dimension
                else 0
            )
            dim = len(coh.group(2, d).torsion)
            assert dim == z[d].free_rank + two_tors + two_tors_next, (x, d)


def test_basis_cocycles_represent_their_generators():
    """Round trip: the stored representative of each generator lies in the
    class with the corresponding unit coordinates."""
    for x in (rp2_6(), torus_7(), sphere(3)):
        coh = Cohomology(x)
        for modulus in (0, 2, 4):
            for d in range(x.dimension + 1):
                g = coh.group(modulus, d)
                for i, rep in enumerate(g.basis_cocycles):
                    coords = coh.class_of(rep).coords
                    expect = tuple(1 if k == i else 0 for k in range(g.n_generators))
                    assert coords == expect, (x, modulus, d, i)


@pytest.mark.parametrize("make, n_eliminations", [(cp2_9, 10), (rp3_40, 8)])
def test_each_coboundary_and_relation_lattice_is_factorised_once(monkeypatch, make, n_eliminations):
    """A model costs one column-side SNF per coboundary and one row-side SNF
    per degree, of the coboundaries in kernel coordinates, shared by Z and
    Z/2, and nothing else: 10 eliminations for cp2_9 and 8 for rp3_40."""
    calls = []
    core = intlinalg._snf_inplace

    def counted(a, big, rows, cols):
        calls.append((rows, cols))
        return core(a, big, rows, cols)

    monkeypatch.setattr(intlinalg, "_snf_inplace", counted)
    x = make()
    from_simplicial(x)
    assert calls.count((False, True)) == x.dimension + 1
    assert calls.count((True, False)) == x.dimension + 1
    assert len(calls) == n_eliminations


@pytest.mark.parametrize("make, n_solves", [(cp2_9, 6), (rp3_40, 7)])
def test_from_simplicial_solves_each_ring_and_degree_once(monkeypatch, make, n_solves):
    """Every class of the tables comes from one ``classes_of`` solve per
    nonempty (ring, degree) target, and none from ``class_of``."""
    solves, singles = [], []
    batched, single = Cohomology.classes_of, Cohomology.class_of

    def counted_batch(self, modulus, degree, cochains):
        solves.append((modulus, degree))
        return batched(self, modulus, degree, cochains)

    def counted_single(self, cochain):
        singles.append(cochain)
        return single(self, cochain)

    monkeypatch.setattr(Cohomology, "classes_of", counted_batch)
    monkeypatch.setattr(Cohomology, "class_of", counted_single)
    from_simplicial(make())
    assert len(solves) == len(set(solves)) == n_solves
    assert singles == []


def _batch(x, modulus, degree, rng):
    """The basis cocycles, then coboundaries, then each basis cocycle plus a coboundary."""
    reps = list(Cohomology(x).group(modulus, degree).basis_cocycles)
    exact = [
        coboundary(Cochain.from_vector(x, degree - 1, modulus, rng.integers(-3, 4, x.n_simplices(degree - 1))))
        if degree
        else Cochain(x, 0, modulus, {})
        for _ in range(3)
    ]
    return reps, exact, [r + e for r, e in zip(reps, exact * len(reps))]


@pytest.mark.parametrize("make", [cp2_9, rp2_6, torus_7])
@pytest.mark.parametrize("modulus", [0, 2, 4])
def test_classes_of_agrees_with_class_of(make, modulus):
    x = make()
    coh = Cohomology(x)
    rng = np.random.default_rng(modulus)
    for d in range(x.dimension + 1):
        reps, exact, shifted = _batch(x, modulus, d, rng)
        batch = reps + exact + shifted
        classes = coh.classes_of(modulus, d, batch)
        assert classes == [coh.class_of(c) for c in batch], (x, modulus, d)
        units = [tuple(int(k == i) for k in range(len(reps))) for i in range(len(reps))]
        assert [c.coords for c in classes] == units + [(0,) * len(reps)] * len(exact) + units


def test_classes_of_rejects_bad_batches():
    x = rp2_6()
    coh = Cohomology(x)
    rep = coh.group(2, 1).basis_cocycles[0]
    assert coh.classes_of(2, 1, []) == []
    with pytest.raises(ValueError, match="not a cocycle"):
        coh.classes_of(2, 0, [coh.group(2, 0).basis_cocycles[0], Cochain(x, 0, 2, {(x.vertices[0],): 1})])
    with pytest.raises(ValueError, match="one ring and degree"):
        coh.classes_of(2, 1, [rep, Cochain(x, 1, 4, rep.values)])
    with pytest.raises(ValueError, match="one ring and degree"):
        coh.classes_of(2, 1, [rep, coh.group(2, 2).basis_cocycles[0]])
    other = rp2_6()
    with pytest.raises(ValueError, match="different complex"):
        coh.classes_of(2, 1, [rep, Cochain(other, 1, 2, rep.values)])


def test_lattice_coordinates_must_divide_exactly():
    y = np.asarray([[4, 6], [3, 9]], dtype=np.int64)
    assert _divide_rows(y, np.asarray([[2], [3]])).tolist() == [[2, 3], [1, 3]]
    with pytest.raises(ArithmeticError):
        _divide_rows(y, np.asarray([[4], [3]]))
    with pytest.raises(ArithmeticError):
        _divide_rows(y.astype(object), np.asarray([[2], [2]]))


def test_scaling_the_int64_minimum_is_exact():
    scaled = _scale_rows(np.asarray([[-(2**63)], [5]], dtype=np.int64), np.asarray([[2], [3]], dtype=np.int64))
    assert scaled.dtype == object and scaled.tolist() == [[-(2**64)], [15]]


@pytest.mark.parametrize("name, x", list(_small_complexes()) + [("RP3", rp3_40())])
def test_coboundaries_have_zero_coordinates_above_the_rank(name, x):
    """U delta_d V = D and delta_d delta_{d-1} = 0 give D V^-1 delta_{d-1} = 0, so
    the rows of V^-1 delta_{d-1} above the rank vanish; the rest is ``image``."""
    coh = Cohomology(x)
    for d in range(1, x.dimension + 1):
        res = coh.delta_snf(d)
        below = coh.delta(d - 1)
        assert not safe_matmul(res.v_inv[: res.rank], below).any(), (name, d)
        assert np.array_equal(coh.image(d), safe_matmul(res.v_inv[res.rank :], below)), (name, d)


def test_from_simplicial_forms_one_image_product_per_degree(monkeypatch):
    """The coboundaries in kernel coordinates, V^-1 delta_{d-1}, are formed once
    per degree and shared by the groups over Z and Z/2."""
    x = rp3_40()
    deltas = [np.asarray(coboundary_matrix(x, d)) for d in range(x.dimension)]
    formed = []
    cohomology_mod = importlib.import_module("contact9.cohomology")

    def counted(product):
        def run(a, b):
            b = np.asarray(b)
            formed.extend(d + 1 for d, m in enumerate(deltas) if m.shape == b.shape and np.array_equal(m, b))
            return product(a, b)

        return run

    monkeypatch.setattr(cohomology_mod, "safe_matmul", counted(intlinalg.safe_matmul))
    monkeypatch.setattr(cohomology_mod, "sparse_matmul", counted(intlinalg.sparse_matmul))
    from_simplicial(x)
    assert sorted(formed) == list(range(1, x.dimension + 1))


@pytest.mark.parametrize("name, x", list(_small_complexes()) + [("RP3", rp3_40())])
def test_universal_coefficient_groups_against_independent_oracles(name, x):
    """The groups built by universal coefficients against two oracles that do
    not use them: dim H^d(X; Z/2) = n_d - rank_F2(delta_d) - rank_F2(delta_{d-1}),
    and the Z/4 torsion is the Smith diagonal of the whole relation lattice of
    the mod-4 cocycles, the coboundaries and 4 times every cochain, in the
    coordinates of the coboundary's SNF."""
    coh = Cohomology(x)
    for d in range(x.dimension + 1):
        n_d = x.n_simplices(d)
        below = f2.rank(coh.delta(d - 1) % 2) if d else 0
        assert coh.group(2, d).n_generators == n_d - f2.rank(coh.delta(d) % 2) - below, (name, d)

        res = coh.delta_snf(d)
        diagonal = res.diagonal
        scale = [4 // math.gcd(diagonal[i], 4) if i < res.rank else 1 for i in range(n_d)]
        image = safe_matmul(res.v_inv, coh.delta(d - 1))
        lattice = np.concatenate([image, safe_matmul(np.diag([4 // s for s in scale]), res.v_inv)], axis=1)
        orders = snf(lattice).diagonal
        g = coh.group(4, d)
        assert g.free_rank == 0 and g.torsion == tuple(sorted(t for t in orders if t != 1)), (name, d)
