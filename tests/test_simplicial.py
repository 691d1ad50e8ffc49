"""Complexes, cochains and the cochain-level products."""

import numpy as np
import pytest

from contact9.complexes import cp2_9, random_complex, rp2_6, rp3_40, sphere, torus_7
from contact9.simplicial import (
    Cochain, RingMismatchError, SimplicialComplex, coboundary, coboundary_matrix, cup, cup_i,
)


def test_constructor_rejects_repeats():
    with pytest.raises(ValueError, match="repeats"):
        SimplicialComplex([1, 2, 3], [[1, 1, 2]])


def test_constructor_rejects_unknown_vertex():
    with pytest.raises(ValueError, match="unknown"):
        SimplicialComplex([1, 2], [[1, 3]])


def test_constructor_rejects_contained_facets():
    with pytest.raises(ValueError, match="contained"):
        SimplicialComplex([1, 2, 3], [[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError, match="contained"):
        SimplicialComplex([1, 2, 3], [[1, 2], [1, 2]])


def test_facets_canonically_sorted():
    x = SimplicialComplex([3, 1, 2], [[2, 3, 1]])
    # vertex order is the declared order: 3 < 1 < 2
    assert x.facets == ((3, 1, 2),)
    assert x.simplices(1) == ((3, 1), (3, 2), (1, 2))


def test_simplex_counts_boundary_5_simplex():
    x = sphere(4)
    assert [x.n_simplices(d) for d in range(5)] == [6, 15, 20, 15, 6]
    assert x.euler_characteristic() == 2


def test_coboundary_squares_to_zero():
    rng = np.random.default_rng(23)
    for _ in range(10)          :
        x = random_complex(rng, 7, 4, 9)
        for d in range(x.dimension):
            vals = {s: int(rng.integers(-5, 6)) for s in x.simplices(d)}
            c = Cochain(x, d, 0, vals)
            assert coboundary(coboundary(c)).is_zero()


def _reference_coboundary_matrix(x, d):
    """The coboundary matrix built entry by entry from the face formula."""
    rows, cols = x.simplices(d + 1), x.simplex_index(d)
    mat = [[0] * len(cols) for _ in rows]
    for r, tau in enumerate(rows):
        for i in range(len(tau)):
            mat[r][cols[tau[:i] + tau[i + 1 :]]] += -1 if i & 1 else 1
    return np.array(mat, dtype=np.int64).reshape(len(rows), len(cols))


def test_coboundary_matrix_matches_the_face_formula():
    rng = np.random.default_rng(7)
    for x in (sphere(4), torus_7(), rp2_6(), cp2_9(), rp3_40(), random_complex(rng, 8, 3)):
        for d in range(x.dimension + 1):
            mat = coboundary_matrix(x, d)
            assert mat.dtype == np.int64
            assert np.array_equal(mat, _reference_coboundary_matrix(x, d)), (x, d)
        # below degree 0 there are no cochains: the zero map into C^0
        assert coboundary_matrix(x, -1).shape == (x.n_simplices(0), 0)


def test_cochain_support_validated():
    x = sphere(2)
    with pytest.raises(ValueError, match="not a"):
        Cochain(x, 1, 0, {(0, 9): 1})


def test_cup_unit():
    x = torus_7()
    one = Cochain(x, 0, 2, {(v,): 1 for v in x.vertices})
    rng = np.random.default_rng(3)
    f = Cochain(x, 1, 2, {s: int(rng.integers(0, 2)) for s in x.simplices(1)})
    assert cup(one, f) == f
    assert cup(f, one) == f


def test_cup_ring_mismatch():
    x = sphere(2)
    a = Cochain(x, 1, 2, {})
    b = Cochain(x, 1, 4, {})
    with pytest.raises(RingMismatchError):
        cup(a, b)
    y = sphere(2)
    c = Cochain(y, 1, 2, {})
    with pytest.raises(RingMismatchError):
        cup(a, c)


def test_cup_i_rejects_integral_ring():
    x = sphere(2)
    a = Cochain(x, 1, 0, {})
    with pytest.raises(RingMismatchError):
        cup_i(a, a, 1)
    b = Cochain(x, 1, 4, {})
    with pytest.raises(RingMismatchError):
        cup_i(b, b, 1)


def test_cup_0_equals_cup():
    rng = np.random.default_rng(31)
    x = random_complex(rng, 8, 4, 10)
    for _ in range(10):
        p, q = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        a = Cochain(x, p, 2, {s: int(rng.integers(0, 2)) for s in x.simplices(p)})
        b = Cochain(x, q, 2, {s: int(rng.integers(0, 2)) for s in x.simplices(q)})
        assert cup_i(a, b, 0) == cup(a, b)


def test_cup_n_is_pointwise_product():
    rng = np.random.default_rng(37)
    x = random_complex(rng, 8, 4, 10)
    for p in range(1, 4):
        a = Cochain(x, p, 2, {s: int(rng.integers(0, 2)) for s in x.simplices(p)})
        sq0 = cup_i(a, a, p)
        assert sq0 == a  # pointwise squares over F2


def test_cup_i_coboundary_identity():
    """d(x u_i y) = x u_{i-1} y + y u_{i-1} x + dx u_i y + x u_i dy (mod 2)."""
    rng = np.random.default_rng(41)
    for trial in range(40):
        x = random_complex(rng, 8, 4, 10)
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        i = int(rng.integers(0, p + q + 1))  # keep the target degree sensible
        a = Cochain(x, p, 2, {s: int(rng.integers(0, 2)) for s in x.simplices(p)})
        b = Cochain(x, q, 2, {s: int(rng.integers(0, 2)) for s in x.simplices(q)})
        deg = p + q - i + 1
        lhs = coboundary(cup_i(a, b, i))
        rhs = cup_i(a, b, i - 1) if i else Cochain(x, deg, 2, {})
        rhs = rhs + (cup_i(b, a, i - 1) if i else Cochain(x, deg, 2, {}))
        rhs = rhs + cup_i(coboundary(a), b, i) + cup_i(a, coboundary(b), i)
        assert lhs == rhs, (trial, p, q, i)


def test_rp2_facets_form_closed_surface():
    x = rp2_6()
    assert [x.n_simplices(d) for d in range(3)] == [6, 15, 10]
    assert x.euler_characteristic() == 1
    # each edge in exactly two triangles
    from collections import Counter

    cnt = Counter()
    for f in x.facets:
        for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2])):
            cnt[e] += 1
    assert set(cnt.values()) == {2}


def test_torus_facets_form_closed_surface():
    x = torus_7()
    assert [x.n_simplices(d) for d in range(3)] == [7, 21, 14]
    assert x.euler_characteristic() == 0


def test_modulus_must_be_power_of_two():
    x = sphere(2)
    with pytest.raises(ValueError, match="power of two"):
        Cochain(x, 1, 3, {})
    with pytest.raises(ValueError, match="power of two"):
        Cochain(x, 1, 6, {})
    Cochain(x, 1, 8, {})  # fine
