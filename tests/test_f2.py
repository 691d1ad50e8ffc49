"""Mod-2 linear algebra helpers."""

import numpy as np

from contact9 import f2


def naive_rank(rows):
    rows = [int("".join(map(str, r)), 2) if len(r) else 0 for r in rows]
    rank = 0
    for col in range(64):
        pivot = None
        for i, r in enumerate(rows):
            if (r >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        p = rows.pop(pivot)
        rows = [r ^ p if (r >> col) & 1 else r for r in rows]
        rank += 1
    return rank


def test_rank_against_bitset_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = rng.integers(0, 2, size=(rng.integers(1, 7), rng.integers(1, 7))).astype(np.uint8)
        assert f2.rank(m) == naive_rank([list(reversed(row)) for row in m.tolist()])


def test_solve_and_nullspace():
    rng = np.random.default_rng(13)
    for _ in range(60):
        m = rng.integers(0, 2, size=(5, 4)).astype(np.uint8)
        x = rng.integers(0, 2, size=4).astype(np.uint8)
        b = f2.mat_vec(m, x)
        sol = f2.solve(m, b)
        assert sol is not None
        assert np.array_equal(f2.mat_vec(m, sol), b)
        null = f2.nullspace(m)
        for row in null:
            assert not f2.mat_vec(m, row).any()
        assert f2.rank(m) + null.shape[0] == 4


def test_solve_unsolvable():
    m = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    assert f2.solve(m, [1, 0]) is None


def test_inverse():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5):
        m = f2.random_invertible(rng, n)
        inv = f2.inverse(m)
        assert np.array_equal(f2.mat_mul(m, inv), f2.eye(n))
        assert np.array_equal(f2.mat_mul(inv, m), f2.eye(n))


def test_subspace_membership_and_reduction():
    v1 = [1, 1, 0, 0]
    v2 = [0, 1, 1, 0]
    s = f2.Subspace([v1, v2])
    assert s.dim == 2
    assert s.contains([1, 0, 1, 0])
    assert not s.contains([0, 0, 0, 1])
    r = s.reduce([1, 1, 0, 1])
    # canonical representative: reducing again changes nothing
    assert np.array_equal(s.reduce(r), r)
    # [1, 1, 0, 1] + [0, 1, 1, 1] = v1 + v2 lies in s: one coset, one representative
    assert np.array_equal(s.reduce([0, 1, 1, 1]), r)


def test_subspace_equality_independent_of_generators():
    a = f2.Subspace([[1, 1, 0], [0, 1, 1]])
    b = f2.Subspace([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert a == b
    assert f2.Subspace([], ambient_dim=3) != a


def test_empty_subspace():
    s = f2.Subspace([], ambient_dim=3)
    assert s.dim == 0
    assert s.contains([0, 0, 0])
    assert not s.contains([1, 0, 0])
