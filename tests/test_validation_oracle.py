"""The whole-table Cartan and associativity checks against reference loops.

``validate`` checks the Cartan formula once per pair of degrees, as
Sq(ab) = Sq(a) Sq(b) over the total square, and associativity once per
triple of degrees.  The reference implementations below are the direct
loops: one contraction per (i, j, k, s) for Sq^k(ab) = sum_s Sq^s a
Sq^(k-s) b, and two per triple of degrees for (ab)c = a(bc), each through
``sq_matrix`` and ``cup_tensor``.  Both must give the same violation list, in
the same order, on a seeded sample of the builder-golden models and on
single bit flips of their ``sq`` and ``cup2`` tables.
"""

import numpy as np

from contact9.model import CohomologyModel, ValidationReport, _operation_checks, _ring_checks

SEED = 28
MODELS = 12  # sampled from the builder-golden models
FLIPS = 4  # bit flips per table family and sampled model


def _mod2(spec: str, *operands) -> np.ndarray:
    return (np.einsum(spec, *operands, dtype=np.int64) & 1).astype(np.uint8)


def reference_cartan(m: CohomologyModel) -> list:
    n = m.dimension
    out = []
    for (i, j) in sorted(m.cup2):
        if not (m.f2_dim(i) and m.f2_dim(j)):
            continue
        t = m.cup_tensor(i, j)
        ks = range(1, min(i + j, n - i - j) + 1)
        bad = np.zeros((m.f2_dim(i), m.f2_dim(j), len(ks)), dtype=bool)
        for k in ks:
            lhs = _mod2("zc,xyc->xyz", m.sq_matrix(k, i + j), t)
            rhs = np.zeros_like(lhs)
            for s in range(k + 1):
                left, right = m.sq_matrix(s, i), m.sq_matrix(k - s, j)
                if left.any() and right.any():
                    rhs ^= _mod2("px,qy,pqz->xyz", left, right, m.cup_tensor(i + s, j + k - s))
            bad[:, :, k - 1] = (lhs != rhs).any(axis=2)
        for _x, _y, k in np.argwhere(bad):
            out.append(("cartan", i + j, f"Sq^{k + 1} on product of degrees ({i},{j})"))
    return out


def reference_associativity(m: CohomologyModel) -> list:
    n = m.dimension
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            for k in range(1, n + 1 - i - j):
                if not (m.f2_dim(i) and m.f2_dim(j) and m.f2_dim(k)):
                    continue
                left = _mod2("xyp,pzq->xyzq", m.cup_tensor(i, j), m.cup_tensor(i + j, k))
                right = _mod2("yzp,xpq->xyzq", m.cup_tensor(j, k), m.cup_tensor(i, j + k))
                for _ in np.flatnonzero((left != right).any(axis=3)):
                    out.append(("associativity", i + j + k, f"degrees ({i},{j},{k})"))
    return out


def _checked(m: CohomologyModel) -> list:
    rep = ValidationReport()
    _operation_checks(m, rep)
    _ring_checks(m, rep)
    return [(v.check, v.degree, v.detail) for v in rep.violations if v.check in ("cartan", "associativity")]


def _flips(m: CohomologyModel, rng):
    """Seeded single bit flips of the squares Sq^k with 0 < k <= d and
    d + k <= n (an absent one is a zero matrix) and of the declared product
    tensors, as models."""
    n = m.dimension
    tables = {
        "sq": {
            (k, d): m.sq.get((k, d), np.zeros((m.f2_dim(d + k), m.f2_dim(d)), np.uint8))
            for d in range(n + 1) for k in range(1, min(d, n - d) + 1) if m.f2_dim(d) and m.f2_dim(d + k)
        },
        "cup2": {key: t for key, t in m.cup2.items() if t.size},
    }
    for family, table in tables.items():
        keys = sorted(table)
        for _ in range(FLIPS if keys else 0):
            key = keys[rng.integers(len(keys))]
            flipped = np.array(table[key])
            flipped[tuple(int(rng.integers(s)) for s in flipped.shape)] ^= 1
            sq, cup2 = dict(m.sq), dict(m.cup2)
            (sq if family == "sq" else cup2)[key] = flipped
            yield CohomologyModel(m.dimension, m.pieces, m.rho2, m.beta, sq, cup2, m.cup_int, m.orientable, m.label)


def test_whole_table_checks_match_the_reference_loops(built_models):
    rng = np.random.default_rng(SEED)
    reached = set()
    for k in sorted(rng.choice(len(built_models), size=MODELS, replace=False)):
        name, model = built_models[k]
        m = getattr(model, "cohomology", model)
        for candidate in (m, *_flips(m, rng)):
            want = reference_cartan(candidate) + reference_associativity(candidate)
            assert _checked(candidate) == want, name
            reached |= {check for check, _, _ in want}
    assert reached == {"cartan", "associativity"}
