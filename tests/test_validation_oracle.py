"""The whole-table validation checks against reference loops.

``validate`` reads every mod-2 table from the model's one layout: the total
square and the product table over the bases of all degrees, of which
``sq_matrix`` and ``cup_tensor`` are block reads.  It checks the Cartan
formula once per pair of degrees, as Sq(ab) = Sq(a) Sq(b) over the total
square, associativity once per triple of degrees, commutativity as one
comparison of the product table with its transpose and the unit action as
one comparison of its unit slices with the identity.  The reference
implementations below are the direct loops: one contraction per
(i, j, k, s) for Sq^k(ab) = sum_s Sq^s a Sq^(k-s) b, two per triple of
degrees for (ab)c = a(bc), one comparison per pair of degrees for ab = ba
and one per degree for 1a = a = a1.  They read the stored ``sq`` and
``cup2`` tables, an absent entry as zero, so they do not share the layout
under test.  Both must give the same violation list, in the same order, on
a seeded sample of the builder-golden models, on single bit flips of their
``sq`` and ``cup2`` tables and on models left without a product tensor.
"""

import numpy as np
import pytest

from contact9.library import library
from contact9.model import CohomologyModel, ValidationReport, _operation_checks, _ring_checks, _structural_checks

SEED = 28
MODELS = 12  # sampled from the builder-golden models
FLIPS = 4  # bit flips per table family and sampled model
CHECKS = ("cartan", "associativity", "commutativity", "unit_action")


def _mod2(spec: str, *operands) -> np.ndarray:
    return (np.einsum(spec, *operands, dtype=np.int64) & 1).astype(np.uint8)


def _tensor(m: CohomologyModel, i: int, j: int) -> np.ndarray:
    """The stored (i, j) product tensor mod 2; an absent one is zero."""
    t = m.cup2.get((i, j))
    return np.zeros((m.f2_dim(i), m.f2_dim(j), m.f2_dim(i + j)), np.uint8) if t is None else t & 1


def _square(m: CohomologyModel, k: int, i: int) -> np.ndarray:
    """Sq^k on degree i from the stored squares: the identity for k = 0, zero
    for k > i or an absent entry."""
    if k == 0:
        return np.eye(m.f2_dim(i), dtype=np.uint8)
    t = m.sq.get((k, i)) if k <= i else None
    return np.zeros((m.f2_dim(i + k), m.f2_dim(i)), np.uint8) if t is None else t & 1


def reference_cartan(m: CohomologyModel) -> list:
    n = m.dimension
    out = []
    for (i, j) in sorted(m.cup2):
        if not (m.f2_dim(i) and m.f2_dim(j)):
            continue
        t = _tensor(m, i, j)
        ks = range(1, min(i + j, n - i - j) + 1)
        bad = np.zeros((m.f2_dim(i), m.f2_dim(j), len(ks)), dtype=bool)
        for k in ks:
            lhs = _mod2("zc,xyc->xyz", _square(m, k, i + j), t)
            rhs = np.zeros_like(lhs)
            for s in range(k + 1):
                left, right = _square(m, s, i), _square(m, k - s, j)
                if left.any() and right.any():
                    rhs ^= _mod2("px,qy,pqz->xyz", left, right, _tensor(m, i + s, j + k - s))
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
                left = _mod2("xyp,pzq->xyzq", _tensor(m, i, j), _tensor(m, i + j, k))
                right = _mod2("yzp,xpq->xyzq", _tensor(m, j, k), _tensor(m, i, j + k))
                for _ in np.flatnonzero((left != right).any(axis=3)):
                    out.append(("associativity", i + j + k, f"degrees ({i},{j},{k})"))
    return out


def reference_commutativity(m: CohomologyModel) -> list:
    n = m.dimension
    out = []
    for i in range(n + 1):
        for j in range(i, n + 1 - i):
            bad = (_tensor(m, i, j) != _tensor(m, j, i).transpose(1, 0, 2)).any(axis=2)
            for _ in np.flatnonzero(bad):
                out.append(("commutativity", i + j, f"mod-2 products ({i},{j}) vs ({j},{i}) differ"))
    return out


def reference_unit_action(m: CohomologyModel) -> list:
    out = []
    if m.f2_dim(0) != 1:
        return out
    for j in range(m.dimension + 1):
        eye = np.eye(m.f2_dim(j), dtype=np.uint8)
        bad = np.zeros((m.f2_dim(j), 2), dtype=bool)
        bad[:, 0] = (_tensor(m, 0, j)[0] != eye).any(axis=1)
        bad[:, 1] = (_tensor(m, j, 0)[:, 0] != eye).any(axis=1)
        for _e, side in np.argwhere(bad):
            out.append(("unit_action", j, f"unit does not act as identity on the {('left', 'right')[side]}"))
    return out


def _reference(m: CohomologyModel) -> list:
    return reference_unit_action(m) + reference_cartan(m) + reference_commutativity(m) + reference_associativity(m)


def _checked(m: CohomologyModel) -> list:
    rep = ValidationReport()
    _structural_checks(m, rep)
    _operation_checks(m, rep)
    _ring_checks(m, rep)
    return [(v.check, v.degree, v.detail) for v in rep.violations if v.check in CHECKS]


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
            want = _reference(candidate)
            assert _checked(candidate) == want, name
            reached |= {check for check, _, _ in want}
    assert reached == set(CHECKS)


@pytest.mark.parametrize("left_out", [[(4, 2)], [(0, 2)], [(2, 0), (6, 1)]])
def test_an_absent_tensor_is_reported_first_then_read_as_zero(left_out):
    """A directly built model without some product tensors: validation
    reports each as missing before anything else, and every check, the
    references included, then reads it as zero."""
    m = library("S1xCP4").cohomology
    broken = CohomologyModel(
        m.dimension, m.pieces, m.rho2, m.beta, m.sq, {k: t for k, t in m.cup2.items() if k not in left_out},
        m.cup_int, m.orientable, m.label,
    )
    rep = ValidationReport()
    _structural_checks(broken, rep)
    assert [(v.check, v.degree) for v in rep.violations[:len(left_out)]] == [
        ("product_tensor_missing", i) for i, _ in sorted(left_out)
    ]
    want = _reference(broken)
    assert _checked(broken) == want
    # each left-out pair breaks an identity that holds on the whole model
    assert _checked(m) == []
    assert {check for check, _, _ in want} >= {"commutativity"} | ({"unit_action"} if any(0 in p for p in left_out) else set())
