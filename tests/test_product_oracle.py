"""Product models against the Kunneth and Whitney product formulas, computed
here from the factors alone.

The products are those of ``test_builder_golden.py`` (each base block and
RP5 times each base block, up to total dimension 12) and three whose second
factor is itself a product.  For a torsion-free second factor Y:

- H^d(X x Y; Z/2) has dimension sum_{i+j=d} dim H^i(X; Z/2) dim H^j(Y; Z/2);
- H^d(X x Y; Z) is the sum over i + j = d of H^i(X) (x) H^j(Y), so its rank
  is sum r_i(X) r_j(Y) and each torsion summand Z/t of H^i(X) appears
  r_j(Y) times;
- w(X x Y) = w(X) x w(Y), which in the product's block basis (degree d is
  the blocks (i, d - i) in order of i, each the Kronecker product of the
  factors' bases) is the concatenation of the Kronecker products
  w_i(X) (x) w_{d-i}(Y);
- integral products graded-commute, y x = (-1)^(ij) x y for x of degree i
  and y of degree j, which ``validate`` does not check.
"""

import numpy as np
import pytest

from contact9.charclasses import characteristic_classes
from contact9.library import base_models, rp5_model
from contact9.model import _tensor_model, validate

MAX_PRODUCT_DIMENSION = 12


def _factors():
    blocks = base_models()
    out = {
        f"{na}x{nb}": (a, b)
        for na, a in {**blocks, "RP5": rp5_model()}.items()
        for nb, b in blocks.items()
        if a.dimension + b.dimension <= MAX_PRODUCT_DIMENSION
    }
    s1xs4 = _tensor_model(blocks["S1"], blocks["S4"])
    cp2xcp2 = _tensor_model(blocks["CP2"], blocks["CP2"])
    out["(S1xS4)x(S1xS4)"] = (s1xs4, s1xs4)
    out["(CP2xCP2)xCP2"] = (cp2xcp2, blocks["CP2"])
    out["RP5x(S1xS4)"] = (rp5_model(), s1xs4)
    return out


PRODUCTS = sorted(_factors())


def _total_sw(m) -> list[np.ndarray]:
    """w_0, ..., w_n of a model as mod-2 vectors, w_0 = 1."""
    _wu, sw, broken = characteristic_classes(m)
    assert not broken
    return [np.ones(1, dtype=np.uint8)] + [np.array(sw.w[k].bits, dtype=np.uint8) for k in range(1, m.dimension + 1)]


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_follows_kunneth_and_whitney(name):
    a, b = _factors()[name]
    p = _tensor_model(a, b)
    n = a.dimension + b.dimension
    assert p.dimension == n
    degrees = [[(i, d - i) for i in range(a.dimension + 1) if 0 <= d - i <= b.dimension] for d in range(n + 1)]

    f2_dims = np.convolve([a.f2_dim(i) for i in range(a.dimension + 1)], [b.f2_dim(j) for j in range(b.dimension + 1)])
    assert [p.f2_dim(d) for d in range(n + 1)] == f2_dims.tolist()
    for d in range(n + 1):
        assert p.piece(d).z_rank == sum(a.piece(i).z_rank * b.piece(j).z_rank for i, j in degrees[d])
        torsion = sorted(t for i, j in degrees[d] for t in a.piece(i).z_torsion * b.piece(j).z_rank)
        assert p.piece(d).z_torsion == tuple(torsion)

    assert validate(p).ok
    for (i, j), t in p.cup_int.items():
        if i + j <= n and (j, i) in p.cup_int:
            diff = t - (-1) ** (i * j) * p.cup_int[(j, i)].transpose(1, 0, 2)
            for c, order in enumerate(p.z_orders(i + j)):
                assert not (diff[:, :, c] % order if order else diff[:, :, c]).any(), (i, j)
    wa, wb, wp = _total_sw(a), _total_sw(b), _total_sw(p)
    for d in range(n + 1):
        cross = [np.kron(wa[i], wb[j]) for i, j in degrees[d]]
        assert np.array_equal(wp[d], np.concatenate(cross).astype(np.uint8)), d
