"""The named manifold models exercised by the decision procedure, plus the
building blocks they are assembled from.

Most models are truncated polynomial algebras on one or two generators, so
their tables (products, Steenrod squares) are generated from the generator
data by the Cartan formula rather than written out by hand.  Models with
integral torsion (the Dold manifold, real projective 5-space) declare their
integral side explicitly; the mod-2 Bockstein matrices are pinned down by
the requirement that reduction followed by nothing else equals Sq^1, which
is unambiguous here because all torsion has order two and reduces injectively.
"""

from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from .model import (
    CohomologyModel, GradedPiece, ManifoldModel, _tensor_model,
    build_product, connected_sum,
)

__all__ = ["library", "LIBRARY_NAMES", "corpus", "synthetic_spinc_models", "base_models"]

LIBRARY_NAMES = ("S9", "S1xHP2", "S1xCP4", "Dold_5_2", "M1_surgered", "M3_sum")


# -- truncated polynomial builder --------------------------------------------


def _mono_name(gens, expo) -> str:
    parts = []
    for (name, _deg, _pow), e in zip(gens, expo):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _mono_mul(gens, m1, m2):
    out = tuple(a + b for a, b in zip(m1, m2))
    for (_n, _d, power), e in zip(gens, out):
        if e >= power:
            return None
    return out


def _poly_mul(gens, p, q) -> frozenset:
    acc = set()
    for m1 in p:
        for m2 in q:
            m = _mono_mul(gens, m1, m2)
            if m is not None:
                acc ^= {m}
    return frozenset(acc)


def _mono_degree(gens, m) -> int:
    return sum(e * g[1] for e, g in zip(m, gens))


def _monomial_f2_data(gens, sq_gen):
    """Bases, product tensors and Steenrod matrices of F2[gens]/(truncations).

    ``sq_gen`` maps generator name -> iterable of exponent tuples: the total
    Steenrod square of that generator.  Everything else follows from the
    Cartan formula.
    """
    dimension = sum((p - 1) * d for (_n, d, p) in gens)
    ranges = [range(p) for (_n, _d, p) in gens]
    basis: list[list[tuple]] = [[] for _ in range(dimension + 1)]
    for expo in iproduct(*ranges):
        basis[_mono_degree(gens, expo)].append(tuple(expo))
    for b in basis:
        b.sort()
    index = [{m: i for i, m in enumerate(b)} for b in basis]

    total_sq = {g[0]: frozenset(map(tuple, sq_gen[g[0]])) for g in gens}

    def mono_total_sq(m) -> frozenset:
        acc = frozenset({tuple(0 for _ in gens)})
        for g, e in zip(gens, m):
            for _ in range(e):
                acc = _poly_mul(gens, acc, total_sq[g[0]])
        return acc

    sq: dict[tuple[int, int], np.ndarray] = {}
    for d in range(dimension + 1):
        for col, m in enumerate(basis[d]):
            for t in mono_total_sq(m):
                k = _mono_degree(gens, t) - d
                if k <= 0:
                    continue
                mtx = sq.setdefault(
                    (k, d), np.zeros((len(basis[d + k]), len(basis[d])), dtype=np.uint8)
                )
                mtx[index[d + k][t], col] ^= 1

    cup2: dict[tuple[int, int], np.ndarray] = {}
    for i in range(dimension + 1):
        for j in range(dimension + 1 - i):
            if not (basis[i] and basis[j] and basis[i + j]):
                continue
            t = np.zeros((len(basis[i]), len(basis[j]), len(basis[i + j])), dtype=np.uint8)
            for x, m1 in enumerate(basis[i]):
                for y, m2 in enumerate(basis[j]):
                    m = _mono_mul(gens, m1, m2)
                    if m is not None:
                        t[x, y, index[i + j][m]] = 1
            cup2[(i, j)] = t

    names = [tuple(_mono_name(gens, m) for m in b) for b in basis]
    return dimension, basis, index, names, sq, cup2


def monomial_model(gens, sq_gen, label: str) -> CohomologyModel:
    """Torsion-free model whose integral and mod-2 bases are the monomials.

    Integral products carry coefficient +1, which is only sign-correct when
    at most one generator has odd degree (and then necessarily squares to
    zero); asserted.
    """
    odd = [g for g in gens if g[1] % 2]
    if len(odd) > 1:
        raise ValueError("at most one odd-degree generator is supported")
    if odd and odd[0][2] != 2:
        raise ValueError("an odd generator must square to zero")
    dimension, basis, index, names, sq, cup2 = _monomial_f2_data(gens, sq_gen)
    pieces = [GradedPiece(len(basis[d]), (), names[d]) for d in range(dimension + 1)]
    rho2 = [np.eye(len(basis[d]), dtype=np.uint8) for d in range(dimension + 1)]
    beta = [np.zeros((len(basis[d + 1]) if d + 1 <= dimension else 0, len(basis[d])), dtype=np.int64)
            for d in range(dimension + 1)]
    cup_int = {key: t.astype(object) for key, t in cup2.items()}
    return CohomologyModel(
        dimension=dimension, pieces=pieces, rho2=rho2, beta=beta, sq=sq,
        cup2=cup2, cup_int=cup_int, orientable=True, label=label,
    )


# -- building blocks -----------------------------------------------------------


# name -> (generators, total Steenrod square of each generator) of each block
_BLOCKS = {
    "point": ([], {}),
    "S1": ([("s", 1, 2)], {"s": [(1,)]}),
    "S4": ([("x", 4, 2)], {"x": [(1,), (2,)]}),
    "S5": ([("y", 5, 2)], {"y": [(1,), (2,)]}),
    "S9_block": ([("t", 9, 2)], {"t": [(1,), (2,)]}),
    "CP2": ([("a", 2, 3)], {"a": [(1,), (2,)]}),
    "CP3": ([("a", 2, 4)], {"a": [(1,), (2,)]}),
    "CP4": ([("a", 2, 5)], {"a": [(1,), (2,)]}),
    "HP2": ([("u", 4, 3)], {"u": [(1,), (2,)]}),
}


def _block(name: str) -> CohomologyModel:
    gens, sq_gen = _BLOCKS[name]
    return monomial_model(gens, sq_gen, name)


def base_models() -> dict[str, CohomologyModel]:
    """Torsion-free building blocks for products and sums."""
    return {name: _block(name) for name in _BLOCKS}


def rp5_model() -> CohomologyModel:
    """Real projective 5-space: F2[x]/(x^6) with the standard torsion pattern."""
    gens = [("x", 1, 6)]
    dimension, basis, index, names, sq, cup2 = _monomial_f2_data(gens, {"x": [(1,), (2,)]})
    # integral side: Z, 0, Z/2 (ords x^2), 0, Z/2 (ords x^4), Z (ords x^5)
    pieces = [
        GradedPiece(1, (), names[0]),
        GradedPiece(0, (), names[1]),
        GradedPiece(0, (2,), names[2]),
        GradedPiece(0, (), names[3]),
        GradedPiece(0, (2,), names[4]),
        GradedPiece(1, (), names[5]),
    ]
    rho2 = [
        np.array([[1]], dtype=np.uint8),
        np.zeros((1, 0), dtype=np.uint8),
        np.array([[1]], dtype=np.uint8),
        np.zeros((1, 0), dtype=np.uint8),
        np.array([[1]], dtype=np.uint8),
        np.array([[1]], dtype=np.uint8),
    ]
    beta = [
        np.zeros((0, 1), dtype=np.int64),          # H^0 -> H^1(Z) = 0
        np.array([[1]], dtype=np.int64),           # beta(x) = T
        np.zeros((0, 1), dtype=np.int64),          # H^3(Z) = 0
        np.array([[1]], dtype=np.int64),           # beta(x^3) = T^2
        np.array([[0]], dtype=np.int64),           # beta(x^4) = 0
        np.zeros((0, 1), dtype=np.int64),
    ]
    cup_int = {}
    for i in range(6):
        for j in range(6 - i):
            zi, zj, zt = pieces[i].z_gens, pieces[j].z_gens, pieces[i + j].z_gens
            if not (zi and zj and zt):
                continue
            t = np.zeros((zi, zj, zt), dtype=object)
            if i == 0:
                for y in range(zj):
                    t[0, y, y] = 1
            elif j == 0:
                for x in range(zi):
                    t[x, 0, x] = 1
            elif (i, j) == (2, 2):
                t[0, 0, 0] = 1                     # T . T = T^2
            else:
                continue
            cup_int[(i, j)] = t
    return CohomologyModel(
        dimension=5, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=True, label="RP5",
    )


def dold_model() -> ManifoldModel:
    """The 9-dimensional Dold manifold: F2[c,d]/(c^6, d^3) with Sq1 c = c^2,
    Sq1 d = cd, Sq2 d = d^2; orientable but with nonvanishing degree-3
    integral class."""
    gens = [("c", 1, 6), ("d", 2, 3)]
    sq_gen = {"c": [(1, 0), (2, 0)], "d": [(0, 1), (1, 1), (0, 2)]}
    dimension, basis, index, names, sq, cup2 = _monomial_f2_data(gens, sq_gen)
    assert dimension == 9

    # integral structure: free classes reduce to d^2 (deg 4), c^5 (deg 5),
    # c^5 d^2 (deg 9); one order-2 class per degree 2..8 reducing to the
    # image of Sq^1 one degree down
    free_red = {0: (0, 0), 4: (0, 2), 5: (5, 0), 9: (5, 2)}
    torsion_red = {
        2: (2, 0),        # reduction c^2       (Bockstein of c)
        3: (1, 1),        # cd                  (Bockstein of d)
        4: (4, 0),        # c^4                 (Bockstein of c^3)
        5: (3, 1),        # c^3 d               (Bockstein of c^2 d)
        6: (2, 2),        # c^2 d^2             (Bockstein of c d^2)
        7: (5, 1),        # c^5 d               (Bockstein of c^4 d)
        8: (4, 2),        # c^4 d^2             (Bockstein of c^3 d^2)
    }
    pieces = []
    for d in range(10):
        pieces.append(
            GradedPiece(
                z_rank=1 if d in free_red else 0,
                z_torsion=(2,) if d in torsion_red else (),
                f2_basis=names[d],
            )
        )
    rho2 = []
    for d in range(10):
        mtx = np.zeros((len(basis[d]), pieces[d].z_gens), dtype=np.uint8)
        col = 0
        if d in free_red:
            mtx[index[d][free_red[d]], col] = 1
            col += 1
        if d in torsion_red:
            mtx[index[d][torsion_red[d]], col] = 1
        rho2.append(mtx)

    beta = []
    for d in range(10):
        tgt = pieces[d + 1].z_gens if d + 1 <= 9 else 0
        mtx = np.zeros((tgt, len(basis[d])), dtype=np.int64)
        if d + 1 <= 9 and (d + 1) in torsion_red:
            row = pieces[d + 1].z_rank  # torsion generator sits after the free ones
            target_mono = torsion_red[d + 1]
            for col, m in enumerate(basis[d]):
                # Sq^1(c^a d^b) = (a + b) c^{a+1} d^b
                a, b = m
                if (a + b) % 2 and a + 1 < 6:
                    if (a + 1, b) == target_mono:
                        mtx[row, col] = 1
        beta.append(mtx)

    # integral products determined by the torsion orders and injectivity of
    # reduction on the 2-torsion; the free (4,5) pairing is left undeclared
    cup_int = {}
    for i in range(10):
        for j in range(10 - i):
            zi, zj, zt = pieces[i].z_gens, pieces[j].z_gens, pieces[i + j].z_gens
            if not (zi and zj and zt):
                continue
            if i == 0 or j == 0:
                t = np.zeros((zi, zj, zt), dtype=object)
                if i == 0:
                    for y in range(zj):
                        t[0, y, y] = 1
                else:
                    for x in range(zi):
                        t[x, 0, x] = 1
                cup_int[(i, j)] = t
                continue
            if i + j == 9:
                continue  # free top pairing not needed by the decider
            # every middle product here is annihilated by 2 (either a factor
            # is torsion, or the target group is pure torsion), hence is
            # determined by its mod-2 reduction
            t = np.zeros((zi, zj, zt), dtype=object)
            for x in range(zi):
                for y in range(zj):
                    both_free = x < pieces[i].z_rank and y < pieces[j].z_rank
                    if both_free and pieces[i + j].z_rank:
                        raise AssertionError("free-valued middle product cannot be derived from reductions")
                    red_x = rho2[i][:, x]
                    red_y = rho2[j][:, y]
                    mono_x = basis[i][int(np.nonzero(red_x)[0][0])]
                    mono_y = basis[j][int(np.nonzero(red_y)[0][0])]
                    prod = _mono_mul(gens, mono_x, mono_y)
                    if prod is None:
                        continue
                    if (i + j) in torsion_red and prod == torsion_red[i + j]:
                        t[x, y, pieces[i + j].z_rank] = 1
            cup_int[(i, j)] = t

    model = CohomologyModel(
        dimension=9, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=True, label="Dold_5_2",
    )
    return ManifoldModel(model, label="Dold_5_2")


def m1_model() -> ManifoldModel:
    """Spin 9-manifold with the additive structure of a product of spheres of
    dimensions 5 and 4, nonzero w4 detected by Sq^4 on degree 5, and the
    degree-5 tangential invariant pairing to 1 against w4."""
    dims = {0: ("1",), 4: ("x4",), 5: ("x5",), 9: ("top",)}
    pieces = [GradedPiece(1 if d in dims else 0, (), dims.get(d, ())) for d in range(10)]
    rho2 = [np.eye(pieces[d].f2_dim, dtype=np.uint8) for d in range(10)]
    beta = [np.zeros((pieces[d + 1].z_gens if d + 1 <= 9 else 0, pieces[d].f2_dim), dtype=np.int64)
            for d in range(10)]
    sq = {(4, 5): np.array([[1]], dtype=np.uint8)}
    cup2 = {}
    cup_int = {}
    for i in range(10):
        for j in range(10 - i):
            di, dj, dt = pieces[i].f2_dim, pieces[j].f2_dim, pieces[i + j].f2_dim
            if not (di and dj and dt):
                continue
            t = np.zeros((di, dj, dt), dtype=np.uint8)
            if i == 0 or j == 0 or (i, j) in ((4, 5), (5, 4)):
                t[0, 0, 0] = 1
            cup2[(i, j)] = t
            cup_int[(i, j)] = t.astype(object)
    model = CohomologyModel(
        dimension=9, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=True, label="M1_surgered",
    )
    return ManifoldModel(model, phi_hat=model.f2(5, [1]), label="M1_surgered")


# -- the public library ---------------------------------------------------------


def _s9() -> ManifoldModel:
    block = _block("S9_block")
    # the tangential invariant class lives in the (trivial) degree-5 group,
    # so it is known to vanish rather than missing
    return ManifoldModel(block, phi_hat=block.zero_f2(5), label="S9")


def _s1xhp2() -> ManifoldModel:
    m = build_product(_block("S1"), _block("HP2"))
    m.label = "S1xHP2"
    # the tangential invariant class: the unique one pairing w4 to the top;
    # forced by the bordism invariance of the top obstruction
    return ManifoldModel(m, phi_hat=m.f2(5, [1]), label="S1xHP2")


def _s1xcp4() -> ManifoldModel:
    m = build_product(_block("S1"), _block("CP4"))
    m.label = "S1xCP4"
    return ManifoldModel(m, label="S1xCP4")


def library(name: str) -> ManifoldModel:
    """One of the six named 9-manifold models."""
    builders = {
        "S9": _s9,
        "S1xHP2": _s1xhp2,
        "S1xCP4": _s1xcp4,
        "Dold_5_2": dold_model,
        "M1_surgered": m1_model,
        "M3_sum": lambda: connected_sum(_s1xhp2(), _s1xcp4()),
    }
    if name not in builders:
        raise KeyError(f"unknown library model {name!r}; known: {', '.join(LIBRARY_NAMES)}")
    return builders[name]()


def corpus() -> list[ManifoldModel]:
    return [library(n) for n in LIBRARY_NAMES]


def rp5_x_cp2() -> ManifoldModel:
    """A torsion-rich non-spin model: the product of real projective 5-space
    with the complex projective plane (Kunneth with a torsion-free factor)."""
    m = _tensor_model(rp5_model(), _block("CP2"), label="RP5xCP2")
    return ManifoldModel(m, label="RP5xCP2")


def synthetic_spinc_models() -> list[ManifoldModel]:
    """Non-spin models with vanishing degree-3 integral class, used by the
    choice-independence suites."""
    rp5xcp2, s1xcp4 = rp5_x_cp2(), _s1xcp4()
    out = [
        rp5xcp2,
        connected_sum(s1xcp4, s1xcp4),
        connected_sum(s1xcp4, _s1xhp2()),
        connected_sum(s1xcp4, m1_model()),
        connected_sum(rp5xcp2, s1xcp4),
    ]
    for k, m in enumerate(out):
        if not m.label:
            m = ManifoldModel(m.cohomology, m.phi_hat, m.omega_pc, label=f"synthetic{k}")
        out[k] = m
    return out
