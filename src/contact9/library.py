"""The named manifold models exercised by the decision procedure, plus the
building blocks they are assembled from.

Most models are truncated polynomial algebras on one or two generators, so
their tables (products, Steenrod squares) are generated from the generator
data by the Cartan formula rather than written out by hand.  The models with
integral torsion (the Dold manifold, real projective 5-space) declare only
which monomial each integral generator reduces to; their Bocksteins and
integral products are read off the mod-2 tables, which is unambiguous
because all their torsion has order two and reduces injectively."""

from __future__ import annotations

from itertools import product as iproduct
from operator import add

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
    out = tuple(map(add, m1, m2))
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

    # the total square of a monomial is that of the monomial with one factor
    # fewer times that of the factor (Cartan formula); in degree order the
    # shorter monomial comes first
    one = basis[0][0]
    squares = {one: frozenset({one})}
    sq: dict[tuple[int, int], np.ndarray] = {}
    for d in range(dimension + 1):
        for col, m in enumerate(basis[d]):
            if m != one:
                g = next(g for g, e in enumerate(m) if e)
                squares[m] = _poly_mul(gens, squares[m[:g] + (m[g] - 1,) + m[g + 1:]], total_sq[gens[g][0]])
            for t in squares[m]:
                k = _mono_degree(gens, t) - d
                if k <= 0:
                    continue
                if (k, d) not in sq:
                    sq[(k, d)] = np.zeros((len(basis[d + k]), len(basis[d])), dtype=np.uint8)
                sq[(k, d)][index[d + k][t], col] ^= 1

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


def _torsion_free_model(dimension, pieces, sq, cup2, label: str) -> CohomologyModel:
    """The model whose integral classes are all free and reduce to the mod-2
    basis: reduction is the identity, the Bocksteins vanish and the integral
    products are the mod-2 ones with coefficient +1."""
    rho2 = [np.eye(p.f2_dim, dtype=np.uint8) for p in pieces]
    beta = [np.zeros((pieces[d + 1].z_gens if d < dimension else 0, pieces[d].f2_dim), dtype=np.int64)
            for d in range(dimension + 1)]
    cup_int = {key: t.astype(object) for key, t in cup2.items()}
    return CohomologyModel(
        dimension=dimension, pieces=pieces, rho2=rho2, beta=beta, sq=sq,
        cup2=cup2, cup_int=cup_int, orientable=True, label=label,
    )


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
    dimension, basis, _index, names, sq, cup2 = _monomial_f2_data(gens, sq_gen)
    pieces = [GradedPiece(len(basis[d]), (), names[d]) for d in range(dimension + 1)]
    return _torsion_free_model(dimension, pieces, sq, cup2, label)


def two_torsion_model(gens, sq_gen, free: dict, torsion: dict, label: str) -> CohomologyModel:
    """Model of F2[gens]/(truncations) whose integral torsion all has order 2.

    ``free`` and ``torsion`` map a degree to the monomial (exponent tuple)
    that its free generator, or its order-2 generator, reduces to; a degree
    has one generator of each kind it is named in, the free one first.  The
    rest follows from the mod-2 tables, since reduction is injective on
    2-torsion: the Bockstein of x is the torsion generator's coefficient in
    Sq^1 x, and an integral product that 2 annihilates is the torsion
    coordinate of the product of the reductions.  Products into a degree
    without torsion are left undeclared; a product of two free classes into a
    degree with a free generator cannot be derived, and raises ``ValueError``.
    """
    dimension, basis, index, names, sq, cup2 = _monomial_f2_data(gens, sq_gen)
    pieces = [GradedPiece(int(d in free), (2,) if d in torsion else (), names[d]) for d in range(dimension + 1)]
    # the mod-2 basis index each integral generator reduces to, free first
    reduces_to = [[index[d][m[d]] for m in (free, torsion) if d in m] for d in range(dimension + 1)]
    rho2 = []
    for d, rows in enumerate(reduces_to):
        r = np.zeros((len(basis[d]), len(rows)), dtype=np.uint8)
        for g, row in enumerate(rows):
            r[row, g] = 1
        rho2.append(r)
    beta = []
    for d in range(dimension + 1):
        b = np.zeros((pieces[d + 1].z_gens if d < dimension else 0, len(basis[d])), dtype=np.int64)
        if d + 1 in torsion and (1, d) in sq:
            b[-1] = sq[(1, d)][index[d + 1][torsion[d + 1]]]
        beta.append(b)
    cup_int = {}
    present = [d for d, rows in enumerate(reduces_to) if rows]
    for i, j in iproduct(present, repeat=2):
        k = i + j
        if k > dimension or not reduces_to[k]:
            continue
        shape = (len(reduces_to[i]), len(reduces_to[j]), len(reduces_to[k]))
        if i == 0 or j == 0:
            t = cup_int[(i, j)] = np.zeros(shape, dtype=object)
            for g in range(shape[2]):
                t[(0, g, g) if i == 0 else (g, 0, g)] = 1
        elif k in torsion:
            if i in free and j in free and k in free:
                raise ValueError(
                    f"integral product ({i}, {j}) of two free classes lands in a degree with a "
                    "free generator; it cannot be derived from reductions"
                )
            t = cup_int[(i, j)] = np.zeros(shape, dtype=object)
            product = cup2[(i, j)][:, :, index[k][torsion[k]]]
            for x, mx in enumerate(reduces_to[i]):
                for y, my in enumerate(reduces_to[j]):
                    t[x, y, -1] = product[mx, my]
    return CohomologyModel(
        dimension=dimension, pieces=pieces, rho2=rho2, beta=beta, sq=sq, cup2=cup2,
        cup_int=cup_int, orientable=True, label=label,
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
    """Real projective 5-space: F2[x]/(x^6), integrally Z, 0, Z/2, 0, Z/2, Z."""
    return two_torsion_model(
        [("x", 1, 6)], {"x": [(1,), (2,)]},
        free={0: (0,), 5: (5,)}, torsion={2: (2,), 4: (4,)}, label="RP5",
    )


def dold_model() -> ManifoldModel:
    """The 9-dimensional Dold manifold: F2[c,d]/(c^6, d^3) with Sq1 c = c^2,
    Sq1 d = cd, Sq2 d = d^2; orientable but with nonvanishing degree-3
    integral class.  Integrally it is Z in degrees 0, 4, 5 and 9 and Z/2 in
    each degree 2..8, the order-2 class reducing to the image of Sq^1 one
    degree down."""
    m = two_torsion_model(
        [("c", 1, 6), ("d", 2, 3)], {"c": [(1, 0), (2, 0)], "d": [(0, 1), (1, 1), (0, 2)]},
        free={0: (0, 0), 4: (0, 2), 5: (5, 0), 9: (5, 2)},
        torsion={2: (2, 0), 3: (1, 1), 4: (4, 0), 5: (3, 1), 6: (2, 2), 7: (5, 1), 8: (4, 2)},
        label="Dold_5_2",
    )
    return ManifoldModel(m, label="Dold_5_2")


def m1_model() -> ManifoldModel:
    """Spin 9-manifold with the additive structure of a product of spheres of
    dimensions 5 and 4, nonzero w4 detected by Sq^4 on degree 5, and the
    degree-5 tangential invariant pairing to 1 against w4."""
    dims = {0: ("1",), 4: ("x4",), 5: ("x5",), 9: ("top",)}
    pieces = [GradedPiece(1 if d in dims else 0, (), dims.get(d, ())) for d in range(10)]
    sq = {(4, 5): np.array([[1]], dtype=np.uint8)}
    cup2 = {}
    for i in range(10):
        for j in range(10 - i):
            di, dj, dt = pieces[i].f2_dim, pieces[j].f2_dim, pieces[i + j].f2_dim
            if not (di and dj and dt):
                continue
            t = np.zeros((di, dj, dt), dtype=np.uint8)
            if i == 0 or j == 0 or (i, j) in ((4, 5), (5, 4)):
                t[0, 0, 0] = 1
            cup2[(i, j)] = t
    model = _torsion_free_model(9, pieces, sq, cup2, "M1_surgered")
    return ManifoldModel(model, phi_hat=model.f2(5, [1]), label="M1_surgered")


# -- the public library ---------------------------------------------------------


def _s9() -> ManifoldModel:
    block = _block("S9_block")
    # the tangential invariant class lives in the (trivial) degree-5 group,
    # so it is known to vanish rather than missing
    return ManifoldModel(block, phi_hat=block.zero_f2(5), label="S9")


def _s1xhp2() -> ManifoldModel:
    m = build_product(_block("S1"), _block("HP2"))
    # the tangential invariant class: the unique one pairing w4 to the top;
    # forced by the bordism invariance of the top obstruction
    return ManifoldModel(m, phi_hat=m.f2(5, [1]), label="S1xHP2")


def _s1xcp4() -> ManifoldModel:
    return ManifoldModel(build_product(_block("S1"), _block("CP4")), label="S1xCP4")


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
    return [
        rp5xcp2,
        connected_sum(s1xcp4, s1xcp4),
        connected_sum(s1xcp4, _s1xhp2()),
        connected_sum(s1xcp4, m1_model()),
        connected_sum(rp5xcp2, s1xcp4),
    ]
