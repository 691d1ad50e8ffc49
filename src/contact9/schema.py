"""Versioned JSON schemas for complexes, models and reports.

Documents are single self-describing JSON objects; emission is canonical
(sorted keys, deterministic ordering of sparse entries) so that round trips
are the identity on normalized models and identical inputs produce
byte-identical structured reports.
"""

from __future__ import annotations

import json

import numpy as np

from .model import CohomologyModel, GradedPiece, ManifoldModel
from .simplicial import SimplicialComplex

__all__ = [
    "SchemaError", "SCHEMA_VERSION",
    "emit_complex", "parse_complex", "emit_model", "parse_model",
    "canonical_json",
]

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _want(doc, field, types, where=""):
    path = f"{where}.{field}" if where else field
    if field not in doc:
        raise SchemaError(path, "missing")
    val = doc[field]
    if not isinstance(val, types):
        raise SchemaError(path, f"expected {types}, got {type(val).__name__}")
    return val


def _degree_pair(val, dimension: int, where: str, field: str = "") -> list[int]:
    """A pair of degrees: a list of two integers in 0..dimension.  The error
    names ``where`` followed by ``field``."""
    if isinstance(val, list) and len(val) == 2:
        i, j = val
        if type(i) is int and type(j) is int and 0 <= i <= dimension and 0 <= j <= dimension:
            return val
    raise SchemaError(where + field, f"expected a list of two integer degrees in 0..{dimension}")


# -- complexes ---------------------------------------------------------------


def emit_complex(x: SimplicialComplex) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simplicial_complex",
        "vertices": list(x.vertices),
        "facets": [list(f) for f in x.facets],
    }
    return canonical_json(doc)


def parse_complex(text: str) -> SimplicialComplex:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("document", f"invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaError("document", "top level must be an object")
    if doc.get("kind") != "simplicial_complex":
        raise SchemaError("kind", "expected 'simplicial_complex'")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"expected {SCHEMA_VERSION}")
    vertices = _want(doc, "vertices", list)
    facets = _want(doc, "facets", list)
    for k, f in enumerate(facets):
        if not isinstance(f, list):
            raise SchemaError(f"facets[{k}]", "must be a list of vertices")
    try:
        return SimplicialComplex(vertices, facets)
    except ValueError as e:
        raise SchemaError("facets", str(e)) from None


# -- models -------------------------------------------------------------------


def emit_model(model) -> str:
    manifold = isinstance(model, ManifoldModel)
    m = model.cohomology if manifold else model
    graded = []
    for d in range(m.dimension + 1):
        p = m.piece(d)
        graded.append(
            {
                "degree": d,
                "z_rank": p.z_rank,
                "z_torsion": list(p.z_torsion),
                "f2_dim": p.f2_dim,
                "f2_basis": list(p.f2_basis),
            }
        )
    rho2 = {str(d): [[int(v) for v in row] for row in m.rho2[d]] for d in range(m.dimension + 1)}
    beta = {str(d): [[int(v) for v in row] for row in m.beta[d]] for d in range(m.dimension + 1)}
    sq: dict[str, dict[str, list]] = {}
    for (k, d), mat in sorted(m.sq.items()):
        sq.setdefault(str(k), {})[str(d)] = [[int(v) for v in row] for row in mat]
    cup2 = []
    for (i, j), t in sorted(m.cup2.items()):
        names_i = m.piece(i).f2_basis
        names_j = m.piece(j).f2_basis
        for x in range(t.shape[0]):
            for y in range(t.shape[1]):
                vec = [int(v) for v in t[x, y]]
                if any(vec):
                    cup2.append(
                        {"degrees": [i, j], "left": names_i[x], "right": names_j[y], "value": vec}
                    )
    cup_z = []
    for (i, j), t in sorted(m.cup_int.items()):
        for x in range(t.shape[0]):
            for y in range(t.shape[1]):
                vec = [int(v) for v in t[x, y]]
                if any(vec):
                    cup_z.append({"degrees": [i, j], "left": x, "right": y, "value": vec})
    declared_pairs = [[i, j] for (i, j) in sorted(m.cup_int)]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "manifold_model" if manifold else "cohomology_model",
        "label": (model.label if manifold else m.label) or m.label,
        "dimension": m.dimension,
        "orientation": m.orientable,
        "graded": graded,
        "rho2": rho2,
        "beta": beta,
        "sq": sq,
        "cup2": cup2,
        "cupZ": cup_z,
        "cupZ_pairs": declared_pairs,
    }
    if manifold:
        doc["phi_hat"] = list(map(int, model.phi_hat.bits)) if model.phi_hat is not None else None
        doc["omega_pc"] = (
            {"determined": True, "representative": list(map(int, model.omega_pc.bits))}
            if model.omega_pc is not None
            else {"determined": False}
        )
    return canonical_json(doc)


def parse_model(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("document", f"invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaError("document", "top level must be an object")
    kind = doc.get("kind")
    if kind not in ("manifold_model", "cohomology_model"):
        raise SchemaError("kind", "expected 'manifold_model' or 'cohomology_model'")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"expected {SCHEMA_VERSION}")
    dimension = _want(doc, "dimension", int)
    graded = _want(doc, "graded", list)
    if len(graded) != dimension + 1:
        raise SchemaError("graded", f"expected {dimension + 1} entries")
    pieces = []
    name_index: list[dict[str, int]] = []
    for d, g in enumerate(graded):
        if not isinstance(g, dict):
            raise SchemaError(f"graded[{d}]", "must be an object")
        if type(g.get("degree")) is not int or g["degree"] != d:
            raise SchemaError(f"graded[{d}].degree", f"expected the integer {d}")
        z_rank = _want(g, "z_rank", int, f"graded[{d}]")
        z_torsion = _want(g, "z_torsion", list, f"graded[{d}]")
        basis = _want(g, "f2_basis", list, f"graded[{d}]")
        f2_dim = _want(g, "f2_dim", int, f"graded[{d}]")
        if f2_dim != len(basis):
            raise SchemaError(f"graded[{d}].f2_dim", "disagrees with the basis length")
        if len(set(basis)) != len(basis):
            raise SchemaError(f"graded[{d}].f2_basis", "duplicate basis names")
        try:
            pieces.append(GradedPiece(z_rank, tuple(z_torsion), tuple(basis)))
        except ValueError as e:
            raise SchemaError(f"graded[{d}]", str(e)) from None
        name_index.append({name: k for k, name in enumerate(basis)})

    def zero_one(arr, where):
        if not set(arr.ravel().tolist()) <= {0, 1}:
            raise SchemaError(where, "entries must be 0 or 1")
        return arr

    def matrix(field, d, rows, cols, binary=False):
        src = doc.get(field, {}).get(str(d))
        if src is None or rows == 0 or cols == 0:
            return np.zeros((rows, cols), dtype=np.int64)
        arr = np.asarray(src, dtype=np.int64)
        if arr.shape != (rows, cols):
            raise SchemaError(f"{field}.{d}", f"expected shape {(rows, cols)}")
        return zero_one(arr, f"{field}.{d}") if binary else arr

    rho2 = [matrix("rho2", d, pieces[d].f2_dim, pieces[d].z_gens, binary=True) for d in range(dimension + 1)]
    beta = [
        matrix("beta", d, pieces[d + 1].z_gens if d + 1 <= dimension else 0, pieces[d].f2_dim)
        for d in range(dimension + 1)
    ]
    sq = {}
    for k_str, per_degree in _want(doc, "sq", dict).items():
        if not isinstance(per_degree, dict):
            raise SchemaError(f"sq.{k_str}", "must map degrees to matrices")
        k = int(k_str)
        for d_str, mat in per_degree.items():
            d = int(d_str)
            rows = pieces[d + k].f2_dim if d + k <= dimension else 0
            arr = np.asarray(mat, dtype=np.int64)
            if arr.shape != (rows, pieces[d].f2_dim):
                raise SchemaError(f"sq.{k}.{d}", f"expected shape {(rows, pieces[d].f2_dim)}")
            sq[(k, d)] = zero_one(arr, f"sq.{k}.{d}").astype(np.uint8)

    cup2_tensors: dict[tuple[int, int], np.ndarray] = {}
    for e, entry in enumerate(_want(doc, "cup2", list)):
        where = f"cup2[{e}]"
        if not isinstance(entry, dict):
            raise SchemaError(where, "must be an object")
        i, j = _degree_pair(entry.get("degrees"), dimension, where, ".degrees")
        left = _want(entry, "left", str, where)
        right = _want(entry, "right", str, where)
        value = _want(entry, "value", list, where)
        if i + j > dimension:
            raise SchemaError(where, "degrees exceed the dimension")
        if left not in name_index[i]:
            raise SchemaError(f"{where}.left", f"unknown basis name {left!r} in degree {i}")
        if right not in name_index[j]:
            raise SchemaError(f"{where}.right", f"unknown basis name {right!r} in degree {j}")
        if len(value) != pieces[i + j].f2_dim:
            raise SchemaError(f"{where}.value", "wrong length")
        t = cup2_tensors.setdefault(
            (i, j), np.zeros((pieces[i].f2_dim, pieces[j].f2_dim, pieces[i + j].f2_dim), dtype=np.uint8)
        )
        value = zero_one(np.asarray(value, dtype=np.int64), f"{where}.value")
        t[name_index[i][left], name_index[j][right]] = value
    # pairs with no nonzero entries still need their (zero) tensors
    for i in range(dimension + 1):
        for j in range(dimension + 1 - i):
            if pieces[i].f2_dim and pieces[j].f2_dim and pieces[i + j].f2_dim:
                cup2_tensors.setdefault(
                    (i, j),
                    np.zeros((pieces[i].f2_dim, pieces[j].f2_dim, pieces[i + j].f2_dim), dtype=np.uint8),
                )

    cup_int: dict[tuple[int, int], np.ndarray] = {}
    for p, pair in enumerate(_want(doc, "cupZ_pairs", list)):
        i, j = _degree_pair(pair, dimension, f"cupZ_pairs[{p}]")
        if i + j <= dimension and pieces[i].z_gens and pieces[j].z_gens and pieces[i + j].z_gens:
            cup_int[(i, j)] = np.zeros((pieces[i].z_gens, pieces[j].z_gens, pieces[i + j].z_gens), dtype=object)
    for e, entry in enumerate(_want(doc, "cupZ", list)):
        where = f"cupZ[{e}]"
        if not isinstance(entry, dict):
            raise SchemaError(where, "must be an object")
        i, j = _degree_pair(entry.get("degrees"), dimension, where, ".degrees")
        left = _want(entry, "left", int, where)
        right = _want(entry, "right", int, where)
        value = _want(entry, "value", list, where)
        if (i, j) not in cup_int:
            raise SchemaError(where, f"pair ({i},{j}) not declared in cupZ_pairs")
        t = cup_int[(i, j)]
        if not (0 <= left < t.shape[0] and 0 <= right < t.shape[1]):
            raise SchemaError(where, "generator index out of range")
        if len(value) != t.shape[2]:
            raise SchemaError(f"{where}.value", "wrong length")
        for c, v in enumerate(value):
            t[left, right, c] = int(v)

    core = CohomologyModel(
        dimension=dimension,
        pieces=pieces,
        rho2=rho2,
        beta=beta,
        sq=sq,
        cup2=cup2_tensors,
        cup_int=cup_int,
        orientable=_want(doc, "orientation", bool),
        label=str(doc.get("label", "")),
    )
    if kind == "cohomology_model":
        return core
    phi = doc.get("phi_hat")
    phi_cls = None
    if phi is not None:
        if not isinstance(phi, list) or len(phi) != core.f2_dim(5):
            raise SchemaError("phi_hat", "must be a mod-2 vector in degree 5")
        phi_cls = core.f2(5, phi)
    omega_cls = None
    om = doc.get("omega_pc")
    if om is not None:
        if not isinstance(om, dict):
            raise SchemaError("omega_pc", "must be an object")
        if om.get("determined"):
            rep = _want(om, "representative", list, "omega_pc")
            if len(rep) != core.f2_dim(8):
                raise SchemaError("omega_pc.representative", "wrong length")
            omega_cls = core.f2(8, rep)
    return ManifoldModel(core, phi_hat=phi_cls, omega_pc=omega_cls, label=str(doc.get("label", "")))

