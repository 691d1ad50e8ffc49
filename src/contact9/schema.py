"""Versioned JSON schemas for complexes, models and reports.

Documents are single self-describing JSON objects; emission is canonical
(sorted keys, deterministic ordering of sparse entries) so that round trips
are the identity on normalized models and identical inputs produce
byte-identical structured reports.

Parsing is total.  A document is decoded once, every value is checked once
in plain Python (an integer is a JSON integer: never a boolean, a float or a
string), and a malformed field raises ``SchemaError`` naming its path.  Only
then are the sizes checked and each table written into its array at once.
"""

from __future__ import annotations

import json
from itertools import accumulate
from math import inf

import numpy as np

from .model import CohomologyModel, GradedPiece, ManifoldModel
from .simplicial import SimplicialComplex

__all__ = [
    "SchemaError", "SCHEMA_VERSION", "decode_document",
    "emit_complex", "parse_complex", "emit_model", "parse_model",
    "canonical_json",
]

SCHEMA_VERSION = 1
_INT64 = 2**63
_MISSING = object()


class SchemaError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def decode_document(text) -> dict:
    """The top-level object of a JSON document given as text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("document", f"invalid JSON at line {e.lineno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:
        raise SchemaError("document", f"invalid JSON: {e}") from None
    if type(doc) is not dict:
        raise SchemaError("document", "top level must be an object")
    return doc


def _check_header(doc: dict, kinds: tuple[str, ...]) -> str:
    kind = doc.get("kind")
    if kind not in kinds:
        raise SchemaError("kind", "expected " + " or ".join(map(repr, kinds)))
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"expected {SCHEMA_VERSION}")
    return kind


def _want(doc, field, kind, where=""):
    """doc[field], which must be present and of exactly the type ``kind`` (so
    ``int`` admits no boolean)."""
    val = doc.get(field, _MISSING)
    if type(val) is kind:
        return val
    path = f"{where}.{field}" if where else field
    if val is _MISSING:
        raise SchemaError(path, "missing")
    raise SchemaError(path, f"expected {kind}, got {type(val).__name__}")


def _degree_pair(val, dimension: int, where: str, field: str = "") -> list[int]:
    """A pair of degrees: a list of two integers in 0..dimension.  The error
    names ``where`` followed by ``field``."""
    if isinstance(val, list) and len(val) == 2:
        i, j = val
        if type(i) is int and type(j) is int and 0 <= i <= dimension and 0 <= j <= dimension:
            return val
    raise SchemaError(where + field, f"expected a list of two integer degrees in 0..{dimension}")


def _in_range(values, low, high) -> bool:
    """Whether every value is a JSON integer in low..high."""
    for v in values:
        if type(v) is not int or not low <= v <= high:
            return False
    return True


def _matrix(src, rows: int, cols: int, where: str, low: int, high: int, message: str) -> list:
    """The entries, row by row, of a rows x cols matrix written as a list of
    rows of JSON integers in low..high; ``message`` describes the entries."""
    if type(src) is list and len(src) == rows and all(type(r) is list and len(r) == cols for r in src):
        flat = [v for r in src for v in r]
        if _in_range(flat, low, high):
            return flat
        if list not in map(type, flat):
            raise SchemaError(where, message)
    raise SchemaError(where, f"expected shape {(rows, cols)}")


def _key(key: str, where: str) -> int:
    """A table key: a decimal integer without sign or leading zeros."""
    if key.isascii() and key.isdigit() and (key == "0" or key[0] != "0"):
        try:
            return int(key)
        except ValueError:  # more digits than int() converts
            pass
    raise SchemaError(where, "expected a decimal integer key")


# -- complexes ---------------------------------------------------------------


def emit_complex(x: SimplicialComplex) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simplicial_complex",
        "vertices": list(x.vertices),
        "facets": [list(f) for f in x.facets],
    }
    return canonical_json(doc)


def parse_complex(source) -> SimplicialComplex:
    """A complex from its document: the JSON text or the decoded object.
    Vertices are integers or strings; facets are lists of distinct known
    vertices, none contained in another."""
    doc = source if type(source) is dict else decode_document(source)
    _check_header(doc, ("simplicial_complex",))
    vertices = _want(doc, "vertices", list)
    facets = _want(doc, "facets", list)
    for k, f in enumerate(facets):
        if type(f) is not list:
            raise SchemaError(f"facets[{k}]", "must be a list of vertices")
    known = set()
    for k, v in enumerate(vertices):
        if type(v) is not int and type(v) is not str:
            raise SchemaError(f"vertices[{k}]", "must be an integer or a string")
        if v in known:
            raise SchemaError(f"vertices[{k}]", f"duplicate vertex {v!r}")
        known.add(v)
    for k, f in enumerate(facets):
        if not all((type(v) is int or type(v) is str) and v in known for v in f):
            raise SchemaError(f"facets[{k}]", f"facet {tuple(f)!r} uses an unknown vertex")
        if len(set(f)) != len(f):
            raise SchemaError(f"facets[{k}]", f"facet {tuple(f)!r} repeats a vertex")
    try:
        return SimplicialComplex(vertices, facets)
    except ValueError as e:  # a facet inside another or repeated: name it
        sets = [set(f) for f in facets]
        k = next(k for k, s in enumerate(sets) if s in sets[:k] or any(s < t for t in sets))
        raise SchemaError(f"facets[{k}]", str(e)) from None


# -- models -------------------------------------------------------------------


def _cells(tensors: dict):
    """(pair, x, y, value) for each cell (x, y) with a nonzero value of the
    product tensors, by pair and then in row-major order."""
    for pair, t in sorted(tensors.items()):
        xs, ys = np.nonzero(t.any(axis=2))
        for x, y in zip(xs.tolist(), ys.tolist()):
            yield pair, x, y, t[x, y].tolist()


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
    cup2 = [
        {"degrees": [i, j], "left": m.piece(i).f2_basis[x], "right": m.piece(j).f2_basis[y], "value": value}
        for (i, j), x, y, value in _cells(m.cup2)
    ]
    cup_z = [{"degrees": [i, j], "left": x, "right": y, "value": value} for (i, j), x, y, value in _cells(m.cup_int)]
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


def parse_model(source):
    """A model from its document: the JSON text or the decoded object.  A
    "cohomology_model" gives a CohomologyModel, a "manifold_model" a
    ManifoldModel."""
    doc = source if type(source) is dict else decode_document(source)
    kind = _check_header(doc, ("manifold_model", "cohomology_model"))
    n = _want(doc, "dimension", int)
    graded = _want(doc, "graded", list)
    if len(graded) != n + 1:
        raise SchemaError("graded", f"expected {n + 1} entries")
    if n < 0:
        raise SchemaError("dimension", "must be >= 0")
    pieces = [_piece(g, d) for d, g in enumerate(graded)]
    # Sizes before any table is read: z_rank <= f2_dim, since H^d(X; Z) (x) Z/2
    # lies in H^d(X; Z/2); every table is then bounded by the document's bases.
    for d, p in enumerate(pieces):
        if not 0 <= p.z_rank <= p.f2_dim:
            raise SchemaError(f"graded[{d}].z_rank", f"must be in 0..f2_dim = {p.f2_dim}")
    f = [p.f2_dim for p in pieces] + [0]
    z = [p.z_gens for p in pieces] + [0]

    # Check every field first; tables stay Python lists (None for a zero
    # table) until the sizes are known to be sound.
    rho2 = _tables(doc, "rho2", [(f[d], z[d]) for d in range(n + 1)], 0, 1, "entries must be 0 or 1")
    beta = _tables(doc, "beta", [(z[d + 1], f[d]) for d in range(n + 1)],
                   -_INT64, _INT64 - 1, "entries must be 64-bit integers")
    sq = {}
    for k_str, per_degree in _want(doc, "sq", dict).items():
        if type(per_degree) is not dict:
            raise SchemaError(f"sq.{k_str}", "must map degrees to matrices")
        k = _key(k_str, f"sq.{k_str}")
        for d_str, mat in per_degree.items():
            where = f"sq.{k_str}.{d_str}"
            d = _key(d_str, where)
            if d > n:
                raise SchemaError(where, f"degree above the dimension {n}")
            rows = f[d + k] if d + k <= n else 0
            if rows == 0:  # a matrix of no rows cannot carry its column count
                raise SchemaError(where, f"expected shape {(0, f[d])}")
            sq[k, d] = _matrix(mat, rows, f[d], where, 0, 1, "entries must be 0 or 1")

    names = [{name: x for x, name in enumerate(p.f2_basis)} for p in pieces]
    cup2_cells: dict[tuple[int, int], dict] = {}
    for e, entry in enumerate(_want(doc, "cup2", list)):
        where = f"cup2[{e}]"
        if type(entry) is not dict:
            raise SchemaError(where, "must be an object")
        i, j = _degree_pair(entry.get("degrees"), n, where, ".degrees")
        left = _want(entry, "left", str, where)
        right = _want(entry, "right", str, where)
        value = _want(entry, "value", list, where)
        if i + j > n:
            raise SchemaError(where, "degrees exceed the dimension")
        if left not in names[i]:
            raise SchemaError(f"{where}.left", f"unknown basis name {left!r} in degree {i}")
        if right not in names[j]:
            raise SchemaError(f"{where}.right", f"unknown basis name {right!r} in degree {j}")
        if len(value) != f[i + j]:
            raise SchemaError(f"{where}.value", "wrong length")
        if not _in_range(value, 0, 1):
            raise SchemaError(f"{where}.value", "entries must be 0 or 1")
        cup2_cells.setdefault((i, j), {})[names[i][left], names[j][right]] = value

    cup_int_cells: dict[tuple[int, int], dict] = {}
    for p, pair in enumerate(_want(doc, "cupZ_pairs", list)):
        i, j = _degree_pair(pair, n, f"cupZ_pairs[{p}]")
        if i + j <= n and z[i] and z[j] and z[i + j]:
            cup_int_cells[i, j] = {}
    for e, entry in enumerate(_want(doc, "cupZ", list)):
        where = f"cupZ[{e}]"
        if type(entry) is not dict:
            raise SchemaError(where, "must be an object")
        i, j = _degree_pair(entry.get("degrees"), n, where, ".degrees")
        left = _want(entry, "left", int, where)
        right = _want(entry, "right", int, where)
        value = _want(entry, "value", list, where)
        if (i, j) not in cup_int_cells:
            raise SchemaError(where, f"pair ({i},{j}) not declared in cupZ_pairs")
        if not (0 <= left < z[i] and 0 <= right < z[j]):
            raise SchemaError(where, "generator index out of range")
        if len(value) != z[i + j]:
            raise SchemaError(f"{where}.value", "wrong length")
        if not _in_range(value, -inf, inf):
            raise SchemaError(f"{where}.value", "entries must be integers")
        cup_int_cells[i, j][left, right] = value

    orientable = _want(doc, "orientation", bool)
    label = doc.get("label", "")
    if type(label) is not str:
        raise SchemaError("label", "must be a string")

    core = CohomologyModel(
        dimension=n,
        pieces=pieces,
        rho2=[np.zeros(shape, np.uint8) if t is None else t for t, shape in rho2],
        beta=[np.zeros(shape, np.int64) if t is None else t for t, shape in beta],
        sq=sq,
        cup2=_tensors(cup2_cells, f, n, np.uint8, fill=True),
        cup_int=_tensors(cup_int_cells, z, n, object),
        orientable=orientable,
        label=label,
    )
    if kind == "cohomology_model":
        return core
    phi = doc.get("phi_hat")
    phi_cls = None
    if phi is not None:
        if type(phi) is not list or len(phi) != core.f2_dim(5):
            raise SchemaError("phi_hat", "must be a mod-2 vector in degree 5")
        if not _in_range(phi, 0, 1):
            raise SchemaError("phi_hat", "entries must be 0 or 1")
        phi_cls = core.f2(5, phi)
    omega_cls = None
    om = doc.get("omega_pc")
    if om is not None:
        if type(om) is not dict:
            raise SchemaError("omega_pc", "must be an object")
        determined = om.get("determined", False)
        if type(determined) is not bool:
            raise SchemaError("omega_pc.determined", "must be true or false")
        if determined:
            rep = _want(om, "representative", list, "omega_pc")
            if len(rep) != core.f2_dim(8):
                raise SchemaError("omega_pc.representative", "wrong length")
            if not _in_range(rep, 0, 1):
                raise SchemaError("omega_pc.representative", "entries must be 0 or 1")
            omega_cls = core.f2(8, rep)
    if n != 9:
        raise SchemaError("dimension", "a manifold model is 9-dimensional")
    return ManifoldModel(core, phi_hat=phi_cls, omega_pc=omega_cls, label=label)


def _piece(g, d: int) -> GradedPiece:
    """The graded piece of degree d from its ``graded`` entry."""
    where = f"graded[{d}]"
    if type(g) is not dict:
        raise SchemaError(where, "must be an object")
    if type(g.get("degree")) is not int or g["degree"] != d:
        raise SchemaError(f"{where}.degree", f"expected the integer {d}")
    z_rank = _want(g, "z_rank", int, where)
    z_torsion = _want(g, "z_torsion", list, where)
    basis = _want(g, "f2_basis", list, where)
    f2_dim = _want(g, "f2_dim", int, where)
    if f2_dim != len(basis):
        raise SchemaError(f"{where}.f2_dim", "disagrees with the basis length")
    if not all(type(name) is str for name in basis):
        raise SchemaError(f"{where}.f2_basis", "basis names must be strings")
    if len(set(basis)) != len(basis):
        raise SchemaError(f"{where}.f2_basis", "duplicate basis names")
    if not _in_range(z_torsion, -inf, inf):
        raise SchemaError(f"{where}.z_torsion", "entries must be integers")
    try:
        return GradedPiece(z_rank, tuple(z_torsion), tuple(basis))
    except ValueError as e:
        raise SchemaError(where, str(e)) from None


def _tables(doc, field: str, shapes: list, low: int, high: int, message: str) -> list:
    """(entries or None, shape) per degree of the optional matrix table
    ``field``; an absent or empty matrix is None, a zero table."""
    tables = doc.get(field, {})
    if type(tables) is not dict:
        raise SchemaError(field, "must be an object mapping degrees to matrices")
    out = []
    for d, (rows, cols) in enumerate(shapes):
        src = tables.get(str(d))
        if src is None or rows == 0 or cols == 0:
            out.append((None, (rows, cols)))
        else:
            out.append((_matrix(src, rows, cols, f"{field}.{d}", low, high, message), (rows, cols)))
    return out


def _tensors(cells: dict, dims: list, n: int, dtype, fill: bool = False) -> dict:
    """The product tensor of each degree pair from its cells {(x, y): value}:
    views of one zero array, into which every cell of the table is written in
    one assignment.  With ``fill``, every pair of nonzero groups gets a
    tensor, zero if it has no cells."""
    pairs = list(cells)
    if fill:
        pairs += [(i, j) for i in range(n + 1) for j in range(n + 1 - i)
                  if (i, j) not in cells and dims[i] and dims[j] and dims[i + j]]
    shapes = [(dims[i], dims[j], dims[i + j]) for i, j in pairs]
    offsets = list(accumulate((a * b * c for a, b, c in shapes), initial=0))
    positions, values = [], []
    for cell, offset, (_, width, depth) in zip(cells.values(), offsets, shapes):
        for (x, y), value in cell.items():
            start = offset + (x * width + y) * depth
            positions += range(start, start + depth)
            values += value
    flat = np.zeros(offsets[-1], dtype=dtype)
    flat[positions] = values
    return {pair: flat[a:b].reshape(shape) for pair, a, b, shape in zip(pairs, offsets, offsets[1:], shapes)}
