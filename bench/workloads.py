"""The benchmark's four workloads.

``build(name, seed, workdir)`` does the set-up of a workload and returns its
round: the list of operations one round runs, each once, in order.  All
inputs are made here from the seed; the operations then receive only those
inputs.  Every round is the same list, so the share of failed operations is
fixed whatever the seed and however many rounds a run completes.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from contact9 import cli, complexes, model as model_mod, schema
from contact9.cohomology import Cohomology
from contact9.simplicial import Cochain, SimplicialComplex, coboundary
from expectations import PAPER, PAPER_SUMS, SYNTHETIC

library = importlib.import_module("contact9.library")
charclasses = importlib.import_module("contact9.charclasses")

# documents: mutations come from this constant, not from the workload seed,
# so the operations that fail through a program fault are the same in every
# run.  Only the valid copies and their bit flips follow the workload seed.
MUTATION_SEED = 2011
MUTATION_KINDS = ("wrong_type", "out_of_range", "oversized", "flip")
MUTATIONS_PER_KIND = 2


@dataclass
class Op:
    """One benchmark operation.

    ``run`` is the timed call.  ``summarize`` turns its result into plain
    data outside the timed region; ``check`` takes that data (or the
    exception ``run`` raised) and returns ``(fault, problems)``: ``fault``
    names a known program fault when the operation failed through one.
    """

    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    check: Callable[[Any, BaseException | None], tuple[str | None, list[str]]]


def build(name: str, seed: int, workdir: str) -> list[Op]:
    return {
        "declared": _declared,
        "triangulated": _triangulated,
        "cocycles": _cocycles,
        "documents": _documents,
    }[name](np.random.default_rng(seed), workdir)


# -- shared helpers ----------------------------------------------------------------


def _sources() -> dict:
    """The six library models and the five synthetic spin^c models, by label."""
    out = {n: library.library(n) for n in library.LIBRARY_NAMES}
    out.update({m.label: m for m in library.synthetic_spinc_models()})
    return out


def _copy(m, rng, permutation_only: bool):
    """A relabelled (permutation_only) or base-changed isomorphic copy."""
    maps = model_mod.random_model_iso(m, rng, permutation_only=permutation_only)
    return model_mod.transform_model(m, *maps)


def _write(workdir: str, filename: str, data) -> str:
    path = os.path.join(workdir, filename)
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    return path


def _cli(verb: str, *inputs: str) -> Callable[[], Any]:
    command = cli.Command(verb=verb, inputs=list(inputs))
    return lambda: cli.run(command)


def _report(result):
    """(exit code, report without its wall-clock field)."""
    code, report = result
    report = dict(report)
    report.pop("_elapsed_ms", None)
    return code, report


def _file_name(label: str, tag: str) -> str:
    return label.replace("#", "+") + f".{tag}.json"


# -- declared ------------------------------------------------------------------------


# Pairs run through ``sum``: M3_sum from the paper, and the four synthetic
# models that are connected sums.
SUM_PAIRS = (
    ("S1xHP2", "S1xCP4"),
    ("S1xCP4", "S1xCP4"),
    ("S1xCP4", "S1xHP2"),
    ("S1xCP4", "M1_surgered"),
    ("RP5xCP2", "S1xCP4"),
)


def _sum_expectation(a: str, b: str) -> tuple:
    return PAPER_SUMS.get((a, b)) or SYNTHETIC[f"{a}#{b}"]


def _declared(rng, workdir) -> list[Op]:
    based, relabelled = {}, {}
    for label, m in _sources().items():
        based[label] = _write(workdir, _file_name(label, "based"), schema.emit_model(_copy(m, rng, False)))
        relabelled[label] = _write(workdir, _file_name(label, "relabelled"), schema.emit_model(_copy(m, rng, True)))

    def verdict_op(name, run, expected):
        return Op(name, run, _report,
                  lambda out, exc: (None, [f"{name}: raised {exc!r}"] if exc else
                                    [f"{name}: {p}" for p in checks.check_verdict(*out, expected)]))

    def classes_op(label):
        name = f"classes {label}"
        return Op(name, _cli("classes", relabelled[label]), _report,
                  lambda out, exc: (None, [f"{name}: raised {exc!r}"] if exc else
                                    [f"{name}: {p}" for p in checks.check_classes(*out, label)]))

    ops = [verdict_op(f"decide {n}", _cli("decide", based[n]), PAPER[n]) for n in library.LIBRARY_NAMES]
    ops += [classes_op(label) for label in relabelled]
    ops += [verdict_op(f"sum {a} {b}", _cli("sum", based[a], based[b]), _sum_expectation(a, b))
            for a, b in SUM_PAIRS]
    return ops


# -- triangulated ----------------------------------------------------------------------


# Copies per round of each reference triangulation.  Many mid-size cp2_9
# operations sit beside the one large rp3_40 operation, so the median
# latency does not rest on a single operation.
TRIANGULATIONS = (
    ("sphere4", lambda: complexes.sphere(4), 1),
    ("torus_7", complexes.torus_7, 1),
    ("rp2_6", complexes.rp2_6, 1),
    ("cp2_9", complexes.cp2_9, 10),
    ("rp3_40", complexes.rp3_40, 1),
)


def _triangulation_summary(result) -> dict:
    m, report, sw = result

    def table(t):
        if t.shape[2] == 1:
            return tuple(tuple(int(v) for v in row) for row in t[:, :, 0])
        return tuple(tuple(tuple(int(v) for v in cell) for cell in row) for row in t)

    n = m.dimension
    return {
        "free": tuple(m.piece(d).z_rank for d in range(n + 1)),
        "torsion": tuple(tuple(m.piece(d).z_torsion) for d in range(n + 1)),
        "f2": tuple(m.f2_dim(d) for d in range(n + 1)),
        "orientable": m.orientable,
        "cup2": {pair: table(t) for pair, t in m.cup2.items()},
        "cupZ": {pair: table(t) for pair, t in m.cup_int.items()},
        "sq": {kd: tuple(tuple(int(v) for v in row) for row in mat) for kd, mat in m.sq.items()},
        "valid": report.ok,
        "violations": [str(v) for v in report.violations],
        "sw": None if sw is None else {k: tuple(int(b) for b in w.bits) for k, w in sw.w.items()},
    }


def _relabelled_facets(x: SimplicialComplex, rng) -> tuple[list, list]:
    perm = rng.permutation(len(x.vertices))
    new = {v: int(perm[i]) for i, v in enumerate(x.vertices)}
    return list(range(len(x.vertices))), [[new[v] for v in f] for f in x.facets]


def _triangulated(rng, workdir) -> list[Op]:
    ops = []
    for name, make, copies in TRIANGULATIONS:
        source = make()
        counts = checks.face_counts(source.facets)
        for k in range(copies):
            vertices, facets = _relabelled_facets(source, rng)

            def run(vertices=vertices, facets=facets):
                m = model_mod.from_simplicial(SimplicialComplex(vertices, facets))
                report = model_mod.validate(m)
                sw = charclasses.sw_classes(m) if m.orientable else None
                return m, report, sw

            def check(out, exc, name=name, counts=counts, op=f"{name}#{k}"):
                if exc is not None:
                    return None, [f"{op}: raised {exc!r}"]
                return None, [f"{op}: {p}" for p in checks.check_triangulation(name, out, counts)]

            ops.append(Op(f"{name}#{k}", run, _triangulation_summary, check))
    return ops


# -- cocycles -----------------------------------------------------------------------------


COCYCLES_PER_DEGREE = 2  # of each kind, mod-2 and integral, per degree

# The random complexes come from this constant, not from the workload seed:
# their sizes, and so the cost of every operation on them, vary a lot from
# one draw to the next, which would make the run-to-run spread a matter of
# the seed.  The workload seed picks the cocycles.  With this seed the two
# complexes have H^* = (Z, 0, Z^2, 0, 0) and (Z, Z, 0, 0, 0).
RANDOM_COMPLEX_SEED = 6


def _wedge(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """a v b: the last vertex of a identified with the first vertex of b."""
    rename = {v: ("b", v) for v in b.vertices}
    rename[b.vertices[0]] = a.vertices[-1]
    vertices = list(a.vertices) + [rename[v] for v in b.vertices[1:]]
    facets = list(a.facets) + [[rename[v] for v in f] for f in b.facets]
    return SimplicialComplex(vertices, facets)


def _cocycle_complexes() -> list[tuple[str, SimplicialComplex]]:
    # rp3_40 is left out: its group construction (several seconds) would
    # swamp the set-up time.  CP^2 comes wedged with S^6, so that for x in
    # degree 2 both sides of Sq^2 Sq^2 x = Sq^3 Sq^1 x land in a nonzero
    # group (H^6) and are computed from cochains, not returned by a shortcut;
    # Sq^2 x = x^2 is nonzero there.
    fixed = np.random.default_rng(RANDOM_COMPLEX_SEED)
    out = [
        ("cp2_9+sphere6", _wedge(complexes.cp2_9(), complexes.sphere(6))),
        ("torus_7", complexes.torus_7()),
        ("rp2_6", complexes.rp2_6()),
        ("sphere4", complexes.sphere(4)),
    ]
    out += [(f"random{k}", complexes.random_complex(fixed, 8, 4, 12)) for k in range(2)]
    return out


def _random_cocycle(coh: Cohomology, modulus: int, degree: int, rng):
    """A cocycle built as sum c_i g_i + d(y) from the group's generators g_i
    and a random cochain y; returns it with the coordinates c (reduced)."""
    x = coh.complex
    group = coh.group(modulus, degree)
    coords, values = [], {}
    for order, rep in zip(group.orders, group.basis_cocycles):
        c = int(rng.integers(0, 2)) if modulus == 2 else int(rng.integers(-2, 3))
        coords.append(c % order if order else c)
        for s, v in rep.values.items():
            values[s] = values.get(s, 0) + c * v
    z = Cochain(x, degree, modulus, values)
    if degree > 0:
        low = -1 if modulus == 0 else 0
        y = Cochain(x, degree - 1, modulus,
                    {s: int(rng.integers(low, 2)) for s in x.simplices(degree - 1)})
        z = z + coboundary(y)
    return z, tuple(coords)


def _cocycle_op(coh: Cohomology, z: Cochain, expected: tuple, label: str) -> Op:
    d = z.degree
    integral = z.modulus == 0

    def run():
        a = coh.class_of(z)
        x = coh.reduce_mod(1, a) if integral else a
        sq = [coh.sq(k, x) for k in range(d + 2)]
        out = {
            "class": a,
            "x": x,
            "sq": sq,
            "sq2sq2": coh.sq(2, coh.sq(2, x)),
            "sq3sq1": coh.sq(3, sq[1]),
            "square": coh.cup(x, x),
        }
        if integral:
            out["reduced_square"] = coh.reduce_mod(1, coh.cup(a, a))
            out["rho_beta"] = coh.bockstein(x)
        else:
            out["rho_beta"] = coh.reduce_mod(1, coh.bockstein(x))
        return out

    def summarize(out):
        plain = {k: (tuple(c.coords for c in v) if isinstance(v, list) else v.coords)
                 for k, v in out.items()}
        plain.update(degree=d, integral=integral, expected=expected)
        return plain

    def check(out, exc):
        if exc is not None:
            return None, [f"{label}: raised {exc!r}"]
        return None, [f"{label}: {p}" for p in checks.check_cocycle(out)]

    return Op(label, run, summarize, check)


def _cocycles(rng, workdir) -> list[Op]:
    ops = []
    for name, x in _cocycle_complexes():
        coh = Cohomology(x)
        # Build every group an operation can reach (cup squares up to degree
        # 2n, Sq^2 Sq^2 and Sq^3 Sq^1 up to n + 4), so each round does the
        # same work.
        for modulus in (0, 2):
            for degree in range(2 * x.dimension + 5):
                coh.group(modulus, degree)
        for degree in range(x.dimension + 1):
            for k in range(COCYCLES_PER_DEGREE):
                for modulus in (2, 0):
                    z, coords = _random_cocycle(coh, modulus, degree, rng)
                    kind = "Z" if modulus == 0 else "Z/2"
                    ops.append(_cocycle_op(coh, z, coords, f"{name} H^{degree}({kind}) #{k}"))
    return ops


# -- documents -----------------------------------------------------------------------------


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, path + (i,))
    else:
        yield path, doc


def _with_leaf(doc, path, value):
    out = json.loads(json.dumps(doc))
    node = out
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value
    return out


def _is_int(v) -> bool:
    return type(v) is int


def _mutate(doc: dict, kind: str, rng) -> tuple[tuple, dict]:
    """One single-field mutation of a model document: (path of the field,
    mutated document)."""
    leaves = list(_leaves(doc))
    if kind == "wrong_type":
        candidates = leaves
    elif kind == "flip":
        candidates = [(p, v) for p, v in leaves if _is_int(v) and v in (0, 1)]
    else:
        candidates = [(p, v) for p, v in leaves if _is_int(v)]
    path, value = candidates[int(rng.integers(len(candidates)))]
    if kind == "wrong_type":
        new = "x" if _is_int(value) or isinstance(value, bool) or value is None else 0
    elif kind == "out_of_range":
        new = -(value + 1) if value >= 0 else value - 1
    elif kind == "oversized":
        new = 2**64 + value
    else:
        new = 1 - value
    return path, _with_leaf(doc, path, new)


def _flip_matrix_bit(doc: dict, rng) -> dict:
    """Flip one entry of a 0/1 matrix (reduction, Steenrod square or mod-2
    product value); the document still parses, and validation judges it."""
    leaves = [(p, v) for p, v in _leaves(doc)
              if p[0] in ("rho2", "sq") or (p[0] == "cup2" and p[2] == "value")]
    path, value = leaves[int(rng.integers(len(leaves)))]
    return _with_leaf(doc, path, 1 - value)


def _byte_corruptions(text: str) -> list[bytes]:
    """Documents that are not UTF-8: a stray byte at the start, a lone
    continuation byte in the middle, and a Latin-1 letter in the label."""
    raw = text.encode()
    mid = len(raw) // 2
    return [
        b"\xff" + raw,
        raw[:mid] + b"\x80" + raw[mid:],
        raw.replace(b'"label": "', b'"label": "\xe9', 1),
    ]


def _document_op(path: str, kind: str, field: tuple = ()) -> Op:
    """``field`` is the path of the mutated field inside the document."""
    name = f"validate {kind} {os.path.basename(path)}"

    def check(out, exc):
        code, report = out if out is not None else (None, None)
        fault, problems = checks.check_document(kind, code, report, exc, field)
        return fault, [f"{name}: {p}" for p in problems]

    return Op(name, _cli("validate", path), _report, check)


def _documents(rng, workdir) -> list[Op]:
    ops = []
    fixed = np.random.default_rng(MUTATION_SEED)
    for label, m in _sources().items():
        text = schema.emit_model(m)
        copy = json.loads(schema.emit_model(_copy(m, rng, False)))
        ops.append(_document_op(_write(workdir, _file_name(label, "valid"), json.dumps(copy)), "valid"))
        flipped = _flip_matrix_bit(copy, rng)
        ops.append(_document_op(_write(workdir, _file_name(label, "bitflip"), json.dumps(flipped)), "flip"))
        doc = json.loads(text)
        for kind in MUTATION_KINDS:
            for k in range(MUTATIONS_PER_KIND):
                field, mutated = _mutate(doc, kind, fixed)
                path = _write(workdir, _file_name(label, f"{kind}{k}"), json.dumps(mutated))
                ops.append(_document_op(path, kind, field))
    s9 = schema.emit_model(library.library("S9"))
    for k, raw in enumerate(_byte_corruptions(s9)):
        ops.append(_document_op(_write(workdir, f"S9.bytes{k}.json", raw), "bytes"))
    return ops
