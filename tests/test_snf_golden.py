"""Smith normal forms against a golden file of digests.

For each matrix of a fixed corpus the golden file stores, for ``snf``,
``snf_rows`` and ``snf_columns``, the sha256 of the rank, the dtype of ``d``
and the shape, dtype and entries of ``d``, ``u``, ``u_inv``, ``v`` and
``v_inv``.  The corpus is

- every matrix that ``from_simplicial`` factorises for ``sphere(2..4)``,
  ``torus_7``, ``rp2_6``, ``cp2_9`` and ``rp3_40``;
- seeded random small dense matrices, some of which fall back to Python ints;
- seeded sparse matrices of ±1 entries;
- seeded matrices with no ±1 entry (entries in {0, ±2, ±3, ±6}), so the
  pivot is found by the least-size search;
- the guard-crossing matrix of ``test_intlinalg``, its transpose and its
  negative.

The transforms fix every basis the engine builds, so a change to the
elimination that is meant to be exact must leave every digest unchanged.

Regenerate the golden file with

    PYTHONPATH=src python tests/test_snf_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from contact9 import intlinalg
from contact9.complexes import cp2_9, rp2_6, rp3_40, sphere, torus_7
from contact9.intlinalg import _GUARD, snf, snf_columns, snf_rows
from contact9.model import from_simplicial

GOLDEN = Path(__file__).parent / "data" / "snf_golden.json"
COMPLEXES = (
    ("S2", lambda: sphere(2)),
    ("S3", lambda: sphere(3)),
    ("S4", lambda: sphere(4)),
    ("T2", torus_7),
    ("RP2", rp2_6),
    ("CP2", cp2_9),
    ("RP3", rp3_40),
)
FACTORISATIONS = (("snf", snf), ("rows", snf_rows), ("columns", snf_columns))


def _engine_matrices():
    """(name, matrix) of each distinct matrix ``from_simplicial`` factorises, in call order."""
    for name, make in COMPLEXES:
        seen: list[np.ndarray] = []
        factor = intlinalg._factor

        def record(matrix, rows, cols):
            m = np.asarray(matrix)
            if not any(s.shape == m.shape and s.dtype == m.dtype and np.array_equal(s, m) for s in seen):
                seen.append(m.copy())
            return factor(matrix, rows, cols)

        intlinalg._factor = record
        try:
            from_simplicial(make(), label=name)
        finally:
            intlinalg._factor = factor
        for k, m in enumerate(seen):
            yield f"{name}/{k}", m


def _random_matrices():
    rng = np.random.default_rng(18)
    for k in range(200):
        shape = tuple(rng.integers(2, 8, size=2))
        yield f"dense/{k}", rng.integers(-20, 21, size=shape)
    for k in range(40):
        shape = tuple(rng.integers(2, 8, size=2))
        yield f"wide/{k}", rng.integers(-1000, 1001, size=shape)
    for k in range(100):
        shape = tuple(rng.integers(3, 31, size=2))
        signs = rng.choice([-1, 1], size=shape)
        yield f"units/{k}", signs * (rng.random(shape) < rng.uniform(0.05, 0.4))
    for k in range(100):
        shape = tuple(rng.integers(2, 9, size=2))
        yield f"nonunit/{k}", rng.choice([0, 0, 2, -2, 3, -3, 6, -6], size=shape)
    big = _GUARD + 1
    guard = np.asarray([[2 * big, 3 * big, 1], [4 * big, big, 5], [6, 7 * big, 2 * big]], dtype=np.int64)
    yield "guard/0", guard
    yield "guard/1", guard.T.copy()
    yield "guard/2", -guard


def _digest(res) -> str:
    h = hashlib.sha256(f"{res.rank};{res.d.dtype}".encode())
    for m in (res.d, res.u, res.u_inv, res.v, res.v_inv):
        h.update(b";None" if m is None else f";{m.shape}:{m.dtype}:{m.tolist()}".encode())
    return h.hexdigest()


def _records():
    for source in (_engine_matrices(), _random_matrices()):
        for name, m in source:
            yield {"name": name, **{kind: _digest(f(m)) for kind, f in FACTORISATIONS}}


def regenerate(path: Path = GOLDEN):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in _records())
    path.write_text(f"[\n{lines}\n]\n")


def test_snf_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = list(_records())
    assert [r["name"] for r in got] == [r["name"] for r in golden]
    mismatched = [(g, want) for g, want in zip(got, golden) if g != want]
    assert not mismatched, mismatched[:3]


def test_snf_golden_corpus_takes_both_paths():
    """The random corpus has matrices that stay on int64 and ones that fall back to Python ints."""
    dtypes = [snf(m).d.dtype for name, m in _random_matrices() if name.startswith(("dense/", "wide/"))]
    assert np.dtype(np.int64) in dtypes and np.dtype(object) in dtypes


if __name__ == "__main__":
    regenerate()
