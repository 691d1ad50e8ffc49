"""Models and cohomology groups computed by the simplicial engine against a
golden file of digests.

The models are ``from_simplicial`` of ``sphere(2..4)``, ``torus_7``,
``rp2_6`` and ``cp2_9``, each as constructed and with two seeded vertex
relabellings, and of ``rp3_40`` as constructed.  The golden file stores the
sha256 of each model's ``emit_model`` document, and, for every group over Z,
Z/2 and Z/4 of each of the smaller complexes, the sha256 of its free rank,
torsion and generator cocycles.  The generator cocycles fix every basis
choice the engine makes, so a change to group construction that is meant to
be exact must leave all of them unchanged.

Regenerate the golden file with

    PYTHONPATH=src python tests/test_simplicial_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from contact9.cohomology import Cohomology
from contact9.complexes import cp2_9, rp2_6, rp3_40, sphere, torus_7
from contact9.model import from_simplicial
from contact9.schema import emit_model
from contact9.simplicial import SimplicialComplex

GOLDEN = Path(__file__).parent / "data" / "simplicial_golden.json"
SMALL = (
    ("S2", lambda: sphere(2)),
    ("S3", lambda: sphere(3)),
    ("S4", lambda: sphere(4)),
    ("T2", torus_7),
    ("RP2", rp2_6),
    ("CP2", cp2_9),
)
SEEDS = (1, 2)
MODULI = (0, 2, 4)


def _relabelled(x: SimplicialComplex, seed: int) -> SimplicialComplex:
    perm = np.random.default_rng(seed).permutation(len(x.vertices))
    new = {v: int(perm[i]) for i, v in enumerate(x.vertices)}
    return SimplicialComplex(range(len(x.vertices)), [[new[v] for v in f] for f in x.facets])


def _small_complexes():
    """(name, complex) of every smaller complex, in a fixed order."""
    for name, make in SMALL:
        x = make()
        yield name, x
        for seed in SEEDS:
            yield f"{name}~{seed}", _relabelled(x, seed)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _model_records():
    complexes = list(_small_complexes()) + [("RP3", rp3_40())]
    for name, x in complexes:
        yield {"name": name, "sha256": _sha(emit_model(from_simplicial(x, label=name)))}


def _group_records():
    for name, x in _small_complexes():
        coh = Cohomology(x)
        for modulus in MODULI:
            for g in coh.groups(modulus):
                cocycles = [sorted([list(s), c] for s, c in z.values.items()) for z in g.basis_cocycles]
                text = json.dumps([g.free_rank, list(g.torsion), cocycles], separators=(",", ":"))
                yield {"name": name, "modulus": modulus, "degree": g.degree, "sha256": _sha(text)}


def _dump(records) -> str:
    return ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)


def regenerate(path: Path = GOLDEN):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"models": [\n{_dump(_model_records())}\n],\n"groups": [\n{_dump(_group_records())}\n]}}\n')


def test_simplicial_models_match_golden():
    golden = json.loads(GOLDEN.read_text())["models"]
    got = list(_model_records())
    assert len(got) == 19
    assert got == golden


def test_simplicial_groups_match_golden():
    golden = json.loads(GOLDEN.read_text())["groups"]
    got = list(_group_records())
    assert len(got) == len(golden) == 207
    mismatched = [(g, want) for g, want in zip(got, golden) if g != want]
    assert not mismatched, mismatched[:3]


if __name__ == "__main__":
    regenerate()
