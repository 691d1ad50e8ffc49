"""Robustness probe of the model loader, run by hand (not collected by pytest).

Draws single-leaf mutations of a model document: a leaf (a number, string,
boolean or null anywhere in the document) is replaced by one of the values
below, both drawn with ``random.Random(seed)``.  Each mutant goes through
``cli.main([verb, file, "--samples", "0"])``, and the probe prints how many
mutants ended with each exit code and how many escaped as exceptions, by
exception type and by the innermost frame that raised them.

    PYTHONPATH=src python tests/probe_documents.py [--count 1500] [--seed 0]
        [--source library:S1xCP4] [--verb decide] [--list CODE]

``--list CODE`` also prints the mutated field and value of every mutant that
exited with CODE.

A total loader gives 0 escapes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import tempfile
import traceback
from collections import Counter

from contact9 import cli
from contact9.library import library
from contact9.schema import emit_model

VALUES = ("x", None, [], {}, -1, 2**70, -(2**70), 1.5, True, 3)


def leaves(doc, path=()):
    """(path, value) of every leaf of a decoded JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from leaves(value, path + (k,))
    else:
        yield path, doc


def with_leaf(doc, path, value):
    """A deep copy of ``doc`` with the leaf at ``path`` replaced by ``value``."""
    out = json.loads(json.dumps(doc))
    node = out
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value
    return out


def probe(doc: dict, count: int, seed: int, verb: str, listed=None):
    """(exit codes, escapes by type, escapes by raising frame, mutants) of
    ``count`` mutants of ``doc``; mutants are the (path, value) of those that
    exited with code ``listed``."""
    rng = random.Random(seed)
    paths = [p for p, _ in leaves(doc)]
    codes, kinds, sites, mutants = Counter(), Counter(), Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "mutant.json")
        for _ in range(count):
            path, value = rng.choice(paths), rng.choice(VALUES)
            mutant = with_leaf(doc, path, value)
            with open(file, "w") as fh:
                json.dump(mutant, fh)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([verb, file, "--samples", "0"])
                codes[code] += 1
                if code == listed:
                    mutants.append((path, value))
            except Exception as e:  # noqa: BLE001 - counting escapes is the point
                frame = traceback.extract_tb(e.__traceback__)[-1]
                kinds[type(e).__name__] += 1
                sites[f"{os.path.basename(frame.filename)}:{frame.lineno}"] += 1
    return codes, kinds, sites, mutants


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--source", default="library:S1xCP4")
    parser.add_argument("--verb", default="decide")
    parser.add_argument("--list", type=int, default=None, metavar="CODE")
    args = parser.parse_args(argv)
    doc = json.loads(emit_model(library(args.source.split(":", 1)[1])))
    codes, kinds, sites, mutants = probe(doc, args.count, args.seed, args.verb, args.list)
    print(f"{args.count} mutants of {args.source} ({sum(1 for _ in leaves(doc))} leaves), "
          f"verb {args.verb}, seed {args.seed}")
    print("exit codes:", dict(sorted(codes.items())))
    print(f"escapes: {sum(kinds.values())}", dict(kinds.most_common()))
    for site, n in sites.most_common():
        print(f"  {site}: {n}")
    for line in sorted({f"{'.'.join(map(str, path))} = {json.dumps(value)}" for path, value in mutants}):
        print(f"exit {args.list}: {line}")


if __name__ == "__main__":
    main()
