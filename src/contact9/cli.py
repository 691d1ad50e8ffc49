"""Command-line frontend.

Verbs: validate, classes, decide, sum, corpus, selftest.  Inputs are model
documents (JSON) or ``library:NAME`` references.  Reports are emitted either
as human-readable text or as a single canonical JSON document; with a fixed
seed the structured output is byte-identical across runs.

Exit codes:
  0  success (decide: contact structure exists; validate: model valid)
  3  no contact structure (the obstruction stage is in the report)
  4  undetermined: the model lacks a datum the theory needs
  5  validation failure or model-contract violation
  6  parse/schema error
  7  selftest/suite failure
  2  usage error
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .charclasses import ModelInvariantError, PreconditionError, checked_classes, spinc_data
from .decider import Outcome, ValidationFailedError, analyse, decide, decide_connected_sum
from .library import LIBRARY_NAMES, library
from .model import ManifoldModel, NotClosedManifoldError, from_simplicial, validate
from .schema import (
    SchemaError, canonical_json, decode_document, emit_model, parse_complex, parse_model,
)
from .selftest import DEFAULT_SAMPLES, DEFAULT_SEED, run_selftest

__all__ = ["Command", "run", "main", "EXIT_CODES"]

EXIT_CODES = {
    "ok": 0,
    "no_contact": 3,
    "undetermined": 4,
    "invalid": 5,
    "parse_error": 6,
    "suite_failure": 7,
}

CORPUS_ENV = "CONTACT9_CORPUS_DIR"


@dataclass
class Command:
    verb: str
    inputs: list = field(default_factory=list)
    format: str = "text"
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    strict: bool = False


def _load_input(source: str, need_manifold: bool = True):
    """Resolve 'library:NAME' or a file path to (model, digest, name).

    Files may hold manifold models, plain cohomology models, or simplicial
    complexes (which are converted through the engine).
    """
    if source.startswith("library:"):
        name = source.split(":", 1)[1]
        model = library(name)
        raw = emit_model(model).encode()
        return model, "sha256:" + hashlib.sha256(raw).hexdigest(), name
    with open(source, "rb") as fh:
        raw = fh.read()
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode()
    except UnicodeDecodeError as e:
        raise SchemaError("document", f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    doc = decode_document(text)
    if doc.get("kind") == "simplicial_complex":
        model = from_simplicial(parse_complex(doc), label=source)
    else:
        model = parse_model(doc)
    if isinstance(model, ManifoldModel):
        return model, digest, model.label or source
    if model.dimension == 9 and model.orientable:
        wrapped = ManifoldModel(model, label=model.label or source)
        return wrapped, digest, wrapped.label
    if need_manifold:
        raise SchemaError("kind", "this command needs a 9-dimensional manifold model")
    return model, digest, model.label or source


def _verdict_dict(v) -> dict:
    trail = {
        "o3": list(map(int, v.trail.o3.coords)),
        "o7": list(map(int, v.trail.o7.coords)) if v.trail.o7 is not None else None,
        "o8": (
            {
                "representative": list(map(int, v.trail.o8.representative.bits)),
                "subspace_dimension": v.trail.o8.subspace.dim,
                "subspace_basis": [list(map(int, row)) for row in v.trail.o8.subspace.basis],
            }
            if v.trail.o8 is not None
            else None
        ),
        "o9": v.trail.o9,
    }
    return {
        "label": v.label,
        "outcome": v.outcome.value,
        "obstruction": v.obstruction.value if v.obstruction else None,
        "missing": v.missing.value if v.missing else None,
        "witness": v.witness,
        "trail": trail,
    }


def _classes_dict(model) -> dict:
    """The class report of a model: an orientable 9-manifold model's comes
    from its analysis; any other model is validated and its classes solved."""
    manifold = isinstance(model, ManifoldModel)
    m = model.cohomology if manifold else model
    analysis = analyse(model) if manifold and m.orientable else None
    if analysis is None:
        rep = validate(model)
        if not rep.ok:
            raise ValidationFailedError(rep)
        wu, sw = checked_classes(model)
    else:
        wu, sw = analysis.wu, analysis.sw
    out = {
        "label": (model.label if manifold else "") or m.label,
        "v2": list(map(int, wu.v2.bits)),
        "v4": list(map(int, wu.v4.bits)),
        "w": {str(k): list(map(int, v.bits)) for k, v in sorted(sw.w.items())},
        "W3": list(map(int, sw.W3.coords)),
        "W7": list(map(int, sw.W7.coords)),
    }
    if analysis is not None:
        out["dm_basis"] = [list(map(int, row)) for row in analysis.dm.basis]
        if sw.W3.is_zero() and not sw.w[2].is_zero():
            data = spinc_data(model, sw)
            out["spinc"] = {
                "c": list(map(int, data.c.coords)),
                "v": list(map(int, data.v.coords)),
                "half_cv": list(map(int, data.half_cv.coords)),
            }
    return out


def _decide_with_stability(model, seed, samples):
    """Decide once with the canonical choices and ``samples`` more times with
    seeded ones, all on one analysis; the verdicts must agree."""
    analysis = analyse(model)
    base = decide(analysis)
    for k in range(samples):
        again = decide(analysis, seed=seed + k)
        if not base.agrees_with(again) or base.obstruction != again.obstruction:
            raise ModelInvariantError(
                "verdict changed under internal choice re-randomization; engine bug"
            )
    return base


def run(cmd: Command):
    """Execute a command; returns (exit_code, report dict)."""
    t0 = time.monotonic()
    report = {
        "schema_version": 1,
        "kind": "report",
        "tool": {"name": "contact9", "version": __version__},
        "command": {
            "verb": cmd.verb,
            "inputs": list(cmd.inputs),
            "format": cmd.format,
            "seed": cmd.seed,
            "samples": cmd.samples,
            "strict": cmd.strict,
        },
        "inputs": [],
        "results": [],
        "warnings": [],
        "timing_ms": None,
    }
    code = EXIT_CODES["ok"]
    try:
        if cmd.verb == "validate":
            model, digest, name = _load_input(cmd.inputs[0], need_manifold=False)
            report["inputs"].append({"name": name, "digest": digest})
            rep = validate(model)
            report["results"].append(
                {
                    "name": name,
                    "valid": rep.ok,
                    "violations": [
                        {"check": v.check, "degree": v.degree, "detail": v.detail}
                        for v in rep.violations
                    ],
                }
            )
            if not rep.ok:
                code = EXIT_CODES["invalid"]
        elif cmd.verb == "classes":
            model, digest, name = _load_input(cmd.inputs[0], need_manifold=False)
            report["inputs"].append({"name": name, "digest": digest})
            report["results"].append(_classes_dict(model))
        elif cmd.verb == "decide":
            model, digest, name = _load_input(cmd.inputs[0])
            report["inputs"].append({"name": name, "digest": digest})
            verdict = _decide_with_stability(model, cmd.seed, cmd.samples)
            report["results"].append(_verdict_dict(verdict))
            code = _outcome_code(verdict.outcome)
        elif cmd.verb == "sum":
            a, da, na = _load_input(cmd.inputs[0])
            b, db, nb = _load_input(cmd.inputs[1])
            report["inputs"] += [{"name": na, "digest": da}, {"name": nb, "digest": db}]
            verdict = decide_connected_sum(a, b)
            report["results"].append(_verdict_dict(verdict))
            code = _outcome_code(verdict.outcome)
        elif cmd.verb == "corpus":
            models = _corpus_models(report)
            undetermined = False
            for model, digest, name in models:
                report["inputs"].append({"name": name, "digest": digest})
                verdict = _decide_with_stability(model, cmd.seed, max(1, cmd.samples // 4))
                report["results"].append(_verdict_dict(verdict))
                undetermined = undetermined or verdict.outcome == Outcome.UNDETERMINED
            if cmd.strict and undetermined:
                code = EXIT_CODES["undetermined"]
        elif cmd.verb == "selftest":
            results = run_selftest(seed=cmd.seed, samples=cmd.samples)
            report["results"] = [r.to_dict() for r in results]
            if not all(r.passed for r in results):
                code = EXIT_CODES["suite_failure"]
        else:
            raise ValueError(f"unknown verb {cmd.verb!r}")
    except SchemaError as e:
        report["warnings"].append(f"schema error: {e}")
        code = EXIT_CODES["parse_error"]
    except FileNotFoundError as e:
        report["warnings"].append(f"input not found: {e.filename}")
        code = EXIT_CODES["parse_error"]
    except OSError as e:
        report["warnings"].append(f"cannot read input {e.filename}: {e.strerror}")
        code = EXIT_CODES["parse_error"]
    except KeyError as e:
        report["warnings"].append(f"unknown input: {e}")
        code = EXIT_CODES["parse_error"]
    except ValidationFailedError as e:
        report["warnings"].append(str(e))
        code = EXIT_CODES["invalid"]
    except (ModelInvariantError, PreconditionError, NotClosedManifoldError, AssertionError) as e:
        report["warnings"].append(f"model contract violation: {e}")
        code = EXIT_CODES["invalid"]
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    report["_elapsed_ms"] = elapsed_ms  # stripped from structured output
    return code, report


def _outcome_code(outcome: Outcome) -> int:
    if outcome == Outcome.CONTACT:
        return EXIT_CODES["ok"]
    if outcome == Outcome.NO_CONTACT:
        return EXIT_CODES["no_contact"]
    return EXIT_CODES["undetermined"]


def _corpus_models(report):
    directory = os.environ.get(CORPUS_ENV)
    out = []
    if directory:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
        if not names:
            report["warnings"].append(f"no .json models under {directory}")
        for n in names:
            out.append(_load_input(os.path.join(directory, n)))
    else:
        for name in LIBRARY_NAMES:
            out.append(_load_input(f"library:{name}"))
    return out


def _print_text(report, stream):
    elapsed = report.get("_elapsed_ms")
    verb = report["command"]["verb"]
    for w in report["warnings"]:
        print(f"warning: {w}", file=stream)
    for r in report["results"]:
        if verb in ("decide", "sum", "corpus"):
            tail = ""
            if r["obstruction"]:
                tail = f" at {r['obstruction']}"
            if r["missing"]:
                tail = f" (missing {r['missing']})"
            print(f"{r['label']}: {r['outcome']}{tail}", file=stream)
            print(f"  witness: {r['witness']}", file=stream)
        elif verb == "validate":
            status = "valid" if r["valid"] else "INVALID"
            print(f"{r['name']}: {status}", file=stream)
            for v in r["violations"]:
                at = f" [degree {v['degree']}]" if v["degree"] is not None else ""
                print(f"  {v['check']}{at}: {v['detail']}", file=stream)
        elif verb == "classes":
            print(f"{r['label']}:", file=stream)
            print(f"  v2 = {r['v2']}  v4 = {r['v4']}", file=stream)
            for k, v in r["w"].items():
                if any(v):
                    print(f"  w{k} = {v}", file=stream)
            print(f"  W3 = {r['W3']}  W7 = {r['W7']}", file=stream)
            if "dm_basis" in r:
                print(f"  degree-one subspace basis: {r['dm_basis']}", file=stream)
            if "spinc" in r:
                s = r["spinc"]
                print(f"  lifts: c = {s['c']}, v = {s['v']}, cv/2 = {s['half_cv']}", file=stream)
        elif verb == "selftest":
            status = "PASS" if r["passed"] else "FAIL"
            extra = f"  ({r['counterexample']})" if r["counterexample"] else ""
            print(f"{r['name']:24s} {status} [{r['cases']} cases]{extra}", file=stream)
    if elapsed is not None:
        print(f"elapsed: {elapsed} ms", file=stream)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed for randomized choice-independence runs (default {DEFAULT_SEED})")
    common.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                        help=f"number of randomized re-checks (default {DEFAULT_SAMPLES})")
    common.add_argument("--strict", action="store_true",
                        help="treat undetermined corpus entries as failures")
    parser = argparse.ArgumentParser(
        prog="contact9",
        description="Decide existence of (over-twisted) contact structures on closed orientable 9-manifolds.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("validate", parents=[common], help="check every model invariant")
    p.add_argument("input", help="model file or library:NAME")
    p = sub.add_parser("classes", parents=[common], help="characteristic-class report")
    p.add_argument("input")
    p = sub.add_parser("decide", parents=[common], help="run the decision procedure")
    p.add_argument("input")
    p = sub.add_parser("sum", parents=[common], help="decide a connected sum from its summands")
    p.add_argument("input", nargs=2)
    sub.add_parser("corpus", parents=[common],
                   help=f"decide every library model (or models under ${CORPUS_ENV})")
    sub.add_parser("selftest", parents=[common], help="run the built-in invariant suites")

    args = parser.parse_args(argv)
    inputs = []
    if hasattr(args, "input"):
        inputs = args.input if isinstance(args.input, list) else [args.input]
    cmd = Command(
        verb=args.verb, inputs=inputs, format=args.format,
        seed=args.seed, samples=args.samples, strict=args.strict,
    )
    code, report = run(cmd)
    if cmd.format == "structured":
        report.pop("_elapsed_ms", None)
        sys.stdout.write(canonical_json(report))
    else:
        _print_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
