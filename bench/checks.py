"""Output checks for the benchmark's operations.

Every check takes an output already reduced to plain Python data and returns
a list of problems; an empty list means the output passed.  The expected
values come from ``expectations`` (the paper, textbook cohomology, binomial
formulas) or from identities every correct implementation must satisfy, never
from a second run of the same code.
"""

from __future__ import annotations

import traceback
from itertools import combinations
from math import comb

from expectations import (
    DOCUMENTED_EXIT_CODES, OUTCOME_CODES, SW_PRODUCTS, TEXTBOOK,
)

# Faults of the program that make some ``documents`` operations fail on every
# run.  An operation that fails for one of these reasons is counted as failed;
# any other failure makes the run incorrect.
FAULT_PARSE_ESCAPE = "schema.parse_model lets TypeError/ValueError/OverflowError escape"
FAULT_UNDECODABLE = "cli._load_input lets UnicodeDecodeError escape"
FAULT_WRONG_TYPE_ACCEPTED = "schema.parse_model accepts a wrongly typed graded[d].degree (exit 0)"


# -- declared ------------------------------------------------------------------


def check_verdict(code: int, report: dict, expected: tuple) -> list[str]:
    """A ``decide`` or ``sum`` report against an expected (outcome, stage)."""
    outcome, stage = expected
    problems = []
    results = report.get("results") or []
    if len(results) != 1:
        return [f"expected one result, got {len(results)} (warnings: {report.get('warnings')})"]
    r = results[0]
    if r.get("outcome") != outcome or r.get("obstruction") != stage:
        problems.append(f"verdict {r.get('outcome')}/{r.get('obstruction')}, expected {outcome}/{stage}")
    if code != OUTCOME_CODES[outcome]:
        problems.append(f"exit code {code}, expected {OUTCOME_CODES[outcome]} for {outcome}")
    return problems


def check_classes(code: int, report: dict, source: str) -> list[str]:
    """A ``classes`` report: W3 = 0 implies W7 = 0 (the paper's theorem), and
    for products with a circle the classes follow (1 + x)^(n+1)."""
    if code != 0:
        return [f"classes exited {code}: {report.get('warnings')}"]
    results = report.get("results") or []
    if len(results) != 1:
        return [f"expected one result, got {len(results)}"]
    r = results[0]
    problems = []
    if not any(r["W3"]) and any(r["W7"]):
        problems.append(f"W3 = 0 but W7 = {r['W7']}")
    if source in SW_PRODUCTS:
        problems += _check_sw_product(r["w"], *SW_PRODUCTS[source])
    return problems


def _check_sw_product(w: dict, gen_degree: int, n: int) -> list[str]:
    """w = (1 + x)^(n+1) with |x| = gen_degree, where every power x^k
    (k <= n) spans a one-dimensional mod-2 group."""
    problems = []
    for degree_str, bits in w.items():
        degree = int(degree_str)
        k, rem = divmod(degree, gen_degree)
        if rem == 0 and 1 <= k <= n:
            want = comb(n + 1, k) % 2
            if len(bits) != 1 or bits[0] != want:
                problems.append(f"w{degree} = {bits}, expected [{want}] from (1+x)^{n + 1}")
        elif any(bits):
            problems.append(f"w{degree} = {bits}, expected 0 from (1+x)^{n + 1}")
    return problems


# -- triangulated ---------------------------------------------------------------


def face_counts(facets) -> list[int]:
    """Number of faces per dimension, counted from the facets alone."""
    faces: set = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.update(combinations(f, k))
    top = max(len(f) for f in faces)
    return [sum(1 for f in faces if len(f) == d + 1) for d in range(top)]


def _det(rows) -> int:
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** c * rows[0][c] * _det([r[:c] + r[c + 1 :] for r in rows[1:]])
        for c in range(len(rows))
    )


def check_triangulation(name: str, summary: dict, counts: list[int]) -> list[str]:
    """A ``from_simplicial`` model against the textbook cohomology of the space."""
    want = TEXTBOOK[name]
    problems = []
    for key in ("free", "torsion", "f2", "orientable"):
        if summary[key] != want[key]:
            problems.append(f"{key} = {summary[key]}, expected {want[key]}")
    euler_faces = sum((-1) ** d * c for d, c in enumerate(counts))
    euler_betti = sum((-1) ** d * b for d, b in enumerate(summary["free"]))
    if not euler_faces == euler_betti == want["euler"]:
        problems.append(
            f"Euler characteristic: faces {euler_faces}, Betti {euler_betti}, expected {want['euler']}"
        )
    for pair, table in summary["cup2"].items():
        if min(pair) == 0:
            continue
        expected = want["cup2"].get(pair)
        if expected is None:
            if any(any(row) for row in table):
                problems.append(f"cup {pair} nonzero, expected zero")
        elif table != expected:
            problems.append(f"cup {pair} = {table}, expected {expected}")
    for pair in want["cup2"]:
        if pair not in summary["cup2"]:
            problems.append(f"cup {pair} missing")
    for kd, mat in summary["sq"].items():
        if kd[0] == 0:
            continue
        if any(any(row) for row in mat) and want["sq"].get(kd) != 1:
            problems.append(f"Sq^{kd[0]} on degree {kd[1]} nonzero, expected zero")
    for kd, value in want["sq"].items():
        mat = summary["sq"].get(kd, ((0,),))
        if value and mat != ((1,),):
            problems.append(f"Sq^{kd[0]} on degree {kd[1]} = {mat}, expected [[1]]")
    for pair in want["cupZ_unimodular"]:
        table = summary["cupZ"].get(pair)
        if table is None or abs(_det(table)) != 1:
            problems.append(f"integral cup {pair} = {table}, expected a perfect pairing")
    if not summary["valid"]:
        problems.append(f"validate rejected the model: {summary['violations']}")
    if want["sw_nonzero"] is not None:
        w = summary["sw"]
        if w is None:
            problems.append("no Stiefel-Whitney classes computed")
        else:
            for k, bits in w.items():
                nonzero = k in want["sw_nonzero"]
                if nonzero and bits != (1,):
                    problems.append(f"w{k} = {bits}, expected the generator")
                if not nonzero and any(bits):
                    problems.append(f"w{k} = {bits}, expected 0")
    return problems


# -- cocycles -------------------------------------------------------------------


def _zero(cls) -> bool:
    return not any(cls)


def check_cocycle(out: dict) -> list[str]:
    """Steenrod-square axioms and Bockstein identities on one class.

    ``out`` holds coordinate tuples: ``expected`` and ``class`` (class_of must
    recover the coordinates the cocycle was built from), ``sq`` (Sq^0 ..
    Sq^(d+1) of the mod-2 class x), ``square`` (x cup x), ``sq2sq2`` and
    ``sq3sq1``, and ``rho_beta``: the reduction of the Bockstein of x for a
    mod-2 cocycle, the Bockstein of the reduction for an integral one.

    Sq^(d+1) x = 0 holds by construction (``Cohomology.sq`` returns the zero
    class for k > d), so that check guards only the shortcut.  Sq^2 Sq^2 x =
    Sq^3 Sq^1 x is computed from cochains only for d = 2 on a complex of
    dimension 6 or more; elsewhere one side or both are shortcut zeros.
    """
    problems = []
    d = out["degree"]
    sq = out["sq"]
    x = out["x"]
    if out["class"] != out["expected"]:
        problems.append(f"class_of gave {out['class']}, cocycle built from {out['expected']}")
    if sq[0] != x:
        problems.append("Sq^0 x != x")
    if sq[d] != out["square"]:
        problems.append(f"Sq^{d} x != x^2")
    if not _zero(sq[d + 1]):
        problems.append(f"Sq^{d + 1} x != 0 in degree {d}")
    if out["sq2sq2"] != out["sq3sq1"]:
        problems.append("Sq^2 Sq^2 x != Sq^3 Sq^1 x")
    if out["integral"]:
        if not _zero(out["rho_beta"]):
            problems.append("Bockstein of a reduced integral class is nonzero")
        if out["reduced_square"] != out["square"]:
            problems.append("reduction of the integral square != square of the reduction")
    elif out["rho_beta"] != sq[1]:
        problems.append("reduction of the Bockstein != Sq^1")
    return problems


# -- documents ------------------------------------------------------------------


def classify_exception(exc: BaseException) -> str | None:
    """The named fault behind an escaped exception, or None if it is unknown."""
    frames = {(f.filename.replace("\\", "/").rsplit("/", 1)[-1], f.name)
              for f in traceback.extract_tb(exc.__traceback__)}
    if isinstance(exc, UnicodeDecodeError) and ("cli.py", "_load_input") in frames:
        return FAULT_UNDECODABLE
    if isinstance(exc, (TypeError, ValueError, OverflowError)) and ("schema.py", "parse_model") in frames:
        return FAULT_PARSE_ESCAPE
    return None


def _is_graded_degree(field: tuple) -> bool:
    """The field ``graded[d].degree``, which ``schema.parse_model`` never reads."""
    return len(field) == 3 and field[0] == "graded" and field[2] == "degree"


def check_document(kind: str, code, report, exc, field: tuple = ()) -> tuple[str | None, list[str]]:
    """(fault, problems) for one ``validate`` call on a (mutated) document;
    ``field`` is the path of the mutated field."""
    if exc is not None:
        fault = classify_exception(exc)
        if fault is None:
            return None, [f"{kind}: uncaught {type(exc).__name__}: {exc}"]
        return fault, []
    if code not in DOCUMENTED_EXIT_CODES:
        return None, [f"{kind}: undocumented exit code {code}"]
    if kind == "valid":
        results = report.get("results") or [{}]
        if code != 0 or not results[0].get("valid"):
            return None, [f"valid document rejected with exit {code}: {report.get('warnings')}"]
    if kind == "wrong_type" and code != 6:
        if code == 0 and _is_graded_degree(field):
            return FAULT_WRONG_TYPE_ACCEPTED, []
        return None, [f"wrong-type mutation of {field} exited {code}, expected 6"]
    return None, []
