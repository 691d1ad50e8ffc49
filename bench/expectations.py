"""Expected outputs the benchmark checks against.

Three sources, kept apart on purpose:

* ``PAPER``: the verdicts and obstruction stages the paper states for the
  six library manifolds.
* ``TEXTBOOK``: cohomology of the reference triangulations (S^4, T^2, RP^2,
  CP^2, RP^3) as any algebraic-topology text gives it.
* ``SYNTHETIC``: verdicts of the synthetic spin^c models.  The paper does not
  state these; they are a copy of the program's own output, kept so that a
  change in them shows.  Print them anew with

      PYTHONPATH=src python3 bench/expectations.py

  and compare with the table below.
"""

from __future__ import annotations

# name -> (outcome, obstruction stage)
PAPER = {
    "S9": ("contact", None),
    "S1xHP2": ("no_contact", "W8"),
    "S1xCP4": ("contact", None),
    "Dold_5_2": ("no_contact", "W3"),
    "M1_surgered": ("no_contact", "O9"),
    "M3_sum": ("no_contact", "O8"),
}

# M3_sum is the connected sum S1xHP2 # S1xCP4.
PAPER_SUMS = {("S1xHP2", "S1xCP4"): PAPER["M3_sum"]}

SYNTHETIC = {
    "RP5xCP2": ("contact", None),
    "S1xCP4#S1xCP4": ("contact", None),
    "S1xCP4#S1xHP2": ("no_contact", "O8"),
    "S1xCP4#M1_surgered": ("contact", None),
    "RP5xCP2#S1xCP4": ("contact", None),
}

# outcome -> exit code, from the exit-code table of the command line
OUTCOME_CODES = {"contact": 0, "no_contact": 3, "undetermined": 4}
DOCUMENTED_EXIT_CODES = frozenset({0, 2, 3, 4, 5, 6, 7})

# Stiefel-Whitney classes of products with a circle: w(S^1 x P) = w(P), with
# w(CP^n) = (1 + a)^(n+1), |a| = 2, and w(HP^n) = (1 + u)^(n+1), |u| = 4.
# name -> (degree of the generator, n)
SW_PRODUCTS = {"S1xCP4": (2, 4), "S1xHP2": (4, 2)}

# Cohomology of the reference triangulations.  Per degree: free rank and
# torsion of H^*(X; Z), and dim H^*(X; Z/2).  ``cup2`` lists, per degree
# pair, the mod-2 product matrix into a one-dimensional target, which is the
# same in every basis for these spaces; ``sq`` does the same for Steenrod
# squares between one-dimensional groups ((k, d) -> value).  ``cupZ_unimodular``
# names degree pairs whose integral product into H^top is a perfect pairing.
TEXTBOOK = {
    "sphere4": {
        "free": (1, 0, 0, 0, 1),
        "torsion": ((), (), (), (), ()),
        "f2": (1, 0, 0, 0, 1),
        "euler": 2,
        "orientable": True,
        "cup2": {},
        "sq": {},
        "cupZ_unimodular": (),
        "sw_nonzero": (),
    },
    "torus_7": {
        "free": (1, 2, 1),
        "torsion": ((), (), ()),
        "f2": (1, 2, 1),
        "euler": 0,
        "orientable": True,
        # a^2 = b^2 = 0, ab = ba = top: the alternating form, in every basis
        "cup2": {(1, 1): ((0, 1), (1, 0))},
        "sq": {},
        "cupZ_unimodular": ((1, 1),),
        "sw_nonzero": (),
    },
    "rp2_6": {
        "free": (1, 0, 0),
        "torsion": ((), (), (2,)),
        "f2": (1, 1, 1),
        "euler": 1,
        "orientable": False,
        "cup2": {(1, 1): ((1,),)},
        "sq": {(1, 1): 1},
        "cupZ_unimodular": (),
        "sw_nonzero": None,  # not orientable: no Wu classes from the pairing
    },
    "cp2_9": {
        "free": (1, 0, 1, 0, 1),
        "torsion": ((), (), (), (), ()),
        "f2": (1, 0, 1, 0, 1),
        "euler": 3,
        "orientable": True,
        "cup2": {(2, 2): ((1,),)},
        "sq": {(2, 2): 1},
        "cupZ_unimodular": ((2, 2),),
        # w(CP^2) = (1 + a)^3 = 1 + a + a^2
        "sw_nonzero": (2, 4),
    },
    "rp3_40": {
        "free": (1, 0, 0, 1),
        "torsion": ((), (), (2,), ()),
        "f2": (1, 1, 1, 1),
        "euler": 0,
        "orientable": True,
        # a^2 generates H^2, a^3 generates H^3
        "cup2": {(1, 1): ((1,),), (1, 2): ((1,),), (2, 1): ((1,),)},
        # Sq^1 a = a^2, Sq^1 a^2 = 0
        "sq": {(1, 1): 1, (1, 2): 0},
        "cupZ_unimodular": (),
        # w(RP^3) = (1 + a)^4 = 1
        "sw_nonzero": (),
    },
}


def program_synthetic_verdicts() -> dict:
    """The synthetic verdicts as the program computes them today."""
    import importlib

    from contact9.decider import decide

    library = importlib.import_module("contact9.library")
    out = {}
    for model in library.synthetic_spinc_models():
        v = decide(model)
        out[model.label] = (v.outcome.value, v.obstruction.value if v.obstruction else None)
    return out


if __name__ == "__main__":
    fresh = program_synthetic_verdicts()
    print("SYNTHETIC = {")
    for label, pair in fresh.items():
        print(f"    {label!r}: {pair!r},")
    print("}")
    print("matches the kept table" if fresh == SYNTHETIC else "DIFFERS from the kept table")
