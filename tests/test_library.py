"""The named models: validity and their pinned characteristic-class facts."""

import importlib
from math import comb

import pytest

from contact9.charclasses import sw_classes, wu_classes
from contact9.decider import O8Branch, Outcome, analyse, decide
from contact9.library import (
    LIBRARY_NAMES, base_models, library, rp5_model, synthetic_spinc_models, two_torsion_model,
)
from contact9.model import ManifoldModel, validate
from contact9.schema import emit_model


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_library_models_validate(name):
    assert validate(library(name)).ok


def test_library_unknown_name():
    with pytest.raises(KeyError, match="unknown"):
        library("T9")


def test_s9_all_classes_vanish():
    sw = sw_classes(library("S9"))
    assert all(v.is_zero() for v in sw.w.values())
    assert sw.W3.is_zero() and sw.W7.is_zero()


def test_s1xhp2_classes():
    m = library("S1xHP2")
    sw = sw_classes(m)
    assert sw.w[2].is_zero()                     # spin
    assert sw.w[4].bits == (1,)                  # the quaternionic generator
    assert sw.w[8].bits == (1,)                  # w8 = w4^2 nonzero
    assert sw.w[8] == m.cohomology.cup(sw.w[4], sw.w[4])
    wu = wu_classes(m)
    assert wu.v4.bits == (1,) and wu.v2.is_zero()


def test_s1xcp4_classes():
    m = library("S1xCP4")
    sw = sw_classes(m)
    assert sw.w[2].bits == (1,)                  # not spin
    assert sw.W3.is_zero()                       # but the integral class vanishes
    assert sw.w[4].is_zero()                     # binomial C(5,2) is even
    assert sw.w[6].is_zero()                     # binomial C(5,3) is even
    assert sw.w[8].bits == (1,)
    wu = wu_classes(m)
    assert wu.v2.bits == (1,)


def test_dold_classes():
    m = library("Dold_5_2")
    sw = sw_classes(m)
    assert not sw.W3.is_zero()                   # not spin^c-able
    assert not sw.w[7].is_zero()                 # degree-7 class survives
    assert not sw.W7.is_zero()


def test_m1_classes():
    m = library("M1_surgered")
    sw = sw_classes(m)
    assert sw.w[2].is_zero()
    assert sw.w[4].bits == (1,)
    assert sw.w[8].is_zero()                     # no degree-8 cohomology at all
    assert m.phi_hat is not None
    assert m.cohomology.pair(sw.w[4], m.phi_hat) == 1


def test_m3_sum_classes():
    m = library("M3_sum")
    sw = sw_classes(m)
    assert not sw.w[2].is_zero()
    assert sw.W3.is_zero()
    assert not sw.w[4].is_zero()
    assert not sw.w[8].is_zero()


def test_rp5_model_is_valid():
    m = rp5_model()
    assert validate(m).ok
    assert m.piece(2).z_torsion == (2,)
    assert m.piece(4).z_torsion == (2,)


def _real_projective(n):
    """RP^n for odd n: F2[x]/(x^(n+1)); integrally Z in degrees 0 and n and
    Z/2 in each even degree 2..n-1, reducing to the power of x."""
    return two_torsion_model(
        [("x", 1, n + 1)], {"x": [(1,), (2,)]},
        free={0: (0,), n: (n,)}, torsion={d: (d,) for d in range(2, n, 2)}, label=f"RP{n}",
    )


@pytest.mark.parametrize("n, nonzero_w", [(3, []), (5, [2, 4]), (7, []), (9, [2, 8])])
def test_real_projective_spaces_from_two_torsion_builder(n, nonzero_w):
    m = _real_projective(n)
    assert validate(m).ok
    sw = sw_classes(m)
    assert sw.W3.is_zero()
    # w = (1 + x)^(n+1): w_k is x^k when C(n+1, k) is odd and zero otherwise
    assert [k for k, w in sw.w.items() if not w.is_zero()] == nonzero_w
    assert all(w.bits == (comb(n + 1, k) % 2,) for k, w in sw.w.items())


def test_rp5_declaration_is_the_odd_real_projective_one():
    assert emit_model(_real_projective(5)) == emit_model(rp5_model())


def test_rp9_is_contact_on_the_w4_zero_branch():
    # the standard contact structure on S^9 descends to RP^9
    a = analyse(ManifoldModel(_real_projective(9), label="RP9"))
    assert a.branch is O8Branch.W4_ZERO
    assert decide(a).outcome is Outcome.CONTACT


def test_two_torsion_builder_refuses_free_product_into_free_degree():
    # a.a lands in degree 2, which has the free class ab besides the order-2 a^2
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        two_torsion_model(
            [("a", 1, 3), ("b", 1, 2)], {"a": [(1, 0), (2, 0)], "b": [(0, 1)]},
            free={0: (0, 0), 1: (1, 0), 2: (1, 1)}, torsion={2: (2, 0)}, label="F2[a,b]/(a^3,b^2)",
        )


def test_synthetic_models_are_spinc_nonspin():
    for m in synthetic_spinc_models():
        assert validate(m).ok
        sw = sw_classes(m)
        assert sw.W3.is_zero()
        assert not sw.w[2].is_zero()


def test_base_models_validate():
    for name, m in base_models().items():
        assert validate(m).ok, name


def test_library_returns_fresh_objects():
    a = library("S9")
    b = library("S9")
    assert a is not b and a.cohomology is not b.cohomology


def _block_builds(monkeypatch, build) -> dict:
    """How often ``build()`` makes each base block through ``monomial_model``."""
    from collections import Counter

    lib = importlib.import_module("contact9.library")  # the package exports a function of this name
    counts = Counter()
    real = lib.monomial_model

    def counting(gens, sq_gen, label):
        counts[label] += 1
        return real(gens, sq_gen, label)

    monkeypatch.setattr(lib, "monomial_model", counting)
    build()
    return dict(counts)


@pytest.mark.parametrize("name, blocks", [
    ("S9", {"S9_block": 1}),
    ("S1xHP2", {"S1": 1, "HP2": 1}),
    ("S1xCP4", {"S1": 1, "CP4": 1}),
    ("Dold_5_2", {}),
    ("M1_surgered", {}),
    ("M3_sum", {"S1": 2, "HP2": 1, "CP4": 1}),       # S1 once per product summand
])
def test_library_builds_only_the_blocks_it_uses(monkeypatch, name, blocks):
    assert _block_builds(monkeypatch, lambda: library(name)) == blocks


def test_synthetic_models_build_each_block_once_per_product(monkeypatch):
    # the products RP5xCP2, S1xCP4 and S1xHP2, each built once
    assert _block_builds(monkeypatch, synthetic_spinc_models) == {"CP2": 1, "S1": 2, "CP4": 1, "HP2": 1}


def test_base_models_builds_each_block_once(monkeypatch):
    names = list(base_models())
    assert _block_builds(monkeypatch, base_models) == dict.fromkeys(names, 1)
