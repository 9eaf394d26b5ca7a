import pytest

from g2mcg import homology as hom
from g2mcg.dsl import parse_word
from g2mcg.fixtures import load_corpus
from g2mcg.invariants import (
    FiberSignature,
    InvariantSet,
    NotOddForm,
    SignatureNotIntegral,
    blowdown_delta,
    fiber_signature,
    fiber_sum,
    format_homeo,
    homeo_label,
    invariant_records,
    invariants,
)
from g2mcg.registry import standard_registry
from g2mcg.words import PositiveRelator

reg = standard_registry()
corpus = load_corpus(reg)


def sig(label):
    return fiber_signature(reg, corpus.relator(label))


def test_signature_examples():
    assert sig("M") == FiberSignature(6, 2)
    assert sig("X0") == FiberSignature(30, 0)
    assert sig("Z4") == FiberSignature(12, 4)


def test_signature_families():
    for n in range(8):
        assert sig(f"X{n}") == FiberSignature(30 - 2 * n, n)
    for m in range(5):
        assert sig(f"Z{m}") == FiberSignature(20 - 2 * m, m)


def test_invariants_examples():
    inv = invariants(FiberSignature(26, 2))
    assert (inv.e, inv.sigma, inv.c1sq, inv.chi_h) == (24, -16, 0, 2)
    inv = invariants(FiberSignature(20, 0))
    assert (inv.e, inv.sigma, inv.c1sq) == (16, -12, -4)
    inv = invariants(FiberSignature(16, 7))
    assert (inv.e, inv.sigma, inv.c1sq) == (19, -11, 5)


def test_invariants_require_divisibility():
    with pytest.raises(SignatureNotIntegral):
        invariants(FiberSignature(1, 0))


def test_blowdown_deltas():
    d = blowdown_delta(2)
    assert (d.sigma, d.c1sq, d.e, d.chi_h, d.b2plus) == (1, 1, -1, 0, 0)
    assert blowdown_delta(3).sigma == 2
    with pytest.raises(ValueError):
        blowdown_delta(1)


def test_one_lantern_step_matches_blowdown_delta():
    for n in range(7):
        a = invariants(sig(f"X{n}"))
        b = invariants(sig(f"X{n+1}"))
        d = blowdown_delta(2)
        assert (b.e - a.e, b.sigma - a.sigma, b.c1sq - a.c1sq, b.chi_h - a.chi_h) == (
            d.e,
            d.sigma,
            d.c1sq,
            d.chi_h,
        )


def test_fiber_sum_untwisted_matches_fixture():
    total = fiber_sum(corpus.relator("M"), corpus.relator("Z0"))
    assert total.word == corpus.relator("X2").word
    assert fiber_signature(reg, total) == FiberSignature(26, 2)


def test_fiber_sum_signature_additivity():
    s = fiber_sum(corpus.relator("M"), corpus.relator("Z4"))
    assert fiber_signature(reg, s) == FiberSignature(18, 6)
    assert fiber_signature(reg, s) == sig("M") + sig("Z4")


def test_fiber_sum_euler_additivity_identity():
    a, b = sig("M"), sig("Z0")
    ea, eb = invariants(a).e, invariants(b).e
    assert invariants(a + b).e == ea + eb + 4


def test_fiber_sum_with_empty_summand():
    r = corpus.relator("M")
    assert fiber_sum(r, PositiveRelator(())).word == r.word


def test_twisted_fiber_sum_conjugates_letters():
    twist = parse_word("c1 c2")
    total = fiber_sum(corpus.relator("M"), corpus.relator("Z0"), twist)
    assert fiber_signature(reg, total) == FiberSignature(26, 2)
    # image of the twisted sum is still the identity
    assert reg.image(total.word) == hom.IDENTITY


def test_homeo_labels():
    assert homeo_label(invariants(FiberSignature(26, 2))) == "3 CP2 # 19 CP2bar"
    assert homeo_label(invariants(FiberSignature(20, 0))) == "1 CP2 # 13 CP2bar"
    assert homeo_label(invariants(FiberSignature(16, 7))) == "3 CP2 # 14 CP2bar"


def test_homeo_label_family():
    for n in range(2, 8):
        inv = invariants(sig(f"X{n}"))
        assert homeo_label(inv) == format_homeo(3, 21 - n)


def test_homeo_label_guards():
    # Matsumoto's fibration is not simply connected; the arithmetic refuses
    # it, as its b2+ would be -1
    with pytest.raises(NotOddForm, match=r"\(e,sigma\)=\(4,-4\)"):
        homeo_label(invariants(sig("M")))
    # b2- = -1, and b2+ = b2- = 3/2: no invariants() gives these, as chi_h
    # needs e + sigma divisible by 4
    for e, sigma in [(4, 4), (5, 0)]:
        with pytest.raises(NotOddForm):
            homeo_label(InvariantSet(e, sigma, 3 * sigma + 2 * e, 0))


def test_reports_render():
    s = FiberSignature(26, 2)
    rec = invariant_records(s, invariants(s))
    assert rec == "n=26 s=2 e=24 sigma=-16 c1sq=0 chi_h=2"
