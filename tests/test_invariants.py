import pytest

from g2mcg import homology as hom
from g2mcg.dsl import parse_word
from g2mcg.fixtures import load_corpus
from g2mcg.invariants import (
    FiberSignature,
    InvariantSet,
    NotOddForm,
    SignatureNotIntegral,
    fiber_signature,
    format_homeo,
    homeo_label,
    invariant_records,
    invariants,
)
from g2mcg.registry import standard_registry
from g2mcg.words import push

reg = standard_registry()
corpus = load_corpus(reg)


def sig(label):
    return fiber_signature(reg, corpus.relators[label])


def test_signature_examples():
    assert sig("M") == FiberSignature(6, 2)
    assert sig("X0") == FiberSignature(30, 0)
    assert sig("Z4") == FiberSignature(12, 4)


def test_signature_families():
    for n in range(8):
        assert sig(f"X{n}") == FiberSignature(30 - 2 * n, n)
    for m in range(5):
        assert sig(f"Z{m}") == FiberSignature(20 - 2 * m, m)


def test_fiber_counts_are_nonnegative():
    for n, s in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="nonnegative"):
            FiberSignature(n, s)
    with pytest.raises(ValueError, match="nonnegative"):  # _replace checks too
        FiberSignature(2, 1)._replace(s=-1)
    assert FiberSignature(2, 1)._replace(s=3) == FiberSignature(2, 3)


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


def test_one_lantern_step_shifts_the_invariants():
    # a rational blowdown of C_2: sigma and c1^2 gain 1, e drops by 1
    for n in range(7):
        a = invariants(sig(f"X{n}"))
        b = invariants(sig(f"X{n+1}"))
        assert (b.e - a.e, b.sigma - a.sigma, b.c1sq - a.c1sq, b.chi_h - a.chi_h) == (-1, 1, 1, 0)


def test_fiber_sum_untwisted_matches_fixture():
    total = corpus.relators["M"].word + corpus.relators["Z0"].word
    assert total == corpus.relators["X2"].word
    assert fiber_signature(reg, total) == FiberSignature(26, 2)


def test_fiber_sum_signature_additivity():
    a, b = sig("M"), sig("Z4")
    total = fiber_signature(reg, corpus.relators["M"].word + corpus.relators["Z4"].word)
    assert total == FiberSignature(18, 6) == FiberSignature(a.n + b.n, a.s + b.s)


def test_fiber_sum_euler_additivity_identity():
    # the two discarded fiber neighborhoods each carried e = -2
    a, b = sig("M"), sig("Z0")
    ea, eb = invariants(a).e, invariants(b).e
    assert invariants(FiberSignature(a.n + b.n, a.s + b.s)).e == ea + eb + 4


def test_twisted_fiber_sum_conjugates_letters():
    twist = parse_word("c1 c2")
    tail = tuple(push(l, twist) for l in corpus.relators["Z0"].word)
    assert tail != corpus.relators["Z0"].word
    total = corpus.relators["M"].word + tail
    assert fiber_signature(reg, total) == FiberSignature(26, 2)
    # image of the twisted sum is still the identity
    assert reg.image(total) == hom.IDENTITY


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
