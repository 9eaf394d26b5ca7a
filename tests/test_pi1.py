import random

import pytest

from g2mcg import pi1
from g2mcg.dsl import parse_word
from g2mcg.fixtures import load_corpus
from g2mcg.registry import standard_registry
from g2mcg.words import letter

reg = standard_registry()
corpus = load_corpus(reg)

BASE = ["c1", "c2", "c3", "c4", "c5"]


def aut_of(text):
    return pi1.word_action(reg, parse_word(text))


def test_dehn_reduce_examples():
    assert pi1.dehn_reduce(pi1.RELATOR) == ""
    assert pi1.dehn_reduce("aA") == ""
    assert pi1.dehn_reduce("ab") == "ab"


def test_every_twist_preserves_the_relator():
    for name in BASE:
        assert pi1.preserves_relator(pi1.TWIST_TABLE[name])
        assert pi1.preserves_relator(pi1.TWIST_TABLE_INV[name])


def test_twist_inverses():
    for name in BASE:
        both = pi1.compose(pi1.TWIST_TABLE[name], pi1.TWIST_TABLE_INV[name])
        assert all(both[g] == g for g in pi1.GENS)


def test_presentation_relations_hold_exactly():
    t = {i: pi1.TWIST_TABLE[f"c{i}"] for i in range(1, 6)}
    for i in range(1, 6):
        for j in range(i + 2, 6):
            assert pi1.compose(t[i], t[j]) == pi1.compose(t[j], t[i])
    for i in range(1, 5):
        lhs = pi1.compose(t[i], pi1.compose(t[i + 1], t[i]))
        rhs = pi1.compose(t[i + 1], pi1.compose(t[i], t[i + 1]))
        assert lhs == rhs


def test_involution_squares_to_identity():
    tau = aut_of("c1 c2 c3 c4 c5^2 c4 c3 c2 c1")
    sq = pi1.compose(tau, tau)
    assert all(sq[g] == g for g in pi1.GENS)
    # tau inverts every generator up to conjugacy (it is -1 on homology)
    for g in pi1.GENS:
        assert pi1.conjugate_elements(tau[g], g.swapcase())


def test_chain_relation_acts_as_boundary_twist():
    act = aut_of("(c1 c2)^6")
    r1 = "abAB"
    assert act["a"] == pi1.dehn_reduce(r1 + "a" + pi1.inverse(r1))
    assert act["b"] == pi1.dehn_reduce(r1 + "b" + pi1.inverse(r1))
    assert act["c"] == "c" and act["d"] == "d"


def test_relators_act_by_inner_automorphisms():
    for label in ("Z0", "chain30", "chain40"):
        w = corpus.relator(label).word
        for g in pi1.GENS:
            assert pi1.conjugate_elements(pi1.apply_word(reg, w, g), g), (label, g)


def test_apply_word_empty_is_reduction():
    assert pi1.apply_word(reg, (), "aA" + "b") == "b"


def test_missing_automorphism():
    with pytest.raises(pi1.MissingAutomorphism):
        pi1.apply_word(reg, (letter("x"),), "a")


def test_conjugate_curve_letters_act():
    w = (letter("c2", conj=(letter("c3", -1),)),)
    assert pi1.ab_matrix(pi1.word_action(reg, w)) == reg.image(w)


def test_abelianization_matches_homology_on_random_words():
    rng = random.Random(20260809)
    for _ in range(100):
        w = tuple(
            letter(rng.choice(BASE), rng.choice([1, -1]))
            for _ in range(rng.randint(0, 20))
        )
        assert pi1.ab_matrix(pi1.word_action(reg, w)) == reg.image(w)


def test_equal_up_to_inner_same_word():
    w = parse_word("c1 c2 c3")
    assert pi1.equal_up_to_inner(reg, w, w) == pi1.Verdict("equal", "")


def test_equal_up_to_inner_relator_vs_empty():
    v = pi1.equal_up_to_inner(reg, parse_word("(c1 c2 c3 c4 c5)^6"), ())
    assert v.equal


def test_equal_up_to_inner_distinguishes_generators():
    v = pi1.equal_up_to_inner(reg, (letter("c1"),), (letter("c2"),))
    assert v.status == "distinguished"


def test_equal_up_to_inner_distinguishes_conjugated_twist():
    # t_{c1}-conjugate of t_{c2} is the twist along a different curve
    u = parse_word("c2")
    v = parse_word("c1 c2 c1^-1")
    assert pi1.equal_up_to_inner(reg, v, u).status == "distinguished"


def test_equal_up_to_inner_never_guesses():
    # two separating twists along non-isotopic curves have equal (trivial)
    # homology image; the oracle reports inconclusive rather than equal
    u = parse_word("(c1 c2)^6")
    v = parse_word("c3 (c1 c2)^6 c3^-1")
    verdict = pi1.equal_up_to_inner(reg, u, v)
    assert verdict.status == "inconclusive"


def test_td5_is_not_equal_to_the_identity():
    # (c1 c2)^30 = t_d^5 by the chain relation: trivial in homology and in
    # Z/10, yet not a relator in Mod(S2); the oracle must not call it equal
    verdict = pi1.equal_up_to_inner(reg, parse_word("(c1 c2)^30"), ())
    assert verdict.status != "equal"


def test_braid_words_act_identically():
    # t1 t2 t1 and t2 t1 t2 are the same mapping class; actions agree exactly
    assert aut_of("c1 c2 c1") == aut_of("c2 c1 c2")
