import random

import pytest
from hypothesis import example, given, settings, strategies as st

from g2mcg import pi1
from g2mcg.dsl import parse_word
from g2mcg.fixtures import load_corpus
from g2mcg.homology import IDENTITY
from g2mcg.invariants import fiber_signature
from g2mcg.moves import Checkpoint, Final, apply_move
from g2mcg.registry import INCONCLUSIVE, PROVED, REFUTED, Verdict, standard_registry
from g2mcg.words import Curve, Letter, invert, letter, word_str

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
        assert _ref_apply_aut(pi1.TWIST_TABLE[name], pi1.RELATOR) == ""
        assert _ref_apply_aut(pi1.TWIST_TABLE_INV[name], pi1.RELATOR) == ""


def _free_apply(aut, w):
    return _ref_free_reduce(
        "".join(aut[ch] if ch.islower() else pi1.inverse(aut[ch.lower()]) for ch in w)
    )


def test_twists_act_on_the_free_group_fixing_the_boundary():
    # with free reduction alone, no surface relation: each entry fixes the
    # boundary word abABcdCD letter for letter, and the hands invert each other
    for name in BASE:
        right, left = pi1.TWIST_TABLE[name], pi1.TWIST_TABLE_INV[name]
        for aut in (right, left):
            assert _free_apply(aut, pi1.RELATOR) == pi1.RELATOR
        for outer, inner in ((right, left), (left, right)):
            assert all(_free_apply(outer, inner[g]) == g for g in pi1.GENS)


def test_twist_inverses():
    for name in BASE:
        both = _ref_compose(pi1.TWIST_TABLE[name], pi1.TWIST_TABLE_INV[name])
        assert all(both[g] == g for g in pi1.GENS)


def test_presentation_relations_hold_exactly():
    t = {i: pi1.TWIST_TABLE[f"c{i}"] for i in range(1, 6)}
    for i in range(1, 6):
        for j in range(i + 2, 6):
            assert _ref_compose(t[i], t[j]) == _ref_compose(t[j], t[i])
    for i in range(1, 5):
        lhs = _ref_compose(t[i], _ref_compose(t[i + 1], t[i]))
        rhs = _ref_compose(t[i + 1], _ref_compose(t[i], t[i + 1]))
        assert lhs == rhs


def test_involution_squares_to_identity():
    tau = aut_of("c1 c2 c3 c4 c5^2 c4 c3 c2 c1")
    sq = _ref_compose(tau, tau)
    assert all(sq[g] == g for g in pi1.GENS)
    # tau inverts every generator up to conjugacy (it is -1 on homology): the
    # cyclic Dehn form of tau(g) is g^-1, and its conjugator p carries it back
    for g in pi1.GENS:
        cyc, p = pi1._cyclic_dehn_reduce(tau[g])
        assert cyc == g.swapcase() and pi1.elements_equal(p + cyc + pi1.inverse(p), tau[g])


def test_chain_relation_acts_as_boundary_twist():
    act = aut_of("(c1 c2)^6")
    r1 = "abAB"
    assert act["a"] == pi1.dehn_reduce(r1 + "a" + pi1.inverse(r1))
    assert act["b"] == pi1.dehn_reduce(r1 + "b" + pi1.inverse(r1))
    assert act["c"] == "c" and act["d"] == "d"


def assert_certified(w, z):
    """w's verdict is proved with certificate z, and z conjugates every
    generator g to w's image of it."""
    assert pi1.relator_verdict(reg, w) == Verdict("pi1", PROVED, z)
    phi = pi1.word_action(reg, w)
    for g in pi1.GENS:
        assert pi1.elements_equal(z + g + pi1.inverse(z), phi[g]), g


def test_relators_act_by_inner_automorphisms():
    for label in ("Z0", "chain30", "chain40"):
        assert_certified(corpus.relators[label].word, "")  # the empty word, not no certificate


def test_apply_word_empty_is_reduction():
    assert _ref_apply_aut(pi1.word_action(reg, ()), "aA" + "b") == "b"


def test_missing_automorphism():
    # x and B0 with no definition have no action at all
    bare = reg.replace("x", defn=None).replace("B0", defn=None)
    with pytest.raises(pi1.MissingAutomorphism):
        pi1.word_action(bare, (letter("x"),))
    # the first letter of the flattened word x B0 x^-1 without an action
    with pytest.raises(pi1.MissingAutomorphism, match="'x'"):
        pi1.word_action(bare, parse_word("[x](B0)"))


@pytest.mark.parametrize("name", ["x", "B2"])
def test_a_definition_that_reaches_its_curve_again_has_no_action(name):
    # x = [c4](x) reaches x, and B2 = [c3^-1](x) reaches it through x
    cyclic = reg.replace("x", defn=Curve("x", (letter("c4"),)))
    with pytest.raises(pi1.MissingAutomorphism, match="'x'"):
        pi1.word_action(cyclic, (letter(name),))
    assert pi1.relator_verdict(cyclic, parse_word(f"[{name}](c1) [{name}](c1)^-1")) == Verdict(
        "pi1", INCONCLUSIVE, "no action for curve 'x'")


def test_d_acts_as_the_chain_word_of_its_handle():
    # the table entry of d against (c1 c2)^6, generator by generator
    assert pi1.word_action(reg, (letter("d"),)) == aut_of("(c1 c2)^6")
    assert pi1.relator_verdict(reg, parse_word("d^-1 (c1 c2)^6")).status == PROVED


@pytest.mark.parametrize("name", sorted(reg.curves))
def test_every_curve_acts_on_homology_by_its_image(name):
    w = (letter(name),)
    assert pi1.ab_matrix(pi1.word_action(reg, w)) == reg.image(w)


def _same_class_swaps():
    """Each corpus relator with one plain letter swapped for another curve
    of the same homology class and separating flag."""
    for rel in corpus.relators.values():
        for p, l in enumerate(rel.word):
            if l.curve.conj:
                continue
            data = reg.data(l.curve.name)
            for other in reg.curves.values():
                same = (other.homology, other.separating) == (data.homology, data.separating)
                if same and other.name != data.name:
                    yield rel.word[:p] + (letter(other.name, l.exp),) + rel.word[p + 1 :]


def test_pi1_refutes_every_same_class_swap_that_the_image_passes():
    swaps = list(_same_class_swaps())
    assert len(set(swaps)) == 102
    for w in swaps:
        assert reg.image(w) == IDENTITY and fiber_signature(reg, w).mod_ten == 0
        assert pi1.relator_verdict(reg, w) == Verdict("pi1", REFUTED), word_str(w)


def test_conjugate_curve_letters_act():
    w = (letter("c2", conj=(letter("c3", -1),)),)
    assert pi1.ab_matrix(pi1.word_action(reg, w)) == reg.image(w)


def test_word_action_flattens_conjugators_without_recursing(monkeypatch):
    calls = []
    real = pi1.word_action
    monkeypatch.setattr(pi1, "word_action", lambda r, w: calls.append(w) or real(r, w))
    w = parse_word("[c1 [c2](c3)^-1](c4) c5 [c4^-1](c3)^-1")
    assert pi1.word_action(reg, w) == _ref_word_action(w)
    assert len(calls) == 1


def test_abelianization_matches_homology_on_random_words():
    rng = random.Random(20260809)
    for _ in range(100):
        w = tuple(
            letter(rng.choice(BASE), rng.choice([1, -1]))
            for _ in range(rng.randint(0, 20))
        )
        assert pi1.ab_matrix(pi1.word_action(reg, w)) == reg.image(w)


def equal_up_to_inner(u, v):
    """The verdict on u = v in Mod(S2): is the action of u v^-1 inner?"""
    return pi1.relator_verdict(reg, u + invert(v))


def test_equal_up_to_inner_same_word():
    w = parse_word("c1 c2 c3")
    assert equal_up_to_inner(w, w) == Verdict("pi1", PROVED, "")


def test_equal_up_to_inner_relator_vs_empty():
    assert equal_up_to_inner(parse_word("(c1 c2 c3 c4 c5)^6"), ()).status == PROVED


def test_equal_up_to_inner_distinguishes_generators():
    assert equal_up_to_inner((letter("c1"),), (letter("c2"),)).status == REFUTED


def test_equal_up_to_inner_distinguishes_conjugated_twist():
    # t_{c1}-conjugate of t_{c2} is the twist along a different curve
    u = parse_word("c2")
    v = parse_word("c1 c2 c1^-1")
    assert equal_up_to_inner(v, u).status == REFUTED


def test_equal_up_to_inner_never_guesses():
    # two separating twists with equal (trivial) homology image: t_d and
    # t_c3(d), distinct since c3 meets d, so their actions differ by more than inner
    u = parse_word("(c1 c2)^6")
    v = parse_word("c3 (c1 c2)^6 c3^-1")
    assert equal_up_to_inner(u, v).status == REFUTED


def test_td5_is_not_equal_to_the_identity():
    # (c1 c2)^30 = t_d^5 by the chain relation: trivial in homology and in
    # Z/10, yet not a relator in Mod(S2); the oracle must not prove it
    assert pi1.relator_verdict(reg, parse_word("(c1 c2)^30")).status == REFUTED


@pytest.mark.parametrize("text, verdict", [
    ("(c1 c2)^6", Verdict("pi1", REFUTED)),
    ("(c1 c2)^-12", Verdict("pi1", REFUTED)),
    ("(c1 c2)^30 (c2 c3)^6", Verdict("pi1", REFUTED)),  # Torelli products
    ("(c1 c2)^12 (c2 c3)^12", Verdict("pi1", REFUTED)),
    ("(B0 B1 B2 d)^2", Verdict("pi1", PROVED, "")),
])
def test_only_a_proved_verdict_carries_a_certificate(text, verdict):
    assert pi1.relator_verdict(reg, parse_word(text)) == verdict


_CHAIN6 = parse_word("(c1 c2 c3 c4 c5)^6")


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(BASE).map(letter), max_size=40).map(tuple),
    st.integers(0, len(_CHAIN6) - 1).map(lambda i: _CHAIN6[:i] + _CHAIN6[i + 1 :]),
))
@example(parse_word("(c1 c2)^6 (c2 c3)^6"))
@example(parse_word("(c1 c2)^30 (c2 c3)^6"))
@example(parse_word("(c1 c2)^12 (c2 c3)^12"))
def test_pi1_refutes_every_word_the_image_or_ab_class_refutes(w):
    # so verify --pi1, which skips pi1 on such a word, hides no answer pi1 gives
    if reg.image(w) != IDENTITY or fiber_signature(reg, w).mod_ten:
        assert pi1.relator_verdict(reg, w).status == REFUTED


def test_braid_words_act_identically():
    # t1 t2 t1 and t2 t1 t2 are the same mapping class; actions agree exactly
    assert aut_of("c1 c2 c1") == aut_of("c2 c1 c2")


# -- the kernel against the code it replaced -----------------------------------
# Dehn's algorithm with a 16-way startswith scan that restarts after every
# rewrite, a compose that maps every generator, and the closure of cyclic
# forms built round by round with the cap checked between rounds.


def _ref_free_reduce(w):
    out = []
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _ref_dehn_reduce(w):
    w = _ref_free_reduce(w)
    changed = True
    while changed:
        changed = False
        for length in range(7, 4, -1):
            hit = False
            for i in range(len(w) - length + 1):
                seg = w[i : i + length]
                for rho in pi1._ROTATIONS:
                    if rho.startswith(seg):
                        w = _ref_free_reduce(w[:i] + pi1.inverse(rho[length:]) + w[i + length :])
                        changed = hit = True
                        break
                if hit:
                    break
            if hit:
                break
    return w


def _ref_cyclic_reduce(w):
    w = _ref_dehn_reduce(w)
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        w = _ref_dehn_reduce(w[1:-1])
    return w


def _ref_half_relator_variants(w):
    out = set()
    for i in range(len(w) - 3):
        seg = w[i : i + 4]
        for rho in pi1._ROTATIONS:
            if rho.startswith(seg):
                cand = _ref_free_reduce(w[:i] + pi1.inverse(rho[4:]) + w[i + 4 :])
                if len(cand) == len(w):
                    out.add(cand)
    return out


def _ref_cyclic_forms(w, cap=4096):
    cyc = _ref_cyclic_reduce(w)
    seen = set()
    frontier = {cyc}
    while frontier and len(seen) < cap:
        nxt = set()
        for u in frontier:
            for r in range(max(len(u), 1)):
                rot = _ref_cyclic_reduce(_ref_dehn_reduce(u[r:] + u[:r]))
                if rot not in seen:
                    seen.add(rot)
                    nxt.add(rot)
                for v in _ref_half_relator_variants(u[r:] + u[:r]):
                    v = _ref_cyclic_reduce(_ref_dehn_reduce(v))
                    if v not in seen:
                        seen.add(v)
                        nxt.add(v)
        frontier = nxt
    return frozenset(seen)


def _ref_apply_aut(aut, w):
    return _ref_dehn_reduce(
        "".join(aut[ch] if ch.islower() else pi1.inverse(aut[ch.lower()]) for ch in w)
    )


def _ref_compose(outer, inner):
    return {g: _ref_apply_aut(outer, inner[g]) for g in pi1.GENS}


def _ref_word_action(w):
    out = {g: g for g in pi1.GENS}
    for l in _ref_expand(w):
        out = _ref_compose(out, _ref_letter_action(l))
    return out


def _ref_expand(w):
    # a plain letter of a curve with no table entry, spelled out in place by
    # its definition flattened, as word_action does
    for l in w:
        if l.curve.conj or l.curve.name in pi1.TWIST_TABLE:
            yield l
        else:
            yield from _ref_expand(reg.flat_word((Letter(reg.data(l.curve.name).defn, l.exp),)))


def _ref_letter_action(l):
    if l.curve.conj:
        inner = _ref_word_action((Letter(Curve(l.curve.name), l.exp),))
        u = _ref_word_action(l.curve.conj)
        uinv = _ref_word_action(tuple(m.inverse() for m in reversed(l.curve.conj)))
        return _ref_compose(u, _ref_compose(inner, uinv))
    table = pi1.TWIST_TABLE if l.exp == 1 else pi1.TWIST_TABLE_INV
    return dict(table[l.curve.name])


def _inverse_if(w, flip):
    return pi1.inverse(w) if flip else w


# Random letters with pieces of relator rotations spliced in, so that the
# segments of every length, and the cancellations around them, occur often.
_pieces = st.one_of(
    st.text("abcdABCD", max_size=3),
    st.builds(
        lambda rho, n, flip: _inverse_if(rho[:n], flip),
        st.sampled_from(pi1._ROTATIONS), st.integers(1, 8), st.booleans(),
    ),
)
_group_words = st.lists(_pieces, max_size=8).map("".join)


def test_segment_table_holds_one_replacement_per_segment():
    # piece length one: no segment of length 4..7 lies in two rotations
    assert len(pi1._SEGMENTS) == len(pi1._ROTATIONS) * 4
    for seg, rep in pi1._SEGMENTS.items():
        assert seg + pi1.inverse(rep) in pi1._ROTATIONS


@settings(max_examples=500, deadline=None)
@given(_group_words)
def test_dehn_reduce_agrees_with_the_startswith_scan(w):
    assert pi1.free_reduce(w) == _ref_free_reduce(w)
    assert pi1.dehn_reduce(w) == _ref_dehn_reduce(w)


@pytest.mark.parametrize("w", ["cDCbaBAaBAdcDCbabA", "CcdCDabaBAdcdCDabAb", "BAdcDCDabABcdabABcd"])
def test_dehn_reduce_rewrites_the_longest_segment_first(w):
    # each word holds a segment of length 7 right of one of length 6, and
    # the result depends on which is rewritten first
    assert pi1.dehn_reduce(w) == _ref_dehn_reduce(w)


def _script_states():
    for script in corpus.scripts.values():
        state = reg.canonical_word(script.start)
        yield state
        for entry in script.entries:
            if not isinstance(entry, (Checkpoint, Final)):
                state = apply_move(reg, state, entry)
                yield state


def test_word_action_agrees_with_full_compose_on_the_corpus():
    # As on random words: byte for byte over the flat letters, and as group
    # elements against the nested reference, which may spell images another
    # way (on c4 c4 [c3](c4) it gives d -> CbaB where word_action gives dCDa).
    # Every word is compared: a curve with no table entry acts by its definition.
    words = [r.word for r in corpus.relators.values()] + list(_script_states())
    assert len(words) == 17 + 7 + 206  # the relators, the scripts' starts and steps
    for w in words:
        act = pi1.word_action(reg, w)
        assert act == _ref_word_action(tuple(reg.flat_word(w)))
        nested = _ref_word_action(w)
        assert all(pi1.elements_equal(act[g], nested[g]) for g in pi1.GENS)


_plain_letters = st.builds(letter, st.sampled_from(BASE), st.sampled_from([1, -1]))
_letters = st.one_of(
    _plain_letters,
    st.builds(  # [u](ci)^(+-1)
        lambda name, exp, u: letter(name, exp, conj=tuple(u)),
        st.sampled_from(BASE), st.sampled_from([1, -1]),
        st.lists(_plain_letters, min_size=1, max_size=3),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_letters, max_size=20).map(tuple))
def test_word_action_agrees_with_full_compose_on_random_words(w):
    # Byte for byte over the flat letters, as the images of g in the twist
    # steps stay freely reduced.  Composing a conjugate letter's three
    # actions apart can spell an image another way (Dehn's algorithm is not
    # confluent), so against that only the group elements must agree.
    act = pi1.word_action(reg, w)
    assert act == _ref_word_action(tuple(reg.flat_word(w)))
    nested = _ref_word_action(w)
    assert all(pi1.elements_equal(act[g], nested[g]) for g in pi1.GENS)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_group_words, _group_words), max_size=4))
def test_product_cancels_freely_reduced_pieces_at_their_seams(parts):
    # piece i is s_(i-1)^-1 a_i s_i, freely reduced, so a seam can cancel a whole s
    pieces, prev = [], ""
    for a, s in parts:
        pieces.append(_ref_free_reduce(pi1.inverse(prev) + a + s))
        prev = s
    img = {}
    for i, u in enumerate(pieces):
        img[f"u{i}"], img[f"U{i}"] = u, pi1.inverse(u)
    keys = tuple((f"u{i}", f"U{i}") for i in range(len(pieces)))
    assert pi1._product(img, keys) == _ref_free_reduce("".join(pieces))


def test_twist_table_images_are_dehn_reduced():
    # each entry is also the action of its letter alone, built from the twist steps
    for table, exp in ((pi1.TWIST_TABLE, 1), (pi1.TWIST_TABLE_INV, -1)):
        for name, aut in table.items():
            assert all(pi1.dehn_reduce(img) == img for img in aut.values())
            assert pi1.word_action(reg, (letter(name, exp),)) == aut


@settings(max_examples=200, deadline=None)
@given(_group_words, st.integers(1, 60))
def test_cyclic_forms_agree_with_the_round_based_closure(w, cap):
    ref = _ref_cyclic_forms(w, cap)
    forms = pi1.cyclic_forms(w, cap)
    if len(ref) < cap:  # the rounds ran out before the cap: ref is the closure
        assert forms == ref
    else:  # the first cap forms breadth first lie within the rounds ref ran
        assert len(forms) == cap and forms <= ref


def test_cyclic_forms_agree_on_generator_images():
    for text in ("(c1 c2 c3 c4 c5)^6", "c1 c2 c3 c4 c5^2 c4 c3 c2 c1", "(c2 c3)^6",
                 "c1 c2 c3 c4", "c2 c3^-1 c4 c5"):
        act = aut_of(text)
        for g in pi1.GENS:
            assert pi1.cyclic_forms(act[g]) == _ref_cyclic_forms(act[g]), (text, g)


def test_a_capped_closure_has_exactly_cap_forms():
    img = aut_of("(c1 c2)^12 (c2 c3)^12")["a"]
    forms = pi1.cyclic_forms(img)
    assert len(forms) == pi1.cyclic_forms.__defaults__[0]
    small = pi1.cyclic_forms(img, 100)
    # breadth-first order is fixed, so a smaller cap keeps a prefix
    assert len(small) == 100 and small < forms


def test_conjugate_elements_is_inconclusive_only_past_the_cap():
    # the image of a under t_d^2 t_d''^2 has a capped closure sharing no form with a
    img = aut_of("(c1 c2)^12 (c2 c3)^12")["a"]
    assert len(pi1.cyclic_forms(img)) == pi1.CAP
    assert pi1.conjugate_elements(img, "a") is None
    assert pi1.conjugate_elements(img, img) is True  # a shared form proves it, capped or not
    assert pi1.conjugate_elements("ab", "ba") is True
    assert pi1.conjugate_elements("ab", "a") is False


# -- inner automorphisms -----------------------------------------------------------


def _power_of_a(k):
    return "a" * k if k >= 0 else "A" * -k


def _inner(z):
    return {g: pi1.dehn_reduce(z + g + pi1.inverse(z)) for g in pi1.GENS}


# t_d t_d^-1 through the two chains d bounds: the identity mapping class,
# acting as the inner automorphism of the relator's half abAB
TD_OVER_TD = aut_of("(c1 c2)^6 (c5 c4)^-6")

# Random conjugators with relator pieces and long powers of a spliced in:
# the pieces make seams to rotate away, the powers the k to find.
_conjugators = st.lists(
    st.one_of(_pieces, st.integers(-40, 40).map(_power_of_a)), max_size=8
).map(lambda parts: pi1.dehn_reduce("".join(parts)))


@settings(max_examples=300, deadline=None)
@given(_conjugators, st.booleans(), st.sampled_from(BASE), st.booleans())
def test_inner_conjugator_finds_every_conjugator(z, composed, twist, left):
    phi, expected = _inner(z), z
    if composed:
        phi, expected = _ref_compose(phi, TD_OVER_TD), z + "abAB"
    found = pi1.inner_conjugator(phi)
    assert found is not None and pi1.elements_equal(found, expected)
    # one twist more is a nontrivial mapping class: never inner
    table = pi1.TWIST_TABLE_INV if left else pi1.TWIST_TABLE
    assert pi1.inner_conjugator(_ref_compose(_inner(z), table[twist])) is None


@pytest.mark.parametrize("k", [1, -1, 2, -2, 5])
def test_powers_of_a_separating_twist_are_not_inner(k):
    # t_d^k = (c1 c2)^(6k) is trivial in homology, not in Mod(S2)
    assert pi1.inner_conjugator(aut_of(f"(c1 c2)^{6 * k}")) is None


def test_two_chains_give_the_same_separating_twist():
    assert_certified(parse_word("(c1 c2)^6 (c4 c5)^-6"), "abAB")
