import pytest
from hypothesis import given, strategies as st

from g2mcg.fixtures import load_corpus
from g2mcg.moves import Contract, Expand, GlobalConjugate, IllegalMove, apply_move, inverse_move
from g2mcg.registry import standard_registry
from g2mcg.words import (
    Curve,
    Letter,
    PositiveRelator,
    free_reduce,
    invert,
    letter,
)

reg = standard_registry()
corpus = load_corpus(reg)

NAMES = ["c1", "c2", "c3", "c4", "c5", "x", "d"]


def lw(*specs):
    out = []
    for s in specs:
        if s.endswith("'"):
            out.append(letter(s[:-1], -1))
        else:
            out.append(letter(s))
    return tuple(out)


letters_st = st.builds(
    letter,
    st.sampled_from(NAMES),
    st.sampled_from([1, -1]),
)
words_st = st.lists(letters_st, max_size=12).map(tuple)


def test_free_reduce_cancellation():
    assert free_reduce(lw("c1", "c1'")) == ()
    assert free_reduce(lw("c1", "c2", "c2'", "c5")) == lw("c1", "c5")
    assert free_reduce(()) == ()


@given(words_st)
def test_free_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@given(words_st)
def test_invert_involution(w):
    assert invert(invert(w)) == w


@given(words_st)
def test_word_times_inverse_cancels(w):
    assert free_reduce(w + invert(w)) == ()
    assert free_reduce(w * 2 + invert(w) * 2) == ()


def test_invert_example():
    assert invert(lw("c1", "c2")) == lw("c2'", "c1'")
    assert invert(()) == ()


def test_conjugate_definition():
    # C by=u rewrites the relator w as u^-1 w u, freely reduced
    w = lw("c1", "c2", "c3", "c4", "c5", "c5", "c4", "c3", "c2", "c1") * 2
    assert apply_move(reg, w, GlobalConjugate(lw("c2'"))) == lw("c2") + w + lw("c2'")
    assert apply_move(reg, w, GlobalConjugate(lw("c1'"))) == lw("c1") + w[:-1]
    assert apply_move(reg, w, GlobalConjugate(())) == w


# letters on chain curves pushed by short words, most of them not in normal form
chain_st, signs_st = st.sampled_from(["c1", "c2", "c3", "c4", "c5"]), st.sampled_from([1, -1])
conj_letters_st = st.builds(
    letter, chain_st, signs_st,
    st.lists(st.builds(letter, chain_st, signs_st), max_size=2).map(tuple),
)


@given(st.sampled_from(sorted(corpus.relators)), st.lists(conj_letters_st, max_size=4).map(tuple))
def test_conjugate_roundtrip(name, by):
    w = reg.canonical_word(corpus.relators[name].word)
    out = apply_move(reg, w, GlobalConjugate(by))
    assert apply_move(reg, out, inverse_move(reg, w, GlobalConjugate(by))) == w


def test_expand_letter():
    l = letter("x", 1, conj=lw("c3'"))
    assert apply_move(reg, (l,), Expand(0)) == lw("c3'", "x", "c3")
    with pytest.raises(IllegalMove, match="is not in conjugate form"):
        apply_move(reg, lw("c1"), Expand(0))


def test_expand_contract_roundtrip():
    l = letter("x", -1, conj=lw("c3'", "c2"))
    w = lw("c1") + apply_move(reg, (l,), Expand(0)) + lw("c5")
    back = apply_move(reg, w, Contract(1, 1 + 2 * len(l.curve.conj) + 1))
    assert back == lw("c1") + (l,) + lw("c5")


def test_contract_single_letter_span():
    w = lw("c1")
    assert apply_move(reg, w, Contract(0, 1)) == w  # empty conjugator


def test_contract_examples():
    assert apply_move(reg, lw("c3'", "x", "c3"), Contract(0, 3)) == (
        letter("x", 1, conj=lw("c3'")),
    )
    assert apply_move(reg, lw("c5", "c4", "c5'"), Contract(0, 3)) == (
        letter("c4", 1, conj=lw("c5")),
    )


def test_contract_rejects_bad_spans():
    with pytest.raises(IllegalMove, match=r"span \[0:2\] cannot read u.t.u\^-1"):
        apply_move(reg, lw("c1", "c2"), Contract(0, 2))  # even length
    with pytest.raises(IllegalMove, match="tail is not the inverse of its head"):
        apply_move(reg, lw("c1", "c2", "c3"), Contract(0, 3))


def test_contract_flattens_nested_conjugates():
    inner = letter("x", 1, conj=lw("c2"))
    w = lw("c3") + (inner,) + lw("c3'")
    out = apply_move(reg, w, Contract(0, 3))
    assert out == (letter("x", 1, conj=lw("c3", "c2")),)


def test_positive_relator_rejects_inverses():
    with pytest.raises(ValueError):
        PositiveRelator(lw("c1", "c2'"))
    r = PositiveRelator(lw("c1", "c2", "c3"), "r")
    with pytest.raises(ValueError):  # _replace goes through _make, and _make through the check
        r._replace(word=lw("c1", "c2'"))
    assert len(r) == 3 and r._replace(label="s") == PositiveRelator(r.word, "s")


def test_curve_flattening():
    c = Curve("x", lw("c3"))
    assert not Curve("x").conj
    assert c.conj and c.name == "x"


@given(st.sampled_from(NAMES), words_st)
def test_curve_hash_is_the_hash_of_its_fields(name, conj):
    c = Curve(name, conj)
    assert hash(c) == hash((c.name, c.conj))
    twin = Curve(name, tuple(letter(l.curve.name, l.exp) for l in conj))
    assert twin == c and twin is not c and hash(twin) == hash(c)


def test_nested_curves_hash_by_value():
    inner = Curve("x", lw("c3'"))
    outer = Curve("c1", (letter("c2"), letter("x", conj=inner.conj)))
    same = Curve("c1", (letter("c2"), letter("x", conj=lw("c3'"))))
    assert outer == same and hash(outer) == hash(same)
    assert len({outer, same, inner}) == 2


@pytest.mark.parametrize("cls", [Curve, Letter])
def test_equality_and_hash_are_the_tuple_ones(cls):
    # run in C: a Python-level override would cost a Python call on every
    # cache lookup and checkpoint comparison
    assert cls.__eq__ is tuple.__eq__ and cls.__hash__ is tuple.__hash__


@given(st.sampled_from(NAMES), st.sampled_from([1, -1]), words_st)
def test_letter_hash_is_the_hash_of_its_fields(name, exp, conj):
    c = Curve(name, conj)
    assert hash(Letter(c, exp)) == hash((c, exp))  # dict and set orders stay put


def test_a_twin_letter_is_a_dict_hit():
    l = letter("x", -1, conj=lw("c3'", "c2"))
    twin = letter("x", -1, conj=lw("c3'", "c2"))
    assert twin == l and twin is not l
    assert {l: "hit"}.get(twin) == "hit"


def test_a_letter_is_neither_its_curve_nor_a_one_letter_word():
    l = letter("x", 1, conj=lw("c3"))
    assert l != l.curve and l.curve != l
    assert l != (l,) and (l,) != l
    assert Letter(Curve("c1")) != Curve("c1")


@pytest.mark.parametrize("value, field", [(letter("c1"), "exp"), (Curve("c1"), "name")])
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("exp", [0, 2, -2])
def test_letter_exponent_must_be_a_sign(exp):
    with pytest.raises(ValueError):
        Letter(Curve("c1"), exp)


def test_replace_and_make_check_the_exponent():
    c1 = letter("c1")
    with pytest.raises(ValueError):
        c1._replace(exp=2)
    with pytest.raises(ValueError):
        Letter._make((c1.curve, 0))
    inverse = c1._replace(exp=-1)
    assert type(inverse) is Letter and inverse == c1.inverse()
    assert Letter._make((c1.curve, 1)) == c1


@given(letters_st, words_st)
def test_letter_inverse_is_an_involution(l, conj):
    l = Letter(Curve(l.curve.name, conj), l.exp)
    assert l.inverse().inverse() == l and l.inverse() != l
    assert l.inverse().curve is l.curve and l.inverse().exp == -l.exp
