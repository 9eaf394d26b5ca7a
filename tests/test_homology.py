import pytest
from hypothesis import example, given, settings, strategies as st

from g2mcg import homology as hom
from g2mcg.dsl import parse_word
from g2mcg.fixtures import load_corpus, read_text
from g2mcg.invariants import fiber_signature
from g2mcg.moves import replay
from g2mcg.registry import Registry, standard_registry
from g2mcg.words import letter

reg = standard_registry()


def test_zero_vector_gives_identity():
    assert hom.transvection((0, 0, 0, 0)) == hom.IDENTITY


def test_transvection_along_a1():
    # fixes a1, a2, b2; sends b1 to b1 - a1
    m = hom.transvection((1, 0, 0, 0))
    assert hom.mat_vec(m, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert hom.mat_vec(m, (0, 1, 0, 0)) == (-1, 1, 0, 0)
    assert hom.mat_vec(m, (0, 0, 1, 0)) == (0, 0, 1, 0)
    assert hom.mat_vec(m, (0, 0, 0, 1)) == (0, 0, 0, 1)


vec_st = st.tuples(*[st.integers(-3, 3)] * 4)


@given(vec_st)
def test_transvection_even_in_v(v):
    assert hom.transvection(v) == hom.transvection(tuple(-x for x in v))


@given(vec_st)
def test_transvection_symplectic_and_invertible(v):
    m = hom.transvection(v)
    assert hom.is_symplectic(m)
    assert hom.mat_mul(m, hom.transvection_inv(v)) == hom.IDENTITY


@given(vec_st)
def test_sp_inverse(v):
    m = hom.transvection(v)
    assert hom.sp_inverse(m) == hom.transvection_inv(v)


def mat_mul_reference(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


# Entries far past 2^63: the matrices hold Python ints and must not wrap.
big_mat_st = st.tuples(*[st.tuples(*[st.integers(-(2**200), 2**200)] * 4)] * 4)


@given(big_mat_st, big_mat_st)
def test_mat_mul_matches_reference(a, b):
    assert hom.mat_mul(a, b) == mat_mul_reference(a, b)
    assert hom.mat_mul(a, hom.IDENTITY) == a == hom.mat_mul(hom.IDENTITY, a)


def test_image_empty_is_identity():
    assert reg.image(()) == hom.IDENTITY


def test_image_of_involution_word_is_minus_identity():
    tau = parse_word("c1 c2 c3 c4 c5^2 c4 c3 c2 c1")
    assert reg.image(tau) == hom.mat_neg(hom.IDENTITY)


def test_image_of_thirty_twist_relator():
    assert reg.image(parse_word("(c1 c2 c3 c4 c5)^6")) == hom.IDENTITY


names_st = st.sampled_from(["c1", "c2", "c3", "c4", "c5", "x", "d", "kb"])
word_st = st.lists(
    st.builds(letter, names_st, st.sampled_from([1, -1])), max_size=10
).map(tuple)


@given(word_st)
def test_image_is_symplectic(w):
    assert hom.is_symplectic(reg.image(w))


@given(word_st, word_st)
def test_image_is_a_homomorphism(u, v):
    assert reg.image(u + v) == hom.mat_mul(reg.image(u), reg.image(v))


def test_conjugate_image_is_transvection_along_pushed_class():
    # image(c5 c4 c5^-1) equals the transvection along T_c5 [c4]
    w = parse_word("c5 c4 c5^-1")
    pushed = hom.mat_vec(reg.image((letter("c5"),)), reg.data("c4").homology)
    assert reg.image(w) == hom.transvection(pushed)


def test_ab_class_examples():
    def ab(text):
        return fiber_signature(reg, parse_word(text)).mod_ten

    assert ab("(B0 B1 B2 d)^2") == 0  # 6 + 2*2 = 10
    assert ab("(B0 B1 B2 d)^2 (c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2") == 0
    assert ab("c1") == 1
    assert ab("d") == 2


# -- the rank-one kernel against the matrix products it replaces ----------------
#
# The reference is how an image was computed before: a conjugate curve's class
# pushed through its conjugator by mat_vec, and one 4x4 product per letter with
# transvection(v) or transvection_inv(v).


def _ref_class(registry, curve):
    v = registry.data(curve.name).homology
    for l in reversed(curve.conj):
        v = hom.mat_vec(_ref_letter(registry, l), v)
    return v


def _ref_letter(registry, l):
    v = _ref_class(registry, l.curve)
    return hom.transvection(v) if l.exp == 1 else hom.transvection_inv(v)


def _ref_image(registry, w):
    m = hom.IDENTITY
    for l in w:
        m = hom.mat_mul(m, _ref_letter(registry, l))
    return m


_NAMES = sorted(reg.curves)  # d, h and hb among them: separating, class 0
_signs = st.sampled_from([1, -1])
# plain and inverse letters, and conjugates whose conjugators hold conjugates
_letters = st.recursive(
    st.builds(letter, st.sampled_from(_NAMES), _signs),
    lambda inner: st.builds(
        lambda name, conj, exp: letter(name, exp, conj=tuple(conj)),
        st.sampled_from(_NAMES), st.lists(inner, max_size=3), _signs,
    ),
    max_leaves=8,
)
_words = st.lists(_letters, max_size=12).map(tuple)
# the standard atlas, or one curve given any small class: zero, primitive or not
_registries = st.one_of(
    st.just(reg),
    st.builds(
        lambda name, v: reg.replace(name, homology=v),
        st.sampled_from(_NAMES), st.tuples(*[st.integers(-3, 3)] * 4),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_registries, _words)
@example(reg.replace("c2", homology=(0, 0, 0, 0)), parse_word("c1 c2 [c2](c3) c2^-1"))
@example(reg.replace("c4", homology=(2, 0, 0, -2)), parse_word("c4 [c4^-1 c3](c5) c4^-1 c3"))
@example(reg.replace("d", homology=(1, 1, 0, 0)), parse_word("[d c1](c2)^-1 d c3"))
def test_image_and_class_equal_the_transvection_products(registry, w):
    for _ in range(2):  # with the letter cache cold, then warm
        assert registry.image(w) == _ref_image(registry, w)
        for l in w:
            assert registry.homology_class(l.curve) == _ref_class(registry, l.curve)


def test_image_equals_the_transvection_products_on_the_corpus():
    corpus = load_corpus(reg)
    words = [r.word for r in corpus.relators.values()]
    words += [s.start for s in corpus.scripts.values()]
    for w in words + [reg.canonical_word(w) for w in words]:
        assert reg.image(w) == _ref_image(reg, w)


def test_replaying_the_corpus_takes_no_matrix_product(monkeypatch):
    fresh = Registry.parse(read_text("standard.reg"))  # no letter cached yet
    corpus = load_corpus(fresh)
    calls = []
    mat_mul = hom.mat_mul
    monkeypatch.setattr(hom, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    for script in corpus.scripts.values():
        assert replay(fresh, script).ok
    assert calls == []
