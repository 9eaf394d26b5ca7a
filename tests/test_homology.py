import pytest
from hypothesis import given, strategies as st

from g2mcg import homology as hom
from g2mcg.dsl import parse_word
from g2mcg.registry import standard_registry
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


def test_transvection_direction_roundtrip():
    for v in [(1, 0, 0, 0), (2, 0, -1, 0), (1, -1, 1, -1)]:
        assert hom.transvection_direction(hom.transvection(v)) in (
            v,
            tuple(-x for x in v),
        )
    assert hom.transvection_direction(hom.IDENTITY) is None


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
    assert reg.ab_class(parse_word("(B0 B1 B2 d)^2")) == 0  # 6 + 2*2 = 10
    assert reg.ab_class(parse_word("(B0 B1 B2 d)^2 (c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2")) == 0
    assert reg.ab_class(parse_word("c1")) == 1
    assert reg.ab_class(parse_word("d")) == 2


def test_matrix_rendering():
    text = hom.mat_str(hom.IDENTITY)
    assert len(text.splitlines()) == 4
