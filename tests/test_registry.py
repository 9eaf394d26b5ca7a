import pytest

from g2mcg import homology as hom
from g2mcg.dsl import ParseError, parse_word
from g2mcg.registry import (
    SEPARATING,
    NotATransvection,
    Registry,
    UnknownCurve,
    standard_registry,
)
from g2mcg.words import Curve, letter

reg = standard_registry()


def curve(name):
    return Curve(name)


def test_standard_registry_validates():
    report = reg.validate()
    assert report.ok, report.render()


def test_homology_classes():
    assert reg.homology_class(curve("c1")) == (1, 0, 0, 0)
    assert reg.homology_class(curve("d")) == (0, 0, 0, 0)
    assert reg.homology_class(curve("x")) == (1, 0, 1, 0)


def test_conjugate_curve_class_is_pushed_forward():
    c = letter("c4", conj=(letter("c5"),)).curve
    expected = hom.mat_vec(reg.image((letter("c5"),)), reg.data("c4").homology)
    assert reg.homology_class(c) == expected


def test_unknown_curve():
    with pytest.raises(UnknownCurve):
        reg.homology_class(curve("zz"))


def test_lantern_solve_for_x():
    b = [curve("c1"), curve("c1"), curve("c5"), curve("c5")]
    v = reg.lantern_solve(b, [curve("c3"), curve("d")])
    assert v in [(1, 0, 1, 0), (-1, 0, -1, 0)]


def test_lantern_solve_identifies_separating():
    b = [curve("c1"), curve("c1"), curve("c5"), curve("c5")]
    assert reg.lantern_solve(b, [curve("x"), curve("c3")]) == SEPARATING


def test_lantern_solve_for_kb():
    b = [curve("c1"), curve("c1"), curve("c3"), curve("c3")]
    v = reg.lantern_solve(b, [curve("hb"), curve("c5")])
    assert v in [(2, 0, -1, 0), (-2, 0, 1, 0)]


def test_lantern_solve_detects_inconsistency():
    bad = reg.with_homology("c3", (1, 1, 1, 0))
    b = [curve("c1"), curve("c1"), curve("c5"), curve("c5")]
    with pytest.raises(NotATransvection):
        bad.lantern_solve(b, [curve("c3"), curve("d")])


def test_corrupting_x_breaks_lantern_check():
    bad = reg.with_homology("x", (1, 1, 1, 0))
    report = bad.validate()
    assert not report.ok
    assert any("lantern:L1" in c.name or "primitive" in c.name for c in report.failures())


def test_marking_d_nonseparating_fails():
    bad = reg.with_separating("d", False)
    report = bad.validate()
    assert any(c.name == "flag:d" for c in report.failures())


def test_missing_lantern_fails_coverage():
    assert not reg.without_lantern("L3").validate().ok


def test_lantern_instances_are_homology_consistent():
    for inst in reg.lanterns.values():
        assert reg.image(inst.lhs_word()) == reg.image(inst.rhs_word())
        # conjugating both sides by any word keeps them equal
        for conj in [parse_word("c2"), parse_word("c4 c1^-1")]:
            u = conj + inst.lhs_word() + tuple(l.inverse() for l in reversed(conj))
            v = conj + inst.rhs_word() + tuple(l.inverse() for l in reversed(conj))
            assert reg.image(u) == reg.image(v)


def test_separating_iff_zero_and_primitivity():
    for c in reg.curves.values():
        assert c.separating == (c.homology == (0, 0, 0, 0))
        if not c.separating:
            assert hom.is_primitive(c.homology)


def test_disjointness_table_entries_commute_homologically():
    for pair in reg.disjoint_pairs:
        a, b = sorted(pair)
        ma, mb = reg.image((letter(a),)), reg.image((letter(b),))
        assert hom.mat_mul(ma, mb) == hom.mat_mul(mb, ma)


def test_disjoint_support_rule():
    # c1 is disjoint from the c3-pushed c4 because c3 and c4 both avoid c1
    pushed = letter("c4", conj=(letter("c3", -1),)).curve
    assert reg.disjoint(curve("c1"), pushed)
    # but not from c2 pushed by c3 (c2 meets c1)
    pushed2 = letter("c2", conj=(letter("c3"),)).curve
    assert not reg.disjoint(curve("c1"), pushed2)
    # equal conjugators peel: c1 and x are disjoint, so their common
    # c2-pushed images are too, even though c2 meets both
    a = letter("c1", conj=(letter("c2"),)).curve
    b = letter("x", conj=(letter("c2"),)).curve
    assert reg.disjoint(a, b)
    assert not reg.disjoint(a, Curve("c2"))


def test_canonicalization_strips_idle_conjugators():
    # a conjugator disjoint from the inner curve is an isotopy, not a new curve
    assert reg.canonical_letter(letter("c3", conj=(letter("c1"),))) == letter("c3")
    l = letter("d", conj=(letter("c3"), letter("c4")))
    assert reg.canonical_letter(l) == letter("d", conj=(letter("c3"),))


def test_canonicalization_orders_commuting_conjugators():
    a = letter("c2", conj=(letter("c3"), letter("c1", -1)))
    b = letter("c2", conj=(letter("c1", -1), letter("c3")))
    assert reg.canonical_letter(a) == reg.canonical_letter(b)


def test_serialization_roundtrip():
    text = reg.serialize()
    again = Registry.parse(text)
    assert again.curves == reg.curves
    assert again.lanterns == reg.lanterns
    assert again.validate().ok


def test_registry_file_fixture_matches_builtin():
    from g2mcg.fixtures import read_text

    shipped = Registry.parse(read_text("standard.reg"))
    assert shipped.curves == reg.curves
    assert shipped.lanterns == reg.lanterns


@pytest.mark.parametrize("text", [
    "c1 nonsep h=(1,0,0)",
    "c1 nonsep h=(1,-,0,0)",
    "c1 nonsep h=(1,0,0,0) def=c2",
    "c1 is a curve",
])
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(ParseError):
        Registry.parse(text)


def test_lantern_rotations():
    inst = reg.lanterns["L1"]
    assert inst.rotations("lhs") == [inst.lhs_word(r) for r in range(4)]
    assert inst.rotations("rhs") == [inst.rhs_word(r) for r in range(3)]


def corpus_curves() -> set[Curve]:
    """The curve of every letter in a corpus word or a state a corpus script
    passes through."""
    from g2mcg.fixtures import load_corpus
    from g2mcg.moves import Checkpoint, Final, apply_move

    corpus = load_corpus(reg)
    words = [r.word for r in corpus.relators.values()]
    for script in corpus.scripts.values():
        state = script.start
        words.append(state)
        for entry in script.entries:
            if isinstance(entry, (Checkpoint, Final)):
                words.append(entry.word)
            else:
                state = apply_move(reg, state, entry)
                words.append(state)
    return {l.curve for w in words for l in w}


def test_canonical_curve_cache_matches_a_fresh_registry():
    for c in corpus_curves():
        first = reg.canonical_curve(c)
        assert reg.canonical_curve(c) == first == standard_registry().canonical_curve(c)
        assert reg.canonical_curve(first) == first


def test_derived_registries_do_not_share_the_canonical_curve_cache():
    parent = standard_registry()
    parent.canonical_curve(letter("c2", conj=(letter("c3"), letter("c1"))).curve)
    assert parent._canonical_curve_cache
    for child in (
        parent.with_homology("x", (1, 0, 1, 0)),
        parent.with_separating("d", True),
        parent.without_lantern("L3"),
    ):
        assert child._canonical_curve_cache == {}
