import pytest
from hypothesis import given, settings, strategies as st

from g2mcg import homology as hom
from g2mcg.dsl import parse_word
from g2mcg.fixtures import load_corpus
from g2mcg.moves import (
    Alias,
    Braid,
    CentralSlide,
    Checkpoint,
    Commute,
    CyclicShift,
    Expand,
    Final,
    GlobalConjugate,
    Hurwitz,
    IllegalMove,
    Lantern,
    MoveScript,
    apply_move,
    inverse_move,
    match_lantern,
    replay,
)
from g2mcg.registry import standard_registry
from g2mcg.words import letter

reg = standard_registry()
corpus = load_corpus(reg)


def test_commute_legal_pair():
    w = parse_word("c1 c3")
    assert apply_move(reg, w, Commute(0)) == parse_word("c3 c1")


def test_commute_rejects_intersecting_pair():
    w = parse_word("c1 c2")
    with pytest.raises(IllegalMove) as err:
        apply_move(reg, w, Commute(0))
    assert "not declared disjoint" in str(err.value)


def test_commute_is_conservative_even_when_images_commute():
    # x and d have commuting homology images (d acts trivially) but the
    # curves intersect, so the table rejects the swap
    w = parse_word("x d")
    with pytest.raises(IllegalMove):
        apply_move(reg, w, Commute(0))


def test_hurwitz_left_and_right():
    w = parse_word("c1 c2")
    left = apply_move(reg, w, Hurwitz(0, "left"))
    assert left == parse_word("[c1](c2) c1")
    right = apply_move(reg, w, Hurwitz(0, "right"))
    assert right == parse_word("c2 [c2^-1](c1)")


def test_hurwitz_preserves_length_and_image():
    for w in [corpus.relator("Z1").word, corpus.relator("X3").word]:
        for pos in range(len(w) - 1):
            out = apply_move(reg, w, Hurwitz(pos, "left"))
            assert len(out) == len(w)
            assert reg.image(out) == reg.image(w)


def test_braid_fwd_pattern_one():
    w = parse_word("[c1^-1](c2) c2")
    assert apply_move(reg, w, Braid(0, "fwd")) == parse_word("c2 c1")


def test_braid_fwd_pattern_two():
    w = parse_word("c4 [c3](c4)")
    assert apply_move(reg, w, Braid(0, "fwd")) == parse_word("c3 c4")


def test_braid_reverse_patterns():
    assert apply_move(reg, parse_word("c2 c1"), Braid(0, "rev1")) == parse_word(
        "[c1^-1](c2) c2"
    )
    assert apply_move(reg, parse_word("c3 c4"), Braid(0, "rev2")) == parse_word(
        "c4 [c3](c4)"
    )


def test_braid_needs_adjacent_curves():
    with pytest.raises(IllegalMove):
        apply_move(reg, parse_word("c1 c3"), Braid(0, "rev1"))
    with pytest.raises(IllegalMove):
        apply_move(reg, parse_word("[c1^-1](c2) c3"), Braid(0, "fwd"))


def test_lantern_down_with_cyclic_output():
    w = parse_word("c1 c1 c5 c5")
    out = apply_move(reg, w, Lantern(0, "L1", "down", out=1))
    assert out == parse_word("c3 d x")


def test_lantern_matches_any_rotation():
    w = parse_word("c5 c5 c1 c1")
    out = apply_move(reg, w, Lantern(0, "L1", "down"))
    assert out == parse_word("x c3 d")


def test_lantern_up():
    w = parse_word("c2 x c3 d c2")
    out = apply_move(reg, w, Lantern(1, "L1", "up"))
    assert out == parse_word("c2 c1 c1 c5 c5 c2")


def test_lantern_rejects_wrong_block():
    with pytest.raises(IllegalMove):
        apply_move(reg, parse_word("c1 c2 c3 c4"), Lantern(0, "L1", "down"))


def test_lantern_conjugated_block():
    w = tuple(letter(n, conj=(letter("c2"),)) for n in ("kb", "hb", "c5"))
    out = apply_move(reg, w, Lantern(0, "L2", "up", conj=(letter("c2"),)))
    expected = tuple(letter(n, conj=(letter("c2"),)) for n in ("c1", "c1", "c3", "c3"))
    assert out == reg.canonical_word(expected)


def test_global_conjugate_cycles_a_relator():
    rel = corpus.relator("Mconj").word  # starts with c1 c1
    out = apply_move(reg, rel, GlobalConjugate(parse_word("c1^2")))
    assert out == rel[2:] + rel[:2]


def test_global_conjugate_requires_relator():
    with pytest.raises(IllegalMove):
        apply_move(reg, parse_word("c1 c2"), GlobalConjugate(parse_word("c1")))


def test_cyclic_shift_requires_relator():
    rel = corpus.relator("Z0").word
    out = apply_move(reg, rel, CyclicShift(3))
    assert out == rel[3:] + rel[:3]
    with pytest.raises(IllegalMove):
        apply_move(reg, parse_word("c1 c2"), CyclicShift(1))


def test_expand_and_contract_moves():
    w = parse_word("c5 [c3^-1](x) c5")
    out = apply_move(reg, w, Expand(1))
    assert out == parse_word("c5 c3^-1 x c3 c5")
    back = apply_move(reg, out, inverse_move(reg, w, Expand(1)))
    assert back == w


def test_alias_moves():
    w = parse_word("c5 B2 c5")
    out = apply_move(reg, w, Alias(1, "B2def", "fwd"))
    assert out == parse_word("c5 [c3^-1](x) c5")
    assert apply_move(reg, out, Alias(1, "B2def", "rev")) == w
    with pytest.raises(IllegalMove):
        apply_move(reg, w, Alias(0, "B2def", "fwd"))


def test_central_slide():
    tau = parse_word("c1 c2 c3 c4 c5^2 c4 c3 c2 c1")
    w = tau + parse_word("B0 B1")
    out = apply_move(reg, w, CentralSlide(0, 10, 2))
    assert out == parse_word("B0 B1") + tau
    with pytest.raises(IllegalMove):
        apply_move(reg, w, CentralSlide(1, 10, 0))


def checked_step(w, move, out):
    """Check a step out = apply_move(reg, w, move) on the whole word: the
    image apply_move compares only over the rewritten span is unchanged,
    and the inverse move gives w back."""
    assert reg.image(out) == reg.image(w), move
    assert apply_move(reg, out, inverse_move(reg, w, move)) == w, move
    return out


def test_every_move_is_invertible_along_the_corpus():
    # replay each script, checking apply(inverse) returns the previous word
    for script in corpus.scripts.values():
        state = reg.canonical_word(script.start)
        for entry in script.entries:
            if isinstance(entry, (Checkpoint, Final)):
                continue
            state = checked_step(state, entry, apply_move(reg, state, entry))


RELATORS = sorted(corpus.relators.values(), key=lambda r: r.label)


def fiber_sum(data) -> tuple:
    """A fiber sum of corpus relators with 100 to 250 letters."""
    target = data.draw(st.integers(100, 250), label="length")
    parts = []
    while sum(len(r) for r in parts) < target:
        parts.append(data.draw(st.sampled_from(RELATORS), label="summand"))
    if sum(len(r) for r in parts) > 250:
        parts.pop()  # summands have at most 40 letters: over 210 are left
    return reg.canonical_word(tuple(l for r in parts for l in r.word))


def walk_move(data, w):
    """A Hurwitz, commute, braid, expand or shift move at a drawn position,
    drawn among the positions where it applies when there are any."""
    kind = data.draw(st.sampled_from(["hurwitz", "commute", "braid", "expand", "shift"]))
    pairs = range(len(w) - 1)
    if kind == "commute":
        legal = [p for p in pairs if reg.disjoint(w[p].curve, w[p + 1].curve)]
        return Commute(data.draw(st.sampled_from(legal or pairs)))
    if kind == "braid":
        legal = [
            p for p in pairs
            if w[p].exp == w[p + 1].exp == 1
            and not w[p].curve.conj and not w[p + 1].curve.conj
            and reg.braid_adjacent(w[p].curve.name, w[p + 1].curve.name)
        ]
        form = data.draw(st.sampled_from(["fwd", "rev1", "rev2"]))
        return Braid(data.draw(st.sampled_from(legal or pairs)), form)
    if kind == "expand":
        conj = [p for p, l in enumerate(w) if l.curve.conj]
        return Expand(data.draw(st.sampled_from(conj or range(len(w)))))
    if kind == "shift":
        return CyclicShift(data.draw(st.integers(1, len(w) - 1)))
    return Hurwitz(data.draw(st.sampled_from(pairs)), data.draw(st.sampled_from(["left", "right"])))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_span_check_keeps_the_whole_word_image_on_long_walks(data):
    w = fiber_sum(data)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        move = walk_move(data, w)
        try:
            out = apply_move(reg, w, move)
        except IllegalMove as exc:
            # the standard registry is consistent: only legality clauses fail
            assert exc.reason != "move broke the homology image", move
            continue
        w = checked_step(w, move, out)


def test_match_lantern_finds_blocks_in_x0():
    hits = match_lantern(reg, corpus.relator("X0").word, "L1")
    lhs_hits = [h for h in hits if h[2] == "lhs"]
    assert {h[0] for h in lhs_hits} == {11, 26}


def test_match_lantern_empty_on_plain_word():
    assert match_lantern(reg, parse_word("c2 c4 c2 c4"), "L1") == []


def test_match_lantern_conjugated_occurrence():
    block = tuple(letter(n, conj=(letter("c2"),)) for n in ("c1", "c1", "c5", "c5"))
    w = parse_word("c3") + block + parse_word("c3")
    hits = match_lantern(reg, w, "L1")
    assert any(pos == 1 and side == "lhs" and conj for pos, conj, side, _ in hits)


def test_replay_empty_script():
    rel = corpus.relator("M")
    script = MoveScript("noop", rel.word, (Final(rel.word, "M"),))
    report = replay(reg, script)
    assert report.ok and report.labeled["M"] == reg.canonical_word(rel.word)


def test_replay_reports_checkpoint_mismatch():
    script = MoveScript(
        "bad", parse_word("c1 c3"), (Commute(0), Checkpoint(parse_word("c1 c3")))
    )
    report = replay(reg, script)
    assert not report.ok
    assert "checkpoint mismatch" in report.failure
    assert "mismatch" in report.render() or "FAIL" in report.render()


def test_replay_stops_at_illegal_move():
    script = MoveScript("bad", parse_word("c1 c2 c3"), (Commute(0),))
    report = replay(reg, script)
    assert not report.ok
    assert not report.steps[-1].ok


def test_corpus_scripts_all_replay():
    for name, script in corpus.scripts.items():
        report = replay(reg, script)
        assert report.ok, f"{name}: {report.failure}"
