import pytest
from hypothesis import given, settings, strategies as st

from g2mcg import homology as hom, moves
from g2mcg.decompose import CLASSIFICATION, RULES, admissible_splits
from g2mcg.dsl import parse_document, parse_word
from g2mcg.fixtures import load_corpus
from g2mcg.moves import (
    Alias,
    Braid,
    CentralSlide,
    Checkpoint,
    Commute,
    Contract,
    CyclicShift,
    Expand,
    Final,
    GlobalConjugate,
    Hurwitz,
    IllegalMove,
    Lantern,
    MOVES,
    MoveScript,
    apply_move,
    inverse_move,
    replay,
)
from g2mcg.invariants import FiberSignature, fiber_signature, invariants
from g2mcg.registry import Registry, UnknownCurve, standard_registry
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
    for w in [corpus.relators["Z1"].word, corpus.relators["X3"].word]:
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
    # apply_move takes a canonical word, as a replay state is
    w = reg.canonical_word(tuple(letter(n, conj=(letter("c2"),)) for n in ("kb", "hb", "c5")))
    out = apply_move(reg, w, Lantern(0, "L2", "up", conj=(letter("c2"),)))
    expected = tuple(letter(n, conj=(letter("c2"),)) for n in ("c1", "c1", "c3", "c3"))
    assert out == reg.canonical_word(expected)


def test_global_conjugate_cycles_a_relator():
    rel = corpus.relators["Mconj"].word  # starts with c1 c1
    out = apply_move(reg, rel, GlobalConjugate(parse_word("c1^2")))
    assert out == rel[2:] + rel[:2]


@pytest.mark.parametrize("by", ["c1^-1", "[c4](c1)^-1"])
def test_global_conjugate_reads_its_conjugator_in_normal_form(by):
    # [c4](c1) is c1, as c4 and c1 are disjoint: both scripts cancel c1 c1^-1
    text = (f"relator R = (c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2\nscript s\nstart R\nC by={by}\n"
            "final: c1^2 c2 c3 c4 c5^2 c4 c3 c2 c1^2 c2 c3 c4 c5^2 c4 c3 c2\nend\n")
    report = replay(reg, parse_document(text, reg).scripts["s"])
    assert report.ok, report.render()


# letters on chain curves pushed by short words, most of them not in normal form
_chain, _signs = st.sampled_from(["c1", "c2", "c3", "c4", "c5"]), st.sampled_from([1, -1])
_chain_letters = st.builds(
    letter, _chain, _signs, st.lists(st.builds(letter, _chain, _signs), max_size=2).map(tuple),
)


@given(st.sampled_from(sorted(corpus.relators)), st.lists(_chain_letters, max_size=4).map(tuple))
def test_global_conjugate_returns_a_canonical_word(name, by):
    # apply_move returns a C's rewrite as it stands: the relator's letters
    # and those of the conjugator, read in normal form, are all canonical
    w = reg.canonical_word(corpus.relators[name].word)
    out = apply_move(reg, w, GlobalConjugate(by))
    assert out == reg.canonical_word(out)
    assert reg.image(out) == hom.IDENTITY


def test_global_conjugate_requires_relator():
    with pytest.raises(IllegalMove):
        apply_move(reg, parse_word("c1 c2"), GlobalConjugate(parse_word("c1")))


def test_cyclic_shift_requires_relator():
    rel = corpus.relators["Z0"].word
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


def test_apply_move_refuses_what_is_no_move():
    with pytest.raises(TypeError, match="unknown move 'c1'"):
        apply_move(reg, parse_word("c1"), "c1")


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
    and the inverse move gives w back.  Both words are canonical."""
    assert reg.canonical_word(w) == w and reg.canonical_word(out) == out, move
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


@pytest.mark.parametrize(
    "text, move",
    [
        ("c5 c1 c5", Expand(1)),  # a plain letter has no conjugator
        ("c1 c3", Braid(0, "fwd")),  # neither forward braid pattern
        ("c1 c2", Commute(0)),  # the curves intersect
        ("c1 c2", CyclicShift(1)),  # not a relator
        ("c1 c2", Contract(0, 2)),  # no conjugate pattern w a w^-1
        ("(c1 c2)^6", Alias(0, "chain", "sideways")),  # no such direction
    ],
)
def test_inverse_move_refuses_a_move_that_does_not_apply(text, move):
    with pytest.raises(IllegalMove):
        inverse_move(reg, parse_word(text), move)


def test_a_lantern_step_matches_its_rotation_once(monkeypatch):
    calls = []
    real = moves._match_rotation
    monkeypatch.setattr(moves, "_match_rotation", lambda *a: calls.append(a) or real(*a))
    w = reg.lanterns["L1"].rotations("lhs")[2]
    move = Lantern(0, "L1", "down")
    out = apply_move(reg, w, move)
    assert len(calls) == 1
    undo = inverse_move(reg, w, move)
    assert len(calls) == 2 and undo == Lantern(0, "L1", "up", out=2)
    assert apply_move(reg, out, undo) == w


def test_a_plain_lantern_step_canonicalizes_only_its_replacement(monkeypatch):
    # a replay state and a side of plain letters are canonical as they stand
    steps = []
    real_apply = moves.apply_move
    monkeypatch.setattr(moves, "apply_move", lambda reg, w, move, **kw: steps.append((w, move))
                        or real_apply(reg, w, move, **kw))
    assert replay(reg, corpus.scripts["x-seven"]).ok
    monkeypatch.undo()
    w, move = next((w, m) for w, m in steps if isinstance(m, Lantern))
    assert move.conj == ()
    calls = []
    real = Registry.canonical_word
    monkeypatch.setattr(Registry, "canonical_word", lambda self, u: calls.append(u) or real(self, u))
    apply_move(reg, w, move)
    assert calls == [reg.lantern_rotations[move.inst, "rhs"][move.out]]


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


CONJUGATOR_LETTERS = [letter(f"c{i}", e) for i in range(1, 6) for e in (1, -1)]


def splice_move(data, w):
    """A lantern, alias or central move at a drawn position of w, and w with
    the block that move takes spliced in at that position."""
    pos = data.draw(st.integers(0, len(w)), label="pos")
    kind = data.draw(st.sampled_from(["lantern", "alias", "central"]))
    if kind == "lantern":
        inst = data.draw(st.sampled_from(sorted(reg.lanterns)))
        direction = data.draw(st.sampled_from(["down", "up"]))
        sides = reg.lanterns[inst].rotations("lhs" if direction == "down" else "rhs")
        conj = tuple(data.draw(st.lists(st.sampled_from(CONJUGATOR_LETTERS), max_size=2)))
        block = tuple(letter(l.curve.name, conj=conj) for l in data.draw(st.sampled_from(sides)))
        move = Lantern(pos, inst, direction, out=data.draw(st.integers(0, 3)), conj=conj)
    elif kind == "alias":
        rel = reg.aliases[data.draw(st.sampled_from(sorted(reg.aliases)))]
        direction = data.draw(st.sampled_from(["fwd", "rev"]))
        block = rel.lhs if direction == "fwd" else rel.rhs
        move = Alias(pos, rel.ident, direction)
    else:
        block = data.draw(st.sampled_from(list(reg.central_words.values())))
        move = CentralSlide(pos, len(block), data.draw(st.integers(0, len(w))))
    return reg.canonical_word(w[:pos] + block + w[pos:]), move


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lantern_alias_and_central_moves_invert_at_any_position(data):
    w = reg.canonical_word(data.draw(st.sampled_from(RELATORS), label="relator").word)
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        w, move = splice_move(data, w)
        w = checked_step(w, move, apply_move(reg, w, move))


def lantern_sites(w, inst, direction="down", conj=()):
    """Positions of the canonical form of w where the lantern move applies."""
    w = reg.canonical_word(w)
    sites = []
    for pos in range(len(w)):
        try:
            apply_move(reg, w, Lantern(pos, inst, direction, conj=conj))
        except IllegalMove:
            continue
        sites.append(pos)
    return sites


def test_match_lantern_finds_blocks_in_x0():
    assert lantern_sites(corpus.relators["X0"].word, "L1") == [11, 26]


def test_match_lantern_empty_on_plain_word():
    for direction in ("down", "up"):
        assert lantern_sites(parse_word("c2 c4 c2 c4"), "L1", direction) == []


def test_match_lantern_conjugated_occurrence():
    block = tuple(letter(n, conj=(letter("c2"),)) for n in ("c1", "c1", "c5", "c5"))
    w = parse_word("c3") + block + parse_word("c3")
    assert lantern_sites(w, "L1", conj=(letter("c2"),)) == [1]
    assert lantern_sites(w, "L1") == []


def test_replay_empty_script():
    rel = corpus.relators["M"]
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


def test_every_corpus_replay_state_is_its_own_canonical_form(monkeypatch):
    # replay passes a checkpoint written exactly as the state without
    # canonicalizing it, which is sound only while this holds
    outputs = []
    real = moves.apply_move

    def recorded(*args, **kwargs):
        outputs.append(real(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(moves, "apply_move", recorded)
    written = rewritten = 0
    for script in corpus.scripts.values():
        outputs.clear()
        assert replay(reg, script).ok, script.name
        states = [reg.canonical_word(script.start), *outputs]
        assert all(reg.canonical_word(w) == w for w in states), script.name
        moved = iter(states)
        state = next(moved)
        for entry in script.entries:
            if isinstance(entry, (Checkpoint, Final)):
                written += entry.word == state
                rewritten += entry.word != state
            else:
                state = next(moved)
    # both paths of the checkpoint check run on the corpus
    assert (written, rewritten) == (25, 39)


def test_a_checkpoint_in_another_spelling_of_the_state_passes():
    # x-family and z-family spell [c1^-1 c3](c2) with c1 and c3 swapped
    start = parse_word("[c1^-1 c3](c2) c4")
    spelled = parse_word("[c3 c1^-1](c2) c4")
    assert reg.canonical_word(spelled) == reg.canonical_word(start) == start != spelled
    report = replay(reg, MoveScript("t", start, (Checkpoint(spelled), Final(spelled, "F"))))
    assert report.ok and report.labeled == {"F": start}


@pytest.mark.parametrize("written, detail", [
    ("c1 c3", "expected 'c1 c3', have 'c3 c1'"),
    ("[c3 c1^-1](c2) c3 c1", "expected '[c1^-1 c3](c2) c3 c1', have 'c3 c1'"),
])
def test_a_wrong_checkpoint_fails_with_its_canonical_form_and_the_state(written, detail):
    script = MoveScript("bad", parse_word("c1 c3"), (Commute(0), Checkpoint(parse_word(written))))
    report = replay(reg, script)
    assert not report.ok and report.failure == "step 2: checkpoint mismatch"
    assert report.steps[-1].detail == detail


def test_replay_stops_at_illegal_move():
    script = MoveScript("bad", parse_word("c1 c2 c3"), (Commute(0),))
    report = replay(reg, script)
    assert not report.ok
    assert not report.steps[-1].ok


@pytest.mark.parametrize("a, b", [
    (Commute(3), Expand(3)),
    (CyclicShift(3), Commute(3)),
    (Checkpoint(parse_word("c1 c2")), Final(parse_word("c1 c2"))),
])
def test_entries_of_two_classes_with_equal_fields_differ(a, b):
    # both are tuples of the same fields; == and != must still agree
    assert tuple(a) == tuple(b)
    assert not a == b and not b == a and a != b and b != a
    twin = type(a)(*a)
    assert a == twin and not a != twin


def test_each_record_hashes_as_the_tuple_of_its_fields():
    # the hash of the fields, on which dict and set orders depend
    records = [
        *(e for s in corpus.scripts.values() for e in s.entries),
        *(m(*(0,) * len(m._fields)) for m in MOVES),
        *corpus.scripts.values(), *corpus.relators.values(),
        *replay(reg, corpus.scripts["x-seven"]).steps,
        *reg.curves.values(), *reg.lanterns.values(), *reg.aliases.values(), *reg.validate(),
        *RULES, *CLASSIFICATION.values(), FiberSignature(18, 6), invariants(FiberSignature(18, 6)),
        *(r for c in admissible_splits(FiberSignature(18, 6)).candidates for r in (c, *c)),
    ]
    # every record class but Curve and Letter (tests/test_words.py) and
    # Document, whose dicts do not hash
    assert len({type(r) for r in records}) == 25
    for r in records:
        assert hash(r) == hash(tuple(r)), r


def test_corpus_scripts_all_replay():
    for name, script in corpus.scripts.items():
        report = replay(reg, script)
        assert report.ok, f"{name}: {report.failure}"


# -- replay against the whole-word engine ------------------------------------------
#
# The reference below is how a step was computed before moves cost O(span):
# canonicalize the whole result, compare the images of the middles left after
# stripping the letters the old and new words share at either end, and
# recount (n,s) over the whole word.


def reference_apply(w, move, reg=reg):
    lo, hi, rep, _ = moves._apply(reg, w, move)
    out = reg.canonical_word(w[:lo] + rep + w[hi:])
    assert reg.canonical_word(out) == out  # canonical_word is idempotent
    if isinstance(move, (CyclicShift, GlobalConjugate)):
        return out
    common = min(len(w), len(out))
    head = 0
    while head < common and w[head] == out[head]:
        head += 1
    tail = 0
    while tail < common - head and w[-1 - tail] == out[-1 - tail]:
        tail += 1
    if reg.image(w[head : len(w) - tail]) != reg.image(out[head : len(out) - tail]):
        raise IllegalMove(move, "move broke the homology image")
    return out


def reference_signature(w, reg=reg):
    if any(l.exp != 1 for l in w):
        return None
    n = sum(1 for l in w if not reg.data(l.curve.name).separating)
    return (n, len(w) - n)


def reference_replay(script, reg=reg):
    """(signature of each step, labeled words, final word or None on a failure)."""
    state = reg.canonical_word(script.start)
    labeled = {script.start_label: state} if script.start_label else {}
    signatures = []
    for entry in script.entries:
        if isinstance(entry, (Checkpoint, Final)):
            if state != reg.canonical_word(entry.word):
                return signatures + [reference_signature(state, reg)], labeled, None
            if entry.label:
                labeled[entry.label] = state
        else:
            try:
                state = reference_apply(state, entry, reg)
            except IllegalMove:
                return signatures + [None], labeled, None
        signatures.append(reference_signature(state, reg))
    return signatures, labeled, state


def assert_replay_matches_reference(script, reg=reg):
    report = replay(reg, script)
    signatures, labeled, final = reference_replay(script, reg)
    steps = [s for s in report.steps if s.text != "final (undeclared)"]
    assert [s.signature for s in steps] == signatures, script.name
    assert report.labeled == labeled, script.name
    assert report.ok == (final is not None)
    if report.ok:
        assert report.final_word == final
    return report


@pytest.mark.parametrize("name", sorted(corpus.scripts))
def test_corpus_replay_matches_the_whole_word_engine(name):
    assert_replay_matches_reference(corpus.scripts[name])


def test_each_labeled_corpus_word_is_the_relator_of_that_name():
    # X0..X7 and Z0..Z4, as starts or checkpoints, some in two scripts
    labeled = [
        (label, w)
        for script in corpus.scripts.values()
        for label, w in replay(reg, script).labeled.items()
    ]
    assert len(labeled) == 16
    for label, w in labeled:
        assert w == reg.canonical_word(corpus.relators[label].word), label


def walk_script(data, start):
    """A script of up to 10 walk, C and undo moves from start, cut after the
    first move the whole-word engine finds illegal, and maybe a checkpoint."""
    # Walks through inverse letters as well: expand and C put them in, the
    # inverse of an expand takes them out again.
    state = start
    entries = []
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        kind = data.draw(st.sampled_from(["walk", "conjugate", "undo"]), label="kind")
        if kind == "conjugate":
            move = GlobalConjugate((data.draw(st.sampled_from(CONJUGATOR_LETTERS)),))
        elif kind == "undo" and entries:
            move = inverse_move(reg, previous, entries[-1])
        else:
            move = walk_move(data, state)
        entries.append(move)
        try:
            previous, state = state, reference_apply(state, move)
        except IllegalMove:
            break
    if data.draw(st.booleans(), label="checkpoint"):
        entries.append(Checkpoint(state, "end"))
    return MoveScript("walk", start, tuple(entries))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_replay_matches_the_whole_word_engine(data):
    assert_replay_matches_reference(walk_script(data, fiber_sum(data)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_replay_from_a_non_relator_matches_the_whole_word_engine(data):
    # A fiber sum less one nonseparating letter is no relator, and no move
    # makes it one again: every shift and C fails, at the same step as in
    # the whole-word engine.
    w = fiber_sum(data)
    nonseparating = [p for p, l in enumerate(w) if not reg.data(l.curve.name).separating]
    p = data.draw(st.sampled_from(nonseparating))
    report = assert_replay_matches_reference(walk_script(data, w[:p] + w[p + 1 :]))
    assert not any(s.ok and s.text.startswith(("shift", "C ")) for s in report.steps)


@pytest.mark.parametrize("start", ["X0", "X0 less its first letter"])
def test_replay_takes_one_whole_word_image_for_all_its_shifts(monkeypatch, start):
    # shift and C need image(state) == IDENTITY; replay computes it once and
    # keeps it, as every move in between keeps the image
    w = reg.canonical_word(corpus.relators["X0"].word)
    if start != "X0":
        w = w[1:]
    entries = (Hurwitz(0, "left"), CyclicShift(3), CyclicShift(5), Hurwitz(4, "right"),
               CyclicShift(7), GlobalConjugate(parse_word("c1")))
    whole = []
    image = Registry.image

    def counted(self, u):
        if len(u) >= len(w):
            whole.append(u)
        return image(self, u)

    monkeypatch.setattr(Registry, "image", counted)
    report = replay(reg, MoveScript("shifts", w, entries))
    assert len(whole) == 1
    assert report.ok == (start == "X0")
    monkeypatch.undo()
    assert_replay_matches_reference(MoveScript("shifts", w, entries))


def test_a_shift_after_a_c_takes_no_second_whole_word_image(monkeypatch):
    # a C keeps image(state) the identity, so replay knows the shift after it
    # starts from a relator; neither move has a span check, so every image
    # replay computes is of a whole word
    w = reg.canonical_word(corpus.relators["X0"].word)
    entries = (GlobalConjugate(parse_word("c1 [c2](c3)")), CyclicShift(3))
    calls = []
    image = Registry.image

    def counted(self, u):
        calls.append(u)
        return image(self, u)

    monkeypatch.setattr(Registry, "image", counted)
    report = replay(reg, MoveScript("c then shift", w, entries))
    assert report.ok and calls == [w]
    monkeypatch.undo()
    assert_replay_matches_reference(MoveScript("c then shift", w, entries))


def test_a_shift_step_recounts_no_separating_letter(monkeypatch):
    # a rotation keeps the inverse and separating counts, so a replay of
    # shifts counts as many letters' separating flags as one of no move: the
    # start's.  Every count goes through Registry.count_separating.
    w = reg.canonical_word(corpus.relators["X0"].word)
    shifts = (CyclicShift(3), CyclicShift(5), CyclicShift(len(w) - 1))
    calls = []
    count_separating = Registry.count_separating

    def counted(self, letters):
        calls.extend(letters)
        return count_separating(self, letters)

    monkeypatch.setattr(Registry, "count_separating", counted)
    replay(reg, MoveScript("none", w, ()))
    at_start = len(calls)
    del calls[:]
    report = replay(reg, MoveScript("shifts", w, shifts))
    assert report.ok and len(calls) == at_start == len(w)
    monkeypatch.undo()
    assert_replay_matches_reference(MoveScript("shifts", w, shifts))


def _tally_per_letter(registry, w):
    """(inverse, separating) of w through Registry.data, one letter at a
    time, and the fiber signature of w read from them."""
    inverse = sum(l.exp != 1 for l in w)
    separating = sum(bool(registry.data(l.curve.name).separating) for l in w)
    return (inverse, separating), FiberSignature(len(w) - separating, separating)


def _outcome(f, *args):
    try:
        return f(*args)
    except UnknownCurve as exc:
        return UnknownCurve, exc.name


_tally_names = st.sampled_from(["c1", "c2", "c5", "d", "h", "x", "kb", "B0", "zz", "nope"])
_tally_letters = st.builds(
    letter, _tally_names, st.sampled_from([1, -1]),
    st.lists(st.builds(letter, _tally_names, st.sampled_from([1, -1])), max_size=2).map(tuple),
)
# flags that differ from the atlas's: the counts read each registry's own
_tally_registries = (reg, reg.replace("c1", separating=True), reg.replace("d", separating=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_tally_letters, max_size=40).map(tuple), st.sampled_from(_tally_registries))
def test_tally_and_fiber_signature_agree_with_a_per_letter_reference(w, registry):
    # the first name the registry lacks raises, a conjugator's names count
    # for nothing, and a letter counts by its own curve's flag
    expected = _outcome(_tally_per_letter, registry, w)
    counted = _outcome(lambda: (moves._tally(registry, w), fiber_signature(registry, w)))
    assert counted == expected


# c1 and c3 stay declared disjoint, but their classes now meet: canonical_curve
# drops a c1 conjugating c3 though it changes the class.
c3_meets_c1 = reg.replace("c3", homology=(0, 1, 1, 0))


@pytest.mark.parametrize("start, entries", [
    # a relator as written, but not once [c1](c3) is canonical
    ("[c1](c3) c1 c3^-1 c1^-1", "shift 1"),
    ("c2 c2^-1", "C by=[c1](c3)\nshift 1\nC by=[c1 c2](c3)\nshift 3\nC by=c3\nshift 1"),
    ("c1 c3 c1^-1 c3^-1", "C by=[c1](c3)\nshift 1"),
    ("c2 c5 c2^-1 c5^-1", "shift 1\nC by=[c1](c3)\nshift 2\nC by=c3"),
])
def test_shift_and_c_match_the_whole_word_engine_where_disjointness_is_wrong(start, entries):
    script = parse_document(
        f"script s\nstart: {start}\n{entries}\nend\n", c3_meets_c1
    ).scripts["s"]
    for registry in (reg, c3_meets_c1):
        assert_replay_matches_reference(script, registry)
