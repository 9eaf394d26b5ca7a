import pytest
from hypothesis import example, given, settings, strategies as st

from g2mcg import homology as hom
from g2mcg.dsl import ParseError, parse_document, parse_word
from g2mcg.fixtures import read_text
from g2mcg.registry import PROVED, REFUTED, AliasRelation, Registry, UnknownCurve, standard_registry
from g2mcg.words import Curve, Letter, letter

reg = standard_registry()


def curve(name):
    return Curve(name)


def failed(registry):
    """The names of the registry's checks that are not proved."""
    return {c.name for c in registry.validate() if c.status != PROVED}


def test_standard_registry_validates():
    assert failed(reg) == set()


def test_validate_multiplies_no_matrices(monkeypatch):
    calls = []
    real = hom.mat_mul
    monkeypatch.setattr(hom, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    assert failed(Registry.parse(read_text("standard.reg"))) == set()  # cold caches
    assert calls == []


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


def test_corrupting_x_breaks_lantern_check():
    # an inconsistent class on either side of L1 is caught by its image check
    for name in ("x", "c3"):
        assert "lantern:L1" in failed(reg.replace(name, homology=(1, 1, 1, 0))), name


def test_marking_d_nonseparating_fails():
    assert "flag:d" in failed(reg.replace("d", separating=False))


def test_a_missing_lantern_fails_replay_not_the_registry_check():
    # the registry declares no L3 and claims nothing false; a script that
    # asks for L3 fails at that step
    from g2mcg.fixtures import load_corpus
    from g2mcg.moves import replay

    dropped = reg.replace(drop_lantern="L3")
    assert failed(dropped) == set()
    report = replay(dropped, load_corpus(reg).scripts["z-family"])
    assert not report.ok and "unknown lantern instance L3" in report.failure


def test_lantern_instances_are_homology_consistent():
    for inst in reg.lanterns.values():
        lhs, rhs = inst.rotations("lhs")[0], inst.rotations("rhs")[0]
        assert reg.image(lhs) == reg.image(rhs)
        # conjugating both sides by any word keeps them equal
        for conj in [parse_word("c2"), parse_word("c4 c1^-1")]:
            u = conj + lhs + tuple(l.inverse() for l in reversed(conj))
            v = conj + rhs + tuple(l.inverse() for l in reversed(conj))
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


# -- the fixed-point normal form canonical_curve replaced, kept as a reference --


def _ref_flat(w):
    out = []
    for l in w:
        if l.curve.conj:
            u = _ref_flat(l.curve.conj)
            out += u + [Letter(Curve(l.curve.name), l.exp)]
            out += [Letter(m.curve, -m.exp) for m in reversed(u)]
        else:
            out.append(l)
    return out


def _ref_canonical_curve(registry, curve):
    if not curve.conj:
        return curve

    def disjoint(a, b):
        return frozenset((a, b)) in registry.disjoint_pairs

    def trace_reduce(letters):
        while True:
            pair = next(
                ((i, j) for i, a in enumerate(letters) for j in range(i + 1, len(letters))
                 if letters[j].curve == a.curve and letters[j].exp == -a.exp
                 and all(disjoint(a.curve.name, m.curve.name) for m in letters[i + 1 : j])),
                None,
            )
            if pair is None:
                return letters
            del letters[pair[1]], letters[pair[0]]

    def strip_idle(letters):
        while True:
            i = next(
                (i for i in range(len(letters) - 1, -1, -1)
                 if disjoint(letters[i].curve.name, curve.name)
                 and all(disjoint(letters[i].curve.name, m.curve.name) for m in letters[i + 1 :])),
                None,
            )
            if i is None:
                return letters
            del letters[i]

    def lex_normal(remaining):
        out = []
        while remaining:
            free = [
                i for i, l in enumerate(remaining)
                if all(disjoint(l.curve.name, m.curve.name) for m in remaining[:i])
            ]
            i = min(free, key=lambda i: (remaining[i].curve.name, remaining[i].exp))
            out.append(remaining.pop(i))
        return out

    letters = _ref_flat(curve.conj)
    n = None
    while n != len(letters):
        n = len(letters)
        letters = strip_idle(trace_reduce(letters))
    return Curve(curve.name, tuple(lex_normal(letters)))


_NAMES = sorted(reg.curves)
_PLAIN = [letter(n, e) for n in _NAMES for e in (1, -1)]


def _conjugate_letters(inner):
    return st.builds(
        lambda name, conj, exp: letter(name, exp, conj=tuple(conj)),
        st.sampled_from(_NAMES), st.lists(inner, max_size=3), st.sampled_from([1, -1]),
    )


_letters = st.sampled_from(_PLAIN)
for _ in range(2):
    _letters = st.one_of(st.sampled_from(_PLAIN), _conjugate_letters(_letters))


@st.composite
def _nested_conjugates(draw):
    """A conjugate curve whose conjugator hides inserted x x^-1 pairs, swaps of
    disjoint plain neighbours and idle letters at its right end."""
    inner = draw(st.sampled_from(_NAMES))
    conj = draw(st.lists(_letters, max_size=5))
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(rnd.randint(0, 3)):
        x = rnd.choice(conj + _PLAIN)
        i = rnd.randint(0, len(conj))
        conj[i:i] = rnd.choice([[x, x.inverse()], [x.inverse(), x]])
    for _ in range(rnd.randint(0, 4) if len(conj) > 1 else 0):
        i = rnd.randrange(len(conj) - 1)
        a, b = conj[i], conj[i + 1]
        if not a.curve.conj and not b.curve.conj and reg.disjoint(a.curve, b.curve):
            conj[i : i + 2] = [b, a]
    idle = [l for l in _PLAIN if frozenset((l.curve.name, inner)) in reg.disjoint_pairs]
    conj += [rnd.choice(idle) for _ in range(rnd.randint(0, 3) if idle else 0)]
    return Curve(inner, tuple(conj))


@settings(max_examples=600, deadline=None)
@given(_nested_conjugates())
def test_canonical_curve_agrees_with_the_fixed_point_reference(c):
    first = reg.canonical_curve(c)
    assert first == _ref_canonical_curve(reg, c)
    assert reg.canonical_curve(first) == first
    assert Registry.parse(read_text("standard.reg")).canonical_curve(c) == first


def test_canonical_curve_agrees_with_the_reference_on_the_corpus():
    for c in corpus_curves():
        assert reg.canonical_curve(c) == _ref_canonical_curve(reg, c), c


def test_replace_changes_one_curve_or_drops_one_lantern():
    changed = reg.replace("x", homology=(1, 1, 1, 0))
    assert changed.data("x").homology == (1, 1, 1, 0)
    assert all(changed.curves[n] == c for n, c in reg.curves.items() if n != "x")
    assert changed.lanterns == reg.lanterns
    dropped = reg.replace(drop_lantern="L3")
    assert set(dropped.lanterns) == {"L1", "L2"} and dropped.curves == reg.curves
    # the pairs are data of their own: L3's (c3/c5 against k and h) stay
    assert frozenset(("c3", "k")) in dropped.disjoint_pairs
    assert (dropped.disjoint_pairs, dropped.braid_pairs, dropped.aliases, dropped.central_words,
            dropped.relators) == (reg.disjoint_pairs, reg.braid_pairs, reg.aliases,
                                  reg.central_words, reg.relators)
    with pytest.raises(UnknownCurve):
        reg.replace("zz", separating=True)


@pytest.mark.parametrize("text", [
    "c1 nonsep h=(1,0,0)",
    "c1 nonsep h=(1,-,0,0)",
    "c1 nonsep h=(1,0,0,0) def=c2",
    "c1 nonsep h=(1,0,0,0) def=[](c2)",
    "c1 nonsep h=(1,0,0,0) def=[c3](c2)^-1",
    "c1 nonsep h=(1,0,0,0) def=[c3](c2) c4",
    "c1 is a curve",
    # a second line for a curve or a lantern would silently replace the first
    pytest.param(read_text("standard.reg") + "x nonsep h=(1,0,1,0)\n", id="duplicate curve"),
    pytest.param(read_text("standard.reg") + "L1: c1 c1 c3 c3 = kb hb c5\n", id="duplicate lantern"),
    # a pair line names a curve and at least one partner, other than itself
    pytest.param("disjoint c1:\n", id="disjoint without a partner"),
    pytest.param("disjoint c1 c2: c4\n", id="disjoint of two curves"),
    pytest.param("braid c1 c2\n", id="braid without its colon"),
    pytest.param("braid c1: c1\n", id="braid of a curve with itself"),
    # an alias has two sides, a central word and a relator one
    pytest.param("alias chain: d\n", id="alias of one side"),
    pytest.param("central tau: c1 = c2\n", id="central of two sides"),
    pytest.param("relator r: c1 = c2 = c3\n", id="relator of three sides"),
    pytest.param(read_text("standard.reg") + "disjoint c4: c1\n", id="duplicate disjoint pair"),
    pytest.param(read_text("standard.reg") + "braid c2: c1\n", id="duplicate braid pair"),
    pytest.param(read_text("standard.reg") + "alias chain: d = d\n", id="duplicate alias"),
    pytest.param(read_text("standard.reg") + "central tau: d\n", id="duplicate central word"),
    pytest.param(read_text("standard.reg") + "relator tau2: d\n", id="duplicate relator"),
])
def test_parse_rejects_malformed_lines(text):
    # each malformed line is the text's last, and the error names it
    with pytest.raises(ParseError) as err:
        Registry.parse(text)
    assert err.value.line == len(text.splitlines())


_BAD_B2 = "B2 nonsep h=(1,0,1,0) def=[c3^-1 @](x)"
_ALIAS = "alias matconj: (B0 B1 B2 d)^2 = c1^2 (Y1 Y2 Yc)^2"


@pytest.mark.parametrize("slot, text, where", [
    ("relator", "relator r = δ c1 zz^ c2\n", (1, 20)),
    ("start", "script s\n  start: k\u0304 c1 @\nend\n", (2, 16)),
    ("checkpoint", "script s\nstart: c1\ncheckpoint label=m: c1 . c2 ^\nend\n", (3, 29)),
    ("final", "script s\nstart: c1\nfinal: h\u00af c1 @\nend\n", (3, 14)),
    ("move", "script s\nstart: c1\nC by=c1 · @\nend\n", (3, 11)),
    ("def", read_text("standard.reg").replace("B2 nonsep h=(1,0,1,0) def=[c3^-1](x)", _BAD_B2),
     (15, 34)),
    ("alias lhs", read_text("standard.reg").replace(_ALIAS, _ALIAS.replace("B2 d", "B2 &")),
     (35, 26)),
    ("alias rhs", read_text("standard.reg").replace(_ALIAS, "  " + _ALIAS.replace("Yc", "Y¢")),
     (35, 48)),
], ids=["relator", "start", "checkpoint", "final", "move", "def", "alias lhs", "alias rhs"])
def test_a_bad_character_gives_its_raw_column_in_every_word_slot(slot, text, where):
    with pytest.raises(ParseError) as err:
        Registry.parse(text) if slot in ("def", "alias lhs", "alias rhs") else parse_document(text, reg)
    line, col = where
    assert (err.value.line, err.value.col) == where
    bad = text.splitlines()[line - 1][col - 1]
    assert str(err.value) == f"bad character {bad!r} at line {line}, col {col}"


def test_lantern_rotations():
    inst = reg.lanterns["L1"]
    assert inst.rotations("lhs") == [parse_word(t) for t in (
        "c1 c1 c5 c5", "c1 c5 c5 c1", "c5 c5 c1 c1", "c5 c1 c1 c5")]
    assert inst.rotations("rhs") == [parse_word(t) for t in ("x c3 d", "c3 d x", "d x c3")]
    # the Lantern move reads them from the registry, built once
    for side in ("lhs", "rhs"):
        assert reg.lantern_rotations["L1", side] == tuple(inst.rotations(side))
    assert len(reg.lantern_rotations) == 2 * len(reg.lanterns)


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


def test_a_canonical_curve_is_its_own_canonical_form():
    # canonical_curve caches each normal form as mapping to itself: a registry
    # with an empty cache must agree
    for c in corpus_curves():
        first = reg.canonical_curve(c)
        assert Registry.parse(read_text("standard.reg")).canonical_curve(first) == first


def test_canonical_letter_returns_a_canonical_letter_itself():
    plain = letter("c1")
    assert reg.canonical_letter(plain) is plain
    l = reg.canonical_letter(letter("d", conj=(letter("c3"), letter("c4"))))
    assert reg.canonical_letter(l) is l
    word = reg.canonical_word(parse_word("[c3^-1](x) c1 [c1 c2](c3)"))
    assert all(a is b for a, b in zip(reg.canonical_word(word), word))


def test_derived_registries_do_not_share_the_canonical_curve_cache():
    parent = standard_registry()
    parent.canonical_curve(letter("c2", conj=(letter("c3"), letter("c1"))).curve)
    assert parent._canonical_curve_cache
    for child in (
        parent.replace("x", homology=(1, 0, 1, 0)),
        parent.replace("d", separating=True),
        parent.replace(drop_lantern="L3"),
    ):
        assert child._canonical_curve_cache == {}


def test_standard_report_evaluates_each_identity_once():
    names = [c.name for c in reg.validate()]
    assert len(names) == len(set(names)) == 92
    kinds = [n.split(":")[0] for n in names]
    # 17 flags, 13 primitive classes, 11 definitions, 3 lanterns, 20
    # disjoint pairs, 4 braid pairs, 3 aliases, tau against 17 curves and 4 relators
    assert {k: kinds.count(k) for k in kinds} == {
        "flag": 17, "primitive": 13, "defn": 11, "lantern": 3, "disjoint": 20,
        "braid": 4, "alias": 3, "central": 17, "relator": 4}


def _commute(a, b):
    return hom.mat_mul(a, b) == hom.mat_mul(b, a)


@given(
    st.sampled_from(sorted(reg.curves)),
    st.one_of(st.none(), st.tuples(*[st.integers(-2, 2)] * 4)),
)
@example("c3", (0, 1, 1, 0))  # meets c1 and c5, and tau is no longer -I
@example("d", (1, 0, 0, 0))  # d no longer equals (c1 c2)^6
def test_identities_checked_once_still_fail_through_their_twin(name, cls):
    # no cls flips the curve's separating flag; else cls becomes its class
    fields = {"separating": not reg.data(name).separating} if cls is None else {"homology": cls}
    bad = reg.replace(name, **fields)
    refuted = failed(bad)
    t = {i: bad.image((letter(f"c{i}"),)) for i in range(1, 6)}
    tau = bad.image(parse_word("c1 c2 c3 c4 c5^2 c4 c3 c2 c1"))
    for i in range(1, 6):
        for j in range(i + 2, 6):
            if not _commute(t[i], t[j]):
                assert f"disjoint:c{i},c{j}" in refuted
        if not _commute(tau, t[i]):
            assert f"central:tau,c{i}" in refuted
    if bad.image(parse_word("d")) != bad.image(parse_word("(c1 c2)^6")):
        assert "alias:chain" in refuted


# -- the tables are data: the rules that built them before, kept as references --


def _words(names):
    return tuple(letter(n) for n in names.split())


def _ref_std_disjoint(lanterns):
    pairs = set()
    # chain curves with index distance >= 2 are disjoint
    for i in range(1, 6):
        for j in range(i + 2, 6):
            pairs.add(frozenset((f"c{i}", f"c{j}")))
    # d bounds the c1-c2 handle: disjoint from every chain curve but c3
    for n in ("c1", "c2", "c4", "c5"):
        pairs.add(frozenset(("d", n)))
    # within each lantern, boundary curves are disjoint from each other and
    # from the interior curves
    for inst in lanterns:
        for a in inst.lhs:
            pairs.update(frozenset((a, b)) for b in (*inst.lhs, *inst.rhs) if a != b)
    return pairs


_TAU = _words("c1 c2 c3 c4 c5 c5 c4 c3 c2 c1")
_MATSUMOTO = _words("B0 B1 B2 d") * 2
_MATSUMOTO_CONJ = _words("c1 c1") + _words("Y1 Y2 Yc") * 2


def test_the_tables_of_standard_reg_are_those_the_rules_built():
    # a typo in a data line fails here, not only in a replay
    assert reg.disjoint_pairs == _ref_std_disjoint(reg.lanterns.values())
    assert len(reg.disjoint_pairs) == 20
    assert reg.braid_pairs == {frozenset((f"c{i}", f"c{i+1}")) for i in range(1, 5)}
    assert reg.aliases == {
        "chain": AliasRelation("chain", _words("d"), _words("c1 c2") * 6),
        "B2def": AliasRelation("B2def", _words("B2"), (Letter(reg.data("B2").defn),)),
        "matconj": AliasRelation("matconj", _MATSUMOTO, _MATSUMOTO_CONJ),
    }
    assert reg.central_words == {"tau": _TAU}
    assert reg.relators == {
        "tau2": _TAU * 2, "chain5": _words("c1 c2 c3 c4 c5") * 6,
        "matsumoto": _MATSUMOTO, "matsumoto-conj": _MATSUMOTO_CONJ,
    }


# One perturbation per identity kind whose Sp(4,Z) image still agrees: only
# pi1 sees it.  B2 = [c3^-1](x) has x's class, and d is separating.
PI1_ONLY = {
    "lantern": (("L1: c1 c1 c5 c5 = x c3 d", "L1: c1 c1 c5 c5 = B2 c3 d"), "lantern:L1"),
    "disjoint": (("disjoint c4: d", "disjoint c4: d\ndisjoint c3: d"), "disjoint:c3,d"),
    "braid": (("braid c4: c5", "braid c4: c5\nbraid x: B2"), "braid:B2,x"),
    "alias": (("alias B2def: B2 = [c3^-1](x)", "alias B2def: B2 = x"), "alias:B2def"),
    "central": (("central tau:", "central d: d\ncentral tau:"), "central:d,c3"),
    "relator": (("relator tau2:", "relator d: d\nrelator tau2:"), "relator:d"),
}


@pytest.mark.parametrize("kind", sorted(PI1_ONLY))
def test_pi1_refutes_an_identity_whose_image_agrees(kind):
    (old, new), name = PI1_ONLY[kind]
    text = read_text("standard.reg")
    assert old in text
    verdicts = {v.name: v for v in Registry.parse(text.replace(old, new, 1)).validate()}
    assert (verdicts[name].status, verdicts[name].detail) == (REFUTED, "pi1 refutes")
    # nothing fails by its image, and all that the edit leaves alone holds
    assert all(v.detail == "pi1 refutes" for v in verdicts.values() if v.status != PROVED)
    assert all(v.status == PROVED for v in verdicts.values() if not v.name.startswith(f"{kind}:"))
