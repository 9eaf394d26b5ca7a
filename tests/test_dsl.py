import re
import tracemalloc
from itertools import groupby
from typing import Optional
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from g2mcg import dsl
from g2mcg.dsl import (
    Document,
    ParseError,
    parse_document,
    parse_relator,
    parse_word,
    serialize,
)
from g2mcg.fixtures import FILES, load_corpus, read_text
from g2mcg.invariants import FiberSignature, fiber_signature
from g2mcg.moves import Braid, Commute, GlobalConjugate, Hurwitz, Lantern
from g2mcg.registry import UnknownCurve, standard_registry
from g2mcg.words import Curve, Letter, Word, letter, word_str

reg = standard_registry()


def test_parse_rational_relator():
    r = parse_relator("(c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2", reg)
    assert len(r.word) == 20
    assert fiber_signature(reg, r) == FiberSignature(20, 0)


def test_parse_matsumoto_relator():
    r = parse_relator("(B0 B1 B2 d)^2", reg)
    assert len(r.word) == 8
    assert fiber_signature(reg, r) == FiberSignature(6, 2)


def test_parse_conjugate_letter():
    w = parse_word("[c3^-1](x)", reg)
    assert w == (letter("x", conj=(letter("c3", -1),)),)


def test_separators_dot_and_space():
    assert parse_word("c1 . c2 c3") == parse_word("c1 c2 c3")


def test_unicode_input_ascii_output():
    w = parse_word("δ k̄ h̄ · c1")
    assert word_str(w) == "d kb hb c1"


def test_negative_powers_expand():
    assert parse_word("c1^-2") == (letter("c1", -1), letter("c1", -1))
    assert parse_word("(c1 c2)^-1") == (letter("c2", -1), letter("c1", -1))


def test_empty_word():
    assert parse_word("()") == ()
    assert word_str(()) == "()"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("[c1](")
    with pytest.raises(ParseError):
        parse_word("c1 )")
    with pytest.raises(ParseError):
        parse_relator("c1 c2^-1")
    with pytest.raises(UnknownCurve):
        parse_word("nope", reg)


@pytest.mark.parametrize("text", [
    "c1^3000000", "c1^-3000000", "((c1)^1000)^1000", "[(c1 c2)^50001](c3)", "c2 (c1)^99999 c2",
])
def test_parse_word_stops_before_a_power_expands_too_far(text):
    with pytest.raises(ParseError, match="expands past 100000 letters"):
        parse_word(text, reg)


@pytest.mark.parametrize("text", [
    "[" * 16 + "c1" + "](c2)" * 16, "[c1^50000](c2)", "[c1^49999](c2) c3 c3", "[[c1](c2)](c3)^14286",
], ids=["nested16", "wide", "wide+2", "nested-power"])
def test_parse_word_bounds_the_flattened_word(text):
    # [w](a) flattens to w a w^-1, so nesting doubles the length at each level
    with pytest.raises(ParseError, match="expands past 100000 letters"):
        parse_word(text, reg)


@pytest.mark.parametrize("text, size", [
    ("[" * 15 + "c1" + "](c2)" * 15, 2**16 - 1), ("[c1^49999](c2)", 99_999),
    ("[[c1](c2)](c3)^14285", 99_995),
], ids=["nested15", "wide", "nested-power"])
def test_parse_word_flattens_up_to_the_bound(text, size):
    assert len(reg.flat_word(parse_word(text, reg))) == size


def test_parse_word_expands_up_to_the_bound():
    assert len(parse_word("c2 (c1)^99998 c2", reg)) == 100_000


@pytest.mark.parametrize("text", [
    "c1^100000 " * 50,
    " ".join(f"c1^{100_000 - k}" for k in range(50)),
    "(" + "c1^100000 " * 50 + ")",
    "[" + "c1^100000 " * 50 + "](c2)",
    "c1^100000 . " * 50,
], ids=["repeated", "distinct", "group", "conjugator", "exact"])
def test_a_long_line_stops_at_the_bound_before_its_letters_join(text):
    # every item is within the bound and only their sum is past it: the reader
    # stops one item past it, where joining them all holds 5,000,000 letters
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="expands past 100000 letters"):
            parse_word(text, reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_a_zero_powered_group_keeps_no_copy_of_its_inside():
    # each inside, 100,000 letters, is kept once, as the item c1^k of the memo
    text = " ".join(f"(c1^{100_000 - k})^0" for k in range(10))
    tracemalloc.start()
    try:
        assert parse_word(text, reg) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("text", [
    " ".join(f"[c1^{100_000 - k}](c2)^0" for k in range(1, 21)),
    " ".join(f"(c1^{100_000 - k})^0" for k in range(20)),
    " ".join(f"((c1^{100_000 - k}))^0" for k in range(20)),
], ids=["conjugate", "group", "nested-group"])
def test_nothing_read_only_under_a_zero_power_is_kept(text):
    # a base under ^0 is read once and dropped: the memo keeps none of its
    # items, where keeping each c1^k held about 0.8 MB a token
    tracemalloc.start()
    try:
        assert parse_word(text, reg) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


_PAST = "expands past 100000 letters"


@pytest.mark.parametrize("depth", [50, 100])
def test_open_brackets_share_one_bound(depth):
    # each bracket holds one item within the bound; held apart, the open
    # brackets of the line would hold depth x 99,999 letters before it raises
    text = "c1^99999 " + depth * "(c1^99999 " + depth * ")"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=_PAST):
            parse_word(text, reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("text, outcome", [
    ("(c1^60000) (c1^60000)^0", 60_000),
    ("( c1^60000 ) ( c1^60000 ) ^0", 60_000),
    ("[c1^49999](c2)(c1^60000)[x", _PAST),
    ("(c1^60000)(c1^60000)(]", _PAST),
    ("(c1^60000 c1^50000 ]", _PAST),
    ("[c1^99999](c2)^0", 0),
    ("[c1^99999 c3](c4)^0", _PAST),
    pytest.param("[[c1^49999](c2) c3](c4)^0", _PAST, id="changed-nested"),
    pytest.param("[(c1^99999) c3](c4)^0", _PAST, id="changed-group"),
    pytest.param("((c1^60000) (c1^60000)^0)", _PAST, id="changed-joint"),
])
def test_the_bound_is_checked_after_each_item_before_the_next_token(text, outcome):
    # each item's or bracket's length, with its power, counts before the next
    # token is read, so the bound's error comes before a later syntax error,
    # and a bracket under ^0 counts nothing.  The inside w a of every [w](a)
    # is bounded, also of a bracketed one, and the brackets open at once hold
    # at most 100,000 letters between them (the "changed" cases).
    if outcome == _PAST:
        with pytest.raises(ParseError, match=_PAST):
            parse_word(text, reg)
    else:
        assert len(parse_word(text, reg)) == outcome


@pytest.mark.parametrize("text, word", [
    ("[c1^100000](c2)^0", None),
    ("[c1^99999 c3](c2)^0", None),
    ("[c1^100000](c2)^0 . c3", None),
    ("[c1^100000] . (c2)^0 c3", None),
    ("[c1^99999](c2)^0", ()),
    ("[c1^99999](c2)^0 . c3", (letter("c3"),)),
], ids=["flat", "flat+1", "exact", "exact-gap", "flat-1", "exact-1"])
def test_a_flat_conjugate_bounds_its_inside_under_a_zero_power(text, word):
    # the inside of a flat [w](a), w a, is bounded as a word is, though ^0
    # leaves none of its letters; on both paths
    if word is None:
        with pytest.raises(ParseError, match="expands past 100000 letters"):
            parse_word(text, reg)
    else:
        assert parse_word(text, reg) == word


def test_word_roundtrip_examples():
    for text in [
        "(c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2",
        "[c5^2 c1^-1 c2^-1](k) c3 d x",
        "c1^3 c5^2",
    ]:
        w = parse_word(text, reg)
        assert parse_word(word_str(w), reg) == w


_NAMES = sorted(reg.curves)
_signs = st.sampled_from([1, -1])


def _runs(letters):
    """Words of drawn letters, each repeated up to three times, so that equal
    letters stand in runs."""
    return st.lists(st.tuples(letters, st.integers(1, 3)), max_size=5).map(
        lambda runs: tuple(l for l, k in runs for _ in range(k))
    )


# plain and inverse letters, and conjugates whose conjugators hold runs and
# conjugates, as the recursive strategy of tests/test_homology.py draws them
_letters = st.recursive(
    st.builds(letter, st.sampled_from(_NAMES), _signs),
    lambda inner: st.builds(
        lambda name, conj, exp: letter(name, exp, conj=conj),
        st.sampled_from(_NAMES), _runs(inner), _signs,
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_runs(_letters))
@example(parse_word("c1^-2 c1 [c2^2 c3^-3](c4)^-2 [c2 c2](c4)", reg))
def test_word_str_round_trips(w):
    text = word_str(w)
    assert parse_word(text, reg) == w
    # one item per maximal run: the spaces outside brackets part the runs
    depth = spaces = 0
    for ch in text:
        depth += (ch == "[") - (ch == "]")
        spaces += ch == " " and depth == 0
    assert spaces + 1 == max(1, len(list(groupby(w))))


def test_word_str_prints_runs_as_powers():
    w = parse_word("c1 c1 c2^-1 c2^-1 c2^-1 c1 c1^-1 [c3 c3](c4) [c3 c3](c4)", reg)
    assert word_str(w) == "c1^2 c2^-3 c1 c1^-1 [c3^2](c4)^2"


def test_corpus_files_roundtrip():
    for name in FILES:
        doc = parse_document(read_text(name), reg)
        for script in doc.scripts.values():
            assert parse_document(serialize(script), reg).scripts == {script.name: script}, name
        for label, rel in doc.relators.items():
            assert parse_relator(word_str(rel.word), reg).word == rel.word, label


def test_parse_script_moves():
    text = """
relator R = c1 c3 (c1 c2 c3 c4 c5)^6
script demo
start R
~ commute @0
H @1 left
B @0 rev1
L @2 inst=L1 dir=down out=2
C by=c1^2
checkpoint label=mid: c1 c3
final label=done: c1 c3
end
"""
    doc = parse_document(text, reg)
    script = doc.scripts["demo"]
    moves = [e for e in script.entries if not hasattr(e, "word")]
    assert moves == [
        Commute(0),
        Hurwitz(1, "left"),
        Braid(0, "rev1"),
        Lantern(2, "L1", "down", out=2),
        GlobalConjugate(parse_word("c1^2")),
    ]
    assert script.start_label == "R"


def test_parse_script_keeps_checkpoint_failures_for_replay():
    # a wrong checkpoint is a replay failure, not a parse failure
    text = """
script bad
start: c1 c3
~ commute @0
checkpoint: c1 c3
end
"""
    doc = parse_document(text, reg)
    from g2mcg.moves import replay

    report = replay(reg, doc.scripts["bad"])
    assert not report.ok


def test_script_errors():
    with pytest.raises(ParseError):
        parse_document("script x\nstart: c1\nnonsense\nend")
    with pytest.raises(ParseError):
        parse_document("script x\nstart: c1")
    with pytest.raises(ParseError):
        parse_document("script x\nstart nope\nend")
    with pytest.raises(ParseError):
        parse_document("L @0 inst=L9 dir=down")
    with pytest.raises(ParseError, match="^bad relator definition at line 1$"):
        parse_document("relator r c1")


@pytest.mark.parametrize("body, message", [
    ("c1 zz^ c2", "bad character '^'"),
    ("c1 c2^-1", "relator contains inverse letters"),
])
def test_relator_body_errors_name_their_line(body, message):
    with pytest.raises(ParseError) as err:
        parse_document(f"relator ok = c1\nrelator r = {body}\n", reg)
    assert str(err.value).startswith(f"{message} at line 2")
    assert err.value.line == 2


@pytest.mark.parametrize("text, message", [
    ("relator r = c1 c2\nrelator r = c1 c2 c3\n", "duplicate relator r at line 2"),
    ("script s\nstart: c1\nend\n# again\nscript s\nstart: c2\nend\n",
     "duplicate script s at line 5"),
])
def test_a_repeated_name_is_an_error_not_a_replacement(text, message):
    with pytest.raises(ParseError) as err:
        parse_document(text, reg)
    assert str(err.value) == message


@pytest.mark.parametrize("text, where", [
    ("relator ok = c1\nrelator r = c1 zz^ c2\n", (2, 18)),
    ("script s\nstart: c1\n  checkpoint: c1 zz^\nend\n", (3, 20)),
])
def test_a_bad_character_gives_its_column_in_the_raw_line(text, where):
    with pytest.raises(ParseError) as err:
        parse_document(text, reg)
    assert (err.value.line, err.value.col) == where
    assert str(err.value) == f"bad character '^' at line {where[0]}, col {where[1]}"


def test_document_relators_survive():
    corpus = load_corpus(reg)
    assert corpus.relators["Z0"].label == "Z0"
    assert len(corpus.relators["X7"].word) == 23


# -- the recursive-descent word parser parse_word replaced, kept as a reference --

_REF_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\^-?\d+|[\[\]()])")
_REF_UNICODE = {
    "δ": " d ", "k\u0304": " kb ", "h\u0304": " hb ", "k\u00af": " kb ", "h\u00af": " hb ",
    "\u00b7": " ", "\u22c5": " ", ".": " ",
}


def _ref_ascii(text: str) -> tuple[str, list[int]]:
    """text with each Unicode name and separator padded in ASCII, and the
    index in text of each character of the result."""
    out, where, i = [], [], 0
    while i < len(text):
        key = next((k for k in _REF_UNICODE if text.startswith(k, i)), text[i])
        out.append(_REF_UNICODE.get(key, key))
        where += [i] * len(out[-1])
        i += len(key)
    return "".join(out), where


def _ref_tokenize(text: str, line: int = 0) -> list[tuple[str, int]]:
    """Each token with the index in text of its first character."""
    text_in = text
    text, where = _ref_ascii(text)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if rest:
                bad = len(text) - len(text[pos:].lstrip())
                where_bad = _ref_where(text_in, line, where[bad])
                raise ParseError(f"bad character {rest[0]!r}", *where_bad)
            break
        tokens.append((m.group(1), where[m.start(1)]))
        pos = m.end()
    return tokens


def _ref_where(text: str, line: int, at: int) -> tuple[int, int]:
    """The line and column of text[at], counted in the lines of a text that
    spans lines: the first is ``line`` (line 1 if that is 0)."""
    lines = text[:at].split("\n")
    if len(lines) == 1:
        return line, at + 1
    return max(line, 1) + len(lines) - 1, len(lines[-1]) + 1


class _RefWordParser:
    def __init__(self, tokens: list[tuple[str, int]], line: int = 0) -> None:
        self.tokens = tokens
        self.i = 0
        self.line = line
        self.names: list[tuple[str, int]] = []  # each name in the word, with its index

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take_name(self) -> str:
        if self.i < len(self.tokens):
            self.names.append(self.tokens[self.i])
        return self.take()

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of word", self.line)
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line)

    def parse(self, closers: tuple[str, ...] = ()) -> Word:
        letters: list[Letter] = []
        while True:
            tok = self.peek()
            if tok is None or tok in closers:
                return tuple(letters)
            letters.extend(self._item())

    def _item(self) -> Word:
        tok = self.peek()
        tok = self.take_name() if tok and tok[0].isalpha() else self.take()
        if tok == "[":
            conj = self.parse(closers=("]",))
            self.expect("]")
            self.expect("(")
            name = self.take_name()
            if not name[0].isalpha():
                raise ParseError(f"expected curve name, got {name!r}", self.line)
            self.expect(")")
            base: Word = (Letter(Curve(name, conj)),)
        elif tok == "(":
            base = self.parse(closers=(")",))
            self.expect(")")
        elif tok[0].isalpha():
            base = (Letter(Curve(tok)),)
        else:
            raise ParseError(f"unexpected token {tok!r}", self.line)
        exp = 1
        if self.peek() is not None and self.peek().startswith("^"):
            exp = int(self.take()[1:])
        if exp >= 0:
            out = base * exp
        else:
            out = tuple(l.inverse() for l in reversed(base)) * (-exp)
        return out


def _ref_parse_word(text: str, registry=None, line: int = 0) -> Word:
    parser = _RefWordParser(_ref_tokenize(text, line), line)
    w = parser.parse()
    if parser.peek() is not None:
        raise ParseError(f"trailing token {parser.peek()!r}", line)
    for name, at in parser.names:
        if registry is not None and name not in registry.curves:
            raise UnknownCurve(name, *_ref_where(text, line, at))
    return w


def _outcome(parse, *args):
    try:
        return parse(*args)
    except Exception as exc:  # the type and the message must both agree
        return type(exc), str(exc)


_FRAGMENTS = (
    "c1", "c2", "c3", "c5", "d", "x", "B0", "kb", "nope", "Zq", "a1b",
    "^0", "^1", "^2", "^3", "^-0", "^-1", "^-2", "^", "^-",
    "[", "]", "(", ")", " ", "  ", "\t", "\n", ".", "·", "⋅", "δ", "k̄", "h̄", "k¯",
    "#", "@", "-", "1", "=", "é", "\u00a0", "_",
)
_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet="c12dx^-[]() .#", max_size=24),
)


@settings(max_examples=400)
@given(_texts, st.sampled_from([0, 7]))
@example("[](", 0)
@example("[c1](", 7)
@example("c1 ^0", 0)
@example("[c1] (c2)", 0)
@example("[c1 ^2](c2) ^-1", 0)
@example("[[c1](c2)](c3)^2", 0)
@example("[x]c3c5^2", 0)
@example("d[x]δ)", 0)
@example("kb ^-2[]h̄c5^2", 0)
@example("[c1^2c3](c2)", 0)
@example("[x^-1c2^3](d)^2 [c1 ^2c3] (c2)", 7)
@example("((nope))^0 zz", 0)
@example("[c1 [zz](c2)^0](c3) nope", 7)
@example("(δ nope)^0 k̄ Zq", 0)
@example("[zzc1B0c1]h̄^-2c1]", 0)
@example("\nc1c1", 0)
@example("c1\nc2 nope\n$", 7)
def test_parse_word_agrees_with_the_recursive_descent_parser(text, line):
    for registry in (None, reg):
        expected = _outcome(_ref_parse_word, text, registry, line)
        assert _outcome(parse_word, text, registry, line) == expected, text


_DOC_WORD = "checkpoint: "
# word texts that stay on one line and that no comment cuts short
_line_texts = _texts.map(lambda text: text.replace("\n", " ").replace("#", "@"))


def _ref_document_words(texts, registry):
    """The words of the texts as the checkpoint lines of one script, by the
    reference parser, which reads each after blanks as wide as the line's
    prefix, so that its columns count from the start of the line."""
    words = []
    for lineno, text in enumerate(texts, 3):
        if not text.strip():  # a checkpoint line with no word
            raise ParseError(f"cannot parse script line {_DOC_WORD.strip()!r}", lineno)
        words.append(_ref_parse_word(" " * len(_DOC_WORD) + text, registry, lineno))
    return words


def _document_words(texts, registry):
    text = "script s\nstart: c1\n" + "".join(f"{_DOC_WORD}{t}\n" for t in texts) + "end\n"
    return [entry.word for entry in parse_document(text, registry).scripts["s"].entries]


@settings(max_examples=300)
@given(st.lists(_line_texts, min_size=1, max_size=6), st.sampled_from([None, reg]))
@example(["(c4 c5)^2", "c4 c5", "c5 (c4 c5)^2 c4"], reg)
@example(["[c1 c2^-1](c3)^-1", "c2^-1 c1", "[c1 c2^-1](c3)"], reg)
@example(["c1 ^2", "c1^2 c1"], reg)
@example(["[c1]c2", "c1 c2"], reg)
@example(["c5^2c4", "c5^2 c4"], reg)
@example(["(c1 (c2)^2)^2", "(c2)^2 c1", "c2"], reg)
@example(["c2", "(c2 [c3^2](nope))^2"], reg)
@example(["[c1.c2 . c3 ^2] . ( c4 ) . ^2", "c2 . [c1.c2](c4)"], None)
def test_a_document_reads_its_words_as_the_recursive_descent_parser(texts, registry):
    # the words share one item memo, so an item read inside a bracket or a
    # group is met again at top level: each word, or the first error, agrees
    expected = _outcome(_ref_document_words, texts, registry)
    assert _outcome(_document_words, texts, registry) == expected, texts


@settings(max_examples=300, deadline=None)
@given(_runs(_letters))
def test_canonical_text_never_takes_the_exact_parser(w):
    w = reg.canonical_word(w)
    with patch.object(dsl, "_exact_tokens", side_effect=AssertionError("exact tokens")):
        assert parse_word(word_str(w), reg) == w


def test_the_corpus_never_takes_the_exact_parser():
    for name in FILES:
        doc = parse_document(read_text(name), reg)
        with patch.object(dsl, "_exact_tokens", side_effect=AssertionError("exact tokens")):
            assert parse_document(read_text(name), reg) == doc, name


@pytest.mark.parametrize("text, message", [
    ("c1 )", "unexpected token ')'"),
    ("(c1 ]", "unexpected token ']'"),
    ("[c1](c2", "unexpected end of word"),
    ("[c1] c2", "expected '(', got 'c2'"),
    ("[c1](^2)", "expected curve name, got '^2'"),
    ("[c1]^2(c2)", "expected '(', got '^2'"),
    ("[c1](c2^2)", "expected ')', got '^2'"),
    ("c1 # c2", "bad character '#', col 4"),
])
def test_parse_word_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_word(text)
    assert str(err.value) == message


_SAME_TWICE = "script s\nstart: {w}\nfinal: {w}\nend\n".format(
    w="c1 c2^2 [c3^-1](x) [c1 c2^-1](c3)^-1 c1 [c3^-1](x) (c4 c5)^2")


def test_a_document_reads_each_item_once():
    script = parse_document(_SAME_TWICE, reg).scripts["s"]
    start, final = script.start, script.entries[-1].word
    assert all(a is b for a, b in zip(start, final, strict=True))
    assert start[0] is start[5] and start[1] is start[2] and start[3] is start[6]


def test_two_documents_share_no_conjugate_letter():
    first, second = (parse_document(_SAME_TWICE, reg).scripts["s"].start for _ in range(2))
    assert first == second
    shared = {id(l) for l in first if l.curve.conj} & {id(l) for l in second if l.curve.conj}
    assert not shared


def test_unknown_curve_under_zero_power_is_an_error():
    assert parse_word("[c3](c1)^0 c2", reg) == (letter("c2"),)
    with pytest.raises(UnknownCurve, match="^unknown curve 'nope', col 2$"):
        parse_word("[nope](c1)^0 c2", reg)
    with pytest.raises(UnknownCurve, match="nope"):
        parse_word("c2 [c1](nope)", reg)


@pytest.mark.parametrize("first, again", [
    ("c1 zz", "c1 zz"),  # the first occurrence raises, not a later one
    ("c1 zz", "c1 zz^0"),
    ("c2 [zz](c1)^0", "c2 [zz](c1)"),  # one-pass tokens: a name under ^0 raises too
    ("c2 [zz]( c1 )^0", "[zz](c1)"),  # exact tokens: likewise
    ("[c1 zz^0](c2)", "zz"),
    ("(c1 zz)^0 c2", "c2 (c1 zz)^2"),
    ("(c1 zz^0)^2", "(c1 zz^0)^2 c1.zz"),
])
def test_an_unknown_curve_raises_at_its_first_word(first, again):
    text = f"script s\nstart: {first}\ncheckpoint: {again}\nfinal: {again}\nend\n"
    with pytest.raises(UnknownCurve) as err:
        parse_document(text, reg)
    col = len("start: ") + first.index("zz") + 1
    assert (err.value.name, err.value.line, err.value.col) == ("zz", 2, col)
    parse_document(text.replace("zz", "c3"), reg)  # well-formed once zz is a known name


# Word texts whose items hold names the registry lacks under ^0, inside [w](a)
# and inside groups, on the one-pass tokens and, through a '.', a blank before
# a power, a blank inside (a) or a Unicode name, on the exact tokens.
_REUSE_NAMES = st.sampled_from(["c1", "c2", "c3", "d", "x", "kb", "zz", "nope"] * 4 + ["δ", "k\u0304"])
_REUSE_POWERS = st.sampled_from(["", "", "", "^0", "^0", "^2", "^-1"] * 3 + [" ^0"])
_REUSE_BLANKS = st.sampled_from([" "] * 8 + ["  ", ".", " . "])


def _reuse_word(items):
    return st.builds(lambda items, blank: blank.join(items), st.lists(items, min_size=1, max_size=3),
                     _REUSE_BLANKS)


_reuse_texts = _reuse_word(st.recursive(
    st.builds(str.__add__, _REUSE_NAMES, _REUSE_POWERS),
    lambda inner: st.builds(
        str.format, st.sampled_from(["[{0}]({1}){2}"] * 4 + ["[{0}]( {1} ){2}"] + ["({0}){2}"] * 3),
        _reuse_word(inner), _REUSE_NAMES, _REUSE_POWERS,
    ),
    max_leaves=6,
))


@st.composite
def _reusing_documents(draw):
    """(relator texts, script word texts): each drawn from one small pool, so
    that texts recur, the script's first word its start and last its final."""
    pool = draw(st.lists(_reuse_texts, min_size=1, max_size=4))
    texts = st.sampled_from(pool)
    return draw(st.lists(texts, max_size=2)), draw(st.lists(texts, min_size=1, max_size=5))


def _reuse_document(relators, words):
    lines = [f"relator r{i} = {t}" for i, t in enumerate(relators)] + ["script s"]
    lines += [f"start: {words[0]}"] + [f"checkpoint: {t}" for t in words[1:-1]]
    return "\n".join(lines + [f"final: {t}" for t in words[1:][-1:]] + ["end"])


def _ref_reuse_words(relators, words, registry):
    """The document's words by the reference parser, which reads each line's
    word on its own and checks every name it writes, though parse_document
    checks each name once per document."""
    out = []
    for lineno, line in enumerate(_reuse_document(relators, words).splitlines(), 1):
        prefix, colon, text = line.partition(": " if line[:1] != "r" else " = ")
        if not colon:
            continue
        w = _ref_parse_word(" " * len(prefix + colon) + text, registry, lineno)
        if line[:1] == "r" and any(l.exp != 1 for l in w):
            raise ParseError("relator contains inverse letters", lineno)
        out.append(w)
    return out


def _reuse_words(relators, words, registry):
    doc = parse_document(_reuse_document(relators, words), registry)
    script = doc.scripts["s"]
    return [r.word for r in doc.relators.values()] + [script.start] + [e.word for e in script.entries]


def _located_outcome(parse, *args):
    try:
        return parse(*args)
    except (ParseError, UnknownCurve) as exc:
        return type(exc), str(exc), exc.line, exc.col


@settings(max_examples=400, deadline=None)
@given(_reusing_documents(), st.sampled_from([None, reg]))
@example(([], ["c1 [zz](c2)^0", "c1 [zz](c2)^0"]), reg)
@example((["c2 [zz](c1)^0"], ["c2", "c2 [zz](c1)"]), reg)
@example(([], ["c2 [zz]( c1 )^0", "[zz](c1)"]), reg)
@example(([], ["(c1 nope)^0", "(c1 nope)^2"]), reg)
@example(([], ["[c1 zz ^0](c2)", "[c1 zz^0](c2)", "zz"]), reg)
@example((["c1 zz^0"], ["c1 zz^0", "δ.zz"]), reg)
@example(([], ["c2", "[c1](nope)^2"]), reg)
def test_a_document_that_reuses_its_word_texts_reads_as_the_reference(doc, registry):
    # each name is checked once per document; the words, or the first error
    # with its line and column, are the reference's, which reads and checks
    # every line on its own
    relators, words = doc
    expected = _located_outcome(_ref_reuse_words, relators, words, registry)
    assert _located_outcome(_reuse_words, relators, words, registry) == expected, doc


# -- parse_document on arbitrary text -------------------------------------------

_CORPUS_LINES = sorted({line for name in FILES for line in read_text(name).splitlines()})
_DOC_FRAGMENTS = (
    "relator ", "script ", "start ", "start: ", "start label=s: ", "checkpoint: ",
    "final label=f: ", "end", "r", "s", " = ", "=", ":", "\n", "\r\n", " ", "#",
    "c1", "c2 c3", "d", "x", "zz", "^2", "^-1", "^0", "(", ")", "[", "]", "δ",
    "~ commute @1", "H @0 left", "B @0 rev1", "L @0 inst=L1 dir=down", " out=1",
    " conj=c2", "L @0 inst=L9 dir=up", "shift -2", "C by=c1^2", "expand @3",
    "contract @0..3", "alias @1 rel=B2def", " dir=rev", "central @0 len=10 to=2",
)
_documents = st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from(_DOC_FRAGMENTS + tuple(_CORPUS_LINES)), max_size=30).map("".join),
    st.lists(st.sampled_from(_CORPUS_LINES), max_size=30).map("\n".join),
)


@settings(max_examples=500, deadline=None)
@given(_documents, st.sampled_from([None, reg]))
def test_parse_document_raises_only_its_own_errors(text, registry):
    try:
        doc = parse_document(text, registry)
    except (ParseError, UnknownCurve):
        return
    assert isinstance(doc, Document)
