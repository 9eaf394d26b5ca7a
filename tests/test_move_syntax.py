"""Every entry line parses to its entry and prints back as the same line."""

import re

import pytest

from g2mcg.dsl import ParseError, parse_document, parse_word, serialize
from g2mcg.fixtures import FILES, read_text
from g2mcg.moves import (
    Alias,
    Braid,
    CentralSlide,
    Checkpoint,
    Commute,
    Contract,
    CyclicShift,
    ENTRIES,
    Expand,
    Final,
    GlobalConjugate,
    Hurwitz,
    Lantern,
    MOVES,
    MoveScript,
    describe,
)
from g2mcg.registry import standard_registry

reg = standard_registry()


def W(text):
    return parse_word(text, reg)


# (line, parsed entry, printed line when it differs from the input): each
# optional part appears once present and once absent.  Output always spells
# out= and dir=, and leaves out an empty conj= and an empty label=.
CASES = [
    ("~ commute @0", Commute(0), None),
    ("H @3 left", Hurwitz(3, "left"), None),
    ("H @1 right", Hurwitz(1, "right"), None),
    ("B @2 fwd", Braid(2, "fwd"), None),
    ("B @0 rev1", Braid(0, "rev1"), None),
    ("B @4 rev2", Braid(4, "rev2"), None),
    ("L @3 inst=L1 dir=down out=1", Lantern(3, "L1", "down", out=1), None),
    ("L @3 inst=L2 dir=up out=2 conj=c1 [c3^-1](c2)",
     Lantern(3, "L2", "up", 2, W("c1 [c3^-1](c2)")), None),
    ("L @0 inst=L3 dir=down", Lantern(0, "L3", "down"), "L @0 inst=L3 dir=down out=0"),
    ("L @7 inst=L1 dir=up conj=c5^2", Lantern(7, "L1", "up", conj=W("c5 c5")),
     "L @7 inst=L1 dir=up out=0 conj=c5^2"),
    ("shift 4", CyclicShift(4), None),
    ("shift -2", CyclicShift(-2), None),
    ("C by=c1^2 [c2](c3)", GlobalConjugate(W("c1 c1 [c2](c3)")), None),
    ("C by=c4^-1", GlobalConjugate(W("c4^-1")), None),
    ("expand @5", Expand(5), None),
    ("contract @2..5", Contract(2, 5), None),
    ("alias @2 rel=B2def dir=rev", Alias(2, "B2def", "rev"), None),
    ("alias @6 rel=chain", Alias(6, "chain"), "alias @6 rel=chain dir=fwd"),
    ("central @8 len=10 to=2", CentralSlide(8, 10, 2), None),
    ("checkpoint: c1 c2", Checkpoint(W("c1 c2")), None),
    ("checkpoint label=X3: c1^2 [c2](c3)", Checkpoint(W("c1 c1 [c2](c3)"), "X3"), None),
    ("final: c2", Final(W("c2")), None),
    ("final label=(Z4+b)-1: c1 c2", Final(W("c1 c2"), "(Z4+b)-1"), None),
    ("checkpoint :c1 c2", Checkpoint(W("c1 c2")), "checkpoint: c1 c2"),
]

REJECTED = [
    "expand @-1",
    "~ commute @-1",
    "H @0 sideways",
    "B @0 back",
    "L @0 inst=L1 dir=sideways",
    "L @0 inst=L1 dir=down out=-1",
    "contract @3",
    "central @0 len=-1 to=0",
    "alias @0 rel=chain dir=up",
    "C by=",
    "shift",
    "B @0 fwd junk",
    "central @0 len=10 to=2 3",
    "expand @1 @2",
]


def _script(line):
    return f"script t\nstart: c1 c2\n{line}\nend\n"


@pytest.mark.parametrize("line, move, printed", CASES)
def test_move_line_round_trip(line, move, printed):
    script = parse_document(_script(line), reg).scripts["t"]
    assert script.entries == (move,)
    assert serialize(script).splitlines()[2] == (printed or line)
    assert describe(move) == (printed or line)


@pytest.mark.parametrize("line", REJECTED + [
    "checkpointx: c1", "H@3 left", "startfoo", "start X2", "final", "~commute @0", "end x",
])
def test_bad_move_line(line):
    # each line is the third of its script
    message = ("script t has a second start" if line == "start X2"
               else f"cannot parse script line {line!r}")
    with pytest.raises(ParseError) as err:
        parse_document(_script(line), reg)
    assert (str(err.value), err.value.line) == (f"{message} at line 3", 3)


def test_each_move_has_its_own_leading_token():
    # a script line is matched against the one entry, a move, checkpoint or
    # final, its leading token names; a blank, an optional part or a colon
    # ends the token
    heads = [re.split(r"[ \[:]", cls.syntax, 1)[0] for cls in ENTRIES]
    assert len(set(heads)) == len(heads) == 12
    assert heads[10:] == ["checkpoint", "final"]
    assert not {"start", "end", "relator", "script"} & set(heads)


@pytest.mark.parametrize("text, message", [
    ("script t\nstartfoo\nend\n", "cannot parse script line 'startfoo' at line 2"),
    ("script t\nstart X2\nend\n", "start references unknown relator 'X2' at line 2"),
    ("relator R = c1\nscript t\nstart R\nstart R\nend\n",
     "script t has a second start at line 4"),
    # a second start is refused in either form, also after a move
    ("script t\nstart: c1 c3\n~ commute @0\nstart label=Y: c5 c5\nend\n",
     "script t has a second start at line 4"),
    ("relator R = c1\nscript t\nstart: c1 c3\n~ commute @0\nstart R\nend\n",
     "script t has a second start at line 5"),
    ("script t\nstart label=A\nend\n", "cannot parse script line 'start label=A' at line 2"),
    ("script t\n~ commute @0\nend\n", "script t has no start at line 3"),
    ("script t\nstart: c1\nfinal label=a b: c1\nend\n",
     "cannot parse script line 'final label=a b: c1' at line 3"),
])
def test_bad_start_or_checkpoint_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_document(text, reg)
    assert str(err.value) == message


def test_start_and_checkpoint_lines_take_a_colon_with_or_without_blanks():
    script = parse_document(
        "relator R = c1\nscript t\nstart label=S:c1 c2\ncheckpoint :c1 c2\n"
        "final label=F\t:  c1 c2\nend\nscript u\nstart R\nfinal: c1\nend\n", reg).scripts
    entries = (Checkpoint(W("c1 c2")), Final(W("c1 c2"), "F"))
    assert script["t"] == MoveScript("t", W("c1 c2"), entries, "S")
    assert script["u"] == MoveScript("u", W("c1"), (Final(W("c1")),), "R")


def test_every_corpus_move_line_prints_back_as_written():
    # a script's lines but its header, start, checkpoints, final and end
    written, printed = [], []
    for name in FILES:
        text = read_text(name)
        written += [
            (f"{name}:{n}", " ".join(line.split())) for n, raw in enumerate(text.splitlines(), 1)
            if (line := raw.split("#", 1)[0].strip())
            and line.split()[0].rstrip(":") not in (
                "relator", "script", "start", "checkpoint", "final", "end")
        ]
        printed += [describe(e) for script in parse_document(text, reg).scripts.values()
                    for e in script.entries if isinstance(e, MOVES)]
    assert len(written) == len(printed) == 206
    assert [(where, line, again) for (where, line), again in zip(written, printed)
            if line != again] == []
