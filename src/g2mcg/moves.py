"""Validated rewrite moves on twist words, and script replay.

Every move application checks a legality clause before rewriting, then
checks that the homology image is preserved.  A move rewrites a span
w[lo:hi] of a canonical word as rep, and costs O(span), not O(word length):
rep is built from the span alone and is the only part canonicalized, only
the span's Sp(4,Z) images are compared, and replay updates the (n,s)
signature by the span's letters.  Cyclic shifts and global conjugation (C)
rewrite the whole word, O(length), and apply only to relators, a clause
that is their image check too.  Replay decides that clause by a whole-word
image at most once: every other move keeps the image, and a shift or a C
conjugates it.  An illegal move, or one that breaks the image, raises
IllegalMove carrying the failed clause; replay never silently skips a step.
A checkpoint passes when its word's canonical form is the (canonical)
replay state; a word written exactly as the state is not canonicalized.
The moves are the classes in MOVES.
"""

from __future__ import annotations

import functools
import re
from itertools import compress, count
from operator import is_not
from typing import Literal, NamedTuple, NewType, Optional, Union

from . import homology as hom
from .registry import Registry
from .words import Curve, Letter, Word, free_reduce, invert, push, word_str


class IllegalMove(ValueError):
    def __init__(self, move: "Move", reason: str) -> None:
        super().__init__(f"{describe(move)}: {reason}")
        self.move = move
        self.reason = reason


# A non-negative integer: a letter position, a block length or a rotation.
Nat = NewType("Nat", int)
# A checkpoint's name, which may hold ( ) + - as relator and script names do.
Label = NewType("Label", str)


# Each entry class spells its line once, in ``syntax``: literal text with one
# {field} slot per field, read and printed by the field's annotation (Nat and
# int as numbers, Literal as one of its choices, str as a word character run,
# Label as a name, Word as a word).  A space stands for any run of blanks on
# input, and ': ' for a colon with or without blanks around it.  A part in
# brackets is optional: input may leave it out, so the field keeps its
# default, and output leaves it out when its value is an empty word or label.
SLOT = re.compile(r"\[([^\]{]*)\{(\w+)\}\]|\{(\w+)\}")


class Commute(NamedTuple):
    """Swap adjacent letters on curves the registry declares disjoint; the
    span check of apply_move then asks that their homology images commute."""

    syntax = "~ commute @{pos}"
    pos: Nat


class Hurwitz(NamedTuple):
    """(a, b) -> (aba^-1, a) on the left, (b, b^-1 a b) on the right; always legal."""

    syntax = "H @{pos} {side}"
    pos: Nat
    side: Literal["left", "right"]


class Braid(NamedTuple):
    """t_a t_b t_a = t_b t_a t_b for braid-adjacent a, b, two letters at a time:
    fwd takes (a^-1(b), b) to (b, a) and (b, a(b)) to (a, b); rev1, rev2 undo it."""

    syntax = "B @{pos} {form}"
    pos: Nat
    form: Literal["fwd", "rev1", "rev2"]


class Lantern(NamedTuple):
    """Replace a rotation of one side of a lantern instance, each letter
    conjugated by conj, by rotation out of the other side (down: 4 -> 3)."""

    syntax = "L @{pos} inst={inst} dir={direction}[ out={out}][ conj={conj}]"
    pos: Nat
    inst: str
    direction: Literal["down", "up"]
    out: Nat = 0
    conj: Word = ()


class CyclicShift(NamedTuple):
    """Cyclic rotation of a relator."""

    syntax = "shift {k}"
    k: int


class GlobalConjugate(NamedTuple):
    """Global conjugation u^-1 w u of a relator."""

    syntax = "C by={by}"
    by: Word


class Expand(NamedTuple):
    """Rewrite t_{u(a)} as u t_a u^-1."""

    syntax = "expand @{pos}"
    pos: Nat


class Contract(NamedTuple):
    """Inverse of expand over the span lo..hi."""

    syntax = "contract @{lo}..{hi}"
    lo: Nat
    hi: Nat


class Alias(NamedTuple):
    """Swap one side of a registered alias relation for the other (fwd: lhs -> rhs)."""

    syntax = "alias @{pos} rel={rel}[ dir={direction}]"
    pos: Nat
    rel: str
    direction: Literal["fwd", "rev"] = "fwd"


class CentralSlide(NamedTuple):
    """Slide a block equal to a registered central word to another position."""

    syntax = "central @{pos} len={length} to={dest}"
    pos: Nat
    length: Nat
    dest: Nat


MOVES = (
    Commute, Hurwitz, Braid, Lantern, CyclicShift, GlobalConjugate,
    Expand, Contract, Alias, CentralSlide,
)
Move = Union[MOVES]


class Checkpoint(NamedTuple):
    syntax = "checkpoint[ label={label}]: {word}"
    word: Word
    label: Label = ""


class Final(NamedTuple):
    syntax = "final[ label={label}]: {word}"
    word: Word
    label: Label = ""


ENTRIES = (*MOVES, Checkpoint, Final)
Entry = Union[ENTRIES]


def _same_record(a: tuple, b: object) -> bool:
    return type(a) is type(b) and tuple.__eq__(a, b)


def _other_record(a: tuple, b: object) -> bool:
    return not _same_record(a, b)


# Entries are tuples, so equal fields would make Commute(3) == Expand(3):
# equality also asks for the same class.  Set on the classes once made, so
# the hash stays tuple.__hash__, the hash of the fields.
for _entry in ENTRIES:
    _entry.__eq__, _entry.__ne__ = _same_record, _other_record


class MoveScript(NamedTuple):
    name: str
    start: Word
    entries: tuple[Entry, ...]
    start_label: str = ""


def describe(entry: Entry) -> str:
    """The entry's line: its syntax template filled in, words by word_str,
    without an optional part whose value is the empty word or label."""
    text, slots = _template(entry.syntax)
    values = []
    for prefix, optional, name in slots:
        value = getattr(entry, optional or name)
        is_word = type(value) is tuple
        values.append("" if optional and value in ((), "") else
                      (prefix or "") + (word_str(value) if is_word else str(value)))
    return text.format(*values)


@functools.cache
def _template(syntax: str) -> tuple[str, tuple[tuple, ...]]:
    """The literal text of a syntax with {} for each slot, and each slot's SLOT groups."""
    parts = SLOT.split(syntax)  # text, then per slot its three groups and the text after it
    return "{}".join(parts[::4]), tuple(zip(parts[1::4], parts[2::4], parts[3::4]))


def _need(move: Move, cond: bool, reason: str) -> None:
    if not cond:
        raise IllegalMove(move, reason)


def _braid_fwd(reg: Registry, move: Move, p: Letter, q: Letter) -> tuple[Letter, Letter]:
    """Forward braid patterns: (a^-1(b), b) -> (b, a) or (b, a(b)) -> (a, b)."""
    # The first letter conjugates the second by a^-1, or the second the first by a.
    for conj, plain, exp in ((p.curve, q.curve, -1), (q.curve, p.curve, 1)):
        if (
            len(conj.conj) == 1
            and not plain.conj
            and conj.name == plain.name
            and conj.conj[0].exp == exp
            and not conj.conj[0].curve.conj
            and reg.braid_adjacent(conj.conj[0].curve.name, plain.name)
        ):
            a, b = Letter(conj.conj[0].curve), Letter(Curve(plain.name))
            return (b, a) if exp == -1 else (a, b)
    raise IllegalMove(
        move,
        f"pair ({p!r}, {q!r}) matches neither forward braid pattern",
    )


def _pair(move: Move, w: Word, pos: int) -> tuple[Letter, Letter]:
    _need(move, 0 <= pos < len(w) - 1, f"position {pos} has no adjacent pair")
    return w[pos], w[pos + 1]


def _conjugated_side(reg: Registry, side: Word, conj: Word) -> Word:
    """side pushed through conj, canonical; a side of plain letters is
    canonical as it stands."""
    return reg.canonical_word(tuple([push(l, conj) for l in side])) if conj else side


def _match_rotation(
    reg: Registry, w: Word, pos: int, sides: list[Word], conj: Word
) -> Optional[int]:
    """Index of the first rotation (over all listed sides) matching at pos.
    w is canonical, so its slice is compared as it stands."""
    for r, side in enumerate(sides):
        target = _conjugated_side(reg, side, conj)
        if w[pos : pos + len(target)] == target:
            return r
    return None


# Lantern direction -> (side matched in the word, side put in its place, the
# direction that undoes it).
_LANTERN_SIDES = {"down": ("lhs", "rhs", "up"), "up": ("rhs", "lhs", "down")}


def apply_move(reg: Registry, w: Word, move: Move, relator: Optional[bool] = None) -> Word:
    """Apply one legal move to w, which must be canonical (replay states
    are), and return the canonical result; raises IllegalMove with the
    failed clause.

    Only the rewritten span costs: rep is canonicalized and checked by
    image(w[lo:hi]) == image(rep), which is exact, Sp(4,Z) matrices being
    invertible.  Shift and C rewrite the whole word, O(length), with no
    span check: their clause is that w is a relator, image(w) == IDENTITY,
    which ``relator`` answers when the caller knows it and a whole-word
    image decides otherwise.  Their results are canonical as they stand: a
    shift's letters are w's, and a C's are w's and those of its conjugator,
    which it reads in normal form.
    """
    lo, hi, rep, _ = _apply(reg, w, move, relator)
    if isinstance(move, (CyclicShift, GlobalConjugate)):
        return rep
    rep = reg.canonical_word(rep)
    _need(move, reg.image(w[lo:hi]) == reg.image(rep), "move broke the homology image")
    return w[:lo] + rep + w[hi:]


def inverse_move(reg: Registry, w: Word, move: Move) -> Move:
    """The move undoing ``move`` on apply_move(reg, w, move), as the move's
    own rewrite decides it; raises IllegalMove when ``move`` does not apply."""
    return _apply(reg, w, move)[3]


def _apply(reg: Registry, w: Word, move: Move,
           relator: Optional[bool] = None) -> tuple[int, int, Word, Move]:
    """(lo, hi, rep, undo): the move rewrites w[lo:hi] as rep, not yet
    canonical, and the move ``undo`` takes the result back to w.
    ``relator`` is whether image(w) is the identity, None if not known."""
    if isinstance(move, Commute):
        a, b = _pair(move, w, move.pos)
        _need(move, reg.disjoint(a.curve, b.curve),
              f"curves {a.curve!r} and {b.curve!r} are not declared disjoint")
        return move.pos, move.pos + 2, (b, a), move

    if isinstance(move, Hurwitz):
        a, b = _pair(move, w, move.pos)
        _need(move, move.side in ("left", "right"), f"unknown side {move.side!r}")
        if move.side == "left":
            return move.pos, move.pos + 2, (push(b, (a,)), a), Hurwitz(move.pos, "right")
        return move.pos, move.pos + 2, (b, push(a, (b.inverse(),))), Hurwitz(move.pos, "left")

    if isinstance(move, Braid):
        p, q = _pair(move, w, move.pos)
        p, q = reg.canonical_letter(p), reg.canonical_letter(q)
        _need(move, p.exp == 1 and q.exp == 1, "braid patterns take positive letters")
        if move.form == "fwd":
            # rev1 undoes (a^-1(b), b) -> (b, a), rev2 undoes (b, a(b)) -> (a, b)
            undo = Braid(move.pos, "rev1" if p.curve.conj else "rev2")
            return move.pos, move.pos + 2, _braid_fwd(reg, move, p, q), undo
        _need(move, move.form in ("rev1", "rev2"), f"unknown braid form {move.form!r}")
        _need(move, not p.curve.conj and not q.curve.conj,
              f"{move.form} takes two plain letters")
        _need(move, reg.braid_adjacent(p.curve.name, q.curve.name),
              f"{p.curve.name},{q.curve.name} are not braid-adjacent")
        if move.form == "rev1":  # (b, a) -> (a^-1(b), b)
            rep = (Letter(Curve(p.curve.name, (Letter(q.curve, -1),))), Letter(p.curve))
        else:  # (a, b) -> (b, a(b))
            rep = (Letter(q.curve), Letter(Curve(q.curve.name, (Letter(p.curve, 1),))))
        return move.pos, move.pos + 2, rep, Braid(move.pos, "fwd")

    if isinstance(move, Lantern):
        _need(move, move.inst in reg.lanterns, f"unknown lantern instance {move.inst}")
        _need(move, move.direction in _LANTERN_SIDES, f"unknown direction {move.direction!r}")
        src_side, dst_side, back = _LANTERN_SIDES[move.direction]
        src = reg.lantern_rotations[move.inst, src_side]
        dst = reg.lantern_rotations[move.inst, dst_side]
        r = _match_rotation(reg, w, move.pos, src, move.conj)
        _need(move, r is not None, f"word at {move.pos} matches no rotation of {move.inst} {src_side}")
        rep = _conjugated_side(reg, dst[move.out % len(dst)], move.conj)
        # the undo puts back the rotation r that matched
        undo = Lantern(move.pos, move.inst, back, r, move.conj)
        return move.pos, move.pos + len(src[0]), rep, undo

    if isinstance(move, (CyclicShift, GlobalConjugate)):
        if relator is None:
            relator = reg.image(w) == hom.IDENTITY
        if isinstance(move, CyclicShift):
            _need(move, relator, "cyclic shift requires a relator")
            k = move.k % max(len(w), 1)
            return 0, len(w), w[k:] + w[:k], CyclicShift(-move.k % max(len(w), 1))
        _need(move, relator, "global conjugation requires a relator")
        # free_reduce compares letters as written: by in normal form, as w is
        by = reg.canonical_word(move.by)
        return 0, len(w), free_reduce(invert(by) + w + by), GlobalConjugate(invert(by))

    if isinstance(move, Expand):
        _need(move, 0 <= move.pos < len(w), f"no letter at {move.pos}")
        l = w[move.pos]
        _need(move, l.curve.conj, f"{l!r} is not in conjugate form")
        u = l.curve.conj
        rep = u + (Letter(Curve(l.curve.name), l.exp),) + invert(u)
        return move.pos, move.pos + 1, rep, Contract(move.pos, move.pos + len(rep))

    if isinstance(move, Contract):
        lo, hi = move.lo, move.hi
        span = w[lo:hi]
        _need(move, 0 <= lo < hi <= len(w) and len(span) % 2 == 1,
              f"span [{lo}:{hi}] cannot read u.t.u^-1")
        m = len(span) // 2
        _need(move, span[m + 1 :] == invert(span[:m]),
              f"span [{lo}:{hi}] tail is not the inverse of its head")
        return lo, hi, (push(span[m], span[:m]),), Expand(lo)

    if isinstance(move, Alias):
        _need(move, move.rel in reg.aliases, f"unknown alias relation {move.rel}")
        _need(move, move.direction in ("fwd", "rev"), f"unknown direction {move.direction!r}")
        rel = reg.aliases[move.rel]
        src, dst = (rel.lhs, rel.rhs) if move.direction == "fwd" else (rel.rhs, rel.lhs)
        span = w[move.pos : move.pos + len(src)]
        _need(move, len(span) == len(src) and reg.words_equal(span, src),
              f"word at {move.pos} does not match the {move.direction} side of {move.rel}")
        undo = Alias(move.pos, move.rel, "rev" if move.direction == "fwd" else "fwd")
        return move.pos, move.pos + len(src), dst, undo

    if isinstance(move, CentralSlide):
        block = w[move.pos : move.pos + move.length]
        _need(move, len(block) == move.length, "block out of range")
        _need(move, any(reg.words_equal(block, cw) for cw in reg.central_words.values()),
              "block is not a registered central word")
        end = move.pos + move.length
        _need(move, 0 <= move.dest <= len(w) - move.length, f"destination {move.dest} out of range")
        undo = CentralSlide(move.dest, move.length, move.pos)
        if move.dest <= move.pos:  # the block moves left over w[dest:pos]
            return move.dest, end, block + w[move.dest : move.pos], undo
        return move.pos, move.dest + move.length, w[end : move.dest + move.length] + block, undo

    raise TypeError(f"unknown move {move!r}")


# -- replay ---------------------------------------------------------------------


class StepResult(NamedTuple):
    index: int
    text: str
    ok: bool
    detail: str = ""
    signature: Optional[tuple[int, int]] = None


class ReplayReport:
    def __init__(self, script: str) -> None:
        self.script = script
        self.steps: list[StepResult] = []
        self.labeled: dict[str, Word] = {}
        self.final_word: Word = ()
        self.ok = True
        self.failure = ""

    def render(self) -> str:
        lines = [f"script {self.script}: {'ok' if self.ok else 'FAILED'}"]
        for s in self.steps:
            mark = "ok  " if s.ok else "FAIL"
            sig = f" (n,s)=({s.signature[0]},{s.signature[1]})" if s.signature else ""
            detail = f"  {s.detail}" if s.detail and not s.ok else ""
            lines.append(f"  [{mark}] {s.index:3d} {s.text}{sig}{detail}")
        if not self.ok:
            lines.append(f"  first failure: {self.failure}")
        return "\n".join(lines)

    def records(self) -> str:
        lines = [f"script={self.script} ok={self.ok}"]
        for s in self.steps:
            sig = f" n={s.signature[0]} s={s.signature[1]}" if s.signature else ""
            lines.append(f"step={s.index} ok={s.ok} move={s.text!r}{sig}")
        return "\n".join(lines)


def _tally(reg: Registry, w: Word) -> tuple[int, int]:
    """(inverse letters, separating letters) of w, with no method call a
    letter; a loop, as most calls count a move's span of a few letters.  A
    word with no inverse letter has the signature (n,s) = (len(w) -
    separating, separating)."""
    inverse = 0
    for l in w:
        inverse += l.exp != 1
    return inverse, reg.count_separating(w)


def _rewritten_span(old: Word, new: Word) -> tuple[int, int, int]:
    """(lo, hi, new_hi) with new == old[:lo] + new[lo:new_hi] + old[hi:].

    apply_move splices its span between the very letter objects of the old
    word, so an identity scan finds the span, faster than letter equality,
    which runs in C too but descends into each letter's curve."""
    common = min(len(old), len(new))
    lo = next(compress(count(), map(is_not, old, new)), common)
    tail = next(compress(count(), map(is_not, reversed(old), reversed(new))), common)
    tail = min(tail, common - lo)
    return lo, len(old) - tail, len(new) - tail


def replay(reg: Registry, script: MoveScript) -> ReplayReport:
    """Apply the script's moves in order, checking legality, homology-image
    preservation, and every declared checkpoint; stops at the first failure.
    A checkpoint word equal to the state, which is canonical, passes as
    written; any other is canonicalized and compared with the state."""
    report = ReplayReport(script.name)
    state = reg.canonical_word(script.start)
    # Kept up to date by each move's rewritten span, not recounted.
    inverse, separating = _tally(reg, state)

    def signature() -> Optional[tuple[int, int]]:
        return None if inverse else (len(state) - separating, separating)

    # Whether image(state) is the identity: None while unknown, so that the
    # next shift or C decides it by a whole-word image, and True once one has
    # passed that clause.  It stays true, as every other move keeps the image
    # (its span check), and a shift or a C conjugates it: free_reduce(by^-1 w
    # by) has the image of by^-1 w by, the identity when w's is.
    relator: Optional[bool] = None

    if script.start_label:
        report.labeled[script.start_label] = state
    index = 0
    saw_final = False
    for entry in script.entries:
        index += 1
        if isinstance(entry, (Checkpoint, Final)):
            expected = entry.word if entry.word == state else reg.canonical_word(entry.word)
            ok = state == expected
            kind = entry.syntax.partition("[")[0]
            label = f" label={entry.label}" if entry.label else ""
            step = StepResult(
                index,
                f"{kind}{label}",
                ok,
                "" if ok else f"expected {word_str(expected)!r}, have {word_str(state)!r}",
                signature(),
            )
            report.steps.append(step)
            if not ok:
                report.ok = False
                report.failure = f"step {index}: {kind} mismatch"
                return report
            if entry.label:
                report.labeled[entry.label] = state
            if isinstance(entry, Final):
                saw_final = True
            continue
        try:
            new = apply_move(reg, state, entry, relator=relator)
            if isinstance(entry, (CyclicShift, GlobalConjugate)):
                relator = True
            if not isinstance(entry, CyclicShift):  # a rotation keeps both counts
                lo, hi, new_hi = _rewritten_span(state, new)
                (inv0, sep0), (inv1, sep1) = _tally(reg, state[lo:hi]), _tally(reg, new[lo:new_hi])
                inverse += inv1 - inv0
                separating += sep1 - sep0
            state = new
            report.steps.append(StepResult(index, describe(entry), True, "", signature()))
        except IllegalMove as exc:
            report.steps.append(StepResult(index, describe(entry), False, exc.reason))
            report.ok = False
            report.failure = f"step {index}: {exc}"
            return report
    report.final_word = state
    if script.entries and not saw_final:
        # A script without a declared final word is replayable but incomplete.
        report.steps.append(StepResult(index + 1, "final (undeclared)", True))
    return report
