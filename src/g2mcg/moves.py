"""Validated rewrite moves on twist words, and script replay.

Every move application checks a legality clause before rewriting, then
checks that the homology image is preserved (conjugated, for global
conjugation and cyclic shifts, which move the basepoint of the relator).
That check compares the Sp(4,Z) images of the rewritten span only: the
letters the old and new words share at either end cancel, so a step costs
O(span), not O(word length).  An illegal move, or one that breaks the
image, raises IllegalMove carrying the failed clause; replay never
silently skips a step.  The moves are the classes in MOVES.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Literal, NewType, Optional, Union

from . import homology as hom
from .registry import Registry
from .words import (
    Curve,
    Letter,
    Word,
    concat,
    contract_subword,
    cyclic_shift,
    expand_letter,
    free_reduce,
    invert,
    make_curve,
    word_str,
)


class IllegalMove(ValueError):
    def __init__(self, move: "Move", reason: str) -> None:
        super().__init__(f"{describe(move)}: {reason}")
        self.move = move
        self.reason = reason


# A non-negative integer: a letter position, a block length or a rotation.
Nat = NewType("Nat", int)


# Each move class spells its line once, in ``syntax``: literal text with one
# {field} slot per field, read and printed by the field's annotation (Nat and
# int as numbers, Literal as one of its choices, str as a name, Word as a
# word).  A space stands for any run of blanks on input.  A part in brackets
# is optional: input may leave it out, so the field keeps its default, and
# output leaves it out when its word is empty.
SLOT = re.compile(r"\[([^\]{]*)\{(\w+)\}\]|\{(\w+)\}")


@dataclass(frozen=True)
class Commute:
    """Swap adjacent letters on curves the registry declares disjoint
    (commuting homology images are re-checked but never enough)."""

    syntax = "~ commute @{pos}"
    pos: Nat


@dataclass(frozen=True)
class Hurwitz:
    """(a, b) -> (aba^-1, a) on the left, (b, b^-1 a b) on the right; always legal."""

    syntax = "H @{pos} {side}"
    pos: Nat
    side: Literal["left", "right"]


@dataclass(frozen=True)
class Braid:
    """t_a t_b t_a = t_b t_a t_b for braid-adjacent a, b, two letters at a time:
    fwd takes (a^-1(b), b) to (b, a) and (b, a(b)) to (a, b); rev1, rev2 undo it."""

    syntax = "B @{pos} {form}"
    pos: Nat
    form: Literal["fwd", "rev1", "rev2"]


@dataclass(frozen=True)
class Lantern:
    """Replace a rotation of one side of a lantern instance, each letter
    conjugated by conj, by rotation out of the other side (down: 4 -> 3)."""

    syntax = "L @{pos} inst={inst} dir={direction}[ out={out}][ conj={conj}]"
    pos: Nat
    inst: str
    direction: Literal["down", "up"]
    out: Nat = 0
    conj: Word = ()


@dataclass(frozen=True)
class CyclicShift:
    """Cyclic rotation of a relator."""

    syntax = "shift {k}"
    k: int


@dataclass(frozen=True)
class GlobalConjugate:
    """Global conjugation u^-1 w u of a relator."""

    syntax = "C by={by}"
    by: Word


@dataclass(frozen=True)
class Expand:
    """Rewrite t_{u(a)} as u t_a u^-1."""

    syntax = "expand @{pos}"
    pos: Nat


@dataclass(frozen=True)
class Contract:
    """Inverse of expand over the span lo..hi."""

    syntax = "contract @{lo}..{hi}"
    lo: Nat
    hi: Nat


@dataclass(frozen=True)
class Alias:
    """Swap one side of a registered alias relation for the other (fwd: lhs -> rhs)."""

    syntax = "alias @{pos} rel={rel}[ dir={direction}]"
    pos: Nat
    rel: str
    direction: Literal["fwd", "rev"] = "fwd"


@dataclass(frozen=True)
class CentralSlide:
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


@dataclass(frozen=True)
class Checkpoint:
    word: Word
    label: str = ""


@dataclass(frozen=True)
class Final:
    word: Word
    label: str = ""


Entry = Union[Move, Checkpoint, Final]


@dataclass(frozen=True)
class MoveScript:
    name: str
    start: Word
    entries: tuple[Entry, ...]
    start_label: str = ""


def describe(move: Move, word_fmt: Callable[[Word], str] = word_str) -> str:
    """The move's line: its syntax template filled in, words by ``word_fmt``."""

    def fill(m: re.Match) -> str:
        prefix, optional, name = m.groups()
        value = getattr(move, optional or name)
        if optional and value == ():
            return ""
        return (prefix or "") + (word_fmt(value) if isinstance(value, tuple) else str(value))

    return SLOT.sub(fill, move.syntax)


def _need(move: Move, cond: bool, reason: str) -> None:
    if not cond:
        raise IllegalMove(move, reason)


def _braid_fwd(reg: Registry, move: Move, p: Letter, q: Letter) -> tuple[Letter, Letter]:
    """Forward braid patterns: (a^-1(b), b) -> (b, a) or (b, a(b)) -> (a, b)."""
    # The first letter conjugates the second by a^-1, or the second the first by a.
    for conj, plain, exp in ((p.curve, q.curve, -1), (q.curve, p.curve, 1)):
        if (
            len(conj.conj) == 1
            and not plain.is_conjugate
            and conj.name == plain.name
            and conj.conj[0].exp == exp
            and not conj.conj[0].curve.is_conjugate
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
    if not conj:
        return reg.canonical_word(side)
    wrapped = tuple(
        Letter(make_curve(l.curve.name, concat(conj, l.curve.conj)), l.exp)
        for l in side
    )
    return reg.canonical_word(wrapped)


def _match_rotation(
    reg: Registry, w: Word, pos: int, sides: list[Word], conj: Word
) -> Optional[int]:
    """Index of the first rotation (over all listed sides) matching at pos."""
    for r, side in enumerate(sides):
        target = _conjugated_side(reg, side, conj)
        if len(w) >= pos + len(target) and reg.canonical_word(
            w[pos : pos + len(target)]
        ) == target:
            return r
    return None


# Lantern direction -> (side matched in the word, side put in its place).
_LANTERN_SIDES = {"down": ("lhs", "rhs"), "up": ("rhs", "lhs")}


def apply_move(reg: Registry, w: Word, move: Move) -> Word:
    """Apply one legal move; raises IllegalMove with the failed clause."""
    out = reg.canonical_word(_apply(reg, w, move))
    # Check only the rewritten span: with w = P A S and out = P B S,
    # image(w) == image(out) iff image(A) == image(B), as Sp(4,Z) matrices
    # are invertible.  Shift and C preserve the image only up to
    # conjugation, but they apply only to relators, whose image is the
    # identity, so equality holds too.
    common = min(len(w), len(out))
    lo = 0
    while lo < common and w[lo] == out[lo]:
        lo += 1
    hi = 0
    while hi < common - lo and w[-1 - hi] == out[-1 - hi]:
        hi += 1
    _need(
        move,
        reg.image(w[lo : len(w) - hi]) == reg.image(out[lo : len(out) - hi]),
        "move broke the homology image",
    )
    return out


def _apply(reg: Registry, w: Word, move: Move) -> Word:
    if isinstance(move, Commute):
        a, b = _pair(move, w, move.pos)
        _need(
            move,
            reg.disjoint(a.curve, b.curve),
            f"curves {a.curve!r} and {b.curve!r} are not declared disjoint",
        )
        ma, mb = reg.letter_matrix(a), reg.letter_matrix(b)
        _need(
            move,
            hom.mat_mul(ma, mb) == hom.mat_mul(mb, ma),
            "homology images do not commute",
        )
        return w[: move.pos] + (b, a) + w[move.pos + 2 :]

    if isinstance(move, Hurwitz):
        a, b = _pair(move, w, move.pos)
        _need(move, move.side in ("left", "right"), f"unknown side {move.side!r}")
        if move.side == "left":
            new = Letter(make_curve(b.curve.name, concat((a,), b.curve.conj)), b.exp)
            return w[: move.pos] + (new, a) + w[move.pos + 2 :]
        new = Letter(
            make_curve(a.curve.name, concat((b.inverse(),), a.curve.conj)), a.exp
        )
        return w[: move.pos] + (b, new) + w[move.pos + 2 :]

    if isinstance(move, Braid):
        p, q = _pair(move, w, move.pos)
        p, q = reg.canonical_letter(p), reg.canonical_letter(q)
        _need(move, p.exp == 1 and q.exp == 1, "braid patterns take positive letters")
        if move.form == "fwd":
            rep = _braid_fwd(reg, move, p, q)
        elif move.form in ("rev1", "rev2"):
            _need(move, not p.curve.is_conjugate and not q.curve.is_conjugate,
                  f"{move.form} takes two plain letters")
            _need(move, reg.braid_adjacent(p.curve.name, q.curve.name),
                  f"{p.curve.name},{q.curve.name} are not braid-adjacent")
            if move.form == "rev1":  # (b, a) -> (a^-1(b), b)
                rep = (Letter(make_curve(p.curve.name, (Letter(q.curve, -1),))), Letter(p.curve))
            else:  # (a, b) -> (b, a(b))
                rep = (Letter(q.curve), Letter(make_curve(q.curve.name, (Letter(p.curve, 1),))))
        else:
            raise IllegalMove(move, f"unknown braid form {move.form!r}")
        return w[: move.pos] + rep + w[move.pos + 2 :]

    if isinstance(move, Lantern):
        _need(move, move.inst in reg.lanterns, f"unknown lantern instance {move.inst}")
        _need(move, move.direction in _LANTERN_SIDES, f"unknown direction {move.direction!r}")
        inst = reg.lanterns[move.inst]
        src_side, dst_side = _LANTERN_SIDES[move.direction]
        src = inst.rotations(src_side)
        dst_rotations = inst.rotations(dst_side)
        dst = dst_rotations[move.out % len(dst_rotations)]
        r = _match_rotation(reg, w, move.pos, src, move.conj)
        _need(
            move,
            r is not None,
            f"word at {move.pos} matches no rotation of {move.inst} {src_side}",
        )
        width = len(src[0])
        return w[: move.pos] + _conjugated_side(reg, dst, move.conj) + w[move.pos + width :]

    if isinstance(move, CyclicShift):
        _need(move, reg.image(w) == hom.IDENTITY, "cyclic shift requires a relator")
        return cyclic_shift(w, move.k)

    if isinstance(move, GlobalConjugate):
        _need(move, reg.image(w) == hom.IDENTITY, "global conjugation requires a relator")
        return free_reduce(concat(invert(move.by), w, move.by))

    if isinstance(move, Expand):
        _need(move, 0 <= move.pos < len(w), f"no letter at {move.pos}")
        l = w[move.pos]
        _need(move, l.curve.is_conjugate, f"{l!r} is not in conjugate form")
        return w[: move.pos] + expand_letter(l) + w[move.pos + 1 :]

    if isinstance(move, Contract):
        try:
            return contract_subword(w, move.lo, move.hi)
        except ValueError as exc:
            raise IllegalMove(move, str(exc)) from None

    if isinstance(move, Alias):
        _need(move, move.rel in reg.aliases, f"unknown alias relation {move.rel}")
        rel = reg.aliases[move.rel]
        src, dst = (rel.lhs, rel.rhs) if move.direction == "fwd" else (rel.rhs, rel.lhs)
        span = w[move.pos : move.pos + len(src)]
        _need(
            move,
            len(span) == len(src) and reg.words_equal(span, src),
            f"word at {move.pos} does not match the {move.direction} side of {move.rel}",
        )
        return w[: move.pos] + dst + w[move.pos + len(src) :]

    if isinstance(move, CentralSlide):
        block = w[move.pos : move.pos + move.length]
        _need(move, len(block) == move.length, "block out of range")
        _need(
            move,
            any(reg.words_equal(block, cw) for cw in reg.central_words),
            "block is not a registered central word",
        )
        rest = w[: move.pos] + w[move.pos + move.length :]
        _need(move, 0 <= move.dest <= len(rest), f"destination {move.dest} out of range")
        return rest[: move.dest] + block + rest[move.dest :]

    raise TypeError(f"unknown move {move!r}")


def inverse_move(reg: Registry, w: Word, move: Move) -> Move:
    """The move undoing ``move`` when applied to apply_move(reg, w, move)."""
    if isinstance(move, Commute):
        return move
    if isinstance(move, Hurwitz):
        return Hurwitz(move.pos, "right" if move.side == "left" else "left")
    if isinstance(move, Braid):
        if move.form == "fwd":
            p = reg.canonical_letter(w[move.pos])
            return Braid(move.pos, "rev1" if p.curve.is_conjugate else "rev2")
        return Braid(move.pos, "fwd")
    if isinstance(move, Lantern):
        src = reg.lanterns[move.inst].rotations(_LANTERN_SIDES[move.direction][0])
        r = _match_rotation(reg, w, move.pos, src, move.conj)
        if r is None:
            raise IllegalMove(move, "cannot invert a move that does not apply")
        direction = "up" if move.direction == "down" else "down"
        return Lantern(move.pos, move.inst, direction, out=r, conj=move.conj)
    if isinstance(move, CyclicShift):
        return CyclicShift(-move.k % max(len(w), 1))
    if isinstance(move, GlobalConjugate):
        return GlobalConjugate(invert(move.by))
    if isinstance(move, Expand):
        width = 2 * len(w[move.pos].curve.conj) + 1
        return Contract(move.pos, move.pos + width)
    if isinstance(move, Contract):
        return Expand(move.lo)
    if isinstance(move, Alias):
        return Alias(move.pos, move.rel, "rev" if move.direction == "fwd" else "fwd")
    if isinstance(move, CentralSlide):
        return CentralSlide(move.dest, move.length, move.pos)
    raise TypeError(move)


def match_lantern(reg: Registry, w: Word, inst_id: str) -> list[tuple[int, Word, str, int]]:
    """All (pos, conjugator, side, rotation) where a side of the instance occurs.

    Conjugated occurrences are found when the common conjugator survives on
    the first letter of the block (conservative, like the rest of the engine).
    """
    inst = reg.lanterns[inst_id]
    cw = reg.canonical_word(w)
    hits: list[tuple[int, Word, str, int]] = []
    for side_name in ("lhs", "rhs"):
        sides = inst.rotations(side_name)
        width = len(sides[0])
        for pos in range(len(cw) - width + 1):
            block = reg.canonical_word(cw[pos : pos + width])
            conjs = [(), cw[pos].curve.conj] if cw[pos].curve.conj else [()]
            hit = next(
                ((pos, conj, side_name, r) for conj in conjs for r, side in enumerate(sides)
                 if block == _conjugated_side(reg, side, conj)),
                None,
            )
            if hit:
                hits.append(hit)
    return hits


# -- replay ---------------------------------------------------------------------


@dataclass
class StepResult:
    index: int
    text: str
    ok: bool
    detail: str = ""
    length: int = 0
    signature: Optional[tuple[int, int]] = None


@dataclass
class ReplayReport:
    script: str
    steps: list[StepResult] = field(default_factory=list)
    labeled: dict[str, Word] = field(default_factory=dict)
    final_word: Word = ()
    ok: bool = True
    failure: str = ""

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


def _signature_of(reg: Registry, w: Word) -> Optional[tuple[int, int]]:
    if any(l.exp != 1 for l in w):
        return None
    n = sum(1 for l in w if not reg.separating(l.curve))
    s = len(w) - n
    return (n, s)


def replay(reg: Registry, script: MoveScript) -> ReplayReport:
    """Apply the script's moves in order, checking legality, homology-image
    preservation, and every declared checkpoint; stops at the first failure."""
    report = ReplayReport(script.name)
    state = reg.canonical_word(script.start)
    if script.start_label:
        report.labeled[script.start_label] = state
    index = 0
    saw_final = False
    for entry in script.entries:
        index += 1
        if isinstance(entry, (Checkpoint, Final)):
            expected = reg.canonical_word(entry.word)
            ok = state == expected
            kind = "final" if isinstance(entry, Final) else "checkpoint"
            label = f" label={entry.label}" if entry.label else ""
            step = StepResult(
                index,
                f"{kind}{label}",
                ok,
                "" if ok else f"expected {word_str(expected)!r}, have {word_str(state)!r}",
                len(state),
                _signature_of(reg, state),
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
            state = apply_move(reg, state, entry)
            report.steps.append(
                StepResult(index, describe(entry), True, "", len(state),
                           _signature_of(reg, state))
            )
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
