"""Text format for twist words, relators, and derivation scripts (.mcg files).

Word grammar
------------
    word      :=  item*
    item      :=  atom ( '^' INT )?
    atom      :=  NAME | '[' word ']' '(' NAME ')' | '(' word ')'

Letters are separated by whitespace or '.', and '^k' repeats a letter |k|
times with the sign of k as exponent; '(w)^k' repeats a whole word.  The
conjugate form [w](a) is the twist along the image of curve a under the
word w.  No word may expand past MAX_LETTERS letters once flattened, each
[w](a) spelled out as w a w^-1, as Registry.flat_word reads it, and nor
may the inside w a of any [w](a), though a power ^0 drops it; the brackets
open at one point of a word hold at most MAX_LETTERS letters between them.
A document reads each distinct item (a name or a flat [w](a), with its
power) once, so its words share their letters.  Every curve name a word
writes is checked against the registry, one under ^0 too; a run of text the
document has read before is not checked again.
Unicode input is accepted for a few names (the Greek delta and macron
accents map to d, kb, hb); output is always ASCII.

One loop, _read, reads a word, from its runs of text between whitespace
when each not yet in the item memo is a form word_str prints (an ASCII name
or flat [w](a), with its power) or a group (w)^k of them, else from its
exact tokens, whose brackets a stack reads and which raise every syntax
error.  A curve the registry lacks is located by a scan of the word's names.

Script files are line oriented:

    relator NAME = WORD
    script NAME
    start NAME | start [label=NAME]: WORD
    ENTRY
    end

An ENTRY line, a move, ``checkpoint [label=NAME]: WORD`` or ``final
[label=NAME]: WORD``, follows the ``syntax`` template of its class in
``moves.ENTRIES``, which also prints the entry back (``moves.describe``).
A NAME holds word characters and ( ) + -.  A script line is parsed by its
leading token, the text before its first blank or ':', which picks the one
pattern it is matched against: start's, or that of the entry whose syntax
begins with that token.  Positions are 0-based letter indices into the
current word.  Blank lines and '#' comments are ignored.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Optional, get_args, get_type_hints

from .moves import ENTRIES, Entry, Label, MoveScript, Nat, _template, describe
from .registry import ParseError, Registry, UnknownCurve
from .words import Curve, Letter, PositiveRelator, Word, invert, push, word_str


_UNICODE_NAMES = {"δ": "d", "k\u0304": "kb", "h\u0304": "hb", "k\u00af": "kb", "h\u00af": "hb"}
_BLANK = r"\s.\u00b7\u22c5"  # whitespace, '.' and the middle dots separate letters
# a name ends before a k or h that carries a macron (k̄ and k¯ spell kb)
_NAME = r"δ|[kh][\u0304\u00af]|[A-Za-z](?:(?![kh][\u0304\u00af])[A-Za-z0-9])*"
# The exact tokens: a name or a closer with its power, a power, or an opener;
# at a bad character, an empty token.  re compiles it on first use.
_TOKEN = rf"[{_BLANK}]*((?:{_NAME}|[\])])(?:[{_BLANK}]*\^-?\d+)?|\^-?\d+|[\[(]|(?=[^{_BLANK}]))"
_CLOSER = {"[": "]", "(": ")"}
# The one-pass tokens: runs of text between whitespace, but that [...] and (...)
# may hold whitespace up to their closer; at a bracket not closed, an empty token.
_SPLIT_RE = re.compile(r"\s*([^\s\[(]\S*|\[[^\]]*\]\S*|\((?:[^()]|\([^()]*\))*\)\S*)|\s*(?=\S)")
# The items it takes, a name or a flat conjugate [w](a) with its power, or a
# group of those with its power, all ASCII with whitespace between letters.
_ASCII, _POWER = r"[A-Za-z][A-Za-z0-9]*", r"(?:\^-?\d+)?"
_EASY_ITEM = rf"(?:{_ASCII}|\[(?:\s*{_ASCII}{_POWER}(?=[\s\]]))*\s*\]\({_ASCII}\)){_POWER}"
_EASY_RE = re.compile(rf"{_EASY_ITEM}|\((?:\s*{_EASY_ITEM}(?=[\s)]))*\s*\){_POWER}")
_ASCII_RE = re.compile(_ASCII)  # the curve names in them
MAX_LETTERS = 100_000  # per flattened word, checked before each power expands
# What an exact bracket or power reads as: a length past any bound, at which
# _read's check of the bound stops, so that items pay no test for it
_NO_ITEM = (), 1 << 62


def parse_word(text: str, registry: Optional[Registry] = None, line: int = 0, col: int = 0) -> Word:
    """Parse one word.  ``col`` is the offset of ``text`` in its line, so a bad
    character's column counts from the start of the line."""
    return _parse_word(text, registry, line, col, {})


def _parse_word(text: str, registry: Optional[Registry], line: int, col: int, memo: dict) -> Word:
    """The word of ``text``, whose items ``memo`` shares with the other words
    of its document.  The names of the tokens new to the memo are checked
    against the registry, or on the exact tokens all of the word's: a token
    in the memo was checked with the word that put it there."""
    tokens, item = _SPLIT_RE.findall(text), _item
    new = set(tokens).difference(memo)
    if not all(map(_EASY_RE.fullmatch, new)):  # nor the empty token
        tokens, item, new = iter(_exact_tokens(text, line, col)), _exact_item, None
    letters = _read(tokens, line, memo, item)[0]
    if registry is not None and (
        new is None or not registry.curves.keys() >= set(_ASCII_RE.findall(" ".join(new)))
    ):
        _check_curves(text, registry, line, col)
    return letters


def _exact_tokens(text: str, line: int, col: int) -> list[str]:
    """The exact tokens of a word, with no blank before a power and names in
    ASCII, or a bad character's error."""
    tokens = re.findall(_TOKEN, text)
    if "" in tokens:
        bad = next(m.start(1) for m in re.finditer(_TOKEN, text) if not m[1])
        raise ParseError(f"bad character {text[bad]!r}", *_where(text, line, col, bad))
    gap = re.compile(rf"[{_BLANK}]+\^")  # a blank before a power
    return [gap.sub("^", _UNICODE_NAMES.get(t, t)) for t in tokens]


def _exact_item(tok: str, line: int, memo: dict) -> tuple[Word, int]:
    """An exact token read as _item reads it, or a bracket or a power as _NO_ITEM."""
    return _item(tok, line, memo) if tok[0].isalpha() else _NO_ITEM


def _read(tokens: Iterable[str], line: int, memo: dict, item: Callable) -> tuple[Word, int]:
    """Tokens read as one word: its letters and its flattened length, checked
    before each item's or bracket's letters join, so a long line joins at most
    one item past the bound and its error comes first.  ``item`` reads a token
    the memo lacks, into the memo; exact tokens come as an iterator, from which
    a ']' takes the (a) of its [w](a)."""
    # a plain loop, then tuple(letters): a tuple built from an iterator grows
    # by realloc, which over many documents fragmented the C heap
    letters: list[Letter] = []
    size, limit = 0, MAX_LETTERS  # the letters this level holds, and may hold
    # per open bracket: its closer, the word before it, that word's size and
    # limit, and the memo's size, to which a closer under ^0 returns it
    stack: list[tuple[str, list[Letter], int, int, int]] = []
    while True:
        for tok in tokens:
            word, n = memo.get(tok) or item(tok, line, memo)
            size += n
            if size > limit:  # past the bound, or a token that is no item
                break
            letters += word
        else:
            break
        if n != _NO_ITEM[1]:  # past the bound
            _check_size(size, line, limit)
        size -= n
        if tok in _CLOSER:  # an opener: the open brackets share one bound
            stack.append((_CLOSER[tok], letters, size, limit, len(memo)))
            letters, size, limit = [], 0, limit - size if len(stack) > 1 else MAX_LETTERS
            continue
        if not stack or tok[0] != stack[-1][0]:
            raise ParseError(f"unexpected token {tok.partition('^')[0] or tok!r}", line)
        base, n = tuple(letters), size
        closer, letters, size, limit, kept = stack.pop()
        if closer == "]":  # [w](a): (a) follows, then the power
            _expect(tok[1:] or next(tokens, ""), "(", line)
            name, caret, power = _expect(next(tokens, ""), "", line).partition("^")
            tok = _expect(caret + power or next(tokens, ""), ")", line)  # a power is no ')'
            _check_size(n + 1, line)  # the inside, w a, is bounded as a word is
            a = _item(name, line, memo)[0]
            base, n = (push(a[0], base),), 2 * n + 1  # a pushed by w
        exp = int(tok[2:]) if tok[1:] else 1  # the closer's power
        while not exp and len(memo) > kept:  # back to its size at the opener, no further
            memo.popitem()
        size += n * abs(exp)
        _check_size(size, line, limit)
        letters += _power(base, n, exp, line)
    if stack:
        raise ParseError("unexpected end of word", line)
    return tuple(letters), size


def _expect(tok: str, expected: str, line: int) -> str:
    """tok, which begins with ``expected``, or is a curve name if that is ''."""
    if not tok:
        raise ParseError("unexpected end of word", line)
    if tok[0] != expected if expected else not tok[0].isalpha():
        got = tok.partition("^")[0] or tok  # a name or a bracket, else a power
        what = repr(expected) if expected else "curve name"
        raise ParseError(f"expected {what}, got {_UNICODE_NAMES.get(got, got)!r}", line)
    return tok


def _item(tok: str, line: int, memo: dict) -> tuple[Word, int]:
    """The letters and flattened length of an item token, a name or, from the
    one-pass tokens, a flat [w](a) or a group, with its power, read once per
    ``memo``: one parse_document or parse_word call's, whose words share it."""
    if tok in memo:
        return memo[tok]
    power = tok.rfind("^")
    if power > tok.rfind(")"):  # the item's own power follows its base, itself an item
        base = tok[:power]
        exp = int(tok[power + 1 :])
        # a base under ^0 is read in a memo of its own, so that none of it is kept
        letters, n = _item(_UNICODE_NAMES.get(base, base), line, memo if exp else {})
        value = _power(letters, n, exp, line), n * abs(exp)
    elif tok[0] == "[":  # [w](a), w names with their powers, each an item
        *w, a = tok[1:-1].replace("]", " ").replace("(", " ").split()
        conj, n = _read(w, line, memo, _item)
        _check_size(n + 1, line)  # the inside, w a, is bounded as a word is
        value = (Letter(Curve(a, conj)),), 2 * n + 1  # w a w^-1
    elif tok[0] == "(":  # a group of items, not kept: the memo keeps its power
        return _read(_SPLIT_RE.findall(tok[1:-1]), line, memo, _item)
    else:
        value = (Letter(Curve(tok)),), 1
    return memo.setdefault(tok, value)  # the memo's only insert: at its end


def _check_size(size: int, line: int, limit: int = MAX_LETTERS) -> None:
    if size > limit:
        raise ParseError(f"word expands past {MAX_LETTERS} letters", line)


def _power(base: Word, size: int, exp: int, line: int) -> Word:
    """base repeated |exp| times, inverted when exp < 0; ``size`` is base's
    flattened length."""
    _check_size(size * abs(exp), line)
    return base * exp if exp >= 0 else invert(base) * -exp


def _check_curves(text: str, registry: Registry, line: int, col: int) -> None:
    """Raise UnknownCurve at the first name of a well-formed word that the
    registry lacks, one under ^0 too."""
    for m in re.finditer(_NAME, text):
        name = _UNICODE_NAMES.get(m[0], m[0])
        if name not in registry.curves:
            raise UnknownCurve(name, *_where(text, line, col, m.start()))


def _where(text: str, line: int, col: int, at: int) -> tuple[int, int]:
    """The line and column of text[at]: past a newline of a text that spans
    lines, the line it is on and its column within that line."""
    newline = text.rfind("\n", 0, at)
    if newline < 0:
        return line, col + at + 1
    return max(line, 1) + text.count("\n", 0, at), at - newline


def parse_relator(text: str, registry: Optional[Registry] = None) -> PositiveRelator:
    return _relator(parse_word(text, registry), "", 0)


def _relator(w: Word, label: str, line: int) -> PositiveRelator:
    try:
        return PositiveRelator(w, label)
    except ValueError:  # its one rule: no inverse letter
        raise ParseError("relator contains inverse letters", line) from None


# -- serialization ------------------------------------------------------------


def serialize(script: MoveScript) -> str:
    """A script as the text parse_document reads back, in canonical ASCII."""
    lines = [f"script {script.name}"]
    label = f" label={script.start_label}" if script.start_label else ""
    lines.append(f"start{label}: {word_str(script.start)}")
    lines += map(describe, script.entries)
    lines.append("end")
    return "\n".join(lines)


# -- script / document parsing --------------------------------------------------


class Document(NamedTuple):
    """The relators and scripts of a text, by name.  The fields take no
    default, which every document would share: each caller passes new dicts."""

    relators: dict[str, PositiveRelator]
    scripts: dict[str, MoveScript]


_LABEL = r"[\w()+-]+"  # a relator, script or checkpoint name
# start NAME (group 1), or start [label=NAME]: WORD (groups 2 and 3)
_START_RE = re.compile(rf"start(?:\s+({_LABEL})|(?:\s+label=({_LABEL}))?\s*:\s*(.+))")


# The values a slot takes, by its field's annotation; a Literal takes its choices.
_SLOT_PATTERNS = {Word: ".+", Nat: r"\d+", int: r"-?\d+", str: r"\w+", Label: _LABEL}


def _slot_value(kind, text: str, registry: Optional[Registry], lineno: int, col: int, memo: dict):
    if kind is Word:
        return _parse_word(text, registry, lineno, col, memo)
    return int(text) if kind is int or kind is Nat else text


def _literal_pattern(text: str) -> str:
    """The regex of a syntax's literal text: ': ' reads a colon with or
    without blanks around it, and a space any run of blanks."""
    return r"\s*:\s*".join(r"\s+".join(map(re.escape, part.split(" "))) for part in text.split(": "))


def _compile_entry(cls: type) -> tuple[type, dict, re.Pattern]:
    """The entry class, its field annotations and the regex of its syntax.  A
    Word annotation is taken as the Word object itself, which get_type_hints
    rebuilds, so that _slot_value tells the kinds apart by identity."""
    kinds = {name: Word if kind == Word else kind for name, kind in get_type_hints(cls).items()}
    text, slots = _template(cls.syntax)
    literals = text.split("{}")
    parts = [_literal_pattern(literals[0])]
    for (prefix, optional, name), literal in zip(slots, literals[1:]):
        name = optional or name
        values = _SLOT_PATTERNS.get(kinds[name]) or "|".join(map(re.escape, get_args(kinds[name])))
        slot = f"(?P<{name}>{values})"
        if optional:
            slot = f"(?:{_literal_pattern(prefix)}{slot})?"
        parts += [slot, _literal_pattern(literal)]
    return cls, kinds, re.compile("".join(parts))


# Each entry by the leading token of its syntax, which a blank, an optional
# part or a colon ends.
_ENTRY_SYNTAX = {re.split(r"[ \[:]", cls.syntax, 1)[0]: _compile_entry(cls) for cls in ENTRIES}


def _parse_entry(line: str, syntax: tuple, lineno: int, registry: Optional[Registry],
                 indent: int, memo: dict) -> Optional[Entry]:
    cls, kinds, pattern = syntax
    m = pattern.fullmatch(line)
    if m is None:
        return None
    return cls(**{
        name: _slot_value(kinds[name], text, registry, lineno, indent + m.start(name), memo)
        for name, text in m.groupdict().items()
        if text is not None
    })


def parse_document(text: str, registry: Optional[Registry] = None) -> Document:
    doc = Document({}, {})
    script_name: Optional[str] = None
    start: Optional[Word] = None
    start_label = ""
    entries: list[Entry] = []
    memo: dict = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())  # word offsets count from the raw line

        if script_name is None:
            if line.startswith("relator "):
                m = re.match(rf"relator\s+({_LABEL})\s*=\s*(.+)$", line)
                if not m:
                    raise ParseError("bad relator definition", lineno)
                name, body = m.groups()
                if name in doc.relators:
                    raise ParseError(f"duplicate relator {name}", lineno)
                w = _parse_word(body, registry, lineno, indent + m.start(2), memo)
                doc.relators[name] = _relator(w, name, lineno)
                continue
            m = re.match(rf"script\s+({_LABEL})$", line)
            if m:
                script_name = m.group(1)
                if script_name in doc.scripts:
                    raise ParseError(f"duplicate script {script_name}", lineno)
                start, start_label, entries = None, "", []
                continue
            raise ParseError(f"unexpected line outside script: {line!r}", lineno)

        # inside a script block
        if line == "end":
            if start is None:
                raise ParseError(f"script {script_name} has no start", lineno)
            doc.scripts[script_name] = MoveScript(
                script_name, start, tuple(entries), start_label
            )
            script_name = None
            continue
        # one pattern per line, chosen by the line's leading token
        head = line.split(None, 1)[0].partition(":")[0]
        if head == "start":
            if start is not None:
                raise ParseError(f"script {script_name} has a second start", lineno)
            m = _START_RE.fullmatch(line)
            if m and m[1] is not None:  # a relator's word
                if m[1] not in doc.relators:
                    raise ParseError(f"start references unknown relator {m[1]!r}", lineno)
                start, start_label = doc.relators[m[1]].word, m[1]
                continue
            if m and m[1] is None:
                start_label = m[2] or ""
                start = _parse_word(m[3], registry, lineno, indent + m.start(3), memo)
                continue
        elif head in _ENTRY_SYNTAX:
            entry = _parse_entry(line, _ENTRY_SYNTAX[head], lineno, registry, indent, memo)
            if entry is not None:
                entries.append(entry)
                continue
        raise ParseError(f"cannot parse script line {line!r}", lineno)

    if script_name is not None:
        raise ParseError(f"script {script_name} not closed with 'end'")
    return doc
