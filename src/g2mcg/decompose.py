"""Enumerate genus-2 fiber-sum splits of a fiber signature under known
obstructions, and classify the summands that survive.

A fiber sum splits the signature additively, and each relatively minimal
summand must itself obey the abelianization law n + 2s = 0 (mod 10).  The
law is additive, so a total that breaks it has no such split, and for a
total that obeys it the enumeration visits only first summands on the
mod-10 lattice, whose complements then obey the law as well.  On top of
that the rule table carries the published obstructions: the pairs
(10,0) and (8,1) never occur as the fiber counts of a genus-2 Lefschetz
fibration over the sphere (Sato, remark 5.1); every such fibration has at
least 7 singular fibers, and none has only reducible fibers
(Ozbagci-Stipsicz).  Classification strength is tracked so a report can
say which summands are pinned up to diffeomorphism and which only up to
homeomorphism.

Splits are unordered; the canonical order puts the smaller reducible count
(then the smaller irreducible count) first.  Trivial summands with no
singular fibers are not enumerated: they would make the sum trivial, not a
decomposition.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, NamedTuple, Optional

from .invariants import FiberSignature, format_homeo

MAX_SPLITS = 250_000  # the most lattice points admissible_splits visits


class ConstraintRule(NamedTuple):
    ident: str
    rejects: Callable[[FiberSignature], bool]
    citation: str


RULES: tuple[ConstraintRule, ...] = (
    ConstraintRule("no-10-0", lambda sig: (sig.n, sig.s) == (10, 0), "Sato, remark 5.1: (10,0) cannot occur"),
    ConstraintRule("no-8-1", lambda sig: (sig.n, sig.s) == (8, 1), "Sato, remark 5.1: (8,1) cannot occur"),
    ConstraintRule("min-fibers", lambda sig: sig.total < 7, "Ozbagci-Stipsicz: at least 7 singular fibers"),
    ConstraintRule("no-all-reducible", lambda sig: sig.n == 0 and sig.s > 0, "Ozbagci-Stipsicz: no hyperelliptic fibration with only reducible fibers"),
)


class ClassificationEntry(NamedTuple):
    signature: tuple[int, int]
    strength: str  # Diffeo | Homeo
    label: str
    citation: str


CLASSIFICATION: dict[tuple[int, int], ClassificationEntry] = {
    e.signature: e
    for e in (
        ClassificationEntry((6, 2), "Diffeo", "S2xT2 # 4 CP2bar", "Sato, proposition 4.1"),
        ClassificationEntry((4, 3), "Diffeo", "S2xT2 # 3 CP2bar", "Sato, proposition 4.1"),
        ClassificationEntry((20, 0), "Diffeo", format_homeo(1, 13), "characterization of 20 irreducible fibers"),
        ClassificationEntry((18, 1), "Diffeo", format_homeo(1, 12), "characterization of 18 irreducible + 1 reducible"),
        ClassificationEntry((16, 2), "Homeo", format_homeo(1, 11), "rational blowdown of the (18,1) fibration"),
        ClassificationEntry((14, 3), "Homeo", format_homeo(1, 10), "rational blowdown, two lantern substitutions"),
        ClassificationEntry((12, 4), "Homeo", format_homeo(1, 9), "rational blowdown, three lantern substitutions"),
    )
}


class SummandVerdict(NamedTuple):
    signature: FiberSignature
    entry: Optional[ClassificationEntry]
    rejected_by: tuple[str, ...]  # rule idents (with citations in the rule table)


class CandidateSplit(NamedTuple):
    first: SummandVerdict
    second: SummandVerdict

    @property
    def admissible(self) -> bool:
        return not self.first.rejected_by and not self.second.rejected_by

    @property
    def signatures(self) -> tuple[tuple[int, int], tuple[int, int]]:
        a, b = self.first.signature, self.second.signature
        return ((a.n, a.s), (b.n, b.s))


class DecompositionReport:
    def __init__(self, signature: FiberSignature) -> None:
        self.signature = signature
        self.candidates: list[CandidateSplit] = []

    @property
    def admissible(self) -> list[CandidateSplit]:
        return [c for c in self.candidates if c.admissible]

    @property
    def summary(self) -> str:
        k = len(self.admissible)
        if k == 0:
            return "None"
        if k == 1:
            return "Unique"
        return f"Multiple({k})"

    def render(self) -> str:
        sig = self.signature
        lines = [
            f"fiber sum decompositions of (n,s) = ({sig.n},{sig.s})",
            "assuming both summands are relatively minimal genus-2 fibrations",
        ]
        # candidates come in canonical order, so one reducible split is one run
        for (s1, s2), group in groupby(
            self.candidates, lambda c: (c.first.signature.s, c.second.signature.s)
        ):
            lines.append(f"  reducible fibers split {s1}+{s2}:")
            for c in group:
                (n1, _), (n2, _) = c.signatures
                head = f"    ({n1},{s1}) + ({n2},{s2}):"
                if c.admissible:
                    parts = []
                    for v in (c.first, c.second):
                        if v.entry:
                            parts.append(f"{v.entry.strength} {v.entry.label}")
                        else:
                            parts.append("unclassified")
                    lines.append(f"{head} admissible -- {parts[0]} | {parts[1]}")
                else:
                    reasons = []
                    for v in (c.first, c.second):
                        for ident in v.rejected_by:
                            rule = next(r for r in RULES if r.ident == ident)
                            reasons.append(
                                f"({v.signature.n},{v.signature.s}) rejected by {ident}: {rule.citation}"
                            )
                    lines.append(f"{head} rejected -- " + "; ".join(reasons))
        lines.append(f"summary: {self.summary}")
        return "\n".join(lines)

    def records(self) -> str:
        out = []
        for c in self.candidates:
            (n1, s1), (n2, s2) = c.signatures
            verdict = "admissible" if c.admissible else "rejected=" + ",".join(
                c.first.rejected_by + c.second.rejected_by
            )
            out.append(f"split=({n1},{s1})+({n2},{s2}) {verdict}")
        out.append(f"summary={self.summary}")
        return "\n".join(out)


def _verdict(sig: FiberSignature) -> SummandVerdict:
    rejected = tuple(r.ident for r in RULES if r.rejects(sig))
    return SummandVerdict(sig, CLASSIFICATION.get((sig.n, sig.s)), rejected)


def admissible_splits(sig: FiberSignature) -> DecompositionReport:
    """All unordered nontrivial splits with both sides obeying the mod-10 law,
    each built once, in canonical order (the smaller summand first).

    The law is additive.  When the total breaks it, the complement of any
    summand that obeys it breaks it, so the empty report returns at once.
    Otherwise only the lattice points n1 = -2 s1 (mod 10) are visited: each
    first summand there obeys the law, and its complement needs no check of
    its own, as the difference of two classes that are 0 in Z/10.  Trivial
    and out-of-order pairs are skipped on the counts, so a FiberSignature is
    built only for the summands of a listed candidate.  A lattice of more
    than MAX_SPLITS points raises ValueError, with nothing built.
    """
    report = DecompositionReport(sig)
    if sig.mod_ten != 0:
        return report
    if (points := (sig.s // 2 + 1) * (sig.n // 10 + 1)) > MAX_SPLITS:
        raise ValueError(f"({sig.n},{sig.s}) spans {points} lattice points, past {MAX_SPLITS}")
    for s1 in range(sig.s // 2 + 1):
        s2 = sig.s - s1
        for n1 in range(-2 * s1 % 10, sig.n + 1, 10):
            n2 = sig.n - n1
            if n1 + s1 == 0 or n2 + s2 == 0 or (s2, n2) < (s1, n1):
                continue
            a, b = FiberSignature(n1, s1), FiberSignature(n2, s2)
            report.candidates.append(CandidateSplit(_verdict(a), _verdict(b)))
    return report
