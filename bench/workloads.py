"""Seeded inputs for the benchmark workloads, each op with its known answer.

An op is one CLI call.  ``build(workload, seed, workdir, registry_path)``
writes the input files the ops need into ``workdir`` and returns one pass:
the ops the timed process runs in order.  Each op is a dict with

    id      stable name; a wrong verdict is reported under it
    cls     input class; every class has a fixed share of the pass
    argv    arguments to ``g2mcg.cli.main``
    expect  known answer: the exit code, plus the first line of a replay
            report, the replay's failing step, or the decompose summary

Known answers never come from the verdict code under test.  Relators and
their Hurwitz, braid and commute variants are equal words in Mod(S2) by the
identities spelled out in ``_variant_step``; dropping one nonseparating
letter from a relator moves its Sp(4,Z) image off the identity; a positive
power of a Dehn twist is never trivial; and the decompose summaries come
from ``decompose_summary``, a separate count under the five published rules.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

WORKLOADS = ("corpus-replay", "long-replay", "pi1-verify", "decompose-sweep")

CORPUS_SCRIPTS = (
    "sub-c1c5", "sub-c1c3", "sub-c3c5", "blowup-to-thirty",
    "z-family", "x-family", "x-seven",
)

# Wrong verdicts the program gives today, by input class: (outcome, why).
# These ops stay in the pass and count as failed; ``correct`` turns false
# only on a wrong verdict that is not the one listed for its class.
KNOWN_DEFECTS = {
    "td5": (0, "verify --pi1 accepts t_d^5 (per-generator conjugacy is weaker than inner)"),
    "bare-inverse": ("raised ValueError", "a bare word with an inverse letter is not exit 2"),
    "torelli-slow": ("timeout", "refuting this Torelli product takes longer than the limit"),
}


def build(workload: str, seed: int, workdir: Path, registry_path: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "corpus-replay":
        return _corpus_replay(rng, registry_path)
    if workload == "long-replay":
        return _long_replay(rng, workdir, registry_path)
    if workload == "pi1-verify":
        return _pi1_verify(rng, workdir, registry_path)
    if workload == "decompose-sweep":
        return _decompose_sweep(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _op(ident: str, cls: str, argv: list[str], **expect) -> dict:
    return {"id": ident, "cls": cls, "argv": argv, "expect": expect}


# -- corpus-replay ---------------------------------------------------------------


def _corpus_replay(rng: random.Random, reg_path: str) -> list[dict]:
    names = list(CORPUS_SCRIPTS)
    rng.shuffle(names)
    return [
        _op(f"corpus/{name}", "corpus", ["--registry", reg_path, "replay", "--builtin", name],
            exit=0, first=f"script {name}: ok")
        for name in names
    ]


# -- long-replay -----------------------------------------------------------------

# Scripts per pass: few enough that each is replayed a dozen times a run.
# Scripts 9 and 19 carry one corrupted step each.
LONG_SCRIPTS = 20
LONG_MIN, LONG_MAX = 100, 250
MOVE_KINDS, MOVE_WEIGHTS = ("hurwitz", "commute", "braid", "expand", "shift"), (35, 30, 20, 10, 5)


def _fiber_sum(plan: random.Random, relators: list, target: float) -> list:
    """3-8 corpus relators whose total length is the closest to ``target``."""
    best, tries = None, 0
    while best is None or tries < 64:
        tries += 1
        parts = plan.choices(relators, k=plan.randint(3, 8))
        n = sum(len(r) for r in parts)
        if LONG_MIN <= n <= LONG_MAX and (
            best is None or abs(n - target) < abs(sum(len(r) for r in best) - target)
        ):
            best = parts
    return best


def _walk_move(rng: random.Random, reg, w, kind: str):
    """A random move of the given kind for ``w``, else a Hurwitz move."""
    from g2mcg.moves import Braid, Commute, CyclicShift, Expand, Hurwitz

    if kind == "commute":
        for _ in range(20):
            p = rng.randrange(len(w) - 1)
            if reg.disjoint(w[p].curve, w[p + 1].curve):
                return Commute(p)
    if kind == "braid":
        for _ in range(20):
            p = rng.randrange(len(w) - 1)
            a, b = w[p], w[p + 1]
            if (a.exp == b.exp == 1 and not a.curve.conj and not b.curve.conj
                    and reg.braid_adjacent(a.curve.name, b.curve.name)):
                return Braid(p, rng.choice(("rev1", "rev2")))
    if kind == "expand":
        conj = [p for p, l in enumerate(w) if l.curve.conj]
        if conj:
            return Expand(rng.choice(conj))
    if kind == "shift":
        return CyclicShift(rng.randrange(1, len(w)))
    return Hurwitz(rng.randrange(len(w) - 1), rng.choice(("left", "right")))


def _intersecting_pair(w) -> int:
    """Position of two adjacent plain chain letters c_i c_(i+-1), else -1.

    Such twists intersect once, so they never commute: a commute there is
    illegal whatever the engine decides.
    """
    for p in range(len(w) - 1):
        a, b = w[p].curve, w[p + 1].curve
        if (not a.conj and not b.conj and a.name[:1] == b.name[:1] == "c"
                and abs(int(a.name[1:]) - int(b.name[1:])) == 1):
            return p
    return -1


def long_script(rng: random.Random, reg, parts: list, name: str, kinds: list[str],
                corrupt: str = ""):
    """Moves of the given kinds from the fiber sum of ``parts``, then back.

    Returns (script, failing step): the failing step is 0 for a clean
    script, else the 1-based index of the corrupted entry: the checkpoint
    after the walk with one letter renamed, or an illegal commute inserted
    halfway through the walk.
    """
    from g2mcg.moves import (Checkpoint, Commute, Final, IllegalMove, MoveScript,
                             apply_move, inverse_move)
    from g2mcg.words import Curve, Letter

    start = reg.canonical_word(tuple(l for r in parts for l in r.word))
    states, moves, undo = [start], [], []
    for kind in kinds:
        w = states[-1]
        while True:
            move = _walk_move(rng, reg, w, kind)
            try:
                nxt = apply_move(reg, w, move)
                break
            except IllegalMove:
                kind = "hurwitz"  # always legal
        undo.append(inverse_move(reg, w, move))
        moves.append(move)
        states.append(nxt)
    checkpoint = states[-1]
    fail_at = 0
    if corrupt == "checkpoint":
        plain = [p for p, l in enumerate(checkpoint) if not l.curve.conj]
        p = rng.choice(plain)
        old = checkpoint[p]
        other = rng.choice([n for n in ("c1", "c2", "c3", "c4", "c5") if n != old.curve.name])
        checkpoint = checkpoint[:p] + (Letter(Curve(other), old.exp),) + checkpoint[p + 1:]
        fail_at = len(kinds) + 1
    entries = moves + [Checkpoint(checkpoint)] + undo[::-1] + [Final(start)]
    if corrupt == "illegal":
        j = len(kinds) // 2
        p = _intersecting_pair(states[j])
        entries.insert(j, Commute(p if p >= 0 else len(states[j])))
        fail_at = j + 1
    return MoveScript(name, start, tuple(entries)), fail_at


def _long_replay(rng: random.Random, workdir: Path, reg_path: str) -> list[dict]:
    from g2mcg.dsl import serialize
    from g2mcg.fixtures import load_corpus
    from g2mcg.registry import Registry

    reg = Registry.parse(Path(reg_path).read_text(encoding="utf-8"))
    relators = sorted(load_corpus(reg).relators.values(), key=lambda r: r.label)
    ops = []
    for i in range(LONG_SCRIPTS):
        # What script i is made of (its relators, length and move kinds) is
        # the same for every seed, so every pass holds the same work; the
        # seed orders the summands and draws every position and variant.
        plan = random.Random(i)
        target = LONG_MIN + (LONG_MAX - LONG_MIN) * (i + 0.5) / LONG_SCRIPTS
        parts = _fiber_sum(plan, relators, target)
        rng.shuffle(parts)
        kinds = plan.choices(MOVE_KINDS, MOVE_WEIGHTS, k=3 + i % 4)
        corrupt = ("checkpoint", "illegal")[i // 10 % 2] if i % 10 == 9 else ""
        name = f"long-{i:02d}"
        script, fail_at = long_script(rng, reg, parts, name, kinds, corrupt)
        path = workdir / f"{name}.mcg"
        path.write_text(serialize(script) + "\n", encoding="utf-8")
        argv = ["--registry", reg_path, "replay", str(path)]
        if fail_at:
            ops.append(_op(f"long/{name}", "corrupted", argv, exit=1, fail_step=fail_at))
        else:
            ops.append(_op(f"long/{name}", "round-trip", argv, exit=0, first=f"script {name}: ok"))
    return ops


# -- pi1-verify ------------------------------------------------------------------

# Relators over c1..c5, the only curves with a surface-group action.
PI1_BASES = {
    "chain30": ["c1", "c2", "c3", "c4", "c5"] * 6,
    "chain40": ["c1", "c2", "c3", "c4"] * 10,
    "Z0": ["c1", "c2", "c3", "c4", "c5", "c5", "c4", "c3", "c2", "c1"] * 2,
}
# Four spellings of the separating twist t_d by the two-chain relation:
# d bounds both the c1-c2 and the c4-c5 handle.
TD_SPELLINGS = (["c1", "c2"] * 6, ["c2", "c1"] * 6, ["c4", "c5"] * 6, ["c5", "c4"] * 6)
# Torelli products of t_d with t_d'', d'' bounding the c2-c3 handle.
TORELLI = {
    "td.tdpp": "(c1 c2)^6 (c2 c3)^6",
}
TORELLI_SLOW = {
    "td5.tdpp": "(c1 c2)^30 (c2 c3)^6",
    "td2.tdpp2": "(c1 c2)^12 (c2 c3)^12",
}
# Inputs of each class.  The slow Torelli products use the per-op limit
# twice a pass, so every other input is verified PI1_REPEATS times a pass
# to give each one several timings within a run.  Per pass the p50 then
# sits inside the relator class and the p90 inside the t_d^5 class; the
# relators are many because their cost varies most between seeds.
PI1_SHARES = {"relator": 102, "homology": 20, "td5": 20, "bare-inverse": 6}
PI1_REPEATS = 4


def _chain_index(token: str) -> int:
    return int(token[1:]) if len(token) == 2 and token[0] == "c" else 0


def _variant_step(rng: random.Random, w: list[str]) -> list[str]:
    """One rewrite that keeps the word's value in Mod(S2).

    With a, b plain twists: (a, b) -> (a(b), a) since t_a(b) t_a = t_a t_b;
    (a, b) -> (b, b^-1(a)) since t_b t_b^-1(a) = t_a t_b; for chain curves
    one apart, (a, b) -> (b, a(b)) by the braid relation; for chain curves
    two or more apart, (a, b) -> (b, a) since they are disjoint.
    """
    plain = [p for p in range(len(w) - 1) if _chain_index(w[p]) and _chain_index(w[p + 1])]
    if not plain:
        return w
    p = rng.choice(plain)
    a, b = w[p], w[p + 1]
    gap = abs(_chain_index(a) - _chain_index(b))
    kind = rng.choice(("left", "right", "swap"))
    if kind == "swap" and gap >= 2:
        pair = [b, a]
    elif kind == "swap" and gap == 1:
        pair = [b, f"[{a}]({b})"]
    elif kind == "right":
        pair = [b, f"[{b}^-1]({a})"]
    else:
        pair = [f"[{a}]({b})", a]
    return w[:p] + pair + w[p + 2:]


def _variants(rng: random.Random, w: list[str], moves: int) -> list[str]:
    for _ in range(moves):
        w = _variant_step(rng, w)
    return w


# Every fiber sum of one to three bases.  Relator op i takes sum i mod 19,
# summands in seeded order, so each pass holds the same spread of lengths.
PI1_SUMS = [combo for k in (1, 2, 3)
            for combo in itertools.combinations_with_replacement(sorted(PI1_BASES), k)]


def _relator_word(rng: random.Random, i: int) -> list[str]:
    combo = list(PI1_SUMS[i % len(PI1_SUMS)])
    rng.shuffle(combo)
    w = [t for name in combo for t in PI1_BASES[name]]
    return _variants(rng, w, i % 4)


def _pi1_verify(rng: random.Random, workdir: Path, reg_path: str) -> list[dict]:
    items: list[tuple[str, str, str, int]] = []  # (id, class, file text, answer)
    for i in range(PI1_SHARES["relator"]):
        w = _relator_word(rng, i)
        items.append((f"relator-{i:02d}", "relator", f"relator r = {' '.join(w)}", 0))
    for i in range(PI1_SHARES["homology"]):
        w = _relator_word(rng, i)
        plain = [p for p, t in enumerate(w) if _chain_index(t)]
        del w[rng.choice(plain)]
        items.append((f"homology-{i:02d}", "homology", f"relator r = {' '.join(w)}", 1))
    for i in range(PI1_SHARES["td5"]):
        w = [t for _ in range(5) for t in rng.choice(TD_SPELLINGS)]
        w = _variants(rng, w, i % 3)
        items.append((f"td5-{i:02d}", "td5", f"relator r = {' '.join(w)}", 1))
    for i in range(PI1_SHARES["bare-inverse"]):
        w = [f"c{rng.randint(1, 5)}" + ("^-1" if rng.random() < 0.4 else "")
             for _ in range(rng.randint(2, 8))]
        if not any(t.endswith("^-1") for t in w):
            w[rng.randrange(len(w))] += "^-1"
        items.append((f"bare-inverse-{i:02d}", "bare-inverse", " ".join(w), 2))
    for name, text in TORELLI.items():
        items.append((name, "torelli", f"relator r = {text}", 1))
    for name, text in TORELLI_SLOW.items():
        items.append((name, "torelli-slow", f"relator r = {text}", 1))
    ops = []
    for ident, cls, text, answer in items:
        path = workdir / f"{ident}.mcg"
        path.write_text(text + "\n", encoding="utf-8")
        op = _op(f"pi1/{ident}", cls, ["--registry", reg_path, "--pi1", "verify", str(path)],
                 exit=answer)
        ops += [op] * (1 if cls.startswith("torelli") else PI1_REPEATS)
    rng.shuffle(ops)
    return ops


# -- decompose-sweep -------------------------------------------------------------

DECOMPOSE_N, DECOMPOSE_S = 40, 20  # the grid 0..40 x 0..20, 861 ops


def decompose_summary(n: int, s: int) -> str:
    """Summary line of ``decompose n s``, counted without the program.

    A summand (a, b) of a genus-2 fiber sum must satisfy a + 2b = 0 mod 10,
    must not be (10,0) or (8,1), needs at least 7 singular fibers and at
    least one irreducible one.  Splits are unordered and both summands
    nonempty.
    """
    def allowed(a: int, b: int) -> bool:
        return ((a + 2 * b) % 10 == 0 and (a, b) not in ((10, 0), (8, 1))
                and a + b >= 7 and not (a == 0 and b > 0))

    k = 0
    for s1 in range(s + 1):
        for n1 in range(n + 1):
            first, second = (n1, s1), (n - n1, s - s1)
            if first <= second and sum(first) and sum(second):
                k += allowed(*first) and allowed(*second)
    return "None" if k == 0 else "Unique" if k == 1 else f"Multiple({k})"


def _decompose_sweep(rng: random.Random) -> list[dict]:
    grid = [(n, s) for n in range(DECOMPOSE_N + 1) for s in range(DECOMPOSE_S + 1)]
    rng.shuffle(grid)
    return [
        _op(f"decompose/{n},{s}", "grid", ["decompose", str(n), str(s)],
            exit=0, last=f"summary: {decompose_summary(n, s)}")
        for n, s in grid
    ]
