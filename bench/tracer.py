"""Per-layer tracing of g2mcg from outside the package.

``Tracer.install()`` replaces the public functions named in ``LAYERS`` with
wrappers that record a span per call: name, op, parent span, start and end.
A function imported by name into another module (``cli`` imports
``replay``, ``parse_document``, ``load_corpus`` ...) is bound there to the
same wrapper, so each call makes one span whatever name it went through.

Spans stay in memory, in flat arrays, and ``dump`` writes them out.
Counters are kept per op and merged into the totals only when the op
finished inside its time limit, so every count repeats exactly for the same
inputs; spans are closed in ``finally`` and the stack is reset between ops,
so a time-out leaves nothing open.  A layer's self time is its span minus
the spans of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


# Counters: each adds to the op's counts from a call's arguments and result.


def _letters(counts, name, fn, args, kwargs, result):
    counts[name + ".letters"] += len(args[1])


def _letters_in(counts, name, fn, args, kwargs, result):
    counts[name + ".letters_in"] += len(args[0])


def _bytes(counts, name, fn, args, kwargs, result):
    counts[name + ".bytes"] += len(args[0].encode("utf-8"))


def _forms(counts, name, fn, args, kwargs, result):
    cap = kwargs.get("cap", args[1] if len(args) > 1 else fn.__defaults__[0])
    counts[name + ".forms"] += len(result)
    counts[name + ".capped"] += len(result) >= cap


def _splits(counts, name, fn, args, kwargs, result):
    counts[name + ".candidates"] += len(result.candidates)
    counts[name + ".admissible"] += len(result.admissible)


# (module, attribute path, counter); the metric prefix is module.path.
LAYERS = (
    ("homology", "mat_mul", None),
    ("registry", "Registry.image", _letters),
    ("registry", "Registry.canonical_curve", None),
    ("registry", "Registry.disjoint", None),
    ("registry", "Registry.parse", None),
    ("moves", "apply_move", None),
    ("moves", "replay", None),
    ("pi1", "word_action", None),
    ("pi1", "dehn_reduce", _letters_in),
    ("pi1", "cyclic_forms", _forms),
    ("pi1", "conjugate_elements", None),
    ("dsl", "parse_document", _bytes),
    ("fixtures", "load_corpus", None),
    ("decompose", "admissible_splits", _splits),
    ("invariants", "invariants", None),
    ("cli", "main", None),
)

CANONICAL = "registry.Registry.canonical_curve"
APPLY_MOVE = "moves.apply_move"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # One entry per span, in order of opening.
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, time in wrapped children]
        self.op = -1
        self.op_counts: defaultdict[str, float] = defaultdict(float)
        self.op_distinct: set = set()
        self.totals: defaultdict[str, float] = defaultdict(float)

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()
        self.op_counts.clear()
        self.op_distinct.clear()

    def end_op(self, keep: bool) -> None:
        """Merge the op's counters into the totals, or drop them (time-out)."""
        self.stack.clear()
        if keep:
            for key, value in self.op_counts.items():
                self.totals[key] += value
            self.totals[CANONICAL + ".distinct"] += len(self.op_distinct)
        self.op_counts.clear()
        self.op_distinct.clear()

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        ident = len(self.names)
        self.names.append(name)
        counts = self.op_counts
        stack = self.stack
        distinct = self.op_distinct if name == CANONICAL else None
        illegal = None
        if name == APPLY_MOVE:
            illegal = importlib.import_module("g2mcg.moves").IllegalMove

        calls_key, total_key, self_key = name + ".calls", name + ".total_s", name + ".self_s"
        span_name, span_op, span_parent, span_start, span_end = (
            self.span_name, self.span_op, self.span_parent, self.span_start, self.span_end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(ident)
            span_op.append(self.op)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if illegal is not None and isinstance(exc, illegal):
                    counts[name + ".illegal"] += 1
                raise
            else:
                if counter is not None:
                    counter(counts, name, fn, args, kwargs, result)
                if distinct is not None:
                    distinct.add(args[1])
            finally:
                end = perf_counter()
                span_start[index] = start
                span_end[index] = end
                if stack and stack[-1] is frame:
                    stack.pop()
                total = end - start
                counts[calls_key] += 1
                counts[total_key] += total
                counts[self_key] += total - frame[1]
                if stack:
                    stack[-1][1] += total
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer and rebind each name under which g2mcg holds it."""
        for module, path, counter in LAYERS:
            mod = importlib.import_module(f"g2mcg.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self.wrap(f"{module}.{path}", fn, counter)
            setattr(owner, attr, staticmethod(wrapper) if fn is not raw else wrapper)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("g2mcg"):
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every layer metric of PER_LAYER, over the ops that finished."""
        t = self.totals

        def share(num: str, den: str) -> float:
            return t[num] / t[den] if t[den] else 0.0

        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            prefix, _, stat = metric.rpartition(".")
            if stat == "self_ms":
                out[metric] = t[prefix + ".self_s"] * 1e3
            elif stat == "distinct_share":
                out[metric] = share(prefix + ".distinct", prefix + ".calls")
            elif stat == "admissible_share":
                out[metric] = share(prefix + ".admissible", prefix + ".candidates")
            elif stat == "bytes_per_s":
                out[metric] = share(prefix + ".bytes", prefix + ".total_s")
            else:
                out[metric] = int(t[metric])
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as raw arrays to ``path``, described by path.json.

        A span whose end is 0.0 never closed: its op ran past the limit.
        """
        arrays = ("span_name", "span_op", "span_parent", "span_start", "span_end")
        with open(path, "wb") as fh:
            for attr in arrays:
                getattr(self, attr).tofile(fh)
        layout = {"spans": len(self.span_name), "names": self.names,
                  "arrays": [[attr, getattr(self, attr).typecode] for attr in arrays]}
        Path(f"{path}.json").write_text(json.dumps(layout), encoding="utf-8")


def _layer(name: str, *stats: str) -> list[tuple[str, str, str]]:
    units = {"self_ms": ("ms", "lower"), "bytes_per_s": ("B/s", "higher"),
             "distinct_share": ("share", "lower"), "admissible_share": ("share", "higher")}
    return [(f"{name}.{stat}", *units.get(stat, ("count", "lower"))) for stat in stats]


# (metric, unit, better) for every per-layer metric a traced run reports.
PER_LAYER = tuple(
    _layer("homology.mat_mul", "calls", "self_ms")
    + _layer("registry.Registry.image", "calls", "letters", "self_ms")
    + _layer(CANONICAL, "calls", "distinct_share", "self_ms")
    + _layer("registry.Registry.disjoint", "calls", "self_ms")
    + _layer("registry.Registry.parse", "self_ms")
    + _layer(APPLY_MOVE, "calls", "illegal", "self_ms")
    + _layer("moves.replay", "calls", "self_ms")
    + _layer("pi1.word_action", "calls", "self_ms")
    + _layer("pi1.dehn_reduce", "calls", "letters_in", "self_ms")
    + _layer("pi1.cyclic_forms", "calls", "forms", "capped")
    + _layer("pi1.conjugate_elements", "calls")
    + _layer("dsl.parse_document", "calls", "self_ms", "bytes_per_s")
    + _layer("fixtures.load_corpus", "self_ms")
    + _layer("decompose.admissible_splits", "calls", "candidates", "admissible_share", "self_ms")
    + _layer("invariants.invariants", "calls", "self_ms")
    + _layer("cli.main", "self_ms")
)
