"""The timed process: runs a pass of ops through ``g2mcg.cli.main`` in-process.

    python3 bench/timed.py ROOT probe REGISTRY
    python3 bench/timed.py ROOT run OPS OUT --seconds S --limit L
    python3 bench/timed.py ROOT trace OPS OUT --limit L

``g2mcg`` is imported from ROOT/src.  One client runs the ops one after the
other (a closed loop); each op gets ``--limit`` seconds, enforced with
``signal.setitimer``, and its stdout and stderr are captured.

probe  times what a CLI process does before its first op: import g2mcg,
       parse the registry file, load the corpus.  Prints that time and the
       median import calibration time around it, in seconds, as a JSON list.
run    repeats whole passes while the next pass still fits in ``--seconds``
       (and until at least MIN_OPS ops ran), timing the calibration kernel
       before every op, then writes every op's latency and the calibration
       time before it, the distinct outcomes and first and last output lines
       of each op of the pass, and the peak RSS.
trace  runs the same fixed number of passes untraced and then traced (see
       tracer.py), so both counts and overhead repeat for the same inputs;
       writes the traced passes' outcomes and layer metrics, and the spans
       to spans.bin beside OUT.
"""

from __future__ import annotations

import argparse
import io
import json
import marshal
import math
import resource
import signal
import statistics
import sys
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

MIN_OPS = 100  # so that at least ten ops lie beyond the p90
PROBE_CALIBRATIONS = 5  # kernel runs before and after the probed set-up


# The calibration kernel: fixed pure-Python work of the kinds g2mcg does
# (4x4 integer matrix products in generator expressions, small objects,
# sorting and grouping tuples, splitting text), independent of g2mcg, so
# that its time measures the speed of the machine at that moment and
# nothing of the program under test.
_MAT = ((1, 2, 0, -1), (0, 1, 3, 0), (2, 0, 1, 1), (-1, 0, 0, 1))
_TEXT = "\n".join(
    f"relator r{i} = " + " ".join(f"c{i * j % 5 + 1}^{j % 3 - 1}" for j in range(30))
    for i in range(8))


class _Item:
    __slots__ = ("name", "exp", "conj")

    def __init__(self, name: str, exp: int, conj: tuple) -> None:
        self.name, self.exp, self.conj = name, exp, conj


def _kernel() -> int:
    a = _MAT
    for _ in range(12):
        a = tuple(tuple(sum(a[i][k] * _MAT[k][j] for k in range(4)) for j in range(4))
                  for i in range(4))
        a = tuple(tuple(x % 97 for x in row) for row in a)
    items = sorted((it.name, it.exp, it.conj) for it in (
        _Item(f"c{i % 5}", i % 3 - 1, (f"c{i % 4}",) if i % 2 else ()) for i in range(300)))
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(item[0], []).append(item)
    n = 0
    for line in _TEXT.splitlines():
        for token in line.partition("=")[2].split():
            name, _, exp = token.partition("^")
            n += int(exp) + len(name)
    return n + len(groups) + a[0][0]


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


# Set-up is mostly importing, which slows down less than _kernel when the
# machine does, so the probe is calibrated with import-like work instead:
# loading and running the byte code of a fixed module of small classes.
_MODULE = marshal.dumps(compile("\n".join(
    f"class C{i}:\n"
    f"    x = {i}\n"
    f"    def __init__(self, a, b=None):\n"
    f"        self.a, self.b = a, b\n"
    f"    def m(self, k):\n"
    f"        return [self.a * j for j in range(k) if j % {i % 5 + 2}]\n"
    f"    @property\n"
    f"    def p(self):\n"
    f"        return (self.a, self.b, {i})\n"
    f"def f{i}(w, *, cap={i}):\n"
    f"    return {{t: len(t) for t in w.split()}}\n"
    f"T{i} = tuple(range({i % 17}))"
    for i in range(60)), "<calibration>", "exec"))


def calibrate_import() -> float:
    """Seconds loading and running the byte code of _MODULE takes now."""
    start = perf_counter()
    exec(marshal.loads(_MODULE), {"__name__": "calibration"})
    return perf_counter() - start


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its limit."""


def _alarm(signum, frame):
    raise OpTimeout


def run_op(cli, argv: list[str], limit: float) -> list:
    """[outcome, ms, first line, last line]; outcome is the exit code,
    "timeout", or "raised <exception type>"."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                outcome = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        outcome = "timeout"
    except SystemExit as exc:  # argparse rejects the arguments
        outcome = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        outcome = f"raised {type(exc).__name__}"
    ms = (perf_counter() - start) * 1e3
    lines = out.getvalue().strip().splitlines()
    return [outcome, ms, lines[0] if lines else "", lines[-1] if lines else ""]


class Passes:
    """Outcomes of whole passes over ``ops``.

    Memory does not grow with the number of passes beyond one float per
    op: each op's distinct (outcome, first line, last line) is kept once
    with a count, so peak RSS does not depend on how fast the run went.
    """

    def __init__(self, cli, ops: list[dict], limit: float, tracer=None,
                 calibrated: bool = False) -> None:
        self.cli, self.ops, self.limit, self.tracer = cli, ops, limit, tracer
        self.ms = array("d")
        self.calib_ms = array("d") if calibrated else None  # kernel time before each op
        self.outcomes: Counter = Counter()  # (op index, outcome, first, last) -> count
        self.pass_s: list[float] = []

    def run(self, passes: int = 0, seconds: float = 0.0) -> "Passes":
        """``passes`` passes, or as many as fit in ``seconds`` (see module doc)."""
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            for i, op in enumerate(self.ops):
                if self.calib_ms is not None:
                    self.calib_ms.append(calibrate() * 1e3)
                if self.tracer is not None:
                    self.tracer.begin_op(len(self.ms))
                outcome, ms, first, last = run_op(self.cli, op["argv"], self.limit)
                if self.tracer is not None:
                    self.tracer.end_op(keep=outcome != "timeout")
                self.ms.append(ms)
                self.outcomes[i, outcome, first, last] += 1
            now = perf_counter()
            self.pass_s.append(now - pass_start)
            if passes:
                if len(self.pass_s) >= passes:
                    return self
            elif len(self.ms) >= MIN_OPS and (now - start) + self.pass_s[-1] > seconds:
                return self

    def report(self) -> dict:
        return {"ms": list(self.ms),
                "calib_ms": list(self.calib_ms or ()),
                "outcomes": [[*key, n] for key, n in self.outcomes.items()]}


def probe(registry_path: str) -> list[float]:
    calibrate_import()  # warm-up
    calib = [calibrate_import() for _ in range(PROBE_CALIBRATIONS)]
    start = perf_counter()
    from g2mcg import cli  # noqa: F401  (imports every module a CLI call needs)
    from g2mcg.fixtures import load_corpus
    from g2mcg.registry import Registry

    with open(registry_path, encoding="utf-8") as fh:
        reg = Registry.parse(fh.read())
    load_corpus(reg)
    setup = perf_counter() - start
    calib += [calibrate_import() for _ in range(PROBE_CALIBRATIONS)]
    return [setup, statistics.median(calib)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("mode", choices=("probe", "run", "trace"))
    parser.add_argument("inputs", help="registry file (probe) or ops file")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--limit", type=float, help="seconds per op")
    args = parser.parse_args()
    src = args.root / "src"
    sys.path.insert(0, str(src))
    if args.mode == "probe":
        print(json.dumps(probe(args.inputs)))
        return 0

    from g2mcg import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"g2mcg imported from {cli.__file__}, not from {src}")
    ops = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    signal.signal(signal.SIGALRM, _alarm)
    if args.mode == "run":
        timed = Passes(cli, ops, args.limit, calibrated=True).run(seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report = {**timed.report(), "peak_rss_mb": peak_rss_mb}
    else:
        from tracer import Tracer

        count = math.ceil(MIN_OPS / len(ops))
        plain = Passes(cli, ops, args.limit).run(passes=count)
        tracer = Tracer()
        tracer.install()
        traced = Passes(cli, ops, args.limit, tracer).run(passes=count)
        report = traced.report()
        report["layers"] = tracer.metrics()
        report["untraced_ops_per_s"] = len(plain.ms) / sum(plain.pass_s)
        report["traced_ops_per_s"] = len(traced.ms) / sum(traced.pass_s)
        tracer.dump(Path(args.out).with_name("spans.bin"))
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
