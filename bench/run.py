"""Benchmark of the g2mcg checker, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; g2mcg is taken from its ``src``.  The
seeded inputs are written to ``.bench_work/<workload>/`` before the timed
process (timed.py) starts; that process runs them through ``g2mcg.cli.main``
in a closed loop with one client, and every verdict is checked here against
its known answer (workloads.py).  Ops with a wrong verdict are listed by id.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones below; with ``--trace 1`` they are the per-layer counts and
self times of tracer.py plus the untraced and traced op rates of the same
passes, whose ratio is the tracing overhead.  ``correct`` is false when an
op got a wrong verdict other than the known defect workloads.KNOWN_DEFECTS
lists for its class; ``failed`` counts every wrong verdict, known or not.

Times are given at a reference speed of the machine.  On a 2-core x86 VM
whose cores are shared with other machines, the speed flips between two
levels about 1.8x apart, every few seconds or for minutes at a time, so
over ten 20 s runs the quartile spread of raw times reached 0.3 to 0.5 of
their median.  The
timed process therefore also times a fixed calibration kernel (timed.py)
before every op, and each op's time is scaled by REF_CALIB_MS over the
median kernel time of the SPEED_WINDOW ops on either side of it: a time
reads as it would on a machine where the kernel takes REF_CALIB_MS.  The
kernel does not use g2mcg, so a change to the program moves every time in
full.  Ops slow down a little less than the kernel (a log-log slope of about
0.8 over 2600 interleaved pairs), so in a slow phase scaled times read up to
about 10% low; over ten runs their quartile spread stayed within 0.05.
Each input runs several times in a run and its op time is the median of
its scaled times.

End-to-end metrics:
    setup_s        median over SETUP_PROBES fresh processes of importing
                   g2mcg, parsing the registry and loading the corpus,
                   each scaled by the import calibration times around it
    ops_per_s      ops (CLI calls) per second of time spent in them
    op_p50_ms      median time to a verdict over the run's ops; a time-out
                   counts as the limit, unscaled
    op_p90_ms      90th percentile of the same
    agreed_share   ops whose verdict matches the known answer, over ops
                   attempted (1 - the share of failed ops)
    decided_share  ops that returned within the per-op limit, over attempted
    peak_rss_mb    peak resident memory of the timed process
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from tracer import PER_LAYER

# Per op.  The slowest input that finishes (pi1 td.tdpp) takes 1.5-2.3 s
# untraced and about 1.9 s traced on a 2-core x86 VM; the fastest that does
# not (td5.tdpp) takes 16 s.  Both stay a factor 2.5 or more from the limit.
OP_LIMIT_S = 6.0
SETUP_PROBES = 11
# Calibration kernel time that defines the reference speed: timed.py's op
# kernel takes 0.6-0.7 ms on that VM when it runs fast and 1.1-1.3 ms when it
# runs slow, its import kernel 0.8 and 1.2-1.6 ms.
REF_CALIB_MS = 1.0
SPEED_WINDOW = 2
DEADLINE_S = 170.0  # the whole run, generation and probes included

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("agreed_share", "share"),
    ("decided_share", "share"),
    ("peak_rss_mb", "MB"),
)
OVERHEAD = (
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
)


def agrees(op: dict, outcome, first: str, last: str) -> bool:
    expect = op["expect"]
    if outcome != expect["exit"]:
        return False
    if "first" in expect and first != expect["first"]:
        return False
    if "last" in expect and last != expect["last"]:
        return False
    if "fail_step" in expect:
        return last.strip().startswith(f"first failure: step {expect['fail_step']}:")
    return True


def setup_seconds(root: Path, registry: str, timeout: float) -> float:
    timed = [sys.executable, str(root / "bench" / "timed.py"), str(root), "probe", registry]
    samples = []
    for i in range(SETUP_PROBES + 1):  # the first one only warms the bytecode cache
        done = subprocess.run(timed, capture_output=True, text=True, check=True, timeout=timeout)
        setup, calib = json.loads(done.stdout)
        if i:
            samples.append(setup * REF_CALIB_MS / (calib * 1e3))
    return statistics.median(samples)


def check(ops: list[dict], outcomes: list) -> tuple[Counter, set]:
    """Wrong verdicts as {(op index, outcome): times}, and which of them are
    the known defect of their class; prints each wrong one by input id."""
    wrong: Counter = Counter()
    for i, outcome, first, last, times in outcomes:
        if not agrees(ops[i], outcome, first, last):
            wrong[i, outcome] += times
    known = {(i, outcome) for i, outcome in wrong
             if workloads.KNOWN_DEFECTS.get(ops[i]["cls"], (None,))[0] == outcome}
    for (i, outcome), times in sorted(wrong.items(), key=lambda item: ops[item[0][0]]["id"]):
        op = ops[i]
        why = workloads.KNOWN_DEFECTS[op["cls"]][1] if (i, outcome) in known else "unexpected"
        print(f"wrong: {op['id']} expected {op['expect']} got {outcome!r} ({times}x): {why}")
    return wrong, known


def end_to_end(ops: list[dict], report: dict, failed: int, setup_s: float) -> dict[str, float]:
    ms, calib = report["ms"], report["calib_ms"]
    limit_ms = OP_LIMIT_S * 1e3
    scaled: dict[str, list[float]] = {}  # input id -> its times at the reference speed
    for k, latency in enumerate(ms):
        near = calib[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1]
        op_ms = limit_ms if latency >= limit_ms else latency * REF_CALIB_MS / statistics.median(near)
        scaled.setdefault(ops[k % len(ops)]["id"], []).append(op_ms)
    median = {ident: statistics.median(values) for ident, values in scaled.items()}
    times = [median[ops[k % len(ops)]["id"]] for k in range(len(ms))]
    timeouts = sum(entry[-1] for entry in report["outcomes"] if entry[1] == "timeout")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / (sum(times) / 1e3),
        "op_p50_ms": statistics.median(times),
        "op_p90_ms": statistics.quantiles(times, n=10)[8],
        "agreed_share": (len(ms) - failed) / len(ms),
        "decided_share": (len(ms) - timeouts) / len(ms),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def _stop(signum, frame):
    # subprocess.run kills and waits for its child when an exception passes.
    raise SystemExit(128 + signum)


def main() -> int:
    started = perf_counter()
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    registry = root / "src" / "g2mcg" / "corpus" / "standard.reg"
    if not (root / "src" / "g2mcg" / "__init__.py").is_file() or not registry.is_file():
        print(f"error: no g2mcg sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workdir = root / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, workdir, str(registry))
    ops_file, out_file = workdir / "ops.json", workdir / "result.json"
    ops_file.write_text(json.dumps(ops), encoding="utf-8")

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - started)

    if not args.trace:
        setup_s = setup_seconds(root, str(registry), remaining())
    timed = [sys.executable, str(root / "bench" / "timed.py"), str(root),
             "trace" if args.trace else "run", str(ops_file), str(out_file),
             "--seconds", str(args.seconds), "--limit", str(OP_LIMIT_S)]
    subprocess.run(timed, check=True, timeout=remaining())
    report = json.loads(out_file.read_text(encoding="utf-8"))

    wrong, known = check(ops, report["outcomes"])
    failed = sum(wrong.values())
    if args.trace:
        values = {**report["layers"],
                  "trace.untraced_ops_per_s": report["untraced_ops_per_s"],
                  "trace.traced_ops_per_s": report["traced_ops_per_s"]}
        units = {name: unit for name, unit, _ in PER_LAYER + OVERHEAD}
    else:
        values = end_to_end(ops, report, failed, setup_s)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": known == set(wrong),
        "attempted": len(report["ms"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
