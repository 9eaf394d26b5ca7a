"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

REGISTRY = str(ROOT / "src" / "g2mcg" / "corpus" / "standard.reg")


def _inputs(workload: str, seed: int, workdir: Path) -> tuple[list[dict], dict[str, str]]:
    ops = workloads.build(workload, seed, workdir, REGISTRY)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(workdir.iterdir())}
    return ops, files


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        PER_LAYER + run.OVERHEAD)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    second = _inputs(workload, 7, tmp_path / "b")
    assert json.dumps(first[0]).replace("/a/", "/b/") == json.dumps(second[0])
    assert first[1] == second[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload, tmp_path):
    assert _inputs(workload, 7, tmp_path / "a") != _inputs(workload, 8, tmp_path / "a")


def test_pi1_class_shares_are_fixed(tmp_path):
    for seed in (1, 2):
        ops = workloads.build("pi1-verify", seed, tmp_path / str(seed), REGISTRY)
        inputs = {op["id"]: op["cls"] for op in ops}
        counts = {cls: list(inputs.values()).count(cls) for cls in set(inputs.values())}
        assert counts == {**workloads.PI1_SHARES, "torelli": 1, "torelli-slow": 2}
        assert len(ops) == workloads.PI1_REPEATS * sum(workloads.PI1_SHARES.values()) + 3


def test_long_replay_round_trip_over_many_seeds():
    from g2mcg.fixtures import load_corpus
    from g2mcg.moves import replay
    from g2mcg.registry import Registry

    reg = Registry.parse(Path(REGISTRY).read_text(encoding="utf-8"))
    relators = sorted(load_corpus(reg).relators.values(), key=lambda r: r.label)
    for seed in range(12):
        rng = random.Random(seed)
        for corrupt in ("", "checkpoint", "illegal"):
            parts = rng.choices(relators, k=4)
            kinds = rng.choices(workloads.MOVE_KINDS, k=4)
            script, fail_at = workloads.long_script(rng, reg, parts, "walk", kinds, corrupt)
            report = replay(reg, script)
            if corrupt:
                assert not report.ok, (seed, corrupt)
                assert report.failure.startswith(f"step {fail_at}:"), (seed, corrupt)
            else:
                assert report.ok and report.final_word == script.start, seed


@pytest.mark.parametrize("n,s,summary", [
    (0, 0, "None"), (26, 2, "Unique"), (40, 0, "Unique"), (18, 6, "Multiple(2)"),
    (60, 10, "Multiple(29)"), (100, 20, "Multiple(100)"),
])
def test_decompose_reference(n, s, summary):
    assert workloads.decompose_summary(n, s) == summary


def test_times_scale_with_the_calibration():
    ops = [{"id": f"op{i}"} for i in range(4)]
    fast = {"ms": [10.0, 20.0, 30.0, 40.0] * 30, "calib_ms": [0.5] * 120,
            "outcomes": [], "peak_rss_mb": 20.0}
    slow = {**fast, "ms": [2 * t for t in fast["ms"]], "calib_ms": [1.0] * 120}
    first, second = (run.end_to_end(ops, report, 0, 0.1) for report in (fast, slow))
    assert first == second
    assert first["op_p50_ms"] == run.REF_CALIB_MS / 0.5 * 25.0


def _trace(ops_file: Path, out: Path) -> dict:
    timed = [sys.executable, str(ROOT / "bench" / "timed.py"), str(ROOT), "trace",
             str(ops_file), str(out), "--limit", "0.2"]
    subprocess.run(timed, check=True, timeout=120)
    return json.loads(out.read_text(encoding="utf-8"))


def test_same_seed_same_counts(tmp_path):
    # Cheap ops plus one that always runs past the 0.2 s limit: the counts
    # and shares must still repeat exactly.
    ops = workloads.build("pi1-verify", 3, tmp_path, REGISTRY)
    cheap = [op for op in ops if op["cls"] in ("bare-inverse", "homology")][:20]
    ops = cheap + [op for op in ops if op["cls"] == "torelli"]  # td.tdpp takes over 1 s
    ops_file = tmp_path / "ops.json"
    ops_file.write_text(json.dumps(ops), encoding="utf-8")
    reports = [_trace(ops_file, tmp_path / f"out{i}.json") for i in range(2)]
    counts = []
    for report in reports:
        outcomes = report["outcomes"]
        assert sum(e[-1] for e in outcomes if e[1] == "timeout") == len(report["ms"]) // len(ops)
        counts.append({
            "agreed": sum(e[-1] for e in outcomes if run.agrees(ops[e[0]], *e[1:4])),
            "decided": sum(e[-1] for e in outcomes if e[1] != "timeout"),
            **{k: v for k, v in report["layers"].items()
               if k.rpartition(".")[2] in ("calls", "letters", "letters_in", "forms", "capped",
                                           "illegal", "candidates")},
        })
    assert counts[0] == counts[1]
    assert counts[0]["pi1.dehn_reduce.calls"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
