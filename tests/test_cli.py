import os
import subprocess
import sys
from pathlib import Path

import pytest

import g2mcg
from g2mcg.cli import main
from g2mcg.fixtures import read_text
from g2mcg.registry import standard_registry


@pytest.fixture()
def x0_file(tmp_path):
    p = tmp_path / "x0.mcg"
    p.write_text("relator X0 = (B0 B1 c1 c2 c3 c4 c5^2 c4 [c3](c2) c1^3 c5^2)^2\n")
    return str(p)


def test_verify_passes_on_relator(x0_file, capsys):
    assert main(["verify", x0_file]) == 0
    out = capsys.readouterr().out
    assert "(n,s) = (30,0)" in out
    assert "e=26" in out and "sigma=-18" in out


def test_verify_fails_on_single_letter(tmp_path, capsys):
    p = tmp_path / "c.mcg"
    p.write_text("c1")
    assert main(["verify", str(p)]) == 1
    assert "image != identity" in capsys.readouterr().out


def test_verify_matsumoto(tmp_path, capsys):
    p = tmp_path / "m.mcg"
    p.write_text("(B0 B1 B2 d)^2")
    assert main(["verify", str(p)]) == 0
    assert "(n,s) = (6,2)" in capsys.readouterr().out


def test_verify_records_format(x0_file, capsys):
    assert main(["--format", "records", "verify", x0_file]) == 0
    out = capsys.readouterr().out
    assert "identity=True" in out and "n=30" in out


def test_verify_pi1_flag(tmp_path, capsys):
    p = tmp_path / "r.mcg"
    p.write_text("(c1 c2 c3 c4 c5)^6")
    assert main(["--pi1", "verify", str(p)]) == 0
    assert "pi1" in capsys.readouterr().out


def test_verify_parse_error(tmp_path):
    p = tmp_path / "bad.mcg"
    p.write_text("c1 c2^-1")  # not positive
    assert main(["verify", str(p)]) == 2


def test_verify_unknown_curve(tmp_path):
    p = tmp_path / "bad.mcg"
    p.write_text("zz")
    assert main(["verify", str(p)]) == 2


def test_replay_builtin_scripts(capsys):
    assert main(["replay", "z-family", "--builtin"]) == 0
    out = capsys.readouterr().out
    assert "script z-family: ok" in out


def test_replay_file_with_illegal_swap(tmp_path, capsys):
    p = tmp_path / "bad.mcg"
    p.write_text(
        "script bad\nstart: (c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2\n~ commute @0\nend\n"
    )
    assert main(["replay", str(p)]) == 1
    assert "not declared disjoint" in capsys.readouterr().out


def test_replay_missing_builtin(capsys):
    assert main(["replay", "nope", "--builtin"]) == 2


def test_decompose_command(capsys):
    assert main(["decompose", "26", "2"]) == 0
    out = capsys.readouterr().out
    assert "summary: Unique" in out


def test_decompose_18_6(capsys):
    assert main(["decompose", "18", "6"]) == 0
    out = capsys.readouterr().out
    assert "(6,2) + (12,4)" in out.replace("admissible", "admissible")
    assert "(4,3) + (14,3)" in out


def test_decompose_trivial(capsys):
    assert main(["decompose", "0", "0"]) == 0
    assert "summary: None" in capsys.readouterr().out


def test_decompose_rejects_negative(capsys):
    assert main(["decompose", "-1", "0"]) == 2


def test_registry_check_standard(capsys):
    assert main(["registry-check"]) == 0


def test_registry_check_corrupted(tmp_path, capsys):
    reg = standard_registry()
    text = reg.serialize().replace("d sep h=(0,0,0,0)", "d nonsep h=(0,0,0,0)")
    p = tmp_path / "bad.reg"
    p.write_text(text)
    assert main(["--registry", str(p), "registry-check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_registry_check_missing_lantern(tmp_path):
    reg = standard_registry()
    lines = [
        l for l in reg.serialize().splitlines() if not l.startswith("L3:")
    ]
    p = tmp_path / "partial.reg"
    p.write_text("\n".join(lines))
    assert main(["--registry", str(p), "registry-check"]) == 1


def test_out_flag(tmp_path, x0_file):
    dest = tmp_path / "report.txt"
    assert main(["--out", str(dest), "verify", x0_file]) == 0
    assert "(30,0)" in dest.read_text()


def test_missing_file():
    assert main(["verify", "/nonexistent/file.mcg"]) == 2


def test_registry_file_loads_from_corpus(tmp_path):
    p = tmp_path / "std.reg"
    p.write_text(read_text("standard.reg"))
    assert main(["--registry", str(p), "registry-check"]) == 0


@pytest.mark.parametrize("text, status", [
    ("relator X0 = (B0 B1 c1 c2 c3 c4 c5^2 c4 [c3](c2) c1^3 c5^2)^2", 0),
    ("relator odd = c1 c2", 1),  # 3n+s = 6: invariants are not integral
])
def test_verify_records_print_signature_once(tmp_path, capsys, text, status):
    p = tmp_path / "r.mcg"
    p.write_text(text)
    assert main(["--format", "records", "verify", str(p)]) == status
    out = capsys.readouterr().out
    assert out.count(" n=") == 1 and out.count(" s=") == 1


def test_replay_rejects_pi1(capsys):
    assert main(["--pi1", "replay", "z-family", "--builtin"]) == 2
    assert "applies to verify only" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["c1 nonsep h=(1,0,0)", "c1 is a curve"])
def test_malformed_registry_file(tmp_path, capsys, line):
    p = tmp_path / "bad.reg"
    p.write_text(line + "\n")
    assert main(["--registry", str(p), "registry-check"]) == 2
    assert "cannot parse registry line" in capsys.readouterr().err


# Registries whose data disagree, each with a move that breaks the image.
BROKEN_REPLAYS = {
    # B2's declared class (0,1,0,1) differs from that of its def=[c3^-1](x),
    # (1,0,1,0), so the B2def alias move changes the image.
    "b2": (
        ("B2 nonsep h=(1,0,1,0)", "B2 nonsep h=(0,1,0,1)"),
        "start: c1 B2 c2\nalias @1 rel=B2def",
        "[FAIL]   1 alias @1 rel=B2def dir=fwd  move broke the homology image",
    ),
    # A lantern that drops a c1 next to another c1: the words agree on
    # c1 ... c5 c5, but the shared ends overlap and must not both cancel.
    "l1": (
        ("L1: c1 c1 c5 c5 = x c3 d", "L1: c1 c1 c5 c5 = c1 c5 c5"),
        "start: c1 c1 c5 c5\nL @0 inst=L1 dir=down",
        "[FAIL]   1 L @0 inst=L1 dir=down out=0  move broke the homology image",
    ),
}


@pytest.fixture(params=sorted(BROKEN_REPLAYS))
def broken_replay(tmp_path, request):
    (old, new), body, failed_step = BROKEN_REPLAYS[request.param]
    reg = tmp_path / "broken.reg"
    reg.write_text(read_text("standard.reg").replace(old, new))
    script = tmp_path / "broken.mcg"
    script.write_text(f"script broken\n{body}\nend\n")
    return ["--registry", str(reg), "replay", str(script)], failed_step


def test_replay_reports_a_move_that_breaks_the_image(broken_replay, capsys):
    argv, failed_step = broken_replay
    assert main(argv) == 1
    assert failed_step in capsys.readouterr().out


def test_image_check_holds_under_python_O(broken_replay):
    argv, failed_step = broken_replay
    src = str(Path(g2mcg.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "g2mcg.cli", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert failed_step in proc.stdout
