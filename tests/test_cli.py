from pathlib import Path

import pytest

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
