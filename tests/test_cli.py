import importlib.util
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import g2mcg
from g2mcg import cli, fixtures, pi1
from g2mcg.cli import main
from g2mcg.dsl import ParseError, parse_document, serialize
from g2mcg.fixtures import FILES, SCRIPTS, load_corpus, read_text, script_text
from g2mcg.moves import Lantern
from g2mcg.registry import INCONCLUSIVE, PROVED, Registry, standard_registry
from g2mcg.words import Curve, letter, word_str

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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


def test_verify_says_why_the_invariants_are_undefined(tmp_path, capsys):
    p = tmp_path / "r.mcg"
    p.write_text("relator r = c1 d d")  # (n,s) = (1,2): chi_h is not integral
    assert main(["verify", str(p)]) == 1
    assert "  invariants undefined: sigma+e = -2 is not divisible by 4\n" in capsys.readouterr().out


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


def test_verify_pi1_rejects_td5(tmp_path):
    p = tmp_path / "td5.mcg"
    p.write_text("(c1 c2)^30")  # t_d^5, nontrivial in Mod(S2)
    assert main(["--pi1", "verify", str(p)]) != 0


# t_d^a t_d''^b with a, b > 0 is no relator, yet its image is the identity:
# the ab class 2(a + b) mod 10 refutes it, and where that is 0 only pi1 does
_TORELLI = {
    "(c1 c2)^30 (c2 c3)^6": "inconclusive (the ab class refutes)",
    "(c1 c2)^12 (c2 c3)^12": "inconclusive (the ab class refutes)",
    "(c1 c2)^6 (c2 c3)^6": "inconclusive (the ab class refutes)",
    "(c1 c2)^24 (c2 c3)^6": "refuted",
    "(c1 c2)^18 (c2 c3)^12": "refuted",
}


@pytest.mark.parametrize("text", list(_TORELLI))
def test_verify_pi1_refutes_torelli_products(tmp_path, capsys, text):
    p = tmp_path / "torelli.mcg"
    p.write_text(text)
    assert main(["verify", str(p)]) == 1
    assert f"  pi1: {_TORELLI[text]}\n" in capsys.readouterr().out


_SKIPS = "relator r = (c1 c2 c3 c4 c5)^6\nrelator i = c1 c2\nrelator t = (c1 c2)^6 (c2 c3)^6\n"


@pytest.mark.parametrize("fmt, shown", [
    ("text", ["  pi1: proved\n", "  pi1: inconclusive (the image refutes)\n",
              "  pi1: inconclusive (the ab class refutes)\n"]),
    ("records", ["relator=r identity=True ab=0 n=30 s=0 e=26 sigma=-18 c1sq=-2 chi_h=2 pi1=proved\n",
                 "relator=i identity=False ab=2 n=2 s=0 invariants=non-integral pi1=inconclusive\n",
                 "relator=t identity=True ab=4 n=24 s=0 invariants=non-integral pi1=inconclusive\n"]),
])
def test_verify_pi1_runs_only_on_relators_the_image_and_ab_class_leave_open(
        tmp_path, capsys, monkeypatch, fmt, shown):
    asked = []
    verdict = pi1.relator_verdict

    def counted(reg, w):
        asked.append(w)
        return verdict(reg, w)

    monkeypatch.setattr(pi1, "relator_verdict", counted)
    p = tmp_path / "skips.mcg"
    p.write_text(_SKIPS)
    assert main(["--format", fmt, "verify", str(p)]) == 1
    out = capsys.readouterr().out
    assert len(asked) == 1
    assert all(line in out for line in shown)


@pytest.mark.parametrize("text, status, verdict", [
    ("relator r = (c1 c2 c3 c4 c5)^6", 0, "proved"),
    ("relator r = (c1 c2)^30", 1, "refuted"),
    ("relator M = (B0 B1 B2 d)^2", 0, "proved"),
    ("relator i = c1 c2", 1, "inconclusive"),
])
def test_verify_pi1_records_carry_the_verdict(tmp_path, capsys, text, status, verdict):
    p = tmp_path / "r.mcg"
    p.write_text(text)
    assert main(["--format", "records", "verify", str(p)]) == status
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.startswith("relator=")
    assert out.rstrip("\n").endswith(f" pi1={verdict}")


_X7 = load_corpus(standard_registry()).relators["X7"].word


@pytest.mark.parametrize("old, new", [("d", "h"), ("x", "B2")])
def test_verify_pi1_fails_a_relator_it_could_not_check(tmp_path, capsys, old, new):
    # X7 with its last plain letter swapped for a curve of the same homology
    # class and flag passes in Sp(4,Z) and mod 10; pi1 refutes it
    last = max(p for p, l in enumerate(_X7) if l.curve == Curve(old))
    p = tmp_path / "p2.mcg"
    p.write_text(word_str(_X7[:last] + (letter(new),) + _X7[last + 1 :]))
    assert main(["verify", str(p)]) == 1
    out = capsys.readouterr().out
    assert "image = identity, ab class 0" in out and "  pi1: refuted\n" in out


@pytest.mark.parametrize("reg_edit, text", [
    # x's definition reaches x again, and B2's reaches it through x
    (("x nonsep h=(1,0,1,0) def=[c2^-1 c1^-1 c1^-1 c2^-1](c3)", "x nonsep h=(1,0,1,0) def=[c4](x)"),
     "relator r = ([x](c1) [x](c2) [x](c3) [x](c4) [x](c5))^6"),
    # B0 has no definition, and no table entry
    ((" def=[c1 c2 c3 c4](c5)", ""), "relator M = (B0 B1 B2 d)^2"),
], ids=["cyclic-definition", "no-definition"])
def test_verify_is_inconclusive_for_a_curve_with_no_action(tmp_path, capsys, reg_edit, text):
    reg = tmp_path / "atlas.reg"
    reg_text = read_text("standard.reg")
    assert reg_edit[0] in reg_text
    reg.write_text(reg_text.replace(*reg_edit))
    p = tmp_path / "r.mcg"
    p.write_text(text)
    assert main(["--registry", str(reg), "verify", str(p)]) == 1
    out = capsys.readouterr()
    assert "  pi1: inconclusive (no action for curve '" in out.out
    assert "Traceback" not in out.err


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_pi1_agrees_with_every_bench_answer(tmp_path):
    # the benchmark's pi1-verify inputs of one seed, each with the answer it
    # checks; a wrong exit code there lowers the benchmark's agreed share
    reg_path = tmp_path / "standard.reg"
    reg_path.write_text(read_text("standard.reg"))
    ops = load_workloads().build("pi1-verify", 1, tmp_path / "work", str(reg_path))
    distinct = {tuple(op["argv"]): op for op in ops}
    assert len(distinct) > 100
    wrong = [op["id"] for argv, op in distinct.items() if main(list(argv)) != op["expect"]["exit"]]
    assert wrong == []


def test_serialize_gives_back_every_long_replay_script(tmp_path):
    # the benchmark writes its long-replay scripts with serialize
    reg_path = tmp_path / "standard.reg"
    reg_path.write_text(read_text("standard.reg"))
    ops = load_workloads().build("long-replay", 1, tmp_path / "work", str(reg_path))
    reg = Registry.parse(reg_path.read_text())
    paths = sorted({Path(op["argv"][-1]) for op in ops})
    assert len(paths) == 20
    for path in paths:
        text = path.read_text(encoding="utf-8")
        (script,) = parse_document(text, reg).scripts.values()
        assert serialize(script) + "\n" == text, path.name


def test_an_unknown_lantern_instance_fails_its_replay_step(tmp_path, capsys):
    # the move decides its instance when it applies, as alias does its relation
    p = tmp_path / "l9.mcg"
    p.write_text("relator M = (B0 B1 B2 d)^2\nscript t\nstart M\nL @0 inst=L9 dir=down\nend\n")
    (script,) = parse_document(p.read_text(), standard_registry()).scripts.values()
    assert script.entries == (Lantern(0, "L9", "down"),)
    assert main(["replay", str(p)]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL]   1 L @0 inst=L9 dir=down out=0  unknown lantern instance L9\n" in out
    assert main(["verify", str(p)]) == 0
    assert capsys.readouterr().out.startswith("M: image = identity, ab class 0, (n,s) = (6,2)\n")


@pytest.mark.parametrize("text", ["relator r = c1^3000000", "relator r = ((c1)^1000)^1000"])
def test_verify_rejects_a_word_past_the_power_bound_at_once(tmp_path, capsys, text):
    p = tmp_path / "huge.mcg"
    p.write_text(text)
    start = time.perf_counter()
    assert main(["verify", str(p)]) == 2
    assert time.perf_counter() - start < 0.5
    assert "expands past 100000 letters" in capsys.readouterr().err


NESTED = "[" * 20 + "c1" + "](c2)" * 20  # 122 bytes that flatten to 2^21 - 1 letters


@pytest.mark.parametrize("argv, text", [
    (["--pi1", "verify"], NESTED),
    (["verify"], NESTED),
    (["replay"], f"script s\nstart: {NESTED}\nC by=c1\nend\n"),
], ids=["pi1-verify", "verify", "replay"])
def test_a_word_past_the_bound_once_flattened_exits_2_at_once(tmp_path, capsys, argv, text):
    p = tmp_path / "nested.mcg"
    p.write_text(text)
    start = time.perf_counter()
    assert main([*argv, str(p)]) == 2
    assert time.perf_counter() - start < 1
    assert "expands past 100000 letters" in capsys.readouterr().err


def test_verify_parse_error(tmp_path):
    p = tmp_path / "bad.mcg"
    p.write_text("c1 c2^-1")  # not positive
    assert main(["verify", str(p)]) == 2


@pytest.mark.parametrize("text", [
    "(c1 c2 c3 c4 c5)^6  # the chain relator\n",
    "(c1 c2 c3 c4 c5)^6  # the chain\n",
    "# the chain relator\n\n(c1 c2 c3 c4 c5)^6\n\n",
])
def test_verify_reads_a_commented_bare_word_as_the_word_alone(tmp_path, capsys, text):
    bare = tmp_path / "bare.mcg"
    bare.write_text("(c1 c2 c3 c4 c5)^6")
    assert main(["verify", str(bare)]) == 0
    expected = capsys.readouterr()
    p = tmp_path / "commented.mcg"
    p.write_text(text)
    assert main(["verify", str(p)]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("text", ["", "\n  \n", "# no word here\n\n  # nor here\n"])
def test_verify_rejects_a_file_with_no_word(tmp_path, capsys, text):
    p = tmp_path / "empty.mcg"
    p.write_text(text)
    assert main(["verify", str(p)]) == 2
    assert capsys.readouterr() == ("", "no relators found\n")


@pytest.mark.parametrize("text", ["()", "()  # the empty word\n", "# the empty word\n()\n"])
def test_verify_accepts_the_empty_word_written_out(tmp_path, capsys, text):
    p = tmp_path / "unit.mcg"
    p.write_text(text)
    assert main(["verify", str(p)]) == 0
    assert capsys.readouterr().out.startswith("input: image = identity, ab class 0, (n,s) = (0,0)\n")


def test_verify_unknown_curve(tmp_path):
    p = tmp_path / "bad.mcg"
    p.write_text("zz")
    assert main(["verify", str(p)]) == 2


def test_verify_reports_an_unknown_curve_where_its_name_stands(tmp_path, capsys):
    p = tmp_path / "bad.mcg"
    p.write_text("relator r = c1 zz c2\n")
    assert main(["verify", str(p)]) == 2
    assert capsys.readouterr().err == "error: unknown curve 'zz' at line 1, col 16\n"


@pytest.mark.parametrize("text, error", [
    ("c1 c2\nc3 nope\n", "unknown curve 'nope' at line 2, col 4"),
    ("c1 c2\nc3\nc4 c5$\n", "bad character '$' at line 3, col 6"),
    ("# a comment line\n  c1 [nope](c2)\n", "unknown curve 'nope' at line 2, col 7"),
    # a word on one line reads as before, as do errors with no column
    ("c1 c2 nope\n", "unknown curve 'nope', col 7"),
    ("c1 $\n", "bad character '$', col 4"),
    ("c1\nc2 ]\n", "unexpected token ']'"),
])
def test_verify_locates_an_error_in_a_bare_word_on_its_own_line(tmp_path, capsys, text, error):
    p = tmp_path / "bare.mcg"
    p.write_text(text)
    assert main(["verify", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_replay_reports_a_curve_the_registry_lacks(tmp_path, capsys):
    # x's line is gone and L1 names k in its place; the script still says x
    lines = [
        l.replace(" x ", " k ") if l.startswith("L1:") else l
        for l in read_text("standard.reg").splitlines()
        if not l.startswith("x ")
    ]
    p = tmp_path / "nox.reg"
    p.write_text("\n".join(lines))
    assert main(["--registry", str(p), "replay", "--builtin", "sub-c1c5"]) == 2
    # the first x of the file that declares the script, comments aside
    line, col = next(
        (i, m.start() + 1) for i, l in enumerate(script_text("sub-c1c5").splitlines(), 1)
        if (m := re.search(r"\bx\b", l.split("#")[0]))
    )
    assert capsys.readouterr().err == f"error: unknown curve 'x' at line {line}, col {col}\n"


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


def test_replay_of_a_file_without_scripts_exits_2(tmp_path, capsys):
    p = tmp_path / "r.mcg"
    p.write_text("relator r = c1 d d\n")
    assert main(["replay", str(p)]) == 2
    assert capsys.readouterr().err == "no scripts found\n"


def test_replay_missing_builtin(capsys):
    assert main(["replay", "nope", "--builtin"]) == 2
    err = capsys.readouterr().err
    assert "no embedded script named 'nope'; available: blowup-to-thirty, sub-c1c3," in err


def test_replay_missing_builtin_lists_names_a_registry_could_not_parse(tmp_path, capsys):
    # relators.mcg names Yc, which this registry lacks; the names come from
    # fixtures.SCRIPTS, so no corpus file is parsed to list them
    p = tmp_path / "noyc.reg"
    p.write_text("\n".join(
        l for l in read_text("standard.reg").splitlines() if not l.startswith("Yc ")))
    assert main(["--registry", str(p), "replay", "nosuch", "--builtin"]) == 2
    assert capsys.readouterr().err == (
        f"no embedded script named 'nosuch'; available: {', '.join(sorted(load_corpus().scripts))}\n")


GOLDEN = Path(__file__).with_name("golden") / "corpus_replay.txt"
GOLDEN_RENDERS = {
    chunk.split(":", 1)[0].removeprefix("script "): chunk
    for chunk in re.split(r"(?m)^(?=script )", GOLDEN.read_text(encoding="utf-8")) if chunk
}


@pytest.mark.parametrize("name", sorted(load_corpus().scripts))
def test_replay_builtin_prints_the_golden_render(name, monkeypatch, capsys):
    # the success path parses the declaring file only, never the whole corpus
    parsed = []
    monkeypatch.setattr(fixtures, "parse_document", None)
    monkeypatch.setattr(cli, "parse_document", lambda text, reg: parsed.append(text)
                        or parse_document(text, reg))
    assert main(["replay", name, "--builtin"]) == 0
    assert capsys.readouterr().out == GOLDEN_RENDERS[name]
    assert parsed == [script_text(name)]


def test_each_script_file_declares_exactly_the_script_of_its_name():
    corpus = load_corpus()
    assert list(corpus.scripts) == list(SCRIPTS)
    for name in SCRIPTS:
        doc = parse_document(read_text(f"{name}.mcg"), standard_registry())
        assert doc.scripts == {name: corpus.scripts[name]}
    assert parse_document(read_text("relators.mcg"), standard_registry()).scripts == {}


def test_the_packaged_corpus_holds_exactly_its_files():
    corpus = resources.files("g2mcg").joinpath("corpus")
    assert sorted(f.name for f in corpus.iterdir() if f.is_file()) == sorted(
        (*FILES, "standard.reg"))


@pytest.mark.parametrize("name", ["relators", "../relators", "", "sub-c1c5.mcg"])
def test_script_text_builds_no_path_from_an_unlisted_name(name, monkeypatch):
    monkeypatch.setattr(fixtures, "read_text", None)
    assert script_text(name) is None


def patch_corpus(monkeypatch, name, extra):
    """Make fixtures.read_text append ``extra`` to the corpus file ``name``."""
    monkeypatch.setattr(
        fixtures, "read_text", lambda f: read_text(f) + (extra if f == name else ""))


def test_replay_builtin_ignores_a_defect_in_another_file(monkeypatch, capsys):
    patch_corpus(monkeypatch, "x-family.mcg", "\nnonsense\n")
    assert main(["replay", "sub-c1c5", "--builtin"]) == 0
    assert main(["replay", "x-family", "--builtin"]) == 2
    assert "unexpected line outside script: 'nonsense'" in capsys.readouterr().err


def test_script_declared_twice_exits_2(monkeypatch, capsys):
    patch_corpus(monkeypatch, "x-seven.mcg", "\nscript sub-c1c5  # again\nstart: c1\nend\n")
    with pytest.raises(ParseError, match="duplicate script sub-c1c5"):
        load_corpus()
    # a builtin reads only its own file, so the second declaration is not seen
    assert main(["replay", "sub-c1c5", "--builtin"]) == 0
    assert capsys.readouterr().out == GOLDEN_RENDERS["sub-c1c5"]
    assert main(["replay", "nope", "--builtin"]) == 2
    assert capsys.readouterr().err.startswith("no embedded script named 'nope'; available: ")


def test_conflicting_relators_raise_a_parse_error(monkeypatch, capsys):
    patch_corpus(monkeypatch, "x-seven.mcg", "\nrelator Z0 = c1\n")
    with pytest.raises(ParseError, match="conflicting definitions of relator Z0"):
        load_corpus()
    # listing the scripts reads no corpus file, so it does not see it
    assert main(["replay", "nope", "--builtin"]) == 2
    assert capsys.readouterr().err.startswith("no embedded script named 'nope'; available: ")


@pytest.mark.parametrize("argv, line", [
    (["registry-check"], "[pass] lantern:L1"),
    (["decompose", "26", "2"], "summary: Unique"),
    (["replay", "--builtin", "x-seven"], "script x-seven: ok"),
    (["verify", "CHAIN30"], "  pi1: proved"),
], ids=["registry-check", "decompose", "replay", "verify"])
def test_python_dash_m_runs_the_cli(argv, line, tmp_path):
    # each command in a process of its own, as it imports its modules when it runs
    chain30 = tmp_path / "chain30.mcg"
    chain30.write_text("relator r = (c1 c2 c3 c4 c5)^6\n")
    src = str(Path(g2mcg.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "g2mcg", *(str(chain30) if a == "CHAIN30" else a for a in argv)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert line in proc.stdout.splitlines()


def test_a_closed_stdout_is_not_an_error():
    # the read end of stdout's pipe is closed before the command writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(g2mcg.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "g2mcg", "replay", "--builtin", "x-family"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_decompose_command(capsys):
    assert main(["decompose", "26", "2"]) == 0
    out = capsys.readouterr().out
    assert "summary: Unique" in out


def test_decompose_18_6(capsys):
    assert main(["decompose", "18", "6"]) == 0
    out = capsys.readouterr().out
    assert "(6,2) + (12,4)" in out
    assert "(4,3) + (14,3)" in out


def test_decompose_trivial(capsys):
    # (0,0) has no nontrivial split; (27,2) breaks the mod-10 law, so no
    # split of it has both summands obeying the law
    for n, s in [(0, 0), (27, 2)]:
        assert main(["decompose", str(n), str(s)]) == 0
        assert capsys.readouterr().out == (
            f"fiber sum decompositions of (n,s) = ({n},{s})\n"
            "assuming both summands are relatively minimal genus-2 fibrations\n"
            "summary: None\n"
        )
        assert main(["--format", "records", "decompose", str(n), str(s)]) == 0
        assert capsys.readouterr().out == "summary=None\n"


def test_decompose_rejects_negative(capsys):
    assert main(["decompose", "-1", "0"]) == 2


def test_decompose_refuses_a_lattice_past_its_bound_at_once(capsys):
    start = time.perf_counter()
    assert main(["decompose", "20000", "20000"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "(20000,20000) spans 20012001 lattice points, past 250000\n"


def test_registry_check_standard(capsys):
    assert main(["registry-check"]) == 0


def test_registry_check_corrupted(tmp_path, capsys):
    text = read_text("standard.reg").replace("d sep h=(0,0,0,0)", "d nonsep h=(0,0,0,0)")
    p = tmp_path / "bad.reg"
    p.write_text(text)
    assert main(["--registry", str(p), "registry-check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_registry_check_records(tmp_path, capsys):
    assert main(["--format", "records", "registry-check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 92
    assert all(re.fullmatch(r"check=\S+ ok=True", l) for l in lines)
    p = tmp_path / "bad.reg"
    p.write_text(read_text("standard.reg").replace("d sep h=(0,0,0,0)", "d nonsep h=(0,0,0,0)"))
    assert main(["--registry", str(p), "--format", "records", "registry-check"]) == 1
    assert "check=flag:d ok=False" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv", [
    ["verify", "{x0}"],
    ["replay", "--builtin", "z-family"],
    ["decompose", "18", "6"],
    ["registry-check"],
])
def test_every_subcommand_honours_the_records_format(x0_file, capsys, argv):
    main(["--format", "records", *(a.format(x0=x0_file) for a in argv)])
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(re.match(r"^\w+=", l) for l in lines), lines


def test_registry_check_missing_lantern(tmp_path, capsys):
    # a registry without L3 claims nothing false; replay fails the step that asks for it
    lines = [
        l for l in read_text("standard.reg").splitlines() if not l.startswith("L3:")
    ]
    p = tmp_path / "partial.reg"
    p.write_text("\n".join(lines))
    assert main(["--registry", str(p), "registry-check"]) == 0
    assert "lantern:L3" not in capsys.readouterr().out
    assert main(["--registry", str(p), "replay", "--builtin", "z-family"]) == 1
    assert "unknown lantern instance L3" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["d", "c1", "c2"])
def test_registry_check_runs_on_a_registry_without_a_curve_an_alias_names(tmp_path, capsys, name):
    # the curve's line is gone and the lanterns name h in its place; the
    # alias chain, d = (c1 c2)^6, still names it, and its check compares nothing
    lines = [
        re.sub(rf"\b{name}\b", "h", l) if re.match(r"L\d:", l) else l
        for l in read_text("standard.reg").splitlines()
        if not l.startswith(f"{name} ")
    ]
    p = tmp_path / "partial.reg"
    p.write_text("\n".join(lines))
    assert main(["--registry", str(p), "registry-check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out and all(re.match(r"\[(pass|FAIL)\] \S+", l) for l in out)
    assert f"[FAIL] alias:chain  (alias:chain names unknown curve {name})" in out


@pytest.mark.parametrize("edits, failed", [
    # B2 is defined as [c3^-1](x), and L1 names k in x's place
    ((("\nx nonsep h=(1,0,1,0) def=[c2^-1 c1^-1 c1^-1 c2^-1](c3)\n", "\n"), ("= x c3 d", "= k c3 d")),
     {"defn:B2": "defn:B2 names unknown curve x"}),
    ((("L1: c1 c1 c5 c5", "L1: c1 c1 c5 zz"),),
     {"lantern:L1": "lantern:L1 names unknown curve zz"}),
])
def test_registry_check_fails_a_check_that_names_a_missing_curve(tmp_path, capsys, edits, failed):
    text = read_text("standard.reg")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / "partial.reg"
    p.write_text(text)
    assert main(["--registry", str(p), "registry-check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out and all(re.match(r"\[(pass|FAIL)\] \S+", l) for l in out)
    assert out[-1] == "[pass] relator:matsumoto-conj"
    for name, detail in failed.items():
        assert f"[FAIL] {name}  ({detail})" in out
    # such a check compares nothing, so it is neither proved nor refuted
    verdicts = {v.name: v for v in Registry.parse(text).validate()}
    for name, detail in failed.items():
        assert (verdicts[name].status, verdicts[name].detail) == (INCONCLUSIVE, detail)


def test_registry_check_fails_a_lantern_with_a_wrong_curve_of_the_right_class(tmp_path, capsys):
    # B2 = [c3^-1](x) has x's class and flag, so only pi1 tells them apart
    p = tmp_path / "wrong-lantern.reg"
    p.write_text(read_text("standard.reg").replace("= x c3 d", "= B2 c3 d"))
    assert main(["--registry", str(p), "registry-check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [l for l in out if not l.startswith("[pass]")] == ["[FAIL] lantern:L1  (pi1 refutes)"]


def test_registry_check_fails_a_definition_that_reaches_its_own_curve(tmp_path, capsys):
    text = read_text("standard.reg").replace(
        "x nonsep h=(1,0,1,0) def=[c2^-1 c1^-1 c1^-1 c2^-1](c3)", "x nonsep h=(1,0,1,0) def=[d](x)")
    p = tmp_path / "circular.reg"
    p.write_text(text)
    assert main(["--registry", str(p), "registry-check"]) == 1
    assert "[FAIL] defn:x  (no action for curve 'x')" in capsys.readouterr().out.splitlines()
    # x has no action, so each identity that names x, or B2 = [c3^-1](x), is
    # inconclusive, and every other check is proved
    verdicts = Registry.parse(text).validate()
    assert {v.name for v in verdicts if v.status != PROVED} == {
        "defn:x", "lantern:L1", "disjoint:c1,x", "disjoint:c5,x", "alias:B2def", "central:tau,x",
        "defn:B2", "alias:matconj", "central:tau,B2", "relator:matsumoto"}
    assert all(v.status in (PROVED, INCONCLUSIVE) for v in verdicts)


def test_registry_check_rejects_a_second_line_for_a_lantern(tmp_path, capsys):
    p = tmp_path / "dup.reg"
    text = read_text("standard.reg") + "L1: c1 c1 c3 c3 = kb hb c5\n"
    p.write_text(text)
    assert main(["--registry", str(p), "registry-check"]) == 2
    line = len(text.splitlines())
    assert capsys.readouterr().err == f"error: duplicate lantern L1 at line {line}\n"


def test_out_flag(tmp_path, x0_file):
    dest = tmp_path / "report.txt"
    assert main(["--out", str(dest), "verify", x0_file]) == 0
    assert "(30,0)" in dest.read_text()


def test_missing_file():
    assert main(["verify", "/nonexistent/file.mcg"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "{dir}"],
    ["replay", "{dir}"],
    ["--registry", "{dir}", "registry-check"],
    ["verify", "{latin1}"],
    ["--registry", "{latin1}", "registry-check"],
])
def test_unreadable_input_exits_2(tmp_path, capsys, argv):
    # a directory raises IsADirectoryError, bytes that are not UTF-8 raise
    # UnicodeDecodeError; both leave through exit 2, not a traceback
    latin1 = tmp_path / "latin1.mcg"
    latin1.write_bytes("relator r = c1 # Dehn–Lickorish\n".encode("cp1252"))
    paths = {"dir": str(tmp_path), "latin1": str(latin1)}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("line", ["c1 nonsep h=(1,0,0)", "c1 is a curve"])
def test_malformed_registry_file(tmp_path, capsys, line):
    p = tmp_path / "bad.reg"
    p.write_text(line + "\n")
    assert main(["--registry", str(p), "registry-check"]) == 2
    assert "cannot parse registry line" in capsys.readouterr().err


# One of each command, verify in three ways: pi1 proves X0 and the chain
# relator, and --pi1 is ignored.
REPEATED = (
    ["--format", "records", "verify", "{f}"],
    ["verify", "{f}"],
    ["--pi1", "verify", "{f}"],
    ["replay", "--builtin", "sub-c1c5"],
    ["decompose", "26", "2"],
    ["registry-check"],
)


def test_repeated_calls_in_one_process_answer_alike_in_either_order(tmp_path, capsys):
    f = tmp_path / "f.mcg"
    f.write_text("relator X0 = (B0 B1 c1 c2 c3 c4 c5^2 c4 [c3](c2) c1^3 c5^2)^2\n"
                 "relator chain = (c1 c2 c3 c4 c5)^6\n")
    argvs = [[a.format(f=f) for a in argv] for argv in REPEATED]

    def run(order):
        answers = {}
        for argv in order:
            code = main(argv)
            answers[" ".join(argv)] = code, capsys.readouterr().out
        return answers

    cli.build_parser.cache_clear()
    fixtures.read_text.cache_clear()
    forward = run(argvs)
    assert run(argvs[::-1]) == forward
    assert [code for code, _ in forward.values()] == [0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("argv", [
    ["replay", "--builtin", "sub-c1c5"], ["decompose", "26", "2"], ["registry-check"],
], ids=["replay", "decompose", "registry-check"])
def test_the_hidden_pi1_flag_is_ignored_on_every_command(capsys, argv):
    # the pi1-verify benchmark still passes it; verify's case is in test_golden.py
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(["--pi1", *argv]) == 0
    assert capsys.readouterr().out == plain
    assert "--pi1" not in cli.build_parser().format_help()


def test_a_registry_file_is_reused_by_its_text_not_its_path(tmp_path, capsys, monkeypatch):
    parses = []
    real = Registry.parse
    monkeypatch.setattr(Registry, "parse", staticmethod(lambda text: parses.append(1) or real(text)))
    cli._parse_registry.cache_clear()
    p = tmp_path / "atlas.reg"
    text = read_text("standard.reg")
    p.write_text(text)
    argv = ["--registry", str(p), "registry-check"]
    assert main(argv) == 0 and main(argv) == 0
    assert len(parses) == 1
    p.write_text(text.replace("d sep h=(0,0,0,0)", "d nonsep h=(0,0,0,0)"))
    assert main(argv) == 1
    assert "[FAIL] flag:d" in capsys.readouterr().out
    # a parse error is raised anew on each call, not remembered
    p.write_text("c1 is a curve\n")
    for _ in range(2):
        assert main(argv) == 2
        assert "cannot parse registry line" in capsys.readouterr().err
    assert len(parses) == 4


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


def test_commute_of_declared_disjoint_curves_with_meeting_classes_fails(tmp_path, capsys):
    # c1 and c3 are declared disjoint, but this class of c3 meets c1's
    reg = tmp_path / "broken.reg"
    reg.write_text(read_text("standard.reg").replace("c3 nonsep h=(-1,0,1,0)", "c3 nonsep h=(0,1,1,0)"))
    script = tmp_path / "swap.mcg"
    script.write_text("script swap\nstart: c1 c3\n~ commute @0\nend\n")
    assert main(["--registry", str(reg), "replay", str(script)]) == 1
    assert "[FAIL]   1 ~ commute @0  move broke the homology image" in capsys.readouterr().out


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
