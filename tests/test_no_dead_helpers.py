"""Every public top-level function and class of g2mcg, and every public
method of such a class, is reached.

A name counts as reached only from a reached definition.  The roots are
cli.py, the module-level code of every module and the names a file under
``bench/`` mentions: the tracer wraps functions by name.  A reached
definition reaches each name its body refers to (an ``ast.Name`` or
``ast.Attribute``), and a reached class its own private and dunder
methods, which run without being named.  A reference is matched by name
alone, as an attribute's owner is not known without running the code, but
an attribute named as a method of str, bytes, tuple, list, dict or set is
taken as that method, in the bench's text too: ``text.replace`` is no call
of Registry.replace.  The files under ``bench/`` are only read.  A name that
nothing reaches is dead code, unless ALLOWED keeps it and says why.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2mcg"

# Kept on purpose, each with its reason.
ALLOWED = {
    "homology.is_symplectic": "test oracle: every Sp(4,Z) image is symplectic",
    "homology.mat_neg": "serves the test oracle sp_inverse, and the tests' tau = -I",
    "homology.sp_inverse": "test oracle: a word's inverse maps to the inverse matrix",
    "homology.transpose": "serves the test oracles is_symplectic and sp_inverse",
    "homology.transvection": "test oracle: the matrix of a right-handed twist",
    "homology.transvection_inv": "test oracle: the matrix each letter's rank-one update must equal",
    "pi1.ab_matrix": "test oracle: the pi1 action abelianizes to the Sp(4,Z) image",
    "pi1.ab_vector": "serves the test oracle ab_matrix",
    "invariants.homeo_label": "ROADMAP direction 3: the Freedman label of a proved certificate",
    "invariants.NotOddForm": "raised by homeo_label, ROADMAP direction 3",
    "registry.Registry.replace": "test fixture: the perturbation tests build broken atlases with it",
}

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
BUILTIN_METHODS = {n for t in (str, bytes, tuple, list, dict, set) for n in dir(t) if n[0] != "_"}


def _names(node: ast.AST):
    """Names referred to under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute) and n.attr not in BUILTIN_METHODS:
            yield n.attr


def _graph():
    """(definitions, roots): each definition "module.name" or
    "module.Class.method" with the names its body refers to, and the names
    the roots refer to.  A class's methods are definitions of their own."""
    defs: dict[str, set[str]] = {}
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "cli.py":
            roots.update(_names(tree))
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                roots.update(_names(node))
                continue
            qualified = f"{path.stem}.{node.name}"
            refs = defs[qualified] = set()
            for part in ([node] if isinstance(node, ast.FunctionDef) else
                         [*node.decorator_list, *node.bases, *node.body]):
                if isinstance(part, ast.FunctionDef) and part is not node:
                    defs[f"{qualified}.{part.name}"] = set(_names(part))
                else:
                    refs.update(_names(part))
    return defs, roots


def _public(qualified: str) -> bool:
    return not qualified.rpartition(".")[2].startswith("_")


def _bench_text() -> str:
    return "\n".join(
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").rglob("*.py"))
    )


def _mentioned(name: str, text: str) -> bool:
    """Whether text names ``name``, not as an attribute if a builtin method has that name."""
    attribute = r"(?<!\.)" if name in BUILTIN_METHODS else ""
    return re.search(rf"{attribute}\b{name}\b", text) is not None


def unreached() -> set[str]:
    defs, roots = _graph()
    bench = _bench_text()
    by_name: dict[str, list[str]] = {}
    for qualified in defs:
        by_name.setdefault(qualified.rpartition(".")[2], []).append(qualified)
    reached: set[str] = set()
    todo = [q for q in defs if _mentioned(q.rpartition(".")[2], bench)]
    todo += [q for name in roots for q in by_name.get(name, ())]
    while todo:
        qualified = todo.pop()
        if qualified in reached:
            continue
        reached.add(qualified)
        todo += [q for name in defs[qualified] for q in by_name.get(name, ())]
        # a reached class runs its private and dunder methods unnamed
        todo += [q for q in defs if q.startswith(qualified + ".") and not _public(q)]
    return {q for q in defs if _public(q) and q not in reached}


def test_no_public_helper_is_unreached():
    dead = unreached()
    assert sorted(dead - ALLOWED.keys()) == [], "delete these, or keep them in ALLOWED with a reason"
    assert sorted(ALLOWED.keys() - dead) == [], "reached now, or gone: drop these from ALLOWED"


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter that imports g2mcg from src."""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_submodule():
    # the package root re-exports nothing: every name lives in its submodule
    out = _fresh_python(
        "import sys, g2mcg; print(sorted(m for m in sys.modules if m.startswith('g2mcg.')))")
    assert out == "[]\n"


def test_a_cli_process_loads_neither_dataclasses_nor_inspect():
    # records are tuple types and plain classes, which generate no code at
    # import; dataclasses alone would also load inspect, ast, dis and tokenize
    out = _fresh_python(
        "import sys, g2mcg.cli; from g2mcg.fixtures import load_corpus; load_corpus(); "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    assert out == "[]\n"


def test_a_replay_process_loads_neither_pi1_nor_invariants_nor_decompose():
    # verify and decompose import those when they run
    out = _fresh_python(
        "import sys, g2mcg.cli; from g2mcg.fixtures import load_corpus; load_corpus(); "
        "print(sorted({'g2mcg.pi1', 'g2mcg.decompose', 'g2mcg.invariants'} & sys.modules.keys()))")
    assert out == "[]\n"
