"""Every public top-level function and class of g2mcg, and every public
method of such a class, is reached.

A name counts as reached when some module of the package other than
``__init__.py`` refers to it (an ``ast.Name`` or ``ast.Attribute`` outside
its own definition), or when a file under ``bench/`` mentions it: the
tracer wraps functions by name.  A method is matched by its name alone, as
an attribute's owner is not known without running the code.  The files
under ``bench/`` are only read.  A name that nothing reaches is dead code,
unless ALLOWED keeps it and says why.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2mcg"

# Kept on purpose, each with its reason.
ALLOWED = {
    "registry.ValidationReport.failures": "tests read a report's failed checks",
    "homology.is_symplectic": "test oracle: every Sp(4,Z) image is symplectic",
    "homology.sp_inverse": "test oracle: a word's inverse maps to the inverse matrix",
    "homology.transvection_inv": "test oracle: the matrix each letter's rank-one update must equal",
    "pi1.ab_matrix": "test oracle: the pi1 action abelianizes to the Sp(4,Z) image",
    "pi1.preserves_relator": "test oracle: each twist action fixes the surface relator",
    "pi1.apply_word": "test oracle: the action of a word on one generator",
    "pi1.equal_up_to_inner": "ROADMAP direction 1: the pi1 identity check of aliases",
    "invariants.homeo_label": "ROADMAP direction 2: the Freedman label of a proved certificate",
    "invariants.non_spin_from_signature": "ROADMAP direction 2: oddness of the form",
    "invariants.fiber_sum": "ROADMAP direction 4: the summands of fiber-sum splits",
    "invariants.blowdown_delta": "ROADMAP direction 5: per-step invariant deltas",
}


def _public(nodes) -> list[ast.AST]:
    return [n for n in nodes
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]


def _definitions() -> set[str]:
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text(encoding="utf-8")).body):
            out.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.update(f"{path.stem}.{node.name}.{m.name}" for m in _public(node.body)
                           if isinstance(m, ast.FunctionDef))
    return out


def _references(node: ast.AST, own: frozenset[str] = frozenset()):
    """Names referred to under node, outside the definitions that bear them."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own |= {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, own)


def _package_references() -> set[str]:
    """Names referred to in the package, __init__.py and self-references aside."""
    return {
        name
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for name in _references(ast.parse(path.read_text(encoding="utf-8")))
    }


def _bench_text() -> str:
    return "\n".join(
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").rglob("*.py"))
    )


def unreached() -> set[str]:
    refs, bench = _package_references(), _bench_text()
    return {
        qualified for qualified in _definitions()
        if (name := qualified.rpartition(".")[2]) not in refs
        and not re.search(rf"\b{name}\b", bench)
    }


def test_no_public_helper_is_unreached():
    dead = unreached()
    assert sorted(dead - ALLOWED.keys()) == [], "delete these, or keep them in ALLOWED with a reason"
    assert sorted(ALLOWED.keys() - dead) == [], "reached now, or gone: drop these from ALLOWED"
