"""Command line interface.

    g2mcg verify <relator.mcg>     check words map to 1 (and print invariants)
    g2mcg replay <script.mcg>      replay derivation scripts step by step
    g2mcg decompose <n> <s>        enumerate fiber-sum splits of a signature
    g2mcg registry-check           validate the curve registry

verify checks each relator's Sp(4,Z) image, its ab class in Z/10 and, if
both hold, its action on pi1 of the surface, inner exactly when the word is
a relator of Mod(S2).  Where the image or ab class refutes, the pi1 verdict
is inconclusive and names it.

Exit codes: 0 success; 1 a verify or registry-check Verdict refuted or
inconclusive, or a failed replay step; 2 parse or usage error.

Each command imports its own modules when it runs: verify imports pi1 and
invariants, registry-check pi1, through Registry.validate, and decompose
the decompose module.  A process loads only what the commands it runs
need; replay needs none of them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from .dsl import ParseError, parse_document, parse_relator
from .fixtures import SCRIPTS, script_text
from .moves import replay
from .registry import (
    INCONCLUSIVE,
    PROVED,
    Registry,
    Verdict,
    standard_registry,
)


def _load_registry(path: Optional[str]) -> Registry:
    """The packaged atlas, or the one in the file at ``path``.  The file is
    read on every call; the Registry of the last text parsed is reused while
    the text is unchanged, as a Registry is read-only, and its memo caches
    carry over from call to call as those of the packaged atlas do."""
    if path is None:
        return standard_registry()
    with open(path, encoding="utf-8") as fh:
        return _parse_registry(fh.read())


@functools.lru_cache(maxsize=1)
def _parse_registry(text: str) -> Registry:
    # A parse error propagates and is not cached.
    return Registry.parse(text)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader has gone, which is not an error of the command.  Point
            # stdout at devnull, so that the interpreter's last flush of what is
            # still buffered does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _exit_code(verdicts: list[Verdict]) -> int:
    """0 when every verdict is proved; 1 when one is refuted or inconclusive."""
    return 0 if all(v.status == PROVED for v in verdicts) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    import re

    from . import homology as hom, invariants, pi1

    reg = _load_registry(args.registry)
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    # A document has a relator or script line, and a file with no word at all
    # is an empty document; anything else is one bare word, `()` the empty
    # one.  Comments are stripped per line, as parse_document does.
    uncommented = [raw.split("#", 1)[0] for raw in text.splitlines()]
    if not "".join(uncommented).strip() or any(
        re.match(r"(relator|script)\b", line.strip()) for line in uncommented
    ):
        relators = dict(parse_document(text, reg).relators)
    else:
        relators = {"input": parse_relator("\n".join(uncommented), reg)}
    if not relators:
        print("no relators found", file=sys.stderr)
        return 2

    lines = []
    verdicts: list[Verdict] = []
    for name, rel in relators.items():
        sig = invariants.fiber_signature(reg, rel)
        identity = reg.image(rel.word) == hom.IDENTITY
        # pi1 runs only on a relator the image and ab class leave open; where
        # either refutes, the exit code is 1 by an inconclusive verdict naming it
        refuter = "image" if not identity else "ab class" if sig.mod_ten else None
        inner = (Verdict("pi1", INCONCLUSIVE, f"the {refuter} refutes") if refuter
                 else pi1.relator_verdict(reg, rel.word))
        verdicts.append(inner)
        try:
            inv, undefined = invariants.invariants(sig), None
        except invariants.SignatureNotIntegral as exc:
            inv, undefined = None, exc
        if args.format == "records":
            rec = (invariants.invariant_records(sig, inv) if inv is not None
                   else f"n={sig.n} s={sig.s} invariants=non-integral")
            lines.append(f"relator={name} identity={identity} ab={sig.mod_ten} {rec} "
                         f"pi1={inner.status}")
        else:
            lines.append(f"{name}: image {'=' if identity else '!='} identity, "
                         f"ab class {sig.mod_ten}, (n,s) = ({sig.n},{sig.s})")
            lines.append(f"  e={inv.e} sigma={inv.sigma} c1^2={inv.c1sq} chi_h={inv.chi_h}"
                         if inv is not None else f"  invariants undefined: {undefined}")
            lines.append(f"  pi1: {inner.status}"
                         + (f" ({inner.detail})" if inner.status == INCONCLUSIVE else ""))
    _emit("\n".join(lines), args.out)
    return _exit_code(verdicts)


def cmd_replay(args: argparse.Namespace) -> int:
    reg = _load_registry(args.registry)
    if args.builtin:
        text = script_text(args.file)
        if text is None:
            print(f"no embedded script named {args.file!r}; "
                  f"available: {', '.join(sorted(SCRIPTS))}", file=sys.stderr)
            return 2
    else:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    scripts = parse_document(text, reg).scripts
    if not scripts:
        print("no scripts found", file=sys.stderr)
        return 2

    status = 0
    chunks = []
    for name, script in scripts.items():
        report = replay(reg, script)
        chunks.append(report.render() if args.format == "text" else report.records())
        if not report.ok:
            status = 1
    _emit("\n".join(chunks), args.out)
    return status


def cmd_decompose(args: argparse.Namespace) -> int:
    from . import decompose, invariants

    try:
        report = decompose.admissible_splits(invariants.FiberSignature(args.n, args.s))
    except ValueError as exc:  # a negative count, or a lattice past MAX_SPLITS
        print(exc, file=sys.stderr)
        return 2
    _emit(report.render() if args.format == "text" else report.records(), args.out)
    return 0


def cmd_registry_check(args: argparse.Namespace) -> int:
    reg = _load_registry(args.registry)
    checks = reg.validate()
    if args.format == "text":
        lines = [f"[{'pass' if c.status == PROVED else 'FAIL'}] {c.name}"
                 + (f"  ({c.detail})" if c.detail else "") for c in checks]
    else:
        lines = [f"check={c.name} ok={c.status == PROVED}" for c in checks]
    _emit("\n".join(lines), args.out)
    return _exit_code(checks)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args gives a fresh Namespace per call."""
    # --help shows the docstring but its last paragraph, which is about loading
    parser = argparse.ArgumentParser(prog="g2mcg", description=__doc__.rsplit("\n\n", 1)[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--registry", help="registry file (default: the packaged corpus/standard.reg)")
    parser.add_argument("--format", choices=("text", "records"), default="text")
    # ignored, as verify always asks pi1: the pi1-verify benchmark still passes it
    parser.add_argument("--pi1", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check relators map to the identity")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="replay derivation scripts")
    p.add_argument("file")
    p.add_argument("--builtin", action="store_true",
                   help="treat the argument as an embedded corpus script name; "
                        "only the corpus file that declares it is parsed")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("decompose", help="enumerate fiber-sum splits")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("registry-check", help="validate the curve registry")
    p.set_defaults(func=cmd_registry_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """One g2mcg invocation, its command importing its modules as the module
    docstring says.  A process that calls main more than once reuses what
    does not change between calls: the argument parser, the packaged corpus
    texts and the Registry of the last --registry text read (the file is
    read again on every call).  Relator and script files are read and parsed
    anew on every call, and nothing derived from them is cached.  A stdout
    whose reader has closed it drops the output, and its exit code stands."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
