"""Count the lines of the Python modules under src/, by kind.

    python3 tools/src_lines.py                 # this tree
    python3 tools/src_lines.py --against REV   # and the change since git revision REV

For each module and in total it prints code lines, docstring-and-comment
lines and blank lines. The lines are read with `tokenize`, so a '#' inside
a string is no comment and a blank line inside a docstring is part of it.
A line is code when it holds any token but a comment or a docstring (a
string that is a statement of its own); else it is a docstring-and-comment
line when it holds part of one; else it is blank. With `--against`, the
modules of REV are read through `git show` and each count is followed by
its change; a module only one side has counts zero on the other.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "doc", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_EDGE = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> dict[str, int]:
    """The code, docstring-and-comment and blank lines of Python source text."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    doc = {t.start[0] for t in tokens if t.type == tokenize.COMMENT}
    code: set[int] = set()
    # A string is a docstring when the tokens around it, comments and line
    # breaks inside brackets skipped, end one statement and start the next.
    statement = [t for t in tokens if t.type not in (tokenize.COMMENT, tokenize.NL)]
    types = [None, *(t.type for t in statement), None]
    for i, t in enumerate(statement):
        if t.type in _LAYOUT:
            continue
        docstring = t.type == tokenize.STRING and types[i] in _STATEMENT_EDGE and types[i + 2] in _STATEMENT_EDGE
        (doc if docstring else code).update(range(t.start[0], t.end[0] + 1))
    total = len(text.splitlines())
    return {"code": len(code), "doc": len(doc - code), "blank": total - len(code | doc)}


def tree_modules() -> dict[str, str]:
    """The text of each module under src/ in the working tree, by path."""
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("src/**/*.py"))}


def git_modules(rev: str) -> dict[str, str]:
    """The text of each module under src/ at git revision `rev`, by path."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout

    paths = [p for p in git("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines() if p.endswith(".py")]
    return {p: git("show", f"{rev}:{p}") for p in paths}


def table(now: dict[str, str], before: dict[str, str] | None = None) -> list[str]:
    """One row per module and a total row: each kind's count, followed by
    its change against `before` when given."""
    paths = sorted(set(now) | set(before or {}))
    zero = dict.fromkeys(KINDS, 0)
    rows = [(p, count(now[p]) if p in now else zero, count(before[p]) if before and p in before else zero) for p in paths]
    rows.append(("total", *({k: sum(r[i][k] for r in rows) for k in KINDS} for i in (1, 2))))
    width = max(map(len, paths), default=5) + 2

    def cell(new: dict[str, int], old: dict[str, int], kind: str) -> str:
        text = str(new[kind])
        return f"{text} ({new[kind] - old[kind]:+d})".rjust(14) if before is not None else text.rjust(7)

    out = ["module".ljust(width) + "".join(k.rjust(14 if before is not None else 7) for k in KINDS)]
    out += [path.ljust(width) + "".join(cell(new, old, k) for k in KINDS) for path, new, old in rows]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also print the change since this git revision")
    args = parser.parse_args(argv)
    before = git_modules(args.against) if args.against else None
    print("\n".join(table(tree_modules(), before)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
