"""Print the statements of src/conedom modules that a pytest run never executes.

    python3 tools/unreached.py scene maximals                     # over tier-1
    python3 tools/unreached.py cones -- tests/test_cones.py -q    # over chosen tests

The named modules (file names under src/conedom, without `.py`) are traced
while pytest runs in this process, by default over the whole test suite,
with the arguments after `--` otherwise. The tracer (`sys.settrace` and
`threading.settrace`) follows only the frames whose code comes from those
files and records each line they execute. The statements come from `ast`:
every statement that runs code of its own, so not a docstring, a
`def`/`class` header, an `import` or a `global`/`nonlocal` declaration. A
statement is reached when any line of its own text ran: all of its lines
for a simple statement, the lines before its body for a compound one.
For each module the tool prints how many statements were never reached,
then each one as `line: text`. The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conedom"
DEFAULT_PYTEST_ARGS = ["-q", "--continue-on-collection-errors"]
_HEADERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and bool(body)
        and body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statement_spans(source: str) -> dict[int, range]:
    """The first line of each statement that runs code, with the lines of
    its own text: every line of a simple statement, the lines before the
    body of a compound one."""
    spans: dict[int, range] = {}
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, _HEADERS) or _is_docstring(node, parent):
                continue
            body = getattr(node, "body", None)
            end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            spans[node.lineno] = range(node.lineno, end + 1)
    return spans


def unreached(source: str, executed: Iterable[int]) -> list[int]:
    """The first lines of the statements none of whose own lines ran."""
    ran = set(executed)
    return sorted(line for line, span in statement_spans(source).items() if ran.isdisjoint(span))


class LineCollector:
    """Records the lines executed in the given files while it is active
    (`with LineCollector(paths) as c:`), in `c.executed[path]`. The tracers
    that were set before are restored on exit."""

    def __init__(self, paths: Iterable[str | Path]):
        self.executed: dict[str, set[int]] = {os.path.realpath(p): set() for p in paths}
        self._files: dict[str, set[int] | None] = {}

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        lines = self._files.get(filename, self)
        if lines is self:
            lines = self._files[filename] = self.executed.get(os.path.realpath(filename))
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def __enter__(self) -> "LineCollector":
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def report(path: Path, executed: Iterable[int]) -> list[str]:
    """The module's count of unreached statements, then each as `line: text`."""
    source = path.read_text(encoding="utf-8")
    missed = unreached(source, executed)
    text = source.splitlines()
    head = f"{path.relative_to(ROOT).as_posix()}: {len(missed)} of {len(statement_spans(source))} statements unreached"
    return [head] + [f"  {line}: {text[line - 1].strip()}" for line in missed]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    modules, pytest_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, None)
    paths = [PACKAGE / f"{name}.py" for name in modules]
    missing = [name for name, path in zip(modules, paths) if not path.is_file()]
    if not modules or missing:
        print("usage: unreached.py MODULE... [-- PYTEST_ARGS]", file=sys.stderr)
        for name in missing:
            print(f"no module src/conedom/{name}.py", file=sys.stderr)
        return 2
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    with LineCollector(paths) as collector:
        code = pytest.main(DEFAULT_PYTEST_ARGS if pytest_args is None else pytest_args)
    for path in paths:
        print("\n".join(report(path, collector.executed[os.path.realpath(path)])))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
