"""The line collector `tools/unreached.py`, on a fixture module (no pytest run)."""

import importlib.util
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_loader = importlib.util.spec_from_file_location("unreached", ROOT / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(unreached)

FIXTURE = '''"""A fixture module."""

import os
from math import gcd


def sign(x):
    """Docstring."""
    if x > 0:
        return 1
    elif x < 0:
        return -1
    try:
        total = (
            x
            + 0
        )
    except TypeError:
        raise
    return total


class Box:
    """Another docstring."""

    size = 2

    def wide(self, rows):
        global WIDTH
        return [
            len(r) for r in rows
        ]


def never():
    return os.sep
'''

# Statement first lines: the docstrings, `def`/`class` headers, imports and
# the `global` declaration are left out, and an `except` clause is no
# statement; a compound statement counts the lines before its body, a
# simple one all of its lines.
STATEMENTS = {9: range(9, 10), 10: range(10, 11), 11: range(11, 12), 12: range(12, 13), 13: range(13, 14),
              14: range(14, 18), 19: range(19, 20), 20: range(20, 21), 26: range(26, 27),
              30: range(30, 33), 36: range(36, 37)}


def test_statement_spans_leave_out_docstrings_headers_and_imports():
    assert unreached.statement_spans(FIXTURE) == STATEMENTS


def test_the_collector_records_the_fixture_lines_that_ran(tmp_path):
    path = tmp_path / "fixture_module.py"
    path.write_text(FIXTURE, encoding="utf-8")
    before = sys.gettrace(), threading.gettrace()
    spec = importlib.util.spec_from_file_location("fixture_module", path)
    module = importlib.util.module_from_spec(spec)
    with unreached.LineCollector([path]) as collector:
        spec.loader.exec_module(module)
        assert (module.sign(3), module.sign(-2)) == (1, -1)
        assert module.Box().wide(["ab", "c"]) == [2, 1]
    assert (sys.gettrace(), threading.gettrace()) == before
    module.sign(0)  # after the collector: not recorded
    executed = collector.executed[str(path.resolve())]
    # The try, its assignment and the final return ran only for sign(0); the
    # raise and never() did not run at all.
    assert unreached.unreached(FIXTURE, executed) == [13, 14, 19, 20, 36]
    assert unreached.unreached(FIXTURE, set(range(1, 40))) == []


def test_a_statement_counts_as_reached_by_any_line_of_its_own_text():
    # Only the continuation line of the multi-line assignment ran.
    assert 14 not in unreached.unreached(FIXTURE, {16})
    # A line of the body does not reach the compound statement's header.
    assert 9 in unreached.unreached(FIXTURE, {10})


def test_an_unknown_module_is_a_usage_error(capsys):
    assert unreached.main(["no_such_module"]) == 2
    assert unreached.main([]) == 2
    err = capsys.readouterr().err
    assert "no module src/conedom/no_such_module.py" in err and err.startswith("usage: unreached.py")
