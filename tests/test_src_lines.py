"""The line counter `tools/src_lines.py`, on fixture strings only (no git)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_loader = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(src_lines)

MODULE = '''"""A module docstring.

Its blank line above is part of it.
"""

import os  # a trailing comment leaves the line code

# a comment line


HASH = "# not a comment"
TEXT = """a string
that is code,

not a docstring"""


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        return os.sep


def bare():
    x = 1 + \\
        2
    return x
'''


def test_each_line_is_counted_as_code_doc_or_blank():
    # Docstring and comment lines: 1-4 (the blank line 2 too), 8, 19, 22 and
    # 23. Blank: 5, 7, 9, 10, 16, 17, 20, 25 and 26. The other 13 are code,
    # the blank line 14 inside a string among them.
    assert src_lines.count(MODULE) == {"code": 13, "doc": 8, "blank": 9}
    assert sum(src_lines.count(MODULE).values()) == len(MODULE.splitlines())


def test_small_sources():
    assert src_lines.count("") == {"code": 0, "doc": 0, "blank": 0}
    assert src_lines.count("\n  \n") == {"code": 0, "doc": 0, "blank": 2}
    assert src_lines.count("# only\n") == {"code": 0, "doc": 1, "blank": 0}
    assert src_lines.count('"""doc"""\n') == {"code": 0, "doc": 1, "blank": 0}
    assert src_lines.count('x = "s"\n') == {"code": 1, "doc": 0, "blank": 0}
    assert src_lines.count('f("a",\n  "b")\n') == {"code": 2, "doc": 0, "blank": 0}
    # A string followed by an operator is an expression, not a docstring.
    assert src_lines.count('"a" + "b"\n') == {"code": 1, "doc": 0, "blank": 0}


def test_the_table_gives_each_change_and_a_total():
    now = {"src/a.py": "x = 1\n# c\n", "src/b.py": "y = 2\n"}
    before = {"src/a.py": "x = 1\n\n", "src/gone.py": '"""d"""\nz = 3\n'}
    rows = src_lines.table(now, before)
    assert rows[0].split() == ["module", "code", "doc", "blank"]
    cells = {row.split()[0]: row.split()[1:] for row in rows[1:]}
    assert cells == {
        "src/a.py": ["1", "(+0)", "1", "(+1)", "0", "(-1)"],
        "src/b.py": ["1", "(+1)", "0", "(+0)", "0", "(+0)"],
        "src/gone.py": ["0", "(-1)", "0", "(-1)", "0", "(+0)"],
        "total": ["2", "(+0)", "1", "(+0)", "0", "(-1)"],
    }
    plain = {row.split()[0]: row.split()[1:] for row in src_lines.table(now)[1:]}
    assert plain == {"src/a.py": ["1", "1", "0"], "src/b.py": ["1", "0", "0"], "total": ["2", "1", "0"]}
