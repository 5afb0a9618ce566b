"""tools/src_lines.py: line and code-line counts of the source modules."""

import importlib.util
import pathlib
import subprocess
import sys

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def _module():
    spec = importlib.util.spec_from_file_location("src_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    text = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        y = (x +
             1)
        return y, """a string,
not a docstring"""
'''
    # import, class, def, the two lines of y and the two of the return
    assert _module().count(text) == (17, 7)


def test_prints_every_module_and_the_total():
    out = subprocess.run([sys.executable, str(_SCRIPT)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    rows = {line.split()[0]: tuple(map(int, line.split()[1:])) for line in out[1:]}
    assert "denoisebench/wavelet.py" in rows
    modules = [counts for name, counts in rows.items() if name != "total"]
    assert rows["total"] == tuple(map(sum, zip(*modules)))
    assert all(0 < code < lines for lines, code in modules)
