"""Print the line count and the code-line count of each module under src/.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of docstrings (the leading string of a module, class or
function) do not count.  A line with code and a trailing comment counts.

Run from anywhere: ``python tools/src_lines.py``.
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of the Python source `text`."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<40} {'lines':>6} {'code':>6}")
    for path in sorted(SRC.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.relative_to(SRC).as_posix():<40} {lines:>6} {code:>6}")
    print(f"{'total':<40} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
