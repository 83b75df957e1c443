"""Code lines of each ``minsurf`` module and their total.

    python3 tools/code_lines.py [SRC_DIR]
    python3 tools/code_lines.py PARENT CHANGE

A code line is a line of a module that holds a token other than a comment,
and that is not part of a docstring (the string literal that opens a
module, class or function body).  Blank lines, comment lines and docstring
lines do not count; a line that holds code and a trailing comment does.
Tokens come from ``tokenize`` and docstrings from ``ast``, so a string that
spans lines counts on each of its lines.  ``SRC_DIR`` defaults to the
``src/minsurf`` of the checkout this script is in.  It prints one line per
module, ``name count``, in name order, then ``total count``.

Given two checkouts, it counts the ``src/minsurf`` of each and prints one
line per module of either, ``name parent change delta``, in name order, then
``total parent change delta``; a module that one checkout lacks counts 0
there, and ``delta`` is ``change - parent`` with its sign.

A directory that holds no ``*.py`` (for a checkout, its ``src/minsurf``)
makes it exit 2 with a one-line message naming the path, before it prints
anything, so a mistyped path is not read as an empty package.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: a line with only these is blank or a comment
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python ``source`` text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def module_counts(src):
    """The code lines of each module in the directory ``src``, by file name;
    exits 2, naming ``src``, if it holds no module."""
    paths = sorted(src.glob("*.py"))
    if not paths:
        print(f"code_lines.py: no *.py module in {src}", file=sys.stderr)
        sys.exit(2)
    return {path.name: code_lines(path.read_text()) for path in paths}


def main(argv):
    if len(argv) == 3:
        parent, change = (module_counts(Path(c) / "src" / "minsurf") for c in argv[1:])
        rows = [(name, parent.get(name, 0), change.get(name, 0))
                for name in sorted(parent.keys() | change.keys())]
        rows.append(("total", sum(parent.values()), sum(change.values())))
        for name, a, b in rows:
            print(f"{name} {a} {b} {b - a:+d}")
        return
    root = Path(__file__).resolve().parents[1]
    counts = module_counts(Path(argv[1]) if len(argv) > 1 else root / "src" / "minsurf")
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main(sys.argv)
