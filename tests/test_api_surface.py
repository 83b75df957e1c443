"""Every public name of the package has a caller or is documented as API.

A name in a module's ``__all__`` passes when some ``src`` code refers to it
outside its own definition (as a name, an attribute or an import), or when
``README.md`` or ``docs/experiments.md`` names it inside backticks: in a
code span or a fenced code block.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minsurf"
MODULES = sorted(PACKAGE.glob("*.py"))


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _definition_lines(tree, name):
    """Line span of the top-level statement that defines ``name`` in ``tree``."""
    for node in tree.body:
        defined = (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        )
        if name in defined:
            return node.lineno, node.end_lineno
    return None


def _references():
    """(module path, line, name) of every name, attribute and import in src."""
    refs = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                refs.append((path, node.lineno, node.name))
    return refs


def _documented():
    """Every identifier inside a code span or fenced block of the two API documents."""
    names = set()
    for doc in ("README.md", "docs/experiments.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        fenced = re.findall(r"```(.*?)```", text, flags=re.S)
        inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
        for span in fenced + inline:
            names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


REFERENCES = _references()
DOCUMENTED = _documented()
PUBLIC = [
    (path, name)
    for path in MODULES
    for name in _public_names(ast.parse(path.read_text(encoding="utf-8")))
]


@pytest.mark.parametrize(
    "path, name", PUBLIC, ids=[f"{p.stem}.{n}" for p, n in PUBLIC]
)
def test_public_name_has_a_caller_or_is_documented(path, name):
    span = _definition_lines(ast.parse(path.read_text(encoding="utf-8")), name)
    assert span is not None, f"{path.stem}.__all__ lists {name}, which it never defines"
    called = any(
        ref == name and not (where == path and span[0] <= line <= span[1])
        for where, line, ref in REFERENCES
    )
    assert called or name in DOCUMENTED, (
        f"{path.stem}.{name} has no caller in src and is not named in backticks "
        "in README.md or docs/experiments.md: delete it or document it as API"
    )
