"""Every public name of the package has a caller or is documented as API.

A name in a module's ``__all__`` passes when some ``src`` code refers to it
outside its own definition, or when ``README.md`` or ``docs/experiments.md``
names it inside backticks: in a code span or a fenced code block.  A
reference is resolved to the module it names: ``module.name`` counts only
where ``module`` is a package module imported in that file (``geo``,
``fwd``, ...), an import counts for the module it imports from, and a bare
name for the module it was imported from or else its own module.  So an
attribute of another object that shares a public name's spelling is not a
caller.
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
    """(module path, line, name, owner) of every reference in src.

    ``owner`` is the stem of the package module the reference resolves to.
    """
    refs = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level]
        # from . import geometry as geo
        modules = {a.asname or a.name: a.name
                   for node in relative if node.module is None for a in node.names}
        # from .geometry import boundary_values
        imported = {a.asname or a.name: node.module
                    for node in relative if node.module for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id,
                             imported.get(node.id, path.stem)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                refs.append((path, node.lineno, node.attr, modules[node.value.id]))
        for node in relative:
            if node.module:
                refs.extend((path, node.lineno, a.name, node.module) for a in node.names)
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
        ref == name and owner == path.stem
        and not (where == path and span[0] <= line <= span[1])
        for where, line, ref, owner in REFERENCES
    )
    assert called or name in DOCUMENTED, (
        f"{path.stem}.{name} has no caller in src and is not named in backticks "
        "in README.md or docs/experiments.md: delete it or document it as API"
    )


# the mesh's elimination order and the factoring of blocks sliced in it
ELIMINATION = {"interior_order", "factor_spd", "_interior_blocks"}


def test_only_geometry_knows_the_elimination_order():
    # every Dirichlet elimination and chord step goes through
    # geometry.InteriorSystem, whose methods take whole vertex arrays; a
    # SuperLU factor (its ``.lu`` attribute) stays inside it too
    found = []
    for path in MODULES:
        if path.stem == "geometry":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = ELIMINATION | {"lu"}
                name = node.attr
            elif isinstance(node, (ast.Name, ast.alias)):
                names = ELIMINATION
                name = node.id if isinstance(node, ast.Name) else node.name
            else:
                continue
            if name in names:
                found.append(f"{path.stem}:{node.lineno} {name}")
    assert not found, (
        "only geometry may read the elimination order or a sparse factor; "
        f"use geometry.InteriorSystem: {found}"
    )
