"""Every module-level private name in the package is read somewhere in it.

A private function, class or assignment at the top of a `src/zrbr` module
is used only if some module of the package refers to it outside its own
definition: by name, as an attribute or in an import.  One that nothing
reads is code a refactor left behind, so it goes, or it is listed in
ALLOWED with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "zrbr").glob("*.py"))

# module.name -> reason
ALLOWED = {
    "evolution._linear_flow": "acceptance gate 06 imports it to check the exact linear flow",
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def definitions(tree: ast.Module) -> list[tuple]:
    """(name, statement) per private name a top-level statement defines."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        found.extend((name, stmt) for name in names if _is_private(name))
    return found


def references(tree: ast.AST, skip: ast.AST | None = None):
    """Every name tree refers to, outside the statement skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def unreferenced(sources: dict) -> list[str]:
    """module.name for each private definition no module refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    missing = []
    for module, tree in trees.items():
        for name, stmt in definitions(tree):
            if not any(name in references(other, stmt if other is tree else None)
                       for other in trees.values()):
                missing.append(f"{module}.{name}")
    return missing


def test_gate_sees_a_private_name_nothing_reads():
    mod = (
        "_A = 1\n_B, _C = 2, 3\n_D: int = 4\n__version__ = '1'\n"
        "def _f():\n    return _f()\n"
        "def _g():\n    return _A\n"
        "class _K:\n    pass\n"
        "def public():\n    return _g() + _B\n"
    )
    other = "from .mod import _D\nimport mod\nmod._K\n"
    assert unreferenced({"mod": mod}) == ["mod._C", "mod._D", "mod._f", "mod._K"]
    assert unreferenced({"mod": mod, "other": other}) == ["mod._C", "mod._f"]


def test_every_private_name_is_read():
    missing = unreferenced({p.stem: p.read_text() for p in PACKAGE})
    unexplained = [name for name in missing if name not in ALLOWED]
    assert not unexplained, f"private names nothing in the package reads: {unexplained}"
    stale = [name for name in ALLOWED if name not in missing]
    assert not stale, f"allowed private names that now have a reader: {stale}"
