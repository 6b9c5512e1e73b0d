"""Every module-level import in the package is read by its module.

The only exceptions are the names the benchmark tracer wraps by looking
them up in a module (perfbench/tracer.py::default_targets): a module keeps
those imports so the tracer finds them there.
"""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "zrbr").glob("*.py") if p.name != "__init__.py")


def traced_names():
    """(module, name) for each tracer target looked up in a zrbr module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(owner.__name__.rpartition(".")[2], attr)
            for owner, attr, _name, _count_points in tracer.default_targets()
            if isinstance(owner, types.ModuleType) and owner.__name__.startswith("zrbr.")}


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never loads."""
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in loaded:
                    unused.append(name)
    return unused


def test_gate_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d\nsys.exit\n"
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    exempt = {name for module, name in traced_names() if module == path.stem}
    unused = [name for name in unused_imports(path.read_text()) if name not in exempt]
    assert not unused, f"{path.name} imports {unused} and never reads them"
