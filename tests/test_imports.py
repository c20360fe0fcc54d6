import ast
from pathlib import Path

import pytest

import rsa_exh

MODULES = sorted(p for p in Path(rsa_exh.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # the package re-exports through __init__.py alone; any other module
    # binds a name by import only to use it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def _relative_imports(path):
    """The package modules that ``path`` imports, function-local imports too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return {name.split(".")[0] for name in names}


def test_import_graph_is_acyclic():
    package = Path(rsa_exh.__file__).parent
    graph = {p.stem: _relative_imports(p) for p in package.glob("*.py")}
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module in done:
            return
        path.append(module)
        for target in sorted(graph.get(module, ())):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
