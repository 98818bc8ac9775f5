"""Source hygiene checks over the package, done with `ast` because the
project ships no linter."""
import ast
from pathlib import Path

import rlfolio

PACKAGE = Path(rlfolio.__file__).parent


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither uses nor lists in `__all__`."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used - {"*"})


def test_unused_imports_are_caught():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "from x import a, b\n__all__ = ['b']\nnp.zeros(a)\n")
    assert unused_imports(tree) == ["os"]


def test_no_unused_imports():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        unused = unused_imports(ast.parse(path.read_text()))
        if unused:
            offenders[path.relative_to(PACKAGE).as_posix()] = unused
    assert offenders == {}
