import ast
from pathlib import Path
from types import ModuleType

import detmld

SUBMODULES = ("core", "forms", "linalg", "mld", "oracle", "orbits", "polynomials", "tableaux")


def test_all_exports_no_modules():
    assert not [name for name in detmld.__all__ if isinstance(getattr(detmld, name), ModuleType)]
    # the submodules stay reachable as attributes
    for name in SUBMODULES:
        assert isinstance(getattr(detmld, name), ModuleType)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from detmld import *", namespace)
    public = {
        name: value
        for name, value in vars(detmld).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert "verify_nash" in public and "clear_caches" in public
    for name, value in public.items():
        assert namespace.get(name) is value, name
    assert not set(SUBMODULES) & set(namespace)



def test_no_unused_module_imports():
    # __init__ imports names to re-export them, so it is left out
    unused = []
    for path in sorted(Path(detmld.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert not unused
