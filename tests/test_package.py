import ast
import importlib
import pkgutil
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


def _private_definitions(tree):
    """Module-level private functions, classes and constants: (node, name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def test_no_unused_private_names():
    # every private module-level name is read somewhere in the package outside
    # its own definition (a recursive call or an assignment does not count)
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(detmld.__file__).parent.glob("*.py"))
    }
    reads = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    ]
    definitions = [
        (module, definition, name)
        for module, tree in trees.items()
        for definition, name in _private_definitions(tree)
    ]
    unused = []
    for module, definition, name in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(read == name and id(node) not in inside for node, read in reads):
            unused.append(f"{module} {name}")
    assert definitions
    assert not unused


def module_caches():
    """Every module-level `_*_CACHE` dict of the detmld submodules, keyed by
    "module._NAME"."""
    caches = {}
    for info in pkgutil.iter_modules(detmld.__path__):
        module = importlib.import_module(f"detmld.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") and name.endswith("_CACHE") and isinstance(value, dict):
                caches[f"{info.name}.{name}"] = value
    return caches


def test_clear_caches_empties_every_module_cache():
    caches = module_caches()
    assert "tableaux._BLOCK_CACHE" in caches and "forms._ELIMINATION_CACHE" in caches
    sentinel = object()
    for cache in caches.values():
        cache[sentinel] = None
    try:
        detmld.clear_caches()
        assert not [name for name, cache in caches.items() if cache]
    finally:
        for cache in caches.values():
            cache.pop(sentinel, None)


def test_benchmark_tracer_targets_exist():
    # The benchmark's tracer wraps library functions by name, so deleting or
    # renaming one breaks the traced runs; its source is read, not imported.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tracer = ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracer))
    targets = [(module, attr_path) for _, module, attr_path in tracer.TRACED]
    assert targets
    missing = []
    for module_name, attr_path in targets + [("detmld.oracle", "iter_tails")]:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                missing.append(f"{module_name}:{attr_path}")
                break
    assert not missing
