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
