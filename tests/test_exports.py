import importlib
import pkgutil

import pytest

import hardydirac

MODULES = sorted(m.name for m in pkgutil.iter_modules(hardydirac.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"hardydirac.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
