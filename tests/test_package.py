import importlib
import inspect
import pkgutil

import pytest

import mecoffload

#: Every module of the package but ``__main__``, which runs the command line.
LAYERS = [importlib.import_module(f"mecoffload.{info.name}")
          for info in pkgutil.iter_modules(mecoffload.__path__)
          if info.name != "__main__"]


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    # Tools wrap every function a layer lists, by getattr over __all__, so a
    # stale entry breaks them even though no import fails.
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def test_package_exports_only_listed_names():
    # The package has no __all__ of its own: its public names are the ones
    # it imports from the layers, each of which must list it.
    listed = {name for module in LAYERS for name in module.__all__}
    public = {name for name, value in vars(mecoffload).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public
    assert public <= listed, sorted(public - listed)
