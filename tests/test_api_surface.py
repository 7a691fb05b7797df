"""The public API resolves: module ``__all__`` lists and package re-exports.

The traced benchmark wraps every function named in the ``__all__`` of the
seven modules by ``getattr``; a stale entry there breaks a traced run, and a
stale re-export breaks ``import lgmirror``.  The benchmark also reads the
self time of six functions by name, so they must stay listed.
"""

import ast
import importlib
import inspect

import pytest

import lgmirror
from lgmirror import errors

LAYERS = ("ip_core", "symmetry", "curve_side", "cusp_side", "spectra", "harness", "cli")

# functions whose self time the benchmark reports by name
BENCHMARKED = {
    "spectra": ("lefschetz_numbers",),
    "symmetry": ("gfin", "g0_group", "dual_group", "subgroups_containing_g0",
                 "format_group"),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_module_all_resolves(layer):
    module = importlib.import_module(f"lgmirror.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    for name in BENCHMARKED.get(layer, ()):
        assert name in module.__all__
        assert callable(getattr(module, name))


def test_package_reexports_resolve():
    """Every name ``lgmirror/__init__`` imports from a module is listed in
    that module's ``__all__`` and is the same object in the package."""
    tree = ast.parse(inspect.getsource(lgmirror))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == {"errors", *LAYERS} - {"cli"}
    for node in imports:
        module = importlib.import_module(f"lgmirror.{node.module}")
        for alias in node.names:
            if alias.name == "*":
                continue
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(lgmirror, alias.name) is getattr(module, alias.name)


def test_every_error_class_is_exported():
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)]
    for cls in classes:
        assert issubclass(cls, errors.LGMirrorError)
        assert getattr(lgmirror, cls.__name__) is cls
