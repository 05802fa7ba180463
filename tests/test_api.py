"""The public surface: each name is declared once, in the ``__all__`` of the
module that defines it, and ``leafclust`` re-exports those lists in
pipeline order."""

import importlib

import leafclust

MODULES = ("density", "distances", "hcluster", "dataio", "svgplot", "synth")


def test_package_exports_each_module_list_in_pipeline_order():
    modules = [importlib.import_module(f"leafclust.{name}") for name in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert leafclust.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
            assert getattr(leafclust, name) is obj
    namespace = {}
    exec("from leafclust import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(leafclust.__all__)
