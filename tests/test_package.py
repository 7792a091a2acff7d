import importlib
import pkgutil

import pathplan


def test_no_module_attribute_is_wrapped():
    # A callable module attribute with `__wrapped__` (left by `functools`
    # caches and `wraps`) reads to perfbench's tracer as one of its own
    # wrappers still bound after uninstall.
    wrapped = []
    for info in pkgutil.iter_modules(pathplan.__path__):
        module = importlib.import_module(f"pathplan.{info.name}")
        wrapped += [
            f"{info.name}.{attr}"
            for attr, value in vars(module).items()
            if callable(value) and hasattr(value, "__wrapped__")
        ]
    assert wrapped == []
