"""Lazy package namespaces (PEP 562), after Scientific Python SPEC 1.

Every ``repro`` package ``__init__`` declares its public names in one
``{module: [names]}`` table and hands it to :func:`attach`; a module is
imported the first time one of its names is read, so ``import repro``
(or ``repro serve``, ``repro route``) loads only what it then runs.
``from repro.nn import Linear``, ``repro.zoo``, ``dir(repro.nn)`` and
``from repro import *`` behave as if everything had been imported.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["attach"]


def attach(package: str, exports: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps a module, written relative to ``package`` as in a
    ``from`` import (``".plan"``, ``"..precision"``), to the names the
    package exports from it.  A name equal to the module's own last
    component exports the module itself (``{".zoo": ["zoo"]}``).
    ``__all__`` is every name, in table order.  A resolved name is
    stored in the package, so each is looked up here once.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module_name = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(module_name, package)
        if name == module_name.rpartition(".")[2]:
            value = module
        else:
            value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
