"""Lazy package exports: a public name imports its submodule on first use.

A package ``__init__`` that re-exports its submodules' names eagerly makes
every import under the package pay for all of them (and for numpy).  A
lazy package instead declares, in one table, which submodule holds each
public name, and binds the module-level ``__getattr__`` and ``__dir__``
(PEP 562) that :func:`lazy_exports` returns.  The first read of a name
imports its submodule and caches the value in the package namespace;
``from pkg import Name``, ``pkg.Name``, ``from pkg import *`` and
``dir(pkg)`` behave as with eager imports, and an unknown name still
raises :class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each submodule (relative to ``package``) to the public
    names it holds; ``__all__`` lists those names in table order.
    """
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
