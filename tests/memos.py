"""Every process-wide memo of the hmvol package, found by walking it.

A memo is a `functools.cache`/`lru_cache` function defined in an hmvol
module (at module level or in a class there), recognised by its
`cache_clear`, plus the Bernoulli table of `hmvol.arith`, which is a tuple
that only grows.  Listing them by hand missed some, so the tests that need
cold memos find them here instead.
"""

from __future__ import annotations

import importlib
import pkgutil

import hmvol
from hmvol import arith


def _defined_in(module) -> list:
    out = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if isinstance(obj, type) else (obj,)
        out += [m for m in members if callable(getattr(m, "cache_clear", None))]
    return out


def hmvol_memos() -> dict:
    """qualified name -> memo, over every module of the package but __main__."""
    memos = {}
    for info in pkgutil.iter_modules(hmvol.__path__):
        if not info.name.startswith("__"):
            module = importlib.import_module(f"hmvol.{info.name}")
            memos.update({f"{info.name}.{m.__qualname__}": m for m in _defined_in(module)})
    return memos


def clear_memos() -> None:
    """Empty every memo and cut the Bernoulli table back to B_0."""
    for memo in hmvol_memos().values():
        memo.cache_clear()
    arith._BERNOULLI = arith._BERNOULLI[:1]
