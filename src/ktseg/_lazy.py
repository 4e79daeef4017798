"""numpy on first use, after the lazy loading of Scientific Python SPEC 1."""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_numpy() -> ModuleType:
    """numpy, or a stand-in that imports it on its first attribute access.

    When numpy is already in ``sys.modules`` (imported eagerly, or lazily
    by an earlier call) that module is returned unchanged. Only when it is
    not yet imported is a stdlib ``importlib.util.LazyLoader`` module
    installed under ``sys.modules["numpy"]``, so ``import numpy`` anywhere
    later shares it. Importing ktseg, and the ``plan`` and ``eval`` paths,
    then never pay numpy's import or its BLAS thread start-up. Before
    Python 3.12 the first access is not thread safe: touch numpy once
    before using ktseg from several threads (its scatter worker starts later).
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module
