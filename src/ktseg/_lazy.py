"""numpy on first use, by a plain ``import numpy`` at the first attribute read."""

import sys
from types import ModuleType


def lazy_numpy() -> ModuleType:
    """numpy if it is imported, else a new stand-in module that ``sys.modules`` never holds.

    The stand-in's first read of a name imports numpy (whose import lock makes threads
    reading together wait for the whole module) and keeps the name, so later reads are
    plain module attribute reads. ``import ktseg``, ``plan`` and ``eval`` never load numpy.
    """
    if (loaded := sys.modules.get("numpy")) is not None:
        return loaded
    stand_in = ModuleType("numpy")

    def __getattr__(name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(stand_in, name, value)
        return value

    stand_in.__getattr__ = __getattr__
    return stand_in
