"""The dense scatter table the tests check the streamed solvers and readers against."""

import numpy as np

from ktseg import FeatureSequence, compute_gram, segmentation


def dense_table(gram):
    """Read-only (n+1) x (n+1) array whose [a, b] is the clamped scatter of window [a, b) of ``gram``.

    Writes ``gram.blocks()`` down on the calling thread, so every entry is bit-identical to the
    scatter a solver sees for that window; entries with a >= b are 0. O(n^2) memory.
    """
    n = gram.n
    var = np.zeros((n + 1, n + 1))
    for e0, _, raw in gram.blocks():
        var[: e0 + len(raw) - 1, e0 : e0 + len(raw)] = raw.T
    var.setflags(write=False)
    return var


def gram_for(values, kernel=None):
    return compute_gram(FeatureSequence(values=values), kernel)


def table_for(values, kernel=None):
    return dense_table(gram_for(values, kernel))


def dense_total(table, change_points):
    """The total of the split of [0, n) at ``change_points`` off a dense table, added as the DP adds it."""
    bounds = (0, *change_points, len(table) - 1)
    return segmentation._dp_sum(table[a, b] for a, b in zip(bounds[:-1], bounds[1:]))
