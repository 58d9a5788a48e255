"""Graph ops that only the tests use."""

import numpy as np

from layerfuse.tensor import _node


def tensor_sum(t):
    """Sum over the trailing three axes as a node, one sum per leading index.

    A rank-3 tensor gives a scalar; a stack of P probes, as
    ``finite_difference_check`` makes, gives P sums.
    """

    def _bw(g, wanted):
        return (np.full(t.data.shape, float(g)),)

    return _node(t.data.reshape(t.data.shape[:-3] + (-1,)).sum(axis=-1), (t,), _bw)
