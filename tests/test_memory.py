"""Memory budgets of the kernels a 64x64 (4,2) net passes through.

Each budget bounds the peak of the memory that ``tracemalloc`` traces
during one call, relative to the ``nbytes`` of what the call returns:
the full-size copies and gathered temporaries these kernels used to
hold put each of them well above its bound.
"""

import tracemalloc

import numpy as np
import pytest

from dnet.grid import Grid, holonomy
from dnet.isothermic import (IsothermicNet, calapso_transform, flat_connection,
                             moutard_evolve, random_cauchy)
from dnet.pseudo_euclidean import Signature

SIG = Signature(4, 2)


def _net(n):
    grid, frame = Grid([n, n]), SIG.standard_frame()
    line0, line1 = random_cauchy(grid, SIG, np.random.default_rng(2), frame=frame)
    return moutard_evolve(grid, SIG, line0, line1, frame=frame)


@pytest.fixture(scope="module")
def net():
    return _net(64)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced during the call,
    in bytes above what was traced when it started."""
    fn(*args)                          # first-call caches are not the budget's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_isothermic_net_stores_no_gathered_copies(net):
    # the stored arrays, plus the gathered lifts of the edge ends and one
    # temporary per inner product
    out, peak = _traced_peak(IsothermicNet, net.grid, SIG, net.mu)
    stored = sum(a.nbytes for a in (out.mu, out.edge_ip, out.is_infinite, out.labels))
    assert peak <= 7 * stored, (peak, stored)


def test_flat_connection_builds_one_full_size_array(net):
    out, peak = _traced_peak(flat_connection, net, 0.3)
    assert not net.is_infinite.any()
    assert peak <= 2 * out.nbytes, (peak, out.nbytes)


def test_holonomy_does_not_grow_from_32_to_64():
    peaks = []
    for n in (32, 64):
        small = _net(n)
        gamma = flat_connection(small, 0.3)
        out, peak = _traced_peak(holonomy, small.grid, gamma)
        assert out.shape == (small.grid.nquads,)
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_calapso_releases_its_connection_before_moving_the_net(net):
    # Gamma(t), T and T^-1 live together during the trivialization
    (moved, T), peak = _traced_peak(calapso_transform, net, 0.3)
    assert peak <= 5 * T.nbytes, (peak, T.nbytes)
