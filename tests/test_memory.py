"""Memory budgets of the kernels a 64x64 (4,2) net passes through.

Each budget bounds the peak of the memory that ``tracemalloc`` traces
during one call, relative to the ``nbytes`` of what the call returns, to
the peak of the same call on a 32x32 net, or to the size of the file it
reads: the full-size copies, gathered temporaries and per-number objects
these kernels used to hold put each of them well above its bound.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dnet.grid import Grid, holonomy
from dnet.isothermic import (IsothermicNet, calapso_transform, christoffel_dual,
                             connection_flatness, flat_connection, moutard_evolve,
                             random_cauchy)
from dnet.netfile import NetFile, run_checks
from dnet.osystem import ParallelFamily, check_osystem
from dnet.pseudo_euclidean import Signature, standard_chart_indices

SIG = Signature(4, 2)


def _net(n):
    grid, frame = Grid([n, n]), SIG.standard_frame()
    line0, line1 = random_cauchy(grid, SIG, np.random.default_rng(2), 0.3, frame)
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
        out, peak = _traced_peak(holonomy, small.grid, gamma.__getitem__)
        assert out.shape == (small.grid.nquads,)
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_connection_flatness_holds_one_block_of_transports(net):
    # the residuals, one block's transports and the temporaries of one
    # block; holding also the transports of the block before, or the
    # products of a whole block, takes it above the bound
    g = net.grid
    block = len(np.unique(g.sides(slice(512, 1024)))) * SIG.dim ** 2 * 8
    _, peak = _traced_peak(connection_flatness, net, 0.3)
    assert peak <= 8 * g.nquads + 2.25 * block, (peak, block)


def test_calapso_releases_its_connection_before_moving_the_net(net):
    # T, the moved net and one block of transports: no Gamma(t) is held
    (moved, T), peak = _traced_peak(calapso_transform, net, 0.3)
    assert peak <= 5 * T.nbytes, (peak, T.nbytes)


def _construction(n):
    """The traced peaks, above what each call keeps, of the kernels that a
    library pipeline calls after ``flat_connection``."""
    net = _net(n)
    (moved, T), calapso = _traced_peak(calapso_transform, net, 0.3)
    calapso -= T.nbytes + sum(a.nbytes for a in (moved.mu, moved.edge_ip, moved.is_infinite,
                                                  moved.labels))
    # the walk that integrates d x_dual fills x_dual, which its form keeps
    data, christoffel = _traced_peak(christoffel_dual, net)
    christoffel -= (sum(a.nbytes for a in (data.x, data.x_dual, data.r))
                    + net.grid.nedges * SIG.dim * data.x_dual.itemsize)      # d x_dual
    data = christoffel_dual(net)
    idx = standard_chart_indices(SIG)
    fam = ParallelFamily(net.grid, [data.x[:, idx], data.x_dual[:, idx]], Signature(3, 1))
    return {"calapso_transform": calapso, "christoffel_dual": christoffel,
            "ParallelFamily.validate": _traced_peak(fam.validate)[1],
            "check_osystem": _traced_peak(check_osystem, fam, [[0.0, 1.0], [1.0, 0.0]])[1]}


@pytest.fixture(scope="module")
def construction_peaks():
    return [_construction(n) for n in (32, 64)]


@pytest.mark.parametrize("kernel", ["calapso_transform", "christoffel_dual",
                                    "ParallelFamily.validate", "check_osystem"])
def test_construction_does_not_grow_from_32_to_64(construction_peaks, kernel):
    # each builds its transports, differences and products one block of
    # quads, edges or vertices at a time
    small, big = (p[kernel] for p in construction_peaks)
    assert big <= 1.25 * small, (small, big)


def _kept_and_peak(fn, *args):
    """The memory traced that ``fn(*args)`` keeps while its result lives,
    and the peak of the call above that, in bytes."""
    fn(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        del out
        return kept, peak - kept
    finally:
        tracemalloc.stop()


def test_grid_does_not_grow_from_32_to_64():
    # a grid keeps its dims, strides and counts: no index table
    peaks = [_traced_peak(Grid, [n, n])[1] for n in (32, 64)]
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_staircase_tree_builds_one_block_at_a_time():
    # above the levels it returns, the walk holds one block of its arrays
    small, big = (_kept_and_peak(Grid([n, n]).staircase_tree)[1] for n in (32, 64))
    assert big <= 1.25 * small, (small, big)


TABLES = ("edge_tail", "edge_head")


def test_pipeline_and_verify_build_no_whole_grid_table(tmp_path, monkeypatch):
    # the construct-64 pipeline of the benchmark and the checks of verify
    # take the indices of each block from the grid's arithmetic
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    path = tmp_path / "net.json"
    NetFile.from_isothermic(_net(16), NetFile.frame_section(SIG.standard_frame()),
                            {}).save(str(path))

    def whole_grid(grid):
        raise AssertionError("a whole-grid index table was built")

    for name in TABLES:
        monkeypatch.setattr(Grid, name, property(whole_grid))
    *_, family, osys = workloads.pipeline(16, SIG, 2, {})
    assert osys["passed"] and family["passed"], (osys, family)
    report = run_checks(NetFile.load(str(path)))
    assert [c.name.split(".")[0] for c in report.checks] == ["isothermic"] * 8, report


def _transient(net, path):
    """The traced peaks, above what each call keeps, of the calls that
    ``dnet verify`` and :meth:`NetFile.save` make on an isothermic net."""
    out, init = _traced_peak(IsothermicNet, net.grid, SIG, net.mu)
    init -= sum(a.nbytes for a in (out.mu, out.edge_ip, out.is_infinite, out.labels))
    nf = NetFile.from_isothermic(net, NetFile.frame_section(SIG.standard_frame()), {})
    return {"IsothermicNet": init,
            "validate": _traced_peak(net.validate)[1],
            "connection_flatness": _traced_peak(connection_flatness, net, 0.3)[1],
            "NetFile.save": _traced_peak(nf.save, str(path))[1]}


@pytest.fixture(scope="module")
def verify_peaks(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "net.json"
    return [_transient(_net(n), path) for n in (32, 64)]


@pytest.mark.parametrize("kernel", ["IsothermicNet", "validate", "connection_flatness",
                                    "NetFile.save"])
def test_verify_and_save_do_not_grow_from_32_to_64(verify_peaks, kernel):
    # each runs in blocks of quads, edges or rows; only the (nquads,)
    # residuals of validate and connection_flatness grow with the grid
    small, big = (p[kernel] for p in verify_peaks)
    assert big <= 1.25 * small, (small, big)


def _above_arrays(fn, path):
    """The traced peak of ``fn(path)`` above the arrays of the file at
    ``path``, in bytes."""
    _, peak = _traced_peak(fn, path)
    nf = NetFile.load(path)
    return peak - sum(a.nbytes for fields in (nf.vertex_fields, nf.edge_fields)
                      for a in fields.values())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 64x64 and a 96x96 net file: both read one block of rows at a time."""
    out = {}
    for n in (64, 96):
        out[n] = str(tmp_path_factory.mktemp("files") / f"net{n}.json")
        NetFile.from_isothermic(_net(n), NetFile.frame_section(SIG.standard_frame()),
                                {}).save(out[n])
    return out


def test_load_holds_one_block_above_its_arrays(files):
    # load reads the file forward through one window into arrays sized from
    # dims: above them it holds one block, whatever the size of the file;
    # a reader that holds the whole text, which grows by 1.1 MB from 64x64
    # to 96x96, fails the bound
    small, big = (_above_arrays(NetFile.load, files[n]) for n in (64, 96))
    assert big <= 1.1 * small, (small, big)
    nf = NetFile.load(files[64])
    mu = nf.vertex_fields["mu"]
    assert not mu.flags.writeable and nf.isothermic_net().mu is mu


def _verify(path):
    return run_checks(NetFile.load(path)).to_text()


def test_verify_holds_one_block_above_its_arrays(files):
    # above the file's arrays, verify keeps the net's edge arrays (edge_ip,
    # labels, is_infinite: 17 bytes an edge) and one residual per quad at
    # a time (8 bytes a quad); the rest is one block of rows, edges or
    # quads and does not grow from 64x64 to 96x96
    held = []
    for n in (64, 96):
        grid = Grid([n, n])
        held.append(_above_arrays(_verify, files[n]) - 17 * grid.nedges - 8 * grid.nquads)
    assert held[1] <= 1.1 * held[0], held


def test_isothermic_net_shares_a_frozen_array_and_copies_the_rest(net):
    # a read-only float64 array that owns its data is kept as it is, and
    # the net adds only its edge arrays; a writable array and a read-only
    # view of one are copied, so no write to the caller's array reaches it
    owned = np.array(net.mu)
    owned.setflags(write=False)
    kept, _ = _kept_and_peak(IsothermicNet, net.grid, SIG, owned)
    shared = IsothermicNet(net.grid, SIG, owned)
    assert shared.mu is owned
    assert kept <= sum(a.nbytes for a in (shared.edge_ip, shared.labels,
                                           shared.is_infinite)) + 4096, kept
    writable = np.array(net.mu)
    view = writable[:]
    view.setflags(write=False)
    copies = [IsothermicNet(net.grid, SIG, mu) for mu in (writable, view)]
    writable += 1.0
    for copy in copies:
        assert not np.shares_memory(copy.mu, writable) and np.array_equal(copy.mu, net.mu)
