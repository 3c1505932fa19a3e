"""The blocked construction path gives the bits of the whole-grid one.

``calapso_transform`` (its trivialization takes the transports of
Gamma(t) one quad block at a time), ``christoffel_dual`` (``d x_dual``
in edge blocks, its closedness in quad blocks), ``ParallelFamily.validate``
and ``check_osystem`` are compared with ``np.array_equal`` or equal dicts
against the unblocked formulas of ``tests/lean_reference.py``.  The grids
are 8x8 (one block of each kind), 40x40 (several), a stacked 2x24x24
Darboux pair in its isotropic and its finite form, and lines without
quads; the errors are a non-flat connection, degenerate edges met out of
edge order, a non-closed ``d x_dual`` and a NaN member.
"""

import numpy as np
import pytest

from dnet.errors import GeometryError
from dnet.grid import Grid, trivialize_connection
from dnet.isothermic import (IsothermicNet, calapso_transform, christoffel_dual,
                             darboux_transform, flat_connection, moutard_evolve,
                             random_cauchy, stack_pair)
from dnet.osystem import ParallelFamily, check_osystem
from dnet.pseudo_euclidean import (Signature, standard_chart_indices, stereo_lift,
                                   stereo_project)
from tests import lean_reference as ref

SIG = Signature(4, 2)


def _lattice(n, seed):
    """The square lattice of side 1 lifted by ``o + x + |x|^2/2 q`` with the
    gauge ``(-1)^b``, moved by a small Cayley Lorentz map."""
    grid, frame = Grid([n, n]), SIG.standard_frame()
    a, b = grid.coordinates(np.arange(grid.nverts)).T
    flat = np.zeros((grid.nverts, SIG.dim))
    flat[:, 0], flat[:, 1] = a / (n - 1), b / (n - 1)
    mu = stereo_lift(flat, frame) * np.where(b % 2, -1.0, 1.0)[:, None]
    B = 0.1 * np.random.default_rng(seed).standard_normal((SIG.dim, SIG.dim))
    G = np.diag(SIG.signs.astype(float))
    A = B - G @ B.T @ G
    eye = np.eye(SIG.dim)
    L = np.linalg.solve(eye - A / 2, eye + A / 2)
    return IsothermicNet(grid, SIG, mu @ L.T)


def _cauchy_net(dims, seed):
    grid, frame = Grid(dims), SIG.standard_frame()
    line0, line1 = random_cauchy(grid, SIG, np.random.default_rng(seed), 0.3, frame)
    return moutard_evolve(grid, SIG, line0, line1, frame=frame)


@pytest.fixture(scope="module")
def nets():
    out = {"8x8": _lattice(8, 1), "40x40": _lattice(40, 2),
           "1x9": _cauchy_net((1, 9), 3), "9x1": _cauchy_net((9, 1), 3)}
    net = _lattice(24, 4)
    for name, m in (("isotropic pair", np.inf), ("pair", 0.5)):
        out[name] = stack_pair(net, darboux_transform(net, m, rng=np.random.default_rng(5)))
    assert out["isotropic pair"].grid.dims == (2, 24, 24)
    assert out["isotropic pair"].is_infinite.any() and not out["pair"].is_infinite.any()
    return out


NAMES = ("8x8", "40x40", "1x9", "9x1", "isotropic pair", "pair")


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type, text and locator of its error."""
    try:
        return fn(*args)
    except (GeometryError, ValueError) as err:
        return type(err), str(err), getattr(err, "where", None)


def _same(a, b):
    """Bit-equal results: arrays, dicts of floats, tuples of them, errors."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, IsothermicNet) and isinstance(b, IsothermicNet):
        return _same(a.mu, b.mu) and _same(a.labels, b.labels)
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float) and np.isnan(a):
        return np.isnan(b)
    return type(a) is type(b) and a == b


def _families(net):
    """The Christoffel pair in chart coordinates, alone and with a third
    member, as the construction benchmark checks them."""
    sig = net.signature
    data = christoffel_dual(net)
    idx = standard_chart_indices(sig)
    chart = Signature(sig.p - 1, sig.q - 1)
    x, xd = data.x[:, idx], data.x_dual[:, idx]
    return [(ParallelFamily(net.grid, [x, xd], chart), [[0.0, 1.0], [1.0, 0.0]]),
            (ParallelFamily(net.grid, [x, xd, 2.0 * x + 1.0], chart),
             [[0.7, -0.2, 0.0], [-0.2, 0.0, 0.5], [0.0, 0.5, 0.3]])]


def _assert_families_agree(fam, metric):
    assert _same(_outcome(fam.validate), _outcome(ref.family_validate, fam))
    assert _same(_outcome(check_osystem, fam, metric), _outcome(ref.check_osystem, fam, metric))


@pytest.mark.parametrize("name", NAMES)
def test_calapso_is_bit_identical(nets, name):
    net = nets[name]
    for t in (0.3, -1.0, 0.0):
        got = _outcome(calapso_transform, net, t)
        assert _same(got, _outcome(ref.calapso_transform, net, t)), t
        assert isinstance(got, tuple) and isinstance(got[0], IsothermicNet), got


@pytest.mark.parametrize("name", NAMES)
def test_trivialization_of_an_array_is_bit_identical(nets, name):
    net = nets[name]
    gamma = flat_connection(net, 0.3)
    assert _same(trivialize_connection(net.grid, gamma.__getitem__),
                 ref.trivialize_connection(net.grid, gamma))


@pytest.mark.parametrize("name", NAMES)
def test_christoffel_and_osystem_checks_are_bit_identical(nets, name):
    net = nets[name]
    got, want = christoffel_dual(net), ref.christoffel_dual(net)
    for field in ("x", "x_dual", "r"):
        assert _same(getattr(got, field), getattr(want, field)), field
    for fam, metric in _families(net):
        _assert_families_agree(fam, metric)


def test_a_non_flat_connection_gives_the_same_error(nets):
    # one lift of the 40x40 net replaced by another null vector: Gamma(t)
    # is defined on every edge and not flat around that vertex
    net = nets["40x40"]
    g = net.grid
    frame = SIG.standard_frame()
    mu = np.array(net.mu)
    v = int(np.ravel_multi_index((30, 17), g.dims))
    x = stereo_project(mu[v], frame)
    x[0] += 1e-3
    mu[v] = -SIG.inner(mu[v], frame.q) * stereo_lift(x, frame)
    bad = IsothermicNet(g, SIG, mu)
    got = _outcome(calapso_transform, bad, 0.3)
    assert got[0].__name__ == "FlatnessError", got
    assert got == _outcome(ref.calapso_transform, bad, 0.3)
    assert got[2]["kind"] == "quad"
    got = _outcome(christoffel_dual, bad)
    assert got[0].__name__ == "ClosednessError", got
    assert got == _outcome(ref.christoffel_dual, bad)


def _mislabelled(net):
    """``net`` with its isotropic edges labelled finite, so that their
    orthogonal pairs reach the eigen transport."""
    bad = IsothermicNet(net.grid, net.signature, net.mu)
    bad.is_infinite = np.zeros(net.grid.nedges, bool)
    bad.labels = np.where(net.is_infinite, 1.0, net.labels)
    return bad


def test_degenerate_edges_give_the_same_error(nets):
    # two edges of the 40x40 net with proportional end lifts: the quad
    # blocks meet the later one in edge order first
    net = nets["40x40"]
    g = net.grid
    mu = np.array(net.mu)
    late = int(g.slot(np.ravel_multi_index((5, 20), g.dims), 1))
    early = int(g.slot(np.ravel_multi_index((38, 20), g.dims), 0))
    assert early < late
    for e in (late, early):
        mu[g.edge_head[e]] = 2.0 * mu[g.edge_tail[e]]
    bad = _mislabelled(IsothermicNet(g, SIG, mu))
    got = _outcome(calapso_transform, bad, 0.3)
    assert got[0].__name__ == "DegeneracyError"
    assert got == _outcome(ref.calapso_transform, bad, 0.3)
    assert got[2] == g.locate_edge(early)
    pair = _mislabelled(nets["isotropic pair"])
    assert _same(_outcome(calapso_transform, pair, 0.3),
                 _outcome(ref.calapso_transform, pair, 0.3))


@pytest.mark.parametrize("name", ("8x8", "40x40", "1x9"))
def test_a_nan_member_propagates_alike(nets, name):
    net = nets[name]
    for fam, metric in _families(net):
        members = [np.array(m) for m in fam.members]
        members[-1][net.grid.nverts // 2, 1] = np.nan
        nan_fam = ParallelFamily(net.grid, members, fam.signature)
        assert _same(_outcome(check_osystem, nan_fam, metric),
                     _outcome(ref.check_osystem, nan_fam, metric))
        assert np.isnan(check_osystem(nan_fam, metric)["bracket_vanishes"])
        # the whole-grid SVD of the reference does not converge on NaN
        report = nan_fam.validate()
        assert np.isnan(report["edge_parallel"]) and np.isnan(report["dphi_decomposable"])
        assert report["passed"] is False
