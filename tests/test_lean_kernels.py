"""The lean kernels give the bits of their full-size formulas.

``holonomy``, ``flat_connection``, ``IsothermicNet.eta`` and the product
of two 1-forms are compared with ``np.array_equal`` against the formulas
of ``tests/lean_reference.py`` on lines, a single quad, a 64x64 net, a
stacked Darboux pair and a pair with isotropic edges; their errors name
the same edge.  The blocked verify path (the edge arrays of
``IsothermicNet``, ``validate`` and ``connection_flatness``) is compared
the same way on 33x33 and 64x64 nets in three signatures, on a NaN in
the second quad block, across the block seams of an isotropic pair and
on a degenerate edge, whose ``verify`` report is the same line for line.
"""

import numpy as np
import pytest

from dnet import grid as grid_mod
from dnet import isothermic
from dnet.errors import DegeneracyError, GeometryError, SpectralCollisionError
from dnet.forms import BilinearRule, Form1, wedge
from dnet.grid import Grid, holonomy, trivialize_connection
from dnet.isothermic import (IsothermicNet, _margins, calapso_transform,
                             connection_flatness, darboux_transform, flat_connection,
                             moutard_evolve, random_cauchy, random_isothermic, stack_pair)
from dnet.netfile import FLATNESS_T, NetFile, run_checks
from dnet.pseudo_euclidean import Signature
from tests import lean_reference as ref

SIG = Signature(4, 2)
TS = (-1.0, 0.0, 0.3, 0.7, 2.0)


def _cauchy_net(dims, seed):
    grid, frame = Grid(dims), SIG.standard_frame()
    line0, line1 = random_cauchy(grid, SIG, np.random.default_rng(seed), 0.3, frame)
    return moutard_evolve(grid, SIG, line0, line1, frame=frame)


@pytest.fixture(scope="module")
def nets():
    out = {f"{d[0]}x{d[1]}": _cauchy_net(d, seed) for d, seed in
           (((1, 5), 3), ((5, 1), 3), ((2, 2), 4), ((64, 64), 2))}
    net = random_isothermic(Grid([5, 5]), SIG, np.random.default_rng(7))
    out["pair"] = stack_pair(net, darboux_transform(net, 0.5, rng=np.random.default_rng(1)))
    out["isotropic pair"] = stack_pair(
        net, darboux_transform(net, np.inf, rng=np.random.default_rng(1)))
    assert not out["pair"].is_infinite.any()
    assert out["isotropic pair"].is_infinite.any() and not out["isotropic pair"].is_infinite.all()
    return out


NAMES = ("1x5", "5x1", "2x2", "64x64", "pair", "isotropic pair")


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type, text and locator of its error."""
    try:
        return fn(*args)
    except (GeometryError, ValueError) as err:
        return type(err), str(err), getattr(err, "where", None)


def _same(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and isinstance(b, float) and np.isnan(a):
        return np.isnan(b)
    return a == b


@pytest.mark.parametrize("name", NAMES)
def test_eta_flat_connection_and_holonomy_are_bit_identical(nets, name):
    net = nets[name]
    assert np.array_equal(net.eta, ref.eta(net))
    for t in TS:
        gam = _outcome(flat_connection, net, t)
        assert _same(gam, _outcome(ref.flat_connection, net, t)), t
        if isinstance(gam, np.ndarray):
            assert np.array_equal(holonomy(net.grid, gam.__getitem__), ref.holonomy(net.grid, gam))


@pytest.mark.parametrize("name", ("64x64", "pair", "isotropic pair"))
def test_calapso_is_bit_identical(nets, name):
    net = nets[name]
    moved, T = calapso_transform(net, 0.3)
    T_ref = trivialize_connection(net.grid, ref.flat_connection(net, 0.3).__getitem__)
    assert np.array_equal(T, T_ref)
    assert np.array_equal(moved.mu, np.einsum("nab,nb->na", T_ref, net.mu))


@pytest.mark.parametrize("dims", [(1, 5), (5, 1), (2, 2), (64, 64), (2, 5, 5), (3, 4, 5),
                                  (1026, 2), (2, 2050)])
def test_holonomy_of_any_transports_is_bit_identical(dims):
    # 1026x2 has 1025 quads and 2x2050 has 2049: a last block of one quad
    grid = Grid(dims)
    gamma = np.random.default_rng(sum(dims)).standard_normal((grid.nedges, 6, 6))
    gamma[grid.nedges // 2, 1, 2] = np.nan
    gamma[grid.nedges - 1] = 0.0
    assert np.array_equal(holonomy(grid, gamma.__getitem__), ref.holonomy(grid, gamma),
                          equal_nan=True)


@pytest.mark.parametrize("dims", [(1, 5), (5, 1), (2, 2), (64, 64), (2, 5, 5), (3, 4, 5)])
def test_wedge_of_one_forms_is_bit_identical(dims):
    grid = Grid(dims)
    rng = np.random.default_rng(sum(dims))
    a, b = (Form1(grid, rng.standard_normal((grid.nedges, 4))) for _ in range(2))
    a1, b1 = (Form1(grid, rng.standard_normal(grid.nedges)) for _ in range(2))
    for x, y, rule in ((a, b, BilinearRule.dot(4, [1.0, 1.0, 1.0, -1.0])),
                       (a, b, BilinearRule.wedge_product(4)), (b, a, BilinearRule.dot(4)),
                       (a1, b1, BilinearRule.scalar())):
        assert np.array_equal(wedge(x, y, rule).values, ref.wedge_one_forms(x, y, rule))


def _mislabelled(net):
    """``net`` with its isotropic edges labelled finite, so that their
    orthogonal pairs reach the eigen transport."""
    bad = IsothermicNet(net.grid, net.signature, net.mu)
    bad.is_infinite = np.zeros(net.grid.nedges, bool)
    bad.labels = np.where(net.is_infinite, 1.0, net.labels)
    return bad


def test_errors_name_the_same_edge(nets):
    # the isotropic edges of the pair, and one edge in the fourth block
    # of a 64x64 net whose endpoint lifts are made proportional
    big = nets["64x64"]
    g = big.grid
    e = int(g.slot(np.ravel_multi_index((40, 49), g.dims), 1))
    assert e >= 3 * 2048
    mu = np.array(big.mu)
    mu[g.edge_head[e]] = 2.0 * mu[g.edge_tail[e]]
    cases = [_mislabelled(nets["isotropic pair"]), _mislabelled(IsothermicNet(g, SIG, mu))]
    for net in cases:
        got = _outcome(flat_connection, net, 0.3)
        assert got[0] is DegeneracyError
        assert got == _outcome(ref.flat_connection, net, 0.3)
        assert _outcome(connection_flatness, net, 0.3) == got
    assert got[2] == g.locate_edge(e)
    # a second degenerate edge, first in edge order but on axis 0 in the
    # last quad block: the quad blocks meet edge e first, and the error
    # still names the second one
    e0 = int(g.slot(np.ravel_multi_index((60, 5), g.dims), 0))
    assert e0 < e
    mu[g.edge_head[e0]] = 3.0 * mu[g.edge_tail[e0]]
    net = _mislabelled(IsothermicNet(g, SIG, mu))
    got = _outcome(connection_flatness, net, 0.3)
    assert got == _outcome(ref.flat_connection, net, 0.3) and got[2] == g.locate_edge(e0)
    t = float(big.labels[e])
    got = _outcome(flat_connection, big, t)
    assert got[0] is SpectralCollisionError
    assert got == _outcome(ref.flat_connection, big, t)
    assert _outcome(connection_flatness, big, t) == got


# -- the blocked verify path --------------------------------------------

def _evolved(n, pq):
    sig = Signature(*pq)
    grid, frame = Grid([n, n]), sig.standard_frame()
    line0, line1 = random_cauchy(grid, sig, np.random.default_rng(n), 0.3, frame)
    return moutard_evolve(grid, sig, line0, line1, frame=frame)


def _assert_verify_path_is_bit_identical(net):
    g, sig, mu = net.grid, net.signature, net.mu
    for got, want in zip((net.edge_ip, net.is_infinite, net.labels),
                         ref.isothermic_arrays(g, sig, mu)):
        assert _same(got, want)
    got, want = net.validate(), ref.validate(net)
    assert got.keys() == want.keys()
    assert all(_same(got[k], want[k]) for k in got), (got, want)
    batch = np.stack([mu, mu[::-1]])
    assert all(map(_same, _margins(g, sig, batch), ref.margins(g, sig, batch)))
    for t in (*FLATNESS_T, 0.0, 0.7):
        assert _same(_outcome(connection_flatness, net, t),
                     _outcome(ref.connection_flatness, net, t)), t


def _file(net):
    return NetFile.from_isothermic(net, NetFile.frame_section(net.signature.standard_frame()),
                                   {})


@pytest.mark.parametrize("n", (33, 64))
@pytest.mark.parametrize("pq", ((4, 2), (4, 1), (3, 1)))
def test_verify_path_is_bit_identical(pq, n):
    _assert_verify_path_is_bit_identical(_evolved(n, pq))


def test_nan_in_the_second_quad_block_propagates_and_is_named():
    net = _evolved(64, (4, 2))
    g, block = net.grid, grid_mod._HOLONOMY_BLOCK
    v = int(g.corners(block + block // 2)[2])
    quads = np.flatnonzero((g.corners() == v).any(axis=1))
    assert block <= quads.min() and quads.max() < 2 * block
    mu = np.array(net.mu)
    mu[v, 0] = np.nan
    bad = IsothermicNet(g, net.signature, mu)
    _assert_verify_path_is_bit_identical(bad)
    got = bad.validate()
    for key in ("nullity", "moutard", "label_relations", "diagonal_margin",
                "opposite_label_margin"):
        assert np.isnan(got[key]), key
    assert got["worst_quad"] == g.locate_quad(int(quads.min()))
    value, quad = connection_flatness(bad, 0.3)
    assert np.isnan(value) and quad == int(quads.min())
    moutard = next(c for c in run_checks(_file(bad)).checks if c.name == "isothermic.moutard")
    assert not moutard.passed and moutard.worst == got["worst_quad"]


def test_a_failing_flatness_row_names_a_quad_of_the_perturbed_edge(monkeypatch):
    # one interior edge's label moved by 1e-4: Gamma(t) is no longer flat
    # on the two quads that edge bounds, and each flatness row names one
    net = _evolved(12, (4, 2))
    g = net.grid
    e = int(g.slot(np.ravel_multi_index((5, 6), g.dims), 1))
    bad = IsothermicNet(g, net.signature, net.mu)
    labels = np.array(net.labels)
    labels[e] *= 1.0 + 1e-4
    bad.labels = labels
    monkeypatch.setattr(NetFile, "isothermic_net", lambda nf: bad)
    rows = {c.name: c for c in run_checks(_file(net)).checks}
    for t in FLATNESS_T:
        row = rows[f"isothermic.flatness(t={t})"]
        value, quad = connection_flatness(bad, t)
        assert not row.passed and row.residual == value
        assert row.worst == g.locate_quad(quad) and e in g.sides(quad)


def test_verify_path_across_the_seams_of_an_isotropic_pair(nets, monkeypatch):
    pair = nets["isotropic pair"]
    _assert_verify_path_is_bit_identical(pair)
    # blocks of 16 quads and 24 edges: the 72 quads and 105 edges of the
    # stacked 5x5 pair cross five seams of each
    monkeypatch.setattr(grid_mod, "_HOLONOMY_BLOCK", 16)
    monkeypatch.setattr(grid_mod, "_EDGE_BLOCK", 24)
    _assert_verify_path_is_bit_identical(IsothermicNet(pair.grid, pair.signature, pair.mu))


def test_a_degenerate_edge_gives_the_same_report(monkeypatch):
    # a lift in the fourth quad block made non-null: the eigen transports
    # of its edges are undefined, and each flatness check aborts
    net = _evolved(64, (4, 2))
    g = net.grid
    v = int(g.corners(3 * grid_mod._HOLONOMY_BLOCK + 10)[0])
    mu = np.array(net.mu)
    mu[v, 0] += 1e-3 * np.linalg.norm(mu[v])
    bad = IsothermicNet(g, net.signature, mu)
    _assert_verify_path_is_bit_identical(bad)
    text = run_checks(_file(bad)).to_text()
    aborted = "[aborted: gamma_lambda expects null line representatives]"
    assert sum(aborted in line for line in text.splitlines()) == len(FLATNESS_T)
    # the references count their calls: a patch that run_checks does not
    # see (a name imported before it) would compare the library with itself
    calls = []

    def counted(f):
        def call(net, *args):
            calls.append((f.__name__, *args))
            return f(net, *args)
        return call
    monkeypatch.setattr(isothermic, "connection_flatness", counted(ref.connection_flatness))
    monkeypatch.setattr(IsothermicNet, "validate", counted(ref.validate))
    assert run_checks(_file(bad)).to_text() == text
    assert calls == [("validate",), *(("connection_flatness", t) for t in FLATNESS_T)]
