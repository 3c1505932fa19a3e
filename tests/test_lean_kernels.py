"""The lean kernels give the bits of their full-size formulas.

``holonomy``, ``flat_connection``, ``IsothermicNet.eta`` and the product
of two 1-forms are compared with ``np.array_equal`` against the formulas
of ``tests/lean_reference.py`` on lines, a single quad, a 64x64 net, a
stacked Darboux pair and a pair with isotropic edges; their errors name
the same edge.
"""

import numpy as np
import pytest

from dnet.errors import DegeneracyError, GeometryError, SpectralCollisionError
from dnet.forms import BilinearRule, Form1, wedge
from dnet.grid import Grid, holonomy, trivialize_connection
from dnet.isothermic import (IsothermicNet, calapso_transform, darboux_transform,
                             flat_connection, moutard_evolve, random_cauchy,
                             random_isothermic, stack_pair)
from dnet.pseudo_euclidean import Signature
from tests import lean_reference as ref

SIG = Signature(4, 2)
TS = (-1.0, 0.0, 0.3, 0.7, 2.0)


def _cauchy_net(dims, seed):
    grid, frame = Grid(dims), SIG.standard_frame()
    line0, line1 = random_cauchy(grid, SIG, np.random.default_rng(seed), frame=frame)
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
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.mark.parametrize("name", NAMES)
def test_eta_flat_connection_and_holonomy_are_bit_identical(nets, name):
    net = nets[name]
    assert np.array_equal(net.eta, ref.eta(net))
    for t in TS:
        gam = _outcome(flat_connection, net, t)
        assert _same(gam, _outcome(ref.flat_connection, net, t)), t
        if isinstance(gam, np.ndarray):
            assert np.array_equal(holonomy(net.grid, gam), ref.holonomy(net.grid, gam))


@pytest.mark.parametrize("name", ("64x64", "pair", "isotropic pair"))
def test_calapso_is_bit_identical(nets, name):
    net = nets[name]
    moved, T = calapso_transform(net, 0.3)
    T_ref = trivialize_connection(net.grid, ref.flat_connection(net, 0.3), tol=1e-7)
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
    assert np.array_equal(holonomy(grid, gamma), ref.holonomy(grid, gamma), equal_nan=True)


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
    e = int(g.edge_slots[np.ravel_multi_index((40, 49), g.dims), 1])
    assert e >= 3 * 2048
    mu = np.array(big.mu)
    mu[g.edge_head[e]] = 2.0 * mu[g.edge_tail[e]]
    cases = [_mislabelled(nets["isotropic pair"]), _mislabelled(IsothermicNet(g, SIG, mu))]
    for net in cases:
        got = _outcome(flat_connection, net, 0.3)
        assert got[0] is DegeneracyError
        assert got == _outcome(ref.flat_connection, net, 0.3)
    assert got[2] == g.locate_edge(e)
    t = float(big.labels[e])
    got = _outcome(flat_connection, big, t)
    assert got[0] is SpectralCollisionError
    assert got == _outcome(ref.flat_connection, big, t)
