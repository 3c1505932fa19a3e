import numpy as np
import pytest

from dnet.grid import Grid
from dnet.isothermic import christoffel_dual, random_isothermic
from dnet.lie_sphere import associates, sphere_lattice
from dnet.osystem import (ParallelFamily, check_combescure, check_osystem,
                          dual_family)
from dnet.pseudo_euclidean import Signature

SIG3 = Signature(3, 0)


@pytest.fixture(scope="module")
def iso_pair():
    """Isothermic net in R^3 with its Christoffel dual."""
    rng = np.random.default_rng(21)
    net = random_isothermic(Grid([5, 5]), Signature(4, 1), rng)
    data = christoffel_dual(net)
    return net.grid, data.x[:, :3], data.x_dual[:, :3]


def test_family_validation(iso_pair):
    g, x, xd = iso_pair
    fam = ParallelFamily(g, [x, xd], SIG3)
    rep = fam.validate()
    assert rep["passed"], rep


def test_one_member_family_passes():
    # a one-column d Phi is decomposable, and no second member is there
    # for the first to be parallel to
    x = np.random.default_rng(3).standard_normal((16, 3))
    rep = ParallelFamily(Grid([4, 4]), [x], Signature(2, 1)).validate()
    assert rep == {"edge_parallel": 0.0, "dphi_decomposable": 0.0, "passed": True}


def test_constant_multiple_is_combescure():
    g = Grid([4, 4])
    rng = np.random.default_rng(1)
    # a circular net: spherical patch
    pn = sphere_lattice([4, 4], radius=1.3)
    x = pn.x
    xs = 2.3 * x + np.array([1.0, -2.0, 0.0])
    rep = check_combescure(g, x, xs, SIG3)
    assert rep["pairing"] <= 1e-9 and rep["circular_x"] <= 1e-8, rep
    assert rep["circular_x_star"] <= 1e-8, rep
    assert rep["pairing"] <= 1e-14


def test_circular_plus_parallel_is_combescure(iso_pair):
    g, x, xd = iso_pair
    # build an edge-parallel partner by per-edge stretch integration along
    # a tree, using the dual's stretch factors; equals xd up to constant
    rep = check_combescure(g, x, xd, SIG3)
    assert rep["pairing"] <= 1e-9 and rep["circular_x"] <= 1e-8, rep
    assert rep["circular_x_star"] <= 1e-8, rep


def test_non_circular_quad_fails_jointly():
    g = Grid([2, 2])
    rng = np.random.default_rng(3)
    x = np.array([[0.0, 0, 0], [1, 0, 0], [1.3, 1.1, 0.9], [0, 1, 0]])
    x = x[[0, 3, 1, 2]]   # row-major order (0,0),(0,1),(1,0),(1,1)
    lam = np.array([1.3, -0.4, 0.8, 2.0])
    xs = np.zeros_like(x)
    for child, parent, slot in g.staircase_tree():
        xs[child] = xs[parent] + lam[slot][:, None] * (x[child] - x[parent])
    rep = check_combescure(g, x, xs, SIG3)
    assert rep["pairing"] > 1e-6
    assert rep["circular_x"] > 1e-6
    assert rep["circular_x_star"] > 1e-8


def test_dual_family_single_member(iso_pair):
    g, x, _ = iso_pair
    fam = ParallelFamily(g, [x], SIG3)
    duals, rep = dual_family(fam)
    assert rep["dual_edge_parallel"] <= 1e-9 and rep["reassembly_exact"], rep
    assert len(duals) == 3
    for m, y in enumerate(duals):
        assert np.array_equal(y[:, 0], x[:, m])


def test_dual_family_translated_copies(iso_pair):
    g, x, _ = iso_pair
    fam = ParallelFamily(g, [x, x + np.array([0.5, 1.0, -2.0])], SIG3)
    duals, rep = dual_family(fam)
    assert rep["dual_edge_parallel"] <= 1e-9 and rep["reassembly_exact"], rep
    t, h = g.edge_tail, g.edge_head
    direction = np.array([1.0, 1.0])
    for y in duals:
        dy = y[h] - y[t]
        for e in range(g.nedges):
            if np.linalg.norm(dy[e]) < 1e-12:
                continue
            w = dy[e][0] * direction[1] - dy[e][1] * direction[0]
            assert abs(w) <= 1e-10 * np.linalg.norm(dy[e])


def test_dual_family_decomposability(iso_pair):
    g, x, xd = iso_pair
    fam = ParallelFamily(g, [x, xd], SIG3)
    rep = fam.validate()
    assert rep["dphi_decomposable"] <= 1e-10


def test_isothermic_pair_is_osystem(iso_pair):
    g, x, xd = iso_pair
    fam = ParallelFamily(g, [x, xd], SIG3)
    rep = check_osystem(fam, [[0.0, 1.0], [1.0, 0.0]])
    assert rep["passed"], rep
    assert rep["characterization_equality"] <= 1e-11
    assert rep["bracket_vanishes"] <= 1e-9


def test_guichard_triple_is_osystem(guichard):
    fam = ParallelFamily(guichard.pn.grid,
                         [guichard.pn.x, guichard.x_dual, guichard.pn.n], SIG3)
    metric = [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]]
    rep = check_osystem(fam, metric)
    assert rep["passed"], rep


def test_omega_quadruple_is_osystem(omega_net):
    a = associates(omega_net)
    fam = ParallelFamily(omega_net.grid, [a.x, a.x_dual, a.n, a.n_dual], SIG3)
    metric = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    rep = check_osystem(fam, metric)
    assert rep["passed"], rep


def test_weingarten_pair_matches_weingarten_check():
    from dnet.lie_sphere import linear_weingarten_check
    rho = 1.4
    pn = sphere_lattice([5, 5], radius=rho)
    alpha, beta, gamma = 1.0, 0.0, -1.0 / rho ** 2
    fam = ParallelFamily(pn.grid, [pn.x, pn.n], SIG3)
    rep = check_osystem(fam, [[gamma, -beta], [-beta, alpha]])
    lw = linear_weingarten_check(pn, alpha, beta, gamma)
    assert rep["passed"] and lw["weingarten"] <= 1e-8, (rep, lw)
    # and a non-Weingarten coefficient triple fails both
    rep2 = check_osystem(fam, [[0.7, -0.2], [-0.2, 0.3]])
    lw2 = linear_weingarten_check(pn, 0.3, 0.2, 0.7)
    assert not rep2["passed"] and lw2["weingarten"] > 1e-8, (rep2, lw2)


def test_osystem_invariances(guichard):
    g = guichard.pn.grid
    members = [guichard.pn.x, guichard.x_dual, guichard.pn.n]
    metric = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
    perm = [2, 0, 1]
    fam_p = ParallelFamily(g, [members[i] for i in perm], SIG3)
    assert check_osystem(fam_p, metric[np.ix_(perm, perm)])["passed"]
    shifted = [members[0] + np.array([5.0, -1.0, 2.0])] + members[1:]
    assert check_osystem(ParallelFamily(g, shifted, SIG3), metric)["passed"]
    th = 0.9
    R = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]])
    rotated = [m @ R.T for m in members]
    assert check_osystem(ParallelFamily(g, rotated, SIG3), metric)["passed"]


def test_osystem_rejects_bad_metric(iso_pair):
    g, x, xd = iso_pair
    fam = ParallelFamily(g, [x, xd], SIG3)
    with pytest.raises(ValueError):
        check_osystem(fam, [[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        check_osystem(fam, np.eye(3))
