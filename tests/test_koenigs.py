import numpy as np
import pytest

from dnet.errors import (ChartError, NotDualError, NotKoenigsError,
                         SeedDegeneracyError)
from dnet.forms import wedge_vec
from dnet.grid import Grid
from dnet.koenigs import (LineCongruence, _g_map_inverses, _g_maps, _raise_g_map,
                          christoffel_ratio, extract_pair, km_pair_check,
                          koenigs_dual, moutard_lift_from_eta, pluecker_residual,
                          quad_holonomy_residual, random_moutard_net)
from dnet.pseudo_euclidean import Signature, line_distance
from tests.pseudo_reference import projective_cross_ratio


@pytest.fixture(scope="module")
def moutard_net():
    rng = np.random.default_rng(42)
    net, mu = random_moutard_net(Grid([4, 4]), 4, rng)
    return net, mu


@pytest.fixture(scope="module")
def dual_congruence(moutard_net):
    """Applicable congruence spanned by an affine lift and its dual."""
    net, mu = moutard_net
    rng = np.random.default_rng(43)
    alpha = rng.standard_normal(4)
    alpha /= np.linalg.norm(alpha)
    F, Fd, rep = koenigs_dual(net, alpha)
    assert rep["passed"]
    Fd = Fd + rng.standard_normal(4)      # generic translate off degeneracy
    g = net.grid
    dsm = Fd[g.edge_head] - Fd[g.edge_tail]
    eta = wedge_vec(dsm, 0.5 * (F[g.edge_head] + F[g.edge_tail]))
    return LineCongruence(g, F, Fd, eta), F, Fd


def test_single_edge_lift_recovery():
    g = Grid([2, 1])
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.5])
    from dnet.koenigs import ProjectiveNet
    eta = wedge_vec(b, a)[None, :]
    net = ProjectiveNet(g, np.stack([a, 2 * b]), eta)
    mu = moutard_lift_from_eta(net, a)
    assert np.abs(mu[1] - b).max() <= 1e-14


def test_lift_seed_rescale_alternates(moutard_net):
    net, mu = moutard_net
    mu1 = moutard_lift_from_eta(net, mu[0])
    mu2 = moutard_lift_from_eta(net, 2.0 * mu[0])
    g = net.grid
    for v in range(g.nverts):
        parity = int(g.coordinates(v).sum()) % 2
        factor = 2.0 if parity == 0 else 0.5
        assert np.abs(mu2[v] - factor * mu1[v]).max() <= 1e-12 * np.abs(mu1[v]).max()


def test_lift_roundtrip_from_known_moutard(moutard_net):
    net, mu = moutard_net
    rec = moutard_lift_from_eta(net, mu[0])
    assert np.abs(rec - mu).max() <= 1e-10 * np.abs(mu).max()


def test_lift_rejects_nan_eta_off_the_tree():
    """A NaN on non-tree edge 4 reaches only the consistency check, which
    names that edge."""
    from dnet.koenigs import ProjectiveNet
    net, _ = random_moutard_net(Grid([3, 3]), 4, np.random.default_rng(5))
    eta = net.eta.copy()
    eta[4] = np.nan
    with pytest.raises(NotKoenigsError) as err:
        moutard_lift_from_eta(ProjectiveNet(net.grid, net.lifts, eta), net.lifts[0])
    assert err.value.where["index"] == 4 and np.isnan(err.value.residual)


def test_non_koenigs_rejected():
    g = Grid([3, 3])
    rng = np.random.default_rng(1)
    from dnet.koenigs import ProjectiveNet
    lifts = rng.standard_normal((g.nverts, 4))
    eta = rng.standard_normal((g.nedges, 6))
    # project eta onto the edge line pairs so tree propagation succeeds
    t, h = g.edge_tail, g.edge_head
    w = wedge_vec(lifts[h], lifts[t])
    coef = np.sum(eta * w, axis=1) / np.sum(w * w, axis=1)
    net = ProjectiveNet(g, lifts, coef[:, None] * w)
    with pytest.raises(NotKoenigsError):
        moutard_lift_from_eta(net, lifts[0])


def test_koenigs_dual_parallel_diagonals(moutard_net):
    net, mu = moutard_net
    rng = np.random.default_rng(2)
    alpha = rng.standard_normal(4)
    F, Fd, rep = koenigs_dual(net, alpha)
    assert rep["passed"]
    g = net.grid
    # oracle: opposite diagonals parallel via the wedge
    for n in range(g.nquads):
        i, j, k, l = g.corners(n)
        d1, d2 = F[k] - F[i], Fd[l] - Fd[j]
        w = wedge_vec(d1, d2)
        assert np.linalg.norm(w) <= 1e-9 * np.linalg.norm(d1) * np.linalg.norm(d2)
        d3, d4 = F[l] - F[j], Fd[k] - Fd[i]
        assert np.linalg.norm(wedge_vec(d3, d4)) <= 1e-9 * np.linalg.norm(d3) * np.linalg.norm(d4)


def test_koenigs_dual_scales_with_eta(moutard_net):
    net, mu = moutard_net
    from dnet.koenigs import ProjectiveNet
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(4)
    F1, Fd1, _ = koenigs_dual(net, alpha)
    scaled = ProjectiveNet(net.grid, net.lifts, 2.5 * net.eta)
    F2, Fd2, _ = koenigs_dual(scaled, alpha)
    assert np.abs(Fd2 - 2.5 * Fd1).max() <= 1e-10 * max(1.0, np.abs(Fd1).max())


def test_koenigs_dual_chart_error(moutard_net):
    net, mu = moutard_net
    # a chart through one of the points is degenerate
    alpha = np.linalg.svd(net.lifts[3][None])[2][-1]
    with pytest.raises(ChartError):
        koenigs_dual(net, alpha)


def test_km_pair_by_grid_shift():
    rng = np.random.default_rng(5)
    net, mu = random_moutard_net(Grid([5, 4]), 4, rng)
    g = Grid([4, 4])
    # shift by one step along axis 0: mu_minus(a, b) = mu(a + 1, b)
    big = net.grid
    idx0 = [np.ravel_multi_index((a, b), big.dims) for a in range(4) for b in range(4)]
    idx1 = [np.ravel_multi_index((a + 1, b), big.dims) for a in range(4) for b in range(4)]
    ok, tau, rep = km_pair_check(g, mu[idx0], mu[idx1])
    assert ok, rep
    assert np.abs(tau).max() > 0


def test_km_pair_generic_failure():
    rng = np.random.default_rng(6)
    g = Grid([4, 4])
    _, mu1 = random_moutard_net(g, 4, rng)
    _, mu2 = random_moutard_net(g, 4, rng)
    ok, _, rep = km_pair_check(g, mu1, mu2)
    assert not ok
    assert rep["vertical_moutard"] > 1e-3


def test_congruence_validates(dual_congruence):
    cong, F, Fd = dual_congruence
    rep = cong.validate()
    assert rep["passed"], rep
    assert pluecker_residual(cong.eta, 4).max() <= 1e-10


def _g(cong, e, points):
    """The edge map g from the head of canonical edge e to its tail, on
    each of ``points``."""
    n, g = len(points), cong.grid
    out, failures = _g_maps(cong, np.tile(cong.eta[e], (n, 1)), np.full(n, g.edge_head[e]),
                            np.full(n, g.edge_tail[e]), np.asarray(points, float))
    _raise_g_map(failures)
    return out


def _g_inverse(cong, e, lines):
    """The inverse edge map from the tail of canonical edge e to its head."""
    n, g = len(lines), cong.grid
    return _g_map_inverses(cong, np.tile(cong.eta[e], (n, 1)), np.full(n, g.edge_tail[e]),
                           np.full(n, g.edge_head[e]), lines)


def _intersection_line(cong, e):
    return cong._edge_spans(np.array([e]))[2][0]


def test_gmap_r_zero_hits_intersection(dual_congruence):
    cong, F, Fd = dual_congruence
    (out,) = _g(cong, 3, [(1.0, 0.0)])    # [tau, 0] -> s_ij
    tail = cong.grid.edge_tail[3]
    v = out[0] * cong.sigma1[tail] + out[1] * cong.sigma2[tail]
    assert line_distance(v, _intersection_line(cong, 3)) <= 1e-9


def test_gmap_inverse_roundtrip(dual_congruence):
    cong, F, Fd = dual_congruence
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((5, 2))
    back = _g_inverse(cong, 4, _g(cong, 4, pts))
    cr = np.abs(pts[:, 0] * back[:, 1] - pts[:, 1] * back[:, 0])
    assert np.all(cr <= 1e-9 * np.linalg.norm(pts, axis=1) * np.linalg.norm(back, axis=1))


def test_gmap_preserves_cross_ratios(dual_congruence):
    cong, F, Fd = dual_congruence
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((4, 2))
    images = _g(cong, 6, pts)
    cr_in = projective_cross_ratio(*pts)
    cr_out = projective_cross_ratio(*images)
    assert cr_out == pytest.approx(cr_in, rel=1e-9)


def test_bipartite_connections_flat(dual_congruence):
    cong, F, Fd = dual_congruence
    rng = np.random.default_rng(10)
    pts = [rng.standard_normal(2) for _ in range(5)]
    for quad in (0, 3, 7):
        assert quad_holonomy_residual(cong, True, quad, pts) <= 1e-9
        assert quad_holonomy_residual(cong, False, quad, pts) <= 1e-9


def test_extract_pair_roundtrip(dual_congruence):
    cong, F, Fd = dual_congruence
    g = cong.grid
    pair = extract_pair(cong, seeds_plus=((1, 0), (1, 0)),
                        seeds_minus=((0, 1), (0, 1)), seed=0, signature=Signature(3, 1))
    assert pair.report["passed"], pair.report
    for v in range(g.nverts):
        assert line_distance(pair.net_plus.lifts[v], F[v]) <= 1e-9
        assert line_distance(pair.net_minus.lifts[v], Fd[v]) <= 1e-9


def test_extract_pair_two_seeds_give_two_pairs(dual_congruence):
    cong, F, Fd = dual_congruence
    p1 = extract_pair(cong, seed=1, signature=Signature(3, 1))
    p2 = extract_pair(cong, seed=2, signature=Signature(3, 1))
    assert p1.report["passed"] and p2.report["passed"]
    d = max(line_distance(p1.net_plus.lifts[v], p2.net_plus.lifts[v])
            for v in range(cong.grid.nverts))
    assert d > 1e-3          # genuinely different valid pairs


def test_extract_pair_gauge_relation(dual_congruence):
    cong, F, Fd = dual_congruence
    pair = extract_pair(cong, seed=3, signature=Signature(3, 1))
    g = cong.grid
    t, h = g.edge_tail, g.edge_head
    tau = wedge_vec(pair.mu_minus, pair.mu_plus)
    lhs = pair.net_minus.eta - pair.net_plus.eta - (tau[h] - tau[t])
    assert np.abs(lhs).max() <= 1e-10 * np.abs(pair.net_plus.eta).max()


def test_extract_pair_seed_on_intersection_fails(dual_congruence):
    cong, F, Fd = dual_congruence
    g = cong.grid
    base_b = 0
    e = int(np.flatnonzero((g.edge_tail == base_b) | (g.edge_head == base_b))[0])
    s_line = _intersection_line(cong, e)
    coords, *_ = np.linalg.lstsq(
        np.stack([cong.sigma1[base_b], cong.sigma2[base_b]], axis=1),
        s_line, rcond=None)
    with pytest.raises(SeedDegeneracyError):
        extract_pair(cong, seeds_plus=(coords, (1.0, 0.0)),
                     seeds_minus=((0.0, 1.0), (0.0, 1.0)), seed=0, signature=Signature(3, 1))


def test_christoffel_ratio_constant_scale():
    g = Grid([4, 4])
    rng = np.random.default_rng(11)
    sp = rng.standard_normal((g.nverts, 4))
    sm = 2.56 * sp + rng.standard_normal(4)
    r, rep = christoffel_ratio(g, sp, sm)
    assert rep["passed"]
    assert np.abs(r - np.sqrt(2.56)).max() <= 1e-10


def test_factorization_recovers_planted_field():
    from dnet.koenigs import factor_edge_ratios
    g = Grid([4, 4])
    planted = np.array([1.0 + 0.1 * (c[0] + 2 * c[1]) for c in g.coordinates(np.arange(g.nverts))])
    lam = planted[g.edge_tail] * planted[g.edge_head]
    r, quad_res, fact_res, _ = factor_edge_ratios(g, lam)
    assert quad_res <= 1e-12
    assert fact_res <= 1e-12
    # recovery up to the global alternating scale pattern
    scale = r[0] / planted[0]
    parities = np.array([(-1.0) ** (c.sum() % 2) for c in g.coordinates(np.arange(g.nverts))])
    adjusted = r / (scale ** parities)
    assert np.abs(adjusted - planted).max() <= 1e-10


def test_christoffel_quad_product(dual_congruence):
    cong, F, Fd = dual_congruence
    r, rep = christoffel_ratio(cong.grid, F, Fd)
    assert rep["quad_product"] <= 1e-10
    assert rep["factorization"] <= 1e-9


def test_christoffel_rejects_non_parallel():
    g = Grid([3, 3])
    rng = np.random.default_rng(13)
    sp = rng.standard_normal((g.nverts, 4))
    sm = rng.standard_normal((g.nverts, 4))
    with pytest.raises(NotDualError):
        christoffel_ratio(g, sp, sm)


def test_christoffel_ratio_rejects_nan_section():
    """A NaN vertex of the minus section raises, naming an edge through
    it, where it used to give back a failed report."""
    g = Grid([4, 4])
    rng = np.random.default_rng(11)
    sp = rng.standard_normal((g.nverts, 4))
    sm = 2.56 * sp + rng.standard_normal(4)
    sm[5] = np.nan
    with pytest.raises(NotDualError) as err:
        christoffel_ratio(g, sp, sm)
    e = err.value.where["index"]
    assert 5 in (g.edge_tail[e], g.edge_head[e]) and np.isnan(err.value.residual)


def test_balance_keeps_the_written_out_rescale():
    """The alternating rescale as pair extraction and the Omega-net
    constructor wrote it out, bit for bit."""
    from dnet.koenigs import _balance
    g = Grid([5, 4])
    rng = np.random.default_rng(6)
    mu_p, mu_m = rng.standard_normal((2, g.nverts, 6)) * rng.uniform(0.1, 9, (2, g.nverts, 1))
    parity = 1.0 - 2.0 * (g.coordinates(np.arange(g.nverts)).sum(axis=1) % 2)
    n_even = np.median(np.linalg.norm(mu_p[parity > 0], axis=1))
    n_odd = np.median(np.linalg.norm(mu_p[parity < 0], axis=1))
    c = np.sqrt(max(n_odd, 1e-300) / max(n_even, 1e-300))
    got = _balance(g, mu_p, mu_m)
    assert np.array_equal(got[0], mu_p * (c ** parity)[:, None])
    assert np.array_equal(got[1], mu_m * (c ** (-parity))[:, None])
