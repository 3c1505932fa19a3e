import numpy as np
import pytest

from dnet import isothermic
from dnet.errors import DegeneracyError, EvolutionError, SpectralCollisionError
from dnet.forms import wedge_vec
from dnet.grid import Grid
from dnet.isothermic import (IsothermicNet, bianchi_check, calapso_transform,
                             christoffel_dual, christoffel_residuals,
                             connection_flatness, darboux_transform,
                             flat_connection, moutard_evolve,
                             quad_cross_ratio_residual, random_cauchy,
                             random_isothermic, special_quantity_solve,
                             stack_pair)
from dnet.koenigs import km_pair_check
from dnet.pseudo_euclidean import Signature, line_distance
from tests.netfile_reference import oriented_edge

SIG42 = Signature(4, 2)
SIG41 = Signature(4, 1)


def null_vector(rng, sig, frame):
    x = frame.pi(rng.standard_normal(sig.dim))
    return frame.o + x + 0.5 * sig.inner(x, x) * frame.q


def test_vanishing_coefficient_quad():
    # mu_l = mu_j + v with (mu_i, v) = 0 and mu_l null makes mu_k = mu_i
    sig = SIG42
    fr = sig.standard_frame()
    rng = np.random.default_rng(0)
    mi = null_vector(rng, sig, fr)
    mj = null_vector(rng, sig, fr)
    for _ in range(50):
        w = rng.standard_normal(6)
        u = w - (sig.inner(mi, w) / sig.inner(mi, mj)) * mj  # (mi, u) = 0
        if abs(sig.inner(u, u)) < 1e-12:
            continue
        s = -2.0 * sig.inner(mj, u) / sig.inner(u, u)
        v = s * u
        ml = mj + v
        if abs(sig.inner(ml, mj)) > 1e-6:
            break
    assert abs(sig.inner(ml, ml)) <= 1e-10
    assert abs(sig.inner(mi, v)) <= 1e-10 * np.linalg.norm(mi) * np.linalg.norm(v)
    mk = moutard_evolve(Grid([2, 2]), sig, [mi, mj], [mi, ml], fr).mu[3]
    assert np.abs(mk - mi).max() <= 1e-9 * np.abs(mi).max()


def test_evolution_matches_quadratic_root_oracle():
    # the evolved vertex is the nontrivial root of (mu_i + c d, mu_i + c d) = 0
    rng = np.random.default_rng(1)
    sig = Signature(3, 1)
    fr = sig.standard_frame()
    line0, line1 = random_cauchy(Grid([2, 2]), sig, rng, 0.3, fr)
    mi, mj = line0[0], line0[1]
    ml = line1[1]
    diff = ml - mj
    # quadratic in c: (mu_i + c diff)^2 = 2 c (mu_i, diff) + c^2 (diff, diff)
    coeffs = [sig.inner(diff, diff), 2 * sig.inner(mi, diff), 0.0]
    roots = np.roots(coeffs)
    nontrivial = roots[np.argmax(np.abs(roots))]
    mk = moutard_evolve(Grid([2, 2]), sig, line0, line1, fr).mu[3]
    assert np.abs(mk - (mi + nontrivial * diff)).max() <= 1e-10 * np.abs(mk).max()


@pytest.mark.parametrize("sig", [SIG41, SIG42], ids=["4,1", "4,2"])
def test_evolution_invariants(sig):
    rng = np.random.default_rng(3)
    g = Grid([6, 6])
    net = random_isothermic(g, sig, rng)
    rep = net.validate()
    assert rep["passed"], rep
    assert rep["nullity"] <= 1e-12
    assert rep["moutard"] <= 1e-11
    assert rep["label_relations"] <= 1e-10


def test_cross_ratio_identity():
    rng = np.random.default_rng(4)
    net = random_isothermic(Grid([6, 6]), SIG42, rng)
    assert quad_cross_ratio_residual(net) <= 1e-8


def test_fill_order_independence():
    # column-major refill reproduces the row-major interior exactly
    from tests.isothermic_reference import evolve_quad
    rng = np.random.default_rng(30)
    g = Grid([5, 5])
    net = random_isothermic(g, SIG42, rng)
    mu = np.array(net.mu)
    for b in range(1, 5):
        for a in range(1, 5):
            vi = np.ravel_multi_index((a - 1, b - 1), g.dims)
            vj = np.ravel_multi_index((a, b - 1), g.dims)
            vl = np.ravel_multi_index((a - 1, b), g.dims)
            vk = np.ravel_multi_index((a, b), g.dims)
            mu[vk] = evolve_quad(SIG42, mu[vi], mu[vj], mu[vl])
    assert np.abs(mu - net.mu).max() <= 1e-11 * np.abs(net.mu).max()


def test_evolution_degeneracy_reported():
    sig = SIG42
    fr = sig.standard_frame()
    rng = np.random.default_rng(5)
    # force an isotropic diagonal: mu_l orthogonal to mu_j
    from tests.test_pseudo import isotropic_pair
    mj, ml_dir = isotropic_pair(rng, fr)
    line0 = np.stack([fr.o, mj])
    line1 = np.stack([fr.o, ml_dir * 1.0])
    # align corners: rebuild with the common corner at fr.o
    g = Grid([2, 2])
    with pytest.raises((EvolutionError, ValueError)):
        moutard_evolve(g, sig, line0, line1, fr)


def test_flat_connection_zero_is_identity(net42):
    gam = flat_connection(net42, 0.0)
    assert np.abs(gam - np.eye(6)).max() == 0.0


@pytest.mark.parametrize("t", [-1.0, 0.3, 2.0])
def test_flat_connection_holonomy(net42, t):
    assert connection_flatness(net42, t)[0] <= 1e-9


def test_flat_connection_orthogonal(net42):
    gam = flat_connection(net42, 0.7)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((4, 6))
    for e in range(0, net42.grid.nedges, 7):
        lhs = SIG42.inner(v @ gam[e].T, v @ gam[e].T)
        assert np.abs(lhs - SIG42.inner(v, v)).max() <= 1e-11 * max(
            1.0, np.abs(SIG42.inner(v, v)).max())


def test_spectral_collision_raises(net42):
    m = float(net42.labels[~net42.is_infinite][3])
    with pytest.raises(SpectralCollisionError):
        flat_connection(net42, m)


def _nearest_finite_label(net, t):
    """``(gap, edge)`` by a direct numpy minimum over the finite labels."""
    fin = np.flatnonzero(~net.is_infinite)
    if not fin.size:
        return np.inf, None
    gaps = np.abs(net.labels[fin] - t)
    return float(gaps.min()), int(fin[np.argmin(gaps)])


def test_nearest_label_on_an_isotropic_stack(net42):
    # the stack of an isotropic Darboux pair: every vertical edge is infinite
    st = stack_pair(net42, darboux_transform(net42, np.inf, rng=np.random.default_rng(8)))
    vertical = st.grid.edge()[1] == 0
    assert st.is_infinite[vertical].all() and not st.is_infinite[~vertical].all()
    finite = st.labels[~st.is_infinite]
    for t in (0.0, -1.0, 0.3, 2.0, 1e6, *finite[:5], finite[3] + 1e-9, -finite[7]):
        gap, e = st.nearest_label(t)
        assert (gap, e) == _nearest_finite_label(st, t)
        assert not st.is_infinite[e]


def test_nearest_label_without_a_finite_label(net42):
    # lifts on one null line: every edge inner product vanishes
    v = net42.mu[0]
    flat = IsothermicNet(Grid([3, 4]), SIG42, np.outer(np.arange(1.0, 13.0), v))
    lone = IsothermicNet(Grid([1, 1]), SIG42, [v])
    for net in (flat, lone):
        assert not (~net.is_infinite).any()
        for t in (0.0, 0.5, -3.0):
            assert net.nearest_label(t) == _nearest_finite_label(net, t) == (np.inf, None)
    flat_connection(flat, 0.5)          # no finite label, so no collision


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_non_finite_spectral_parameter_is_a_value_error(net42, t):
    with pytest.raises(ValueError, match="must be finite"):
        net42.nearest_label(t)
    with pytest.raises(ValueError, match="must be finite"):
        flat_connection(net42, t)


def test_darboux_m_zero_raises_before_any_draw(net42):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="nonzero"):
        darboux_transform(net42, 0.0, rng=rng)
    assert rng.bit_generator.state == state


def test_infinite_label_connection_is_isotropic_exp(net42):
    rng = np.random.default_rng(8)
    hat = darboux_transform(net42, np.inf, rng=rng)
    st = stack_pair(net42, hat)
    vertical = np.nonzero(st.grid.edge()[1] == 0)[0]
    assert np.all(st.is_infinite[vertical])
    gam = flat_connection(st, 0.6)
    from dnet.forms import unpack_bivector
    from dnet.pseudo_euclidean import action_matrix
    e = int(vertical[2])
    expected = np.eye(6) + 0.6 * action_matrix(unpack_bivector(st.eta[e], 6), SIG42)
    assert np.abs(gam[e] - expected).max() <= 1e-12
    for t in (-1.0, 0.3, 2.0):
        assert connection_flatness(st, t)[0] <= 1e-9


@pytest.mark.parametrize("m, kw, reason", [
    (0.5, {"_SEED_MARGIN": 1.0}, "diagonal margin"),
    (np.inf, {"_SEED_MARGIN": 1.0}, "diagonal margin"),
    (0.5, {"_MIN_DENOM": 1e3}, "seed draw"),
    (np.inf, {"_MIN_DENOM": 1e3}, "propagation"),
])
def test_darboux_exhaustion_is_one_line(monkeypatch, net42, m, kw, reason):
    """Auto seeds forced to fail, 6 of them in blocks of 4 and 2: by an
    unreachable margin, or by a denominator bound no seed (finite m) or
    no step (m = inf) clears."""
    for name, value in {"_SEED_BLOCKS": (4, 2), **kw}.items():
        monkeypatch.setattr(isothermic, name, value)
    with pytest.raises(DegeneracyError) as err:
        darboux_transform(net42, m, rng=np.random.default_rng(2))
    text = str(err.value)
    assert "\n" not in text and "array" not in text and "float64" not in text
    head, best = text.split("; best diagonal margin ")
    assert head.startswith("no admissible Darboux seed after 6 draws: rejected at seed draw ")
    counts = {name: int(n) for name, n in (item.rsplit(" ", 1) for item in
                                          head.split("rejected at ")[1].split(", "))}
    assert list(counts) == ["seed draw", "propagation", "normalization",
                            "diagonal margin", "Moutard", "nullity"]
    assert counts[reason] == 6 and sum(counts.values()) == 6
    assert (best == "-inf") == (reason != "diagonal margin")


@pytest.mark.parametrize("pq", [(4, 1), (3, 1)])
def test_isotropic_darboux_fails_at_once_where_it_cannot_exist(pq):
    """Two orthogonal null vectors of a Lorentzian space are proportional,
    so no seed can work: the call raises before its first draw."""
    sig = Signature(*pq)
    net = random_isothermic(Grid([4, 4]), sig, np.random.default_rng(1))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(DegeneracyError) as err:
        darboux_transform(net, np.inf, rng=rng)
    assert str(err.value) == (f"no isotropic Darboux transform in signature {pq}: "
                              f"a null seed orthogonal to the net is proportional to it")
    assert rng.bit_generator.state == before


def darboux_formula_oracle(sig, mu_i, mu_j, hat_i):
    """Right side of the transport identity, evaluated directly."""
    denom = sig.inner(mu_i, hat_i - mu_j)
    return hat_i - mu_j + (sig.inner(mu_j, hat_i) / denom) * mu_i


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_darboux_single_edge_formula(net42, m):
    rng = np.random.default_rng(8)
    hat = darboux_transform(net42, m, rng=rng)
    g = net42.grid
    ip = SIG42.inner
    # propagated value is proportional to the closed-form transport
    for e in (0, 5, 11):
        t, h = int(g.edge_tail[e]), int(g.edge_head[e])
        oracle = darboux_formula_oracle(SIG42, net42.mu[t], net42.mu[h], hat.mu[t])
        assert line_distance(oracle, hat.mu[h]) <= 1e-9
        assert abs(ip(hat.mu[h], hat.mu[h])) <= 1e-10 * np.dot(hat.mu[h], hat.mu[h])
        assert abs(ip(net42.mu[h], hat.mu[h]) - 1.0 / m) <= 1e-10


@pytest.mark.parametrize("m", [0.5, 2.0, np.inf])
def test_darboux_normalization_and_stack(net42, m):
    rng = np.random.default_rng(9)
    hat = darboux_transform(net42, m, rng=rng)
    target = 0.0 if np.isinf(m) else 1.0 / m
    ips = SIG42.inner(net42.mu, hat.mu)
    assert np.abs(ips - target).max() <= 1e-9
    st = stack_pair(net42, hat)
    assert st.validate()["passed"]
    vertical = st.grid.edge()[1] == 0
    if np.isinf(m):
        assert np.all(st.is_infinite[vertical])
    else:
        assert np.abs(st.labels[vertical] - m).max() <= 1e-9


def test_darboux_vertical_cross_ratio(net42):
    # every vertical quad has cross ratio m_jk / m_ij to 1e-10: the tolerance
    # the batched kernel meets against the per-quadruple reference on random
    # nets.  Here the reference itself misses that ratio by 5.4e-10 on one
    # quad, projecting from a conic point 1.5e-4 (in sine) from a corner.
    from dnet.pseudo_euclidean import conic_cross_ratio
    from tests.pseudo_reference import CROSS_RATIO_TOL
    m = 0.5
    rng = np.random.default_rng(10)
    hat = darboux_transform(net42, m, rng=rng)
    st = stack_pair(net42, hat)
    g = st.grid
    vertical = np.flatnonzero(g.quad(slice(None))[1] == 0)
    assert len(vertical) == 5 * 6 * 2
    corners, sides = g.corners(vertical), g.sides(vertical)
    for (i, j, k, _), (e_ij, e_jk, _, _) in zip(corners, sides):
        assert oriented_edge(g, i, j).index == e_ij and oriented_edge(g, j, k).index == e_jk
    expected = st.labels[sides[:, 1]] / st.labels[sides[:, 0]]
    cr = conic_cross_ratio(st.mu[corners], SIG42)
    assert cr == pytest.approx(expected, rel=CROSS_RATIO_TOL, abs=0)


def test_darboux_involutive(net42):
    m = 0.7
    rng = np.random.default_rng(12)
    hat = darboux_transform(net42, m, rng=rng)
    gam = flat_connection(hat, m)
    g = net42.grid
    moved = np.einsum("eab,eb->ea", gam, net42.mu[g.edge_tail])
    worst = max(line_distance(moved[e], net42.mu[int(g.edge_head[e])])
                for e in range(g.nedges))
    assert worst <= 1e-9


def test_darboux_km_pair(net42):
    rng = np.random.default_rng(13)
    hat = darboux_transform(net42, 0.5, rng=rng)
    ok, tau, rep = km_pair_check(net42.grid, net42.mu, hat.mu,
                                 net42.eta, hat.eta)
    assert ok, rep
    assert np.linalg.norm(tau, axis=1).min() > 1e-8


def test_calapso_identity_at_zero(net42):
    moved, T = calapso_transform(net42, 0.0)
    assert np.abs(T - np.eye(6)).max() == 0.0
    assert np.abs(moved.mu - net42.mu).max() == 0.0


def test_calapso_label_shift(net42):
    moved, _ = calapso_transform(net42, 0.4)
    assert moved.validate()["passed"]
    finite = ~net42.is_infinite
    rel = np.abs(moved.labels[finite] - (net42.labels[finite] - 0.4)) / np.abs(
        net42.labels[finite] - 0.4)
    assert rel.max() <= 1e-8


def test_calapso_gauge_identity(net42):
    t, u = 0.4, 0.2
    moved, T = calapso_transform(net42, t)
    lhs = flat_connection(moved, u)
    raw = flat_connection(net42, t + u)
    Tinv = np.linalg.inv(T)
    g = net42.grid
    rhs = T[g.edge_head] @ raw @ Tinv[g.edge_tail]
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_calapso_composition(net42):
    a, _ = calapso_transform(net42, 0.4)
    ab, _ = calapso_transform(a, 0.3)
    direct, _ = calapso_transform(net42, 0.7)
    finite = ~net42.is_infinite
    assert np.abs(ab.labels[finite] - direct.labels[finite]).max() <= 1e-8 * max(
        1.0, np.abs(direct.labels[finite]).max())


def test_christoffel_identities(net42):
    data = christoffel_dual(net42)
    res = christoffel_residuals(net42, data)
    assert res["pairing"] <= 1e-9            # (dx, dxd) = -2/m
    assert res["edge_parallel"] <= 1e-10
    assert res["scale_factor"] <= 1e-10      # dxd = r_i r_j dx, r = -(mu, q)
    assert res["koenigs_area"] <= 1e-10


def test_christoffel_scales_with_eta(net42):
    # scaling mu by sqrt(c) scales eta by c, labels by 1/c, dual by c
    scaled = IsothermicNet(net42.grid, SIG42, np.sqrt(2.0) * net42.mu)
    d1 = christoffel_dual(net42)
    d2 = christoffel_dual(scaled)
    assert np.abs(d2.x_dual - 2.0 * d1.x_dual).max() <= 1e-9 * max(
        1.0, np.abs(d1.x_dual).max())
    assert np.abs(scaled.labels - net42.labels / 2.0).max() <= 1e-9 * max(
        1.0, np.abs(net42.labels).max())


def test_dual_of_dual_proportional_to_net(net41):
    data = christoffel_dual(net41)
    # lift the dual back to the cone and dualize again; the lift scale
    # 1/r matches the Moutard normalization so the labels coincide
    sig, fr = net41.signature, net41.signature.standard_frame()
    from dnet.pseudo_euclidean import stereo_lift
    lifts = stereo_lift(data.x_dual, fr)
    mu_dual = lifts / data.r[:, None]
    dual = IsothermicNet(net41.grid, sig, mu_dual)
    assert dual.validate()["passed"]
    back = christoffel_dual(dual)
    g = net41.grid
    t, h = g.edge_tail, g.edge_head
    dx0 = data.x[h] - data.x[t]
    dx2 = back.x_dual[h] - back.x_dual[t]
    w = np.abs(wedge_vec(dx2, dx0))
    assert w.max() <= 1e-9 * max(1.0, np.abs(dx0).max() * np.abs(dx2).max())


@pytest.mark.parametrize("m", [0.5, 2.0, np.inf])
def test_bianchi_identity(net42, m):
    rng = np.random.default_rng(14)
    hat = darboux_transform(net42, m, rng=rng)
    rep = bianchi_check(net42, hat, m)
    assert rep["parallelism"] <= 1e-8
    assert rep["scalar_identity"] <= 1e-8


def test_bianchi_detects_wrong_integration_constant(net42):
    rng = np.random.default_rng(15)
    hat = darboux_transform(net42, 0.5, rng=rng)
    rep = bianchi_check(net42, hat, 0.5)
    # translate the top dual only: parallelism survives, the scalar fails
    fr = SIG42.standard_frame()
    stacked = stack_pair(net42, hat)
    data = christoffel_dual(stacked, fr)
    n = net42.grid.nverts
    shift = np.zeros_like(data.x_dual[:n])
    shift[:, 0] = 0.37
    xd, xdh = data.x_dual[:n], data.x_dual[n:] + shift
    x, xh = data.x[:n], data.x[n:]
    diff, diffd = xh - x, xdh - xd
    par = np.abs(wedge_vec(diff, diffd)) / np.maximum(
        np.linalg.norm(diff, axis=1)[:, None]
        * np.linalg.norm(diffd, axis=1)[:, None], 1e-300)
    scalar = np.abs(SIG42.inner(diff, diffd) + 2.0 / 0.5)
    assert par.max() > 1e-3 or scalar.max() > 1e-3
    assert rep["scalar_identity"] <= 1e-8   # the matched dual still passes


def test_special_quantity_generic_failure(net42):
    fr = SIG42.standard_frame()
    res = special_quantity_solve(net42, fr.p)
    assert not res["success"]
    assert res["worst"] > 1e-6


def test_special_quantity_guichard_success(guichard):
    fr = guichard.omega.lie_frame
    res = special_quantity_solve(guichard.net, fr.p,
                                 xi_seed=guichard.xi[0])
    assert res["success"], res["worst"]
    q = res["quantity"]
    assert q.coefficient_spread() <= 1e-9
    assert max(res["parallel_residuals"].values()) <= 1e-8
    coeffs = q.norm_polynomial().mean(axis=0)
    assert np.abs(coeffs - [-1.0, -2.0, 0.0]).max() <= 1e-9


def test_eta_apply_keeps_the_written_out_contraction():
    """``(mu_j, c) mu_i - (mu_i, c) mu_j`` per edge, as the Christoffel
    dual, the special-quantity solve and the batched Guichard attempts
    wrote it out, bit for bit."""
    from dnet.isothermic import _eta_apply
    g, ip = Grid([4, 3]), SIG42.inner
    mu = np.random.default_rng(3).standard_normal((2, g.nverts, SIG42.dim))
    c = SIG42.standard_frame().q
    t, h = g.edge_tail, g.edge_head
    one = ip(mu[0, h], c)[:, None] * mu[0, t] - ip(mu[0, t], c)[:, None] * mu[0, h]
    batch = ip(mu[:, h], c)[..., None] * mu[:, t] - ip(mu[:, t], c)[..., None] * mu[:, h]
    assert np.array_equal(_eta_apply(SIG42, g, mu[0], c), one)
    assert np.array_equal(_eta_apply(SIG42, g, mu, c), batch)
