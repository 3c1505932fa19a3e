import numpy as np
import pytest

from dnet.errors import DegeneracyError, FrameError
from dnet.forms import Form0, curly_wedge, exterior_derivative, wedge_vec
from dnet.grid import Grid
from dnet.isothermic import (IsothermicNet, calapso_transform, darboux_transform,
                             stack_pair)
from dnet.koenigs import LineCongruence, extract_pair
from dnet.lie_sphere import (LieFrame, OmegaNet, PrincipalNet,
                             associates, calapso_legendre, check_guichard,
                             check_omega, classify_special, darboux_legendre,
                             demoulin_radii, dual_legendre, eisenhart_general,
                             eisenhart_guichard, gauge_identity_residual,
                             guichard_generate, legendre_lift,
                             linear_weingarten_check, minimal_net,
                             omega_edge_labels, omega_from_darboux_pair,
                             principal_from_legendre, random_lie_frame,
                             sphere_lattice, standard_lie_frame)
from dnet.pseudo_euclidean import Frame, Signature, line_distance
from tests import netfile_reference
from tests.pseudo_reference import plane_distance
from dnet.isothermic import ConservedQuantity

SIG42 = Signature(4, 2)


def max_plane_distance(om1, om2):
    return max(plane_distance((om1.y[v], om1.t[v]), (om2.y[v], om2.t[v]))
               for v in range(om1.grid.nverts))


# -- principal nets and Legendre lifts ------------------------------------

def test_sphere_lattice_is_principal():
    pn = sphere_lattice([5, 6], radius=1.5)
    rep = pn.validate()
    assert rep["passed"], rep
    assert np.abs(pn.radius - 1.5).max() <= 1e-10


def test_planar_strip_has_flat_edges_and_frame_error():
    g = Grid([4, 4])
    x = np.zeros((g.nverts, 3))
    x[:, :2] = g.coordinates(np.arange(g.nverts))
    n = np.tile([0.0, 0.0, 1.0], (g.nverts, 1))
    pn = PrincipalNet(g, x, n)
    assert np.abs(pn.kappa).max() <= 1e-14
    # curvature spheres sit in q^perp: the standard frame is inadmissible
    with pytest.raises(FrameError):
        legendre_lift(pn)


def test_legendre_lift_roundtrip():
    pn = sphere_lattice([5, 5], radius=2.0, center=(0.3, -0.2, 0.6))
    lf = standard_lie_frame()
    y, t, agree = legendre_lift(pn, lf)
    assert agree <= 1e-10
    ip = SIG42.inner
    assert np.abs(ip(y, y)).max() <= 1e-12
    assert np.abs(ip(t, t)).max() <= 1e-12
    assert np.abs(ip(y, t)).max() <= 1e-12
    back = principal_from_legendre(pn.grid, y, t, lf)
    assert np.abs(back.x - pn.x).max() <= 1e-11
    assert np.abs(back.n - pn.n).max() <= 1e-11
    assert np.abs(back.kappa - pn.kappa).max() <= 1e-11


@pytest.mark.parametrize("make", [standard_lie_frame,
                                  lambda: random_lie_frame(np.random.default_rng(4))])
def test_lie_frame_is_a_frozen_frame(make):
    lf = make()
    assert isinstance(lf, Frame)
    for name in ("o", "q", "p", "basis3"):
        with pytest.raises(ValueError):
            getattr(lf, name)[0] = 1.0
        with pytest.raises(AttributeError):
            setattr(lf, name, getattr(lf, name).copy())
    # the vectors are copies: the caller's arrays stay writable and apart
    basis3 = lf.basis3.copy()
    other = LieFrame(lf.signature, lf.o, lf.q, lf.p, basis3)
    basis3[0] = 0.0
    assert basis3.flags.writeable and np.array_equal(other.basis3, lf.basis3)


def test_standard_lie_frame_is_built_once():
    lf = standard_lie_frame()
    assert lf is standard_lie_frame()
    assert np.array_equal(lf.basis3, np.eye(6)[:3]) and np.array_equal(lf.p, np.eye(6)[4])
    std = SIG42.standard_frame()
    assert np.array_equal(lf.o, std.o) and np.array_equal(lf.q, std.q)


def test_round_sphere_curvature_radii():
    rho = 2.5
    pn = sphere_lattice([4, 7], radius=rho)
    # oracle: kappa from the edgewise solve of the contact relation
    t, h = pn.grid.edge_tail, pn.grid.edge_head
    dx, dn = pn.x[h] - pn.x[t], pn.n[h] - pn.n[t]
    oracle = -np.sum(dn * dx, axis=1) / np.sum(dx * dx, axis=1)
    assert np.abs(pn.kappa - oracle).max() <= 1e-14
    assert np.abs(1.0 / pn.kappa - rho).max() <= 1e-10


def test_omega_round_trip_through_principal(omega_net):
    lf = omega_net.lie_frame
    pn = omega_net.principal()
    y, t, agree = legendre_lift(pn, lf)
    assert agree <= 1e-9
    assert np.abs(y - omega_net.y).max() <= 1e-10 * max(1, np.abs(omega_net.y).max())
    assert np.abs(t - omega_net.t).max() <= 1e-10 * max(1, np.abs(omega_net.t).max())


# -- Omega nets ------------------------------------------------------------

def test_omega_from_darboux_pair_invariants(omega_net):
    rep = omega_net.validate()
    assert rep["passed"], rep
    assert np.abs(SIG42.inner(omega_net.mu_plus, omega_net.mu_minus)).max() <= 1e-10


def test_omega_extract_recovers_pair(omega_net):
    cong = omega_net.congruence()
    g = omega_net.grid
    colors = [int(g.coordinates(v).sum()) % 2 for v in range(g.nverts)]
    base_b = next(v for v in range(g.nverts) if colors[v] == 0)
    base_w = next(v for v in range(g.nverts) if colors[v] == 1)

    def coords_of(vec, v):
        M = np.stack([omega_net.y[v], omega_net.t[v]], axis=1)
        c, *_ = np.linalg.lstsq(M, vec, rcond=None)
        return c

    pair = extract_pair(
        cong,
        seeds_plus=(coords_of(omega_net.mu_plus[base_b], base_b),
                    coords_of(omega_net.mu_plus[base_w], base_w)),
        seeds_minus=(coords_of(omega_net.mu_minus[base_b], base_b),
                     coords_of(omega_net.mu_minus[base_w], base_w)),
        seed=0, signature=omega_net.signature)
    assert pair.report["passed"]
    for v in range(g.nverts):
        assert line_distance(pair.net_plus.lifts[v], omega_net.mu_plus[v]) <= 1e-8
        assert line_distance(pair.net_minus.lifts[v], omega_net.mu_minus[v]) <= 1e-8


def test_associates_identities(omega_net):
    a = associates(omega_net)
    assert a.reconstruction <= 1e-9      # eta = eta_q ^~ y + eta_p ^~ t
    assert a.duality <= 1e-9             # dxd ^~ dx + dnd ^~ dn = 0
    pn = omega_net.principal()
    rep = check_omega(pn, a.x_dual, a.n_dual)
    assert rep["passed"], rep
    # mixed-area statement A(xd, x) + A(nd, n) = 0
    from dnet.forms import mixed_area
    g = omega_net.grid
    s = (mixed_area(Form0(g, a.x_dual), Form0(g, a.x)).values
         + mixed_area(Form0(g, a.n_dual), Form0(g, a.n)).values)
    assert np.abs(s).max() <= 1e-9 * max(1.0, np.abs(a.x_dual).max())


def test_associates_scale_with_eta(omega_net):
    scaled = OmegaNet(omega_net.grid, omega_net.lie_frame, omega_net.y,
                      omega_net.t, 2.0 * omega_net.eta,
                      mu_plus=omega_net.mu_plus, mu_minus=omega_net.mu_minus)
    a1 = associates(omega_net)
    a2 = associates(scaled)
    assert np.abs(a2.x_dual - 2.0 * a1.x_dual).max() <= 1e-10 * max(
        1.0, np.abs(a1.x_dual).max())
    # the trace-identity labels of eta scale reciprocally
    l1 = omega_edge_labels(omega_net)
    l2 = netfile_reference.omega_edge_labels(scaled)
    assert np.abs(l2 - l1 / 2.0).max() <= 1e-8 * max(1.0, np.abs(l1).max())


def test_check_omega_rejects_trivial_duals(omega_net):
    pn = omega_net.principal()
    rep = check_omega(pn, pn.x, pn.n)
    assert not rep["passed"]


def test_labels_match_isothermic_and_gauge_invariant(omega_net, net42):
    # the pair's labels, and the trace identity of eta alone
    labels = omega_edge_labels(omega_net)
    assert np.array_equal(labels, net42.labels)
    rel = np.abs((netfile_reference.omega_edge_labels(omega_net) - labels) / labels)
    assert rel.max() <= 1e-9
    rng = np.random.default_rng(17)
    tau = rng.standard_normal(omega_net.grid.nverts)
    tauv = tau[:, None] * wedge_vec(omega_net.y, omega_net.t)
    g = omega_net.grid
    eta2 = omega_net.eta + tauv[g.edge_head] - tauv[g.edge_tail]
    labels2 = netfile_reference.omega_edge_labels(
        LineCongruence(g, omega_net.y, omega_net.t, eta2), signature=SIG42)
    assert np.abs((labels2 - labels) / labels).max() <= 1e-9


def test_eisenhart_general(omega_net):
    a = associates(omega_net)
    labels = omega_edge_labels(omega_net)
    rep = eisenhart_general(omega_net.principal(), a.x_dual, a.n_dual, labels)
    assert rep["pairing"] <= 1e-8


def test_eisenhart_homogeneous_in_eta(omega_net):
    # eta is quadratic in the pair, so the pair scales by sqrt(3)
    root = np.sqrt(3.0)
    scaled = OmegaNet(omega_net.grid, omega_net.lie_frame, omega_net.y,
                      omega_net.t, 3.0 * omega_net.eta,
                      mu_plus=root * omega_net.mu_plus, mu_minus=root * omega_net.mu_minus)
    a = associates(scaled)
    labels = omega_edge_labels(scaled)
    rep = eisenhart_general(scaled.principal(), a.x_dual, a.n_dual, labels)
    assert rep["pairing"] <= 1e-8


def test_gauge_identity(omega_net):
    for t in (0.37, -0.8):
        assert gauge_identity_residual(omega_net, t) <= 1e-9


# -- Guichard nets ----------------------------------------------------------

def test_guichard_interior_conditions(guichard):
    d = guichard.diagnostics
    assert d["success"]
    assert d["orthogonality"] <= 1e-10
    assert d["xi_p"] <= 1e-12
    assert d["eta_p_is_dt"] <= 1e-9


def test_guichard_omega_and_associate(guichard):
    assert guichard.omega.validate()["passed"]
    rep = check_guichard(guichard.pn, guichard.x_dual)
    assert rep["passed"], rep
    a = associates(guichard.omega)
    drift = a.n_dual - a.n
    assert np.abs(drift - drift[0]).max() <= 1e-9   # associate Gauss map is n


def test_guichard_eisenhart(guichard):
    labels = omega_edge_labels(guichard.omega)
    rep = eisenhart_guichard(guichard.pn, guichard.x_dual, labels)
    assert rep["passed"], rep
    assert rep["eisenhart"] <= 1e-8
    assert rep["ratio_identity"] <= 1e-9


def test_demoulin_radii(guichard):
    rep = demoulin_radii(guichard)
    assert rep["passed"], rep
    assert rep["product"] <= 1e-8


def test_demoulin_fails_on_non_guichard(omega_net):
    # a generic Omega net packaged with xdual = associate is not Guichard,
    # so the reciprocal-radius product must fail
    a = associates(omega_net)
    rep = check_guichard(omega_net.principal(), a.x_dual)
    assert not rep["passed"]


def test_guichard_quantity_and_class(guichard):
    q = guichard.quantity
    coeffs = q.norm_polynomial()
    assert np.abs(coeffs - np.array([-1.0, -2.0, 0.0])).max() <= 1e-9
    assert classify_special(q, guichard.net) == "guichard_r3"
    for t in (-1.5, 0.3, 0.9):
        assert q.parallel_residual(guichard.net, t) <= 1e-8


def test_guichard_fault_injection_localizes():
    rep = guichard_generate([5, 5], seed=2, skip_constraint_at=3)
    assert rep["success"] is False
    assert rep["orthogonality"] > 1e-3
    # the fault was planted at Cauchy index 3 on the first line; the worst
    # interior defect must sit next to it
    worst = np.array(rep["worst_vertex"])
    assert abs(worst[0] - 3) + abs(worst[1] - 0) <= 2


def test_classify_special_tags():
    sig = SIG42
    g1 = Grid([1, 1])

    def quantity(a, b):
        # synthesize p0, p1 on a single vertex with (p,p) = a + bt exactly:
        # p0 with (p0,p0) = a, p1 null with 2 (p0, p1) = b
        e1 = np.zeros(6); e1[0] = 1.0
        e5 = np.zeros(6); e5[4] = 1.0
        o = np.zeros(6); o[3] = 0.5; o[5] = 0.5
        q = np.zeros(6); q[5] = 1.0; q[3] = -1.0
        if a == 0:
            p0 = q
            p1 = o * (-b)          # (q, o) = -1, o null
        else:
            p0 = e5 if a < 0 else e1
            p1 = (q + o * 0) * 0.0
            # p1 null with 2 (p0, p1) = b: use o scaled; (e5, o) = ... 0
            # fall back to combos of o, q: (e5, o) = (e5, q) = 0, so add a
            # light-cone vector meeting p0
            w = np.zeros(6); w[0] = 1.0; w[4] = 1.0   # null, (e5, w) = -1
            if a < 0:
                p1 = w * (-b / 2.0)
            else:
                v = np.zeros(6); v[0] = 1.0; v[4] = 1.0
                p1 = v * (b / 2.0)                    # (e1, v) = 1
        return ConservedQuantity(p0=np.tile(p0, (1, 1)),
                                 p1=np.tile(p1, (1, 1)), signature=sig)

    assert classify_special(quantity(-1.0, -2.0)) == "guichard_r3"
    assert classify_special(quantity(1.0, -2.0)) == "guichard_r21"
    assert classify_special(quantity(-1.0, 0.0)) == "isothermic"
    assert classify_special(quantity(0.0, -2.0)) == "l_guichard"
    assert classify_special(quantity(0.0, 0.0)) == "l_isothermic"


def test_classify_invariant_under_rescaling(guichard):
    q = guichard.quantity
    scaled = ConservedQuantity(p0=1.7 * q.p0, p1=1.7 * 0.4 * q.p1,
                               signature=q.signature)
    # p -> 1.7 p and t -> t / 0.4 keep the class
    assert classify_special(scaled) == "guichard_r3"


def test_classify_rejects_quadratic_norm(guichard):
    q = guichard.quantity
    bad = ConservedQuantity(p0=q.p0, p1=q.p0 + q.p1, signature=q.signature)
    with pytest.raises(DegeneracyError):
        classify_special(bad)


# -- transformations of Legendre maps ---------------------------------------

def test_darboux_legendre_routes_agree(omega_net):
    from dnet.isothermic import _finite_darboux_seed
    plus = IsothermicNet(omega_net.grid, SIG42, omega_net.mu_plus)
    minus = IsothermicNet(omega_net.grid, SIG42, omega_net.mu_minus)
    seed = _finite_darboux_seed(plus, np.random.default_rng(42))
    out = darboux_legendre(omega_net, 0.45, seed=seed, rng=np.random.default_rng(13))
    assert out.validate()["passed"]
    # oracle route: transform the stacked pair and span the two levels
    st = stack_pair(plus, minus)
    hat = darboux_transform(st, 0.45, seed=seed, rng=np.random.default_rng(0))
    n = omega_net.grid.nverts
    worst = max(plane_distance((out.y[v], out.t[v]),
                               (hat.mu[v], hat.mu[n + v])) for v in range(n))
    assert worst <= 1e-8
    # determinism across repeated calls
    out2 = darboux_legendre(omega_net, 0.45, seed=seed, rng=np.random.default_rng(13))
    assert max_plane_distance(out, out2) <= 1e-14


def test_darboux_legendre_labels_preserved(omega_net):
    from dnet.isothermic import _finite_darboux_seed
    plus = IsothermicNet(omega_net.grid, SIG42, omega_net.mu_plus)
    seed = _finite_darboux_seed(plus, np.random.default_rng(43))
    out = darboux_legendre(omega_net, 0.6, seed=seed, rng=np.random.default_rng(13))
    l0 = omega_edge_labels(omega_net)
    l1 = omega_edge_labels(out)
    assert np.abs((l1 - l0) / l0).max() <= 1e-7


def null_in_hyperplane(rng, sig, w, retries=200):
    """Random null vector orthogonal to ``w``."""
    A = (w * sig.signs)[None]
    _, _, Vt = np.linalg.svd(A, full_matrices=True)
    kernel = Vt[1:].T
    for _ in range(retries):
        k1 = kernel @ rng.standard_normal(kernel.shape[1])
        k2 = kernel @ rng.standard_normal(kernel.shape[1])
        a = sig.inner(k2, k2)
        b = 2.0 * sig.inner(k1, k2)
        c = sig.inner(k1, k1)
        disc = b * b - 4 * a * c
        if abs(a) < 1e-12 or disc <= 0:
            continue
        v = k1 + ((-b + np.sqrt(disc)) / (2 * a)) * k2
        if np.linalg.norm(v) > 1e-8:
            return v / np.linalg.norm(v)
    raise RuntimeError("no null vector in the hyperplane found")


def test_darboux_transported_quantity_keeps_class(guichard):
    # a Darboux transform seeded orthogonal to p(m) carries the conserved
    # quantity along: p_hat(t) = (eigen map at 1 - t/m) p(t) vertexwise
    from dnet.pseudo_euclidean import gamma_lambda
    m = 0.45
    q = guichard.quantity
    sig = SIG42
    plus = IsothermicNet(guichard.net.grid, sig, guichard.omega.mu_plus)
    rng = np.random.default_rng(44)
    seed = null_in_hyperplane(rng, sig, q.at(m)[0])
    assert abs(sig.inner(seed, plus.mu[0])) > 1e-6
    hat_plus = darboux_transform(plus, m, seed=seed, rng=np.random.default_rng(0))
    g = plus.grid
    ts = 0.3
    p0h = np.zeros_like(q.p0)
    p1h = np.zeros_like(q.p1)
    pth = np.zeros_like(q.p0)
    for v in range(g.nverts):
        M0 = gamma_lambda((plus.mu[v], hat_plus.mu[v]), 1.0, sig)
        Mt = gamma_lambda((plus.mu[v], hat_plus.mu[v]), 1.0 - ts / m, sig)
        p0h[v] = M0 @ q.p0[v]
        pth[v] = Mt @ q.at(ts)[v]
    p1h = (pth - p0h) / ts
    qh = ConservedQuantity(p0=p0h, p1=p1h, signature=sig)
    # parallel for the transformed congruence at a sample parameter
    assert qh.parallel_residual(hat_plus, 0.9) <= 1e-8
    assert classify_special(qh) == "guichard_r3"


def test_calapso_legendre_labels_and_classes(guichard):
    om = guichard.omega
    l0 = omega_edge_labels(om)
    out, info = calapso_legendre(om, 0.2, quantity=guichard.quantity)
    assert out.validate()["passed"]
    l1 = omega_edge_labels(out)
    assert np.abs((l1 - (l0 - 0.2)) / (l0 - 0.2)).max() <= 1e-8
    assert classify_special(info["quantity"]) == "guichard_r3"
    _, info2 = calapso_legendre(om, -0.75, quantity=guichard.quantity)
    assert classify_special(info2["quantity"]) == "guichard_r21"
    _, info3 = calapso_legendre(om, -0.5, quantity=guichard.quantity)
    assert classify_special(info3["quantity"]) == "l_guichard"


def test_calapso_legendre_moves_the_guichard_net(guichard):
    # the stored pair is (mu, xi / (mu, p)): the gauge T+ of the transform
    # is that of the Guichard net's own isothermic congruence
    _, info = calapso_legendre(guichard.omega, 0.2)
    assert np.array_equal(info["T_plus"], calapso_transform(guichard.net, 0.2)[1])


def test_legendre_transforms_need_the_pair(omega_net):
    duo = dual_legendre(omega_net)
    assert duo.mu_plus is None and duo.mu_minus is None
    for transform in (lambda om: darboux_legendre(om, 0.45, rng=np.random.default_rng(13)),
                      lambda om: calapso_legendre(om, 0.2)):
        with pytest.raises(ValueError, match="^[^\n]*pair[^\n]*$"):
            transform(duo)


def test_legendre_transforms_reject_an_unmatched_pair(guichard):
    om = guichard.omega
    unmatched = OmegaNet(om.grid, om.lie_frame, om.y, om.t, om.eta,
                         mu_plus=om.mu_plus, mu_minus=guichard.xi)
    with pytest.raises(ValueError, match="^the stored pair is not Moutard-matched"):
        calapso_legendre(unmatched, 0.2)


def test_omega_net_is_frozen(omega_net):
    fields = ("grid", "lie_frame", "y", "t", "eta", "mu_plus", "mu_minus")
    for name in fields[2:]:
        with pytest.raises(ValueError):
            getattr(omega_net, name)[0] = 1.0
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(omega_net, name, getattr(omega_net, name))
    # the arrays are copies: the caller's stay writable and apart
    y = omega_net.y.copy()
    om = OmegaNet(omega_net.grid, omega_net.lie_frame, y, omega_net.t, omega_net.eta)
    y[0] = 0.0
    assert np.array_equal(om.y, omega_net.y) and y.flags.writeable


def test_dual_legendre(omega_net):
    duo = dual_legendre(omega_net)
    assert duo.validate()["passed"]
    a = associates(omega_net)
    pn_dual = duo.principal()
    assert np.abs(pn_dual.n - a.n).max() <= 1e-11
    assert np.abs(pn_dual.x - a.x_dual).max() <= 1e-11
    # dual twice: a translate of the original
    duo2 = dual_legendre(duo)
    x0 = omega_net.principal().x
    x2 = duo2.principal().x
    g = omega_net.grid
    t, h = g.edge_tail, g.edge_head
    assert np.abs((x2[h] - x2[t]) - (x0[h] - x0[t])).max() <= 1e-9


def test_dual_legendre_gauge_shift_stays_on_lines(omega_net):
    # a constant gauge shift eta + d(c y ^ t) stays in the (eta q, p) = 0
    # gauge and moves x_dual along the line direction by -c n (up to the
    # translation fixed by the shared integration base)
    c0 = 0.83
    g = omega_net.grid
    tauv = c0 * wedge_vec(omega_net.y, omega_net.t)
    eta2 = omega_net.eta + tauv[g.edge_head] - tauv[g.edge_tail]
    shifted = OmegaNet(g, omega_net.lie_frame, omega_net.y, omega_net.t, eta2,
                       mu_plus=omega_net.mu_plus, mu_minus=omega_net.mu_minus)
    a1 = associates(omega_net)
    a2 = associates(shifted)
    pn = omega_net.principal()
    move = a2.x_dual - a1.x_dual
    expected = -c0 * (pn.n - pn.n[0])
    assert np.abs(move - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())
    # the dual line family is unchanged: after the canonical translation
    # the displacement is parallel to the line direction n
    shiftv = move - c0 * pn.n[0]
    for v in range(g.nverts):
        assert line_distance(shiftv[v], pn.n[v]) <= 1e-8


def test_linear_weingarten_sphere():
    rho = 1.5
    pn = sphere_lattice([5, 6], radius=rho)
    rep = linear_weingarten_check(pn, 1.0, 0.0, -1.0 / rho ** 2)
    assert rep["passed"]
    # constant-K nets are self-associate up to the scale gamma / alpha
    guich = check_guichard(pn, (-1.0 / rho ** 2) * pn.x)
    assert guich["passed"]
    bad = linear_weingarten_check(pn, 0.4, 0.3, 0.2)
    assert not bad["passed"]


def test_minimal_net_duality():
    pn, sphere_net = minimal_net([5, 5], seed=1)
    assert pn.validate()["passed"]
    g = pn.grid
    prod = curly_wedge(exterior_derivative(Form0(g, pn.x)),
                       exterior_derivative(Form0(g, pn.n))).values
    assert np.abs(prod).max() <= 1e-10 * max(1.0, np.abs(pn.x).max())
    assert np.abs((pn.n ** 2).sum(axis=1) - 1.0).max() <= 1e-11
    rep = linear_weingarten_check(pn, 0.0, 0.5, 0.0)   # H = 0
    assert rep["passed"]


def test_random_lie_frame_is_admissible():
    rng = np.random.default_rng(19)
    lf = random_lie_frame(rng)
    ip = SIG42.inner
    assert abs(ip(lf.o, lf.q) + 1) <= 1e-10
    assert abs(ip(lf.p, lf.p) + 1) <= 1e-10
    pn = sphere_lattice([4, 4], radius=1.2)
    y, t, agree = legendre_lift(pn, lf)
    assert agree <= 1e-9
