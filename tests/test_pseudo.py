import numpy as np
import pytest

from dnet.errors import DegeneracyError, PointAtInfinityError
from dnet.forms import unpack_bivector
from dnet.isothermic import darboux_transform, flat_connection, stack_pair
from dnet.pseudo_euclidean import (Frame, Signature, action_matrix, conic_cross_ratio,
                                   euclidean_lift, gamma_lambda, line_distance, renull,
                                   stereo_lift, stereo_project)
from dnet.residuals import rel
from tests.pseudo_reference import (orthogonality_residual, plane_distance,
                                    projective_cross_ratio)

SIG42 = Signature(4, 2)
FRAME42 = SIG42.standard_frame()


def test_signature_basics():
    sig = Signature(2, 1)
    assert sig.dim == 3
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([-1.0, 0.5, 2.0])
    assert sig.inner(u, v) == pytest.approx(-1 + 1 - 6)
    with pytest.raises(ValueError):
        Signature(0, 0)


def test_standard_frame_invariants():
    fr = FRAME42
    ip = SIG42.inner
    assert abs(ip(fr.o, fr.o)) <= 1e-15
    assert abs(ip(fr.q, fr.q)) <= 1e-15
    assert abs(ip(fr.o, fr.q) + 1) <= 1e-15
    assert abs(ip(fr.p, fr.p) + 1) <= 1e-15
    assert abs(ip(fr.p, fr.o)) <= 1e-15
    assert abs(ip(fr.p, fr.q)) <= 1e-15


def test_frame_validation_rejects_bad_vectors():
    e = np.eye(6)
    with pytest.raises(ValueError):
        Frame(SIG42, e[0], e[1])   # not null / wrong pairing


def test_orthoprojector():
    fr = FRAME42
    rng = np.random.default_rng(0)
    v = rng.standard_normal((10, 6))
    pv = fr.pi(v)
    assert np.abs(SIG42.inner(pv, fr.o)).max() <= 1e-12
    assert np.abs(SIG42.inner(pv, fr.q)).max() <= 1e-12
    assert np.abs(fr.pi(pv) - pv).max() <= 1e-12


def wedge_action(x, y, sig):
    """The action matrix of the bivector x ^ y."""
    return action_matrix(np.outer(x, y) - np.outer(y, x), sig)


def test_bivector_action_basis_example():
    sig = Signature(2, 0)
    e1, e2 = np.eye(2)
    A = wedge_action(e1, e2, sig)
    assert np.abs(A @ e1 - e2).max() <= 1e-15
    assert np.abs(A @ e2 + e1).max() <= 1e-15


def test_bivector_action_kills_orthogonal_vectors():
    sig = Signature(4, 2)
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 6))
    act = wedge_action(x, y, sig)
    # build z orthogonal to both by projecting out the metric duals
    z = rng.standard_normal(6)
    A = np.stack([x * sig.signs, y * sig.signs])
    z = z - A.T @ np.linalg.solve(A @ A.T, A @ z)
    assert np.abs(act @ z).max() <= 1e-12


def test_bivector_action_formula_oracle():
    """``(x ^ y)(z) = (x, z) y - (y, z) x``, and the action is
    infinitesimally orthogonal: ``(Av, w) + (v, Aw) = 0``."""
    sig = Signature(4, 2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y, z = rng.standard_normal((3, 6))
        A = wedge_action(x, y, sig)
        oracle = sig.inner(x, z) * y - sig.inner(y, z) * x
        assert np.abs(A @ z - oracle).max() <= 1e-12
        probes = np.random.default_rng(7)
        v = probes.standard_normal((8, 6))
        w = probes.standard_normal((8, 6))
        res = sig.inner(v @ A.T, w) + sig.inner(v, w @ A.T)
        assert rel(np.abs(res).max(), np.abs(np.outer(x, y) - np.outer(y, x)).max()) <= 1e-12


def isotropic_pair(rng, frame):
    """Two null, mutually orthogonal vectors."""
    sig = frame.signature
    x = frame.pi(rng.standard_normal(sig.dim))
    mu = frame.o + x + 0.5 * sig.inner(x, x) * frame.q
    # second null vector orthogonal to mu: solve in mu^perp
    for _ in range(50):
        w = rng.standard_normal((2, sig.dim))
        anchor = frame.q if abs(sig.inner(frame.q, mu)) > 1e-6 else frame.o
        u = w - (sig.inner(w, mu) / sig.inner(anchor, mu))[:, None] * anchor
        a = sig.inner(u[1], u[1])
        b = 2 * sig.inner(u[0], u[1])
        c = sig.inner(u[0], u[0])
        disc = b * b - 4 * a * c
        if abs(a) < 1e-12 or disc <= 0:
            continue
        v = u[0] + ((-b + np.sqrt(disc)) / (2 * a)) * u[1]
        if np.linalg.norm(v) > 1e-6:
            return mu, v
    raise RuntimeError("no isotropic pair found")


@pytest.fixture(scope="module")
def isotropic(net42):
    """The transports of ``flat_connection`` on the infinite-label edges of
    a stacked m = inf Darboux pair, as a function of t, and the actions of
    their bivectors: there Gamma(t) = exp(t eta), an isotropic bivector's
    exponential, which truncates to I + t eta exactly."""
    st = stack_pair(net42, darboux_transform(net42, np.inf, rng=np.random.default_rng(8)))
    edges = np.flatnonzero(st.is_infinite)
    assert edges.size
    return (lambda t: flat_connection(st, t)[edges],
            action_matrix(unpack_bivector(st.eta[edges], 6), SIG42))


def test_isotropic_exp_identity_at_zero(isotropic):
    gamma, _ = isotropic
    assert np.abs(gamma(0.0) - np.eye(6)).max() == 0.0


def test_isotropic_exp_inverse_by_nilpotency(isotropic):
    gamma, actions = isotropic
    for A in actions:
        assert np.abs(A @ A).max() <= 1e-10 * max(np.abs(A).max() ** 2, 1e-30)
    assert np.abs(gamma(0.7) @ gamma(-0.7) - np.eye(6)).max() <= 1e-12


def test_isotropic_exp_is_orthogonal(isotropic):
    gamma, _ = isotropic
    rng = np.random.default_rng(5)
    probes = rng.standard_normal((8, 6))
    for M in gamma(0.7):
        for a in range(8):
            for b in range(8):
                lhs = SIG42.inner(M @ probes[a], M @ probes[b])
                rhs = SIG42.inner(probes[a], probes[b])
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_gamma_lambda_eigenstructure():
    fr = FRAME42
    M = gamma_lambda((fr.o, fr.q), 2.0, SIG42)
    assert np.abs(M @ fr.q - 2.0 * fr.q).max() <= 1e-14
    assert np.abs(M @ fr.o - 0.5 * fr.o).max() <= 1e-14
    for k in (0, 1, 2, 4):
        e = np.zeros(6)
        e[k] = 1.0
        assert np.abs(M @ e - e).max() <= 1e-14


def test_gamma_lambda_identity_and_inverse():
    fr = FRAME42
    assert np.abs(gamma_lambda((fr.o, fr.q), 1.0, SIG42) - np.eye(6)).max() <= 1e-15
    M = gamma_lambda((fr.o, fr.q), 3.0, SIG42)
    W = gamma_lambda((fr.q, fr.o), 3.0, SIG42)
    assert np.abs(M @ W - np.eye(6)).max() <= 1e-13


def test_gamma_lambda_composition_law():
    rng = np.random.default_rng(7)
    mu, v = isotropic_pair(rng, FRAME42)
    # make the two lines non-orthogonal: use mu and a generic lift
    x = FRAME42.pi(rng.standard_normal(6))
    nu = FRAME42.o + x + 0.5 * SIG42.inner(x, x) * FRAME42.q
    lam, m2 = 1.7, -0.6
    lhs = gamma_lambda((mu, nu), lam, SIG42) @ gamma_lambda((mu, nu), m2, SIG42)
    rhs = gamma_lambda((mu, nu), lam * m2, SIG42)
    assert np.abs(lhs - rhs).max() <= 1e-12
    assert orthogonality_residual(rhs, SIG42) <= 1e-11


def test_gamma_lambda_rejects_orthogonal_lines():
    rng = np.random.default_rng(8)
    mu, v = isotropic_pair(rng, FRAME42)
    with pytest.raises(DegeneracyError):
        gamma_lambda((mu, v), 2.0, SIG42)
    with pytest.raises(ValueError):
        gamma_lambda((FRAME42.o, FRAME42.q), 0.0, SIG42)


def test_stereo_lift_of_origin_is_o():
    x = np.zeros(6)
    assert np.abs(stereo_lift(x, FRAME42) - FRAME42.o).max() == 0.0


def test_stereo_lift_of_unit_vector():
    e1 = np.zeros(6)
    e1[0] = 1.0
    lift = stereo_lift(e1, FRAME42)
    assert np.abs(lift - (FRAME42.o + e1 + 0.5 * FRAME42.q)).max() <= 1e-15


def test_stereo_roundtrip_and_pair_identity():
    rng = np.random.default_rng(9)
    xs = FRAME42.pi(rng.standard_normal((20, 6)))
    lifts = stereo_lift(xs, FRAME42)
    assert np.abs(SIG42.norm2(lifts)).max() <= 1e-12 * (1 + (xs ** 2).sum(1).max()) ** 2
    assert np.abs(stereo_project(lifts, FRAME42) - xs).max() <= 1e-12
    # (phi(x1), phi(x2)) = -1/2 (x1 - x2, x1 - x2)
    for a in range(5):
        for b in range(5):
            lhs = SIG42.inner(lifts[a], lifts[b])
            diff = xs[a] - xs[b]
            assert abs(lhs + 0.5 * SIG42.inner(diff, diff)) <= 1e-11


def test_euclidean_lift_normalization():
    assert np.abs(euclidean_lift(FRAME42.o, FRAME42) - FRAME42.o).max() == 0.0
    e1 = np.zeros(6)
    e1[0] = 1.0
    v = 2 * FRAME42.o + 2 * e1 + SIG42.inner(e1, e1) * FRAME42.q
    lift = euclidean_lift(v, FRAME42)
    assert np.abs(lift - (FRAME42.o + e1 + 0.5 * FRAME42.q)).max() <= 1e-14


def test_point_at_infinity_rejected():
    with pytest.raises(PointAtInfinityError):
        euclidean_lift(FRAME42.q, FRAME42)


def test_renull_projects_to_light_cone():
    rng = np.random.default_rng(10)
    v = rng.standard_normal((10, 6))
    out = renull(v, FRAME42)
    assert np.abs(SIG42.norm2(out)).max() <= 1e-12 * max(
        1.0, (out ** 2).sum(1).max())


def test_line_helpers():
    v = np.array([0.0, -2.0, 0.0, 1.0])
    assert line_distance(v, -3 * v) <= 1e-15
    assert abs(line_distance([1, 0], [0, 1]) - 1) <= 1e-15
    assert plane_distance((np.eye(4)[0], np.eye(4)[1]),
                          (np.eye(4)[0], np.eye(4)[2])) == pytest.approx(1.0)


def test_projective_cross_ratio_affine_chart():
    # cr = ((z1-z2)(z3-z4)) / ((z2-z3)(z4-z1)) for points (z, 1)
    z = [0.3, -1.2, 2.0, 0.9]
    pts = [np.array([zz, 1.0]) for zz in z]
    oracle = ((z[0] - z[1]) * (z[2] - z[3])) / ((z[1] - z[2]) * (z[3] - z[0]))
    assert projective_cross_ratio(*pts) == pytest.approx(oracle)


def test_conic_cross_ratio_of_conformal_square():
    # lifts (y_i, s y_j, -y_k, -s y_l) of the square on the unit circle
    # satisfy the Moutard equation and have cross ratio -1
    sig = Signature(3, 1)
    fr = sig.standard_frame()
    pts = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], float)
    emb = np.zeros((4, 4))
    emb[:, :2] = pts
    lifts = stereo_lift(emb, fr)
    s = 1.7
    mu = np.stack([lifts[0], s * lifts[1], -lifts[2], -s * lifts[3]])
    # Moutard: diagonals parallel
    d1, d2 = mu[2] - mu[0], mu[3] - mu[1]
    assert np.abs(np.outer(d1, d2) - np.outer(d2, d1)).max() <= 1e-12
    cr = conic_cross_ratio(mu, sig)
    assert cr == pytest.approx(-1.0, abs=1e-10)
