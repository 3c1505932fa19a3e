"""Batched checks against the per-element loops they replaced.

Equal results where the arithmetic is the same (stacked ``svd``,
elementwise updates); where a single-vector norm became a row
reduction, agreement to 16 ulps of the residual's unit scale.
"""

import numpy as np
import pytest

import loop_reference as ref
from dnet import Grid, Signature, christoffel_dual, random_isothermic
from dnet.errors import SeedDegeneracyError
from dnet.koenigs import _colors, _parallel_section, _section_to_net, km_pair_check
from dnet.lie_sphere import gauge_identity_residual, sphere_lattice, standard_lie_frame
from dnet.osystem import ParallelFamily, check_combescure, dual_family

EPS16 = 16 * np.finfo(float).eps
SIG3 = Signature(3, 0)


def _close(a, b):
    assert abs(a - b) <= EPS16 * max(abs(b), 1.0), (a, b)


@pytest.fixture(scope="module")
def families():
    out = []
    for dims, seed in (((5, 5), 21), ((4, 7), 3)):
        net = random_isothermic(Grid(list(dims)), Signature(4, 1), np.random.default_rng(seed))
        data = christoffel_dual(net)
        x, xd = data.x[:, :3], data.x_dual[:, :3]
        out.append(ParallelFamily(net.grid, [x, xd], SIG3))
        out.append(ParallelFamily(net.grid, [x, 2.0 * x + 1.0, xd, np.zeros_like(x)], SIG3))
    return out


def test_family_checks_match_loops(families):
    for fam in families:
        rep = fam.validate()
        worst, minor = ref.family_validate(fam)
        _close(rep["edge_parallel"], worst)
        assert rep["dphi_decomposable"] == minor
        _close(dual_family(fam)[1]["dual_edge_parallel"], ref.dual_edge_parallel(fam))


def test_circularity_matches_loops(families, omega_net, guichard):
    frame = standard_lie_frame()
    for pn in (omega_net.principal(), guichard.pn, sphere_lattice([5, 6], radius=1.5)):
        got = pn.validate(frame=frame)["circularity"]
        assert got == ref.circularity(frame.lift_point(pn.x), pn.grid.corners())
    for fam in families[::2]:
        x, xd = fam.members[:2]
        rep = check_combescure(fam.grid, x, xd, SIG3)
        assert rep["circular_x"] == ref.combescure_circularity(fam.grid, x, SIG3)
        assert rep["circular_x_star"] == ref.combescure_circularity(fam.grid, xd, SIG3)


def test_span_margin_matches_loop(omega_net):
    g = omega_net.grid
    _, _, rep = km_pair_check(g, omega_net.mu_plus, omega_net.mu_minus, tol=1e-7)
    assert rep["span_margin"] == ref.span_margin(g, omega_net.mu_plus, omega_net.mu_minus)


def test_gauge_identity_matches_loop(omega_net):
    for t in (0.37, -0.8):
        _close(gauge_identity_residual(omega_net, t), ref.gauge_identity_residual(omega_net, t))


def test_sphere_lattice_matches_loop():
    pn = sphere_lattice([4, 7], radius=1.3, center=(0.3, -0.2, 0.6))
    assert np.array_equal(pn.x, ref.sphere_points((4, 7), 1.3, (0.3, -0.2, 0.6)))


def test_section_to_net_matches_loop(omega_net):
    cong = omega_net.congruence()
    colors = _colors(cong.grid)
    xb = _parallel_section(cong, colors, True, np.array([0.3, 0.8]))
    xw = _parallel_section(cong, colors, False, np.array([-0.6, 0.5]))
    lifts, tau, worst = _section_to_net(cong, colors, xb, xw, 1e-6)
    lifts_ref, tau_ref, worst_ref = ref.section_to_net(cong, colors, xb, xw, 1e-6)
    assert np.abs(lifts - lifts_ref).max() <= EPS16
    assert np.abs(tau - tau_ref).max() <= EPS16 * np.abs(tau_ref).max()
    _close(worst, worst_ref)
    xb[7] = 0.0                                   # a zero section at vertex 7
    for fn in (_section_to_net, ref.section_to_net):
        with pytest.raises(SeedDegeneracyError) as err:
            fn(cong, colors, xb, xw, 1e-6)
        assert str(err.value) == "section degenerated to zero" and err.value.where == 7
