"""Acceptance suite.

Each test implements one criterion end to end at its stated tolerance
and prints a single PASS line with the worst measured residuals; any
assertion failure marks the criterion red.  Run with

    pytest -v -s tests/test_acceptance.py
"""

import numpy as np
import pytest

from dnet import isothermic
from dnet.forms import (BilinearRule, Form0, exterior_derivative as d,
                        mixed_area, wedge, wedge_vec)
from dnet.grid import Grid
from dnet.isothermic import (IsothermicNet, bianchi_check, calapso_transform,
                             christoffel_dual, christoffel_residuals,
                             connection_flatness, darboux_transform,
                             quad_cross_ratio_residual, random_isothermic,
                             stack_pair)
from dnet.koenigs import extract_pair
from dnet.lie_sphere import (associates, classify_special, darboux_legendre,
                             demoulin_radii, eisenhart_general,
                             eisenhart_guichard, gauge_identity_residual,
                             guichard_generate, omega_edge_labels,
                             omega_from_darboux_pair)
from dnet.netfile import NetFile
from dnet.osystem import ParallelFamily, check_osystem
from dnet.pseudo_euclidean import Signature, line_distance
from tests import netfile_reference
from tests.pseudo_reference import plane_distance

SIG41 = Signature(4, 1)
SIG42 = Signature(4, 2)
SIG3 = Signature(3, 0)

T_SAMPLES = (-1.0, 0.3, 2.0)


def report(name, **residuals):
    parts = ", ".join(f"{k}={v:.2e}" for k, v in residuals.items())
    print(f"ACCEPTANCE {name}: PASS ({parts})")


# -- criterion 1: calculus ---------------------------------------------------

def test_criterion_1_calculus():
    rng = np.random.default_rng(101)
    g = Grid([7, 6])
    rule = BilinearRule.scalar()
    worst_dd, worst_leibniz, worst_area = 0.0, 0.0, 0.0
    for trial in range(100):
        f = Form0(g, rng.standard_normal((g.nverts, 3)))
        ddf = d(d(f)).values
        worst_dd = max(worst_dd, np.abs(ddf).max() / max(np.abs(f.values).max(), 1.0))

        fa = Form0(g, rng.standard_normal((g.nverts, 1)))
        fb = Form0(g, rng.standard_normal((g.nverts, 1)))
        for a, b, sign in ((fa, fb, 1.0), (fa, d(fb), 1.0), (d(fa), fb, -1.0)):
            lhs = d(wedge(a, b, rule)).values
            rhs = wedge(d(a), b, rule).values + sign * wedge(a, d(b), rule).values
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
            worst_leibniz = max(worst_leibniz, np.abs(lhs - rhs).max() / scale)

        x = Form0(g, rng.standard_normal((g.nverts, 3)))
        y = Form0(g, rng.standard_normal((g.nverts, 3)))
        area = mixed_area(x, y).values
        polar = np.zeros_like(area)
        for n in range(g.nquads):
            i, j, k, l = g.corners(n)
            u, v = x.values, y.values
            s_xy = 0.5 * (wedge_vec(u[i], v[j]) + wedge_vec(u[j], v[k])
                          + wedge_vec(u[k], v[l]) + wedge_vec(u[l], v[i]))
            s_yx = 0.5 * (wedge_vec(v[i], u[j]) + wedge_vec(v[j], u[k])
                          + wedge_vec(v[k], u[l]) + wedge_vec(v[l], u[i]))
            polar[n] = 0.5 * (s_xy + s_yx)
        scale = max(np.abs(area).max(), 1.0)
        worst_area = max(worst_area, np.abs(area - polar).max() / scale)

    assert worst_dd <= 1e-12
    assert worst_leibniz <= 1e-12
    assert worst_area <= 1e-12
    report("1 calculus", dd=worst_dd, leibniz=worst_leibniz, mixed_area=worst_area)


# -- criteria 2 and 3: isothermic evolution and flatness ---------------------

@pytest.fixture(scope="module")
def evolved_nets():
    nets = []
    for k, sig in enumerate((SIG41,) * 5 + (SIG42,) * 5):
        rng = np.random.default_rng(200 + k)
        nets.append(random_isothermic(Grid([6, 6]), sig, rng))
    return nets


def test_criterion_2_isothermic_suite(evolved_nets):
    worst = {"nullity": 0.0, "moutard": 0.0, "labels": 0.0, "cross_ratio": 0.0}
    for net in evolved_nets:
        rep = net.validate()
        worst["nullity"] = max(worst["nullity"], rep["nullity"])
        worst["moutard"] = max(worst["moutard"], rep["moutard"])
        worst["labels"] = max(worst["labels"], rep["label_relations"])
        worst["cross_ratio"] = max(worst["cross_ratio"],
                                   quad_cross_ratio_residual(net))
    assert worst["nullity"] <= 1e-10
    assert worst["moutard"] <= 1e-10
    assert worst["labels"] <= 1e-9
    assert worst["cross_ratio"] <= 1e-8
    report("2 isothermic", **worst)


def test_criterion_3_flatness(evolved_nets):
    rng = np.random.default_rng(300)
    worst = 0.0
    nets = list(evolved_nets)
    # a net with a full row of infinite labels: the stack of an isotropic
    # Darboux pair
    base = evolved_nets[7]
    hat = darboux_transform(base, np.inf, rng=rng)
    stacked = stack_pair(base, hat)
    assert int(stacked.is_infinite.sum()) >= stacked.grid.nverts // 2
    nets.append(stacked)
    for net in nets:
        finite = net.labels[~net.is_infinite]
        for t in T_SAMPLES:
            assert np.min(np.abs(finite - t)) > 1e-6
            worst = max(worst, connection_flatness(net, t)[0])
    assert worst <= 1e-9
    report("3 flatness", holonomy=worst)


# -- criterion 4: Christoffel and Bianchi -------------------------------------

def test_criterion_4_christoffel_bianchi(evolved_nets):
    worst_pairing = 0.0
    for net in evolved_nets:
        data = christoffel_dual(net)
        res = christoffel_residuals(net, data)
        worst_pairing = max(worst_pairing, res["pairing"])
    assert worst_pairing <= 1e-9

    net = evolved_nets[6]
    worst_bianchi = 0.0
    for k, m in enumerate((0.5, 2.0, np.inf)):
        rng = np.random.default_rng(400 + k)
        hat = darboux_transform(net, m, rng=rng)
        rep = bianchi_check(net, hat, m)
        worst_bianchi = max(worst_bianchi, rep["parallelism"],
                            rep["scalar_identity"])
    assert worst_bianchi <= 1e-8
    report("4 christoffel/bianchi", pairing=worst_pairing, bianchi=worst_bianchi)


# -- criterion 5: Omega suite --------------------------------------------------

def test_criterion_5_omega_suite(monkeypatch):
    worst = {"applicability": 0.0, "duality": 0.0, "gauge_invariance": 0.0,
             "eisenhart": 0.0, "roundtrip": 0.0}
    monkeypatch.setattr(isothermic, "_EDGE_MARGIN", 2e-3)
    monkeypatch.setattr(isothermic, "_DRAW_BLOCKS", (8,) * 16)
    for k in range(5):
        rng = np.random.default_rng(500 + k)
        net = random_isothermic(Grid([5, 5]), SIG42, rng)
        om = omega_from_darboux_pair(net, rng=rng)
        v = om.validate()
        assert v["passed"], v
        worst["applicability"] = max(worst["applicability"],
                                     v["applicability"]["eta_closed"],
                                     v["applicability"]["eta_in_lam2_f"],
                                     v["gauge"])
        a = associates(om)
        worst["duality"] = max(worst["duality"], a.duality)

        labels = omega_edge_labels(om)
        eta_scale = float(np.median(np.linalg.norm(om.eta, axis=1)))
        fiber_scale = float(np.median(np.linalg.norm(wedge_vec(om.y, om.t),
                                                     axis=1)))
        tau_rng = np.random.default_rng(900 + k)
        tau = (eta_scale / fiber_scale) * tau_rng.standard_normal(om.grid.nverts)
        tauv = tau[:, None] * wedge_vec(om.y, om.t)
        g = om.grid
        eta2 = om.eta + tauv[g.edge_head] - tauv[g.edge_tail]
        from dnet.koenigs import LineCongruence
        labels2 = netfile_reference.omega_edge_labels(
            LineCongruence(g, om.y, om.t, eta2), signature=SIG42)
        worst["gauge_invariance"] = max(
            worst["gauge_invariance"],
            float(np.abs((labels2 - labels) / labels).max()))

        eis = eisenhart_general(om.principal(), a.x_dual, a.n_dual, labels)
        worst["eisenhart"] = max(worst["eisenhart"], eis["pairing"])

        # extract the constructing pair back from its fiber coordinates
        colors = [int(g.coordinates(v).sum()) % 2 for v in range(g.nverts)]
        base_b = next(v for v in range(g.nverts) if colors[v] == 0)
        base_w = next(v for v in range(g.nverts) if colors[v] == 1)

        def coords_of(vec, vtx):
            M = np.stack([om.y[vtx], om.t[vtx]], axis=1)
            c, *_ = np.linalg.lstsq(M, vec, rcond=None)
            return c

        pair = extract_pair(
            om.congruence(),
            seeds_plus=(coords_of(om.mu_plus[base_b], base_b),
                        coords_of(om.mu_plus[base_w], base_w)),
            seeds_minus=(coords_of(om.mu_minus[base_b], base_b),
                         coords_of(om.mu_minus[base_w], base_w)),
            seed=0, signature=om.signature)
        rt = max(max(line_distance(pair.net_plus.lifts[v], om.mu_plus[v]),
                     line_distance(pair.net_minus.lifts[v], om.mu_minus[v]))
                 for v in range(g.nverts))
        worst["roundtrip"] = max(worst["roundtrip"], rt)

    assert worst["duality"] <= 1e-9
    assert worst["gauge_invariance"] <= 1e-9
    assert worst["eisenhart"] <= 1e-8
    assert worst["roundtrip"] <= 1e-8
    report("5 omega", **worst)


# -- criterion 6: Guichard suite ----------------------------------------------

def test_criterion_6_guichard_suite():
    from dnet.lie_sphere import check_guichard
    worst = {"associate": 0.0, "eisenhart": 0.0, "demoulin": 0.0,
             "coefficients": 0.0}
    tags = set()
    for seed in (0, 1, 2):
        gn = guichard_generate([5, 5], seed=seed)
        worst["associate"] = max(worst["associate"],
                                 check_guichard(gn.pn, gn.x_dual)["associate"])
        labels = omega_edge_labels(gn.omega)
        eis = eisenhart_guichard(gn.pn, gn.x_dual, labels)
        assert eis["excluded_edges"] == 0
        worst["eisenhart"] = max(worst["eisenhart"], eis["eisenhart"])
        dem = demoulin_radii(gn)
        assert dem["excluded_vertices"] == 0
        worst["demoulin"] = max(worst["demoulin"], dem["product"])
        coeffs = gn.quantity.norm_polynomial()
        worst["coefficients"] = max(
            worst["coefficients"],
            float(np.abs(coeffs - np.array([-1.0, -2.0, 0.0])).max()))
        tags.add(classify_special(gn.quantity, gn.net))
    assert worst["associate"] <= 1e-8
    assert worst["eisenhart"] <= 1e-8
    assert worst["demoulin"] <= 1e-8
    assert worst["coefficients"] <= 1e-9
    assert tags == {"guichard_r3"}
    report("6 guichard", **worst)


# -- criterion 7: O-systems -----------------------------------------------------

def test_criterion_7_osystems():
    worst_eq, worst_zero = 0.0, 0.0

    rng = np.random.default_rng(700)
    net41 = random_isothermic(Grid([5, 5]), SIG41, rng)
    data = christoffel_dual(net41)
    fam2 = ParallelFamily(net41.grid, [data.x[:, :3], data.x_dual[:, :3]], SIG3)
    reps = [check_osystem(fam2, [[0.0, 1.0], [1.0, 0.0]])]

    gn = guichard_generate([5, 5], seed=1)
    fam3 = ParallelFamily(gn.pn.grid, [gn.pn.x, gn.x_dual, gn.pn.n], SIG3)
    reps.append(check_osystem(fam3, [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0],
                                     [0.0, 0.0, 1.0]]))

    rng = np.random.default_rng(701)
    net42 = random_isothermic(Grid([5, 5]), SIG42, rng)
    om = omega_from_darboux_pair(net42, rng=rng)
    a = associates(om)
    fam4 = ParallelFamily(om.grid, [a.x, a.x_dual, a.n, a.n_dual], SIG3)
    reps.append(check_osystem(fam4, [[0, 1, 0, 0], [1, 0, 0, 0],
                                     [0, 0, 0, 1], [0, 0, 1, 0]]))

    for rep in reps:
        worst_eq = max(worst_eq, rep["characterization_equality"])
        worst_zero = max(worst_zero, rep["bracket_vanishes"])
    assert worst_eq <= 1e-11
    assert worst_zero <= 1e-9
    report("7 osystems", equality=worst_eq, vanishing=worst_zero)


# -- criterion 8: transformation coherence ---------------------------------------

def test_criterion_8_transformations():
    rng = np.random.default_rng(800)
    net = random_isothermic(Grid([5, 5]), SIG42, rng)

    moved, _ = calapso_transform(net, 0.4)
    finite = ~net.is_infinite
    shift = np.abs(moved.labels[finite] - (net.labels[finite] - 0.4)) / np.abs(
        net.labels[finite] - 0.4)
    worst_shift = float(shift.max())
    assert worst_shift <= 1e-8

    om = omega_from_darboux_pair(net, rng=rng)
    from dnet.isothermic import _finite_darboux_seed
    plus = IsothermicNet(om.grid, SIG42, om.mu_plus)
    minus = IsothermicNet(om.grid, SIG42, om.mu_minus)
    seed = _finite_darboux_seed(plus, np.random.default_rng(801))
    out_direct = darboux_legendre(om, 0.45, seed=seed, rng=np.random.default_rng(13))
    stacked = stack_pair(plus, minus)
    hat = darboux_transform(stacked, 0.45, seed=seed, rng=np.random.default_rng(0))
    n = om.grid.nverts
    worst_indep = max(
        plane_distance((out_direct.y[v], out_direct.t[v]),
                       (hat.mu[v], hat.mu[n + v])) for v in range(n))
    assert worst_indep <= 1e-8

    worst_gauge = max(gauge_identity_residual(om, t) for t in (0.37, -0.8))
    assert worst_gauge <= 1e-9
    report("8 transformations", label_shift=worst_shift,
           darboux_independence=worst_indep, gauge_identity=worst_gauge)


# -- criterion 9: determinism and IO ---------------------------------------------

def test_criterion_9_determinism_io(tmp_path):
    from dnet.cli import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for kind in ("isothermic", "omega"):
        assert main(["gen", kind, "--dims", "5x5", "--seed", "11",
                     "-o", str(a)]) == 0
        assert main(["gen", kind, "--dims", "5x5", "--seed", "11",
                     "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    nf = NetFile.load(str(a))
    c = tmp_path / "c.json"
    nf.save(str(c))
    assert a.read_bytes() == c.read_bytes()
    nf2 = NetFile.load(str(c))
    for name, arr in nf.vertex_fields.items():
        assert np.array_equal(arr, nf2.vertex_fields[name])
    report("9 determinism/io", byte_identical=0.0)
