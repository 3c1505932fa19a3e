"""The batched isothermic kernels against their per-cell references."""

import numpy as np
import pytest

from dnet.errors import DegeneracyError, EvolutionError
from dnet.forms import lam2_pairs
from dnet.grid import Grid
from dnet.isothermic import (IsothermicNet, darboux_transform, flat_connection,
                             moutard_evolve, quad_cross_ratio_residual, random_cauchy,
                             random_isothermic, stack_pair)
from dnet.pseudo_euclidean import Signature, conic_cross_ratio, gamma_lambda
from dnet.residuals import rel
from tests import isothermic_reference as ref
from tests import pseudo_reference

SIGNATURES = [(4, 2), (4, 1), (3, 1)]
CASES = ([(dims, pq) for dims in ((6, 6), (10, 10)) for pq in SIGNATURES]
         + [(dims, (4, 2)) for dims in ((1, 5), (5, 1), (2, 2))])
RESIDUALS = ("nullity", "moutard", "label_relations", "opposite_label_margin",
             "diagonal_margin")


def _cauchy(dims, pq, seed):
    grid, sig = Grid(dims), Signature(*pq)
    frame = sig.standard_frame()
    line0, line1 = random_cauchy(grid, sig, np.random.default_rng(seed), 0.3, frame)
    return grid, sig, frame, line0, line1


def _assert_same_validation(net):
    new, old = net.validate(), ref.validate(net)
    for key in RESIDUALS:
        a, b = new[key], old[key]
        assert abs(a - b) <= 4 * np.spacing(max(abs(a), abs(b))), (key, a, b)
    assert new["passed"] == old["passed"]
    assert new["worst_quad"] == old["worst_quad"]


def _assert_same_transports(net, t):
    """``flat_connection`` against the per-edge reference: the identity of
    t = 0 and the isotropic transports bit for bit, and an eigen
    transport, which sums its terms in another order, to 4 ulp of the
    size of those terms."""
    got, want = flat_connection(net, t), ref.flat_connection(net, t)
    fin = ~net.is_infinite if t != 0.0 else np.zeros(net.grid.nedges, bool)
    assert np.array_equal(got[~fin], want[~fin])
    ulp = np.spacing(ref.transport_scale(net, t, np.flatnonzero(fin)))
    assert (np.abs(got[fin] - want[fin]) <= 4 * ulp).all(), t


@pytest.mark.parametrize("dims, pq", CASES, ids=[f"{d[0]}x{d[1]}-{p[0]}{p[1]}" for d, p in CASES])
def test_kernels_match_per_cell_reference(dims, pq):
    grid, sig, frame, line0, line1 = _cauchy(dims, pq, seed=sum(dims) + pq[1])
    net = moutard_evolve(grid, sig, line0, line1, frame=frame)
    assert np.array_equal(net.mu, ref.moutard_evolve_mu(grid, sig, line0, line1, frame))
    _assert_same_validation(net)
    for t in (-1.0, 0.0, 0.3, 2.0):
        _assert_same_transports(net, t)


def test_kernels_match_reference_with_isotropic_edges():
    net = random_isothermic(Grid([5, 5]), Signature(4, 2), np.random.default_rng(7))
    pair = stack_pair(net, darboux_transform(net, np.inf, rng=np.random.default_rng(1)))
    assert pair.is_infinite.any() and not pair.is_infinite.all()
    _assert_same_validation(pair)
    for t in (0.0, 0.3, -1.5):
        _assert_same_transports(pair, t)


def test_validate_propagates_nan():
    grid, sig, frame, line0, line1 = _cauchy((6, 6), (4, 2), seed=4)
    mu = np.array(moutard_evolve(grid, sig, line0, line1, frame=frame).mu)
    mu[np.ravel_multi_index((3, 2), grid.dims)] = np.nan
    rep = IsothermicNet(grid, sig, mu).validate()
    for key in RESIDUALS:
        assert np.isnan(rep[key]), key
    assert not rep["passed"]
    assert rep["worst_quad"]["corner"] == (2, 1)


def test_constructor_copies_and_pairs_are_read_only():
    grid, sig, frame, line0, line1 = _cauchy((4, 4), (4, 2), seed=5)
    mu = np.array(moutard_evolve(grid, sig, line0, line1, frame=frame).mu)
    net = IsothermicNet(grid, sig, mu)
    assert mu.flags.writeable
    mu[0] = 0.0
    assert not np.array_equal(net.mu[0], mu[0])
    with pytest.raises(ValueError):
        net.mu[0, 0] = 1.0
    a, b = lam2_pairs(6)
    assert lam2_pairs(6)[0] is a
    for arr in (a, b):
        with pytest.raises(ValueError):
            arr[0] = 3


def test_evolution_error_names_degenerate_quad():
    sig = Signature(4, 2)
    e = np.eye(6)
    base = e[0] + e[4]
    line0 = [base, e[1] + e[5]]
    line1 = [base, e[2] + e[4]]          # orthogonal to line0[1]
    with pytest.raises(EvolutionError) as info:
        moutard_evolve(Grid([2, 2]), sig, line0, line1, sig.standard_frame())
    assert info.value.where == {"kind": "quad", "corner": (0, 0)}


def test_gamma_lambda_batch_locates_orthogonal_pair():
    sig = Signature(4, 2)
    e = np.eye(6)
    si = np.stack([e[0] + e[4], e[1] + e[5], e[1] + e[5]])
    sj = np.stack([e[0] - e[4], e[1] - e[5], e[2] + e[4]])   # last pair orthogonal
    with pytest.raises(DegeneracyError) as info:
        gamma_lambda((si, sj), 2.0, sig)
    assert info.value.where == 2
    one = gamma_lambda((si[:2], sj[:2]), np.array([2.0, 0.5]), sig)
    assert np.array_equal(one[1], ref.gamma_lambda(si[1], sj[1], 0.5, sig))


def test_flat_connection_error_names_orthogonal_edge():
    sig = Signature(4, 2)
    e = np.eye(6)
    grid = Grid([2, 1])
    net = IsothermicNet(grid, sig, [e[0] + e[4], e[1] + e[5]])
    assert net.is_infinite.all()
    # an orthogonal pair mislabelled as finite reaches the eigen transport
    net.is_infinite = np.zeros(grid.nedges, bool)
    net.labels = np.ones(grid.nedges)
    with pytest.raises(DegeneracyError) as info:
        flat_connection(net, 0.5)
    assert info.value.where == grid.locate_edge(0)


CONIC_CASES = [(n, pq) for n in (8, 10, 12) for pq in SIGNATURES]


@pytest.mark.parametrize("n, pq", CONIC_CASES,
                         ids=[f"{n}x{n}-{p}{q}" for n, (p, q) in CONIC_CASES])
def test_conic_cross_ratio_matches_per_quad_reference(n, pq):
    net = random_isothermic(Grid([n, n]), Signature(*pq), np.random.default_rng(n + pq[1]))
    quads = net.mu[net.grid.corners()]
    got = conic_cross_ratio(quads, net.signature)
    want = np.array([pseudo_reference.conic_cross_ratio(mu, net.signature) for mu in quads])
    assert got.shape == want.shape
    assert rel(np.abs(got - want), np.abs(want)).max() <= pseudo_reference.CROSS_RATIO_TOL
    assert quad_cross_ratio_residual(net) <= pseudo_reference.CROSS_RATIO_TOL


def _degenerate_conic_quads():
    """Null quadruples in R^{4,2}: ``regular`` (4, 4, 6) ones of a net, and
    one of each degenerate kind."""
    sig = Signature(4, 2)
    net = random_isothermic(Grid([3, 3]), sig, np.random.default_rng(3))
    regular = net.mu[net.grid.corners()]
    e = np.eye(6)
    a, b, c = e[1] + e[5], e[2] + e[5], e[0] + e[4]
    return sig, regular, {
        # all four on two lines of one plane
        "plane": np.stack([a, c, 2 * a, -3 * c]),
        # the third point is in the radical of the inner product on the
        # span: the conic is a pair of lines and no fifth point is found
        "candidate": np.stack([a, b, c, a + c]),
        # the diagonal points i and k are one line
        "coincide": np.stack([regular[0, 0], regular[0, 1], -2 * regular[0, 0], regular[0, 3]]),
    }


@pytest.mark.parametrize("kind, message", [
    ("plane", "span no plane"),
    ("candidate", "no admissible projection point"),
    ("coincide", "coincident points")])
def test_conic_cross_ratio_error_names_first_degenerate_quad(kind, message):
    sig, regular, planted = _degenerate_conic_quads()
    quads = np.concatenate([regular, regular])
    quads[5] = quads[7] = planted[kind]
    with pytest.raises(DegeneracyError, match=message) as info:
        conic_cross_ratio(quads.reshape(2, 4, 4, 6), sig)
    assert info.value.where == 5
    with pytest.raises(DegeneracyError, match=message) as info:
        conic_cross_ratio(planted[kind], sig)
    assert info.value.where == 0


def test_quad_cross_ratio_residual_names_the_grid_quad():
    sig = Signature(4, 2)
    net = random_isothermic(Grid([4, 4]), sig, np.random.default_rng(2))
    g, mu = net.grid, np.array(net.mu)
    i, j, _, _ = g.corners(0)
    mu[j] = 2 * mu[i]                  # an infinite label: quad 0 is skipped
    i, _, k, _ = g.corners(5)
    mu[k] = -3 * mu[i]                 # quad 5 has coincident diagonal points
    planted = IsothermicNet(g, sig, mu)
    assert planted.is_infinite[g.sides(0)[0]]
    with pytest.raises(DegeneracyError, match="coincident points") as info:
        quad_cross_ratio_residual(planted)
    assert info.value.where == g.locate_quad(5)
