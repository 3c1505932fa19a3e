"""The level-by-level staircase walks against their per-vertex references.

Every walk must give the same arrays bit for bit as one Python step per
vertex along the old ordered tree, and a degenerate step must fail on
the same edge with the same message.  The two Koenigs walks whose
arithmetic changed with the batching meet their old arithmetic within
``OLD_ARITHMETIC``.
"""

from functools import lru_cache

import numpy as np
import pytest

import walk_reference as ref
from dnet import (Grid, Signature, darboux_transform, isothermic, moutard_lift_from_eta,
                  omega_from_darboux_pair, random_isothermic)
from dnet.errors import GeometryError
from dnet.forms import wedge_vec
from dnet.grid import integrate_one_form, trivialize_connection
from dnet.isothermic import (IsothermicNet, _seed_orthogonal_null, flat_connection,
                             moutard_evolve, random_cauchy, stack_pair)
from dnet.koenigs import ProjectiveNet, _colors, _parallel_section, factor_edge_ratios

SIG = Signature(4, 2)
# relative bound between a batched Koenigs walk and its old arithmetic
# (BLAS dots, lstsq); measured at most 4.9e-15 for the lifts (64x64) and
# 4.2e-14 for the sections (9x7), and extract_pair moved 7.5e-13
OLD_ARITHMETIC = 1e-12
# the grids every walk is checked on; _net builds a net on each
GRIDS = ["1x5", "5x1", "2x2", "3x4x5", "stacked 2x6x6", "64x64"]


@lru_cache(maxsize=None)
def _net(name):
    """An isothermic net on each grid; on 3x4x5, random null lifts."""
    rng = np.random.default_rng(5)
    frame = SIG.standard_frame()
    if name == "3x4x5":
        g = Grid([3, 4, 5])
        x = frame.pi(rng.standard_normal((g.nverts, SIG.dim)))
        return IsothermicNet(g, SIG, frame.o + x + 0.5 * SIG.inner(x, x)[:, None] * frame.q)
    if name == "stacked 2x6x6":
        net = random_isothermic(Grid([6, 6]), SIG, rng)
        return stack_pair(net, darboux_transform(net, np.inf, rng=rng))
    if name == "64x64":
        g = Grid([64, 64])
        return moutard_evolve(g, SIG, *random_cauchy(g, SIG, rng), frame=frame)
    return random_isothermic(Grid([int(n) for n in name.split("x")]), SIG, rng)


def _bases(grid):
    interior = tuple((d - 1) // 2 for d in grid.dims)
    return sorted({0, int(np.ravel_multi_index(interior, grid.dims)), grid.nverts - 1})


def _cases():
    return [(name, base) for name in GRIDS for base in _bases(_net(name).grid)]


def _outcome(fn, *args, **kw):
    """The result, or the type, text and locator of the error."""
    try:
        return fn(*args, **kw)
    except (GeometryError, ValueError) as err:
        return type(err).__name__, str(err), getattr(err, "where", None)


def _same(a, b):
    if isinstance(a, tuple) and isinstance(a[0], str):
        assert a == b
    else:
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name, base", _cases())
def test_levels_are_the_staircase_tree(name, base):
    g = _net(name).grid
    levels = g.staircase_tree(base)
    assert len(levels) <= sum(g.dims)
    steps = [tuple(int(x) for x in step) for level in levels for step in zip(*level)]
    assert steps == ref.staircase_steps(g, base)
    seen = {base}
    for child, parent, _, _ in levels:
        assert set(parent.tolist()) <= seen
        seen |= set(child.tolist())
    assert len(seen) == g.nverts


def test_single_vertex_grid_has_no_levels():
    assert Grid([1, 1]).staircase_tree(0) == []
    with pytest.raises(ValueError):
        Grid([2, 3]).staircase_tree(6)


@pytest.mark.parametrize("name, base", _cases())
def test_integrate_one_form_matches_walk(name, base):
    g = _net(name).grid
    rng = np.random.default_rng(base)
    values, seed = rng.standard_normal((g.nedges, 3)), rng.standard_normal(3)
    got = integrate_one_form(g, values, base=base, seed=seed, check_closed=False).values
    assert np.array_equal(got, ref.integrate_one_form(g, values, base=base, seed=seed))


@pytest.mark.parametrize("name, base", _cases())
def test_trivialize_connection_matches_walk(name, base):
    g = _net(name).grid
    gauge = np.eye(4) + 0.3 * np.random.default_rng(base).standard_normal((g.nverts, 4, 4))
    gamma = gauge[g.edge_head] @ np.linalg.inv(gauge[g.edge_tail])   # flat
    T = trivialize_connection(g, gamma, base=base)
    assert np.array_equal(T, ref.trivialize_connection(g, gamma, base=base))


def _darboux_seed(net, m, base):
    rng = np.random.default_rng(base)
    if np.isinf(m):
        return _seed_orthogonal_null(net, base, rng)
    frame = SIG.standard_frame()
    x = frame.pi(rng.standard_normal(SIG.dim))
    return frame.o + x + 0.5 * float(SIG.inner(x, x)) * frame.q


def _march_ref(net, m, seed, base):
    hat0 = seed if np.isinf(m) else seed / (m * float(SIG.inner(seed, net.mu[base])))
    return ref.darboux_march(net, m, hat0, base)


def _march(net, m, seed, base):
    return darboux_transform(net, m, seed=seed, base=base).mu


@pytest.mark.parametrize("m", [0.5, np.inf])
@pytest.mark.parametrize("name, base", _cases())
def test_darboux_march_matches_walk(name, base, m):
    net = _net(name)
    seed = _darboux_seed(net, m, base)
    _same(_outcome(_march, net, m, seed, base), _outcome(_march_ref, net, m, seed, base))


@pytest.mark.parametrize("name, base", [("64x64", 0), ("stacked 2x6x6", 0), ("3x4x5", 27)])
def test_darboux_degenerate_step_names_the_same_edge(name, base):
    """Lifts orthogonal to their parents' transformed lifts, on two
    children of one level, stop the march at the first of them."""
    net = _net(name)
    seed = _darboux_seed(net, 0.5, base)
    hat = _march_ref(net, 0.5, seed, base)
    levels = net.grid.staircase_tree(base)
    child, parent, slot, _ = levels[len(levels) // 2 + 1]
    k = len(child) // 2
    mu = net.mu.copy()
    for j in (k, len(child) - 1):
        mu[child[j]] = 2.0 * hat[parent[j]]    # a label m / 2, not m
    bad = IsothermicNet(net.grid, SIG, mu)
    got = _outcome(_march, bad, 0.5, seed, base)
    assert got == _outcome(_march_ref, bad, 0.5, seed, base)
    assert got[0] == "PropagationError" and got[2] == net.grid.locate_edge(int(slot[k]))


@pytest.mark.parametrize("min_denom, scale, what", [(1e-12, 1.0, "normalization"),
                                                     (1e3, 1e4, "propagation")])
def test_darboux_normalization_failure_names_the_same_edge(monkeypatch, min_denom, scale, what):
    """With m = 1e13 the normalization (mu, mu_hat) = 1/m falls below
    ``min_denom`` at the first step; a larger ``min_denom`` fails the
    denominator test there too, and that test comes first."""
    net, m = _net("3x4x5"), 1e13
    seed = scale * _darboux_seed(net, 0.5, 27)
    monkeypatch.setattr(isothermic, "_MIN_DENOM", min_denom)
    got = _outcome(darboux_transform, net, m, seed=seed, base=27)
    hat0 = seed / (m * float(SIG.inner(seed, net.mu[27])))
    assert got == _outcome(ref.darboux_march, net, m, hat0, 27, min_denom)
    assert got[1] == f"Darboux {what} degenerate"


def _projective(name):
    """A Koenigs net with its form: rescaled lifts of random vectors."""
    g = _net(name).grid
    rng = np.random.default_rng(len(name))
    mu = rng.standard_normal((g.nverts, 5))
    lifts = mu * rng.uniform(0.5, 2.0, (g.nverts, 1))
    return ProjectiveNet(g, lifts, wedge_vec(mu[g.edge_head], mu[g.edge_tail])), mu


def _lift_walk(net, seed, base):
    return moutard_lift_from_eta(net, seed, base=base)


@pytest.mark.parametrize("name, base", _cases())
def test_moutard_lift_from_eta_matches_walk(name, base):
    net, mu = _projective(name)
    got = _outcome(_lift_walk, net, 1.3 * mu[base], base)
    _same(got, _outcome(ref.moutard_lift_from_eta, net, 1.3 * mu[base], base, dot=ref.row_dot))
    assert not isinstance(got, tuple)
    old = ref.moutard_lift_from_eta(net, 1.3 * mu[base], base)
    err = np.linalg.norm(got - old, axis=1) / np.linalg.norm(old, axis=1)
    assert err.max() <= OLD_ARITHMETIC


@pytest.mark.parametrize("what", ["coincident", "not Koenigs"])
def test_moutard_lift_degenerate_step_names_the_same_edge(what):
    net, mu = _projective("3x4x5")
    child, parent, slot, _ = net.grid.staircase_tree(0)[5]
    lifts, eta = net.lifts.copy(), net.eta.copy()
    if what == "coincident":
        lifts[child[1]] = lifts[parent[1]]
    else:
        eta[slot[1]] += 0.1 * np.random.default_rng(0).standard_normal(eta.shape[1])
    bad = ProjectiveNet(net.grid, lifts, eta)
    got = _outcome(_lift_walk, bad, mu[0], 0)
    assert got[:2] == _outcome(ref.moutard_lift_from_eta, bad, mu[0], 0, dot=ref.row_dot)[:2]
    assert got[2] == net.grid.locate_edge(int(slot[1]))


@pytest.mark.parametrize("name", GRIDS)
def test_factor_edge_ratios_matches_walk(name):
    g = _net(name).grid
    rng = np.random.default_rng(3)
    r = rng.uniform(0.5, 2.0, g.nverts)
    lam = r[g.edge_tail] * r[g.edge_head] * (1.0 + 1e-3 * rng.standard_normal(g.nedges))
    got, quad_res, _, _ = factor_edge_ratios(g, lam)
    r_ref, quad_ref = ref.factor_edge_ratios(g, lam)
    assert np.array_equal(got, r_ref) and quad_res == quad_ref


@lru_cache(maxsize=None)
def _congruence(dims):
    net = random_isothermic(Grid(list(dims)), SIG, np.random.default_rng(1))
    return omega_from_darboux_pair(net, rng=np.random.default_rng(2)).congruence()


@pytest.mark.parametrize("dims", [(1, 5), (5, 1), (2, 2), (9, 7)])
def test_parallel_section_matches_walk(dims):
    """Bit for bit with the library's edge maps; with the old ones, the
    same points of the projective line (an svd may flip their sign)."""
    cong = _congruence(dims)
    g = cong.grid
    colors = _colors(g)
    maps = (ref.library_g_map, ref.library_g_map_inverse)
    for bundle_black in (True, False):
        for base in _bases(g):
            seed2 = np.array([0.3, 0.8])
            got = _outcome(_parallel_section, cong, colors, bundle_black, base, seed2)
            _same(got, _outcome(ref.parallel_section, cong, colors, bundle_black, base, seed2,
                                maps))
            assert not isinstance(got, tuple)
            old = ref.parallel_section(cong, colors, bundle_black, base, seed2)
            err = np.abs(got[:, 0] * old[:, 1] - got[:, 1] * old[:, 0]) / (
                np.linalg.norm(got, axis=1) * np.linalg.norm(old, axis=1))
            assert err.max() <= OLD_ARITHMETIC
    # from the black base, the white bundle's first step is a g_map
    zero = _outcome(_parallel_section, cong, colors, False, 0, np.zeros(2))
    assert zero == _outcome(ref.parallel_section, cong, colors, False, 0, np.zeros(2), maps)
    assert zero == _outcome(ref.parallel_section, cong, colors, False, 0, np.zeros(2))
    assert zero[:2] == ("ValueError", "(tau, r) must not both vanish")


@pytest.mark.parametrize("pq", [(4, 2), (4, 1), (3, 1)])
def test_darboux_matches_the_parallel_section_of_the_flat_connection(pq):
    """An independent Darboux oracle: a parallel section of Gamma(m) is
    sigma = T^-1 seed for the trivialization T of the connection (a solve
    with T), and its rescaling with (mu, mu_hat) = 1/m is the Darboux
    transform.  On 8x8 the two agree to 8e-15; the bound allows ten times
    that."""
    sig, m = Signature(*pq), 0.5
    net = random_isothermic(Grid([8, 8]), sig, np.random.default_rng(11))
    hat = darboux_transform(net, m, rng=np.random.default_rng(12))
    T = trivialize_connection(net.grid, flat_connection(net, m), tol=1e-7)
    seed = np.broadcast_to(hat.mu[0], hat.mu.shape)
    sigma = np.linalg.solve(T, seed[..., None])[..., 0]
    oracle = sigma / (m * sig.inner(net.mu, sigma))[:, None]
    err = np.linalg.norm(oracle - hat.mu, axis=1) / np.linalg.norm(hat.mu, axis=1)
    assert err.max() <= 8e-14
