"""The level-by-level staircase walks against their per-vertex references.

Every walk runs from vertex 0 and must give the same arrays bit for bit
as one Python step per vertex along the old ordered tree, and a
degenerate step must fail on the same edge with the same message.  The
references still take a root: walked from another vertex, seeded with
the library's value there, they meet the library's walk of a closed
form, a flat connection, a Koenigs net or a congruence's bundle within
``ROOTS`` or ``SECTION_ROOTS``, so the result does not depend on where
the walk starts.  The two Koenigs walks whose
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
# relative bound between a walk from vertex 0 and a reference walk from
# another root: measured at most 3.6e-13 (trivialize_connection, 64x64);
# the parallel sections meet within SECTION_ROOTS, measured 3.6e-10 on
# 2x2, where the congruence's bundle is flat to about that
ROOTS = 1e-11
SECTION_ROOTS = 1e-9
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
        return moutard_evolve(g, SIG, *random_cauchy(g, SIG, rng, 0.3, frame), frame=frame)
    return random_isothermic(Grid([int(n) for n in name.split("x")]), SIG, rng)


def _roots(grid):
    """Vertex 0, a middle vertex and the last one: the roots of the
    reference walks each walk from vertex 0 is compared with."""
    interior = tuple((d - 1) // 2 for d in grid.dims)
    return sorted({0, int(np.ravel_multi_index(interior, grid.dims)), grid.nverts - 1})


def _cases():
    return [(name, root) for name in GRIDS for root in _roots(_net(name).grid)]


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


def _near(got, want, bound=ROOTS):
    """Every row of ``got`` within ``bound`` of ``want``'s, relative to it."""
    got, want = (np.reshape(x, (len(x), -1)) for x in (got, want))
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() <= bound, err.max()


@pytest.mark.parametrize("name, root", _cases())
def test_levels_are_the_staircase_tree(name, root):
    g = _net(name).grid
    levels = g.staircase_tree()
    assert len(levels) <= sum(g.dims)
    steps = [tuple(int(x) for x in step) for level in levels for step in zip(*level)]
    # from vertex 0, every step of the old tree runs along its edge
    assert [step + (1,) for step in steps] == ref.staircase_steps(g)
    seen = {0}
    for child, parent, slot in levels:
        assert set(parent.tolist()) <= seen
        tail, head = g.ends(slot)
        assert np.array_equal(tail, parent) and np.array_equal(head, child)
        seen |= set(child.tolist())
    assert len(seen) == g.nverts
    # the path from the root to vertex 0 is a shortest one
    parent_of = {child: parent for child, parent, _ in steps}
    path = [root]
    while path[-1]:
        path.append(parent_of[path[-1]])
    assert len(path) - 1 == g.coordinates(root).sum()


def test_single_vertex_grid_has_no_levels():
    assert Grid([1, 1]).staircase_tree() == []
    with pytest.raises(TypeError):                  # one root: vertex 0
        Grid([2, 3]).staircase_tree(0)


@pytest.mark.parametrize("name, root", _cases())
def test_integrate_one_form_matches_walk(name, root):
    g = _net(name).grid
    rng = np.random.default_rng(root)
    values, seed = rng.standard_normal((g.nedges, 3)), rng.standard_normal(3)
    got = integrate_one_form(g, values, seed=seed, check_closed=False)
    assert np.array_equal(got, ref.integrate_one_form(g, values, seed=seed))
    f = rng.standard_normal((g.nverts, 3))
    closed = g.edge_difference(f)
    got = integrate_one_form(g, closed, seed=f[0])
    _near(got, ref.integrate_one_form(g, closed, base=root, seed=got[root]))


@pytest.mark.parametrize("name, root", _cases())
def test_trivialize_connection_matches_walk(name, root):
    g = _net(name).grid
    gauge = np.eye(4) + 0.3 * np.random.default_rng(root).standard_normal((g.nverts, 4, 4))
    gamma = gauge[g.edge_head] @ np.linalg.inv(gauge[g.edge_tail])   # flat
    T = trivialize_connection(g, gamma.__getitem__)
    assert np.array_equal(T, ref.trivialize_connection(g, gamma))
    # the walk from the root is the identity there: T is T[root] times it
    _near(T, T[root] @ ref.trivialize_connection(g, gamma, base=root))


def _darboux_seed(net, m, draw):
    """A Darboux seed at vertex 0 from ``default_rng(draw)``."""
    rng = np.random.default_rng(draw)
    if np.isinf(m):
        return _seed_orthogonal_null(net, rng)
    frame = SIG.standard_frame()
    x = frame.pi(rng.standard_normal(SIG.dim))
    return frame.o + x + 0.5 * float(SIG.inner(x, x)) * frame.q


def _march_ref(net, m, seed):
    hat0 = seed if np.isinf(m) else seed / (m * float(SIG.inner(seed, net.mu[0])))
    return ref.darboux_march(net, m, hat0)


def _march(net, m, seed):
    return darboux_transform(net, m, seed=seed, rng=np.random.default_rng(0)).mu


# The Darboux march amplifies rounding along its path (from the last
# vertex of 64x64 the isotropic march lands 0.8 away, and on the stacked
# pair it stops), so its cases draw one seed per root of _cases instead
# of walking from it.
@pytest.mark.parametrize("m", [0.5, np.inf])
@pytest.mark.parametrize("name, draw", _cases())
def test_darboux_march_matches_walk(name, draw, m):
    net = _net(name)
    seed = _darboux_seed(net, m, draw)
    _same(_outcome(_march, net, m, seed), _outcome(_march_ref, net, m, seed))


@pytest.mark.parametrize("name, draw", [("64x64", 0), ("stacked 2x6x6", 0), ("3x4x5", 27)])
def test_darboux_degenerate_step_names_the_same_edge(name, draw):
    """Lifts orthogonal to their parents' transformed lifts, on two
    children of one level, stop the march at the first of them."""
    net = _net(name)
    seed = _darboux_seed(net, 0.5, draw)
    hat = _march_ref(net, 0.5, seed)
    levels = net.grid.staircase_tree()
    child, parent, slot = levels[len(levels) // 2 + 1]
    k = len(child) // 2
    mu = net.mu.copy()
    for j in (k, len(child) - 1):
        mu[child[j]] = 2.0 * hat[parent[j]]    # a label m / 2, not m
    bad = IsothermicNet(net.grid, SIG, mu)
    got = _outcome(_march, bad, 0.5, seed)
    assert got == _outcome(_march_ref, bad, 0.5, seed)
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
    got = _outcome(darboux_transform, net, m, seed=seed, rng=np.random.default_rng(0))
    hat0 = seed / (m * float(SIG.inner(seed, net.mu[0])))
    assert got == _outcome(ref.darboux_march, net, m, hat0, 0, min_denom)
    assert got[1] == f"Darboux {what} degenerate"


def _projective(name):
    """A Koenigs net with its form: rescaled lifts of random vectors."""
    g = _net(name).grid
    rng = np.random.default_rng(len(name))
    mu = rng.standard_normal((g.nverts, 5))
    lifts = mu * rng.uniform(0.5, 2.0, (g.nverts, 1))
    return ProjectiveNet(g, lifts, wedge_vec(mu[g.edge_head], mu[g.edge_tail])), mu


@pytest.mark.parametrize("name, root", _cases())
def test_moutard_lift_from_eta_matches_walk(name, root):
    net, mu = _projective(name)
    got = _outcome(moutard_lift_from_eta, net, 1.3 * mu[0])
    _same(got, _outcome(ref.moutard_lift_from_eta, net, 1.3 * mu[0], dot=ref.row_dot))
    assert not isinstance(got, tuple)
    _near(got, ref.moutard_lift_from_eta(net, 1.3 * mu[0]), OLD_ARITHMETIC)
    _near(got, ref.moutard_lift_from_eta(net, got[root], root))


@pytest.mark.parametrize("what", ["coincident", "not Koenigs"])
def test_moutard_lift_degenerate_step_names_the_same_edge(what):
    net, mu = _projective("3x4x5")
    child, parent, slot = net.grid.staircase_tree()[5]
    lifts, eta = net.lifts.copy(), net.eta.copy()
    if what == "coincident":
        lifts[child[1]] = lifts[parent[1]]
    else:
        eta[slot[1]] += 0.1 * np.random.default_rng(0).standard_normal(eta.shape[1])
    bad = ProjectiveNet(net.grid, lifts, eta)
    got = _outcome(moutard_lift_from_eta, bad, mu[0])
    assert got[:2] == _outcome(ref.moutard_lift_from_eta, bad, mu[0], dot=ref.row_dot)[:2]
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


def _projectively_near(got, want, bound):
    """The same points of the projective line within ``bound`` (an svd
    may flip their sign)."""
    err = np.abs(got[:, 0] * want[:, 1] - got[:, 1] * want[:, 0]) / (
        np.linalg.norm(got, axis=1) * np.linalg.norm(want, axis=1))
    assert err.max() <= bound, err.max()


@pytest.mark.parametrize("dims", [(1, 5), (5, 1), (2, 2), (9, 7)])
def test_parallel_section_matches_walk(dims):
    """Bit for bit with the library's edge maps; with the old ones, the
    same points of the projective line (an svd may flip their sign)."""
    cong = _congruence(dims)
    g = cong.grid
    colors = _colors(g)
    maps = (ref.library_g_map, ref.library_g_map_inverse)
    seed2 = np.array([0.3, 0.8])
    for bundle_black in (True, False):
        got = _outcome(_parallel_section, cong, colors, bundle_black, seed2)
        _same(got, _outcome(ref.parallel_section, cong, colors, bundle_black, 0, seed2, maps))
        assert not isinstance(got, tuple)
        _projectively_near(got, ref.parallel_section(cong, colors, bundle_black, 0, seed2),
                           OLD_ARITHMETIC)
        for root in _roots(g):
            _projectively_near(got, ref.parallel_section(cong, colors, bundle_black, root,
                                                         got[root], maps), SECTION_ROOTS)
    # from vertex 0, the white bundle's first step is a g_map
    zero = _outcome(_parallel_section, cong, colors, False, np.zeros(2))
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
    T = trivialize_connection(net.grid, flat_connection(net, m).__getitem__)
    seed = np.broadcast_to(hat.mu[0], hat.mu.shape)
    sigma = np.linalg.solve(T, seed[..., None])[..., 0]
    oracle = sigma / (m * sig.inner(net.mu, sigma))[:, None]
    err = np.linalg.norm(oracle - hat.mu, axis=1) / np.linalg.norm(hat.mu, axis=1)
    assert err.max() <= 8e-14
