import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet.errors import ClosednessError, FlatnessError
from dnet.forms import Form0, exterior_derivative
from dnet.grid import Grid, holonomy, integrate_one_form, stack, trivialize_connection
from dnet.residuals import worst
from tests.netfile_reference import oriented_edge


def brute_force_counts(dims):
    """Counting oracle: enumerate all index pairs directly."""
    verts = list(itertools.product(*[range(d) for d in dims]))
    edges = set()
    quads = set()
    for v in verts:
        for a in range(len(dims)):
            w = list(v)
            w[a] += 1
            if w[a] < dims[a]:
                edges.add((v, tuple(w)))
            for b in range(a + 1, len(dims)):
                u = list(v)
                u[a] += 1
                u[b] += 1
                if u[a] < dims[a] and u[b] < dims[b]:
                    quads.add((v, a, b))
    return len(verts), len(edges), len(quads)


def test_unit_square_counts():
    g = Grid([2, 2])
    assert (g.nverts, g.nedges, g.nquads) == (4, 4, 1)


def test_path_graph_counts():
    g = Grid([3, 1])
    assert (g.nverts, g.nedges, g.nquads) == (3, 2, 0)


@pytest.mark.parametrize("dims", [[3, 3], [4, 2], [2, 3, 4], [5], [2, 2, 2, 2]])
def test_counts_match_brute_force(dims):
    g = Grid(dims)
    assert (g.nverts, g.nedges, g.nquads) == brute_force_counts(dims)


def test_bad_extent_rejected():
    with pytest.raises(ValueError):
        Grid([3, 0])
    with pytest.raises(ValueError):
        Grid([])


def test_stack_line():
    s = stack(Grid([4]))
    assert s.dims == (2, 4)
    assert int((s.edge()[1] == 0).sum()) == 4


def test_stack_square_counts():
    s = stack(Grid([3, 3]))
    assert s.dims == (2, 3, 3)
    assert (s.nverts, s.nedges, s.nquads) == brute_force_counts([2, 3, 3])
    assert int((s.edge()[1] == 0).sum()) == 9
    assert int((s.quad(slice(None))[1] == 0).sum()) == 12


def test_stack_of_interval_has_one_vertical_quad():
    s = stack(Grid([2]))
    assert int((s.quad(slice(None))[1] == 0).sum()) == 1


def test_double_stack_rejected():
    with pytest.raises(ValueError):
        stack(stack(Grid([3])))


def test_edge_reversal_involution():
    """Each canonical edge runs tail -> head along its axis; the reversed
    orientation is the same slot with the opposite sign."""
    g = Grid([3, 2])
    for slot, (t, h) in enumerate(zip(g.edge_tail.tolist(), g.edge_head.tolist())):
        e = oriented_edge(g, t, h)
        assert (e.index, e.sign, e.axis) == (slot, 1, g.edge(slot)[1])
        assert oriented_edge(g, h, t) == (h, t, e.axis, slot, -1)


def test_quad_reversal_involution_and_rotation():
    """The cycle (i, j, k, l) of a quad runs along its bottom and right
    edges and against its top and left ones; rotating the cycle keeps
    its oriented edges, reversing it to (i, l, k, j) flips every sign."""
    g = Grid([3, 3])

    def oriented(cycle):
        return {(e.index, e.sign) for e in
                (oriented_edge(g, u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))}

    for n in range(g.nquads):
        i, j, k, l = (int(v) for v in g.corners(n))
        b, r, t, lft = (int(e) for e in g.sides(n))
        assert oriented([i, j, k, l]) == {(b, 1), (r, 1), (t, -1), (lft, -1)}
        assert oriented([j, k, l, i]) == oriented([i, j, k, l])
        assert oriented([i, l, k, j]) == {(e, -s) for e, s in oriented([i, j, k, l])}


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10**6))
def test_integrate_recovers_potential(d0, d1, seed):
    g = Grid([d0, d1])
    rng = np.random.default_rng(seed)
    f = Form0(g, rng.standard_normal((g.nverts, 3)))
    rec = integrate_one_form(g, exterior_derivative(f).values, seed=f.values[0])
    assert np.abs(rec - f.values).max() <= 1e-12 * max(
        1.0, np.abs(f.values).max())


def test_integrate_zero_form_gives_constant():
    g = Grid([4, 4])
    alpha = np.zeros((g.nedges, 2))
    out = integrate_one_form(g, alpha, seed=[3.0, -1.0])
    assert np.abs(out - [3.0, -1.0]).max() == 0.0


def test_coordinate_sum_potential():
    g = Grid([3, 3])
    f = Form0(g, g.coordinates(np.arange(g.nverts)).sum(axis=1).astype(float))
    rec = integrate_one_form(g, exterior_derivative(f).values, seed=f.values[0])
    assert np.abs(rec - f.values).max() == 0.0


def brute_force_paths(dims, start, end):
    """All monotone staircase paths between two vertices."""
    g = Grid(dims)
    sc = g.coordinates(start)
    ec = g.coordinates(end)
    steps = []
    for a in range(g.ndim):
        steps += [a] * abs(int(ec[a]) - int(sc[a]))
    paths = set(itertools.permutations(steps))
    out = []
    for p in paths:
        verts = [tuple(sc)]
        for a in p:
            nxt = list(verts[-1])
            nxt[a] += 1 if ec[a] > sc[a] else -1
            verts.append(tuple(nxt))
        out.append([np.ravel_multi_index(v, g.dims) for v in verts])
    return out


def test_path_independence_on_3x3():
    g = Grid([3, 3])
    rng = np.random.default_rng(11)
    f = Form0(g, rng.standard_normal((g.nverts, 2)))
    alpha = exterior_derivative(f)
    end = np.ravel_multi_index((2, 2), g.dims)
    values = []
    for path in brute_force_paths([3, 3], 0, end):
        total = np.zeros(2)
        for a, b in zip(path, path[1:]):
            e = oriented_edge(g, a, b)
            total = total + e.sign * alpha.values[e.index]
        values.append(total)
    values = np.array(values)
    assert len(values) == 6
    assert np.abs(values - values[0]).max() <= 1e-12


def test_integrate_rejects_non_closed():
    g = Grid([3, 3])
    rng = np.random.default_rng(0)
    alpha = rng.standard_normal((g.nedges, 1))
    with pytest.raises(ClosednessError) as err:
        integrate_one_form(g, alpha)
    assert err.value.where["kind"] == "quad"


def test_integrate_rejects_nan_edge():
    """A NaN on non-tree edge 4 fails the check, not passed over; it
    reaches the scale (the largest entry) too, and the first quad
    through the edge is still named."""
    g = Grid([3, 3])
    alpha = np.zeros((g.nedges, 2))
    alpha[4] = np.nan
    with pytest.raises(ClosednessError) as err:
        integrate_one_form(g, alpha, check_closed=True)
    assert err.value.where["corner"] == (1, 0) and np.isnan(err.value.residual)


def _quads_holding(grid, tail, head):
    """The ``(corner, axes)`` of every quad whose boundary runs through
    the vertices ``tail -> head``, from the coordinates alone."""
    out = set()
    for corner in itertools.product(*(range(n) for n in grid.dims)):
        for a, b in itertools.combinations(range(grid.ndim), 2):
            if corner[a] + 1 >= grid.dims[a] or corner[b] + 1 >= grid.dims[b]:
                continue
            i = np.array(corner)
            j, l = i + np.eye(grid.ndim, dtype=int)[a], i + np.eye(grid.ndim, dtype=int)[b]
            sides = [(i, j), (j, j + l - i), (l, j + l - i), (i, l)]
            if any(tuple(t) == tail and tuple(h) == head for t, h in sides):
                out.add((corner, (a, b)))
    return out


@pytest.mark.parametrize("dims, stacked", [((5, 7), False), ((40, 40), False),
                                           ((3, 4, 5), False), ((9, 9, 9), False),
                                           ((2, 6, 7), True), ((1, 9), False), ((9, 1), False)])
def test_holonomy_of_a_gauge_connection_moves_exactly_at_a_perturbed_edge(dims, stacked):
    # an oracle independent of where each block places the sides of its
    # quads: the connection of a random gauge is flat, and a change of one
    # transport moves the quads through that edge and no other
    g = Grid(dims, stacked=stacked)
    rng = np.random.default_rng(sum(dims))
    gauge = np.eye(4) + 0.3 * rng.standard_normal((g.nverts, 4, 4))
    gamma = gauge[g.edge_head] @ np.linalg.inv(gauge[g.edge_tail])
    flat = holonomy(g, gamma.__getitem__)
    assert flat.shape == (g.nquads,) and flat.max(initial=0.0) <= 1e-13
    e = int(rng.integers(g.nedges))
    where = g.locate_edge(e)
    tail = where["tail"]
    head = tuple(c + (n == where["axis"]) for n, c in enumerate(tail))
    bent = gamma.copy()
    bent[e] = bent[e] @ (np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
    res = holonomy(g, bent.__getitem__)
    moved = {(q["corner"], q["axes"]) for q in map(g.locate_quad, np.flatnonzero(res != flat))}
    assert moved == _quads_holding(g, tail, head)
    assert (res[res != flat] > 1e-3).all()
    top, q = worst(res)
    if moved:
        assert (g.locate_quad(q)["corner"], g.locate_quad(q)["axes"]) in moved
        with pytest.raises(FlatnessError) as err:
            trivialize_connection(g, bent.__getitem__)
        assert (err.value.where["corner"], err.value.where["axes"]) in moved
    else:
        assert q is None and g.nquads == 0
        T = trivialize_connection(g, bent.__getitem__)
        assert np.abs(np.linalg.inv(T[g.edge_head]) @ T[g.edge_tail] - bent).max() <= 1e-12


def random_orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


def test_trivialize_identity():
    g = Grid([3, 3])
    gamma = np.tile(np.eye(4), (g.nedges, 1, 1))
    T = trivialize_connection(g, gamma.__getitem__)
    assert np.abs(T - np.eye(4)).max() == 0.0


def test_trivialize_reconstructs_gauge():
    g = Grid([4, 3])
    rng = np.random.default_rng(3)
    gs = np.array([random_orthogonal(rng, 4) for _ in range(g.nverts)])
    gamma = np.array([np.linalg.inv(gs[h]) @ gs[t]
                      for t, h in zip(g.edge_tail, g.edge_head)])
    T = trivialize_connection(g, gamma.__getitem__)
    # oracle: reconstruct the connection edge by edge
    for e, (t, h) in enumerate(zip(g.edge_tail, g.edge_head)):
        assert np.abs(np.linalg.inv(T[h]) @ T[t] - gamma[e]).max() <= 1e-10
    expected = np.einsum("ij,njk->nik", np.linalg.inv(gs[0]), gs)
    assert np.abs(T - expected).max() <= 1e-10


def test_trivialize_rejects_non_flat():
    g = Grid([3, 3])
    rng = np.random.default_rng(1)
    gamma = np.tile(np.eye(3), (g.nedges, 1, 1))
    bad = g.sides(2)[0]
    gamma[bad] = random_orthogonal(rng, 3)
    with pytest.raises(FlatnessError) as err:
        trivialize_connection(g, gamma.__getitem__)
    assert err.value.where["kind"] == "quad"
    assert err.value.where["index"] == 2


def test_trivialize_rejects_nan_edge():
    """A NaN transport on non-tree edge 4: the first quad through it is
    named, not passed over."""
    g = Grid([3, 3])
    gamma = np.tile(np.eye(2), (g.nedges, 1, 1))
    gamma[4] = np.nan
    with pytest.raises(FlatnessError) as err:
        trivialize_connection(g, gamma.__getitem__)
    assert err.value.where["corner"] == (1, 0) and np.isnan(err.value.residual)
