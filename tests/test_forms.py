import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet import osystem
from dnet.forms import (BilinearRule, Form0, Form1, curly_wedge,
                        exterior_derivative as d, lam2_dim, mixed_area,
                        unpack_bivector, wedge, wedge_vec)
from dnet.grid import Grid
from dnet.osystem import ParallelFamily, check_osystem
from dnet.pseudo_euclidean import Signature
from tests.netfile_reference import oriented_edge


def quad_d_oracle(grid, f):
    """Expand d(df) per quad from the four-term boundary sum directly."""
    out = []
    for n in range(grid.nquads):
        i, j, k, l = grid.corners(n)
        v = f.values
        out.append((v[j] - v[i]) + (v[k] - v[j]) + (v[l] - v[k]) + (v[i] - v[l]))
    return np.array(out)


def test_constant_has_zero_differential():
    g = Grid([4, 4])
    f = Form0(g, np.tile([2.5, -1.0], (g.nverts, 1)))
    assert np.abs(d(f).values).max() == 0.0


def test_coordinate_sum_has_unit_differential():
    g = Grid([3, 3])
    f = Form0(g, g.coordinates(np.arange(g.nverts)).sum(axis=1).astype(float))
    assert np.abs(d(f).values - 1.0).max() == 0.0


def test_dd_zero_on_random_forms():
    g = Grid([4, 4])
    rng = np.random.default_rng(2)
    f = Form0(g, rng.standard_normal((g.nverts, 3)))
    ddf = d(d(f))
    assert np.abs(ddf.values).max() <= 1e-13 * np.abs(f.values).max()
    assert np.abs(quad_d_oracle(g, f)).max() <= 1e-13


def test_orientation_sign_rule_is_exact():
    g = Grid([3, 3])
    rng = np.random.default_rng(4)
    a = Form1(g, rng.standard_normal((g.nedges, 2)))
    fwd = oriented_edge(g, int(g.edge_tail[5]), int(g.edge_head[5]))
    bwd = oriented_edge(g, fwd.head, fwd.tail)
    assert (fwd.index, fwd.sign, bwd.index, bwd.sign) == (5, 1, 5, -1)
    assert np.array_equal(fwd.sign * a.values[fwd.index], -(bwd.sign * a.values[bwd.index]))
    # d of an integer-valued 1-form on quad 1 is its boundary walk along
    # the cycle (i, j, k, l); the reversed cycle (i, l, k, j) walks to the
    # negative, exactly
    a = Form1(g, rng.integers(-9, 9, (g.nedges, 2)))
    i, j, k, l = (int(v) for v in g.corners(1))

    def walk(cycle):
        return sum(e.sign * a.values[e.index] for e in
                   (oriented_edge(g, u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])))

    assert np.array_equal(d(a).values[1], walk([i, j, k, l]))
    assert np.array_equal(walk([i, l, k, j]), -walk([i, j, k, l]))


def test_pointwise_product_of_functions():
    g = Grid([3, 2])
    rng = np.random.default_rng(0)
    f = Form0(g, rng.standard_normal((g.nverts, 1)))
    h = Form0(g, rng.standard_normal((g.nverts, 1)))
    out = wedge(f, h, BilinearRule.scalar())
    assert np.array_equal(out.values, f.values * h.values)


def test_df_wedge_df_vanishes():
    # the quarter formula is antisymmetric in its two arguments
    g = Grid([4, 4])
    rng = np.random.default_rng(1)
    f = Form0(g, rng.standard_normal((g.nverts, 1)))
    out = wedge(d(f), d(f), BilinearRule.scalar())
    assert np.abs(out.values).max() <= 1e-14 * max(1.0, np.abs(f.values).max() ** 2)


@pytest.mark.parametrize("degrees", [(0, 0), (0, 1), (1, 0)])
def test_leibniz_rule(degrees):
    # d(a ^ b) = da ^ b + (-1)^k a ^ db for k + l <= 1, all three pairs
    g = Grid([5, 4])
    rng = np.random.default_rng(9)
    rule = BilinearRule.scalar()
    for _ in range(20):
        fa = Form0(g, rng.standard_normal((g.nverts, 1)))
        fb = Form0(g, rng.standard_normal((g.nverts, 1)))
        a = fa if degrees[0] == 0 else d(fa)
        b = fb if degrees[1] == 0 else d(fb)
        sign = 1.0 if degrees[0] == 0 else -1.0
        lhs = d(wedge(a, b, rule)).values
        rhs = wedge(d(a), b, rule).values + sign * wedge(a, d(b), rule).values
        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["symmetric", "antisymmetric"]))
def test_graded_commutativity_bitwise(seed, kind):
    g = Grid([3, 3])
    rng = np.random.default_rng(seed)
    dim = 3
    rule = (BilinearRule.dot(dim) if kind == "symmetric"
            else BilinearRule.wedge_product(dim))
    a = Form1(g, rng.standard_normal((g.nedges, dim)))
    b = Form1(g, rng.standard_normal((g.nedges, dim)))
    ab = wedge(a, b, rule).values
    ba = wedge(b, a, rule).values
    sign = -1.0 if kind == "symmetric" else 1.0   # (-1)^{kl(+1)} with k=l=1
    assert np.array_equal(ab, sign * ba)


def test_rules_built_in_src_are_symmetric_or_antisymmetric(monkeypatch):
    """The products whose graded (anti)commutativity the library uses: the
    scalar product and the dot are symmetric, the wedge and the O-system
    bracket of `check_osystem` antisymmetric."""
    built = []

    class Recorded(BilinearRule):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(osystem, "BilinearRule", Recorded)
    rng = np.random.default_rng(20240902)
    g = Grid([3, 3])
    x = rng.standard_normal((g.nverts, 3))
    check_osystem(ParallelFamily(g, [x, 2.0 * x], Signature(2, 1)), [[0.0, 1.0], [1.0, 0.0]])
    (bracket,) = built
    signs = Signature(4, 2).signs
    cases = [(BilinearRule.scalar(), 1.0), (BilinearRule.dot(6), 1.0),
             (BilinearRule.dot(6, signs), 1.0), (BilinearRule.wedge_product(6), -1.0),
             (bracket, -1.0)]
    for rule, flip in cases:
        u = rng.standard_normal((8, rule.dim_left))
        v = rng.standard_normal((8, rule.dim_right))
        uv, vu = rule(u, v), rule(v, u)
        assert np.allclose(uv, flip * vu, atol=1e-12 * max(1.0, np.abs(uv).max())), rule.name


def test_dimension_mismatch_rejected():
    g = Grid([3, 3])
    a = Form1(g, np.zeros((g.nedges, 2)))
    b = Form1(g, np.zeros((g.nedges, 3)))
    with pytest.raises(ValueError):
        wedge(a, b, BilinearRule.dot(2))
    with pytest.raises(ValueError):
        curly_wedge(a, b)


def test_curly_wedge_symmetric_for_one_forms():
    g = Grid([4, 3])
    rng = np.random.default_rng(3)
    a = Form1(g, rng.standard_normal((g.nedges, 4)))
    b = Form1(g, rng.standard_normal((g.nedges, 4)))
    assert np.array_equal(curly_wedge(a, b).values, curly_wedge(b, a).values)


def test_constant_map_has_zero_area():
    g = Grid([3, 3])
    x = Form0(g, np.tile([1.0, 2.0], (g.nverts, 1)))
    rng = np.random.default_rng(0)
    y = Form0(g, rng.standard_normal((g.nverts, 2)))
    assert np.abs(curly_wedge(d(x), d(x)).values).max() == 0.0
    assert np.abs(mixed_area(x, y).values).max() == 0.0


def shoelace(pts):
    out = 0.0
    for a in range(len(pts)):
        b = (a + 1) % len(pts)
        out += pts[a][0] * pts[b][1] - pts[b][0] * pts[a][1]
    return 0.5 * out


def test_unit_square_area_matches_shoelace():
    g = Grid([2, 2])
    x = Form0(g, g.coordinates(np.arange(g.nverts)).astype(float))
    area = mixed_area(x, x).values
    i, j, k, l = g.corners(0)
    oracle = shoelace([x.values[i], x.values[j], x.values[k], x.values[l]])
    assert area.shape == (1, 1)
    assert abs(area[0, 0] - oracle) <= 1e-15
    assert abs(oracle - 1.0) <= 1e-15


def test_mixed_area_diagonal_formula():
    g = Grid([4, 4])
    rng = np.random.default_rng(8)
    x = Form0(g, rng.standard_normal((g.nverts, 3)))
    area = mixed_area(x, x).values
    for n in range(g.nquads):
        i, j, k, l = g.corners(n)
        oracle = 0.5 * wedge_vec(x.values[i] - x.values[k],
                                 x.values[j] - x.values[l])
        assert np.abs(area[n] - oracle).max() <= 1e-13


def test_mixed_area_translation_invariance():
    g = Grid([4, 3])
    rng = np.random.default_rng(5)
    x = Form0(g, rng.standard_normal((g.nverts, 3)))
    y = Form0(g, x.values + np.array([3.0, -2.0, 0.5]))
    assert np.abs(mixed_area(x, y).values - mixed_area(x, x).values).max() <= 1e-14


def test_mixed_area_polarization_oracle():
    g = Grid([5, 5])
    rng = np.random.default_rng(6)
    x = Form0(g, rng.standard_normal((g.nverts, 3)))
    y = Form0(g, rng.standard_normal((g.nverts, 3)))

    def four_term(u, v):
        out = np.zeros((g.nquads, lam2_dim(3)))
        for n in range(g.nquads):
            i, j, k, l = g.corners(n)
            out[n] = 0.5 * (wedge_vec(u[i], v[j]) + wedge_vec(u[j], v[k])
                            + wedge_vec(u[k], v[l]) + wedge_vec(u[l], v[i]))
        return out

    oracle = 0.5 * (four_term(x.values, y.values) + four_term(y.values, x.values))
    got = mixed_area(x, y).values
    scale = max(np.abs(got).max(), 1.0)
    assert np.abs(got - oracle).max() <= 1e-12 * scale
    assert np.abs(mixed_area(y, x).values - got).max() <= 1e-13 * scale


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5))
    M = M - M.T
    assert np.array_equal(unpack_bivector(M[np.triu_indices(5, k=1)], 5), M)
