#!/usr/bin/env python3
"""Discrete exterior calculus on a box grid.

Builds random vector-valued forms, differentiates and multiplies them,
and prints the residuals of the structural identities: d after d
vanishes, the Leibniz rule holds, products are graded (anti)commutative,
and the mixed area of two vertex maps is half the curly wedge of their
differentials.
"""

import numpy as np

from dnet import BilinearRule, Form0, Grid, curly_wedge, mixed_area, wedge
from dnet.forms import exterior_derivative as d, wedge_vec

rng = np.random.default_rng(0)
grid = Grid([8, 8])
print(f"grid {grid}: {grid.nverts} vertices, {grid.nedges} edges, "
      f"{grid.nquads} quads")

f = Form0(grid, rng.standard_normal((grid.nverts, 3)))
print(f"max |d(df)|                 = {np.abs(d(d(f)).values).max():.3e}")

rule = BilinearRule.scalar()
g = Form0(grid, rng.standard_normal((grid.nverts, 1)))
h = Form0(grid, rng.standard_normal((grid.nverts, 1)))
lhs = d(wedge(g, d(h), rule)).values
rhs = wedge(d(g), d(h), rule).values      # + g ^ d(dh) = 0
print(f"Leibniz residual            = {np.abs(lhs - rhs).max():.3e}")

a = d(Form0(grid, rng.standard_normal((grid.nverts, 4))))
b = d(Form0(grid, rng.standard_normal((grid.nverts, 4))))
sym = wedge(a, b, BilinearRule.dot(4)).values + wedge(b, a, BilinearRule.dot(4)).values
print(f"graded anticommutativity    = {np.abs(sym).max():.3e} (dot rule)")
anti = curly_wedge(a, b).values - curly_wedge(b, a).values
print(f"curly wedge symmetry        = {np.abs(anti).max():.3e}")

# unit planar square has mixed area one
unit = Grid([2, 2])
x = Form0(unit, unit.coordinates(np.arange(unit.nverts)).astype(float))
print(f"area of the unit square     = {mixed_area(x, x).values[0, 0]:.15f}")

# A(x, y) against the four-term polarization on a random pair
x = Form0(grid, rng.standard_normal((grid.nverts, 3)))
y = Form0(grid, rng.standard_normal((grid.nverts, 3)))
area = mixed_area(x, y).values
polar = np.zeros_like(area)
for n in range(grid.nquads):
    i, j, k, l = grid.corners(n)
    u, v = x.values, y.values
    sxy = 0.5 * (wedge_vec(u[i], v[j]) + wedge_vec(u[j], v[k])
                 + wedge_vec(u[k], v[l]) + wedge_vec(u[l], v[i]))
    syx = 0.5 * (wedge_vec(v[i], u[j]) + wedge_vec(v[j], u[k])
                 + wedge_vec(v[k], u[l]) + wedge_vec(v[l], u[i]))
    polar[n] = 0.5 * (sxy + syx)
print(f"mixed area vs polarization  = {np.abs(area - polar).max():.3e}")
