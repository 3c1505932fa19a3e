#!/usr/bin/env python3
"""Isothermic nets in an indefinite quadric and their transformations.

Evolves random Cauchy data through the rigid Moutard equation, then runs
the whole transformation circle: the spectral family of flat
connections, a Darboux transform (finite and isotropic parameter), the
Calapso transform with its label shift, the Christoffel dual with its
pairing identity, and Bianchi's identity on the Darboux pair.
"""

import numpy as np

from dnet import Grid, Signature, darboux_transform, random_isothermic
from dnet.isothermic import (bianchi_check, calapso_transform,
                             christoffel_dual, christoffel_residuals,
                             connection_flatness, quad_cross_ratio_residual,
                             stack_pair)

rng = np.random.default_rng(11)
sig = Signature(4, 2)                  # the Lie quadric ambient space
net = random_isothermic(Grid([6, 6]), sig, rng)
rep = net.validate()
print(f"evolved net: nullity {rep['nullity']:.1e}, "
      f"moutard {rep['moutard']:.1e}, labels {rep['label_relations']:.1e}")
print(f"cross ratio = m_jk/m_ij residual: {quad_cross_ratio_residual(net):.1e}")

for t in (-1.0, 0.3, 2.0):
    print(f"Gamma({t:+.1f}) quad holonomy residual: "
          f"{connection_flatness(net, t)[0]:.1e}")

hat = darboux_transform(net, 0.5, rng=rng)
stacked = stack_pair(net, hat)
vertical = stacked.grid.edge()[1] == 0
print(f"darboux m=0.5: vertical labels {np.unique(np.round(stacked.labels[vertical], 9))}")

iso = darboux_transform(net, np.inf, rng=rng)
print(f"isotropic darboux: max |(mu, mu_hat)| = "
      f"{np.abs(sig.inner(net.mu, iso.mu)).max():.1e}")
inf_stack = stack_pair(net, iso)
print(f"stacked flatness through the infinite row at t=0.7: "
      f"{connection_flatness(inf_stack, 0.7)[0]:.1e}")

moved, _ = calapso_transform(net, 0.4)
shift = np.abs(moved.labels - (net.labels - 0.4)).max()
print(f"calapso t=0.4 label shift residual: {shift:.1e}")

dual = christoffel_dual(net)
res = christoffel_residuals(net, dual)
print(f"christoffel dual: (dx, dxd) = -2/m to {res['pairing']:.1e}, "
      f"dx ^~ dxd to {res['koenigs_area']:.1e}")

for m in (0.5, np.inf):
    hat_m = darboux_transform(net, m, rng=rng)
    b = bianchi_check(net, hat_m, m)
    print(f"bianchi m={m}: parallel {b['parallelism']:.1e}, "
          f"scalar {b['scalar_identity']:.1e}")
