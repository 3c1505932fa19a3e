#!/usr/bin/env python3
"""Omega-nets: applicable Legendre maps and their Euclidean duality.

Spans a Legendre map by an isotropic Darboux pair of isothermic sphere
congruences, integrates the associate net and associate Gauss map in the
canonical gauge, and checks the duality and the generalized distance
identity; then extracts a fresh spanning pair by parallel transport in
the bipartite line bundles and transforms the whole congruence.
"""

import numpy as np

from dnet import Grid, IsothermicNet, Signature, random_isothermic
from dnet.koenigs import extract_pair
from dnet.lie_sphere import (associates, calapso_legendre, darboux_legendre,
                             dual_legendre, eisenhart_general,
                             gauge_identity_residual, omega_edge_labels,
                             omega_from_darboux_pair)
from dnet.pseudo_euclidean import line_distance

rng = np.random.default_rng(5)
sig = Signature(4, 2)
net = random_isothermic(Grid([5, 5]), sig, rng)
omega = omega_from_darboux_pair(net, rng=rng)
v = omega.validate()
print(f"omega net: applicability {'PASS' if v['passed'] else 'FAIL'}, "
      f"gauge residual {v['gauge']:.1e}")

a = associates(omega)
print(f"duality dxd^~dx + dnd^~dn residual: {a.duality:.1e}")
print(f"form reconstruction residual:       {a.reconstruction:.1e}")

labels = omega_edge_labels(omega)
minus = IsothermicNet(omega.grid, sig, omega.mu_minus).labels
print(f"both congruences of the spanning pair carry the same labels: "
      f"{np.abs((minus - labels) / labels).max():.1e}")
eis = eisenhart_general(omega.principal(), a.x_dual, a.n_dual, labels)
print(f"distance identity (dx,dxd)+(dn,dnd) = -2/m: {eis['pairing']:.1e}")

pair = extract_pair(omega.congruence(), seed=3, signature=sig)
worst = max(line_distance(pair.net_plus.lifts[k], omega.mu_plus[k])
            for k in range(omega.grid.nverts))
print(f"extracted a spanning pair (fresh seeds); plus net is a different "
      f"valid congruence: distance {worst:.2f}")
print(f"pair gauge relation residual: {pair.report['km']['gauge_relation']:.1e}")

print(f"gauge identity (exp t tau) . Gamma+ = Gamma- at t=0.37: "
      f"{gauge_identity_residual(omega, 0.37):.1e}")

hat = darboux_legendre(omega, 0.45, rng=rng)
print(f"darboux transform of the Legendre map: "
      f"{'PASS' if hat.validate()['passed'] else 'FAIL'}, labels preserved to "
      f"{np.abs((omega_edge_labels(hat) - labels) / labels).max():.1e}")

moved, _ = calapso_legendre(omega, 0.2)
print(f"calapso transform label shift residual: "
      f"{np.abs(omega_edge_labels(moved) - (labels - 0.2)).max():.1e}")

duo = dual_legendre(omega)
print(f"dual Legendre map: principal net is (x_dual, n): "
      f"{np.abs(duo.principal().x - a.x_dual).max():.1e}")
