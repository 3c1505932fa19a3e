"""Discrete nets on Z^N grids.

A numpy library for the discrete exterior calculus of vector-valued
forms on box domains, Koenigs and isothermic nets in pseudo-Euclidean
quadrics, Omega and Guichard nets in Lie sphere geometry, their Darboux,
Calapso and Christoffel transformations, O-systems, and a numerical
verification engine over all of their closed-form identities.

Grids, signatures, frames (Lie frames included), isothermic nets,
Omega-nets and forms are immutable after construction, so they can be
shared freely between threads.  The other net classes still hold
writable arrays.
"""

from .errors import (ChartError, ClosednessError, DegeneracyError,
                     EvolutionError, FlatnessError, FormatError, FrameError,
                     GaugeError, GenerationError, GeometryError,
                     NotDualError, NotKoenigsError, PointAtInfinityError,
                     PropagationError, SeedDegeneracyError,
                     SpectralCollisionError)
from .forms import (BilinearRule, Form0, Form1, Form2, curly_wedge,
                    exterior_derivative, mixed_area, wedge)
from .grid import Grid, integrate_one_form, stack, trivialize_connection
from .isothermic import (ConservedQuantity, IsothermicNet, bianchi_check,
                         calapso_transform, christoffel_dual,
                         darboux_transform, flat_connection, moutard_evolve,
                         random_cauchy, random_isothermic,
                         special_quantity_solve, stack_pair)
from .koenigs import (LineCongruence, ProjectiveNet, christoffel_ratio,
                      extract_pair, km_pair_check, koenigs_dual,
                      moutard_lift_from_eta)
from .lie_sphere import (GuichardNet, LieFrame, OmegaNet, PrincipalNet,
                         associates, calapso_legendre, check_guichard,
                         check_omega, classify_special, darboux_legendre,
                         demoulin_radii, dual_legendre, eisenhart_general,
                         eisenhart_guichard, guichard_generate, legendre_lift,
                         linear_weingarten_check, minimal_net,
                         omega_edge_labels, omega_from_darboux_pair,
                         principal_from_legendre, sphere_lattice,
                         standard_lie_frame)
from .netfile import NetFile, run_checks
from .osystem import ParallelFamily, check_combescure, check_osystem, dual_family
from .pseudo_euclidean import (Frame, Signature, conic_cross_ratio, euclidean_lift,
                               gamma_lambda, stereo_lift, stereo_project)

__version__ = "0.1.0"
