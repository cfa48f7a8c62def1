"""Branching Brownian particles with kill-the-furthest selection.

Subpackages:

* ``core``        shared value types and empirical statistics
* ``kernels``     radial Brownian kernels w, g, G and their lattice mixtures
* ``obstacle``    certified sandwich solver, free boundary, stationary state
* ``sim``         event-driven particle simulation and couplings
* ``experiments`` desk-scale reproductions with machine-readable reports
* ``cli``         command-line orchestration and serialization
"""

from .core import (ParticleEnsemble, RadialProfile, SandwichPair, StationaryState,
                   empirical_cdf, in_gamma, max_radius, measure_of_set)
from .kernels import bessel_density, kernel_G, radial_cdf
from .obstacle import (SandwichSolver, SolveRequest, analytic_gap, free_boundary_radius,
                       solve_sandwich, stationary_state)
from .sim import (BbmForest, SimParams, advance_nbbm, coupled_run, replica_rng,
                  spherically_ordered_pairs, survival_curve)

__version__ = "0.1.0"
