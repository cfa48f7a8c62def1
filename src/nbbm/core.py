"""Shared domain types: particle ensembles, radial step profiles, empirical stats.

Conventions used throughout the package:

* All Brownian motions have diffusivity sqrt(2): per-coordinate variance of a
  displacement over time t is 2t (generator is the plain Laplacian).
* A radial profile models a nondecreasing step function on [0, inf) taking
  values in [0, 1].  Evaluation at a radius r returns the mass *strictly
  inside* r, i.e. the value of the last jump located < r.  Evaluating exactly
  at a jump location therefore returns the pre-jump value, which makes
  ``empirical_cdf(e)(r)`` literally the fraction of particles in the open
  ball of radius r.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParticleEnsemble",
    "RadialProfile",
    "SandwichPair",
    "discretize_cdf",
    "empirical_cdf",
    "max_radius",
    "in_gamma",
    "whole_steps",
]

# The numerics (kernels, solver, stationary state) are certified for integer
# d in 1.._MAX_DIM, the range the anchored series' Taylor terms are sized for.
_MAX_DIM = 12


def _positive(name: str, value) -> float:
    """``value`` as a float, else ``ValueError`` naming it when it is not
    positive and finite (NaN and inf included)."""
    x = float(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return x


def _nonnegative(name: str, value) -> float:
    """``value`` as a float, else ``ValueError`` naming it when it is not
    finite and nonnegative."""
    x = float(value)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return x


def _integer(name: str, value, lo: int, hi: float = math.inf) -> int:
    """``value`` as an int, else ``ValueError`` naming it when it lies outside
    [lo, hi] or ``operator.index`` refuses it, as it does a float."""
    try:
        if lo <= operator.index(value) <= hi:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def _norms(a: np.ndarray) -> np.ndarray:
    """Row norms of a 2-d array, by plain double accumulation (fine for d <= 12)."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def whole_steps(span: float, step: float, what: str, step_name: str) -> int:
    """The k with k * step = span to 1e-9 * max(1, span), else ``ValueError``
    (also for a non-finite span or a step that is not positive and finite);
    ``what`` names the span and ``step_name`` the step in the messages."""
    if not math.isfinite(span):
        raise ValueError(f"{what} must be finite, got {span!r}")
    k = round(span / _positive(f"{step_name} (the step of {what})", step))
    if abs(k * step - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"{what} {span!r} is not a multiple of {step_name}={step!r}")
    return k


@dataclass(frozen=True)
class RadialProfile:
    """Nondecreasing step function [0, inf) -> [0, 1], given by its jumps.

    ``locations`` are strictly increasing jump radii; ``values[i]`` is the
    cumulative value just *after* the jump at ``locations[i]``.  The profile
    is 0 left of the first jump and constant (== values[-1]) past the last.
    """

    locations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        loc = np.array(self.locations, dtype=float)
        val = np.array(self.values, dtype=float)
        loc.setflags(write=False)  # profiles are shared freely across workers
        val.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "values", val)
        if loc.ndim != 1 or val.shape != loc.shape:
            raise ValueError("locations and values must be 1-d arrays of equal length")
        if loc.size:
            if not np.all(np.isfinite(loc)) or not np.all(np.isfinite(val)):
                raise ValueError("profile jumps must be finite")
            if loc[0] < 0.0:
                raise ValueError("jump locations must be >= 0")
            if np.any(np.diff(loc) <= 0.0):
                raise ValueError("jump locations must be strictly increasing")
            if np.any(np.diff(val) < -1e-12):
                raise ValueError("profile values must be nondecreasing")
            if val[0] < -1e-12 or np.any(val > 1.0 + 1e-9):
                raise ValueError("profile values must lie in [0, 1]")

    # -- evaluation --------------------------------------------------------

    def _eval(self, r, side: str):
        r_arr = np.asarray(r, dtype=float)
        if not self.locations.size:
            out = np.zeros_like(r_arr)
        else:
            idx = np.searchsorted(self.locations, r_arr, side=side)
            out = np.where(idx > 0, self.values[np.maximum(idx - 1, 0)], 0.0)
        if np.isscalar(r) or r_arr.ndim == 0:
            return float(out)
        return out

    def __call__(self, r) -> np.ndarray | float:
        """Value strictly inside radius r (pre-jump at exact jump radii)."""
        return self._eval(r, "left")

    def value_right(self, r) -> np.ndarray | float:
        """Value just right of radius r (post-jump at exact jump radii)."""
        return self._eval(r, "right")

    @property
    def final_value(self) -> float:
        return float(self.values[-1]) if self.values.size else 0.0

    @property
    def last_jump(self) -> float:
        return float(self.locations[-1]) if self.locations.size else 0.0

    def sup_distance(self, other: "RadialProfile") -> float:
        """sup_r |self(r) - other(r)|, exact for step functions."""
        return max(_max_excess(self, other), _max_excess(other, self))

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        """Header ``r,value``, then one ``r,value`` row per jump."""
        return "r,value\n" + "".join(f"{float(r)!r},{float(v)!r}\n"
                                     for r, v in zip(self.locations, self.values))

    @staticmethod
    def from_csv(text: str) -> "RadialProfile":
        """Inverse of ``to_csv``; ``ValueError`` names any row not two numbers.
        Zero-size jumps (as an older file's terminal row) are dropped: the
        solver sizes its grid from the last jump."""
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or lines[0][1].strip() != "r,value":
            raise ValueError("profile CSV must start with header 'r,value'")
        rows = []
        for n, ln in lines[1:]:
            try:
                r, v = (float(tok) for tok in ln.split(","))
            except ValueError:
                raise ValueError(f"profile CSV line {n} is not 'r,value': {ln!r}") from None
            rows.append((r, v))
        f = RadialProfile([r for r, _ in rows], [v for _, v in rows])
        keep = np.diff(f.values, prepend=0.0) != 0.0
        return RadialProfile(f.locations[keep], f.values[keep])


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions of N labelled particles in R^d with a simulation clock."""

    dim: int
    positions: np.ndarray  # (N, dim)
    clock: float = 0.0

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != self.dim:
            raise ValueError(f"positions must have shape (N, {self.dim})")
        if pos.shape[0] < 1:
            raise ValueError("ensemble needs at least one particle")
        _integer("dim", self.dim, 1)
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        _nonnegative("clock", self.clock)
        pos.setflags(write=False)  # evolution builds new ensembles, never mutates
        object.__setattr__(self, "positions", pos)

    @property
    def population(self) -> int:
        return self.positions.shape[0]

    def norms(self) -> np.ndarray:
        return _norms(self.positions)


@dataclass(frozen=True)
class SandwichPair:
    """Two-sided bracket of an obstacle-problem solution with a certified gap.

    ``analytic_gap`` is the operator-splitting bound (e^{k*delta}+1)(e^delta-1);
    ``grid_gap`` is the accumulated discretization allowance added on top.
    The true solution at time k*delta lies between ``lower`` and ``upper``.
    """

    lower: RadialProfile
    upper: RadialProfile
    analytic_gap: float
    grid_gap: float
    steps_taken: int
    step_size: float

    def __post_init__(self):
        worst = _max_excess(self.lower, self.upper)
        if worst > 0.0:
            raise ValueError(f"lower exceeds upper by {worst:.3e}")
        _nonnegative("analytic_gap", self.analytic_gap)
        _nonnegative("grid_gap", self.grid_gap)

    @property
    def measured_gap(self) -> float:
        return self.upper.sup_distance(self.lower)


def _max_excess(a: RadialProfile, b: RadialProfile) -> float:
    """sup_r (a(r) - b(r)), exact for step functions.

    a - b jumps only where a or b does, so its sup is one of its one-sided
    limits at the union of their jumps, or the 0 that both profiles take
    left of their first jump.  So it is 0 when neither profile jumps, and
    never below 0 (nor -0.0).
    """
    pts = np.union1d(a.locations, b.locations)
    if not pts.size:
        return 0.0
    pre = a(pts) - b(pts)
    post = a.value_right(pts) - b.value_right(pts)
    return float(max(0.0, pre.max(), post.max()))


def discretize_cdf(cdf, r_max: float, n_nodes: int, mode: str) -> RadialProfile:
    """Step profile of a continuous radial CDF that reaches 1 at r_max.

    On n_nodes equispaced nodes of [0, r_max], mode 'upper' takes each
    cell's value from its right node and 'lower' from its left node, so the
    result brackets the CDF from that side; 'nearest' takes the mean of the
    two node values (the first cell stays 0, as in 'lower').  r_max must be
    positive and finite and n_nodes an integer, at least 2, else ``ValueError``.
    """
    _integer("n_nodes", n_nodes, 2)
    grid = np.linspace(0.0, _positive("r_max", r_max), n_nodes)
    v = np.clip(np.asarray(cdf(grid), dtype=float), 0.0, 1.0)
    if mode == "upper":
        loc, val = np.concatenate(([0.0], grid[1:-1])), v[1:]
    elif mode == "lower":
        loc, val = grid[1:], v[1:]
    elif mode == "nearest":
        loc, val = grid[1:], np.append(0.5 * (v[1:-1] + v[2:]), v[-1])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    keep = np.diff(val, prepend=0.0) > 0.0
    return RadialProfile(loc[keep], val[keep])


# ---------------------------------------------------------------------------
# Empirical statistics
# ---------------------------------------------------------------------------

def empirical_cdf(ensemble: ParticleEnsemble) -> RadialProfile:
    """Fraction of particles strictly within radius r, as a step profile."""
    norms = ensemble.norms()
    loc, counts = np.unique(norms, return_counts=True)
    val = np.cumsum(counts) / norms.size
    return RadialProfile(loc, val)


def max_radius(ensemble: ParticleEnsemble) -> float:
    """Largest particle distance from the origin."""
    return float(ensemble.norms().max())


def in_gamma(ensemble: ParticleEnsemble, K: float, c: float) -> bool:
    """True iff at least a fraction c of the particles lie within distance K."""
    _positive("K", K)
    frac = float((ensemble.norms() < K).mean())
    return frac >= c

