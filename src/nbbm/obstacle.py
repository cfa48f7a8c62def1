"""Certified two-sided solver for the radial parabolic obstacle problem.

The obstacle problem constrains the radial mass function v(r, t) of the
hydrodynamic density to v <= 1 while it evolves by dv/dt = v'' - (d-1)/r v'
+ v wherever v < 1.  The only scheme used here is the operator sandwich:
with G_t the radial kernel operator and C_m the cutoff min(., m),

    lower = (e^delta G_delta C_{exp(-delta)})^k v0
    upper = (C_1 e^delta G_delta)^k v0

brackets the true solution v(., k*delta) pointwise, with an analytic gap of
(e^{k delta} + 1)(e^delta - 1).  Discretization only ever widens the
bracket, by construction: each step moves the upper branch up and the lower
branch down by e^delta times the kernel's certified evaluation error, rounds
node values up across each cell on the upper branch and down on the lower,
and freezes and clips only in the outward direction.  lower <= upper is
checked exactly at the start and after every step, and a crossing raises.
So the true solution lies between the emitted pair, and the measured width
sup (upper - lower) is the certificate.

Every cell oscillation, kernel-evaluation error, outward move and tail
freeze is also booked (with the e^delta per-step growth) into ``grid_gap``;
analytic_gap + grid_gap is reported as the a priori bound of the width.

The default grid step (:func:`default_grid_step`) is sized by the measured
width: cell rounding drifts each branch by up to a cell per step, which puts
about (h / delta)(1 - e^-T) into the width on top of a floor of about delta
from the splitting, so h grows like delta^2 / (1 - e^-T).

The module also gives the free boundary (:func:`free_boundary_radius`) and
the flow's attractor (U, R_inf, V) in closed form (:func:`stationary_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, jv

from .core import (_MAX_DIM, RadialProfile, SandwichPair, _integer, _max_excess,
                   _positive, discretize_cdf, whole_steps)
from .kernels import mixture_node_values, support_band

__all__ = [
    "SolveRequest",
    "SandwichSolver",
    "SolveTrace",
    "analytic_gap",
    "default_grid_step",
    "solve_sandwich",
    "free_boundary_radius",
    "stationary_state",
    "StationaryState",
]

_TRUNC_TOL = 1e-12  # per-step allowance for freezing the numerically flat tail
_GRID_WIDTH = 0.7  # c of the default grid step h = c delta^2 / (1 - e^-T)
_BOUNDARY_LEVEL = 1e-6  # boundary radii are where profiles come within this of 1
_EPS = float(np.finfo(float).eps)


def analytic_gap(k: int, delta: float) -> float:
    """Operator-splitting bracket width after k steps of size delta."""
    return (math.exp(k * delta) + 1.0) * math.expm1(delta)


def default_grid_step(dim: int, horizon: float, delta: float,
                      r_scale: float = 1.0) -> float:
    """Grid step sized so the measured width stays near its splitting floor.

    The splitting alone leaves a width of about delta.  Rounding to cells
    drifts each branch by up to one cell per step, a drift of order h/delta
    that the flow relaxes at about unit rate (measured at T = 0.5, 1, 2),
    so the grid adds about (h/delta)(1 - e^-T) to the width.  Keeping that
    near a tenth of the floor gives h = c delta^2 / (1 - e^-T); c is
    calibrated on solves to T = 1 at delta = 0.01 (h = 1.1e-4: widths
    1.07-1.09x those at h = 3.6e-5 for d = 1 and 6.3e-5 for d = 3, from the
    stationary and the empirical starts).
    d = 2 and d >= 4 keep a cost floor of 1.5e-4: at d = 2 the rule's grid
    costs about 1.35x the time for a 9% narrower width (ROADMAP item 12).
    Once the a priori bound is vacuous (analytic gap
    above 0.5) h grows with it up to the scale cap, so long horizons cost
    what a coarse grid costs; their measured width still certifies.
    """
    k = max(1, round(horizon / delta))
    h = _GRID_WIDTH * delta * delta / -math.expm1(-horizon)
    gap = analytic_gap(k, delta)
    if gap > 0.5:
        h *= gap / 0.5
    h_min = 2e-5 if dim in (1, 3) else 1.5e-4
    h_max = 1e-3 * max(1.0, r_scale)
    return float(min(max(h, h_min), h_max))


def _check_initial(initial: RadialProfile):
    # the obstacle problem pins v(0, t) = 0; an upper-bracket start may
    # still carry a first-cell jump at 0 since it is a majorant, not a measure
    if initial.locations.size and initial.locations[0] == 0.0:
        raise ValueError("solver initial profile may not jump at radius 0")


@dataclass(frozen=True)
class SolveRequest:
    """Inputs for a sandwich solve to ``horizon``.

    ``step_size`` is the largest admissible step: the solve takes
    k = ceil(horizon / step_size) steps of horizon / k, so it ends exactly
    at the horizon.  ``initial`` may not jump at radius 0 (the obstacle
    problem pins v(0, t) = 0).  ``initial_upper`` optionally starts the
    upper branch from a separate profile, so a smooth initial condition can
    be bracketed from both sides and containment statements become
    structural.  ``grid_step`` defaults to :func:`default_grid_step`.
    """

    dim: int
    initial: RadialProfile
    horizon: float
    step_size: float
    grid_step: float | None = None
    initial_upper: RadialProfile | None = None

    def __post_init__(self):
        _positive("horizon", self.horizon)
        _positive("step_size", self.step_size)


class SolveTrace:
    """Per-step gaps of a sandwich solve: measured width, analytic and grid gap."""

    def __init__(self):
        self.max_gap: list[float] = []
        self.analytic_gap: list[float] = []
        self.grid_gap: list[float] = []


def _running_max(x: np.ndarray) -> np.ndarray:
    """The values of np.maximum.accumulate(x), NaN propagation included,
    touching only the entries after a descent.

    Between descents (a NaN counts as one) x is nondecreasing, so each run
    after a descent is raised to the running max up to its first entry
    that reaches it, found by bisection.  The bisection orders NaN after
    every number, which carries a NaN to the end.  Branch arrays are
    nondecreasing but for a few rounding-level descents, and
    np.maximum.accumulate is a scalar loop that costs about as much as ten
    array additions.
    """
    starts = np.flatnonzero(~(x[1:] >= x[:-1])) + 1
    if starts.size > 64:  # ulp noise along a flat tail: one scalar pass is cheaper
        return np.maximum.accumulate(x)
    out = x.copy()
    for s, e in zip(starts.tolist(), starts[1:].tolist() + [x.size]):
        top = out[s - 1]
        out[s:s + int(np.searchsorted(x[s:e], top))] = top
    return out


def _active_len(p: np.ndarray) -> int:
    """Index one past the last strictly increasing cell of a nondecreasing p."""
    return int(np.searchsorted(p, p[-1])) + 1


def _sandwich_step(dim: int, delta: float, h: float, p_up: np.ndarray, p_lo: np.ndarray
                   ) -> list[tuple[np.ndarray, float]]:
    """One sandwich step of the bracket pair on the lattice i*h, with one
    call to the module binding ``mixture_node_values``.

    ``p[i]`` is a branch's value on the cell (i h, (i+1) h]; both branches
    are nondecreasing and of one length.  The upper step is C_1 e^delta
    G_delta p_up rounded up across each cell, the lower step e^delta G_delta
    C_{exp(-delta)} p_lo rounded down; node values are first moved up
    (upper) or down (lower) by e^delta times the kernel's certified
    evaluation error, so each branch bounds its exact step.  Past the first
    node within _TRUNC_TOL of the total mass the tail is frozen.  Returns
    [(p_up', eps_up), (p_lo', eps_lo)]: each stepped array and the allowance
    this step adds to its branch's grid gap, the largest cell oscillation,
    e^delta times the kernel's evaluation error, the outward move by as much
    again, and the tail freeze.

    The kernel gets one row of jump sizes per branch, zero past the
    branch's own active cells, on the nodes of the branch with the largest
    n_need, and each branch reads its own n_need of them: a row's values
    there do not depend on the nodes past them, so each branch gets the bits
    it would get stepped alongside a copy of itself.  Both branches come out
    at one length: the input length while each branch's n_need fits in it;
    a branch that needs more sets it to n_need + max(64, n_need // 8), the
    upper first, and the other is padded with its last value.

    Each pass reads only the cells its result needs: a branch its n_act
    active cells (p and min(p, e^-delta) turn flat at the same cell), the
    kernel values their first n_need.  The new values w are nondecreasing,
    for branches in [0, 1] within [0, tail] on the upper branch and at most
    1, never -0.0, on the lower one, so clipping the new branch to [0, 1]
    and taking its running max is the identity on the upper branch and
    max(w, 0) on the lower one.  A NaN in the values a branch reads
    reaches its allowance and raises ``FloatingPointError``.
    """
    e_d, cut = math.exp(delta), math.exp(-delta)
    band = int(math.ceil(support_band(delta, dim) / h)) + 2
    n_acts = [_active_len(p_up), int(np.searchsorted(p_lo, min(p_lo[-1], cut))) + 1]
    p_ins = [p_up[:n_acts[0]], np.minimum(p_lo[:n_acts[1]], cut)]
    n = p_up.size
    for n_act in n_acts:
        if n_act + band > n:
            n = n_act + band + max(64, (n_act + band) // 8)
    n_jumps = max(n_acts)
    nodes = np.arange(n_jumps + band, dtype=float) * h
    sizes = np.zeros((2, n_jumps))
    for row, p_in in zip(sizes, p_ins):
        row[0] = p_in[0]
        np.subtract(p_in[1:], p_in[:-1], out=row[1:p_in.size])
    vals, errs = mixture_node_values(dim, delta, nodes[:n_jumps], sizes, nodes, lattice_h=h)
    stepped = []
    for upper, p_in, v, eval_err in zip((True, False), p_ins, vals, errs.tolist()):
        n_need = p_in.size + band
        w = _running_max(v[:n_need])
        w *= e_d
        tail = min(e_d * float(p_in[-1]), 1.0)
        # freeze the numerically flat tail to keep the active window bounded;
        # found before the move below, which keeps the lower branch from ever
        # coming within _TRUNC_TOL of the tail
        i_star = min(int(np.searchsorted(w, tail - _TRUNC_TOL)), n_need - 1)
        # move the branch outward by the certified kernel error (and a few ulps
        # of the e^delta product), so it contains the exact step by construction
        shift = e_d * (eval_err + 4.0 * _EPS)
        p_new = np.empty(n)
        if upper:
            np.minimum(np.add(w, shift, out=w), tail, out=w)
            p_new[:i_star] = w[1:i_star + 1]
            p_new[i_star:] = tail
        else:
            np.minimum(np.subtract(w, shift, out=w), 1.0, out=w)
            np.maximum(w[:i_star], 0.0, out=p_new[:i_star])
            p_new[i_star:] = max(float(w[i_star]), 0.0)
        eps = float(np.max(np.diff(w)))
        if not math.isfinite(eps):
            raise FloatingPointError(f"{'upper' if upper else 'lower'} branch: step "
                                     f"allowance {eps} from non-finite kernel values")
        eps += e_d * eval_err + shift + _TRUNC_TOL
        stepped.append((p_new, eps))
    return stepped


class SandwichSolver:
    """Incremental sandwich iteration on one shared uniform grid.

    ``dim`` is an integer in [1, _MAX_DIM] (12).  Time moves only through
    ``advance_to(t)``, to a time t on the lattice of whole steps of ``delta``.
    ``horizon_hint`` is the latest time the caller will ask for; it sizes
    the default grid (:func:`default_grid_step`).  ``initial`` may not jump
    at radius 0; ``initial_upper``, if given, starts the upper branch and
    must lie at or above ``initial``, else ``ValueError``.

    Branch state arrays hold node-sampled step functions: ``p[i]`` is the
    branch value on the half-open cell (g_i, g_{i+1}].  The grid extends
    and the active window truncates dynamically as mass spreads, so cost
    follows the live part of the profile.
    """

    def __init__(self, dim: int, initial: RadialProfile, delta: float,
                 grid_step: float | None = None,
                 initial_upper: RadialProfile | None = None, *,
                 horizon_hint: float):
        self.delta = _positive("delta", delta)
        _check_initial(initial)
        self.dim = _integer("dim", dim, 1, _MAX_DIM)
        if initial_upper is not None and (worst := _max_excess(initial, initial_upper)) > 0.0:
            raise ValueError(f"initial_upper lies below initial by {worst:.3e}")
        r_scale = max(1.0, initial.locations[-1] if initial.locations.size else 1.0)
        if grid_step is None:
            grid_step = default_grid_step(self.dim, _positive("horizon_hint", horizon_hint),
                                          delta, r_scale)
        self.h = _positive("grid_step", grid_step)
        band = support_band(delta, self.dim)
        upper0 = initial if initial_upper is None else initial_upper
        max_jump = max(
            initial.locations[-1] if initial.locations.size else 0.0,
            upper0.locations[-1] if upper0.locations.size else 0.0,
        )
        n0 = int(math.ceil((max_jump + band + 1.0) / self.h)) + 2
        self.grid = np.arange(n0) * self.h
        self.p_lo = self._round_down(initial, self.grid)
        self.p_up = self._round_up(upper0, self.grid)
        measured = float(np.max(self.p_up - self.p_lo))
        # off-lattice initial jumps cost at most one cell oscillation per branch
        eps0 = measured if initial_upper is None else 0.0
        self.d_up = eps0
        self.d_lo = eps0
        self.steps = 0
        self.trace = SolveTrace()
        self._record(measured)

    # -- grid plumbing ------------------------------------------------------

    @staticmethod
    def _round_up(f: RadialProfile, grid: np.ndarray) -> np.ndarray:
        p = np.empty(grid.size)
        p[:-1] = f(grid[1:])          # sup of f over (g_i, g_{i+1}]
        p[-1] = f.final_value
        return _running_max(np.clip(p, 0.0, 1.0))

    @staticmethod
    def _round_down(f: RadialProfile, grid: np.ndarray) -> np.ndarray:
        return _running_max(np.clip(f.value_right(grid), 0.0, 1.0))

    # -- public ---------------------------------------------------------------

    def advance_to(self, t: float):
        """Advance to time t, a multiple of the step no earlier than now."""
        k = whole_steps(t, self.delta, "time", "delta")
        if k < self.steps:
            raise ValueError(f"time {t!r} lies before the solver's time "
                             f"{self.steps * self.delta!r}")
        self._advance(k - self.steps)

    def _advance(self, k: int):
        """Take k more steps."""
        e_d = math.exp(self.delta)
        for _ in range(int(k)):
            (self.p_up, eps_up), (self.p_lo, eps_lo) = _sandwich_step(
                self.dim, self.delta, self.h, self.p_up, self.p_lo)
            if self.p_up.size > self.grid.size:
                self.grid = np.arange(self.p_up.size) * self.h
            self.d_up = e_d * self.d_up + eps_up
            self.d_lo = e_d * self.d_lo + eps_lo
            self.steps += 1
            # one difference serves the ordering check and the measured width
            gap = self.p_up - self.p_lo
            if (worst := -float(np.min(gap))) > 0.0:
                raise AssertionError(f"sandwich ordering violated by {worst:.3e}")
            self._record(float(np.max(gap)))

    def _record(self, measured: float):
        """Append this step's diagnostics; ``measured`` is max(p_up - p_lo)."""
        self.trace.max_gap.append(measured)
        self.trace.analytic_gap.append(self.analytic_gap)
        self.trace.grid_gap.append(self.grid_gap)

    @property
    def analytic_gap(self) -> float:
        return analytic_gap(self.steps, self.delta)

    @property
    def grid_gap(self) -> float:
        return self.d_up + self.d_lo

    def _profile(self, p: np.ndarray) -> RadialProfile:
        n_act = _active_len(p)
        loc = self.grid[:n_act]
        val = np.clip(p[:n_act], 0.0, 1.0)
        keep = np.diff(val, prepend=0.0) > 0.0
        return RadialProfile(loc[keep], val[keep])

    def pair(self) -> SandwichPair:
        return SandwichPair(
            lower=self._profile(self.p_lo),
            upper=self._profile(self.p_up),
            analytic_gap=self.analytic_gap,
            grid_gap=self.grid_gap,
            steps_taken=self.steps,
            step_size=self.delta,
        )

    def boundary_interval(self) -> tuple[float, float]:
        """The radius band where the pair comes within 1e-6 of full mass, not
        R_t itself: :func:`free_boundary_radius` of the current pair."""
        return _boundary_band((self.grid, self.p_up), (self.grid, self.p_lo),
                              self.trace.max_gap[-1])


def solve_sandwich(req: SolveRequest) -> SandwichPair:
    """Iterate the sandwich to the horizon and certify the bracket."""
    k = max(1, math.ceil(req.horizon / req.step_size - 1e-12))
    solver = SandwichSolver(req.dim, req.initial, req.horizon / k, req.grid_step,
                            req.initial_upper, horizon_hint=req.horizon)
    solver.advance_to(req.horizon)
    return solver.pair()


# ---------------------------------------------------------------------------
# Free boundary and the stationary state
# ---------------------------------------------------------------------------

def _level_radius(radii: np.ndarray, values: np.ndarray, gap: float) -> float:
    """The first of ``radii`` whose nondecreasing ``values`` reach 1 - gap,
    or +inf when none does."""
    idx = int(np.searchsorted(values, 1.0 - gap, side="left"))
    return float(radii[idx]) if idx < values.size else math.inf


def _boundary_band(upper, lower, width: float) -> tuple[float, float]:
    """The band of the branches ``upper`` and ``lower``, each (radii, values):
    from the upper one at level 1 - min(width + 1e-6, 0.999) to the lower one
    at 1 - 1e-6, ``width`` being the branches' measured width."""
    return (_level_radius(*upper, min(width + _BOUNDARY_LEVEL, 0.999)),
            _level_radius(*lower, _BOUNDARY_LEVEL))


def free_boundary_radius(pair: SandwichPair) -> tuple[float, float]:
    """The radius band where the pair comes within 1e-6 of full mass, not R_t
    itself: from the upper profile at level 1 - (measured width + 1e-6), but
    no lower than 1e-3, to the lower one at 1 - 1e-6.  A branch that never
    reaches its level gives +inf.  Where 1 - v vanishes to second order (as
    V does at R_inf) the band is wide even when the pair is narrow.
    """
    return _boundary_band((pair.upper.locations, pair.upper.values),
                          (pair.lower.locations, pair.lower.values), pair.measured_gap)


def _first_bessel_zero(nu: float) -> float:
    """First positive zero of J_nu by bisection from a McMahon-type seed."""
    seed = (0.75 + 0.5 * nu) * math.pi
    lo = max(seed - 0.5 * math.pi, max(nu, 0.0) + 1e-9)
    while jv(nu, lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-12:
            raise RuntimeError(f"could not bracket the first zero of J_{nu}")
    hi = max(seed, lo + 0.5)
    while jv(nu, hi) > 0.0:
        hi += 0.25
        if hi > seed + 50.0:
            raise RuntimeError(f"could not bracket the first zero of J_{nu}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if jv(nu, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class StationaryState:
    """Long-time attractor (U, R_infinity, V) for a given dimension.

    U is the principal Dirichlet eigenfunction of -Laplacian on the centred
    ball whose radius makes the eigenvalue exactly 1, normalized to total
    mass 1 by the amplitude ``normalizer``; V(r) is the mass of U inside r.
    """

    dim: int
    r_infinity: float
    normalizer: float

    def U(self, r) -> np.ndarray | float:
        """Density at radius (or radii) r."""
        nu, small = 0.5 * self.dim - 1.0, 1e-6
        limit0 = 0.5 ** nu / math.exp(gammaln(nu + 1.0))  # r^{-nu} J_nu(r) at r -> 0
        r_arr = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            shape = np.where(r_arr > small,
                             jv(nu, r_arr) * np.maximum(r_arr, small) ** (-nu),
                             limit0)
        out = np.where(r_arr < self.r_infinity, np.maximum(self.normalizer * shape, 0.0), 0.0)
        return float(out) if np.isscalar(r) else out

    def V(self, r) -> np.ndarray | float:
        """Mass of U inside radius (or radii) r."""
        nu, r_inf = 0.5 * self.dim - 1.0, self.r_infinity
        r_arr = np.asarray(r, dtype=float)
        rc = np.clip(r_arr, 0.0, r_inf)
        out = np.clip((rc / r_inf) ** (nu + 1.0) * jv(nu + 1.0, rc)
                      / float(jv(nu + 1.0, r_inf)), 0.0, 1.0)
        out = np.where(r_arr >= r_inf, 1.0, out)
        return float(out) if np.isscalar(r) else out

    def as_profile(self, n_nodes: int = 4001, mode: str = "nearest") -> RadialProfile:
        """Discretize V on [0, R_inf] as a step profile (see ``discretize_cdf``)."""
        return discretize_cdf(self.V, self.r_infinity, n_nodes, mode)


def stationary_state(d: int) -> StationaryState:
    """Long-time attractor (U, R_inf, V) of the obstacle flow in dimension d.

    R_inf is the first positive zero of J_{d/2-1}; U is the principal
    Dirichlet eigenfunction A ||x||^{1-d/2} J_{d/2-1}(||x||) of -Laplacian
    with eigenvalue 1 on the ball of radius R_inf, normalized to unit mass.
    The identity d/dr[r^{nu+1} J_{nu+1}(r)] = r^{nu+1} J_nu(r) collapses the
    mass integral, so V(r) = (r/R_inf)^{d/2} J_{d/2}(r) / J_{d/2}(R_inf) in
    closed form with V(R_inf) = 1 exactly, for integer d in [1, _MAX_DIM] (12).
    """
    d = _integer("d", d, 1, _MAX_DIM)
    nu = 0.5 * d - 1.0
    r_inf = _first_bessel_zero(nu)
    sphere = 2.0 * math.pi ** (0.5 * d) / math.exp(gammaln(0.5 * d))
    amp = 1.0 / (sphere * r_inf ** (nu + 1.0) * float(jv(nu + 1.0, r_inf)))
    return StationaryState(d, r_inf, amp)
