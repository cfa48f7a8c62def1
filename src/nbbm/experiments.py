"""Desk-scale experiment drivers: hydrodynamics, boundary, selection, mixing,
and the obstacle flow's convergence to V.

Each driver runs replicas of the particle system against the certified
obstacle solver (or the known stationary state), or the solver alone, and
emits ReportRow records, the package's one result type.  Tolerances are
desk-scale budgets recorded in the rows themselves, so reports are
self-describing; every run is reproducible bit-for-bit from (config, seed
base) because replica r always draws from the Philox stream keyed by
(seed, r) regardless of scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ParticleEnsemble, RadialProfile, SandwichPair, _integer, _max_excess, \
    _positive, discretize_cdf, empirical_cdf, in_gamma, max_radius, measure_of_set, whole_steps
from .obstacle import SandwichSolver, SolveRequest, solve_sandwich, stationary_state
from .sim import advance_nbbm, replica_rng

__all__ = [
    "ReportRow",
    "PointMassSampler",
    "UniformBallSampler",
    "StationarySampler",
    "bracket_distance",
    "sup_distance_to_fn",
    "hydrodynamic_report",
    "boundary_report",
    "selection_report",
    "stationarity_report",
    "convergence_report",
    "rows_to_csv",
]

_MIN_POPULATION = 100  # experiments refuse degenerate particle counts
_LIMIT_NODES = 4001  # nodes of a sampler's limit profile
_GOOD_FRACTION = 0.9  # share of selection replicas that must meet both tolerances


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    statistic: str
    value: float
    tolerance: float
    passed: bool
    N: int
    d: int
    t: float
    replicas: int
    seed: int

    @staticmethod
    def make(experiment: str, statistic: str, value: float, tolerance: float,
             N: int, d: int, t: float, replicas: int, seed: int) -> "ReportRow":
        return ReportRow(experiment, statistic, float(value), float(tolerance),
                         bool(value <= tolerance), N, d, t, replicas, seed)


def rows_to_csv(rows: list[ReportRow]) -> str:
    out = ["experiment,statistic,value,tolerance,passed,N,d,t,replicas,seed"]
    for r in rows:
        out.append(f"{r.experiment},{r.statistic},{r.value!r},{r.tolerance!r},"
                   f"{int(r.passed)},{r.N},{r.d},{r.t!r},{r.replicas},{r.seed}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Initial-condition samplers
# ---------------------------------------------------------------------------

def _unit_directions(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    nv = np.sqrt(np.einsum("ij,ij->i", v, v))
    nv[nv == 0.0] = 1.0
    return v / nv[:, None]


@dataclass(frozen=True)
class PointMassSampler:
    """All particles start at the origin."""

    dim: int

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.zeros((n, self.dim))

    def limit_profile(self) -> RadialProfile | None:
        return None  # an atom at radius 0 is not a valid solver input


@dataclass(frozen=True)
class UniformBallSampler:
    """I.i.d. uniform on the centred ball; in d = 1 this is uniform(-R, R)."""

    dim: int
    radius: float = 1.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        r = self.radius * rng.random(n) ** (1.0 / self.dim)
        return _unit_directions(n, self.dim, rng) * r[:, None]

    def cdf(self, r):
        return np.clip(np.asarray(r, dtype=float) / self.radius, 0.0, 1.0) ** self.dim

    def limit_profile(self) -> RadialProfile:
        return discretize_cdf(self.cdf, self.radius, _LIMIT_NODES, "nearest")


@dataclass(frozen=True)
class StationarySampler:
    """I.i.d. from the stationary density: radius by inverting V, uniform direction."""

    dim: int

    @cached_property
    def _inverse_table(self):
        state = stationary_state(self.dim)
        r = np.linspace(0.0, state.r_infinity, 20001)
        return state.V(r), r

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        v, r = self._inverse_table
        radii = np.interp(rng.random(n), v, r)
        return _unit_directions(n, self.dim, rng) * radii[:, None]

    def limit_profile(self) -> RadialProfile:
        return stationary_state(self.dim).as_profile(_LIMIT_NODES, "nearest")


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def bracket_distance(f: RadialProfile, pair: SandwichPair) -> float:
    """sup_r of how far f pokes outside [lower, upper]; 0 when inside."""
    return max(_max_excess(pair.lower, f), _max_excess(f, pair.upper))


def sup_distance_to_fn(f: RadialProfile, fn, r_hi: float) -> float:
    """sup_r |f - fn| for a step profile against a continuous monotone fn."""
    pts = np.unique(np.concatenate((f.locations, [0.0, r_hi])))
    g = np.asarray(fn(pts), dtype=float)
    return float(max(np.abs(f(pts) - g).max(), np.abs(f.value_right(pts) - g).max()))


# ---------------------------------------------------------------------------
# Replica plumbing
# ---------------------------------------------------------------------------

def _run_replicas(fn, n_replicas: int, workers: int, args: tuple) -> list:
    """Execute fn(rep, *args) for each replica, deterministically ordered."""
    if workers <= 1:
        return [fn(rep, *args) for rep in range(n_replicas)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, rep, *args) for rep in range(n_replicas)]
        return [f.result() for f in futures]


def _hydro_replica(rep: int, seed: int, N: int, d: int, t: float, sampler,
                   delta: float, grid_step: float | None):
    rng = replica_rng(seed, rep)
    ens = ParticleEnsemble(d, sampler.sample(N, rng))
    f0 = empirical_cdf(ens)
    pair = solve_sandwich(SolveRequest(dim=d, initial=f0, horizon=t,
                                       step_size=delta, grid_step=grid_step))
    final, _ = advance_nbbm(ens, t, rng)
    f1 = empirical_cdf(final)
    return bracket_distance(f1, pair), pair.analytic_gap + pair.grid_gap, \
        pair.measured_gap, final.positions


def hydrodynamic_report(N: int, d: int, t: float, sampler, replicas: int,
                        seed: int, delta: float = 0.01,
                        grid_step: float | None = None,
                        tolerance_q90: float = 0.05,
                        workers: int = 1, return_snapshots: bool = False):
    """Distance from the realized empirical CDF at time t to the certified
    bracket solved from the realized initial CDF, per replica.

    ``mean_bracket_width`` is the mean a priori bound (analytic + grid gap)
    and ``mean_measured_width`` the mean measured width sup(upper - lower),
    the certificate itself."""
    _positive("t", t)
    _integer("replicas", replicas, 1)
    if N < _MIN_POPULATION:
        raise ValueError(f"hydrodynamic check needs N >= {_MIN_POPULATION}")
    res = _run_replicas(_hydro_replica, replicas, workers,
                        (seed, N, d, t, sampler, delta, grid_step))
    dists = np.array([r[0] for r in res])
    widths = np.array([r[1] for r in res])
    measured = np.array([r[2] for r in res])
    rows = [ReportRow.make("hydro", f"bracket_distance_rep{i}", dist, math.inf,
                           N, d, t, replicas, seed)
            for i, dist in enumerate(dists)]
    rows.append(ReportRow.make("hydro", "bracket_distance_q90",
                               float(np.percentile(dists, 90.0)), tolerance_q90,
                               N, d, t, replicas, seed))
    rows.append(ReportRow.make("hydro", "mean_bracket_width",
                               float(widths.mean()), math.inf, N, d, t, replicas, seed))
    rows.append(ReportRow.make("hydro", "mean_measured_width",
                               float(measured.mean()), math.inf, N, d, t, replicas, seed))
    if return_snapshots:
        return rows, [r[3] for r in res]
    return rows


def _boundary_replica(rep: int, seed: int, N: int, d: int, eta: float,
                      sampler, snap_times: tuple, r_upper: tuple):
    rng = replica_rng(seed, rep)
    ens = ParticleEnsemble(d, sampler.sample(N, rng))
    _, log = advance_nbbm(ens, np.diff([0.0, *snap_times]), rng)
    return any(max_radius(r) > r_t + eta for r, r_t in zip(log.reads, r_upper))


def boundary_report(N: int, d: int, T: float, eta: float, sampler,
                    replicas: int, seed: int, delta: float = 0.01,
                    grid_step: float | None = None, snapshot_dt: float = 0.05,
                    tolerance: float = 0.1, workers: int = 1) -> list[ReportRow]:
    """Fraction of replicas whose max particle radius ever exceeds the
    solver's boundary trajectory by eta on the snapshots eta, eta +
    snapshot_dt, ..., T (``snapshot_dt`` must divide T - eta)."""
    if not (0.0 < eta < T):
        raise ValueError("need 0 < eta < T")
    _integer("replicas", replicas, 1)
    if N < _MIN_POPULATION:
        raise ValueError(f"boundary check needs N >= {_MIN_POPULATION}")
    limit = sampler.limit_profile()
    if limit is None:
        raise ValueError("sampler has no solver-compatible limit profile")
    # the step rounds as (eta + dt) - eta, as in np.arange; eta + i * dt
    # differs in the last bit and would move the solver's snapshot times
    k = whole_steps(T - eta, snapshot_dt, "T - eta", "snapshot_dt")
    snap_times = tuple(float(s) for s in
                       eta + np.arange(k + 1) * ((eta + snapshot_dt) - eta))
    solver = SandwichSolver(d, limit, delta, grid_step, horizon_hint=T)
    # conservative upper end of the boundary interval at each snapshot
    r_upper = []
    for s in snap_times:
        solver.advance_to(s)
        r_upper.append(solver.boundary_interval()[1])
    flags = _run_replicas(_boundary_replica, replicas, workers,
                          (seed, N, d, eta, sampler, snap_times, tuple(r_upper)))
    frac = float(np.mean(flags))
    return [ReportRow.make("boundary", "exceedance_fraction", frac, tolerance,
                           N, d, T, replicas, seed)]


def _selection_replica(rep: int, seed: int, N: int, d: int, t: float, K: float,
                       c: float, sampler, window_dt: float, n_window: int):
    rng = replica_rng(seed, rep)
    ens = ParticleEnsemble(d, sampler.sample(N, rng))
    if not in_gamma(ens, K, c):
        raise ValueError(f"replica {rep}: initial configuration not in Gamma({K}, {c})")
    _, log = advance_nbbm(ens, (t,) + (window_dt,) * n_window, rng)
    ens = log.reads[0]
    state = stationary_state(d)
    f = empirical_cdf(ens)
    sup_v = sup_distance_to_fn(f, state.V, state.r_infinity)
    m_t = max_radius(ens)
    running_max = max(max_radius(r) for r in log.reads)
    ball = float((ens.norms() < state.r_infinity).mean())
    half = measure_of_set(ens, lambda x: x[:, 0] > 0.0)
    return sup_v, m_t, running_max, ball, half, ens.positions


def selection_report(N: int, d: int, t: float, K: float, c: float, sampler,
                     replicas: int, seed: int, window_dt: float = 0.05,
                     sup_tol: float = 0.07, m_tol: float = 0.15,
                     mass_tol: float = 0.05, workers: int = 1,
                     return_snapshots: bool = False):
    """Long-time statistics against the stationary state (U, R_inf, V);
    ``window_excess`` reads the unit window after t every ``window_dt``."""
    _integer("replicas", replicas, 1)
    if N < _MIN_POPULATION:
        raise ValueError(f"selection check needs N >= {_MIN_POPULATION}")
    n_window = whole_steps(1.0, window_dt, "window", "window_dt")
    state = stationary_state(d)
    res = _run_replicas(_selection_replica, replicas, workers,
                        (seed, N, d, t, K, c, sampler, window_dt, n_window))
    sup_v = np.array([r[0] for r in res])
    m_t = np.array([r[1] for r in res])
    run_max = np.array([r[2] for r in res])
    ball = np.array([r[3] for r in res])
    half = np.array([r[4] for r in res])
    rows = []
    for i in range(replicas):
        rows.append(ReportRow.make("selection", f"sup_F_to_V_rep{i}", sup_v[i],
                                   math.inf, N, d, t, replicas, seed))
        rows.append(ReportRow.make("selection", f"abs_M_to_Rinf_rep{i}",
                                   abs(m_t[i] - state.r_infinity), math.inf,
                                   N, d, t, replicas, seed))
        rows.append(ReportRow.make("selection", f"window_excess_rep{i}",
                                   run_max[i] - state.r_infinity, math.inf,
                                   N, d, t, replicas, seed))
    good = (sup_v <= sup_tol) & (np.abs(m_t - state.r_infinity) <= m_tol)
    rows.append(ReportRow.make("selection", "fraction_outside_tolerance",
                               1.0 - float(good.mean()), 1.0 - _GOOD_FRACTION,
                               N, d, t, replicas, seed))
    rows.append(ReportRow.make("selection", "ball_mass_error",
                               abs(float(ball.mean()) - 1.0), mass_tol,
                               N, d, t, replicas, seed))
    rows.append(ReportRow.make("selection", "half_space_mass_error",
                               abs(float(half.mean()) - 0.5), mass_tol,
                               N, d, t, replicas, seed))
    if return_snapshots:
        return rows, [r[5] for r in res]
    return rows


def stationarity_report(N: int, d: int, burn_in: float, window: float,
                        n_windows: int, seed: int, snapshot_dt: float = 0.25,
                        pairwise_tol: float = 0.05) -> list[ReportRow]:
    """Mixing diagnostic: time-averaged CDFs over successive windows of one
    long trajectory (snapshots every ``snapshot_dt``), compared pairwise and
    against V."""
    _positive("burn_in", burn_in)
    _positive("window", window)
    if n_windows < 2:
        raise ValueError(f"n_windows must be >= 2 to compare windows pairwise, "
                         f"got {n_windows}")
    if N < _MIN_POPULATION:
        raise ValueError(f"stationarity check needs N >= {_MIN_POPULATION}")
    per_window = whole_steps(window, snapshot_dt, "window", "snapshot_dt")
    state = stationary_state(d)
    _, log = advance_nbbm(ParticleEnsemble(d, np.zeros((N, d))),
                          (burn_in,) + (snapshot_dt,) * (n_windows * per_window),
                          replica_rng(seed, 0))
    r_grid = np.linspace(0.0, state.r_infinity + 1.0, 2001)
    cdfs = [empirical_cdf(ens)(r_grid) for ens in log.reads[1:]]
    averages = [sum(cdfs[i * per_window:(i + 1) * per_window]) / per_window
                for i in range(n_windows)]
    rows = []
    worst = 0.0
    for i in range(n_windows):
        for j in range(i + 1, n_windows):
            worst = max(worst, float(np.abs(averages[i] - averages[j]).max()))
    rows.append(ReportRow.make("stationarity", "max_pairwise_window_distance",
                               worst, pairwise_tol, N, d,
                               burn_in + n_windows * window, 1, seed))
    v_ref = state.V(r_grid)
    for i, avg in enumerate(averages):
        rows.append(ReportRow.make("stationarity", f"window{i}_to_V",
                                   float(np.abs(avg - v_ref).max()), math.inf,
                                   N, d, burn_in + (i + 1) * window, 1, seed))
    return rows


def convergence_report(dim: int, v0: RadialProfile, schedule, K: float = 3.0,
                       c: float = 0.05, delta: float = 0.01,
                       grid_step: float | None = None) -> list[ReportRow]:
    """The obstacle flow from v0 against the stationary state V at each
    scheduled time, a multiple of ``delta``.

    Per time it reports ``sup_mid_to_V`` on the solver grid, the boundary
    interval (``boundary_lo``, ``boundary_hi``), its larger distance
    ``boundary_to_R_inf`` to R_inf and the a priori ``combined_gap``, with
    no tolerance and N = replicas = seed = 0: no particles run.  v0 must
    have mass at least c within radius K (checked), the hypothesis under
    which long-time convergence holds.
    """
    schedule = sorted(float(t) for t in schedule)
    if not schedule:
        raise ValueError("schedule must name at least one time")
    if v0(K) < c:
        raise ValueError(f"initial profile has v0({K}) = {v0(K):.4f} < c = {c}")
    state = stationary_state(dim)
    solver = SandwichSolver(dim, v0, delta, grid_step, horizon_hint=schedule[-1])
    rows = []
    for t in schedule:
        solver.advance_to(t)
        mid = 0.5 * (solver.p_up + solver.p_lo)
        lo, hi = solver.boundary_interval()
        values = {"sup_mid_to_V": float(np.max(np.abs(mid - state.V(solver.grid)))),
                  "boundary_lo": lo, "boundary_hi": hi,
                  "boundary_to_R_inf": max(abs(lo - state.r_infinity),
                                           abs(hi - state.r_infinity)),
                  "combined_gap": solver.combined_gap}
        rows.extend(ReportRow.make("convergence", name, value, math.inf, 0, dim, t, 0, 0)
                    for name, value in values.items())
    return rows
