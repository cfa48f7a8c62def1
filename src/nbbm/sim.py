"""Event-driven simulation of the selection particle system and its couplings.

The N-particle system: each of N particles diffuses independently with
diffusivity sqrt(2) (per-coordinate variance 2*dt) and branches at rate 1,
so branch events arrive as a Poisson process with rate N.  At an event a
uniformly chosen label k duplicates and the particle furthest from the
origin (lowest index on ties) is removed: its slot is overwritten with the
position of particle k, keeping the population at N.

Also here: the red/blue coupling, spherically ordered Brownian pairs and
killed-Brownian-motion survival estimates.  The coupling grows the free
branching Brownian motion (BBM: rate-1 binary branching, no selection,
Ulam-Harris labels) and realizes the N-particle system as its blue subset,
so the forest it returns is the free BBM; :func:`coupled_run` is the one
BBM engine.  One Poisson clock of rate m (the forest's size) picks the
branching particle uniformly, and a particle's Brownian increment is drawn
only when its position is read.  The N blues are one dense block that a
blue event diffuses (O(N d)), a red event only records its branching (O(1)),
and an observation replays those and reads every particle (O(population d)).
Red particles are never selected, so the skipped positions enter no output.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import ParticleEnsemble

__all__ = [
    "SimParams",
    "EventLog",
    "BbmForest",
    "CoupledObservation",
    "CoupledRunResult",
    "SimulationError",
    "ResourceError",
    "replica_rng",
    "advance_nbbm",
    "coupled_run",
    "spherically_ordered_pairs",
    "survival_curve",
]


class SimulationError(RuntimeError):
    pass


class ResourceError(RuntimeError):
    pass


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed, replica).

    Distinct replicas get statistically independent streams and the mapping
    is reproducible regardless of how replicas are scheduled across workers.
    """
    if not (0 <= seed < 2**64 and 0 <= replica < 2**64):
        raise ValueError(f"seed and replica must lie in [0, 2^64), got {seed}, {replica}")
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimParams:
    """Run parameters: dimension, population N and the times at which
    :func:`coupled_run` records an observation.  Randomness comes from the
    generator passed to each run (see :func:`replica_rng`)."""

    dim: int
    population: int
    record_schedule: tuple[float, ...] = ()

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        sched = tuple(float(s) for s in self.record_schedule)
        if not all(0.0 <= s < math.inf for s in sched) or any(
                b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("record_schedule must be finite, nonnegative, strictly increasing")
        object.__setattr__(self, "record_schedule", sched)


@dataclass
class EventLog:
    """Each event's time, branching and removed label as 8-byte typed arrays
    (``len`` counts events), and the ensemble at each window's end."""

    times: array = field(default_factory=lambda: array("d"))
    branching: array = field(default_factory=lambda: array("q"))
    removed: array = field(default_factory=lambda: array("q"))
    reads: list[ParticleEnsemble] = field(default_factory=list)

    def __len__(self):
        return len(self.times)


def advance_nbbm(params: SimParams, state: ParticleEnsemble, windows,
                 rng: np.random.Generator) -> tuple[ParticleEnsemble, EventLog]:
    """Evolve the N-particle system exactly across consecutive windows.

    ``windows`` is one duration or a sequence of durations; the ensemble at
    each window's end goes to ``log.reads`` and the last one is returned.  A
    window runs as its own call would: a fresh exponential gap (exact by
    memorylessness), the crossing gap cut and discarded (a zero-length window
    still draws one), and the clock moved to ``clock + duration``.  They are
    durations because differences of read times do not round back to them.

    Each event draws ``exponential(1/N)`` (the gap), N*d standard normals
    (every particle diffuses across it) and ``integers(N)`` (the branching
    label), in this order, which is part of the contract.  An event costs
    O(N*d), and the normal draws are its floor.
    """
    durations = [float(w) for w in ((windows,) if np.ndim(windows) == 0 else windows)]
    if not durations or not all(0.0 <= w < math.inf for w in durations):
        raise ValueError(f"windows must be one or more finite nonnegative "
                         f"durations, got {windows!r}")
    n = params.population
    if state.population != n:
        raise ValueError(f"state has {state.population} particles, params say {n}")
    pos = state.positions.copy()
    step, sq = np.empty_like(pos), np.empty(n)
    log = EventLog()
    clock = state.clock
    for duration in durations:
        t_done = 0.0
        while True:
            gap = rng.exponential(1.0 / n)
            last = t_done + gap >= duration
            dt = duration - t_done if last else gap
            if dt > 0.0:
                rng.standard_normal(out=step)
                step *= math.sqrt(2.0 * dt)
                pos += step
            if last:
                break
            t_done += gap
            np.einsum("ij,ij->i", pos, pos, out=sq)
            furthest = int(sq.argmax())  # the first NaN, else the lowest max index
            if not math.isfinite(sq[furthest]):
                raise SimulationError(f"nonfinite position at event {len(log)} "
                                      f"(t={clock + t_done:.6g})")
            k = int(rng.integers(n))
            pos[furthest] = pos[k]
            log.times.append(clock + t_done)
            log.branching.append(k)
            log.removed.append(furthest)
        clock += duration
        log.reads.append(state.with_positions(pos, clock))
    return log.reads[-1], log


# ---------------------------------------------------------------------------
# Red/blue coupling: the free BBM with the N-particle system as its blue subset
# ---------------------------------------------------------------------------

@dataclass
class BbmForest:
    """The free BBM grown by :func:`coupled_run`: Ulam-Harris labels,
    positions and colours.

    The initial particles are labelled (1,), ..., (N,); children of a
    particle labelled u are u + (1,) and u + (2,).  ``blue`` marks the
    selected subpopulation of fixed size N.
    """

    dim: int
    labels: list[tuple[int, ...]]
    positions: np.ndarray
    clock: float
    blue: np.ndarray

    @property
    def population(self) -> int:
        return self.positions.shape[0]


_POPULATION_CAP = 10_000_000
_CLOCK_BLOCK = 256   # events whose gaps and picks are drawn in one call


@dataclass(frozen=True)
class CoupledObservation:
    time: float
    blue_norms: np.ndarray
    all_norms: np.ndarray
    dominated: bool          # F^N <= C_1 F^+ over all radii
    blue_count: int


@dataclass(frozen=True)
class CoupledRunResult:
    observations: list[CoupledObservation]
    blue_final: ParticleEnsemble
    forest_final: BbmForest
    events: int
    domination_ok: bool
    reconstruction_ok: bool


def _dominated(blue_norms: np.ndarray, all_norms: np.ndarray, n: int) -> bool:
    """Check count_blue(< r) <= min(count_all(< r), N) for every r."""
    radii = np.unique(np.concatenate((blue_norms, all_norms))) + 1e-12
    f_blue = np.searchsorted(np.sort(blue_norms), radii, side="left")
    f_all = np.searchsorted(np.sort(all_norms), radii, side="left")
    return bool(np.all(f_blue <= np.minimum(f_all, n)))


def coupled_run(params: SimParams, initial: ParticleEnsemble, duration: float,
                rng: np.random.Generator,
                population_cap: int = _POPULATION_CAP) -> CoupledRunResult:
    """One BBM driving both processes: ``forest_final`` is the free BBM
    (ResourceError past ``population_cap`` particles) and its blue subset
    evolves as the N-system.

    When a blue particle branches both offspring are blue and the furthest
    blue (lowest forest index on ties) turns red; red particles breed red.
    Records at each observation time whether the blue empirical CDF is
    dominated by the clipped BBM CDF (a pathwise identity under this
    coupling), and verifies at event times that the blue set equals the set
    of particles whose paths never exceeded the running blue maximum --
    excluding lineages that tied the maximum exactly at their flip event,
    where the event-time check is inconclusive by construction.

    One clock drives the forest: with m particles the next branching comes
    after an Exp(m) gap at a uniform index below m (superposition and
    memorylessness), drawn in blocks since m grows by one per event.
    Positions are drawn only when read, as sqrt(2 dt) standard normals over
    the time since the last read.  The N blues are one dense block that a
    blue event diffuses; a flipped blue is written to its forest row.  A red
    event only records (time, parent, child), replayed at each observation
    and at the end in chronological rounds, parents before children; then
    every particle is read.  This is exact: the clock does not depend on
    positions, every read time is an event or observation time, Brownian
    increments over disjoint intervals are independent N(0, 2 dt I), and no
    selection acts on red particles, so their positions between reads enter
    no output.  The forest, blue set, observations and flags have the joint
    law of a loop that diffuses every particle across every gap.

    The reconstruction check keeps its meaning.  ``exceeded`` is updated
    from the norms read at each blue event.  A particle turns red with
    ``exceeded`` or ``tie_lineage`` already set, both flags only grow and
    children inherit both, so a red particle passes the check whatever its
    later norms; a blue particle's flags can change only at blue events,
    where every blue is read.  Checking the N+1 blues at each blue event,
    and every particle at each observation and at the end, therefore checks
    the predicate over the whole forest at every event.
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    n = params.population
    if initial.population != n:
        raise ValueError("initial population must equal params.population")
    d = initial.dim
    now = initial.clock
    end = initial.clock + duration
    # the forest is the first m rows of arrays that double when full
    m = n
    pos = np.empty((2 * n, d))
    pos[:n] = initial.positions
    last = np.full(2 * n, now)               # time each position was last drawn
    exceeded = np.zeros(2 * n, dtype=bool)   # ever strictly above the blue max
    tie_lineage = np.zeros(2 * n, dtype=bool)
    labels = [(i + 1,) for i in range(n)]
    # the blues, drawn at b_clock (their forest rows are stale), and their
    # forest indices; row n takes a blue event's child
    block = np.empty((n + 1, d))
    block[:n] = initial.positions
    ids = np.arange(n + 1)
    row = {i: i for i in range(n)}         # forest index -> block row
    b_clock = now
    step, norms = np.empty((n, d)), np.empty(n + 1)
    pending = []                           # unread red branchings (time, parent, child)
    blue = None

    schedule = [s for s in params.record_schedule
                if initial.clock <= s <= end + 1e-12]
    obs: list[CoupledObservation] = []
    events = 0
    domination_ok = True
    reconstruction_ok = True

    def read(idx, at):
        x = pos[idx] + (rng.standard_normal((idx.size, d))
                        * np.sqrt(2.0 * (at - last[idx]))[:, None])
        if not np.isfinite(x).all():
            raise SimulationError(f"nonfinite position at event {events}")
        pos[idx], last[idx] = x, at
        return x

    def diffuse_blues(at):
        nonlocal b_clock
        if at > b_clock:
            np.multiply(rng.standard_normal(out=step), math.sqrt(2.0 * (at - b_clock)),
                        out=step)
            block[:n] += step
        b_clock = at

    def read_all(at):
        nonlocal reconstruction_ok, blue
        diffuse_blues(at)
        on = ids[:n]
        pos[on], last[on] = block[:n], at
        if pending:
            # round r holds each particle's r-th pending branching, as parent
            # or child, so a round reads disjoint particles already drawn
            rounds, depth = {}, {}
            for e, (_, p, c) in enumerate(pending):
                r = depth[p] = depth[c] = depth.get(p, 0) + 1
                rounds.setdefault(r, []).append(e)
            t_rec, parents, children = np.array(pending).T
            parents, children = parents.astype(np.intp), children.astype(np.intp)
            for r in rounds.values():
                p, c, t = parents[r], children[r], t_rec[r]
                pos[c], last[c] = read(p, t), t
                exceeded[c], tie_lineage[c] = exceeded[p], tie_lineage[p]
            pending.clear()
        read(np.flatnonzero(last[:m] < at), at)
        blue = np.zeros(m, dtype=bool)
        blue[on] = True
        check = tie_lineage[:m] | (~exceeded[:m] == blue)
        reconstruction_ok = reconstruction_ok and bool(np.all(check))

    def observe(at: float):
        nonlocal domination_ok
        all_norms = np.sqrt(np.einsum("ij,ij->i", pos[:m], pos[:m]))
        ok = _dominated(all_norms[blue], all_norms, n)
        domination_ok = domination_ok and ok
        obs.append(CoupledObservation(at, np.sort(all_norms[blue]), np.sort(all_norms),
                                      ok, int(blue.sum())))

    gaps, picks, i = [], [], 0
    while True:
        if i == len(gaps):
            rates = m + np.arange(_CLOCK_BLOCK)
            gaps = (rng.standard_exponential(_CLOCK_BLOCK) / rates).tolist()
            picks = rng.integers(0, rates).tolist()
            i = 0
        t_next, idx = now + gaps[i], picks[i]
        i += 1
        while schedule and schedule[0] <= min(t_next, end):
            at = schedule.pop(0)
            read_all(at)
            observe(at)
        if t_next >= end:
            break
        now = t_next
        events += 1
        if m == len(last):
            pos, last, exceeded, tie_lineage = (np.concatenate((a, np.empty_like(a)))
                                                for a in (pos, last, exceeded, tie_lineage))
        child, m = m, m + 1
        if m > population_cap:
            raise ResourceError(f"coupled BBM population exceeded cap {population_cap}")
        labels.append(labels[idx] + (2,))
        labels[idx] = labels[idx] + (1,)
        j = row.get(idx)
        if j is None:   # red: read at the next observation or the end
            pending.append((now, idx, child))
            continue

        diffuse_blues(now)
        block[n] = block[j]
        np.einsum("ij,ij->i", block, block, out=norms)
        np.sqrt(norms, out=norms)
        k = int(norms.argmax())   # the first NaN, else the first max
        top = norms[k]
        if not math.isfinite(top):
            raise SimulationError(f"nonfinite position at event {events}")
        m_blue = max(norms[:k].max(initial=-math.inf), norms[k + 1:].max(initial=-math.inf))
        ids[n] = child
        exceeded[child], tie_lineage[child] = exceeded[idx], tie_lineage[idx]
        tie = top <= m_blue + 1e-15
        if tie:   # exact ties resolve to the lowest forest index
            tied = np.flatnonzero(norms == top)
            k = int(tied[ids[tied].argmin()])
        flip = int(ids[k])
        tie_lineage[flip] |= tie
        exceeded[ids] |= norms > m_blue
        # blue particles never exceed the blue maximum; a mismatch on a
        # non-tie lineage means the bookkeeping (not randomness) is wrong
        wrong = exceeded[ids] > tie_lineage[ids]
        wrong[k] = not (exceeded[flip] or tie_lineage[flip])
        reconstruction_ok = reconstruction_ok and not wrong.any()
        pos[flip], last[flip] = block[k], now
        del row[flip]
        if k < n:   # the child takes the flipped blue's row
            block[k], ids[k], row[child] = block[n], child, k

    now = end
    read_all(end)
    while schedule:
        target = schedule.pop(0)
        if target > now + 1e-12:
            break
        observe(target)

    pos = pos[:m].copy()
    final_blue = ParticleEnsemble(d, pos[blue], now)
    forest = BbmForest(d, labels, pos, now, blue)
    return CoupledRunResult(obs, final_blue, forest, events,
                            domination_ok, reconstruction_ok)


# ---------------------------------------------------------------------------
# Spherically ordered Brownian pairs
# ---------------------------------------------------------------------------

def spherically_ordered_pairs(x: np.ndarray, x_plus: np.ndarray,
                              sample_times: np.ndarray,
                              rng: np.random.Generator
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve pairs (B, B+) with ||B|| <= ||B+|| at every sample time.

    The pairs move independently until the first sample step whose
    proposed increments would cross the norms.  The crossing is then
    attributed to the step interior ("bridged" detection at sample
    resolution): the inner point keeps its proposed direction, its norm is
    set equal to the outer one, and from then on the inner path is the
    outer path mapped through the orthogonal reflection aligning the two,
    so both norms agree forever after.  The outer path is exactly Brownian
    throughout; the inner one takes a one-sided O(sqrt(dt)) norm clamp at
    its crossing step only.

    Returns arrays of shape (n_pairs, n_times + 1, d) for both paths and a
    boolean array flagging which pairs coupled.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xp = np.atleast_2d(np.asarray(x_plus, dtype=float))
    if x.shape != xp.shape:
        raise ValueError("x and x_plus must have matching shapes")
    if np.any(_norms(x) > _norms(xp) + 1e-12):
        raise ValueError("need ||x|| <= ||x_plus|| pairwise")
    n, d = x.shape
    times = np.concatenate(([0.0], np.asarray(sample_times, dtype=float)))
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing and positive")
    path = np.empty((n, times.size, d))
    path_p = np.empty((n, times.size, d))
    path[:, 0], path_p[:, 0] = x, xp
    b, bp = x.copy(), xp.copy()
    coupled = _norms(b) >= _norms(bp) - 1e-15
    w = np.zeros((n, d))  # unit normal of the mirror taking bp to b; 0 is the identity
    w[coupled] = _mirror_normals(b[coupled], bp[coupled])
    for i in range(1, times.size):
        dt = times[i] - times[i - 1]
        step_p = rng.standard_normal((n, d)) * math.sqrt(2.0 * dt)
        step_i = rng.standard_normal((n, d)) * math.sqrt(2.0 * dt)
        bp = bp + step_p
        bp_c, w_c = bp[coupled], w[coupled]
        b[coupled] = bp_c - 2.0 * np.einsum("ij,ij->i", bp_c, w_c)[:, None] * w_c
        free = ~coupled
        b_free = b[free] + step_i[free]
        cross = _norms(b_free) > _norms(bp[free])
        sel = np.nonzero(free)[0][cross]
        tgt = _norms(bp[sel])
        src = _norms(b_free[cross])
        scale = np.where(src > 0.0, tgt / np.maximum(src, 1e-300), 0.0)
        b_free[cross] *= scale[:, None]
        b[free] = b_free
        coupled[sel] = True
        w[sel] = _mirror_normals(b[sel], bp[sel])
        path[:, i], path_p[:, i] = b, bp
    return path, path_p, coupled


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", a, a))


def _mirror_normals(b: np.ndarray, bp: np.ndarray) -> np.ndarray:
    """Row-wise unit normals w with bp - 2 (bp . w) w = b (equal norms);
    0 where bp and b agree to 1e-14."""
    diff = bp - b
    nd = _norms(diff)
    far = nd >= 1e-14
    w = np.zeros_like(diff)
    w[far] = diff[far] / nd[far, None]
    return w


# ---------------------------------------------------------------------------
# Killed Brownian motion
# ---------------------------------------------------------------------------

def _boundary_fn(boundary):
    if callable(boundary):
        return boundary
    level = float(boundary)
    return lambda s: level


def survival_curve(dim: int, x: np.ndarray, boundary, t_grid: np.ndarray,
                   n_samples: int, rng: np.random.Generator,
                   dt: float | None = None) -> np.ndarray:
    """Fraction of Brownian paths from x never leaving the moving ball
    ||B|| < R(s), where ``boundary`` is R (a callable of time) or a constant.

    Killing is checked at grid times only, so survival is overestimated by
    a one-sided O(sqrt(dt)) discretization bias.  ``t_grid`` must round to
    strictly increasing positive multiples of dt.  Paths run in chunks of
    at most 100k.
    """
    if np.shape(x) != (dim,):
        raise ValueError(f"x must have shape ({dim},), got {np.shape(x)}")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or not t_grid.size or not np.all(np.isfinite(t_grid))
            or t_grid[-1] <= 0.0):
        raise ValueError("t_grid must be a nonempty 1-d sequence of finite times "
                         "ending after 0")
    if dt is None:
        dt = 1e-3 * float(t_grid[-1])
    elif not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    at = [int(round(t / dt)) for t in t_grid]
    if at[0] < 1 or any(b <= a for a, b in zip(at, at[1:])):
        raise ValueError(f"t_grid must round to strictly increasing positive "
                         f"multiples of dt = {dt:g}")
    r_of = _boundary_fn(boundary)
    steps = at[-1]
    record = {k: i for i, k in enumerate(at)}
    chunk = max(1, min(n_samples, int(4e6 // steps), 100_000))
    alive_at = np.zeros(t_grid.size)
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pos = np.tile(np.asarray(x, dtype=float), (m, 1))
        alive = np.ones(m, dtype=bool)
        for k in range(1, steps + 1):
            live_idx = np.nonzero(alive)[0]
            if not live_idx.size:
                break
            pos[live_idx] += rng.standard_normal((live_idx.size, dim)) * math.sqrt(2.0 * dt)
            r_lim = r_of(k * dt)
            if math.isfinite(r_lim):
                dead = _norms(pos[live_idx]) >= r_lim
                alive[live_idx[dead]] = False
            if k in record:
                alive_at[record[k]] += alive.sum()
        done += m
    return alive_at / n_samples
