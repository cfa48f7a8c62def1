"""Event-driven simulation of the selection particle system and its couplings.

The N-particle system: each of N particles diffuses independently with
diffusivity sqrt(2) (per-coordinate variance 2*dt) and branches at rate 1,
so branch events arrive as a Poisson process with rate N.  At an event a
uniformly chosen label k duplicates and the particle furthest from the
origin (lowest index on ties) is removed: its slot is overwritten with the
position of particle k, keeping the population at N.
:func:`advance_nbbm` draws a position only when the particle could be the
furthest, when it branches, or when it is read: the particles well inside
the swarm carry exact one-dimensional interval states (:class:`_Interval`)
instead of being diffused at every event, so an event costs
O(candidates * d) and not O(N * d).  Its exactness rests on four facts: the
clock and branching labels are independent of the positions, the interval
states are Markov, every read is an exact rejection sample, and the
selection reads only radii at event times.

Also here: the red/blue coupling, spherically ordered Brownian pairs and
killed-Brownian-motion survival estimates.  The coupling grows the free
branching Brownian motion (BBM: rate-1 binary branching, no selection) and
realizes the N-particle system as its blue subset, so the forest it returns
is the free BBM; :func:`coupled_run` is the one BBM engine.  One Poisson
clock of rate m (the forest's size) picks the branching particle uniformly,
and a particle's Brownian increment is drawn only when its position is
read.  The N blues are one dense block that a blue event diffuses
(O(N d)), a red event only records its branching (O(1)), and an
observation replays those and reads every particle (O(population d)).
Red particles are never selected, so the skipped positions enter no output.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .core import ParticleEnsemble, _integer, _nonnegative, _positive, whole_steps
from .kernels import _TAIL   # every dropped series tail is below this

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


_CLOCK_BLOCK = 256   # events whose gaps and picks are drawn in one call


class SimulationError(RuntimeError):
    pass


class ResourceError(RuntimeError):
    pass


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed, replica).

    Distinct replicas get statistically independent streams and the mapping
    is reproducible regardless of how replicas are scheduled across workers.
    """
    # a float is refused: the uint64 cast would truncate it onto another key
    _integer("seed", seed, 0, 2**64 - 1)
    _integer("replica", replica, 0, 2**64 - 1)
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimParams:
    """The input of :func:`coupled_run`: dimension, population N and the
    times at which it records an observation, all checked by the run.  N
    and the dimension must match the initial ensemble's.  Randomness comes
    from the generator passed to each run (see :func:`replica_rng`)."""

    dim: int
    population: int
    record_schedule: tuple[float, ...] = ()


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


def advance_nbbm(state: ParticleEnsemble, windows,
                 rng: np.random.Generator) -> tuple[ParticleEnsemble, EventLog]:
    """Evolve the N-particle system in R^d, N and d those of ``state``,
    exactly across consecutive windows.

    ``windows`` is one duration or a sequence of durations; the ensemble at
    each window's end goes to ``log.reads`` and the last one is returned.  A
    window runs as its own call would: it draws a fresh block of gaps (exact
    by memorylessness), discards the crossing gap and the rest of the block,
    and moves the clock to ``clock + duration``.  They are durations because
    differences of read times do not round back to them.

    The clock (Exp(N) gaps) and the branching labels (uniform) are drawn in
    blocks.  A position is drawn only when the particle could be the
    furthest, when it branches, or at the end of an internal window (see
    :class:`_Swarm`), so an event costs O(candidates * d) and not O(N * d).

    The clock, branching labels, removed labels and reads have the joint law
    of the loop that diffuses every particle across every gap, for four
    reasons.  The clock and labels are independent of the positions.  Each
    boxed coordinate's state (it stays in its interval until a time, or
    first leaves it then through a side) is an exact draw from its law, and
    given its state and last read the coordinate is still a Markov process
    (Brownian motion under an h-transform), so a later read needs only
    those.  Every read is an exact rejection sample from that law.  And the
    selection reads only radii at event times: while some candidate is at
    radius >= g, no boxed particle (inside its box, inside the ball of
    radius g) can be the furthest, and otherwise every particle is read.
    """
    durations = [float(w) for w in ((windows,) if np.ndim(windows) == 0 else windows)]
    if not durations or not all(0.0 <= w < math.inf for w in durations):
        raise ValueError(f"windows must be one or more finite nonnegative "
                         f"durations, got {windows!r}")
    n = state.population
    swarm = _Swarm(state.positions.copy(), rng)
    log = EventLog()
    clock = state.clock
    for duration in durations:
        end = clock + duration
        swarm.reset(clock, end)
        gaps, picks, i = (), (), 0
        now = clock
        while True:
            if i == len(gaps):
                gaps = (rng.standard_exponential(_CLOCK_BLOCK) / n).tolist()
                picks = rng.integers(0, n, _CLOCK_BLOCK).tolist()
                i = 0
            now += gaps[i]
            k = picks[i]
            i += 1
            if now >= end:
                break
            removed = swarm.event(now, k, len(log))
            log.times.append(now)
            log.branching.append(k)
            log.removed.append(removed)
        clock = end
        log.reads.append(state.with_positions(swarm.finish(), clock))
    return log.reads[-1], log


_SPAN = 0.1           # internal windows last _SPAN * min(1, (2000 / N)^(1/3))
_TOP = 2.0            # ... and start with _TOP * sqrt(N L) + 8 particles beyond g
_EXIT_COST = 400.0    # events over which diffusing a candidate costs one box exit


class _Swarm:
    """The particles of :func:`advance_nbbm` within one read window.

    The read window is split into internal windows of length
    L = _SPAN * min(1, (2000 / N)^(1/3)) (the last one shorter): the box
    work of a window is O(N), so longer windows spend less on it, while the
    candidates and box exits of a window grow with sqrt(N L).  At an internal
    window's start every position is known, and the guard radius g is that
    of the (ceil(_TOP sqrt(N L)) + 8)-th furthest particle.  A particle
    closer than g gets its own box (-c_1, c_1) x ... x (-c_d, c_d) with
    c_j = |x_j| + s, where s > 0 solves ||(|x_j| + s)_j|| = g, so the box
    lies inside the ball of radius g.  It keeps the box if s is at least
    max(0.75, kappa) sqrt(2 L), where a particle at kappa sqrt(2 L) leaves
    with probability about N L / _EXIT_COST: one exit costs about as much as
    _EXIT_COST candidate diffusions, so nearer particles are cheaper as
    candidates.  The floor keeps every :class:`_Interval` series at
    rho = w^2 / t >= 4.  Every other particle is a candidate, a row of a
    dense block diffused at every event.

    Each boxed coordinate draws its state with :meth:`_Interval.draw_exit`:
    it stays in its interval until the internal window ends, or first leaves
    it at a time through a side.  The particle leaves its box at the earliest
    of these, tau, at the side c_j or -c_j of that coordinate j.  The other
    coordinates need only have stayed until then (their own exit times are
    dropped, which marginalizes them), and from then on the particle is a
    candidate, a free Brownian motion.  The first event at or after tau
    makes it one: its other coordinates are read at tau (none at d = 1), and
    it diffuses to the event on d normals drawn when the window opened.  A
    boxed particle is read, an exact rejection sample given its state (which
    stays Markov), when it branches, when it leaves its box, and when the
    internal window ends.  At an event where no candidate reaches g every
    particle is read, and a new internal window opens there.

    The removed particle is always a candidate: the furthest candidate, or
    after a read-all the furthest particle, which the new window does not
    box (it boxes only particles closer than g).  So the child always takes
    a candidate row, and a boxed particle keeps no row until its box ends.
    """

    def __init__(self, pos: np.ndarray, rng: np.random.Generator):
        n, d = pos.shape
        self.pos, self.rng, self.n, self.d = pos, rng, n, d
        self.span = _SPAN * min(1.0, (2000.0 / n) ** (1.0 / 3.0))
        self.tr = np.empty(n)                 # a boxed particle's last read
        self.hor = np.empty(n)                # when its box state ends
        self.xdim = np.empty(n, dtype=np.intp)  # the coordinate that leaves then, or -1
        self.xside = np.empty(n)              # ... through this side
        self.half = np.empty((n, d))          # its box's half-widths c_j
        self.row = np.empty(n, dtype=np.intp)   # block row of a candidate, -1 if boxed
        self.cpos, self.cslot = np.empty((n, d)), np.empty(n, dtype=np.intp)
        self.step, self.sq = np.empty((n, d)), np.empty(n)
        self.m = 0

    def reset(self, clock: float, end: float):
        """Start a read window: positions are those at ``clock``."""
        self.now = self.s1 = clock
        self.end = end
        self.open = False

    def finish(self) -> np.ndarray:
        """Positions at the read window's end (no event lies after ``now``)."""
        if self.open:
            self._close()
        if self.s1 < self.end:
            self.pos += (self.rng.standard_normal(self.pos.shape)
                         * math.sqrt(2.0 * (self.end - self.s1)))
        return self.pos

    def event(self, t: float, k: int, count: int) -> int:
        """Branch particle k at time t; return the removed (furthest) label."""
        while t >= self.s1:
            if self.open:
                self._close()
            self._open(self.s1, min(self.s1 + self.span, self.end))
        moved = t > self.now
        self._diffuse(t)
        if self.ei < len(self.exit_t) and self.exit_t[self.ei] <= t:
            self._exits(t)
        m = self.m
        f = -1
        if m:
            sq, cpos = self.sq[:m], self.cpos[:m]
            if self.d == 1:
                np.square(cpos[:, 0], out=sq)
            else:
                np.einsum("ij,ij->i", cpos, cpos, out=sq)
            r = int(sq.argmax())  # the first NaN, else the first max
            top = sq[r]
            if not math.isfinite(top):
                raise SimulationError(f"nonfinite position at event {count} (t={t:.6g})")
            if top >= self.gate:
                # equal rows come only from a copy not yet diffused; ties go
                # to the lowest label
                if not moved and np.count_nonzero(sq == top) > 1:
                    tied = np.flatnonzero(sq == top)
                    r = int(tied[self.cslot[tied].argmin()])
                f = int(self.cslot[r])
        if f < 0:
            f = self._read_all(t, count)
        rk = self.row[k]
        z = self.cpos[rk] if rk >= 0 else self._read_one(k, t)
        self.cpos[self.row[f]] = z
        return f

    def _diffuse(self, t: float):
        m = self.m
        if t > self.now and m:
            step = self.step[:m]
            self.rng.standard_normal(out=step)
            step *= math.sqrt(2.0 * (t - self.now))
            self.cpos[:m] += step
        self.now = t

    def _open(self, s0: float, s1: float):
        pos, n, d = self.pos, self.n, self.d
        self.open, self.now, self.s1 = True, s0, s1
        length = s1 - s0
        self.row.fill(-1)
        self.gate, self.exits, self.exit_t, self.ei = -math.inf, [], [], 0
        sq = np.einsum("ij,ij->i", pos, pos)
        inner = np.empty(0, dtype=np.intp)
        if np.isfinite(sq).all():
            top = max(1, min(n - 1, math.ceil(_TOP * math.sqrt(n * length)) + 8))
            g2 = np.partition(sq, n - top)[n - top]
            inner = np.flatnonzero(sq < g2)
            x = np.abs(pos[inner])
            l1, gap = x.sum(axis=1), g2 - sq[inner]
            slack = gap / (np.sqrt(l1 * l1 + d * gap) + l1)
            # box only the particles that leave with probability below about
            # N L / _EXIT_COST
            margin = max(0.0, -float(ndtri(min(0.5, 0.5 * n * length / _EXIT_COST))))
            keep = slack >= max(margin, 0.75) * math.sqrt(2.0 * length)
            inner, c = inner[keep], x[keep] + slack[keep, None]
        if inner.size:
            # a boxed particle's radius is below its corners' radius; the
            # factor covers the rounding of c
            self.gate = max(g2, float(np.einsum("ij,ij->i", c, c).max())) * (1.0 + 1e-15)
            tau, side = _Interval.draw_exit(pos[inner].ravel(), c.ravel(), length, self.rng)
            tau, side = tau.reshape(-1, d), side.reshape(-1, d)
            j = tau.argmin(axis=1)
            first = tau[np.arange(inner.size), j]
            leaves = np.isfinite(first)
            self.half[inner], self.tr[inner] = c, s0
            self.hor[inner] = np.where(leaves, np.minimum(s0 + first, s1), s1)
            self.xdim[inner] = np.where(leaves, j, -1)
            self.xside[inner] = side[np.arange(inner.size), j]
            out = inner[leaves]
            out = out[np.argsort(self.hor[out], kind="stable")]
            self.exits, self.exit_t = out.tolist(), self.hor[out].tolist()
            # each one's exit coordinate, and normals for its diffusion after
            self.exit_x = (self.half[out, self.xdim[out]] * self.xside[out]).tolist()
            self.exit_z = self.rng.standard_normal((out.size, d)).tolist()
        cand = np.ones(n, dtype=bool)
        cand[inner] = False
        cs = np.flatnonzero(cand)
        self.m = cs.size
        self.cslot[:self.m], self.cpos[:self.m] = cs, pos[cs]
        self.row[cs] = np.arange(cs.size)

    def _close(self):
        self._diffuse(self.s1)
        self._exits(self.s1)
        self._read(np.flatnonzero(self.row < 0), self.s1)
        self.pos[self.cslot[:self.m]] = self.cpos[:self.m]
        self.open = False

    def _exits(self, t: float):
        """Particles whose boxes ended by t become candidates at t."""
        lo = self.ei
        self.ei = bisect_right(self.exit_t, t, lo)
        for q in range(lo, self.ei):
            i, tau = self.exits[q], self.exit_t[q]
            if self.d == 1:
                x = [self.exit_x[q]]
            else:   # the other coordinates only had to stay until tau
                x, jx, dt = self.pos[i].tolist(), self.xdim[i], tau - float(self.tr[i])
                for j in range(self.d):
                    if j == jx:
                        x[j] = self.exit_x[q]
                    elif dt > 0.0:
                        x[j] = _Interval.read_one(x[j], float(self.half[i, j]), dt, 0.0, 0.0,
                                                  self.rng)
            s, z, r = math.sqrt(2.0 * (t - tau)), self.exit_z[q], self.m
            self.m += 1
            self.row[i], self.cslot[r] = r, i
            for j in range(self.d):
                self.cpos[r, j] = x[j] + s * z[j]

    def _read_all(self, t: float, count: int) -> int:
        """Read every particle at t; return the furthest (lowest label on
        ties).  Every position is then known, so an internal window opens
        at t and g is recomputed."""
        self._read(np.flatnonzero(self.row < 0), t)
        self.pos[self.cslot[:self.m]] = self.cpos[:self.m]
        sq = np.einsum("ij,ij->i", self.pos, self.pos)
        f = int(sq.argmax())
        if not math.isfinite(sq[f]):
            raise SimulationError(f"nonfinite position at event {count} (t={t:.6g})")
        self._open(t, min(t + self.span, self.end))
        return f

    def _read(self, idx: np.ndarray, t: float):
        """Read the boxed particles idx at t, all coordinates at once."""
        idx = idx[self.tr[idx] < t]
        if not idx.size:
            return
        d = self.d
        side = np.where(np.arange(d) == self.xdim[idx, None], self.xside[idx, None], 0.0)
        z = _Interval.draw_read(self.pos[idx].ravel(), self.half[idx].ravel(),
                                np.repeat(t - self.tr[idx], d),
                                np.repeat(self.hor[idx] - t, d), side.ravel(), self.rng)
        self.pos[idx], self.tr[idx] = z.reshape(-1, d), t

    def _read_one(self, i: int, t: float) -> np.ndarray:
        """Read boxed particle i at t (its row of ``pos``), one
        coordinate at a time with :meth:`_Interval.read_one`."""
        x = self.pos[i]
        dt = t - float(self.tr[i])
        if dt <= 0.0:
            return x
        self.tr[i] = t
        rest = float(self.hor[i]) - t   # > 0: boxes that ended by t were left in _exits
        for j in range(self.d):
            side = float(self.xside[i]) if j == self.xdim[i] else 0.0
            x[j] = _Interval.read_one(float(x[j]), float(self.half[i, j]), dt, rest, side,
                                      self.rng)
        return x


# ---------------------------------------------------------------------------
# Brownian motion in an interval
# ---------------------------------------------------------------------------

def _min_ratio(w, t) -> float:
    """The smallest w^2 / t over a batch (inf where t = 0 or the batch is empty)."""
    with np.errstate(divide="ignore"):
        rho = np.asarray(w * w / t)
    return float(rho.min()) if rho.size else math.inf


class _Interval:
    """Exact laws of a Brownian motion of variance 2t (diffusivity sqrt(2),
    as every particle here) in an open interval of width ``w``.

    A point is given by its distance ``a`` from one end (``w - a`` from the
    other); every law is symmetric under that swap.  Arguments are numpy
    arrays that broadcast.  Each law is a method-of-images series, cut where
    a bound on its remainder falls below ``_TAIL``.  The number of terms
    grows as rho = w^2 / t falls (the smallest rho of the batch sets it), so
    callers keep rho away from 0: :class:`_Swarm` keeps rho >= 4, where no
    series needs more than seven terms.

    The one-sided limits (w -> inf) are the reflection-principle laws: a
    bridge from a to b over time t crosses the end with probability
    exp(-a b / t), and the first passage through it at time u has density
    (a / u) phi_u(a), phi_u the N(0, 2u) density.  ``1 - leave_prob`` is
    the survival of Brownian motion killed outside (-R, R), which
    :func:`survival_curve` would need to kill exactly between grid times in
    d = 1; it does not use it yet (ROADMAP item 5).
    """

    @staticmethod
    def leave_prob(a, w, t):
        """P(leave by time t) = 2 sum_n (-1)^n [Q((n w + a)/s) + Q(((n+1) w - a)/s)],
        n >= 0, with Q the normal tail and s = sqrt(2t); 0 where t = 0.  The
        terms alternate and fall, so the remainder is below the first
        dropped term, 4 Q(n sqrt(rho / 2))."""
        a, w, t = np.broadcast_arrays(np.asarray(a, float), np.asarray(w, float),
                                      np.asarray(t, float))
        rho = _min_ratio(w, t)
        total = np.zeros(a.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sqrt(2.0 * t)
            n, sign = 0, 2.0
            while True:
                total += sign * (ndtr(-(n * w + a) / s) + ndtr(-((n + 1) * w - a) / s))
                n, sign = n + 1, -sign
                if 2.0 * math.erfc(0.5 * n * math.sqrt(rho)) < _TAIL:
                    break
        return np.where(t > 0.0, total, 0.0)

    @staticmethod
    def bridge_stay(a, b, w, t, near=False):
        """P(the Brownian bridge from a to b over time t stays inside)
        = sum_k [exp(-k w (k w + b - a) / t) - exp(-(a + k w)(b + k w) / t)]
        over all integers k.  Every term with |k| > K is below
        exp(-K^2 rho), so 8 exp(-K^2 rho) bounds the remainder.  With
        ``near`` it is divided by the k = 0 term 1 - exp(-a b / t), the
        probability of staying on the near side of the end a and b are
        measured from."""
        rho = _min_ratio(w, t)
        lead = -np.expm1(-a * b / t)
        rest = np.zeros(np.broadcast(a, b, w, t).shape)
        k = 0
        while 8.0 * math.exp(-k * k * rho) >= _TAIL:
            k += 1
            kw = k * w
            rest += (np.exp(-kw * (kw + b - a) / t) + np.exp(-kw * (kw - b + a) / t)
                     - np.exp(-(a + kw) * (b + kw) / t) - np.exp(-(a - kw) * (b - kw) / t))
        return 1.0 + rest / lead if near else lead + rest

    @staticmethod
    def passage_ratio(a, w, u):
        """The density of the first exit at time u through the near end
        (a from it), sum_k ((a + 2 k w) / u) phi_u(a + 2 k w), over its
        one-sided value (a / u) phi_u(a).  With alpha = k w a / u and
        rho = w^2 / u the terms k and -k pair to
        2 e^{-k^2 rho} [cosh(alpha) - 2 k^2 rho sinh(alpha) / alpha], below
        (2 + 4 k^2 rho) e^{-k (k - 1) rho} in size; the pairs past K sum to
        at most twice the first one."""
        rho_min = _min_ratio(w, u)
        rho = w * w / u
        ratio = np.ones(np.broadcast(a, w, u).shape)
        k = 0
        while 2.0 * (2.0 + 4.0 * (k + 1) ** 2 * rho_min) * math.exp(-k * (k + 1) * rho_min) \
                >= _TAIL:
            k += 1
            alpha = np.maximum(k * w * a / u, 1e-300)
            up = np.exp(alpha - k * k * rho)
            ratio += (up * (1.0 - 2.0 * k * k * rho * (-np.expm1(-2.0 * alpha) / alpha))
                      + np.exp(-alpha - k * k * rho))
        return ratio

    @classmethod
    def stay_accept(cls, y, z, c, dt, rest):
        """Acceptance of the proposal z ~ y + N(0, 2 dt) in (-c, c) for a
        coordinate that stays inside for ``rest`` after the read: the
        bridge stays, then the coordinate stays from z."""
        zc = np.clip(z, -c, c)
        w = 2.0 * c
        p = cls.bridge_stay(c - y, c - zc, w, dt)
        if np.any(rest > 0.0):
            p = p * (1.0 - cls.leave_prob(c - zc, w, rest))
        return np.where(np.abs(z) < c, p, 0.0)

    @classmethod
    def draw_exit(cls, x, c, t, rng):
        """Exact draws, for coordinates at x in (-c, c), of the first exit
        before time t: (time, side) with side +1 or -1, or (inf, 0) for a
        coordinate that stays.  Whether it leaves is a uniform against
        ``leave_prob``.  Then a side is proposed in proportion to its
        one-sided probability of a hit by t and a time from the one-sided
        first-passage law cut at t, and accepted with ``passage_ratio``."""
        w = 2.0 * c
        tau = np.full(x.shape, math.inf)
        side = np.zeros(x.shape)
        todo = np.flatnonzero(rng.random(x.size) < cls.leave_prob(c - x, w, t))
        s = math.sqrt(2.0 * t)
        while todo.size:
            xt, ct = x[todo], c[todo]
            q_hi, q_lo = ndtr((xt - ct) / s), ndtr(-(ct + xt) / s)
            u = rng.random((3, todo.size))
            up = u[0] * (q_hi + q_lo) < q_hi
            a = np.where(up, ct - xt, ct + xt)
            z = ndtri((1.0 - u[1]) * np.where(up, q_hi, q_lo))
            when = 0.5 * (a / z) ** 2
            ok = u[2] < cls.passage_ratio(a, 2.0 * ct, when)
            tau[todo[ok]] = when[ok]
            side[todo[ok]] = np.where(up, 1.0, -1.0)[ok]
            todo = todo[~ok]
        return tau, side

    @classmethod
    def read_one(cls, y, c, dt, rest, side, rng):
        """One draw of :meth:`draw_read` from Python floats.  Its acceptance
        p is squeezed by one-sided laws, so the series runs only for a
        uniform that falls between the bounds.  Staying: the union bound over
        both ends of the bridge crossings exp(-a b / dt) and the hits
        erfc(b / (2 sqrt(rest))) bounds p below, either end alone above.
        Leaving: with a, eta the distances from the exit end and w = 2c,
        p >= (1 - exp(-(w - a)(w - eta) / dt) / (1 - exp(-a eta / dt)))
        (1 - 4 rho exp(-w (w - eta) / rest) - 17 rho exp(-2 rho)),
        rho = w^2 / rest >= 4, from the terms of ``passage_ratio``."""
        w, sd = 2.0 * c, math.sqrt(2.0 * dt)
        if side:
            a, span = c - side * y, dt + rest
            mean, sd = a * rest / span, math.sqrt(2.0 * dt * rest / span)
            rho = w * w / rest
            tail = 17.0 * rho * math.exp(-2.0 * rho)
        while True:
            if side:
                g = rng.standard_normal(3)
                eta = math.sqrt((mean + sd * g[0]) ** 2 + (sd * g[1]) ** 2 + (sd * g[2]) ** 2)
                z = side * (c - eta)
                if not eta < w:
                    if eta != eta:
                        raise SimulationError("nonfinite position in a conditioned read")
                    continue
                u = rng.random()
                near = -math.expm1(-a * eta / dt)
                low = (max(0.0, 1.0 - math.exp(-(w - a) * (w - eta) / dt) / near)
                       * max(0.0, 1.0 - 4.0 * rho * math.exp(-w * (w - eta) / rest) - tail))
                if u < low or u < cls.bridge_stay(a, eta, w, dt, near=True) \
                        * cls.passage_ratio(eta, w, rest):
                    return z
                continue
            z = y + sd * rng.standard_normal()
            if not -c < z < c:
                if z != z:
                    raise SimulationError("nonfinite position in a conditioned read")
                continue
            u = rng.random()
            cross_hi = math.exp(-(c - y) * (c - z) / dt)
            cross_lo = math.exp(-(c + y) * (c + z) / dt)
            hit_hi = math.erfc((c - z) / (2.0 * math.sqrt(rest))) if rest > 0.0 else 0.0
            hit_lo = math.erfc((c + z) / (2.0 * math.sqrt(rest))) if rest > 0.0 else 0.0
            if u < (1.0 - cross_hi - cross_lo) * (1.0 - hit_hi - hit_lo):
                return z
            if u < min((1.0 - cross_hi) * (1.0 - hit_hi), (1.0 - cross_lo) * (1.0 - hit_lo)) \
                    and u < cls.stay_accept(y, z, c, dt, rest):
                return z

    @classmethod
    def draw_read(cls, y, c, dt, rest, side, rng):
        """Exact rejection reads, dt after a read at y in (-c, c), of
        coordinates that stay inside for ``rest`` more (side 0) or first
        leave after ``rest`` more through ``side`` (+1 or -1).  A staying
        coordinate proposes y + N(0, 2 dt) and accepts with
        :meth:`stay_accept`.  A leaving one proposes the first-passage
        bridge, whose distance to the exit end is a 3-d Bessel bridge (the
        norm of a 3-d Brownian bridge to 0), and accepts with the two-sided
        over the one-sided bridge and passage laws, both <= 1."""
        z = np.empty(y.shape)
        todo, reps = np.arange(y.size), 1
        while todo.size:
            at = np.tile(todo, reps)
            yt, ct, dtt, rt, st = y[at], c[at], dt[at], rest[at], side[at]
            prop, p = np.empty(at.size), np.empty(at.size)
            i = np.flatnonzero(st == 0.0)
            if i.size:
                prop[i] = yt[i] + np.sqrt(2.0 * dtt[i]) * rng.standard_normal(i.size)
                p[i] = cls.stay_accept(yt[i], prop[i], ct[i], dtt[i], rt[i])
            j = np.flatnonzero(st != 0.0)
            if j.size:
                sj, cj, dj, uj = st[j], ct[j], dtt[j], rt[j]
                a, span = cj - sj * yt[j], dj + uj
                g = rng.standard_normal((j.size, 3)) * np.sqrt(2.0 * dj * uj / span)[:, None]
                g[:, 0] += a * uj / span
                eta = np.minimum(np.sqrt(np.einsum("ij,ij->i", g, g)), 2.0 * cj)
                prop[j] = sj * (cj - eta)
                p[j] = np.where(eta < 2.0 * cj,
                                cls.bridge_stay(a, eta, 2.0 * cj, dj, near=True)
                                * cls.passage_ratio(eta, 2.0 * cj, uj), 0.0)
            if not np.isfinite(prop).all():
                raise SimulationError("nonfinite position in a conditioned read")
            ok = (rng.random(at.size) < p).reshape(reps, todo.size)
            hit = ok.any(axis=0)
            first = ok.argmax(axis=0)[hit]
            z[todo[hit]] = prop.reshape(reps, todo.size)[first, np.flatnonzero(hit)]
            todo = todo[~hit]
            # the coordinates left are the hard ones: try many proposals each
            # and keep the first accepted, which is still one rejection sample
            reps = max(1, 1024 // max(todo.size, 1))
        return z


# ---------------------------------------------------------------------------
# Red/blue coupling: the free BBM with the N-particle system as its blue subset
# ---------------------------------------------------------------------------

@dataclass
class BbmForest:
    """The free BBM grown by :func:`coupled_run`: positions and colours.

    A particle's identity is its forest index: the initial particles are
    0, ..., N-1, and each branching appends its child at the next index.
    ``blue`` marks the selected subpopulation of fixed size N.
    """

    dim: int
    positions: np.ndarray
    clock: float
    blue: np.ndarray

    @property
    def population(self) -> int:
        return self.positions.shape[0]


_POPULATION_CAP = 10_000_000


@dataclass(frozen=True)
class CoupledObservation:
    """The sorted blue and forest norms at one ``record_schedule`` time, and
    whether the blue count below every radius is at most the forest's
    (capped at N).  That count form holds for any N particles of the forest,
    so it cannot tell a wrong selection rule from the right one."""

    time: float
    blue_norms: np.ndarray
    all_norms: np.ndarray
    dominated: bool          # F^N <= C_1 F^+ over all radii
    blue_count: int


@dataclass(frozen=True)
class CoupledRunResult:
    """A :func:`coupled_run`: its observations, the final blues and forest,
    the number of branchings, ``domination_ok`` (every observation
    ``dominated``) and ``reconstruction_ok`` (at every blue event the blue
    that turned red was a furthest blue)."""

    observations: list[CoupledObservation]
    blue_final: ParticleEnsemble
    forest_final: BbmForest
    events: int
    domination_ok: bool
    reconstruction_ok: bool


def _dominated(blue_norms: np.ndarray, all_norms: np.ndarray, n: int) -> bool:
    """Check count_blue(< r) <= min(count_all(< r), N) at each norm + 1e-12 (sorted norms)."""
    radii = np.concatenate((blue_norms, all_norms)) + 1e-12
    f_blue = np.searchsorted(blue_norms, radii, side="left")
    f_all = np.searchsorted(all_norms, radii, side="left")
    return bool(np.all(f_blue <= np.minimum(f_all, n)))


def _replay_rounds(parents: np.ndarray, children: np.ndarray) -> np.ndarray:
    """Each logged branching's round: 1 + that of the last earlier one whose parent
    or child is its parent (1 if none).  A round reads disjoint, drawn particles."""
    e = parents.size
    touch = np.concatenate((children, parents))   # a child's birth is its first touch
    order = np.argsort(touch, kind="stable")
    same = np.flatnonzero(np.diff(touch[order]) == 0)
    up = np.full(e, -1)
    up[order[same + 1] - e] = order[same] % e
    rounds = np.ones(e, dtype=np.intp)
    live = np.flatnonzero(up >= 0)
    while live.size:   # pointer doubling: rounds[i] counts the steps from i to up[i]
        a = up[live]
        rounds[live] += rounds[a]
        up[live] = up[a]
        live = live[up[live] >= 0]
    return rounds


def _furthest(norms: np.ndarray, ids: np.ndarray) -> int:
    """The row of the blue that turns red: the first max of ``norms``, or on
    exact ties the tied row with the lowest forest index ``ids``."""
    k = int(norms.argmax())
    same = norms == norms[k]
    if np.count_nonzero(same) > 1:
        tied = np.flatnonzero(same)
        k = int(tied[ids[tied].argmin()])
    return k


def coupled_run(params: SimParams, initial: ParticleEnsemble, duration: float,
                rng: np.random.Generator) -> CoupledRunResult:
    """One BBM driving both processes: ``forest_final`` is the free BBM
    (ResourceError past ``_POPULATION_CAP`` particles) and its blue subset
    evolves as the N-system.  ``params`` must match ``initial``'s N and d,
    and the ``record_schedule`` times must lie in the run, strictly
    increasing.

    When a blue particle branches both offspring are blue and the furthest
    blue (lowest forest index on exact ties) turns red; red particles breed
    red.  ``reconstruction_ok`` checks that at each blue event the blue that
    turns red has a norm at least that of every other blue, so is a
    furthest blue.  Each observation records whether the blue empirical CDF
    is dominated by the clipped BBM CDF; in its count form this holds for
    any N particles of the forest, so a wrong selection shows in
    ``reconstruction_ok`` and in the blues' law, not in ``domination_ok``.

    One clock drives the forest: with m particles the next branching comes
    after an Exp(m) gap at a uniform index below m (superposition and
    memorylessness), drawn in blocks since m grows by one per event.
    Positions are drawn only when read, as sqrt(2 dt) standard normals over
    the time since the last read.  The N blues are one dense block that a
    blue event diffuses; a flipped blue is written to its forest row.  A red
    event only logs (time, parent, child) in typed arrays, replayed at each
    observation and at the end in rounds, parents before children; then
    every particle is read.  This is exact: the clock does not depend on
    positions, every read time is an event or observation time, Brownian
    increments over disjoint intervals are independent N(0, 2 dt I), and no
    selection acts on red particles, so their positions between reads enter
    no output.  The forest, blue set, observations and flags have the joint
    law of a loop that diffuses every particle across every gap.
    """
    _nonnegative("duration", duration)
    n, d = params.population, params.dim
    if (initial.population, initial.dim) != (n, d):
        raise ValueError(f"initial ensemble has N={initial.population}, d={initial.dim}; "
                         f"params say N={n}, d={d}")
    now = initial.clock
    end = initial.clock + duration
    schedule = [float(s) for s in params.record_schedule]
    outside = [s for s in schedule if not now <= s <= end + 1e-12]
    if outside:
        raise ValueError(f"record_schedule time {outside[0]!r} is outside [{now!r}, {end!r}]")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"record_schedule times must be strictly increasing, got {schedule}")
    # the forest is the first m rows of arrays that double when full
    m = n
    pos = np.concatenate((initial.positions, np.empty((n, d))))
    last = np.full(2 * n, now)               # time each position was last drawn
    cap = min(2 * n, _POPULATION_CAP)        # at m = cap the arrays grow or the run stops
    # the blues, drawn at b_clock, and their forest indices (their forest
    # rows are stale); row n takes a blue event's child
    block = np.concatenate((initial.positions, np.empty((1, d))))
    ids = np.arange(n + 1)
    row = {i: i for i in range(n)}         # forest index -> block row
    b_clock = now
    step, norms = np.empty((n, d)), np.empty(n + 1)
    red_t, red_p, red_c = array("d"), array("q"), array("q")   # unread red branchings
    blue = None

    obs: list[CoupledObservation] = []
    events = 0
    domination_ok = reconstruction_ok = True

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
        nonlocal blue
        diffuse_blues(at)
        on = ids[:n]
        pos[on], last[on] = block[:n], at
        if red_t:
            t_rec, parents, children = (np.array(a) for a in (red_t, red_p, red_c))
            del red_t[:], red_p[:], red_c[:]
            rounds = _replay_rounds(parents, children)
            cuts = np.cumsum(np.bincount(rounds)[1:-1])   # rounds are 1, 2, ...
            for r in np.split(np.argsort(rounds, kind="stable"), cuts):
                p, c, t = parents[r], children[r], t_rec[r]
                pos[c], last[c] = read(p, t), t
        read(np.flatnonzero(last[:m] < at), at)
        blue = np.zeros(m, dtype=bool)
        blue[on] = True

    def observe(at: float):
        nonlocal domination_ok
        all_norms = np.sqrt(np.einsum("ij,ij->i", pos[:m], pos[:m]))
        blue_norms = np.sort(all_norms[blue])
        all_norms.sort()
        ok = _dominated(blue_norms, all_norms, n)
        domination_ok = domination_ok and ok
        obs.append(CoupledObservation(at, blue_norms, all_norms, ok, int(blue.sum())))

    gaps, picks, i, stop = [], [], 0, now
    while True:
        if i == len(gaps):
            rates = m + np.arange(_CLOCK_BLOCK)
            gaps = (rng.standard_exponential(_CLOCK_BLOCK) / rates).tolist()
            picks = rng.integers(0, rates).tolist()
            i = 0
        t_next, idx = now + gaps[i], picks[i]
        i += 1
        if t_next >= stop:   # stop: the next observation or the end
            while schedule and schedule[0] <= min(t_next, end):
                at = schedule.pop(0)
                read_all(at)
                observe(at)
            if t_next >= end:
                break
            stop = min(schedule[0], end) if schedule else end
        now = t_next
        events += 1
        if m >= cap:
            if m >= _POPULATION_CAP:
                raise ResourceError(f"coupled BBM population exceeded cap {_POPULATION_CAP}")
            pos, last = (np.concatenate((a, np.empty_like(a))) for a in (pos, last))
            cap = min(len(last), _POPULATION_CAP)
        child, m = m, m + 1
        j = row.get(idx)
        if j is None:   # red: read at the next observation or the end
            red_t.append(now)
            red_p.append(idx)
            red_c.append(child)
            continue

        diffuse_blues(now)
        block[n], ids[n] = block[j], child
        np.einsum("ij,ij->i", block, block, out=norms)
        np.sqrt(norms, out=norms)
        top = norms[norms.argmax()]   # the first NaN, else the max
        if not math.isfinite(top):
            raise SimulationError(f"nonfinite position at event {events}")
        k = _furthest(norms, ids)
        reconstruction_ok = reconstruction_ok and bool(norms[k] >= top)
        flip = int(ids[k])
        pos[flip], last[flip] = block[k], now
        del row[flip]
        if k < n:   # the child takes the flipped blue's row
            block[k], ids[k], row[child] = block[n], child, k

    read_all(end)
    for target in schedule:
        observe(target)

    pos = pos[:m].copy()
    return CoupledRunResult(obs, ParticleEnsemble(d, pos[blue], end), BbmForest(d, pos, end, blue),
                            events, domination_ok, reconstruction_ok)


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
    if not (np.isfinite(x).all() and np.isfinite(xp).all()):
        raise ValueError("start points must be finite")
    if np.any(_norms(x) > _norms(xp) + 1e-12):
        raise ValueError("need ||x|| <= ||x_plus|| pairwise")
    n, d = x.shape
    times = np.concatenate(([0.0], np.asarray(sample_times, dtype=float)))
    if not (np.isfinite(times).all() and np.all(np.diff(times) > 0.0)):
        raise ValueError("sample times must be finite, strictly increasing and positive")
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

def _radius_at(boundary, s: float) -> float:
    """R(s) as a float, else ``ValueError`` naming ``boundary`` when it is
    NaN or not positive; inf kills nothing."""
    r = float(boundary(s) if callable(boundary) else boundary)
    if not r > 0.0:
        raise ValueError(f"boundary must be positive (inf allowed), got {r!r} at time {s!r}")
    return r


def survival_curve(dim: int, x: np.ndarray, boundary, t_grid: np.ndarray,
                   n_samples: int, rng: np.random.Generator, dt: float) -> np.ndarray:
    """Fraction of Brownian paths from x never leaving the moving ball
    ||B|| < R(s), where ``boundary`` is R (a callable of time) or a constant.

    Killing is checked at steps of dt only, so survival is overestimated by
    a one-sided O(sqrt(dt)) discretization bias.  ``t_grid`` must be strictly
    increasing positive whole multiples of dt (``core.whole_steps``).  A NaN
    or nonpositive radius raises ``ValueError``, a constant one before any
    path runs.  Paths run in chunks of at most 100k.
    """
    if np.shape(x) != (dim,):
        raise ValueError(f"x must have shape ({dim},), got {np.shape(x)}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x!r}")
    _integer("n_samples", n_samples, 1)
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or not t_grid.size or not np.all(np.isfinite(t_grid))
            or t_grid[-1] <= 0.0):
        raise ValueError("t_grid must be a nonempty 1-d sequence of finite times "
                         "ending after 0")
    _positive("dt", dt)
    at = [whole_steps(float(t), dt, "t_grid time", "dt") for t in t_grid]
    if at[0] < 1 or any(b <= a for a, b in zip(at, at[1:])):
        raise ValueError(f"t_grid must be strictly increasing positive multiples of dt = {dt:g}")
    if not callable(boundary):
        _radius_at(boundary, 0.0)
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
            r_lim = _radius_at(boundary, k * dt)
            if math.isfinite(r_lim):
                dead = _norms(pos[live_idx]) >= r_lim
                alive[live_idx[dead]] = False
            if k in record:
                alive_at[record[k]] += alive.sum()
        done += m
    return alive_at / n_samples
