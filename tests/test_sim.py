import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

from nbbm.core import ParticleEnsemble
from nbbm.experiments import PointMassSampler, _replica, _selection_replica
from nbbm import sim
from nbbm.sim import (BbmForest, CoupledObservation, CoupledRunResult, EventLog,
                      ResourceError, SimParams, SimulationError, _dominated, _Interval,
                      _replay_rounds, advance_nbbm,
                      coupled_run, replica_rng, spherically_ordered_pairs, survival_curve)


def origin_ensemble(n, d):
    return ParticleEnsemble(d, np.zeros((n, d)))


def free_bbm(ens, duration, rng):
    """The free BBM grown from ``ens``: the forest of the red/blue coupling."""
    params = SimParams(dim=ens.dim, population=ens.population)
    return coupled_run(params, ens, duration, rng).forest_final


class _CountingRng:
    """A generator that counts the standard normals drawn through it."""

    def __init__(self, rng):
        self._rng = rng
        self.normals = 0

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self.normals += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _NanRng(_CountingRng):
    """A generator whose standard normals are all NaN."""

    def standard_normal(self, *args, **kwargs):
        out = super().standard_normal(*args, **kwargs)
        out[...] = np.nan
        return out


def reference_advance_nbbm(state, duration, rng):
    """The dense per-event loop that ``advance_nbbm`` replaced: every
    particle diffuses across every gap.  Its RNG stream differs from the
    engine's, so tests compare the two in law."""

    def diffuse(pos, dt):
        if dt > 0.0:
            pos += rng.standard_normal(pos.shape) * math.sqrt(2.0 * dt)

    def apply_event(pos, when, log):
        sq = np.einsum("ij,ij->i", pos, pos)
        if not np.all(np.isfinite(sq)):
            raise SimulationError(f"nonfinite position at event {len(log)} (t={when:.6g})")
        k = int(rng.integers(pos.shape[0]))
        furthest = int(np.argmax(sq))  # ties resolve to the lowest index
        pos[furthest] = pos[k]
        log.times.append(when)
        log.branching.append(k)
        log.removed.append(furthest)

    n = state.population
    pos = state.positions.copy()
    log = EventLog()
    t_done = 0.0
    while True:
        gap = rng.exponential(1.0 / n)
        if t_done + gap >= duration:
            diffuse(pos, duration - t_done)
            break
        diffuse(pos, gap)
        t_done += gap
        apply_event(pos, state.clock + t_done, log)
    return ParticleEnsemble(state.dim, pos, state.clock + duration), log


def reference_coupled_run(params, initial, duration, rng, population_cap=10_000_000):
    """The heap-based ``coupled_run`` that the one-clock engine replaced:
    one Exp(1) clock per particle, a red event reading its parent and a
    blue event reading the N blues through fancy indexing.  Its RNG stream
    differs from the engine's, so tests compare the two in law."""
    n = params.population
    d = initial.dim
    now = initial.clock
    end = initial.clock + duration
    m, cap = n, 2 * n
    pos = np.empty((cap, d))
    pos[:n] = initial.positions
    last = np.full(cap, now)
    blue = np.ones(cap, dtype=bool)
    exceeded = np.zeros(cap, dtype=bool)
    tie_lineage = np.zeros(cap, dtype=bool)
    blue_idx = np.arange(n + 1)            # sorted blue indices; slot n takes a blue child

    heap = list(zip((now + rng.exponential(1.0, n)).tolist(), range(n)))
    heapq.heapify(heap)
    schedule = [s for s in params.record_schedule
                if initial.clock <= s <= end + 1e-12]
    obs = []
    events = 0
    domination_ok = True
    reconstruction_ok = True

    def read(idx):
        x = pos[idx]
        x = x + rng.standard_normal(x.shape) * np.sqrt(2.0 * (now - last[idx]))[..., None]
        if not np.isfinite(x).all():
            raise SimulationError(f"nonfinite position at event {events}")
        pos[idx] = x
        last[idx] = now

    def read_all():
        nonlocal reconstruction_ok
        read(np.flatnonzero(last[:m] < now))
        check = tie_lineage[:m] | (~exceeded[:m] == blue[:m])
        reconstruction_ok = reconstruction_ok and bool(np.all(check))

    def observe(at):
        nonlocal domination_ok
        norms = np.sqrt(np.einsum("ij,ij->i", pos[:m], pos[:m]))
        on = blue[:m]
        ok = _dominated(np.sort(norms[on]), np.sort(norms), n)
        domination_ok = domination_ok and ok
        obs.append(CoupledObservation(at, np.sort(norms[on]), np.sort(norms),
                                      ok, int(on.sum())))

    while True:
        next_event = heap[0][0] if heap else math.inf
        if schedule and schedule[0] <= min(next_event, end):
            now = schedule.pop(0)
            read_all()
            observe(now)
            continue
        if next_event >= end:
            now = end
            read_all()
            break
        now, idx = heapq.heappop(heap)
        events += 1
        parent_blue = bool(blue[idx])
        read(blue_idx[:n] if parent_blue else idx)

        if m == cap:
            cap *= 2
            pos, last, blue, exceeded, tie_lineage = (
                np.concatenate((a, np.empty_like(a))) for a in
                (pos, last, blue, exceeded, tie_lineage))
        child = m
        m += 1
        pos[child] = pos[idx]
        last[child] = now
        blue[child] = parent_blue
        exceeded[child] = exceeded[idx]
        tie_lineage[child] = tie_lineage[idx]
        if m > population_cap:
            raise ResourceError(f"coupled BBM population exceeded cap {population_cap}")
        heapq.heappush(heap, (now + rng.exponential(1.0), idx))
        heapq.heappush(heap, (now + rng.exponential(1.0), child))

        if parent_blue:
            blue_idx[n] = child
            x = pos[blue_idx]
            norms = np.sqrt(np.einsum("ij,ij->i", x, x))
            k = int(np.argmax(norms))   # ties resolve to the lowest forest index
            if not math.isfinite(norms[k]):
                raise SimulationError(f"nonfinite blue norm at event {events}")
            flip = int(blue_idx[k])
            blue[flip] = False
            m_blue = float(max(norms[:k].max(initial=-math.inf),
                               norms[k + 1:].max(initial=-math.inf)))
            if norms[k] <= m_blue + 1e-15:
                tie_lineage[flip] = True
            exceeded[blue_idx] |= norms > m_blue
            check = tie_lineage[blue_idx] | (~exceeded[blue_idx] == blue[blue_idx])
            reconstruction_ok = reconstruction_ok and bool(np.all(check))
            blue_idx[k:n] = blue_idx[k + 1:]

    while schedule:
        target = schedule.pop(0)
        if target > now + 1e-12:
            break
        observe(target)

    pos, blue = pos[:m].copy(), blue[:m].copy()
    return CoupledRunResult(obs, ParticleEnsemble(d, pos[blue], now),
                            BbmForest(d, pos, now, blue), events,
                            domination_ok, reconstruction_ok)


def dominated_unique(blue_norms, all_norms, n):
    """``sim._dominated`` before it took sorted norms: unsorted inputs, and
    the radii their sorted union."""
    radii = np.unique(np.concatenate((blue_norms, all_norms))) + 1e-12
    f_blue = np.searchsorted(np.sort(blue_norms), radii, side="left")
    f_all = np.searchsorted(np.sort(all_norms), radii, side="left")
    return bool(np.all(f_blue <= np.minimum(f_all, n)))


def dict_rounds(parents, children):
    """Replay rounds as ``reference_one_clock_run`` builds them, one dict
    entry per particle."""
    depth, rounds = {}, []
    for p, c in zip(parents, children):
        r = depth[p] = depth[c] = depth.get(p, 0) + 1
        rounds.append(r)
    return rounds


def reference_one_clock_run(params, initial, duration, rng):
    """The one-clock ``coupled_run`` with the blues' flags in forest order,
    red branchings logged as tuples and replayed in dict-built rounds, and
    three sorts per observation.  It draws the same stream as
    ``coupled_run``, so tests compare the two bit for bit."""
    n, d = params.population, params.dim
    now = initial.clock
    end = initial.clock + duration
    m = n
    pos = np.empty((2 * n, d))
    pos[:n] = initial.positions
    last = np.full(2 * n, now)
    exceeded = np.zeros(2 * n, dtype=bool)
    tie_lineage = np.zeros(2 * n, dtype=bool)
    block = np.empty((n + 1, d))
    block[:n] = initial.positions
    ids = np.arange(n + 1)
    row = {i: i for i in range(n)}
    b_clock = now
    step, norms = np.empty((n, d)), np.empty(n + 1)
    pending = []
    blue = None

    schedule = [s for s in params.record_schedule
                if initial.clock <= s <= end + 1e-12]
    obs = []
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
            rounds = {}
            for e, r in enumerate(dict_rounds([p for _, p, _ in pending],
                                              [c for _, _, c in pending])):
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

    def observe(at):
        nonlocal domination_ok
        all_norms = np.sqrt(np.einsum("ij,ij->i", pos[:m], pos[:m]))
        ok = dominated_unique(all_norms[blue], all_norms, n)
        domination_ok = domination_ok and ok
        obs.append(CoupledObservation(at, np.sort(all_norms[blue]), np.sort(all_norms),
                                      ok, int(blue.sum())))

    gaps, picks, i = [], [], 0
    while True:
        if i == len(gaps):
            rates = m + np.arange(sim._CLOCK_BLOCK)
            gaps = (rng.standard_exponential(sim._CLOCK_BLOCK) / rates).tolist()
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
        if m > sim._POPULATION_CAP:
            raise ResourceError(f"coupled BBM population exceeded cap {sim._POPULATION_CAP}")
        j = row.get(idx)
        if j is None:
            pending.append((now, idx, child))
            continue

        diffuse_blues(now)
        block[n] = block[j]
        np.einsum("ij,ij->i", block, block, out=norms)
        np.sqrt(norms, out=norms)
        k = int(norms.argmax())
        top = norms[k]
        if not math.isfinite(top):
            raise SimulationError(f"nonfinite position at event {events}")
        m_blue = max(norms[:k].max(initial=-math.inf), norms[k + 1:].max(initial=-math.inf))
        ids[n] = child
        exceeded[child], tie_lineage[child] = exceeded[idx], tie_lineage[idx]
        tie = top <= m_blue + 1e-15
        if tie:
            tied = np.flatnonzero(norms == top)
            k = int(tied[ids[tied].argmin()])
        flip = int(ids[k])
        tie_lineage[flip] |= tie
        exceeded[ids] |= norms > m_blue
        wrong = exceeded[ids] > tie_lineage[ids]
        wrong[k] = not (exceeded[flip] or tie_lineage[flip])
        reconstruction_ok = reconstruction_ok and not wrong.any()
        pos[flip], last[flip] = block[k], now
        del row[flip]
        if k < n:
            block[k], ids[k], row[child] = block[n], child, k

    now = end
    read_all(end)
    for target in schedule:
        observe(target)

    pos = pos[:m].copy()
    return CoupledRunResult(obs, ParticleEnsemble(d, pos[blue], now), BbmForest(d, pos, now, blue),
                            events, domination_ok, reconstruction_ok)


def far_start(n, d):
    """n particles near the origin and particle 1 at 1e200, whose squared
    norm overflows to inf."""
    pos = replica_rng(31, 0).standard_normal((n, d))
    pos[1, 0] = 1e200
    return ParticleEnsemble(d, pos)


class TestAdvanceNbbm:
    @pytest.mark.slow
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_loop(self, d, monkeypatch):
        # the lazy engine against the dense loop in law, at N = 2, 50 and
        # 400 over 300 replicas each: two-sample KS tests of the final max
        # radius, the empirical CDF at two radii and the event count.  The
        # smallest exit cost boxes every particle with room, so the box
        # laws, exits and conditioned reads all run.
        monkeypatch.setattr(sim, "_EXIT_COST", 1e-9)
        for n in (2, 50, 400):
            duration = 1.2 if n < 400 else 0.35
            start = ParticleEnsemble(d, replica_rng(30, n).standard_normal((n, d)),
                                     clock=0.25)
            got, ref, normals, events = [], [], 0, 0
            for rep in range(300):
                rng = _CountingRng(replica_rng(41, rep))
                out, log = advance_nbbm(start, (duration / 2, duration / 2), rng)
                normals, events = normals + rng.normals, events + len(log)
                dense, dense_log = reference_advance_nbbm(start, duration, replica_rng(42, rep))
                for row, ens, k in ((got, out, len(log)), (ref, dense, len(dense_log))):
                    r = ens.norms()
                    row.append((r.max(), np.mean(r < 1.0), np.mean(r < 2.0), k))
            got, ref = np.array(got), np.array(ref)
            for j in range(got.shape[1]):
                assert stats.ks_2samp(got[:, j], ref[:, j]).pvalue > 1e-3, (n, j)
            if n == 400:
                assert normals < 0.5 * n * d * events

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_windows_match_chained_reference(self, d):
        # one call over the windows has the bits of one call per window, all
        # drawing from one generator
        windows = (0.0, 0.05, 0.7, 0.0, 0.3)
        for n in (1, 2, 50, 400):
            start = ParticleEnsemble(d, replica_rng(33, n).standard_normal((n, d)),
                                     clock=0.25)
            for seed in (0, 1, 2**40 + 3):
                out, log = advance_nbbm(start, windows, replica_rng(seed, d))
                rng = replica_rng(seed, d)
                cur, reads, times, branching, removed = start, [], [], [], []
                for duration in windows:
                    cur, one_log = advance_nbbm(cur, duration, rng)
                    reads.append(cur)
                    times += one_log.times.tolist()
                    branching += one_log.branching.tolist()
                    removed += one_log.removed.tolist()
                assert len(log.reads) == len(windows)
                for got, ref in zip(log.reads, reads):
                    assert np.array_equal(got.positions, ref.positions)
                    assert got.clock == ref.clock
                assert out is log.reads[-1]
                assert log.times.tolist() == times
                assert log.branching.tolist() == branching
                assert log.removed.tolist() == removed

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_boxes_lie_inside_the_gate(self, d):
        # a boxed particle is inside its box and its box's corners are
        # within the gate, so a candidate at the gate or beyond is the
        # furthest particle without reading the boxed ones
        pos = replica_rng(44, d).standard_normal((3000, d))
        swarm = sim._Swarm(pos.copy(), replica_rng(45, d))
        swarm.reset(0.0, 1.0)
        swarm._open(0.0, swarm.span)
        boxed = np.flatnonzero(swarm.row < 0)
        assert 0 < boxed.size < 3000
        assert np.all(np.abs(pos[boxed]) < swarm.half[boxed])
        assert np.all(np.einsum("ij,ij->i", swarm.half[boxed], swarm.half[boxed]) <= swarm.gate)
        cand = np.flatnonzero(swarm.row >= 0)
        assert np.array_equal(swarm.cslot[:swarm.m], cand)
        assert np.array_equal(swarm.cpos[:swarm.m], pos[cand])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exit_becomes_candidate(self, d):
        # a particle that leaves its box at tau becomes a candidate there, at
        # its box's side in the leaving coordinate and read inside it in the
        # others
        pos = replica_rng(46, d).uniform(-1.0, 1.0, (3000, d))
        swarm = sim._Swarm(pos.copy(), replica_rng(47, d))
        swarm.reset(0.0, 1.0)
        swarm._open(0.0, swarm.span)
        i, (tau, later) = swarm.exits[0], swarm.exit_t[:2]
        assert tau < later and swarm.row[i] < 0
        swarm._exits(tau)
        r, j = swarm.row[i], swarm.xdim[i]
        assert r >= 0 and swarm.cslot[r] == i
        assert swarm.cpos[r, j] == swarm.half[i, j] * swarm.xside[i]
        others = np.delete(swarm.cpos[r], j)   # read at tau, inside the box
        assert np.all((np.abs(others) < np.delete(swarm.half[i], j))
                      & (others != np.delete(pos[i], j)))
        # the rest leave by the window's end and diffuse freely from tau to it
        swarm._exits(swarm.s1)
        left = np.array(swarm.exits[1:])
        lag = swarm.s1 - np.array(swarm.exit_t[1:])
        jl = swarm.xdim[left]
        moved = swarm.cpos[swarm.row[left], jl] - swarm.half[left, jl] * swarm.xside[left]
        assert left.size > 100 and np.all(swarm.row[left] >= 0)
        assert stats.kstest(moved[lag > 0] / np.sqrt(2.0 * lag[lag > 0]), "norm").pvalue > 1e-3

    def test_exact_tie_goes_to_the_lowest_label(self):
        # two events at one time: the first copies the runner-up into the
        # furthest particle's row, so the second sees two equal rows at the
        # top and must remove the lower of their labels
        orders = set()
        for seed in range(40):
            swarm = sim._Swarm(np.linspace(0.1, 0.5, 5)[:, None], replica_rng(48, seed))
            swarm.reset(0.0, 1.0)
            swarm._open(0.0, 1.0)
            assert swarm.m == 5   # all candidates
            swarm._diffuse(0.5)
            first, second, third = np.argsort(-np.abs(swarm.cpos[:5, 0]))[:3]
            assert swarm.event(0.5, second, 0) == first
            assert swarm.event(0.5, third, 1) == min(first, second)
            orders.add(bool(first < second))
        assert orders == {True, False}

    def test_read_all_not_repeated_within_a_window(self, monkeypatch):
        # after an event that reads every particle an internal window opens
        # there, so no two consecutive events of one internal window both read
        # every particle (here, the KS tests' all-boxed setting at d = 2)
        monkeypatch.setattr(sim, "_EXIT_COST", 1e-9)
        opened, read_all = sim._Swarm._open, sim._Swarm._read_all
        windows, reads = [0], []

        def counting_open(swarm, s0, s1):
            windows[0] += 1
            opened(swarm, s0, s1)

        def counting_read_all(swarm, t, count):
            reads.append((count, windows[0]))
            return read_all(swarm, t, count)

        monkeypatch.setattr(sim._Swarm, "_open", counting_open)
        monkeypatch.setattr(sim._Swarm, "_read_all", counting_read_all)
        n, d = 400, 2
        start = ParticleEnsemble(d, replica_rng(30, n).standard_normal((n, d)), clock=0.25)
        for rep in range(100):
            advance_nbbm(start, (0.175, 0.175), replica_rng(41, rep))
        assert reads
        assert not any(b == (a[0] + 1, a[1]) for a, b in zip(reads, reads[1:]))

    def test_draws_few_normals_per_event(self):
        # the dense loop drew N d normals at every event; the lazy engine at
        # N = 2000, d = 1 near its stationary state draws fewer than a quarter
        n = 2000
        warm, _ = advance_nbbm(origin_ensemble(n, 1), 4.0, replica_rng(43, 0))
        rng = _CountingRng(replica_rng(43, 1))
        _, log = advance_nbbm(warm, 1.0, rng)
        assert rng.normals < n / 4 * len(log)

    @pytest.mark.parametrize("windows", [math.nan, math.inf, -0.1, (0.1, math.nan),
                                         (0.1, -1e-300), (0.2, math.inf), ()])
    def test_bad_windows_rejected(self, windows):
        with pytest.raises(ValueError, match="windows"):
            advance_nbbm(origin_ensemble(5, 1), windows, replica_rng(9, 0))

    @pytest.mark.parametrize("d", [1, 3])
    def test_nonfinite_norm_raises_at_first_event(self, d):
        with pytest.raises(SimulationError, match="at event 0 "):
            advance_nbbm(far_start(5, d), 1.0, replica_rng(32, 0))

    def test_population_and_clock(self):
        ens = origin_ensemble(50, 2)
        out, log = advance_nbbm(ens, 0.7, replica_rng(1, 0))
        assert out.population == 50
        assert out.clock == pytest.approx(0.7)
        assert len(log.times) == len(log.branching) == len(log.removed)
        assert [a.typecode for a in (log.times, log.branching, log.removed)] == ["d", "q", "q"]

    @pytest.mark.slow
    def test_selection_replica_memory(self):
        # a default selection replica (N=2000, t=15) logs ~32k events; as
        # Python lists at ~100 B an event its tracemalloc peak was 3.8 MB,
        # as typed arrays of 8 B an entry it is 1.2 MB
        tracemalloc.start()
        try:
            _replica(_selection_replica, 0, 0, 2000, 1, PointMassSampler(1),
                     (15.0, 1.0, 1.0, 0.05, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_zero_duration_identity(self):
        ens = ParticleEnsemble(1, replica_rng(2, 0).standard_normal((10, 1)))
        out, log = advance_nbbm(ens, 0.0, replica_rng(2, 1))
        assert np.array_equal(out.positions, ens.positions)
        assert len(log) == 0

    def test_single_particle_marginal(self):
        # with N = 1 every event is a no-op, so the law at t is N(0, 2t I)
        xs = np.array([advance_nbbm(origin_ensemble(1, 2), 0.5, replica_rng(3, rep))[0]
                       .positions[0] for rep in range(3000)])
        assert np.abs(xs.mean(axis=0)).max() < 4 * math.sqrt(1.0 / 3000)
        assert np.abs(xs.var(axis=0) - 1.0).max() < 0.1

    def test_event_rate(self):
        # branch events arrive at rate N: mean count over [0, t] is N t
        total = sum(len(advance_nbbm(origin_ensemble(100, 1), 2.0, replica_rng(4, rep))[1])
                    for rep in range(25))
        mean = total / 25
        assert abs(mean - 200.0) < 4 * math.sqrt(200.0 / 25)

    def test_bit_identical_replay(self):
        ens = ParticleEnsemble(3, replica_rng(5, 0).standard_normal((40, 3)))
        a, loga = advance_nbbm(ens, 1.0, replica_rng(5, 7))
        b, logb = advance_nbbm(ens, 1.0, replica_rng(5, 7))
        assert np.array_equal(a.positions, b.positions)
        assert loga.times == logb.times and loga.removed == logb.removed

    def test_label_exchangeability(self):
        # the removal/relabelling rule is label-symmetric in distribution
        reps = 1500
        norms = np.empty((reps, 6))
        for rep in range(reps):
            out, _ = advance_nbbm(origin_ensemble(6, 1), 1.5, replica_rng(6, rep))
            norms[rep] = out.norms()
        pooled = norms.ravel()
        bins = np.quantile(pooled, np.linspace(0, 1, 7)[1:-1])
        table = np.array([np.histogram(norms[:, k], bins=np.concatenate(
            ([-np.inf], bins, [np.inf])))[0] for k in range(6)])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.001


class TestAdvanceBbm:
    """The free BBM, advanced by coupled_run."""

    def test_zero_duration_identity(self):
        ens = origin_ensemble(3, 2)
        out = free_bbm(ens, 0.0, replica_rng(9, 0))
        assert out.population == 3
        assert np.array_equal(out.positions, ens.positions)

    def test_yule_population_moments(self):
        # population from one ancestor is geometric: mean e^t, var e^2t - e^t
        t = 2.0
        pops = np.array([free_bbm(origin_ensemble(1, 1), t, replica_rng(10, rep)).population
                         for rep in range(2500)])
        mean, var = math.exp(t), math.exp(2 * t) - math.exp(t)
        assert abs(pops.mean() - mean) < 4 * math.sqrt(var / 2500)

    def test_mean_from_m_particles(self):
        t = 1.0
        pops = np.array([free_bbm(origin_ensemble(5, 1), t, replica_rng(11, rep)).population
                         for rep in range(800)])
        mean = 5 * math.exp(t)
        var = 5 * (math.exp(2 * t) - math.exp(t))
        assert abs(pops.mean() - mean) < 4 * math.sqrt(var / 800)

    def test_population_cap(self, monkeypatch):
        monkeypatch.setattr(sim, "_POPULATION_CAP", 20)
        with pytest.raises(ResourceError, match="cap 20"):
            free_bbm(origin_ensemble(4, 1), 6.0, replica_rng(13, 0))


@pytest.fixture(scope="module")
def coupled_law_samples():
    """Four statistics of 300 coupled runs (d=2, N=50, t=1, observed at 0.5
    and 1) from ``coupled_run`` and from ``reference_coupled_run``."""
    n, d, reps = 50, 2, 300
    params = SimParams(dim=d, population=n, record_schedule=(0.5, 1.0))
    ens = ParticleEnsemble(d, replica_rng(34, 0).uniform(-1, 1, (n, d)))

    def sample(engine, seed):
        rows = []
        for rep in range(reps):
            res = engine(params, ens, 1.0, replica_rng(seed, rep))
            first, last = res.observations
            rows.append((res.forest_final.population, first.blue_norms[-1],
                         last.all_norms[-1], np.median(last.all_norms)))
        cols = np.array(rows).T
        return dict(zip(("final_population", "first_blue_max", "last_forest_max",
                         "last_forest_median"), cols))

    return sample(coupled_run, 35), sample(reference_coupled_run, 36)


class TestSimParams:
    @pytest.mark.parametrize("schedule", [(0.1, math.nan, math.inf), (math.nan,),
                                          (0.5, math.inf), (-0.1, 0.5), (0.5, 0.5),
                                          (0.5, 0.2)])
    def test_bad_record_schedule_rejected(self, schedule):
        # NaN fails every comparison, so (0.1, nan, inf) used to pass and
        # coupled_run dropped the nonfinite times without a word; the run
        # checks its schedule, once
        params = SimParams(dim=1, population=2, record_schedule=schedule)
        with pytest.raises(ValueError, match="record_schedule"):
            coupled_run(params, origin_ensemble(2, 1), 1.0, replica_rng(26, 0))


class TestCoupledRun:
    def test_domination_and_blue_count(self):
        params = SimParams(dim=2, population=100, record_schedule=(0.5, 1.0, 1.5))
        ens = ParticleEnsemble(2, replica_rng(14, 0).uniform(-1, 1, (100, 2)))
        res = coupled_run(params, ens, 1.5, replica_rng(14, 1))
        assert res.domination_ok
        assert res.reconstruction_ok
        assert all(o.blue_count == 100 for o in res.observations)
        assert all(o.dominated for o in res.observations)
        assert res.blue_final.population == 100

    def test_no_event_window_keeps_initial_labels(self):
        params = SimParams(dim=1, population=10)
        ens = ParticleEnsemble(1, replica_rng(15, 0).standard_normal((10, 1)))
        for rep in range(60):  # condition on no branching by rejection
            res = coupled_run(params, ens, 0.02, replica_rng(15, rep))
            if res.events == 0:
                assert res.forest_final.population == 10
                break
        else:
            pytest.fail("no event-free window found (probability ~ 0.8 each)")

    def test_result_memory_per_particle(self):
        # the forest keeps a position and a colour per particle, 17 B; with
        # an Ulam-Harris label tuple per particle a result held ~158 B each
        n, d = 200, 2
        params = SimParams(dim=d, population=n)
        ens = ParticleEnsemble(d, replica_rng(39, 0).uniform(-1, 1, (n, d)))
        tracemalloc.start()
        try:
            res = coupled_run(params, ens, 5.0, replica_rng(39, 1))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert res.forest_final.population > 10_000
        assert held <= 48 * res.forest_final.population

    def test_peak_memory_per_particle(self):
        # the red branchings wait for their replay in typed arrays of 24 B
        # each; as a tuple each, with the replay rounds built in dicts and
        # lists, the run's peak was ~344 B per forest particle
        n, d = 200, 2
        params = SimParams(dim=d, population=n)
        ens = ParticleEnsemble(d, replica_rng(39, 0).uniform(-1, 1, (n, d)))
        tracemalloc.start()
        try:
            res = coupled_run(params, ens, 5.0, replica_rng(39, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.forest_final.population > 10_000
        assert peak <= 240 * res.forest_final.population

    @pytest.mark.parametrize("clock, schedule, first", [(0.0, (0.5, 1.0, 5.0), "5.0"),
                                                        (2.0, (0.5, 2.5), "0.5"),
                                                        (0.0, (1.0 + 1e-11,), "1.00000000001")])
    def test_schedule_outside_run_rejected(self, clock, schedule, first):
        # the times outside [clock, clock + duration] used to be dropped
        # without a word
        params = SimParams(dim=1, population=3, record_schedule=schedule)
        ens = ParticleEnsemble(1, np.zeros((3, 1)), clock)
        with pytest.raises(ValueError, match=rf"record_schedule time {first} is outside"):
            coupled_run(params, ens, 1.0, replica_rng(26, 0))

    def test_schedule_slack_at_the_end(self):
        # a time within 1e-12 past the end is observed, at the end's positions
        params = SimParams(dim=1, population=3, record_schedule=(0.0, 1.0, 1.0 + 5e-13))
        res = coupled_run(params, origin_ensemble(3, 1), 1.0, replica_rng(26, 0))
        assert [o.time for o in res.observations] == [0.0, 1.0, 1.0 + 5e-13]
        assert np.array_equal(res.observations[1].all_norms, res.observations[2].all_norms)

    def test_blue_subset_of_forest(self):
        params = SimParams(dim=1, population=30)
        ens = ParticleEnsemble(1, replica_rng(16, 0).standard_normal((30, 1)))
        res = coupled_run(params, ens, 1.0, replica_rng(16, 1))
        assert int(res.forest_final.blue.sum()) == 30
        assert res.forest_final.population >= 30

    def test_last_observation_reads_every_particle(self):
        params = SimParams(dim=2, population=40, record_schedule=(0.5, 1.0, 1.5))
        ens = ParticleEnsemble(2, replica_rng(27, 0).uniform(-1, 1, (40, 2)))
        res = coupled_run(params, ens, 1.5, replica_rng(27, 1))
        last = res.observations[-1]
        forest = ParticleEnsemble(2, res.forest_final.positions)
        assert np.array_equal(last.all_norms, np.sort(forest.norms()))
        assert np.array_equal(last.blue_norms, np.sort(res.blue_final.norms()))

    def test_red_particles_drawn_only_when_read(self):
        # a blue event reads the N blues, a red event its parent (when it is
        # replayed), and each observation and the end the whole forest; an
        # eager loop that diffuses every particle at every event draws ~8x
        # this bound
        n, d = 50, 2
        params = SimParams(dim=d, population=n, record_schedule=(1.0, 2.0, 3.0))
        for rep in range(3):
            ens = ParticleEnsemble(d, replica_rng(28, rep).uniform(-1, 1, (n, d)))
            rng = _CountingRng(replica_rng(29, rep))
            res = coupled_run(params, ens, 3.0, rng)
            reads = (d * n * res.events
                     + d * res.forest_final.population * (len(res.observations) + 1))
            assert 0 < rng.normals <= reads

    def test_blue_set_has_the_n_particle_law(self):
        # the blue subset is the N-particle system: compare its max |x| at
        # t = 1 with advance_nbbm's from the same start
        n, reps = 20, 400
        params = SimParams(dim=1, population=n)
        ens = ParticleEnsemble(1, replica_rng(30, 0).uniform(-1, 1, (n, 1)))
        blue = [coupled_run(params, ens, 1.0, replica_rng(31, rep)).blue_final.norms().max()
                for rep in range(reps)]
        nbbm = [advance_nbbm(ens, 1.0, replica_rng(32, rep))[0].norms().max()
                for rep in range(reps)]
        assert stats.ks_2samp(blue, nbbm).pvalue > 1e-3

    def test_forest_particle_marginal(self):
        # a uniformly chosen free-BBM particle at t started at the origin is
        # N(0, 2t I) whatever its lineage
        t, reps = 1.0, 2000
        xs = np.empty(reps)
        for rep in range(reps):
            rng = replica_rng(33, rep)
            forest = free_bbm(origin_ensemble(5, 2), t, rng)
            xs[rep] = forest.positions[int(rng.integers(forest.population)), 0]
        assert stats.kstest(xs, "norm", args=(0.0, math.sqrt(2 * t))).pvalue > 1e-3

    @pytest.mark.parametrize("stat", ["final_population", "first_blue_max",
                                      "last_forest_max", "last_forest_median"])
    def test_law_matches_reference(self, stat, coupled_law_samples):
        # the one-clock engine and the heap-based one draw different streams
        # but must give the same joint law
        engine, ref = coupled_law_samples
        assert stats.ks_2samp(engine[stat], ref[stat]).pvalue > 1e-3

    @pytest.mark.parametrize("engine", [coupled_run, reference_coupled_run])
    def test_parent_child_tie_flips_the_parent(self, engine):
        # with N = 1 a blue event's parent and child tie exactly; the parent,
        # the lower forest index, turns red, so after the first event the
        # blue is a child, never the initial particle 0 (were the child to
        # turn red, particle 0 would stay blue for ever)
        params = SimParams(dim=2, population=1, record_schedule=(0.5,))
        branched = 0
        for rep in range(20):
            res = engine(params, origin_ensemble(1, 2), 1.5, replica_rng(37, rep))
            forest = res.forest_final
            assert res.reconstruction_ok and res.domination_ok
            (b,) = np.flatnonzero(forest.blue)
            assert (b == 0) == (res.events == 0)
            branched += res.events > 0
            assert np.array_equal(res.blue_final.positions, forest.positions[[b]])
        assert branched >= 10

    def test_nearest_blue_selection_fails_reconstruction(self, monkeypatch):
        # with the nearest blue turning red the blues are still N particles
        # of the forest, so domination holds; only the event-time check sees it
        monkeypatch.setattr(sim, "_furthest", lambda norms, ids: int(norms.argmin()))
        params = SimParams(dim=2, population=20, record_schedule=(0.5,))
        ens = ParticleEnsemble(2, replica_rng(41, 0).uniform(-1, 1, (20, 2)))
        res = coupled_run(params, ens, 1.0, replica_rng(41, 1))
        assert res.events > 0
        assert res.reconstruction_ok is False
        assert res.domination_ok

    def test_replayed_red_particle_marginal(self):
        # with one blue nearly every event is red and replayed at an
        # observation or the end; a uniformly chosen particle at t is still
        # N(0, 2t I), so |x|^2 / (2 t d) has mean 1 and variance 2 / d
        t, d, reps = 2.0, 2, 2000
        params = SimParams(dim=d, population=1, record_schedule=(1.0,))
        xs = np.empty((reps, d))
        for rep in range(reps):
            rng = replica_rng(38, rep)
            forest = coupled_run(params, origin_ensemble(1, d), t, rng).forest_final
            xs[rep] = forest.positions[int(rng.integers(forest.population))]
        scaled = (xs ** 2).sum(axis=1) / (2 * t * d)
        assert abs(scaled.mean() - 1.0) < 4 * math.sqrt(2 / (d * reps))
        assert stats.kstest(xs[:, 0], "norm", args=(0.0, math.sqrt(2 * t))).pvalue > 1e-3

    def test_negative_duration_rejected(self):
        # a negative duration would run the clock backwards (5 -> 4)
        params = SimParams(dim=1, population=3)
        ens = ParticleEnsemble(1, np.zeros((3, 1)), 5.0)
        with pytest.raises(ValueError):
            coupled_run(params, ens, -1.0, replica_rng(26, 0))

    @pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf, -math.inf])
    def test_duration_must_be_finite(self, duration):
        # only a negative duration was rejected: inf or nan grew the forest
        # toward the population cap
        params = SimParams(dim=1, population=3)
        with pytest.raises(ValueError, match="duration must be finite and nonnegative"):
            coupled_run(params, origin_ensemble(3, 1), duration, replica_rng(26, 0))

    def test_population_mismatch_rejected(self):
        params = SimParams(dim=1, population=5)
        with pytest.raises(ValueError, match="N=6, d=1; params say N=5, d=1"):
            coupled_run(params, origin_ensemble(6, 1), 0.1, replica_rng(8, 0))

    def test_dim_mismatch_rejected(self):
        # the forest used to take the ensemble's dimension and ignore params.dim
        params = SimParams(dim=3, population=5)
        with pytest.raises(ValueError, match="N=5, d=2; params say N=5, d=3"):
            coupled_run(params, origin_ensemble(5, 2), 0.1, replica_rng(8, 0))

    def test_nonfinite_norm_raises_at_first_event(self):
        params = SimParams(dim=2, population=5, record_schedule=(0.5,))
        with pytest.raises(SimulationError, match="at event 1$"):
            coupled_run(params, far_start(5, 2), 1.0, replica_rng(32, 0))

    def test_nonfinite_draw_raises_in_read(self):
        params = SimParams(dim=2, population=5)
        with pytest.raises(SimulationError, match="nonfinite position at event 1$"):
            coupled_run(params, origin_ensemble(5, 2), 1.0, _NanRng(replica_rng(33, 0)))


class TestCoupledRunBits:
    """``coupled_run`` against ``reference_one_clock_run``, which draws the
    same stream: every output must keep its bits."""

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("n", [1, 20, 200])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_one_clock_run(self, d, n, observed):
        clock, duration = 0.25, (1.0 if n == 200 else 2.0)
        # observations at the start, inside and at the end of the run
        schedule = (clock, clock + 0.3, clock + 0.8, clock + duration) if observed else ()
        params = SimParams(dim=d, population=n, record_schedule=schedule)
        for seed in range(20):
            ens = ParticleEnsemble(d, replica_rng(seed, 90 + d).uniform(-1, 1, (n, d)), clock)
            got = coupled_run(params, ens, duration, replica_rng(seed, 100 * d + n))
            ref = reference_one_clock_run(params, ens, duration, replica_rng(seed, 100 * d + n))
            assert np.array_equal(got.forest_final.positions, ref.forest_final.positions)
            assert np.array_equal(got.forest_final.blue, ref.forest_final.blue)
            assert np.array_equal(got.blue_final.positions, ref.blue_final.positions)
            assert got.forest_final.clock == ref.forest_final.clock == got.blue_final.clock
            assert (got.events, got.domination_ok, got.reconstruction_ok) == \
                (ref.events, ref.domination_ok, ref.reconstruction_ok)
            assert len(got.observations) == len(ref.observations) == len(schedule)
            for a, b in zip(got.observations, ref.observations):
                assert (a.time, a.dominated, a.blue_count) == (b.time, b.dominated, b.blue_count)
                assert np.array_equal(a.blue_norms, b.blue_norms)
                assert np.array_equal(a.all_norms, b.all_norms)

    # few distinct values, some 1e-12 apart, so ties and the slack both show
    _norm = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-12, 1.0 + 2e-12, 3.0]),
                      st.floats(0.0, 4.0))

    @given(blue=st.lists(_norm, max_size=30), rest=st.lists(_norm, max_size=30),
           n=st.integers(1, 40), subset=st.booleans())
    def test_dominated_on_sorted_norms_matches_unique(self, blue, rest, n, subset):
        # the blues are a subset of the forest in coupled_run; the check
        # must not rely on it
        every = blue + rest if subset else rest
        assert _dominated(np.sort(blue), np.sort(every), n) == \
            dominated_unique(np.array(blue), np.array(every), n)

    @st.composite
    def _red_log(draw):
        """A log of red branchings: each child is a new index, blue events
        take indices in between, and parents are often the newest child or
        the last parent, so chains run deep."""
        m = draw(st.integers(1, 5))
        parents, children = [], []
        for _ in range(draw(st.integers(0, 80))):
            how = draw(st.integers(0, 2)) if children else 0
            if how == 0:
                parents.append(draw(st.integers(0, m - 1)))
            else:   # the newest child, or the last parent again
                parents.append(children[-1] if how == 1 else parents[-1])
            m += draw(st.integers(0, 2))
            children.append(m)
            m += 1
        return parents, children

    @given(log=_red_log())
    @example(log=(list(range(3000)), list(range(1, 3001))))   # one chain, 3000 rounds
    def test_replay_rounds_match_dict_rounds(self, log):
        parents, children = log
        rounds = _replay_rounds(np.array(parents, dtype=np.int64),
                                np.array(children, dtype=np.int64))
        assert rounds.tolist() == dict_rounds(parents, children)


class TestSphericallyOrderedPairs:
    def test_identical_starts_stay_identical(self):
        x = np.array([[0.5, 0.5]])
        p, pp, coupled = spherically_ordered_pairs(x, x, np.linspace(0.1, 1.0, 10),
                                                   replica_rng(17, 0))
        assert coupled.tolist() == [True]
        assert np.allclose(p, pp)

    def test_ordering_every_sample_time(self):
        n = 2000
        rng = replica_rng(18, 0)
        x = rng.uniform(-0.3, 0.3, (n, 3))
        xp = x * 4.0
        times = np.linspace(0.05, 1.0, 20)
        p, pp, _ = spherically_ordered_pairs(x, xp, times, rng)
        nr = np.sqrt((p ** 2).sum(-1))
        nrp = np.sqrt((pp ** 2).sum(-1))
        assert np.all(nr <= nrp + 1e-10)

    def test_marginals_brownian(self):
        n = 8000
        x = np.zeros((n, 2))
        xp = np.tile([2.5, 0.0], (n, 1))
        times = np.linspace(1 / 64, 1.0, 64)
        p, pp, _ = spherically_ordered_pairs(x, xp, times, replica_rng(19, 0))
        for arr in (p, pp):
            for coord in range(2):
                inc = arr[:, -1, coord] - arr[:, 0, coord]
                ks = stats.kstest(inc, "norm", args=(0.0, math.sqrt(2.0)))
                assert ks.pvalue > 0.001

    def test_norms_agree_once_coupled(self):
        rng = replica_rng(27, 0)
        x = rng.uniform(-0.3, 0.3, (500, 3))
        times = np.linspace(0.05, 1.0, 20)
        p, pp, coupled = spherically_ordered_pairs(x, 2.0 * x, times, rng)
        nr = np.sqrt((p ** 2).sum(-1))
        nrp = np.sqrt((pp ** 2).sum(-1))
        assert coupled.any()
        # the first sample time at which each coupled pair's norms meet
        first = np.argmax(np.isclose(nr, nrp, rtol=0.0, atol=1e-12), axis=1)
        later = np.arange(times.size + 1) >= first[:, None]
        assert np.all(np.abs(nr - nrp)[later & coupled[:, None]] <= 1e-12)

    def test_precondition(self):
        with pytest.raises(ValueError):
            spherically_ordered_pairs(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]),
                                      [0.5, 1.0], replica_rng(20, 0))

    @pytest.mark.parametrize("times", [[0.5, math.nan], [0.5, math.inf], [math.nan]])
    def test_nonfinite_sample_times_rejected(self, times):
        # NaN and inf used to pass the increasing check and give NaN paths
        with pytest.raises(ValueError, match="sample times"):
            spherically_ordered_pairs(np.zeros((1, 2)), np.ones((1, 2)), times,
                                      replica_rng(20, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_start_rejected(self, bad):
        for x, xp in (([[bad, 0.0]], [[1.0, 0.0]]), ([[0.0, 0.0]], [[bad, 0.0]])):
            with pytest.raises(ValueError, match="finite"):
                spherically_ordered_pairs(np.array(x), np.array(xp), [0.5],
                                          replica_rng(20, 2))


class TestKilledSurvival:
    def test_survival_decay_rate_light(self):
        tg = np.linspace(2.0, 5.0, 7)
        surv = survival_curve(1, [0.0], math.pi / 2, tg, 12000,
                              replica_rng(24, 0), dt=2e-3)
        slope = np.polyfit(tg, np.log(surv), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_lost_grid_times_rejected(self):
        # times that share a step or run backwards used to read 0
        rng = replica_rng(25, 0)
        surv = survival_curve(1, [0.0], math.inf, [0.3, 0.6], 10, rng, dt=1e-3)
        assert np.array_equal(surv, [1.0, 1.0])
        for t_grid in ([0.5, 0.5004], [0.6, 0.3]):
            with pytest.raises(ValueError):
                survival_curve(1, [0.0], math.inf, t_grid, 10, rng, dt=1e-3)

    @pytest.mark.parametrize("n_samples", [0, -5, 2.5])
    def test_bad_sample_count_rejected(self, n_samples):
        # 0 used to return [nan, nan] and -5 returned [-0., -0.]
        with pytest.raises(ValueError, match="n_samples"):
            survival_curve(1, [0.0], math.pi / 2, [0.5, 1.0], n_samples,
                           replica_rng(26, 0), dt=1e-2)

    @pytest.mark.parametrize("t_grid", [[], [0.0], [[0.5, 1.0]], [0.5, math.nan]])
    def test_bad_t_grid_rejected(self, t_grid):
        # an empty grid used to raise a bare IndexError, and [0.0] a bare
        # NaN-to-integer error after a divide-by-zero warning
        with pytest.raises(ValueError, match="t_grid"):
            survival_curve(1, [0.0], math.pi / 2, t_grid, 10, replica_rng(28, 0), dt=1e-2)

    def test_off_lattice_time_rejected(self):
        # t = 0.55 at dt = 0.1 used to be read at the nearest step, silently:
        # it returned the survival at t = 0.6
        with pytest.raises(ValueError, match="t_grid time 0.55 is not a multiple of dt"):
            survival_curve(1, [0.0], 1.0, [0.5, 0.55], 10, replica_rng(5, 0), dt=0.1)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_bad_dt_rejected(self, dt):
        # dt = 0 used to raise OverflowError after a divide-by-zero warning
        with pytest.raises(ValueError, match="dt"):
            survival_curve(1, [0.0], math.pi / 2, [0.5, 1.0], 10, replica_rng(29, 0),
                           dt=dt)

    def test_start_must_match_dim(self):
        # a 2-vector start at d=1 used to broadcast the 1-d increments onto
        # both coordinates, so the tracked norm was sqrt(2)|B|
        for x in ([0.0, 0.0], [[0.0]], 0.0):
            with pytest.raises(ValueError, match="shape"):
                survival_curve(1, x, math.pi / 2, [0.5, 1.0], 100,
                               replica_rng(27, 0), dt=1e-2)

    @pytest.mark.parametrize("x", [[math.nan], [math.inf]])
    def test_nonfinite_start_rejected(self, x):
        # a NaN start used to survive every step, since nan >= R is False
        with pytest.raises(ValueError, match="finite"):
            survival_curve(1, x, math.pi / 2, [0.5, 1.0], 10, replica_rng(27, 1), dt=1e-2)

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
    def test_bad_radius_rejected(self, radius):
        # a NaN radius used to kill nothing and return all ones, and a
        # radius <= 0 returned all zeros
        with pytest.raises(ValueError, match="boundary must be positive"):
            survival_curve(1, [0.0], radius, [0.5, 1.0], 10, replica_rng(30, 0), dt=1e-2)

        def falling(s):
            return radius if s > 0.3 else 1.0

        with pytest.raises(ValueError, match="boundary must be positive.* at time 0.31"):
            survival_curve(1, [0.0], falling, [0.5, 1.0], 10, replica_rng(30, 1), dt=1e-2)


class TestReplicaRng:
    @pytest.mark.parametrize("seed, replica", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64),
                                               (1.5, 0), (2.0, 0.7)])
    def test_out_of_range_rejected(self, seed, replica):
        # a float seed or replica used to be truncated by the uint64 cast:
        # (1.5, 0) ran the stream of (1, 0) and (2.0, 0.7) that of (2, 0)
        with pytest.raises(ValueError, match=r"(seed|replica) must be an integer in "
                                             r"\[0, 18446744073709551615\]"):
            replica_rng(seed, replica)

    def test_range_ends_accepted(self):
        replica_rng(0, 0)
        replica_rng(2**64 - 1, 2**64 - 1)
        # numpy integers are integers
        assert replica_rng(np.uint64(3), np.int64(1)).random() == replica_rng(3, 1).random()


# ---------------------------------------------------------------------------
# The interval helper against independent laws: the one-sided reflection
# formulas, and eigenfunction (sine) series in place of the image series
# ---------------------------------------------------------------------------

def _sine_modes(w, n_modes=2000):
    n = np.arange(1, n_modes + 1)
    return n, (n * math.pi / w) ** 2


def sine_density(a, b, w, t):
    """Density at distance b (scalar or array) of Brownian motion (variance
    2t) started at distance a from one end of (0, w), killed at both ends."""
    n, lam = _sine_modes(w)
    return ((2.0 / w) * np.sin(n * math.pi * a / w) * np.exp(-lam * t)
            * np.sin(np.multiply.outer(b, n) * math.pi / w)).sum(axis=-1)


def sine_passage(a, w, u):
    """Density of the first exit through the end a is measured from, at u."""
    n, lam = _sine_modes(w)
    return ((2.0 / w) * (n * math.pi / w) * np.sin(np.multiply.outer(a, n) * math.pi / w)
            * np.exp(-np.multiply.outer(u, lam))).sum(axis=-1)


def sine_passage_cdf(a, w, u):
    """Probability of leaving through the end a is measured from by time u."""
    n, lam = _sine_modes(w)
    return ((2.0 / w) * (n * math.pi / w) * np.sin(n * math.pi * a / w)
            * -np.expm1(-np.multiply.outer(u, lam)) / lam).sum(axis=-1)


def sine_stay(a, w, t):
    """Probability of staying in (0, w) until t from distance a."""
    n, lam = _sine_modes(w)
    odd = n % 2 == 1
    return (4.0 / (n[odd] * math.pi) * np.sin(np.multiply.outer(a, n[odd]) * math.pi / w)
            * np.exp(-lam[odd] * t)).sum(axis=-1)


def _grid_cdf(density, lo, hi, m=20001):
    grid = np.linspace(lo, hi, m)
    pdf = density(grid)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
    return lambda x: np.interp(x, grid, cdf / cdf[-1])


class TestInterval:
    @pytest.mark.parametrize("a, b, t", [(0.3, 0.5, 0.1), (1.0, 2.0, 3.0), (0.01, 0.02, 1e-3)])
    def test_one_sided_bridge_crossing(self, a, b, t):
        # a bridge from l - a to l - b over L crosses l with probability
        # exp(-a b / L) (variance 2 per unit time); the far end is out of reach
        assert 1.0 - _Interval.bridge_stay(a, b, 1e6, t) == pytest.approx(
            math.exp(-a * b / t), rel=1e-12, abs=1e-16)

    def test_one_sided_passage_limit(self):
        assert _Interval.passage_ratio(0.4, 1e6, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_stay_probability_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def stay(a, w, t):   # the sine series, summed in mpmath
            a, w, t = mpmath.mpf(a), mpmath.mpf(w), mpmath.mpf(t)
            return mpmath.nsum(lambda k: 4 / ((2 * k + 1) * mpmath.pi)
                               * mpmath.sin((2 * k + 1) * mpmath.pi * a / w)
                               * mpmath.exp(-((2 * k + 1) * mpmath.pi / w) ** 2 * t),
                               [0, mpmath.inf])

        rng = replica_rng(61, 0)
        for _ in range(25):
            w = float(rng.uniform(0.3, 3.0))
            t = w * w / float(rng.uniform(0.5, 80.0))   # rho from 0.5 to 80
            a = w * float(rng.uniform(0.01, 0.99))
            got = 1.0 - float(_Interval.leave_prob(a, w, t))
            assert got == pytest.approx(float(stay(a, w, t)), abs=2e-15)
        assert _Interval.leave_prob(0.3, 1.0, 0.0) == 0.0

    def test_bridge_and_passage_match_sine_series(self):
        rng = replica_rng(62, 0)
        for _ in range(25):
            w = float(rng.uniform(0.3, 3.0))
            t = w * w / float(rng.uniform(2.0, 80.0))
            a, b = w * rng.uniform(0.02, 0.98, 2)
            free = math.exp(-(b - a) ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)
            assert _Interval.bridge_stay(a, b, w, t) == pytest.approx(
                float(sine_density(a, b, w, t)) / free, rel=1e-10, abs=1e-14)
            near = 1.0 - math.exp(-a * b / t)
            assert _Interval.bridge_stay(a, b, w, t, near=True) == pytest.approx(
                float(sine_density(a, b, w, t)) / free / near, rel=1e-10)
            one_sided = a / t * math.exp(-a * a / (4 * t)) / math.sqrt(4 * math.pi * t)
            assert _Interval.passage_ratio(a, w, t) == pytest.approx(
                float(sine_passage(a, w, t)) / one_sided, rel=1e-10, abs=1e-14)

    def test_exit_draw_law(self):
        # x = 0.3 in (-1, 1) over t = 0.6: the stay fraction, the side
        # fractions and each side's exit times against the sine series
        n, x, c, t = 4000, 0.3, 1.0, 0.6
        tau, side = _Interval.draw_exit(np.full(n, x), np.full(n, c), t, replica_rng(63, 0))
        p_hi, p_lo = (float(sine_passage_cdf(c - s * x, 2 * c, t)) for s in (1, -1))
        for hits, p in ((side == 1, p_hi), (side == -1, p_lo), (side == 0, 1 - p_hi - p_lo)):
            assert stats.binomtest(int(hits.sum()), n, p).pvalue > 1e-3
        assert np.all(np.isinf(tau[side == 0])) and np.all(tau[side != 0] <= t)
        for s, total in ((1, p_hi), (-1, p_lo)):
            cdf = lambda u, s=s, total=total: sine_passage_cdf(c - s * x, 2 * c, u) / total
            assert stats.kstest(tau[side == s], cdf).pvalue > 1e-3

    @pytest.mark.parametrize("side", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("c, rest", [(1.0, 0.25), (0.6, 0.3)])
    @pytest.mark.parametrize("scalar", [False, True])
    def test_conditioned_read_law(self, side, c, rest, scalar):
        # a read dt after y in (-c, c), given that the coordinate stays in
        # for rest more (side 0: density q_dt(y, z) * stay_rest(z)) or first
        # leaves after rest through side (density q_dt(y, z) * passage_rest(z));
        # read_one squeezes the acceptance, draw_read does not, and the
        # narrow interval (w^2 / t = 4.8) brings the far end into play
        n, y, dt = 3000, 0.2, 0.3
        rng = replica_rng(64, 8 * int(side + 1) + 2 * int(scalar) + int(c < 1))
        if scalar:
            z = np.array([_Interval.read_one(y, c, dt, rest, side, rng) for _ in range(n)])
        else:
            z = _Interval.draw_read(np.full(n, y), np.full(n, c), np.full(n, dt),
                                    np.full(n, rest), np.full(n, side), rng)
        assert np.all(np.abs(z) < c)
        end = 1.0 if side == 0.0 else side   # distances are from this end

        def density(zz):
            q = sine_density(c - end * y, c - end * zz, 2 * c, dt)
            if side == 0.0:
                return q * sine_stay(c - zz, 2 * c, rest)
            return q * sine_passage(c - end * zz, 2 * c, rest)

        assert stats.kstest(z, _grid_cdf(density, -c, c, 4001)).pvalue > 1e-3

