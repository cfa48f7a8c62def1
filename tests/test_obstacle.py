import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, stats

from nbbm import obstacle
from nbbm.cli import _ArtifactWriter, _write_report
from nbbm.core import RadialProfile
from nbbm.kernels import radial_cdf
from nbbm.experiments import UniformBallSampler, convergence_report
from nbbm.obstacle import (SandwichSolver, SolveRequest, analytic_gap, default_grid_step,
                           free_boundary_radius, solve_sandwich, stationary_state)
from nbbm.sim import replica_rng

_NOT_POSITIVE = (0.0, -1.0, math.nan, math.inf, -math.inf)


def random_cdf_profile(rng, max_r=3.0) -> RadialProfile:
    """Random nondecreasing step initial condition reaching mass 1."""
    nj = int(rng.integers(5, 40))
    locs = np.unique(rng.uniform(0.05, max_r, nj))
    vals = np.sort(rng.uniform(0.0, 1.0, locs.size))
    vals[-1] = 1.0
    return RadialProfile.from_jumps(locs, vals)


# ---------------------------------------------------------------------------
# Sandwich steps
# ---------------------------------------------------------------------------

def mixture_reference(d, t, locs, sizes, r):
    """sum_j sizes_j w(locs_j, r, t) from the closed forms (d = 1, 3) and
    scipy's noncentral chi-squared CDF (d = 2), independent of the lattice
    kernel routes."""
    if d == 2:
        return sum(c * stats.ncx2.cdf(r * r / (2 * t), 2, a * a / (2 * t))
                   for a, c in zip(locs, sizes))
    return sum(c * radial_cdf(d, float(a), r, t) for a, c in zip(locs, sizes))


def random_branch(rng, n) -> np.ndarray:
    """Nondecreasing branch array reaching 1, with jumps in the first n/4 cells."""
    idx = np.sort(rng.choice(np.arange(1, n // 4), int(rng.integers(3, 20)), replace=False))
    jumps = np.zeros(n)
    jumps[idx] = np.diff(np.sort(rng.uniform(0.0, 1.0, idx.size)), prepend=0.0)
    jumps[idx[-1]] += 1.0 - jumps.sum()
    return np.cumsum(jumps)


def exact_step(d, delta, h, p, upper, r):
    """e^delta G_delta of the branch's step function at r: cut at 1 after the
    step on the upper branch, at e^-delta before it on the lower one."""
    e = math.exp(delta)
    q = p if upper else np.minimum(p, math.exp(-delta))
    sizes = np.diff(q, prepend=0.0)
    live = sizes > 0.0
    out = e * mixture_reference(d, delta, np.flatnonzero(live) * h, sizes[live], r)
    return np.minimum(out, 1.0) if upper else out


class TestSteps:
    def test_zero_profile_fixed(self):
        for d in (1, 2, 3):
            for out, _ in obstacle._sandwich_step(d, 0.1, 1e-2, np.zeros(100), np.zeros(100)):
                assert not out.any()

    def test_step_plus_from_origin_step(self, monkeypatch):
        # one upper step from the unit step at 0 is min(1, 2 w(0, ., ln 2)),
        # rounded up by at most one cell and moved up by e^delta times the
        # kernel's reported error; the band outgrows the input array
        orig, errs = obstacle.mixture_node_values, []

        def recording(*args, **kwargs):
            vals, err = orig(*args, **kwargs)
            errs.append(err)
            return vals, err

        monkeypatch.setattr(obstacle, "mixture_node_values", recording)
        delta, h = math.log(2.0), 1e-3
        p = np.ones(2000)
        (out, _), _ = obstacle._sandwich_step(1, delta, h, p, p)
        move = 2.0 * errs[0][0]
        assert out.size > p.size and out[-1] == 1.0
        rr = np.linspace(0.05, 4.0, 80)
        cell = np.ceil(rr / h).astype(int) - 1

        def target(r):
            return np.minimum(1.0, 2.0 * radial_cdf(1, 0.0, r, delta))
        assert np.all(out[cell] >= target(rr) - 1e-10)
        assert np.all(out[cell] <= target(rr + h) + move + 1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_minus_below_plus(self, d):
        # lower step <= exact e^delta G_delta (cut input) <= upper step on
        # every cell, each the exact value at a cell end, from the unit step
        # at 0 and from random branches
        rng = replica_rng(17, d)
        h, delta, n = 2e-3, 0.05, 2500
        for p in [np.ones(n)] + [random_branch(rng, n) for _ in range(3)]:
            (up, _), (lo, _) = obstacle._sandwich_step(d, delta, h, p, p)
            assert np.all(lo <= up + 1e-12)
            rr = rng.uniform(0.0, (n - 1) * h, 400)
            cell = np.ceil(rr / h).astype(int) - 1
            exact_up = exact_step(d, delta, h, p, True, rr)
            exact_lo = exact_step(d, delta, h, p, False, rr)
            assert np.all(up[cell] >= exact_up - 1e-10)
            assert np.all(lo[cell] <= exact_lo + 1e-10)
            assert np.all(up[cell] <= exact_step(d, delta, h, p, True, (cell + 1) * h) + 1e-10)
            assert np.all(lo[cell] >= exact_step(d, delta, h, p, False, cell * h) - 1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_contraction_same_grid(self, d):
        # sup|step(f) - step(g)| <= e^delta sup|f - g| + eps_f + eps_g
        rng = np.random.default_rng(11)
        h, delta, n = 2e-3, 0.1, 4000
        for _ in range(3):
            f, g = random_branch(rng, n), random_branch(rng, n)
            for (sf, eps_f), (sg, eps_g) in zip(obstacle._sandwich_step(d, delta, h, f, f),
                                                obstacle._sandwich_step(d, delta, h, g, g)):
                assert sf.size == sg.size == n
                bound = math.exp(delta) * np.abs(f - g).max() + eps_f + eps_g
                assert np.abs(sf - sg).max() <= bound

    def test_rejects_nonpositive_delta(self):
        # the step takes delta and h as given: the solver checks them once
        for delta in (0.0, -0.1):
            with pytest.raises(ValueError):
                SandwichSolver(1, RadialProfile.from_jumps([1.0], [1.0]), delta, 1e-3,
                               horizon_hint=0.1)

    @pytest.mark.parametrize("name, delta, h", [*(("delta", v, 1e-3) for v in _NOT_POSITIVE),
                                                *(("h", 0.01, v) for v in _NOT_POSITIVE)])
    def test_step_scalars_named(self, name, delta, h):
        # delta = nan used to reach an unnamed round() error, and h = 0 a
        # ZeroDivisionError; the solver names the step's h its grid_step
        name = {"h": "grid_step"}.get(name, name)
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SandwichSolver(1, RadialProfile.from_jumps([1.0], [1.0]), delta, h,
                           horizon_hint=0.1)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("h", [2e-3, 2e-2])
    def test_two_branch_step_is_two_branch_steps(self, d, h):
        # the solver steps both branches with one kernel call; each branch
        # must get the bits it gets stepped alongside a copy of itself, up to
        # the padding with its last value that the other branch's length
        # sets.  Either branch may be the longer one, outgrow the input
        # array, or be all zero; at h = 2e-2 the kernel's band is wider than
        # the lattice
        def pad(p, n):
            return np.concatenate((p, np.full(n - p.size, p[-1]))) if p.size < n else p

        def branch(n_act, top):
            p = np.zeros(n)
            if n_act:
                rise = rng.uniform(0.0, 1.0, n_act) * (rng.uniform(size=n_act) < 0.5)
                rise[-1] = 1.0
                p[:n_act] = top * np.cumsum(rise) / rise.sum()
                p[n_act:] = p[n_act - 1]
            return p

        rng = np.random.default_rng(40 + d)
        delta, n = 0.01, 400
        for n_up, n_lo in ((300, 40), (40, 300), (3, 390), (390, 0), (0, 120)):
            up = branch(n_up, rng.uniform(0.5, 1.0))
            lo = branch(n_lo, rng.uniform(0.5, 1.0))
            (up2, eps_up2), (lo2, eps_lo2) = obstacle._sandwich_step(d, delta, h, up, lo)
            (up1, eps_up1), _ = obstacle._sandwich_step(d, delta, h, up, up)
            _, (lo1, eps_lo1) = obstacle._sandwich_step(d, delta, h, lo, lo)
            m = max(up1.size, lo1.size, up2.size)
            assert up2.size == lo2.size
            assert np.array_equal(pad(up2, m), pad(up1, m)) and eps_up2 == eps_up1
            assert np.array_equal(pad(lo2, m), pad(lo1, m)) and eps_lo2 == eps_lo1


def reference_sandwich_step(dim, delta, h, p_up, p_lo):
    """The sandwich step before its passes were cut to the cells each result
    needs: every branch cut and stepped over all its cells, then clipped to
    [0, 1] and raised to its running max.  The step must keep its bits."""
    branches = [(p_up, True), (p_lo, False)]
    e_d = math.exp(delta)
    band = int(math.ceil(obstacle.support_band(delta, dim) / h)) + 2
    p_ins = [p if upper else np.minimum(p, math.exp(-delta)) for p, upper in branches]
    n_acts = [obstacle._active_len(p_in) for p_in in p_ins]
    n = branches[0][0].size
    for n_act in n_acts:
        if n_act + band > n:
            n = n_act + band + max(64, (n_act + band) // 8)
    n_jumps = max(n_acts)
    nodes = np.arange(n_jumps + band, dtype=float) * h
    sizes = np.zeros((len(branches), n_jumps))
    for row, p_in, n_act in zip(sizes, p_ins, n_acts):
        row[:n_act] = np.diff(p_in[:n_act], prepend=0.0)
    vals, errs = obstacle.mixture_node_values(dim, delta, nodes[:n_jumps], sizes, nodes,
                                              lattice_h=h)
    stepped = []
    for (_, upper), p_in, n_act, v, eval_err in zip(branches, p_ins, n_acts, vals,
                                                    errs.tolist()):
        n_need = n_act + band
        v = e_d * obstacle._running_max(v[:n_need])
        tail = min(e_d * float(p_in[n_act - 1]), 1.0)
        i_star = min(int(np.searchsorted(v, tail - obstacle._TRUNC_TOL)), n_need - 1)
        shift = e_d * (eval_err + 4.0 * obstacle._EPS)
        w = np.minimum(v + shift, tail) if upper else np.minimum(v - shift, 1.0)
        if upper:
            p_new = np.full(n, tail)
            p_new[: n_need - 1] = w[1:]
            p_new[i_star:] = tail
        else:
            p_new = np.full(n, float(w[i_star]))
            p_new[:n_need] = w
            p_new[i_star:] = w[i_star]
        p_new = obstacle._running_max(np.clip(p_new, 0.0, 1.0))
        eps = float(np.max(np.diff(w)))
        eps += e_d * eval_err + shift + obstacle._TRUNC_TOL
        stepped.append((p_new, eps))
    return stepped


class TestStepShortcuts:
    @staticmethod
    def branch(rng, n, n_act, top):
        """Nondecreasing branch in [0, top], flat from cell n_act on."""
        p = np.zeros(n)
        if n_act:
            rise = rng.uniform(0.0, 1.0, n_act) * (rng.uniform(size=n_act) < 0.6)
            rise[-1] = 1.0
            p[:n_act] = top * np.cumsum(rise) / rise.sum()
            p[n_act:] = p[n_act - 1]
        return p

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_step_keeps_reference_bits(self, d):
        # random branch pairs: lower branches that reach past e^-delta (so
        # the cut binds) or stay below it, active lengths that differ or
        # that make the support band outgrow the array, and an all-zero one
        # (the band is about 520 to 570 cells)
        rng = np.random.default_rng(70 + d)
        delta, h, n = 0.02, 4e-3, 1200
        cut = math.exp(-delta)
        cases = [(500, 1.0, 40, 1.0), (40, 1.0, 600, 0.9), (640, 0.97, 700, 1.0),
                 (5, 0.5, 1190, 0.999), (600, 1.0, 0, 0.0), (0, 0.0, 0, 0.0)]
        for n_up, top_up, n_lo, top_lo in cases:
            up, lo = self.branch(rng, n, n_up, top_up), self.branch(rng, n, n_lo, top_lo)
            got = obstacle._sandwich_step(d, delta, h, up, lo)
            want = reference_sandwich_step(d, delta, h, up, lo)
            for (p, eps), (p_ref, eps_ref) in zip(got, want):
                assert p.tobytes() == p_ref.tobytes() and eps == eps_ref
            if top_lo > cut:
                assert lo.max() > cut  # the lower branch's cut binds
        # one branch on both sides, outgrowing the array
        p = self.branch(rng, 60, 58, 1.0)
        for (got, eps), (want, eps_ref) in zip(obstacle._sandwich_step(d, delta, h, p, p),
                                               reference_sandwich_step(d, delta, h, p, p)):
            assert got.size > p.size
            assert got.tobytes() == want.tobytes() and eps == eps_ref

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_kernel_value_raises(self, d, row, monkeypatch):
        # a NaN in the values a branch reads, here in its last ten cells
        # (past the tail freeze), used to be frozen away on the third step
        # and leave a NaN grid gap with no error
        orig, calls = obstacle.mixture_node_values, []

        def poisoned(dim, t, locs, sizes, r_nodes, *, lattice_h):
            vals, errs = orig(dim, t, locs, sizes, r_nodes, lattice_h=lattice_h)
            calls.append(1)
            if len(calls) == 3:
                n_act = np.flatnonzero(sizes[row])[-1] + 1
                vals[row, n_act + r_nodes.size - locs.size - 10] = math.nan
            return vals, errs

        monkeypatch.setattr(obstacle, "mixture_node_values", poisoned)
        st = stationary_state(d)
        solver = SandwichSolver(d, st.as_profile(401, "lower"), 0.01, 1e-3,
                                initial_upper=st.as_profile(401, "upper"),
                                horizon_hint=0.1)
        with pytest.raises(FloatingPointError, match=("upper", "lower")[row] + " branch"):
            solver.advance_to(0.1)
        assert len(calls) == 3 and len(solver.trace.grid_gap) == 3
        assert all(math.isfinite(g) for g in solver.trace.grid_gap)


_ARRAYS = hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
    st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    _ARRAYS,
    _ARRAYS.map(np.sort),  # sorted, NaNs last
    st.builds(lambda x, n, i: np.where(np.arange(x.size) % n == i, -x, x),
              _ARRAYS.map(np.sort), st.integers(2, 9), st.integers(0, 1)),
    st.builds(np.full, st.integers(1, 30), st.floats(allow_nan=True, allow_infinity=True)),
))
@example(np.array([1.0, math.nan, 0.5, 2.0]))
@example(np.array([math.nan, 1.0, 2.0]))
@example(np.array([0.0, 0.3, 0.2, 0.25, 0.4, 0.1, 0.5]))
@example(np.tile([1.0, 0.5, 2.0], 40))  # past 64 descents: one scalar pass
def test_running_max_is_maximum_accumulate(x):
    # same values as np.maximum.accumulate, with a NaN carried to the end
    np.testing.assert_array_equal(obstacle._running_max(x), np.maximum.accumulate(x))


# ---------------------------------------------------------------------------
# solve_sandwich
# ---------------------------------------------------------------------------

class TestSolveSandwich:
    def test_gap_arithmetic(self):
        assert analytic_gap(100, 0.01) == pytest.approx(
            (math.e + 1.0) * (math.exp(0.01) - 1.0), rel=1e-12)
        assert analytic_gap(100, 0.01) == pytest.approx(0.03737, abs=5e-5)

    def test_zero_initial(self):
        pair = solve_sandwich(SolveRequest(dim=1, initial=RadialProfile.from_jumps([], []),
                                           horizon=0.5, step_size=0.05))
        assert pair.upper.final_value == 0.0
        assert pair.lower.final_value == 0.0

    def test_certificate_random_profiles(self):
        rng = replica_rng(2, 0)
        for d in (1, 2, 3):
            v0 = random_cdf_profile(rng)
            solver = SandwichSolver(d, v0, 0.01, 1e-3 if d != 2 else 5e-4, horizon_hint=0.3)
            solver.advance_to(0.3)
            pair, trace = solver.pair(), solver.trace
            assert pair.measured_gap <= pair.analytic_gap + pair.grid_gap + 1e-12
            for gap, ana, grid in zip(trace.max_gap, trace.analytic_gap, trace.grid_gap):
                assert gap <= ana + grid + 1e-12

    def test_contains_stationary_profile(self):
        st = stationary_state(1)
        req = SolveRequest(dim=1, initial=st.as_profile(2001, "lower"),
                           horizon=0.5, step_size=0.01, grid_step=2e-4,
                           initial_upper=st.as_profile(2001, "upper"))
        pair = solve_sandwich(req)
        rr = np.linspace(0.0, st.r_infinity * 1.05, 1200)
        v = st.V(rr)
        assert np.all(v <= pair.upper(rr) + 1e-12)
        assert np.all(v >= pair.lower(rr) - 1e-12)
        # each branch individually stays within the certificate of V
        slack = pair.analytic_gap + pair.grid_gap + 1e-12
        assert np.abs(pair.upper(rr) - v).max() <= slack
        assert np.abs(pair.lower(rr) - v).max() <= slack

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_contains_stationary_profile_without_bookkeeping(self, monkeypatch, sign):
        # a kernel that errs by 1e-4 in one direction and reports it: each
        # branch moves outward by the reported error, so V stays inside the
        # pair by construction, not because grid_gap happens to be large
        orig = obstacle.mixture_node_values

        def skewed(*args, **kwargs):
            vals, err = orig(*args, **kwargs)
            return vals + sign * 1e-4, err + 1e-4

        monkeypatch.setattr(obstacle, "mixture_node_values", skewed)
        st = stationary_state(1)
        pair = solve_sandwich(SolveRequest(dim=1, initial=st.as_profile(4001, "lower"),
                                           horizon=0.2, step_size=0.01, grid_step=2e-4,
                                           initial_upper=st.as_profile(4001, "upper")))
        rr = np.linspace(0.0, st.r_infinity * 1.05, 1500)
        v = st.V(rr)
        assert np.all(v <= pair.upper(rr) + 1e-12)
        assert np.all(v >= pair.lower(rr) - 1e-12)

    @pytest.mark.parametrize("d, fine_width", [(1, 0.010043), (3, 0.010027)])
    def test_default_grid_width(self, d, fine_width):
        # the `nbbm solve` defaults from the stationary start: the default
        # grid keeps the measured width within 10% of the widths on the finer
        # grids h = 3.6e-5 (d = 1) and 6.3e-5 (d = 3)
        st = stationary_state(d)
        pair = solve_sandwich(SolveRequest(dim=d, initial=st.as_profile(4001, "lower"),
                                           horizon=1.0, step_size=0.01,
                                           initial_upper=st.as_profile(4001, "upper")))
        assert pair.measured_gap <= 1.10 * fine_width

    def test_default_grid_step_rule(self):
        # h ~ delta^2 / (1 - e^-T), a cost floor off the image route, and the
        # scale cap once the a priori bound is vacuous
        h1 = default_grid_step(1, 1.0, 0.01)
        assert 1e-4 <= h1 <= 1.2e-4
        assert default_grid_step(3, 1.0, 0.01) == h1
        assert default_grid_step(1, 1.0, 0.005) == pytest.approx(h1 / 4)
        assert default_grid_step(2, 1.0, 0.01) == 1.5e-4
        assert default_grid_step(1, 16.0, 0.01) == 1e-3
        assert default_grid_step(1, 16.0, 0.01, r_scale=3.0) == pytest.approx(3e-3)

    def test_generic_dimension_series_route(self):
        # dimensions without an image formula run through the series engine
        v0 = random_cdf_profile(replica_rng(3, 5))
        pair = solve_sandwich(SolveRequest(dim=5, initial=v0, horizon=0.2,
                                           step_size=0.02, grid_step=1e-3))
        assert pair.measured_gap <= pair.analytic_gap + pair.grid_gap + 1e-12
        assert pair.upper.final_value == 1.0

    def test_kernel_calls_go_through_module_binding(self, monkeypatch):
        # per-layer tracing swaps obstacle.mixture_node_values and binds its
        # arguments by name: one lattice call per step, with one row of jump
        # sizes per branch, must pass through it
        orig = obstacle.mixture_node_values
        sig = inspect.signature(orig)
        assert {"dim", "t", "locs", "sizes", "r_nodes",
                "lattice_h"} <= set(sig.parameters)
        calls = []

        def counting(*args, **kwargs):
            calls.append(sig.bind(*args, **kwargs).arguments)
            return orig(*args, **kwargs)

        monkeypatch.setattr(obstacle, "mixture_node_values", counting)
        st = stationary_state(1)
        solve_sandwich(SolveRequest(dim=1, initial=st.as_profile(801, "lower"),
                                    horizon=0.03, step_size=0.01, grid_step=1e-3,
                                    initial_upper=st.as_profile(801, "upper")))
        assert len(calls) == 3
        assert all(a.get("lattice_h") == 1e-3 for a in calls)
        assert all(np.shape(a["sizes"]) == (2, np.size(a["locs"])) for a in calls)

    def test_rejects_jump_at_zero_and_bad_steps(self):
        # the solver checks the initial profile, once
        with pytest.raises(ValueError, match="radius 0"):
            solve_sandwich(SolveRequest(dim=1, initial=RadialProfile.from_jumps([0.0], [1.0]),
                                        horizon=1.0, step_size=0.01))
        with pytest.raises(TypeError):
            SolveRequest(dim=1, initial=RadialProfile.from_jumps([1.0], [1.0]), horizon=1.0)
        for step in (0.0, -0.01):
            with pytest.raises(ValueError):
                SolveRequest(dim=1, initial=RadialProfile.from_jumps([1.0], [1.0]), horizon=1.0,
                             step_size=step)

    @pytest.mark.parametrize("field, value", [
        ("horizon", math.nan), ("horizon", math.inf), ("step_size", math.nan),
        ("step_size", math.inf)])
    def test_rejects_nonfinite_horizon_and_step(self, field, value):
        # NaN and inf used to fail inside the solve with "cannot convert float
        # NaN to integer" or an OverflowError
        kw = {"horizon": 1.0, "step_size": 0.01, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolveRequest(dim=1, initial=RadialProfile.from_jumps([1.0], [1.0]), **kw)

    @pytest.mark.parametrize("grid_step", _NOT_POSITIVE)
    def test_rejects_bad_grid_step(self, grid_step):
        # the solve used to accept any grid_step: 0 failed with an
        # OverflowError, -1e-3 with an IndexError; the solver checks it once
        req = SolveRequest(dim=1, initial=RadialProfile.from_jumps([1.0], [1.0]), horizon=1.0,
                           step_size=0.01, grid_step=grid_step)
        with pytest.raises(ValueError, match="grid_step must be positive and finite"):
            solve_sandwich(req)

    def test_step_divides_horizon(self):
        req = SolveRequest(dim=1, initial=RadialProfile.from_jumps([1.0], [1.0]), horizon=0.27,
                           step_size=0.02, grid_step=2e-3)
        pair = solve_sandwich(req)
        assert pair.steps_taken == 14 and pair.step_size == 0.27 / 14


class TestSandwichSolver:
    def test_rejects_initial_jump_at_zero(self):
        with pytest.raises(ValueError):
            SandwichSolver(1, RadialProfile.from_jumps([0.0], [1.0]), 0.01, horizon_hint=0.1)
        # an upper-branch start is a majorant and may jump at 0
        solver = SandwichSolver(1, RadialProfile.from_jumps([0.5], [1.0]), 0.01, 1e-2,
                                initial_upper=RadialProfile.from_jumps([0.0], [1.0]),
                                horizon_hint=0.1)
        solver.advance_to(0.01)
        assert solver.steps == 1

    @pytest.mark.parametrize("name", ["delta", "grid_step", "horizon_hint"])
    @pytest.mark.parametrize("value", _NOT_POSITIVE)
    def test_scalars_named(self, name, value):
        # delta = nan or inf used to fail at the first step without naming it,
        # and grid_step and horizon_hint, which sizes the default grid, were
        # not checked
        kw = {"delta": 0.01, "horizon_hint": 0.1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SandwichSolver(1, RadialProfile.from_jumps([1.0], [1.0]), **kw)

    @pytest.mark.parametrize("dim", [1.5, 2.0, 0, -1])
    def test_dim_named(self, dim):
        # dim = 1.5 used to step d = 1 kernels on the grid floor of the other
        # dimensions, and dim = 0 raised "math domain error"
        with pytest.raises(ValueError, match=r"dim must be an integer in \[1, inf\]"):
            SandwichSolver(dim, RadialProfile.from_jumps([1.0], [1.0]), 0.01, horizon_hint=0.1)
        solver = SandwichSolver(np.int64(2), RadialProfile.from_jumps([1.0], [1.0]), 0.01,
                                1e-2, horizon_hint=0.1)
        assert type(solver.dim) is int and solver.dim == 2

    @pytest.mark.parametrize("upper_value", [0.5, float(np.nextafter(1.0, 0.0))])
    def test_crossing_start_rejected(self, upper_value):
        # an upper start below the lower one used to give a measured width
        # of 0.0 at step 0 and, at step 1, an AssertionError blaming the solver
        lower = RadialProfile.from_jumps([0.5], [1.0])
        upper = RadialProfile.from_jumps([0.25, 0.5], [upper_value, 1.0])
        upper_low = RadialProfile.from_jumps([0.5, 1.0], [upper_value, 1.0])
        SandwichSolver(1, lower, 0.01, 1e-2, initial_upper=upper, horizon_hint=0.1)
        with pytest.raises(ValueError, match="initial_upper lies below initial"):
            SandwichSolver(1, lower, 0.01, 1e-2, initial_upper=upper_low, horizon_hint=0.1)

    def test_crossing_step_raises(self, monkeypatch):
        # a lower cell above the upper one by less than 1e-10 used to be
        # clipped to it silently and booked into grid_gap
        step = obstacle._sandwich_step

        def crossing(*args):
            (p_up, eps_up), (p_lo, eps_lo) = step(*args)
            i = int(np.argmax((p_up > 0.0) & (p_up < 1.0)))
            assert 0.0 < p_up[i] < 1.0
            p_lo[i] = np.nextafter(p_up[i], 2.0)
            return [(p_up, eps_up), (p_lo, eps_lo)]

        solver = SandwichSolver(1, RadialProfile.from_jumps([0.5, 1.0], [0.5, 1.0]), 0.01,
                                1e-2, horizon_hint=0.1)
        solver.advance_to(0.01)
        monkeypatch.setattr(obstacle, "_sandwich_step", crossing)
        with pytest.raises(AssertionError, match="ordering violated by"):
            solver.advance_to(0.02)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_advance_to_nonfinite_time_rejected(self, t):
        # t = inf used to raise OverflowError
        solver = SandwichSolver(1, RadialProfile.from_jumps([1.0], [1.0]), 0.01, 1e-2,
                                horizon_hint=0.1)
        with pytest.raises(ValueError, match="time must be finite"):
            solver.advance_to(t)
        assert solver.steps == 0

    def test_horizon_hint_is_required(self):
        with pytest.raises(TypeError):
            SandwichSolver(1, RadialProfile.from_jumps([1.0], [1.0]), 0.01, 1e-2)

    def test_advance_to_step_lattice(self):
        solver = SandwichSolver(1, RadialProfile.from_jumps([1.0], [1.0]), 0.01, 5e-3,
                                horizon_hint=2.0)
        for t in np.arange(0.2, 2.0 + 1e-9, 0.05):
            solver.advance_to(t)
            assert solver.steps == round(t / 0.01)
        solver.advance_to(2.0)
        assert solver.steps == 200
        with pytest.raises(ValueError, match="not a multiple"):
            solver.advance_to(2.005)
        with pytest.raises(ValueError, match="before"):
            solver.advance_to(1.99)
        assert solver.steps == 200


# ---------------------------------------------------------------------------
# free_boundary_radius
# ---------------------------------------------------------------------------

class TestFreeBoundary:
    def test_stationary_profile_level(self):
        st = stationary_state(1)
        v = st.as_profile(20001, "nearest")
        r = free_boundary_radius(v)
        # V is quadratically flat at its edge: 1 - V ~ (pi/2 - r)^2 / 2
        assert abs(r - math.pi / 2) < math.sqrt(2e-6) + 1e-3

    def test_constant_profile_sentinel(self):
        v = RadialProfile.from_jumps([1.0], [0.5])
        assert free_boundary_radius(v) == math.inf

    def test_pair_interval_brackets_stationary_radius(self):
        st = stationary_state(1)
        req = SolveRequest(dim=1, initial=st.as_profile(2001, "lower"),
                           horizon=0.5, step_size=0.01, grid_step=2e-4,
                           initial_upper=st.as_profile(2001, "upper"))
        lo, hi = free_boundary_radius(solve_sandwich(req))
        assert lo <= math.pi / 2 <= hi

    def test_nesting_under_refinement(self):
        v0 = random_cdf_profile(replica_rng(4, 4))
        coarse = solve_sandwich(SolveRequest(dim=1, initial=v0, horizon=0.5,
                                             step_size=0.01, grid_step=2e-3))
        fine = solve_sandwich(SolveRequest(dim=1, initial=v0, horizon=0.5,
                                           step_size=0.01, grid_step=2e-4))
        c_lo, c_hi = free_boundary_radius(coarse)
        f_lo, f_hi = free_boundary_radius(fine)
        assert c_lo <= f_lo + 2e-3 and f_hi <= c_hi + 2e-3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_solver_band_is_the_pair_band(self, d):
        # the per-step band on the solver's arrays is the band of its pair
        solver = SandwichSolver(d, stationary_state(d).as_profile(2001, "nearest"), 0.02,
                                2e-3, horizon_hint=0.2)
        for t in (0.02, 0.2):
            solver.advance_to(t)
            assert free_boundary_radius(solver.pair()) == solver.boundary_interval()


# ---------------------------------------------------------------------------
# stationary_state
# ---------------------------------------------------------------------------

class TestStationaryState:
    def test_r_infinity_values(self):
        assert stationary_state(1).r_infinity == pytest.approx(math.pi / 2, abs=1e-12)
        assert stationary_state(2).r_infinity == pytest.approx(2.404825557695773, abs=1e-9)
        assert stationary_state(3).r_infinity == pytest.approx(math.pi, abs=1e-12)

    def test_d1_closed_forms(self):
        st = stationary_state(1)
        r = np.linspace(0.0, math.pi / 2, 50)
        assert np.abs(st.U(r) - 0.5 * np.cos(r)).max() < 1e-12
        assert np.abs(st.V(r) - np.sin(r)).max() < 1e-12
        assert st.U(2.0) == 0.0 and st.V(2.0) == 1.0

    def test_U_takes_radii(self):
        # a length-d array is d radii, not one position vector
        st = stationary_state(2)
        r = np.array([0.5, 1.0])
        assert np.array_equal(st.U(r), [st.U(0.5), st.U(1.0)])
        assert st.U(0.5) > st.U(1.0) > 0.0

    def test_d3_closed_forms(self):
        st = stationary_state(3)
        r = np.linspace(0.05, math.pi, 50)
        u_exact = np.sin(r) / (4 * math.pi ** 2 * r)
        v_exact = (np.sin(r) - r * np.cos(r)) / math.pi
        assert np.abs(st.U(r) - u_exact).max() < 1e-12
        assert np.abs(st.V(r) - v_exact).max() < 1e-12
        assert st.V(math.pi) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_normalization_by_quadrature(self, d):
        st = stationary_state(d)
        sphere = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        val, _ = integrate.quad(lambda r: sphere * r ** (d - 1) * st.U(r),
                                0.0, st.r_infinity, limit=200, epsabs=1e-13)
        assert abs(val - 1.0) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_eigen_residual(self, d):
        # -Laplacian U = U checked with radial finite differences
        st = stationary_state(d)
        h = 1e-4
        r = np.linspace(0.15 * st.r_infinity, 0.9 * st.r_infinity, 31)
        upp = (st.U(r + h) - 2.0 * st.U(r) + st.U(r - h)) / (h * h)
        up = (st.U(r + h) - st.U(r - h)) / (2 * h)
        residual = upp + (d - 1) / r * up + st.U(r)
        assert np.abs(residual).max() <= 1e-6

    @pytest.mark.parametrize("d", [2, 4])
    def test_V_matches_quadrature(self, d):
        st = stationary_state(d)
        sphere = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        for r in (0.3 * st.r_infinity, 0.8 * st.r_infinity):
            val, _ = integrate.quad(lambda s: sphere * s ** (d - 1) * st.U(s),
                                    0.0, r, limit=200, epsabs=1e-13)
            assert st.V(r) == pytest.approx(val, abs=1e-10)

    def test_V_monotone_with_edges(self):
        for d in (1, 2, 3):
            st = stationary_state(d)
            r = np.linspace(0.0, st.r_infinity, 300)
            v = st.V(r)
            assert v[0] == 0.0 and v[-1] == pytest.approx(1.0, abs=1e-14)
            assert np.all(np.diff(v) >= -1e-14)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            stationary_state(13)
        with pytest.raises(ValueError):
            stationary_state(0)

    @pytest.mark.parametrize("d", [1.5, 2.0, 0, 13])
    def test_dimension_named(self, d):
        # d = 1.5 used to report dim=1 with the r_infinity of d = 1.5
        with pytest.raises(ValueError, match=r"d must be an integer in \[1, 12\]"):
            stationary_state(d)
        assert stationary_state(np.int64(1)).r_infinity == stationary_state(1).r_infinity


# ---------------------------------------------------------------------------
# Comparison properties
# ---------------------------------------------------------------------------

def cut_at(f: RadialProfile, m: float) -> RadialProfile:
    """min(f, m) as a step profile, for m in (0, 1]."""
    val = np.minimum(f.values, m)
    keep = np.diff(val, prepend=0.0) > 0.0
    return RadialProfile(f.locations[keep], val[keep], f.domain_cap)


def midpoint_contraction(v0, w0, t, delta, grid_step=None):
    """Continuity in the initial condition on sandwich midpoints: returns
    (sup|v0 - w0|, sup_r |mid1 - mid2|, e^t sup|v0 - w0| + half the two
    solves' a priori gaps), for the solves from v0 and w0 to exactly t with
    steps of at most delta.  The midpoints are compared from both sides at
    every jump of the four profiles, so at equal radius across grids."""
    pairs = [solve_sandwich(SolveRequest(dim=1, initial=f, horizon=t, step_size=delta,
                                         grid_step=grid_step)) for f in (v0, w0)]
    rr = np.unique(np.concatenate([p.lower.locations for p in pairs]
                                  + [p.upper.locations for p in pairs]))
    lhs = max(float(np.max(np.abs(m1 - m2))) for m1, m2 in (
        [0.5 * (p.lower(rr) + p.upper(rr)) for p in pairs],
        [0.5 * (p.lower.value_right(rr) + p.upper.value_right(rr)) for p in pairs]))
    sup0 = v0.sup_distance(w0)
    rhs = math.exp(t) * sup0 + 0.5 * sum(p.analytic_gap + p.grid_gap for p in pairs)
    return sup0, lhs, rhs


class TestContraction:
    def test_equal_initials(self):
        v0 = random_cdf_profile(replica_rng(8, 1))
        sup0, lhs, rhs = midpoint_contraction(v0, v0, t=0.3, delta=0.01, grid_step=1e-3)
        assert sup0 == 0.0
        assert lhs <= rhs  # only the gap slack

    def test_cutoff_pair_ratio(self):
        v0 = random_cdf_profile(replica_rng(8, 2))
        w0 = cut_at(v0, 0.9)
        sup0, lhs, rhs = midpoint_contraction(v0, w0, t=1.0, delta=0.02, grid_step=1e-3)
        assert lhs <= rhs + 1e-12
        assert lhs <= math.e * sup0 + 0.15

    def test_compares_by_radius_across_grids(self):
        # default grids differ (h = 2.5e-3 and 1e-3); the midpoints are
        # compared at equal radius, checked here on a fine radius grid
        v0 = RadialProfile.from_jumps([0.5, 2.5], [0.5, 1.0])
        w0 = RadialProfile.from_jumps([0.3, 0.8], [0.5, 1.0])
        _, lhs, rhs = midpoint_contraction(v0, w0, t=0.5, delta=0.1)
        pairs = [solve_sandwich(SolveRequest(dim=1, initial=f, horizon=0.5,
                                             step_size=0.1)) for f in (v0, w0)]
        rr = np.arange(0.0, 8.0, 1e-4) + 5e-5
        mid1, mid2 = (0.5 * (p.lower(rr) + p.upper(rr)) for p in pairs)
        assert lhs == pytest.approx(float(np.max(np.abs(mid1 - mid2))), abs=1e-12)
        assert lhs <= rhs + 1e-12

    def test_off_lattice_horizon_reached_exactly(self):
        v0 = random_cdf_profile(replica_rng(8, 4), max_r=2.0)
        w0 = cut_at(v0, 0.8)
        pairs = [solve_sandwich(SolveRequest(dim=1, initial=f, horizon=0.27,
                                             step_size=0.02, grid_step=2e-3))
                 for f in (v0, w0)]
        assert all(p.steps_taken * p.step_size == pytest.approx(0.27) for p in pairs)
        _, lhs, rhs = midpoint_contraction(v0, w0, t=0.27, delta=0.02, grid_step=2e-3)
        assert lhs <= rhs + 1e-12

    def test_random_pairs_property(self):
        rng = replica_rng(8, 3)
        for i in range(50):
            v0 = random_cdf_profile(rng, max_r=2.0)
            w0 = random_cdf_profile(rng, max_r=2.0)
            _, lhs, rhs = midpoint_contraction(v0, w0, t=0.2, delta=0.02, grid_step=2e-3)
            assert lhs <= rhs + 1e-12, f"pair {i}: {lhs} > {rhs}"


def convergence_values(rows, t):
    """The statistics of ``convergence_report`` rows at time t, by name."""
    return {r.statistic: r.value for r in rows if r.t == t}


class TestConvergeToV:
    def test_stationary_initial_stays_put(self):
        st = stationary_state(1)
        rows = convergence_report(1, st.as_profile(4001, "nearest"), [0.25, 0.5],
                                  K=2.0, c=0.5, delta=0.01, grid_step=5e-4)
        for t in (0.25, 0.5):
            row = convergence_values(rows, t)
            assert row["sup_mid_to_V"] <= row["combined_gap"]

    def test_uniform_ball_reaches_V(self):
        # frozen desk-scale value: the midpoint tracks V to ~3e-3 by t = 6
        v0 = UniformBallSampler(1).limit_profile()
        rows = convergence_report(1, v0, [6.0], K=1.0, c=0.5, delta=0.01, grid_step=5e-4)
        assert convergence_values(rows, 6.0)["sup_mid_to_V"] <= 0.05

    def test_point_mass_far_out(self):
        rows = convergence_report(1, RadialProfile.from_jumps([3.0], [1.0]), [10.0],
                                  K=3.5, c=0.5, delta=0.01, grid_step=1e-3)
        row = convergence_values(rows, 10.0)
        lo, hi = row["boundary_lo"], row["boundary_hi"]
        # the certified interval reaches within 0.1 of the stationary radius
        assert lo <= math.pi / 2 + 0.1 and hi >= math.pi / 2 - 0.1

    def test_precondition_checked(self):
        with pytest.raises(ValueError):
            convergence_report(1, RadialProfile.from_jumps([5.0], [1.0]), [1.0], K=3.0, c=0.5)

    def test_off_lattice_time_rejected(self):
        with pytest.raises(ValueError, match="not a multiple"):
            convergence_report(1, RadialProfile.from_jumps([0.5], [1.0]), [0.255], K=1.0, c=0.5,
                               delta=0.01, grid_step=2e-3)

    def test_empty_schedule_rejected(self):
        # used to die in max() with "arg is an empty sequence"
        with pytest.raises(ValueError, match="schedule"):
            convergence_report(1, RadialProfile.from_jumps([0.5], [1.0]), [], K=1.0, c=0.5)

    def test_rows_go_through_the_report_writer(self, tmp_path):
        # mass 0.9 grows like e^t, so the lower branch stays short of full
        # mass and the boundary interval is open above
        rows = convergence_report(1, RadialProfile.from_jumps([0.5], [0.9]), [0.05, 0.02],
                                  K=1.0, c=0.5, delta=0.01, grid_step=2e-3)
        names = ["sup_mid_to_V", "boundary_lo", "boundary_hi", "boundary_to_R_inf",
                 "combined_gap"]
        assert [(r.t, r.statistic) for r in rows] == \
            [(t, name) for t in (0.02, 0.05) for name in names]
        assert all((r.experiment, r.N, r.d, r.replicas, r.seed) == ("convergence", 0, 1, 0, 0)
                   and r.tolerance == math.inf and r.passed for r in rows)
        assert convergence_values(rows, 0.05)["boundary_hi"] == math.inf
        w = _ArtifactWriter(str(tmp_path))
        assert _write_report(w, rows) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "experiment,statistic,value,tolerance,passed,N,d,t,replicas,seed"
        back = [line.split(",") for line in lines[1:]]
        assert [(f[1], float(f[2]), float(f[3]), f[4], float(f[7])) for f in back] == \
            [(r.statistic, r.value, r.tolerance, "1", r.t) for r in rows]
        assert "inf" in [f[2] for f in back]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {"rows": len(rows), "failed": 0, "failed_statistics": [],
                           "headline": {}}
