import math

import numpy as np
import pytest
from scipy import stats

from nbbm import experiments
from nbbm.core import ParticleEnsemble, RadialProfile, empirical_cdf, max_radius
from nbbm.experiments import (PointMassSampler, StationarySampler, UniformBallSampler,
                              bracket_distance, boundary_report, hydrodynamic_report,
                              selection_report, stationarity_report, sup_distance_to_fn)
from nbbm.obstacle import SandwichSolver, stationary_state
from nbbm.sim import advance_nbbm, replica_rng


class TestSamplers:
    def test_uniform_ball_d1_is_uniform_interval(self):
        pts = UniformBallSampler(1).sample(20000, replica_rng(1, 0))
        assert pts.shape == (20000, 1)
        assert stats.kstest(np.abs(pts[:, 0]), "uniform").pvalue > 0.001
        assert stats.kstest(pts[:, 0], "uniform", args=(-1, 2)).pvalue > 0.001

    def test_uniform_ball_limit_profile(self):
        prof = UniformBallSampler(2).limit_profile()
        rr = np.linspace(0.01, 0.99, 50)
        assert np.abs(prof(rr) - rr ** 2).max() < 1e-3

    def test_stationary_sampler_matches_V(self):
        for d in (1, 3):
            state = stationary_state(d)
            pts = StationarySampler(d).sample(20000, replica_rng(2, d))
            norms = np.linalg.norm(pts, axis=1)
            assert norms.max() < state.r_infinity
            assert stats.kstest(norms, state.V).pvalue > 0.001

    def test_point_mass(self):
        pts = PointMassSampler(3).sample(7, replica_rng(3, 0))
        assert np.all(pts == 0.0)
        assert PointMassSampler(3).limit_profile() is None


class TestDistances:
    def test_bracket_distance_zero_inside(self):
        lower = RadialProfile.from_jumps([1.0], [0.8])
        upper = RadialProfile.from_jumps([0.5], [1.0])
        from nbbm.core import SandwichPair
        pair = SandwichPair(lower, upper, 0.1, 0.0, 1, 0.1)
        inside = RadialProfile.from_jumps([0.75], [0.9])
        assert bracket_distance(inside, pair) == 0.0
        outside = RadialProfile.from_jumps([0.25], [1.0])  # jumps above upper early
        assert bracket_distance(outside, pair) == pytest.approx(1.0)

    def test_sup_distance_to_fn(self):
        f = RadialProfile.from_jumps([1.0], [1.0])
        # |step at 1 - straight line r| peaks at the jump: value 1 just after it
        assert sup_distance_to_fn(f, lambda r: np.clip(r, 0, 1) / 1.0, 1.0) \
            == pytest.approx(1.0)


@pytest.mark.parametrize("replicas", [0, -1, 2.5])
@pytest.mark.parametrize("driver", ["hydro", "boundary", "selection"])
def test_replica_count_named(driver, replicas, monkeypatch):
    # replicas = 0 used to raise IndexError in hydrodynamic_report and give
    # NaN rows marked failed in the other two; 2.5 failed inside range
    def ran(*args, **kwargs):
        raise AssertionError("a solve or particle run started")

    for name in ("SandwichSolver", "solve_sandwich", "advance_nbbm", "_run_replicas"):
        monkeypatch.setattr(experiments, name, ran)
    kw = dict(N=200, d=1, sampler=UniformBallSampler(1), replicas=replicas, seed=0)
    call = {"hydro": lambda: hydrodynamic_report(t=0.1, **kw),
            "boundary": lambda: boundary_report(T=0.2, eta=0.1, **kw),
            "selection": lambda: selection_report(t=0.1, K=1.0, c=0.5, **kw)}[driver]
    with pytest.raises(ValueError, match=r"replicas must be an integer in \[1, inf\]"):
        call()


class TestHydrodynamicReport:
    def test_small_run_passes(self):
        rows = hydrodynamic_report(N=400, d=1, t=0.5, sampler=UniformBallSampler(1),
                                   replicas=2, seed=11, grid_step=1e-3,
                                   tolerance_q90=0.2)
        q90 = [r for r in rows if r.statistic == "bracket_distance_q90"][0]
        assert q90.passed
        assert all(r.value >= 0.0 for r in rows)

    def test_measured_width_row(self):
        rows = hydrodynamic_report(N=400, d=1, t=0.5, sampler=UniformBallSampler(1),
                                   replicas=2, seed=11, grid_step=1e-3,
                                   tolerance_q90=0.2)
        by_name = {r.statistic: r.value for r in rows}
        # the measured width is the certificate; the a priori bound sits above it
        assert 0.0 < by_name["mean_measured_width"] <= by_name["mean_bracket_width"]

    def test_short_time_limit(self):
        # with t -> 0 almost no events occur: the empirical CDF barely moves
        # and must sit within the bracket up to ~2/N plus its width
        rows = hydrodynamic_report(N=300, d=1, t=1e-3, sampler=UniformBallSampler(1),
                                   replicas=2, seed=12, grid_step=1e-3,
                                   tolerance_q90=1.0)
        width = [r for r in rows if r.statistic == "mean_bracket_width"][0].value
        q90 = [r for r in rows if r.statistic == "bracket_distance_q90"][0].value
        assert q90 <= 2.0 / 300 + width

    def test_refuses_tiny_population(self):
        with pytest.raises(ValueError):
            hydrodynamic_report(N=10, d=1, t=0.5, sampler=UniformBallSampler(1),
                                replicas=1, seed=0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_time_must_be_positive(self, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            hydrodynamic_report(N=100, d=1, t=t, sampler=UniformBallSampler(1),
                                replicas=1, seed=0)

    def test_deterministic_given_seed(self):
        kw = dict(N=300, d=1, t=0.3, sampler=UniformBallSampler(1), replicas=2,
                  seed=77, grid_step=2e-3)
        a = hydrodynamic_report(**kw)
        b = hydrodynamic_report(**kw)
        assert [(r.statistic, r.value) for r in a] == [(r.statistic, r.value) for r in b]


class TestBoundaryReport:
    def test_eta_must_be_below_horizon(self):
        with pytest.raises(ValueError):
            boundary_report(N=200, d=1, T=1.0, eta=1.0, sampler=UniformBallSampler(1),
                            replicas=1, seed=0)

    def test_small_run(self):
        rows = boundary_report(N=400, d=1, T=0.8, eta=0.25,
                               sampler=UniformBallSampler(1), replicas=4, seed=21,
                               grid_step=1e-3)
        assert rows[0].statistic == "exceedance_fraction"
        assert 0.0 <= rows[0].value <= 1.0

    @pytest.mark.parametrize("snapshot_dt", [0.3, 0.0])
    def test_snapshots_must_fit(self, snapshot_dt):
        # 0.3 does not divide T - eta = 1.0: the last snapshot would stop at
        # 1.0 while the row is labelled t = T = 1.1
        with pytest.raises(ValueError, match="T - eta|step"):
            boundary_report(N=100, d=1, T=1.1, eta=0.1, sampler=UniformBallSampler(1),
                            replicas=1, seed=0, grid_step=1e-2, snapshot_dt=snapshot_dt)

    @pytest.mark.parametrize("snapshot_dt", [0.3, 0.0, -0.1, math.nan, math.inf])
    def test_bad_snapshot_dt_is_named(self, snapshot_dt):
        # the step check used to name the argument "step"
        with pytest.raises(ValueError, match="snapshot_dt"):
            boundary_report(N=100, d=1, T=1.1, eta=0.1, sampler=UniformBallSampler(1),
                            replicas=1, seed=0, grid_step=1e-2, snapshot_dt=snapshot_dt)

    def test_snapshot_times_keep_arange_rounding(self, monkeypatch):
        seen = []
        advance_to = SandwichSolver.advance_to
        monkeypatch.setattr(SandwichSolver, "advance_to",
                            lambda self, t: (seen.append(t), advance_to(self, t)))
        boundary_report(N=100, d=1, T=0.8, eta=0.25, sampler=UniformBallSampler(1),
                        replicas=1, seed=0, grid_step=1e-2)
        assert seen == [float(s) for s in np.arange(0.25, 0.8 + 1e-9, 0.05)]
        assert seen[-1] == pytest.approx(0.8, abs=1e-12)


class TestSelectionReport:
    def test_small_run_and_consistency(self):
        rows = selection_report(N=200, d=1, t=5.0, K=1.0, c=1.0,
                                sampler=PointMassSampler(1), replicas=3, seed=31)
        frac = [r for r in rows if r.statistic == "fraction_outside_tolerance"][0]
        assert 0.0 <= frac.value <= 1.0
        half = [r for r in rows if r.statistic == "half_space_mass_error"][0]
        assert half.value <= 0.25

    def test_sup_bound_implies_max_radius_bound(self):
        # if sup |F - V| <= eps then no mass is missing near the edge, so
        # the largest norm exceeds the (1 - eps)-quantile of V
        state = stationary_state(1)
        rng = replica_rng(32, 0)
        ens = ParticleEnsemble(1, PointMassSampler(1).sample(400, rng))
        ens, _ = advance_nbbm(ens, 6.0, rng)
        f = empirical_cdf(ens)
        eps = sup_distance_to_fn(f, state.V, state.r_infinity)
        m = max_radius(ens)
        grid = np.linspace(0.0, state.r_infinity, 20001)
        v_inv = float(np.interp(1.0 - eps, state.V(grid), grid))
        assert m >= v_inv - 1e-9

    def test_gamma_precondition_enforced(self):
        with pytest.raises(ValueError):
            selection_report(N=150, d=1, t=1.0, K=0.5, c=1.0,
                             sampler=UniformBallSampler(1), replicas=1, seed=1)

    @pytest.mark.parametrize("window_dt", [0.3, 0.7, 1.5, 0.0])
    def test_window_must_fit(self, window_dt):
        # the excess is read over a unit window in whole steps of window_dt
        with pytest.raises(ValueError, match="window|step"):
            selection_report(N=100, d=1, t=0.2, K=1.0, c=1.0, sampler=PointMassSampler(1),
                             replicas=1, seed=1, window_dt=window_dt)

    @pytest.mark.parametrize("window_dt", [0.3, 0.0, -0.05, math.nan, math.inf])
    def test_bad_window_dt_is_named(self, window_dt):
        # the step check used to name the argument "step"
        with pytest.raises(ValueError, match="window_dt"):
            selection_report(N=100, d=1, t=0.2, K=1.0, c=1.0, sampler=PointMassSampler(1),
                             replicas=1, seed=1, window_dt=window_dt)


class TestStationarityReport:
    def test_desk_scale_windows_agree(self):
        rows = stationarity_report(N=1000, d=1, burn_in=20.0, window=5.0,
                                   n_windows=4, seed=41)
        pairwise = [r for r in rows if r.statistic == "max_pairwise_window_distance"][0]
        assert pairwise.passed, f"pairwise distance {pairwise.value}"
        v_rows = [r for r in rows if r.statistic.endswith("_to_V")]
        assert len(v_rows) == 4

    def test_two_seeds_agree(self):
        def avg_curve(seed):
            rows = stationarity_report(N=600, d=1, burn_in=12.0, window=4.0,
                                       n_windows=2, seed=seed)
            return [r.value for r in rows if r.statistic.endswith("_to_V")]
        a, b = avg_curve(101), avg_curve(202)
        # both seeds settle near V, hence near each other
        assert max(a) < 0.08 and max(b) < 0.08

    def test_distance_trend_recorded_in_N(self):
        vals = {}
        for n in (250, 1000):
            rows = stationarity_report(N=n, d=1, burn_in=10.0, window=4.0,
                                       n_windows=2, seed=51)
            vals[n] = np.mean([r.value for r in rows if r.statistic.endswith("_to_V")])
        # recorded, not asserted per-seed: larger N should not be wildly worse
        assert vals[1000] < vals[250] + 0.05

    @pytest.mark.parametrize("n_windows", [0, 1])
    def test_needs_two_windows(self, n_windows):
        # one window has no pair to compare: max_pairwise_window_distance
        # used to read 0.0 and pass
        with pytest.raises(ValueError, match="n_windows"):
            stationarity_report(N=100, d=1, burn_in=0.2, window=1.0,
                                n_windows=n_windows, seed=1)

    @pytest.mark.parametrize("name", ["burn_in", "window"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_spans_must_be_positive(self, name, value):
        # burn_in = inf used to reach advance_nbbm, which named its windows
        kw = {"burn_in": 0.2, "window": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            stationarity_report(N=100, d=1, n_windows=2, seed=1, **kw)

    @pytest.mark.parametrize("snapshot_dt", [0.3, 0.0, 2.0])
    def test_window_must_fit(self, snapshot_dt):
        # each window is a whole number of snapshots, so its time label holds
        with pytest.raises(ValueError, match="window|step"):
            stationarity_report(N=100, d=1, burn_in=0.2, window=1.0, n_windows=2,
                                seed=1, snapshot_dt=snapshot_dt)

    @pytest.mark.parametrize("snapshot_dt", [0.3, 0.0, -0.25, math.nan, math.inf])
    def test_bad_snapshot_dt_is_named(self, snapshot_dt):
        # the step check used to name the argument "step"
        with pytest.raises(ValueError, match="snapshot_dt"):
            stationarity_report(N=100, d=1, burn_in=0.2, window=1.0, n_windows=2,
                                seed=1, snapshot_dt=snapshot_dt)
