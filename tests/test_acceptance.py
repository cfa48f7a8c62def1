"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Tolerances are the frozen desk-scale budgets; runtime ceilings are asserted
where stated.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from nbbm.cli import parse_config, run as cli_run
from nbbm.core import ParticleEnsemble, RadialProfile
from nbbm.experiments import UniformBallSampler, hydrodynamic_report
from nbbm.kernels import radial_cdf
from nbbm.obstacle import SandwichSolver, stationary_state
from nbbm.sim import (SimParams, coupled_run, replica_rng, spherically_ordered_pairs,
                      survival_curve)


ACCEPTANCE_LINES: list[str] = []


def _report(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, line


def random_cdf_profile(rng):
    nj = int(rng.integers(5, 40))
    locs = np.unique(rng.uniform(0.05, 3.0, nj))
    vals = np.sort(rng.uniform(0.0, 1.0, locs.size))
    vals[-1] = 1.0
    return RadialProfile(locs, vals)


# ---------------------------------------------------------------------------

def test_01_kernel_matches_monte_carlo():
    t0 = time.time()
    n = 1_000_000
    levels = (np.arange(20) + 0.5) / 20.0
    worst = 0.0
    for d in (1, 2, 3):
        for iy, y in enumerate((0.0, 0.5, 2.0)):
            for it, t in enumerate((0.1, 1.0, 4.0)):
                rng = replica_rng(10_000 + d, 7 * iy + it)
                b = rng.standard_normal((n, d)) * math.sqrt(2.0 * t)
                b[:, 0] += y
                norms = np.sort(np.sqrt(np.einsum("ij,ij->i", b, b)))
                # fixed evaluation radii from an independent quantile oracle
                if y == 0.0:
                    r_pts = np.sqrt(2.0 * t * stats.chi2.ppf(levels, d))
                else:
                    r_pts = np.sqrt(2.0 * t * stats.ncx2.ppf(levels, d, y * y / (2 * t)))
                emp = np.searchsorted(norms, r_pts, side="left") / n
                w = radial_cdf(d, y, r_pts, t)
                se = np.sqrt(np.maximum(w * (1.0 - w), 1e-12) / n)
                worst = max(worst, float(np.max(np.abs(w - emp) / (4.0 * se))))
    analytic_ok = abs(radial_cdf(1, 0.0, 2.0, 1.0)
                      - math.erf(1.0)) <= 1e-8
    elapsed = time.time() - t0
    _report(1, "kernel vs Monte Carlo", worst <= 1.0 and analytic_ok
            and elapsed < 60.0,
            f"max |w-emp|/4se = {worst:.3f}, erf check ok, {elapsed:.1f}s")


@pytest.mark.slow
def test_02_sandwich_certificate():
    t0 = time.time()
    counts = {1: 30, 2: 10, 3: 10}
    worst_excess = -math.inf
    idx = 0
    for d, cnt in counts.items():
        grid_step = 1e-3 if d in (1, 3) else 5e-4
        for _ in range(cnt):
            rng = replica_rng(20_000, idx)
            idx += 1
            v0 = random_cdf_profile(rng)
            solver = SandwichSolver(d, v0, 0.01, grid_step, horizon_hint=1.0)
            solver.advance_to(1.0)
            pair, trace = solver.pair(), solver.trace
            # ordering holds at every step (the solver raises otherwise) and
            # the bracket width obeys the certificate at every step
            for gap, ana, grid in zip(trace.max_gap, trace.analytic_gap,
                                      trace.grid_gap):
                worst_excess = max(worst_excess, gap - (ana + grid))
            assert pair.steps_taken == 100 and pair.step_size == 0.01
    elapsed = time.time() - t0
    _report(2, "sandwich certificate", worst_excess <= 1e-12 and elapsed < 120.0,
            f"50 profiles, worst gap excess {worst_excess:.2e}, "
            f"analytic 0.037369, {elapsed:.1f}s")


def test_03_stationary_fixed_point():
    targets = {1: math.pi / 2, 2: 2.404825557695773, 3: math.pi}
    contained = True
    for d in (1, 2, 3):
        st = stationary_state(d)
        assert abs(st.r_infinity - targets[d]) <= 1e-9
        solver = SandwichSolver(d, st.as_profile(4001, "lower"), 0.01,
                                initial_upper=st.as_profile(4001, "upper"),
                                horizon_hint=2.0)
        for t in (0.5, 1.0, 2.0):
            solver.advance_to(t)
            rr = np.linspace(0.0, st.r_infinity * 1.05, 1500)
            v = st.V(rr)
            pair = solver.pair()
            contained &= bool(np.all(v <= pair.upper(rr) + 1e-12)
                              and np.all(v >= pair.lower(rr) - 1e-12))
        # mass normalization and eigenfunction residual
        sphere = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        mass, _ = integrate.quad(lambda r: sphere * r ** (d - 1) * st.U(r),
                                 0.0, st.r_infinity, limit=200, epsabs=1e-13)
        assert abs(mass - 1.0) <= 1e-10
        h = 1e-4
        r = np.linspace(0.15 * st.r_infinity, 0.9 * st.r_infinity, 25)
        upp = (st.U(r + h) - 2 * st.U(r) + st.U(r - h)) / (h * h)
        up = (st.U(r + h) - st.U(r - h)) / (2 * h)
        assert np.abs(upp + (d - 1) / r * up + st.U(r)).max() <= 1e-6
    _report(3, "stationary fixed point", contained,
            "V inside bracket at t in {0.5,1,2} for d in {1,2,3}; "
            "mass within 1e-10, eigen-residual within 1e-6")


def test_04_pathwise_domination():
    t0 = time.time()
    violations = 0
    runs = 0
    for d in (1, 2):
        for rep in range(10):
            rng = replica_rng(40_000 + d, rep)
            ens = ParticleEnsemble(d, UniformBallSampler(d).sample(200, rng))
            res = coupled_run(SimParams(dim=d, population=200,
                                        record_schedule=(0.5, 1.0, 1.5, 2.0)),
                              ens, 2.0, rng)
            runs += 1
            violations += (not res.domination_ok)
            assert all(o.blue_count == 200 for o in res.observations)
            assert res.reconstruction_ok
    elapsed = time.time() - t0
    _report(4, "pathwise domination", violations == 0 and elapsed < 60.0,
            f"{runs} coupled runs, 0 violations, {elapsed:.1f}s")


def test_05_spherically_ordered_pairs():
    n = 10_000
    rng = replica_rng(50_000, 0)
    x = np.zeros((n, 2))
    xp = np.tile([2.75, 0.0], (n, 1))
    times = np.linspace(1.0 / 96, 1.0, 96)
    p, pp, _ = spherically_ordered_pairs(x, xp, times, rng)
    nr = np.sqrt((p ** 2).sum(-1))
    nrp = np.sqrt((pp ** 2).sum(-1))
    violations = int((nr > nrp + 1e-10).sum())
    p_min = 1.0
    for arr in (p, pp):
        for coord in range(2):
            inc = arr[:, -1, coord] - arr[:, 0, coord]
            p_min = min(p_min, stats.kstest(inc, "norm",
                                            args=(0.0, math.sqrt(2.0))).pvalue)
    _report(5, "spherically ordered pairs", violations == 0 and p_min > 0.001,
            f"{n} pairs, 0 order violations, min KS p = {p_min:.4f}")


@pytest.mark.slow
def test_06_hydrodynamic_desk_check():
    t0 = time.time()
    rows = hydrodynamic_report(N=2000, d=1, t=1.0, sampler=UniformBallSampler(1),
                               replicas=10, seed=606)
    q90 = next(r for r in rows if r.statistic == "bracket_distance_q90")
    width = next(r for r in rows if r.statistic == "mean_bracket_width")
    elapsed = time.time() - t0
    _report(6, "hydrodynamic desk check", q90.passed and elapsed < 180.0,
            f"q90 distance {q90.value:.4f} <= 0.05, bracket width "
            f"{width.value:.4f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_07_boundary_desk_check():
    t0 = time.time()
    from nbbm.experiments import boundary_report
    rows = boundary_report(N=5000, d=1, T=2.0, eta=0.2,
                           sampler=UniformBallSampler(1), replicas=10, seed=707)
    frac = rows[0]
    elapsed = time.time() - t0
    _report(7, "boundary desk check", frac.passed and elapsed < 300.0,
            f"exceedance fraction {frac.value:.2f} <= 0.1, {elapsed:.1f}s")


@pytest.mark.slow
def test_08_selection_principle_desk_check():
    t0 = time.time()
    from nbbm.experiments import PointMassSampler, selection_report
    rows = selection_report(N=2000, d=1, t=15.0, K=1.0, c=1.0,
                            sampler=PointMassSampler(1), replicas=10, seed=808)
    frac = next(r for r in rows if r.statistic == "fraction_outside_tolerance")
    half = next(r for r in rows if r.statistic == "half_space_mass_error")
    elapsed = time.time() - t0
    _report(8, "selection principle desk check",
            frac.passed and half.passed and elapsed < 600.0,
            f"outside-tolerance fraction {frac.value:.2f} <= 0.1, half-space "
            f"error {half.value:.4f} <= 0.05, {elapsed:.1f}s")


def test_09_killed_bm_spectral_decay():
    t0 = time.time()
    t_grid = np.linspace(2.0, 6.0, 9)
    surv = survival_curve(1, [0.0], math.pi / 2, t_grid, 60_000,
                          replica_rng(909, 0), dt=2e-3)
    slope = float(np.polyfit(t_grid, np.log(surv), 1)[0])
    elapsed = time.time() - t0
    _report(9, "killed BM spectral decay",
            abs(slope + 1.0) <= 0.1 and elapsed < 120.0,
            f"log-survival slope {slope:.4f} within -1 +- 0.1, {elapsed:.1f}s")


def test_10_determinism_across_workers(tmp_path):
    def exec_run(sub, overrides, out, workers):
        cfg = parse_config(None, sub, {**overrides, "out": out,
                                       "workers": str(workers), "seed": "4242"})
        assert cli_run(cfg) in (0, 1)
        with open(f"{out}/manifest.json") as fh:
            return fh.read()

    hydro_over = {"n": "600", "t": "0.5", "replicas": "3",
                  "grid_step": "0.001", "tolerance_q90": "0.5"}
    sel_over = {"n": "300", "t": "3.0", "replicas": "3", "sup_tol": "0.5",
                "m_tol": "0.5", "mass_tol": "0.5"}
    ok = True
    for sub, over in (("hydro", hydro_over), ("selection", sel_over)):
        manifests = [exec_run(sub, over, str(tmp_path / f"{sub}{i}"), w)
                     for i, w in enumerate((1, 2, 3))]
        ok &= manifests[0] == manifests[1] == manifests[2]
        hashes = json.loads(manifests[0])["artifacts"]
        ok &= "report.csv" in hashes
    _report(10, "determinism across workers", ok,
            "hydro and selection manifests byte-identical for workers 1, 2, 3")
