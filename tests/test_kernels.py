import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import chndtr, erf

from mp_exact import exact_series
from nbbm import kernels, obstacle
from nbbm.cli import main
from nbbm.kernels import bessel_density, kernel_G, mixture_node_values, radial_cdf
from nbbm.obstacle import SolveRequest, solve_sandwich, stationary_state
from nbbm.sim import replica_rng


@pytest.fixture(params=[1, 2, 3])
def d(request):
    return request.param


# ---------------------------------------------------------------------------
# radial_cdf
# ---------------------------------------------------------------------------

class TestRadialCdf:
    def test_cdf_axioms(self, d):
        r = np.linspace(0.0, 12.0, 200)
        for y in (0.0, 0.5, 2.0):
            w = radial_cdf(d, y, r, 1.0)
            assert w[0] == 0.0
            assert np.all(np.diff(w) >= -1e-14)
            assert w[-1] > 1.0 - 1e-8

    def test_nonincreasing_in_y(self, d):
        for t in (0.1, 1.0):
            vals = [radial_cdf(d, y, 1.3, t) for y in (0.0, 0.4, 0.8, 1.6, 3.0)]
            assert np.all(np.diff(vals) <= 1e-14)

    def test_d1_y0_gaussian(self):
        assert radial_cdf(1, 0.0, 2.0, 1.0) == pytest.approx(erf(1.0), abs=1e-12)
        for r, t in [(0.5, 0.25), (3.0, 2.0)]:
            assert radial_cdf(1, 0.0, r, t) == pytest.approx(erf(r / (2 * math.sqrt(t))),
                                                             abs=1e-12)

    def test_small_time_indicator(self, d):
        assert radial_cdf(d, 0.5, 1.0, 1e-8) == pytest.approx(1.0, abs=1e-9)
        assert radial_cdf(d, 1.0, 0.5, 1e-8) == pytest.approx(0.0, abs=1e-9)

    def test_matches_noncentral_chi2_cdf(self, d):
        # cross-validation of the series against an independent implementation
        r = np.linspace(0.01, 6.0, 97)
        for y in (0.3, 1.0, 2.5):
            for t in (0.05, 0.7, 3.0):
                ours = radial_cdf(d, y, r, t)
                ref = chndtr(r * r / (2 * t), d, y * y / (2 * t))
                assert np.abs(ours - ref).max() < 5e-9

    @pytest.mark.parametrize("d", [2, 4, 5])
    @pytest.mark.parametrize("y, t", [(2.0, 1e-4), (20.0, 0.01)])
    def test_matches_noncentral_chi2_cdf_large_noncentrality(self, d, y, t):
        # y^2/4t = 1e4: the Poisson window sits far from index 0
        r = y + np.linspace(-8.0, 8.0, 81) * math.sqrt(2 * t)
        ours = radial_cdf(d, y, r, t)
        ref = chndtr(r * r / (2 * t), d, y * y / (2 * t))
        assert np.abs(ours - ref).max() < 5e-9

    def test_monte_carlo_identity(self, d):
        # the norm-process law must match simulation; light version of the
        # full acceptance matrix
        rng = replica_rng(123, d)
        n = 200_000
        for y, t in [(0.0, 0.5), (1.5, 1.0)]:
            b = rng.standard_normal((n, d)) * math.sqrt(2 * t)
            b[:, 0] += y
            norms = np.sqrt(np.einsum("ij,ij->i", b, b))
            for q in (0.1, 0.5, 0.9):
                r = float(np.quantile(norms, q))
                w = radial_cdf(d, y, r, t)
                se = math.sqrt(w * (1 - w) / n)
                assert abs(w - (norms < r).mean()) < 4 * se + 1e-4

    def test_domain_errors(self, d):
        with pytest.raises(ValueError):
            radial_cdf(d, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            radial_cdf(d, 0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            radial_cdf(d, -0.5, 1.0, 1.0)
        for kernel in (radial_cdf, bessel_density, kernel_G):
            with pytest.raises(ValueError, match="dim"):
                kernel(0, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("name, y, t", [
        *(("t", 0.5, t) for t in (0.0, -1.0, math.nan, math.inf, -math.inf)),
        *(("y", y, 1.0) for y in (-0.5, math.nan, math.inf, -math.inf))])
    def test_scalar_arguments_named(self, d, name, y, t):
        for kernel in (radial_cdf, bessel_density, kernel_G):
            with pytest.raises(ValueError, match=f"{name} must be"):
                kernel(d, y, 1.0, t)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("y, r", [(math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0),
                                      (0.5, math.inf), (0.5, [0.5, math.nan])])
    def test_nonfinite_arguments_rejected(self, dim, y, r):
        # radial_cdf(3, nan, 1, 1) and radial_cdf(2, 0.5, nan, 1) never returned
        for kernel in (radial_cdf, bessel_density, kernel_G):
            with pytest.raises(ValueError, match="finite"):
                kernel(dim, y, r, 1.0)

    def test_nan_series_mean_rejected(self):
        # a NaN mean used to keep the window search looping forever
        with pytest.raises(ValueError, match="NaN"):
            kernels._window_edges(np.array([1.0, math.nan]), 0.0, 1.0, kernels._TAIL)

    def test_series_window_blowup_is_diagnosed(self):
        from nbbm.kernels import EvaluationError
        with pytest.raises(EvaluationError):
            radial_cdf(2, 1e6, 1e6, 1e-12)

    def test_large_index_moderate_window_still_works(self):
        # huge noncentrality with a manageable mode window must evaluate
        assert radial_cdf(2, 1.0, 0.5, 1e-8) == pytest.approx(0.0, abs=1e-9)
        assert radial_cdf(2, 1.0, 1.5, 1e-8) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# bessel_density
# ---------------------------------------------------------------------------

class TestBesselDensity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("y", [0.5, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_normalization(self, d, y, t):
        val, err = integrate.quad(lambda r: bessel_density(d, y, r, t),
                                  0.0, y + 12 * math.sqrt(2 * t), limit=200)
        assert abs(val - 1.0) < 1e-8

    def test_matches_dw_dr(self, d):
        h = 1e-5
        for y, r, t in [(0.5, 1.0, 0.3), (2.0, 1.5, 1.0)]:
            fd = (radial_cdf(d, y, r + h, t) - radial_cdf(d, y, r - h, t)) / (2 * h)
            assert fd == pytest.approx(bessel_density(d, y, r, t), abs=1e-6)

    def test_maxwell_limit_d3(self):
        for r, t in [(0.5, 0.25), (2.0, 1.0)]:
            expected = r * r * math.exp(-r * r / (4 * t)) / (2 * math.sqrt(math.pi) * t ** 1.5)
            assert bessel_density(3, 0.0, r, t) == pytest.approx(expected, rel=1e-10)

    def test_y0_matches_small_y(self, d):
        r = np.linspace(0.05, 4.0, 50)
        g0 = bessel_density(d, 0.0, r, 0.5)
        g_eps = bessel_density(d, 1e-7, r, 0.5)
        assert np.abs(g0 - g_eps).max() < 1e-6


# ---------------------------------------------------------------------------
# kernel_G
# ---------------------------------------------------------------------------

class TestKernelG:
    def test_matches_minus_dw_dy(self, d):
        h = 1e-5
        for y, r, t in [(0.5, 1.0, 0.3), (2.0, 1.5, 1.0), (1.0, 2.5, 0.2)]:
            fd = -(radial_cdf(d, y + h, r, t) - radial_cdf(d, y - h, r, t)) / (2 * h)
            assert fd == pytest.approx(kernel_G(d, y, r, t), abs=1e-6)

    def test_vanishes_at_r0(self, d):
        for y, t in [(0.5, 0.3), (2.0, 1.0)]:
            assert kernel_G(d, y, 0.0, t) == 0.0

    def test_nonnegative(self, d):
        r = np.linspace(0.0, 6.0, 100)
        assert np.all(kernel_G(d, 1.0, r, 0.5) >= 0.0)

    def test_integral_over_y_is_w_from_origin(self, d):
        # int_0^inf G(y, r, t) dy telescopes -dw/dy down to w(0, r, t)
        for r, t in [(1.0, 0.5), (2.0, 1.0)]:
            val, _ = integrate.quad(lambda y: kernel_G(d, y, r, t),
                                    0.0, r + 12 * math.sqrt(2 * t), limit=200)
            assert val == pytest.approx(radial_cdf(d, 0.0, r, t), abs=1e-8)
            assert val <= 1.0 + 1e-10

    def test_cross_relation_dr_G_eq_minus_dy_g(self, d):
        # dG/dr = -dg/dy on a grid of (y, r, t)
        h = 1e-4
        for y in (0.7, 1.5):
            for r in (0.6, 1.8):
                for t in (0.3, 1.0):
                    dG = (kernel_G(d, y, r + h, t) - kernel_G(d, y, r - h, t)) / (2 * h)
                    dg = (bessel_density(d, y + h, r, t)
                          - bessel_density(d, y - h, r, t)) / (2 * h)
                    assert dG == pytest.approx(-dg, abs=5e-6)


# ---------------------------------------------------------------------------
# G_t, the cutoffs and e^t G_t applied to step profiles on the lattice
# ---------------------------------------------------------------------------

def one_mixture(d, t, idx, sizes, r, h):
    """The mixture of jumps ``sizes`` at the distinct lattice indices ``idx``
    on the nodes r = i*h, in the kernel's one call shape: a single dense row
    of jump sizes over the lattice prefix r[:max(idx) + 1].  Returns the
    values and the error of that row."""
    row = np.zeros((1, int(np.max(idx)) + 1))
    row[0, idx] = sizes
    vals, errs = mixture_node_values(d, t, r[:row.shape[1]], row, r, lattice_h=h)
    return vals[0], float(errs[0])


def _lattice_branch(rng, n: int, top: float) -> np.ndarray:
    """Nondecreasing node array with random jumps in the first n/4 cells, ending at top."""
    idx = np.sort(rng.choice(np.arange(1, n // 4), int(rng.integers(3, 20)), replace=False))
    jumps = np.zeros(n)
    jumps[idx] = np.diff(np.sort(rng.uniform(0.0, top, idx.size)), prepend=0.0)
    jumps[idx[-1]] += top - jumps.sum()
    return np.cumsum(jumps)


class TestApplyGt:
    H = 2e-3

    def test_unit_step_at_origin_gives_radial_cdf(self, d):
        r = np.arange(2000) * self.H
        vals, err = one_mixture(d, 0.3, [0], [1.0], r, self.H)
        exact = radial_cdf(d, 0.0, r, 0.3)
        assert np.abs(vals - exact).max() <= err + 1e-13

    def test_zero_profile(self, d):
        r = np.arange(500) * self.H
        vals, errs = mixture_node_values(d, 0.5, r[:0], np.zeros((1, 0)), r, lattice_h=self.H)
        assert vals.shape == (1, r.size) and errs.tolist() == [0.0] and not vals.any()

    def test_modes_bracket_exact(self, d):
        # below e^-delta neither cutoff acts, so the lower and upper branch
        # steps bracket the uncut e^delta G_delta f, and they differ on each
        # cell by no more than the allowance the step reports
        rng = np.random.default_rng(7)
        delta, n = 0.2, 2000
        p = _lattice_branch(rng, n, math.exp(-delta))
        (up, eps), (lo, _) = obstacle._sandwich_step(d, delta, self.H, p, p)
        assert np.all(up - lo <= eps)
        rr = rng.uniform(0.0, (n - 1) * self.H, 300)
        cell = np.ceil(rr / self.H).astype(int) - 1
        sizes = np.diff(p, prepend=0.0)
        live = np.flatnonzero(sizes > 0.0)
        exact = math.exp(delta) * sum(sizes[i] * radial_cdf(d, i * self.H, rr, delta)
                                      for i in live)
        assert np.all(lo[cell] <= exact + 1e-10)
        assert np.all(up[cell] >= exact - 1e-10)


class TestCutoff:
    def test_identity_and_zero(self):
        # the cutoffs inside the sandwich step: C_{e^-delta} is the identity
        # on a lower branch already below e^-delta, C_1 keeps the upper step
        # at most 1, and the zero pair stays zero
        rng = np.random.default_rng(5)
        delta, h = 0.1, 2e-3
        p = _lattice_branch(rng, 1500, 1.0)
        (up, _), (lo, _) = obstacle._sandwich_step(1, delta, h, p, p)
        (_, _), (lo_cut, _) = obstacle._sandwich_step(1, delta, h, p,
                                                      np.minimum(p, math.exp(-delta)))
        assert np.array_equal(lo, lo_cut)
        assert up.max() == 1.0
        zeros = np.zeros(p.size)
        for out, _ in obstacle._sandwich_step(1, delta, h, zeros, zeros):
            assert not out.any()


class TestLinearEvolve:
    H = 1e-3

    def test_doubling_from_unit_step(self):
        # e^t G_t 1{0 < r} at t = ln 2 is 2 w(0, r, ln 2), rising to 2 uncut
        t = math.log(2.0)
        r = np.arange(8000) * self.H
        vals, err = one_mixture(1, t, [0], [1.0], r, self.H)
        out = math.exp(t) * vals
        assert np.abs(out - 2.0 * radial_cdf(1, 0.0, r, t)).max() <= 2.0 * err + 1e-12
        assert out.max() == pytest.approx(2.0, abs=1e-6)

    def test_zero(self, d):
        r = np.arange(500) * self.H
        vals, err = one_mixture(d, 1.0, [100, 200], [0.0, 0.0], r, self.H)
        assert err == 0.0 and not vals.any()

    def test_unit_step_special_case(self, d):
        # for f0 = 1{y < r} the growing solution is e^t w(y, r, t)
        y, t = 0.8, 0.6
        r = np.arange(5000) * self.H
        vals, err = one_mixture(d, t, [round(y / self.H)], [1.0], r, self.H)
        exact = math.exp(t) * radial_cdf(d, y, r, t)
        assert np.abs(math.exp(t) * vals - exact).max() <= math.exp(t) * err + 1e-12


# ---------------------------------------------------------------------------
# mixture_node_values on a lattice (the solver's route)
# ---------------------------------------------------------------------------

class TestLatticeMixture:
    H = 0.01
    N = 2000  # nodes i*H, r up to 20

    @staticmethod
    def _reference(d, t, locs, sizes, r):
        # independent of the anchored series: closed forms in d = 1, 3 and
        # scipy's noncentral chi-squared CDF in d = 2
        if d == 2:
            return sum(c * stats.ncx2.cdf(r * r / (2 * t), 2, a * a / (2 * t))
                       for a, c in zip(locs, sizes))
        return sum(c * radial_cdf(d, float(a), r, t) for a, c in zip(locs, sizes))

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_time_must_be_positive(self, d, t):
        r = np.arange(50) * self.H
        with pytest.raises(ValueError, match="t must be positive and finite"):
            one_mixture(d, t, [10], [1.0], r, self.H)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        # dim 0 used to take the series route and return NaN at node 0
        r = np.arange(50) * self.H
        with pytest.raises(ValueError, match="dim must be >= 1"):
            one_mixture(dim, 0.1, [10], [1.0], r, self.H)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.01, 0.3])
    def test_matches_pointwise_kernel(self, d, t):
        # jumps at and near 0, mid-range, and far beyond the image band
        # (about 120 cells at t = 0.01 and 660 at t = 0.3)
        idx = np.array([0, 1, 3, 400, 1500])
        sizes = np.array([0.05, 0.2, 0.1, 0.4, 0.25])
        r = np.arange(self.N) * self.H
        kernels._IMAGE_CACHE.clear()
        vals, err = one_mixture(d, t, idx, sizes, r, self.H)
        ref = self._reference(d, t, idx * self.H, sizes, r)
        assert 0.0 < err < 1e-8
        assert np.abs(vals - ref).max() <= err + 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_semigroup(self, d):
        # G_0.5 f = G_0.25 G_0.25 f, up to resampling G_0.25 f as a lattice
        # step function, which moves it by at most one cell's oscillation
        rng = np.random.default_rng(13)
        idx = np.unique(rng.integers(5, 200, 12))
        sizes = np.diff(np.sort(rng.uniform(0.0, 1.0, idx.size)), prepend=0.0)
        r = np.arange(600) * self.H
        once, err1 = one_mixture(d, 0.5, idx, sizes, r, self.H)
        inter, err2 = one_mixture(d, 0.25, idx, sizes, r, self.H)
        jumps = np.diff(inter, prepend=0.0)
        twice, err3 = one_mixture(d, 0.25, np.arange(r.size), jumps, r, self.H)
        cell = float(np.max(jumps[1:]))
        assert np.abs(once - twice).max() <= cell + err1 + err2 + err3 + 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf])
    def test_lattice_step_must_be_positive(self, d, h):
        # at h = 0 every node sits at the origin, where the d = 2 lattice
        # would never reach the end of its first anchor block
        with pytest.raises(ValueError, match="lattice_h"):
            mixture_node_values(d, 0.1, [0.0], [[1.0]], np.zeros(5), lattice_h=h)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_off_lattice_input_rejected(self, d):
        # the one call shape: sizes (k, m) on locs equal to the lattice
        # prefix r_nodes[:m]; nodes off the lattice, jumps anywhere else (on
        # the lattice, a hair off it or past the last node) and a 1-D sizes
        # are refused by name
        r = np.arange(200) * self.H
        row = np.ones((1, 51))
        with pytest.raises(ValueError, match="r_nodes"):
            mixture_node_values(d, 0.01, r[:51], row, r + 0.003, lattice_h=self.H)
        for locs in ([0.5], r[1:52], r[:51] + 1e-13, np.arange(201) * self.H, r[None, :51]):
            with pytest.raises(ValueError, match="locs"):
                mixture_node_values(d, 0.01, locs, np.ones((1, np.size(locs))), r,
                                    lattice_h=self.H)
        for sizes in (row[0], row[:, 1:], row[None]):
            with pytest.raises(ValueError, match=r"sizes must have shape \(k, 51\)"):
                mixture_node_values(d, 0.01, r[:51], sizes, r, lattice_h=self.H)
        vals, errs = mixture_node_values(d, 0.01, r[:51], row, r, lattice_h=self.H)
        assert vals.shape == (1, 200) and errs.shape == (1,)
        assert vals[0, -1] == pytest.approx(51.0, abs=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_lattice_input_rejected(self, d):
        # a NaN location or node used to pass the lattice checks, and a NaN
        # or infinite size gave NaN values and a NaN error
        r = np.arange(200) * self.H
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="sizes"):
                one_mixture(d, 0.01, [50, 60], [1.0, bad], r, self.H)
        with pytest.raises(ValueError, match="locs"):
            mixture_node_values(d, 0.01, np.r_[r[:60], math.nan], np.ones((1, 61)), r,
                                lattice_h=self.H)
        with pytest.raises(ValueError, match="r_nodes"):
            mixture_node_values(d, 0.01, r[:51], np.ones((1, 51)), np.r_[r, math.nan],
                                lattice_h=self.H)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_rows_match_one_row_calls(self, d):
        # k mixtures on shared locs and nodes: each row gets the bits of a
        # call with that row alone, whatever the other rows hold, and a
        # node's value does not depend on how many nodes follow it (the
        # image band once shrank with the node count on small lattices)
        rng = np.random.default_rng(17 + d)
        m, n = 150, 600
        r = np.arange(n) * self.H
        sizes = rng.uniform(0.0, 1.0, (3, m)) * (rng.uniform(size=(3, m)) < 0.3)
        sizes[0, 40:] = 0.0
        sizes[2] = 0.0
        vals, errs = mixture_node_values(d, 0.05, r[:m], sizes, r, lattice_h=self.H)
        assert vals.shape == (3, n) and errs.shape == (3,)
        assert not vals[2].any() and errs[2] == 0.0
        for row, v, e in zip(sizes, vals, errs):
            for n_out in (n, m + 10):
                one, err = mixture_node_values(d, 0.05, r[:m], row[None], r[:n_out],
                                               lattice_h=self.H)
                assert np.array_equal(one[0], v[:n_out]) and err[0] == e
        with pytest.raises(ValueError, match="sizes"):
            mixture_node_values(d, 0.05, r[:m], sizes[:, 1:], r, lattice_h=self.H)

    @pytest.mark.parametrize("d", [2, 5])
    def test_grown_lattice_matches_fresh(self, d):
        # the anchored lattice is rebuilt when the solver's node count
        # outgrows it, and its applies keep the bits, values and errors, of
        # a lattice built at the final length
        t = 0.05
        rng = np.random.default_rng(23 + d)
        rows = [rng.uniform(size=m) * (rng.uniform(size=m) < 0.4) for m in (150, 900)]
        key = ("series", d, t, self.H)
        kernels._IMAGE_CACHE.clear()
        kernels._lattice_anchored(d, t, rows[:1], self.H, 300)
        small = kernels._IMAGE_CACHE[key]
        grown = [kernels._lattice_anchored(d, t, rows, self.H, n_out) for n_out in (1200, 3000)]
        assert kernels._IMAGE_CACHE[key].n > small.n
        for n_out, (vals, errs) in zip((1200, 3000), grown):
            kernels._IMAGE_CACHE.clear()
            fresh_vals, fresh_errs = kernels._lattice_anchored(d, t, rows, self.H, n_out)
            assert vals.tobytes() == fresh_vals.tobytes()
            assert errs.tobytes() == fresh_errs.tobytes()

    def test_cache_stays_under_byte_budget(self, monkeypatch):
        kernels._IMAGE_CACHE.clear()

        def solve(d):
            st = stationary_state(d)
            req = SolveRequest(dim=d, initial=st.as_profile(801, "lower"), horizon=0.03,
                               step_size=0.01, initial_upper=st.as_profile(801, "upper"))
            solve_sandwich(req)
            return sum(e.nbytes for e in kernels._IMAGE_CACHE.values())

        for d in (1, 3, 2):
            assert 0 < solve(d) <= kernels._CACHE_BYTES
        kinds = {key[0] for key in kernels._IMAGE_CACHE}
        assert kinds == {"image", "series"}
        # a budget below one engine keeps only the newest entry
        monkeypatch.setattr(kernels, "_CACHE_BYTES", 1)
        solve(1)
        assert len(kernels._IMAGE_CACHE) == 1
        assert next(iter(kernels._IMAGE_CACHE))[0] == "image"

    def test_wide_d2_solve_stays_in_cache_budget(self, tmp_path):
        # radius 8 at delta = 0.001 spans anchored tables of about 3.5e7
        # terms, far past the cache budget: blocks past it must stream
        kernels._IMAGE_CACHE.clear()
        assert main(["solve", "--out", str(tmp_path), "--set", "d=2", "--set", "initial=uniform",
                     "--set", "initial_radius=8", "--set", "delta=0.001",
                     "--set", "t=0.002"]) == 0
        assert sum(e.nbytes for e in kernels._IMAGE_CACHE.values()) <= kernels._CACHE_BYTES


# ---------------------------------------------------------------------------
# the anchored route (every d but 1 and 3) against the exact series
# ---------------------------------------------------------------------------

def _random_lattice(rng, h, n):
    idx = np.sort(rng.choice(np.arange(n // 2), 12, replace=False))
    return idx, rng.uniform(0.0, 1.0, idx.size), np.arange(n) * h


class TestAnchoredRoute:
    H, N = 0.01, 400

    @pytest.mark.parametrize("d", [2, 4, 5, 12])
    @pytest.mark.parametrize("t", [0.01, 0.3])
    def test_matches_pointwise_sweep(self, d, t):
        # against the exact series in mpmath at a few dozen nodes, the jumps'
        # own among them: the actual error is at most the booked one
        rng = np.random.default_rng(d * 1000 + round(100 * t))
        idx, sizes, r = _random_lattice(rng, self.H, self.N)
        kernels._IMAGE_CACHE.clear()
        vals, err = one_mixture(d, t, idx, sizes, r, self.H)
        nodes = np.unique(np.r_[np.linspace(0, self.N - 1, 30).astype(int), idx[::2]])
        c = np.zeros(idx.max() + 1)
        c[idx] = sizes
        with mp.workdps(30):
            exact = np.array([float(v) for v in exact_series(d, c, self.H, nodes, mp.mpf(t))])
        assert np.all(np.abs(vals[nodes] - exact) <= err)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_table_rows_within_booked_l1_error(self, s):
        # roundoff booking takes every entry of a table block w columns wide
        # to be within gamma(_WEIGHT_ULPS + 2w + 2) of psi_k(A) = A^(s+k)
        # e^-A / Gamma(s+k+1), relatively; here in l1 over each row
        anchors = np.r_[np.arange(0.0, 61.0), 100.0, 400.0, 1e4]
        table = kernels._Table(s, anchors, *kernels._window_edges(
            anchors, s, s + 1.0, kernels._TAIL / 4))
        with mp.workdps(30):
            for b in range(table.c0.size):
                block, c0 = table.build(b), int(table.c0[b])
                booked = kernels._gamma(kernels._WEIGHT_ULPS + 2 * block.shape[1] + 2)
                for x, row in zip(anchors[table.rows[b]:table.rows[b + 1]], block):
                    exact = [mp.exp((s + k) * mp.log(x) - x - mp.loggamma(s + k + 1))
                             if x > 0 else mp.mpf(k == 0) / mp.gamma(s + 1)
                             for k in range(c0, c0 + row.size)]
                    l1 = sum(abs(mp.mpf(v) - e) for v, e in zip(row.tolist(), exact))
                    assert l1 <= booked * sum(exact), (x, float(l1))

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("terms", [6, 21])
    def test_taylor_remainder_bound(self, d, terms, monkeypatch):
        # against 8 more Taylor terms, the change stays within the booked
        # remainder (1 + max(1, 2^(d/2))) / terms! per unit mass (and the
        # roundoff both evaluations book)
        rng = np.random.default_rng(31 + d)
        idx, sizes, r = _random_lattice(rng, self.H, self.N)
        out = {}
        for n_terms in (terms, terms + 8):
            monkeypatch.setattr(kernels, "_taylor_terms", lambda lift, n=n_terms: n)
            kernels._IMAGE_CACHE.clear()
            out[n_terms] = one_mixture(d, 0.05, idx, sizes, r, self.H)
        (short, err_short), (long, err_long) = out[terms], out[terms + 8]
        lift = max(1.0, 2.0 ** (0.5 * d))
        remainder = (1.0 + lift) / math.factorial(terms) * sizes.sum()
        change = np.abs(short - long).max()
        assert change <= remainder + 1e-12
        assert err_short >= remainder
        if terms == 6:  # the remainder is what moves the values
            assert change > 1e-9
