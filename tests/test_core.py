import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbbm.core import (ParticleEnsemble, RadialProfile, SandwichPair, discretize_cdf,
                       empirical_cdf, in_gamma, max_radius, measure_of_set, whole_steps)
from nbbm.experiments import StationarySampler
from nbbm.obstacle import SandwichSolver, SolveRequest, solve_sandwich, stationary_state
from nbbm.sim import replica_rng


def ens(points, dim=None):
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    return ParticleEnsemble(dim or arr.shape[1], arr)


# ---------------------------------------------------------------------------
# RadialProfile
# ---------------------------------------------------------------------------

class TestRadialProfile:
    def test_step_convention_pre_jump(self):
        f = RadialProfile([0.5, 1.5], [0.5, 1.0])
        assert f(0.5) == 0.0          # value at the jump is the pre-jump value
        assert f(0.5000001) == 0.5
        assert f(1.5) == 0.5
        assert f(2.0) == 1.0
        assert f(0.0) == 0.0

    def test_constant_beyond_last_jump(self):
        f = RadialProfile([1.0], [0.7])
        assert f(4.9) == 0.7
        assert f(1e9) == 0.7

    def test_jump_at_zero_allowed_with_pre_value_zero(self):
        f = RadialProfile([0.0], [1.0])
        assert f(0.0) == 0.0
        assert f(1e-12) == 1.0

    def test_rejects_bad_jumps(self):
        with pytest.raises(ValueError):
            RadialProfile([1.0, 1.0], [0.2, 0.4])
        with pytest.raises(ValueError):
            RadialProfile([1.0, 2.0], [0.5, 0.3])
        with pytest.raises(ValueError):
            RadialProfile([1.0], [1.5])
        with pytest.raises(ValueError):
            RadialProfile([-0.1], [0.5])
        # rows out of order are refused, not read as a profile with no boundary
        with pytest.raises(ValueError, match="strictly increasing"):
            RadialProfile.from_csv("r,value\n5.0,1.0\n1.0,1.0\n")

    def test_sup_distance_exact_on_steps(self):
        f = RadialProfile([1.0], [1.0])
        g = RadialProfile([2.0], [1.0])
        assert f.sup_distance(g) == 1.0
        assert f.sup_distance(f) == 0.0

    def test_csv_round_trip(self):
        # every kind of profile the package writes comes back bit-equal
        pair = solve_sandwich(SolveRequest(dim=1, initial=RadialProfile([0.5, 1.0], [0.5, 1.0]),
                                           horizon=0.05, step_size=0.01))
        st1 = stationary_state(1)
        profiles = [RadialProfile([0.25, 1.5], [0.5, 1.0]), pair.lower, pair.upper,
                    *(st1.as_profile(401, mode) for mode in ("lower", "upper", "nearest")),
                    empirical_cdf(ens([[0.3, 0.4], [-1.0, 0.0], [0.0, 0.5], [2.0, 1.0]])),
                    RadialProfile([], [])]
        for f in profiles:
            g = RadialProfile.from_csv(f.to_csv())
            assert g.locations.tobytes() == f.locations.tobytes()
            assert g.values.tobytes() == f.values.tobytes()
        # a file's only row used to be taken for the terminal row: the zero profile
        one = RadialProfile.from_csv("r,value\n0.5,0.2\n")
        assert one.locations.tolist() == [0.5] and one.values.tolist() == [0.2]

    def test_old_terminal_row_dropped(self):
        # older files end in a row repeating the final value at a larger
        # radius; it used to load as a zero-size jump there, and the solver,
        # which sizes its first grid from the last jump, built 113,668 nodes
        # from this text with its terminal row at r = 10 in place of 37,550
        new = stationary_state(1).as_profile(4001, "nearest").to_csv()
        loaded = [(RadialProfile.from_csv(text), RadialProfile.from_csv(old)) for text, old in (
            (new, new + "10.0,1.0\n"),
            ("r,value\n0.25,0.5\n1.5,1.0\n",
             "r,value\n0.25,0.5\n1.5,1.0\n18.470562748477143,1.0\n"),
            ("r,value\n", "r,value\n16.970562748477143,0.0\n"))]
        for f, g in loaded:
            assert g.locations.tobytes() == f.locations.tobytes()
            assert g.values.tobytes() == f.values.tobytes()
        f, g = loaded[0]
        assert SandwichSolver(1, g, 0.01, horizon_hint=1.0).grid.size == \
            SandwichSolver(1, f, 0.01, horizon_hint=1.0).grid.size

    @pytest.mark.parametrize("text, line", [
        ("r,value\n", None),
        ("r,value\n0.5\n1.0,1.0\n", 2),
        ("r,value\n0.5,0.2,0.3\n1.0,0.2\n", 2),
        ("r,value\n0.5,0.2\n\n1.0,one\n", 4),
    ])
    def test_from_csv_names_bad_rows(self, text, line):
        # these rows used to fail with "tuple index out of range", "too many
        # values to unpack" or float()'s message, none naming the line, and a
        # header-only file did not load
        if line is None:
            f = RadialProfile.from_csv(text)
            assert f.locations.size == f.values.size == 0
        else:
            with pytest.raises(ValueError, match=f"line {line} is not 'r,value'"):
                RadialProfile.from_csv(text)


# ---------------------------------------------------------------------------
# discretize_cdf
# ---------------------------------------------------------------------------

class TestDiscretizeCdf:
    @staticmethod
    def cdf(r):
        return np.clip(np.asarray(r) / 2.0, 0.0, 1.0) ** 2

    def test_modes_bracket_the_cdf(self):
        rr = np.linspace(0.0, 2.5, 2001)
        exact = self.cdf(rr)
        lo = discretize_cdf(self.cdf, 2.0, 41, "lower")
        up = discretize_cdf(self.cdf, 2.0, 41, "upper")
        mid = discretize_cdf(self.cdf, 2.0, 41, "nearest")
        assert np.all(lo(rr) <= exact + 1e-15) and np.all(exact <= up(rr) + 1e-15)
        assert np.all(lo(rr) <= mid(rr)) and np.all(mid(rr) <= up(rr))
        assert lo.final_value == up.final_value == mid.final_value == 1.0

    def test_nearest_is_the_cell_midpoint_rule(self):
        mid = discretize_cdf(self.cdf, 2.0, 5, "nearest")
        nodes = np.linspace(0.0, 2.0, 5)
        v = self.cdf(nodes)
        assert np.array_equal(mid.locations, nodes[1:])
        assert np.array_equal(mid.values, np.append(0.5 * (v[1:-1] + v[2:]), 1.0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            discretize_cdf(self.cdf, 2.0, 5, "bogus")

    @pytest.mark.parametrize("mode", ["upper", "lower", "nearest"])
    @pytest.mark.parametrize("name, r_max, n_nodes", [
        *(("r_max", r, 5) for r in (0.0, math.nan, math.inf)),
        *(("n_nodes", 2.0, n) for n in (1, 0, 2.5))])
    def test_degenerate_grid_rejected(self, mode, name, r_max, n_nodes):
        # 'upper' and 'lower' used to return the zero profile, so that
        # stationary_state(1).as_profile(1, "upper") was an empty "upper
        # bracket" of V, and 'nearest' raised an IndexError; n_nodes = 2.5
        # raised a TypeError inside numpy
        with pytest.raises(ValueError, match=name):
            discretize_cdf(self.cdf, r_max, n_nodes, mode)


# ---------------------------------------------------------------------------
# whole_steps
# ---------------------------------------------------------------------------

class TestWholeSteps:
    def test_lattice_spans(self):
        # the drivers' default windows keep their step counts
        assert whole_steps(1.0, 0.05, "window", "window_dt") == 20
        assert whole_steps(5.0, 0.25, "window", "snapshot_dt") == 20
        assert whole_steps(2.0 + 1e-10, 0.01, "time", "delta") == 200  # within 1e-9 * max(1, span)
        with pytest.raises(ValueError, match="time 2.005 is not a multiple"):
            whole_steps(2.005, 0.01, "time", "delta")

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_positive(self, step):
        # an infinite step used to give 0 steps: 0 * inf is nan, which
        # passes the multiple check
        with pytest.raises(ValueError, match="positive"):
            whole_steps(1.0, step, "window", "window_dt")

    @pytest.mark.parametrize("span", [math.nan, math.inf, -math.inf])
    def test_span_must_be_finite(self, span):
        # inf used to raise OverflowError from round(), and NaN a bare
        # NaN-to-integer error
        with pytest.raises(ValueError, match="window must be finite"):
            whole_steps(span, 0.05, "window", "window_dt")


# ---------------------------------------------------------------------------
# empirical_cdf
# ---------------------------------------------------------------------------

class TestEmpiricalCdf:
    def test_all_at_origin(self):
        f = empirical_cdf(ens(np.zeros((4, 2))))
        assert f(0.0) == 0.0
        assert f(1e-9) == 1.0 and f(10.0) == 1.0

    def test_two_particles_d1(self):
        f = empirical_cdf(ens([[0.5], [-1.5]]))
        assert np.allclose(f.locations, [0.5, 1.5])
        assert np.allclose(f.values, [0.5, 1.0])

    def test_strict_inequality_at_max(self):
        e = ens([[0.3], [0.9]])
        f = empirical_cdf(e)
        m = max_radius(e)
        assert f(m) < 1.0
        assert f(m + 1e-12) == 1.0

    def test_dkw_uniform_ball(self):
        # ||X|| of uniform(-1, 1) is uniform(0, 1): the sup distance to
        # min(r, 1) exceeds 0.062 with probability <= 2 exp(-2 N eps^2) < 1e-3
        n, failures, reps = 1000, 0, 300
        rng = replica_rng(2024, 0)
        for _ in range(reps):
            u = np.sort(np.abs(rng.uniform(-1.0, 1.0, n)))
            i = np.arange(1, n + 1)
            d_stat = max(np.max(i / n - u), np.max(u - (i - 1) / n))
            failures += d_stat > 0.062
        assert failures <= 15  # 5% of replicas, far above the DKW rate

    def test_output_is_valid_profile(self):
        rng = replica_rng(5, 1)
        f = empirical_cdf(ens(rng.standard_normal((50, 3))))
        assert np.all(np.diff(f.locations) > 0)
        assert np.all(np.diff(f.values) > 0)
        assert f.values[-1] == 1.0


# ---------------------------------------------------------------------------
# ParticleEnsemble / max_radius / in_gamma / measure_of_set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("clock", [-1.0, math.nan, math.inf, -math.inf])
def test_ensemble_clock_must_be_finite(clock):
    # clock = nan used to be accepted, and advance_nbbm then failed with an
    # AttributeError
    with pytest.raises(ValueError, match="clock must be finite and nonnegative"):
        ParticleEnsemble(1, np.zeros((3, 1)), clock)


@pytest.mark.parametrize("dim", [2.0, 0])
def test_ensemble_dim_must_be_an_integer(dim):
    # dim = 2.0 used to be kept as a float
    with pytest.raises(ValueError, match=r"dim must be an integer in \[1, inf\]"):
        ParticleEnsemble(dim, np.zeros((3, int(dim))))


@pytest.mark.parametrize("name", ["analytic_gap", "grid_gap"])
@pytest.mark.parametrize("gap", [-1.0, math.nan, math.inf])
def test_sandwich_pair_gaps_must_be_finite(name, gap):
    # a NaN gap used to be accepted
    f = RadialProfile([1.0], [1.0])
    kw = {"analytic_gap": 0.1, "grid_gap": 0.0, name: gap}
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        SandwichPair(f, f, steps_taken=1, step_size=0.1, **kw)


def test_sandwich_pair_ordering_is_exact():
    # lower used to be allowed up to 1e-9 above upper
    upper = RadialProfile([1.0], [0.5])
    with pytest.raises(ValueError, match="lower exceeds upper"):
        SandwichPair(RadialProfile([1.0], [0.5 + 1e-12]), upper, 0.1, 0.0, 1, 0.1)
    assert SandwichPair(upper, upper, 0.1, 0.0, 1, 0.1).measured_gap == 0.0


def test_max_radius_examples():
    assert max_radius(ens(np.zeros((3, 2)))) == 0.0
    assert max_radius(ens([[3.0, 4.0], [0.0, 1.0]])) == 5.0


def test_in_gamma_threshold():
    pts = np.zeros((10, 1))
    pts[3:, 0] = 5.0  # 3 particles inside B(1)
    e = ens(pts)
    assert in_gamma(e, 1.0, 0.3)
    assert not in_gamma(e, 1.0, 0.31)
    assert in_gamma(ens(np.zeros((5, 2))), 0.1, 1.0)
    with pytest.raises(ValueError):
        in_gamma(e, 0.0, 0.5)


@pytest.mark.parametrize("K", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_in_gamma_radius_must_be_positive(K):
    # K = inf used to return True and K = nan False
    with pytest.raises(ValueError, match="K must be positive and finite"):
        in_gamma(ens(np.zeros((5, 2))), K, 0.5)


@settings(max_examples=40, deadline=None)
@given(k1=st.floats(0.1, 5.0), dk=st.floats(0.0, 5.0),
       c1=st.floats(0.01, 1.0), dc=st.floats(0.0, 0.5))
def test_in_gamma_monotone(k1, dk, c1, dc):
    rng = np.random.default_rng(99)
    e = ens(rng.standard_normal((40, 2)))
    c2 = max(c1 - dc, 1e-6)
    if in_gamma(e, k1, c1):
        assert in_gamma(e, k1 + dk, c1)
        assert in_gamma(e, k1, c2)


def test_in_gamma_stationary_support():
    sampler = StationarySampler(1)
    for rep in range(5):
        pts = sampler.sample(200, replica_rng(31, rep))
        e = ens(pts)
        assert max_radius(e) < math.pi / 2
        assert in_gamma(e, math.pi / 2, 1.0)


class TestMeasureOfSet:
    def test_full_space(self):
        e = ens(np.random.default_rng(0).standard_normal((20, 2)))
        assert measure_of_set(e, lambda x: np.ones(len(x), dtype=bool)) == 1.0

    def test_ball_matches_cdf(self):
        e = ens(np.random.default_rng(1).standard_normal((50, 3)))
        f = empirical_cdf(e)
        for r in (0.5, 1.0, 2.0):
            ball = measure_of_set(e, lambda x, r=r: np.einsum("ij,ij->i", x, x) < r * r)
            assert ball == pytest.approx(f(r))

    def test_additive_over_disjoint(self):
        e = ens(np.random.default_rng(2).standard_normal((64, 2)))
        left = measure_of_set(e, lambda x: x[:, 0] > 0.0)
        right = measure_of_set(e, lambda x: x[:, 0] <= 0.0)
        assert left + right == pytest.approx(1.0)

    def test_half_space_of_stationary_cloud(self):
        # U is spherically symmetric, so half-space mass pools to 1/2
        sampler = StationarySampler(2)
        total, m = 0.0, 0
        for rep in range(20):
            pts = sampler.sample(500, replica_rng(7, rep))
            total += float((pts[:, 0] > 0.0).sum())
            m += 500
        assert abs(total / m - 0.5) < 3.0 * 0.5 / math.sqrt(m)
