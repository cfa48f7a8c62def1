"""An independent high-precision oracle for the solver's kernel applies.

A few sandwich steps per d in {1, 2, 3} run on coarse lattices, and every
kernel apply they make is recomputed in mpmath at a few dozen nodes: d = 1
and d = 3 from their Gaussian image closed forms, d = 2 from the noncentral
chi-squared series with the incomplete gamma function.  The actual error at
each node must be at most the apply's booked ``eval_err``, and the stepped
branches must contain the exact step at those nodes.  The worst ratio of
actual to booked error is recorded per d.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from nbbm import kernels, obstacle
from nbbm.obstacle import SandwichSolver, stationary_state

_H, _DELTA, _STEPS, _NODES = 0.02, 0.05, 3, 30


def _exact_series(dim, sizes, h, nodes, t):
    """sum_j c_j sum_m Poisson(m; mu_j) P(d/2 + m, z) at the lattice nodes,
    with mu_j = (j h)^2 / 4t and z = (i h)^2 / 4t, summed far past both
    tails; P by its recurrence from mpmath's regularized gammainc."""
    a = mp.mpf(dim) / 2
    jumps = [(mp.mpf(c), (j * mp.mpf(h)) ** 2 / (4 * t))
             for j, c in enumerate(sizes) if c != 0.0]
    top = max(mu for _, mu in jumps)
    n_m = int(top + 20 * mp.sqrt(top) + 60)
    q = [mp.mpf(0)] * n_m
    for c, mu in jumps:
        p = c * mp.exp(-mu)
        for m in range(n_m):
            q[m] += p
            p = p * mu / (m + 1)
    out = []
    for i in nodes:
        z = (i * mp.mpf(h)) ** 2 / (4 * t)
        basis = mp.gammainc(a, 0, z, regularized=True)
        term = mp.exp(a * mp.log(z) - z - mp.loggamma(a + 1)) if z > 0 else mp.mpf(0)
        total = mp.mpf(0)
        for m in range(n_m):
            total += q[m] * basis
            basis -= term
            term = term * z / (a + m + 1)
        out.append(total)
    return out


def _exact_images(dim, sizes, h, nodes, t):
    """sum_j c_j w(j h, i h, t) from the image closed forms: with
    E(k) = erf(k h / 2 sqrt t) and g(k) = e^(-(k h)^2 / 4t), tabulated once,
    w = (E(i-j) + E(i+j)) / 2 in d = 1, less sqrt(t/pi) (g(i-j) - g(i+j)) / (j h)
    in d = 3, where a jump at the origin gives the Maxwell law E(i) -
    2 q g(i) / sqrt(pi), q = i h / 2 sqrt t."""
    h, s = mp.mpf(h), 2 * mp.sqrt(t)
    n = len(sizes) + int(max(nodes)) + 1
    erf = [mp.erf(k * h / s) for k in range(n)]
    gauss = [mp.exp(-(k * h / s) ** 2) for k in range(n)]
    out = []
    for i in nodes:
        total = mp.mpf(0)
        for j, c in enumerate(sizes):
            if c == 0.0:
                continue
            if dim == 3 and j == 0:
                w = erf[i] - 2 / mp.sqrt(mp.pi) * (i * h / s) * gauss[i]
            else:
                w = (mp.sign(i - j) * erf[abs(i - j)] + erf[i + j]) / 2
                if dim == 3:
                    w -= mp.sqrt(t / mp.pi) / (j * h) * (gauss[abs(i - j)] - gauss[i + j])
            total += mp.mpf(c) * w
        out.append(total)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_applies_within_booked_error(d, monkeypatch, record_property):
    applies, steps = [], []
    kernel, step = obstacle.mixture_node_values, obstacle._sandwich_step

    def recording_kernel(*args, **kwargs):
        out = kernel(*args, **kwargs)
        applies.append((args, out))
        return out

    def recording_step(*args):
        out = step(*args)
        steps.append(out)
        return out

    monkeypatch.setattr(obstacle, "mixture_node_values", recording_kernel)
    monkeypatch.setattr(obstacle, "_sandwich_step", recording_step)
    kernels._IMAGE_CACHE.clear()
    st = stationary_state(d)
    solver = SandwichSolver(d, st.as_profile(401, "lower"), _DELTA, grid_step=_H,
                            initial_upper=st.as_profile(401, "upper"),
                            horizon_hint=_STEPS * _DELTA)
    solver.advance_to(_STEPS * _DELTA)
    assert len(applies) == len(steps) == _STEPS
    e_d, worst = math.exp(_DELTA), 0.0
    for (args, (vals, errs)), stepped in zip(applies, steps):
        dim, t, _, sizes, r_nodes = args
        n = r_nodes.size
        nodes = np.unique(np.r_[np.linspace(1, n - 1, _NODES - 6).astype(int),
                                np.arange(1, 7) * (n // 7)])
        for row, v, err, (p_new, _), upper in zip(sizes, vals, errs, stepped,
                                                  (True, False)):
            oracle = _exact_series if dim == 2 else _exact_images
            with mp.workdps(30):
                exact = np.array([float(x) for x in oracle(dim, row, _H, nodes, mp.mpf(t))])
            actual = np.abs(v[nodes] - exact)
            assert np.all(actual <= err), (d, upper, actual.max(), err)
            worst = max(worst, float(actual.max() / err))
            # the branches contain the exact step: upper on the cell left of
            # each node (capped at its tail), lower on the cell right of it
            if upper:
                tail = min(e_d * float(row.sum()), 1.0)
                assert np.all(p_new[nodes - 1] >= np.minimum(e_d * exact, tail))
            else:
                assert np.all(p_new[nodes] <= e_d * exact)
    record_property(f"actual_over_booked_d{d}", worst)
    assert worst > 0.0
