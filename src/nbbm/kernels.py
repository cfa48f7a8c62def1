"""Radial transition kernels of d-dimensional Brownian motion (diffusivity sqrt 2).

Objects implemented here, all conditional on the starting radius y:

* ``radial_cdf``  w(y, r, t) = P(||B_t|| < r | ||B_0|| = y)
* ``bessel_density``  g = dw/dr, the Bessel transition density
* ``kernel_G``  G = -dw/dy, the fundamental solution of
  dG/dt = d^2G/dr^2 - ((d-1)/r) dG/dr with G(y, 0, t) = 0

The computational route: ||B_t||^2 / (2t) follows a noncentral chi-squared
law with d degrees of freedom and noncentrality y^2 / (2t), so

    w(y, r, t) = sum_m  Poisson(m; y^2/(4t)) * P(d/2 + m, r^2/(4t))

with P the regularized lower incomplete gamma function.  The Poisson tail
gives an explicit truncation bound, so every evaluation carries a certified
absolute error.  Differentiating the series in the noncentrality shifts the
degrees of freedom by two, giving the closed forms

    g(y, r, t) = (r/t) * f_ncx2(r^2/2t; d,   y^2/2t)
    G(y, r, t) = (y/t) * f_ncx2(r^2/2t; d+2, y^2/2t).

For d = 1 and d = 3 everything reduces to Gaussian image formulas.  The
lattice engine ``mixture_node_values``, which the solver's sandwich step
calls once for both branches, evaluates G_t of step profiles with jumps
c_j at lattice points a_j as the finite mixtures sum_j c_j w(a_j, r, t) on
the lattice nodes, and every apply costs the kernel's support, not the
domain:

* image route (d = 1, 3): the saturated parts of the image kernels are
  prefix sums of the jump sizes, and the remainders, cut to a band of B
  cells, are one FFT convolution of length about n_act + 2B (n_act = cells
  carrying jumps);
* series route (any other d): each jump's Poisson weights and each node's
  incomplete-gamma basis are swept only over a window of about c*sqrt(z)
  indices, with indices below a node's window entering through a prefix
  sum.  The windows and start values are built once per (dim, t, h) and
  cached, and one sweep serves every mixture of a call.

The returned ``eval_err`` books, per unit of mixture mass, the image terms
beyond the band (erfc and Gaussian tails), the four series window tails,
and FFT, prefix-sum and recurrence roundoff.  Bands and windows are sized
so that every dropped tail stays below 2^-56 per unit mass; no quadrature
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import fft
from scipy.special import erf, erfc, gammainc, gammaincc, gammaln, ive

__all__ = [
    "EvaluationError",
    "radial_cdf",
    "bessel_density",
    "kernel_G",
    "mixture_node_values",
]

_SQRT_PI = math.sqrt(math.pi)


class EvaluationError(RuntimeError):
    """A series window would need more than _MAX_WINDOW terms."""


def _check_time(t: float):
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"t must be positive and finite, got {t}")


_BAND_TAIL = 1e-15  # transition mass left beyond support_band


def support_band(t: float, dim: int) -> float:
    """Radial displacement beyond which transition mass is below _BAND_TAIL."""
    return (math.sqrt(4.0 * t * max(math.log(2.0 * dim / _BAND_TAIL), 1.0))
            + 4.0 * math.sqrt(t / dim))


# ---------------------------------------------------------------------------
# Noncentral chi-squared machinery: one windowed sweep, explicit tails
# ---------------------------------------------------------------------------
#
# A mixture sum_j c_j w(a_j, r, t) expands as sum_m q[m] P(d/2 + m, z) with
# z = r^2/(4t) and q[m] = sum_j c_j Poisson(m; mu_j), mu_j = a_j^2/(4t).
# Each jump's Poisson weights are negligible outside a window of about
# c*sqrt(mu_j) indices around mu_j, and each node's basis P(d/2 + m, z) is
# within a tail of 1 below, and of 0 above, a window of about c*sqrt(z)
# indices around z.  Every window edge is verified with gammainc/gammaincc,
# indices below a node's window enter through a prefix sum of q, and the
# dropped tails are booked per unit of mixture mass.
#
# Every tail is cut at _TAIL per unit mass, below double rounding: the
# solver freezes its flat tail where values come within 1e-12 of the total
# mass, so a coarser kernel there would move the active grid.  There is no
# accuracy option.

_MAX_WINDOW = 5_000_000  # series terms per window before giving up
_TAIL = 2.0 ** -56       # per-unit-mass cap on every dropped tail
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _bd0(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """k log(k/x) + x - k without cancellation near k = x (Loader 2000)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = k * np.log(k / x) + x - k
    near = np.abs(k - x) < 0.1 * (k + x)
    if near.any():
        kk, d = k[near], k[near] - x[near]
        v = d / (k[near] + x[near])
        acc, ej, v2 = d * v, 2.0 * kk * v, v * v
        for j in range(1, 60):
            ej = ej * v2
            step = ej / (2 * j + 1)
            acc += step
            if np.all(np.abs(step) <= 1e-17 * np.abs(acc)):
                break
        out[near] = acc
    return out


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """log Gamma(k+1) - (k + 1/2) log k + k - log sqrt(2 pi), for k > 0."""
    out = np.empty_like(k)
    big = k >= 15.0
    kb = k[big]
    kb2 = kb * kb
    out[big] = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * kb2)) / kb2) / kb2) / kb
    ks = k[~big]
    out[~big] = gammaln(ks + 1.0) - (ks + 0.5) * np.log(ks) + ks - _LOG_SQRT_2PI
    return out


def _gamma_weight(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^k e^-x / Gamma(k+1) for k, x >= 0 to a few ulps (saddle point form).

    At integer k this is the Poisson(x) pmf at k; at k = d/2 + m it is the
    step P(d/2 + m, x) - P(d/2 + m + 1, x) of the incomplete-gamma basis.
    """
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.where(k == 0.0, np.exp(-x), 0.0)
    pos = (k > 0.0) & (x > 0.0)
    kp, xp = k[pos], x[pos]
    out[pos] = np.exp(-_stirlerr(kp) - _bd0(kp, xp)) / np.sqrt(2.0 * math.pi * kp)
    return out


def _smallest_passing(passes, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise smallest integer m in (lo, hi] with passes(m, x).

    ``passes`` is monotone in m and holds at hi; lo itself is never tested.
    """
    lo, hi = lo.copy(), hi.copy()
    idx = np.flatnonzero(hi - lo > 1)
    while idx.size:
        mid = (lo[idx] + hi[idx]) // 2
        ok = passes(mid, x[idx])
        hi[idx[ok]] = mid[ok]
        lo[idx[~ok]] = mid[~ok]
        idx = idx[hi[idx] - lo[idx] > 1]
    return hi


def _window_edges(x: np.ndarray, s_lo: float, s_hi: float, eps: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Verified windows [lo, hi] in m for means x (sorted ascending).

    hi is the smallest m >= 0 with gammainc(s_hi + m, x) <= eps; lo is the
    largest m >= 1 with gammaincc(s_lo + m, x) <= eps, or 0.  Both edges are
    made nondecreasing in x (widening a window only shrinks its tails).
    """
    k = math.sqrt(2.0 * math.log(1.0 / eps))
    spread = k * np.sqrt(x) + k * k
    if x.size and 2.0 * float(spread[-1]) > _MAX_WINDOW:
        raise EvaluationError(
            f"noncentral series window needs {2.0 * float(spread[-1]):.3g} terms "
            f"(mean {float(x[-1]):.3g}, tail cut {eps:.1e})")

    def upper_ok(m, xx):
        return gammainc(s_hi + m, xx) <= eps

    def lower_bad(m, xx):
        return gammaincc(s_lo + m, xx) > eps

    hi = np.ceil(x + spread).astype(np.int64)
    bad = np.flatnonzero(~upper_ok(hi, x))
    while bad.size:
        hi[bad] += np.ceil(spread[bad]).astype(np.int64)
        bad = bad[~upper_ok(hi[bad], x[bad])]
    start = np.maximum(np.floor(x - s_hi).astype(np.int64), 0) - 1
    hi = _smallest_passing(upper_ok, x, start, hi)

    lo = np.maximum(np.floor(x - spread).astype(np.int64), 0)
    lo[(lo > 0) & lower_bad(np.maximum(lo, 1), x)] = 0
    first_bad = _smallest_passing(lower_bad, x, lo, np.ceil(x).astype(np.int64) + 2)
    lo = np.minimum(first_bad - 1, hi)
    hi = np.maximum.accumulate(hi)
    lo = np.minimum.accumulate(lo[::-1])[::-1]
    return lo, hi


class _Windows:
    """Per-entry window arrays; ``head(n)`` views the first n entries."""

    def head(self, n: int):
        return type(self)(*(getattr(self, f.name)[:n] for f in fields(self)))

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, f.name).nbytes for f in fields(self))


@dataclass(frozen=True)
class _JumpWindows(_Windows):
    """Poisson(mu_j) weights kept on [lo_j, hi_j]; p0_j is the pmf at lo_j."""

    mu: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    p0: np.ndarray

    @classmethod
    def build(cls, mu: np.ndarray, eps: float) -> "_JumpWindows":
        lo, hi = _window_edges(mu, 0.0, 1.0, eps)
        return cls(mu, lo, hi, _gamma_weight(lo.astype(float), mu))


@dataclass(frozen=True)
class _NodeWindows(_Windows):
    """P(a + m, z_i) swept on [lo_i, hi_i] from basis0 = P(a + lo_i, z_i)
    and term0 = z^(a+lo) e^-z / Gamma(a + lo + 1)."""

    z: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    basis0: np.ndarray
    term0: np.ndarray

    @classmethod
    def build(cls, a: float, z: np.ndarray, eps: float,
              support: tuple[int, int] | None = None) -> "_NodeWindows":
        lo, hi = _window_edges(z, a - 1.0, a + 1.0, eps)
        if support is not None:
            # weights vanish outside the support: nothing to sweep there
            lo, hi = np.maximum(lo, support[0]), np.minimum(hi, support[1])
        k = a + lo
        return cls(z, lo, hi, gammainc(k, z), _gamma_weight(k, z))


def _series_sweep(a: float, cs: list[np.ndarray], jw: _JumpWindows, nw: _NodeWindows
                  ) -> tuple[np.ndarray, list[int]]:
    """Row k: sum_j cs[k]_j sum_m Poisson(m; mu_j) P(a + m, z_i) over the windows.

    Jumps and nodes are sorted with nondecreasing window edges, so the ones
    active at index m are contiguous slices.  One pass over m advances every
    active jump's pmf and node's basis once for all rows, and builds each
    row's q[m] = sum_j c_j Poisson(m; mu_j) as its own dot product over its
    first cs[k].size jumps (at least one).  The jump windows must start at
    or below every node window.  Returns the (rows, nodes) values and, per
    row, the number of indices from the first jump window's start to the
    end of the row's last one, which bounds the recurrence steps behind any
    of its terms.  Neither depends on the other rows, nor a node's value on
    the nodes after it.
    """
    q0 = int(jw.lo[0])
    tops = [int(jw.hi[c.size - 1]) for c in cs]
    insides = [nw.lo <= m_top for m_top in tops]
    ends = [max(min(m_top, int(nw.hi[inside].max(initial=q0 - 1))), q0 - 1)
            for m_top, inside in zip(tops, insides)]
    ms = np.arange(q0 - 1, max(ends) + 1)
    j_end = np.searchsorted(jw.lo, ms, side="right")    # jumps started by m
    j_beg = np.searchsorted(jw.hi, ms, side="left")     # jumps not yet done
    i_end = np.searchsorted(nw.lo, ms, side="right")
    i_beg = np.searchsorted(nw.hi, ms, side="left")
    p, basis, term = jw.p0.copy(), nw.basis0.copy(), nw.term0.copy()
    mu, z = jw.mu, nw.z
    out = np.zeros((len(cs), z.size))
    q = np.zeros((len(cs), ms.size))  # q[:, k] is the weight of index q0 - 1 + k
    for k in range(1, ms.size):
        m = q0 - 1 + k
        lo, mid, hi = j_beg[k], j_end[k - 1], j_end[k]
        if mid > lo:  # advance running pmfs from m - 1 to m
            p[lo:mid] *= mu[lo:mid]
            p[lo:mid] *= 1.0 / m
        for row, c in zip(q, cs):
            row[k] = c[lo:hi] @ p[lo:min(hi, c.size)]
        lo, mid, hi = i_beg[k], i_end[k - 1], i_end[k]
        if mid > lo:  # P(a + m) = P(a + m - 1) - term(m - 1)
            basis[lo:mid] -= term[lo:mid]
            term[lo:mid] *= z[lo:mid]
            term[lo:mid] *= 1.0 / (a + m)
        if hi > lo:
            for row, qm in zip(out, q[:, k].tolist()):
                if qm != 0.0:
                    row[lo:hi] += qm * basis[lo:hi]
    # indices below a node's window: P(a + m, z) = 1 up to the booked tail;
    # a row's inside nodes read its prefix below its own sweep's end
    prefix = np.cumsum(q, axis=1)
    below = np.clip(nw.lo - q0, 0, ms.size - 1)
    for row, c, inside, pre in zip(out, cs, insides, prefix):
        # a node window past every jump window sees all the (windowed) mass
        row += np.where(inside, pre[below], c.sum())
    return out, [m_top - q0 + 2 for m_top in tops]


def _ncx2_cdf(x: np.ndarray, dim: int, lam: float) -> np.ndarray:
    """Noncentral chi-squared CDF with certified truncation error <= 4 _TAIL.

    One jump of unit size in the shared windowed sweep; its four window
    tails are each below _TAIL.
    """
    x = np.asarray(x, dtype=float)
    mu = 0.5 * lam
    if mu == 0.0:
        return gammainc(0.5 * dim, 0.5 * x)
    jw = _JumpWindows.build(np.array([mu]), _TAIL)
    z = 0.5 * x.ravel()
    order = np.argsort(z, kind="stable")
    nw = _NodeWindows.build(0.5 * dim, z[order], _TAIL,
                            support=(int(jw.lo[0]), int(jw.hi[0])))
    out = np.empty(z.size)
    vals, _ = _series_sweep(0.5 * dim, [np.ones(1)], jw, nw)
    out[order] = vals[0]
    return np.clip(out, 0.0, 1.0).reshape(x.shape)


def _ncx2_pdf(x, dim: int, lam: float):
    """Noncentral chi-squared density (Bessel form, overflow-safe)."""
    x = np.asarray(x, dtype=float)
    if lam == 0.0:
        a = 0.5 * dim
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x > 0.0,
                           np.exp((a - 1.0) * np.log(np.maximum(x, 1e-300))
                                  - 0.5 * x - a * math.log(2.0) - gammaln(a)),
                           0.0)
        return out
    nu = 0.5 * dim - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(x * lam)
        out = np.where(
            x > 0.0,
            0.5 * np.exp(-0.5 * (np.sqrt(x) - math.sqrt(lam)) ** 2)
            * np.where(x > 0, (x / lam), 1.0) ** (0.5 * nu) * ive(nu, sq),
            0.0,
        )
    return out


# ---------------------------------------------------------------------------
# Pointwise kernels
# ---------------------------------------------------------------------------

def _check_point(dim: int, y: float, r, t: float) -> np.ndarray:
    """Check the arguments of a pointwise kernel; returns r as an array."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _check_time(t)
    if y < 0.0:
        raise ValueError("y must be nonnegative")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("r must be nonnegative")
    return r_arr


def radial_cdf(dim: int, y: float, r, t: float):
    """w(y, r, t) = P(||B_t|| < r | ||B_0|| = y); vectorized in r."""
    r_arr = _check_point(dim, y, r, t)
    s2 = 2.0 * math.sqrt(t)
    if dim == 1:
        out = 0.5 * (erf((r_arr - y) / s2) + erf((r_arr + y) / s2))
    elif dim == 3 and y > 0.0:
        expm = np.exp(-((r_arr - y) ** 2) / (4.0 * t))
        expp = np.exp(-((r_arr + y) ** 2) / (4.0 * t))
        out = (0.5 * (erf((r_arr - y) / s2) + erf((r_arr + y) / s2))
               - math.sqrt(t / math.pi) / y * (expm - expp))
    else:
        out = _ncx2_cdf(r_arr * r_arr / (2.0 * t), dim, y * y / (2.0 * t))
    out = np.clip(out, 0.0, 1.0)
    return float(out) if r_arr.ndim == 0 else out


def bessel_density(dim: int, y: float, r, t: float):
    """g(y, r, t) = dw/dr, the radial transition density.

    The y = 0 case is the continuity limit: the chi distribution with d
    degrees of freedom scaled by sqrt(2t).
    """
    r_arr = _check_point(dim, y, r, t)
    out = (r_arr / t) * _ncx2_pdf(r_arr * r_arr / (2.0 * t), dim, y * y / (2.0 * t))
    return float(out) if r_arr.ndim == 0 else out


def kernel_G(dim: int, y: float, r, t: float):
    """G(y, r, t) = -dw/dy >= 0, evaluated analytically.

    Differentiating the noncentral series in its noncentrality shifts the
    degrees of freedom by two: G = (y/t) * f_ncx2(r^2/2t; d+2, y^2/2t).
    """
    r_arr = _check_point(dim, y, r, t)
    out = (y / t) * _ncx2_pdf(r_arr * r_arr / (2.0 * t), dim + 2, y * y / (2.0 * t))
    return float(out) if r_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Grid engine: G_t applied to a step profile
# ---------------------------------------------------------------------------

def _maxwell_cdf(r: np.ndarray, t: float) -> np.ndarray:
    """w(0, r, t) in d = 3 (Maxwell law of ||N(0, 2t I_3)||)."""
    q = r / (2.0 * math.sqrt(t))
    return erf(q) - (2.0 / _SQRT_PI) * q * np.exp(-q * q)


_CACHE_BYTES = 64 << 20  # byte budget of the cross-call kernel cache

# Cross-call kernel data keyed by lattice: image engines and series windows.
# Entries report their own ``nbytes``; the least recently used go first once
# the budget is exceeded.
_IMAGE_CACHE: dict[tuple, object] = {}


def _cached(key: tuple, build):
    entry = _IMAGE_CACHE.pop(key, None)
    if entry is None:
        entry = build()
    _IMAGE_CACHE[key] = entry
    total = sum(e.nbytes for e in _IMAGE_CACHE.values())
    while total > _CACHE_BYTES and len(_IMAGE_CACHE) > 1:
        total -= _IMAGE_CACHE.pop(next(iter(_IMAGE_CACHE))).nbytes
    return entry


def _series_eval_err(c: np.ndarray, steps: int) -> float:
    """Booked error of a windowed sweep: four window tails per unit mass
    (jumps below and above, nodes below and above) plus recurrence and
    start-value roundoff."""
    per_mass = 4.0 * _TAIL + 1e-15 * steps + 64.0 * np.finfo(float).eps
    return float(np.abs(c).sum()) * per_mass


class _SeriesLattice:
    """Series windows and start values on the lattice r_i = i*h, i < n.

    Jump means mu_i and node arguments z_i are both (i h)^2 / (4t), so one
    lattice serves as jump and node set for every apply with step t.
    """

    def __init__(self, dim: int, t: float, h: float, n: int):
        x = (np.arange(n, dtype=float) * h) ** 2 / (4.0 * t)
        self.n = n
        self.jumps = _JumpWindows.build(x, _TAIL)
        self.nodes = _NodeWindows.build(0.5 * dim, x, _TAIL)
        self.nbytes = self.jumps.nbytes + self.nodes.nbytes


def _lattice_series(dim: int, t: float, cs: list[np.ndarray], h: float, n_out: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Mixtures of nonempty lattice jump rows cs on the nodes i*h, i < n_out,
    in one shared sweep."""
    key = ("series", dim, t, h)
    if key in _IMAGE_CACHE and _IMAGE_CACHE[key].n < n_out:
        del _IMAGE_CACHE[key]  # rebuilt longer, with headroom as mass spreads
    lattice = _cached(key, lambda: _SeriesLattice(dim, t, h, n_out + n_out // 4))
    n_jumps = max(c.size for c in cs)
    vals, steps = _series_sweep(0.5 * dim, cs, lattice.jumps.head(n_jumps),
                                lattice.nodes.head(n_out))
    errs = np.empty(len(cs))
    for k, c in enumerate(cs):
        np.clip(vals[k], 0.0, max(c.sum(), 0.0), out=vals[k])
        errs[k] = _series_eval_err(c, steps[k])
    return vals, errs


def _image_tail(dim: int, t: float, x: float, mass: float, w_mass: float,
                c0: float) -> float:
    """Bound on the image terms dropped beyond a band edge at x = (B+1)h/(2 sqrt t)."""
    tail = math.erfc(x) * mass
    if dim == 3:
        gauss = math.exp(-x * x)
        # Gaussian image terms, and the Maxwell origin table (q e^-q^2 falls for q >= 1)
        tail += 2.0 * math.sqrt(t / math.pi) * gauss * w_mass
        tail += c0 * (2.0 / _SQRT_PI) * x * gauss
    return tail


class _ImageEngine:
    """Band-limited image kernels for lattice mixtures in d = 1 or 3.

    For jumps c_j at j*h and nodes i*h the image formulas give
    sum_j c_j w(jh, ih, t) = 0.5 sum_j c_j [K(i-j) + K(i+j)] with
    K(m) = erf(mh / 2 sqrt t) (d = 1).  Split K = sgn - k with
    k(m) = sgn(m) erfc(|m| h / 2 sqrt t): the sgn part and the constant
    limit of the reflection are prefix sums of c, and k, cut to |m| <= band,
    is one linear convolution u = c * k over m in [-band, n_act + band).
    Its negative half gives the reflection remainder, since
    sum_j c_j erfc((i+j) h / 2 sqrt t) = -u[-i] (+ c_0 at i = 0).  In d = 3
    the Gaussian image terms with weights c_j / (jh) ride in the same
    spectral sum, and a jump at the origin adds the Maxwell correction.
    One apply costs one forward FFT per weight vector and one inverse, of
    length about n_act + 2 band.
    """

    def __init__(self, dim: int, t: float, h: float, band: int, n_fft: int):
        self.dim, self.t, self.h, self.band, self.n_fft = dim, t, h, band, n_fft
        m = np.arange(-band, band + 1)
        x = np.abs(m) * (h / (2.0 * math.sqrt(t)))
        kern = np.zeros(n_fft)
        kern[m % n_fft] = 0.5 * np.sign(m) * erfc(x)
        self.k_hat = fft.rfft(kern)
        self.nbytes = self.k_hat.nbytes
        if dim == 3:
            kern[m % n_fft] = math.sqrt(t / math.pi) * np.exp(-x * x)
            self.e_hat = fft.rfft(kern)
            lat = np.arange(band + 1) * h
            self.maxwell_origin = _maxwell_cdf(lat, t) - erf(lat / (2.0 * math.sqrt(t)))
            self.nbytes += self.e_hat.nbytes + self.maxwell_origin.nbytes

    def apply(self, c: np.ndarray, w2: np.ndarray | None, n_out: int) -> np.ndarray:
        """Node values from jump sizes c and, in d = 3, weights w2 = c_j / (jh)."""
        n_act, band, n_fft = c.size, self.band, self.n_fft
        spec = fft.rfft(c, n_fft) * self.k_hat
        if self.dim == 3:
            spec += fft.rfft(w2, n_fft) * self.e_hat
        u = fft.irfft(spec, n_fft)  # u[p mod n_fft] for p in [-band, n_act + band)
        cum = np.full(n_out, c.sum())
        cum[:min(n_act, n_out)] = _prefix_sums(c)[:n_out]
        vals = 0.5 * cum
        vals[1:] += 0.5 * cum[:-1]
        k = min(n_out, n_act + band)
        vals[:k] -= u[:k]
        k = min(n_out - 1, band)
        vals[1:k + 1] += u[::-1][:k]
        if self.dim == 3 and c[0] != 0.0:
            k = min(n_out, band + 1)
            vals[:k] += c[0] * self.maxwell_origin[:k]
        vals[0] = 0.0  # w(a, 0, t) = 0
        return vals


def _prefix_sums(c: np.ndarray) -> np.ndarray:
    """cumsum(c) with rounding error of order (n/256 + 256) ulps, not n:
    sums within blocks of 256, then one running sum over the block totals."""
    n, block = c.size, 256
    padded = np.zeros(-(-n // block) * block)
    padded[:n] = c
    within = np.cumsum(padded.reshape(-1, block), axis=1)
    offsets = np.concatenate(([0.0], np.cumsum(within[:-1, -1])))
    return (within + offsets[:, None]).ravel()[:n]


_BAND_STEP = 256  # bands and FFT lengths are bucketed so engines get reused


def _lattice_images(dim: int, t: float, c: np.ndarray, h: float, n_out: int
                    ) -> tuple[np.ndarray, float]:
    """Mixture of lattice jumps c on the nodes i*h, i < n_out, for d in {1, 3}."""
    mass = float(np.abs(c).sum())
    w2, w_mass = None, 0.0
    if dim == 3:
        w2 = np.zeros(c.size)
        w2[1:] = c[1:] / (np.arange(1, c.size, dtype=float) * h)
        w_mass = float(np.abs(w2).sum())
    c0 = abs(float(c[0]))
    budget = _TAIL * mass
    # start near the edge (each tail term is about its weight times e^-x^2);
    # the scan only moves outwards, so the edge it stops at always passes
    x = max(1.0, math.sqrt(math.log((mass + w_mass + c0) / budget)) - 1.0)
    while _image_tail(dim, t, x, mass, w_mass, c0) > budget:
        x += 0.02
    scale = h / (2.0 * math.sqrt(t))
    band = -(-int(math.ceil(x / scale)) // _BAND_STEP) * _BAND_STEP
    # neither the band nor the booked tail depends on n_out, so the values
    # at a node do not depend on how many nodes are asked for
    tail = _image_tail(dim, t, (band + 1) * scale, mass, w_mass, c0)
    need = -(-(c.size + 2 * band) // _BAND_STEP) * _BAND_STEP
    key = ("image", dim, t, h, band, fft.next_fast_len(need, real=True))
    engine = _cached(key, lambda: _ImageEngine(dim, t, h, band, key[-1]))
    vals = engine.apply(c, w2, n_out)
    eval_err = tail + 64.0 * np.finfo(float).eps * engine.n_fft * mass
    return np.clip(vals, 0.0, c.sum()), eval_err


def _lattice_jumps(locs: np.ndarray, sizes: np.ndarray, r_nodes: np.ndarray,
                   h: float) -> list[np.ndarray]:
    """Jump sizes by lattice index, one array per row of ``sizes``, each
    trimmed after its own last nonzero jump."""
    slack = 1e-9 * h
    n = r_nodes.size
    if np.any(np.abs(r_nodes - np.arange(n, dtype=float) * h) > slack):
        raise ValueError("r_nodes must be the lattice i*lattice_h for i = 0..n-1")
    idx = np.rint(locs / h)
    if np.any(np.abs(locs - idx * h) > slack) or idx.min() < 0 or idx.max() >= n:
        raise ValueError("locs must lie on the lattice i*lattice_h inside the nodes")
    idx = idx.astype(np.int64)
    cs = []
    for row in sizes:
        c = np.bincount(idx, weights=row)
        nz = np.flatnonzero(c)
        cs.append(c[: nz[-1] + 1] if nz.size else c[:0])
    return cs


def mixture_node_values(dim: int, t: float, locs: np.ndarray, sizes: np.ndarray,
                        r_nodes: np.ndarray, *,
                        lattice_h: float) -> tuple[np.ndarray, float | np.ndarray]:
    """Evaluate sum_j sizes_j * w(locs_j, r, t) at the lattice nodes.

    ``r_nodes`` must be the lattice i*lattice_h for i = 0..n-1 and ``locs``
    must lie on it (to 1e-9 * lattice_h, else ``ValueError``); d in {1, 3}
    takes the band-limited image route and every other d the series with
    windows cached per lattice.  Every dropped tail is at most 2^-56 per
    unit mass.  Returns (values, certified absolute evaluation error).

    ``sizes`` of shape (k, len(locs)) holds k mixtures on the same ``locs``
    and nodes, and the call returns (k, n) values and k errors.  The
    lattice is checked once; the series route evaluates all rows in one
    shared sweep and the image route one row at a time.  Each row gets the
    bits that a call with that row alone returns, and a node's value does
    not depend on how many nodes follow it.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _check_time(t)
    locs = np.asarray(locs, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    r_nodes = np.asarray(r_nodes, dtype=float)
    if sizes.ndim not in (1, 2) or sizes.shape[-1] != locs.size:
        raise ValueError(f"sizes must have shape ({locs.size},) or (k, {locs.size}), "
                         f"got {sizes.shape}")
    rows = sizes if sizes.ndim == 2 else sizes[None]
    h = float(lattice_h)
    cs = _lattice_jumps(locs, rows, r_nodes, h) if locs.size else [locs[:0]] * len(rows)
    vals, errs = np.zeros((len(cs), r_nodes.size)), np.zeros(len(cs))
    live = [k for k, c in enumerate(cs) if c.size]
    if dim in (1, 3):
        for k in live:
            vals[k], errs[k] = _lattice_images(dim, float(t), cs[k], h, r_nodes.size)
    elif live:
        vals[live], errs[live] = _lattice_series(dim, float(t), [cs[k] for k in live],
                                                 h, r_nodes.size)
    return (vals, errs) if sizes.ndim == 2 else (vals[0], float(errs[0]))
