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
* anchored route (any other d): each lattice argument x = (ih)^2/(4t)
  lies within 1/2 of an integer anchor A, and both sides of the series are
  entire in their continuous argument, so they are Taylor expanded about
  the anchors with N + 1 = 21 terms, the anchor-and-Taylor idea of the fast
  Gauss transform (Greengard & Strain, SIAM J. Sci. Stat. Comput. 12, 1991).
  Jumps: moments M_{A,n} = sum_j c_j delta_j^n / n! against a table of
  Poisson(m; A), folded as q = sum_n (-grad)^n r_n since d/dmu Poisson(m)
  = Poisson(m-1) - Poisson(m).  Nodes: the mixture is z^a h(z), a = d/2,
  with h(z) = sum_k Q_k z^k e^-z / Gamma(a+k+1) over the prefix sums Q of
  q; h^(n)(A) comes from (LQ)_k = (k+1)/(a+k+1) Q_{k+1} - Q_k against a
  second table, and each node from a Taylor sum in delta = z - A.  Both
  tables are banded to verified windows, built once per (dim, t, h) and
  cached.  The pointwise kernels sweep one jump's Poisson weights and each
  node's incomplete-gamma basis over such windows (``_series_sweep``).

The returned ``eval_err`` books, per unit of mixture mass:

* image route: the erfc and Gaussian image terms beyond the band (the
  bounds of ``_image_tail``) and a margin of 64 eps n_fft for FFT and
  prefix-sum roundoff;
* anchored route (``_AnchoredLattice.eval_err``): the Taylor remainders,
  (1 + max(1, 2^a)) / (N+1)! from ||grad^n||_1 <= 2^n and ||L^n||_inf <=
  2^n; the four window tails, each verified with gammainc/gammaincc and
  lifted by at most e max(1, 2^a) to below 2^-56; roundoff, gamma_K times
  the same sums on absolute values (Higham, Accuracy and Stability of
  Numerical Algorithms, 2nd ed., 2002, Lemma 3.1, Sec. 3.1 and 5.1); and
  the rounding of the lattice arguments, through Stirling's bound on the
  densities.

Bands and windows are sized so that every dropped tail stays below 2^-56
per unit mass; no quadrature is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# Noncentral chi-squared machinery: verified windows, explicit tails
# ---------------------------------------------------------------------------
#
# A mixture sum_j c_j w(a_j, r, t) expands as sum_m q[m] P(d/2 + m, z) with
# z = r^2/(4t) and q[m] = sum_j c_j Poisson(m; mu_j), mu_j = a_j^2/(4t).
# Each jump's Poisson weights are negligible outside a window of about
# c*sqrt(mu_j) indices around mu_j, and each node's basis P(d/2 + m, z) is
# within a tail of 1 below, and of 0 above, a window of about c*sqrt(z)
# indices around z.  Every window edge is verified with gammainc/gammaincc,
# indices below a node's window enter through a prefix sum of q, and the
# dropped tails are booked per unit of mixture mass.  The pointwise kernels
# sweep these windows index by index; the lattice route reads them off
# tables at integer anchors.
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
    largest m >= 1 with gammaincc(s_lo + m, x) <= eps, or 0.  Each entry's
    edges depend on its own mean alone.
    """
    if np.isnan(x).any():
        raise ValueError("series means must not be NaN")
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
    return np.minimum(first_bad - 1, hi), hi


@dataclass(frozen=True)
class _NodeWindows:
    """P(a + m, z_i) swept on [lo_i, hi_i] from basis0 = P(a + lo_i, z_i)
    and term0 = z^(a+lo) e^-z / Gamma(a + lo + 1)."""

    z: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    basis0: np.ndarray
    term0: np.ndarray

    @classmethod
    def build(cls, a: float, z: np.ndarray, eps: float,
              support: tuple[int, int]) -> "_NodeWindows":
        lo, hi = _window_edges(z, a - 1.0, a + 1.0, eps)
        # nondecreasing edges keep the active nodes of every index contiguous
        # (widening a window only shrinks its tails); weights vanish outside
        # the support, so there is nothing to sweep there
        hi = np.minimum(np.maximum.accumulate(hi), support[1])
        lo = np.maximum(np.minimum.accumulate(lo[::-1])[::-1], support[0])
        k = a + lo
        return cls(z, lo, hi, gammainc(k, z), _gamma_weight(k, z))


def _series_sweep(a: float, mu: float, lo: int, hi: int, nw: _NodeWindows
                  ) -> np.ndarray:
    """sum_m Poisson(m; mu) P(a + m, z_i), the pmf kept on [lo, hi].

    The nodes are sorted with nondecreasing window edges inside [lo, hi], so
    the ones active at index m are a contiguous slice: one pass over m
    advances the pmf and every active node's basis once.  Indices below a
    node's window enter through the pmf's prefix sum, and a node whose
    window starts past hi sees all the windowed mass.
    """
    ms = np.arange(lo - 1, hi + 1)
    i_end = np.searchsorted(nw.lo, ms, side="right")
    i_beg = np.searchsorted(nw.hi, ms, side="left")
    basis, term, z = nw.basis0.copy(), nw.term0.copy(), nw.z
    out = np.zeros(z.size)
    q = np.zeros(ms.size)  # q[k] is the pmf at lo - 1 + k
    p = float(_gamma_weight(np.array([float(lo)]), np.array([mu]))[0])
    for k in range(1, ms.size):
        m = lo - 1 + k
        if k > 1:  # advance the pmf from m - 1 to m
            p = p * mu * (1.0 / m)
        q[k] = p
        i_lo, i_mid, i_hi = i_beg[k], i_end[k - 1], i_end[k]
        if i_mid > i_lo:  # P(a + m) = P(a + m - 1) - term(m - 1)
            basis[i_lo:i_mid] -= term[i_lo:i_mid]
            term[i_lo:i_mid] *= z[i_lo:i_mid]
            term[i_lo:i_mid] *= 1.0 / (a + m)
        if i_hi > i_lo and p != 0.0:
            out[i_lo:i_hi] += p * basis[i_lo:i_hi]
    # P(a + m, z) = 1 below a node's window, up to the booked tail
    below = np.clip(nw.lo - lo, 0, ms.size - 1)
    out += np.where(nw.lo <= hi, np.cumsum(q)[below], 1.0)
    return out


def _ncx2_cdf(x: np.ndarray, dim: int, lam: float) -> np.ndarray:
    """Noncentral chi-squared CDF with certified truncation error <= 4 _TAIL.

    The Poisson(lam/2) mixture of incomplete gamma functions in one windowed
    sweep; its four window tails are each below _TAIL.
    """
    x = np.asarray(x, dtype=float)
    mu = 0.5 * lam
    if mu == 0.0:
        return gammainc(0.5 * dim, 0.5 * x)
    (lo,), (hi,) = _window_edges(np.array([mu]), 0.0, 1.0, _TAIL)
    z = 0.5 * x.ravel()
    order = np.argsort(z, kind="stable")
    nw = _NodeWindows.build(0.5 * dim, z[order], _TAIL, support=(int(lo), int(hi)))
    out = np.empty(z.size)
    out[order] = _series_sweep(0.5 * dim, mu, int(lo), int(hi), nw)
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
    if not 0.0 <= y < math.inf:
        raise ValueError(f"y must be finite and nonnegative, got {y}")
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr >= 0.0) & (r_arr < math.inf)):
        raise ValueError("r must be finite and nonnegative")
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


_TAYLOR_TERMS = 21  # terms about each anchor: 2^6 / 21! < 2^-56 for every d <= 12
_TABLE_ULPS = 128   # l1 error of one table row in units of 2^-53 (54 measured)
_BLOCK = 4096       # entries per block of table or Taylor sums: scratch below 1 MB


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: a result of n roundings,
    in any order, is within gamma_n times the same computation on absolute
    values (Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    Lemma 3.1, Sec. 3.1 for sums and dot products, Sec. 5.1 for Horner)."""
    nu = n * 2.0 ** -53
    return nu / (1.0 - nu)


def _taylor_terms(lift: float) -> int:
    """Terms N + 1 about each anchor: _TAYLOR_TERMS, or more when d > 12
    would put the node remainder lift / (N+1)! above _TAIL."""
    n = _TAYLOR_TERMS
    while lift / math.factorial(n) > _TAIL:
        n += 1
    return n


class _Banded:
    """Rows x^(s+k) e^-x / Gamma(s+k+1), one per x, over k in [lo, hi]."""

    def __init__(self, s: float, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi, self.widths = lo, hi, hi - lo + 1
        off = np.zeros(x.size + 1, dtype=np.int64)
        np.cumsum(self.widths, out=off[1:])
        if off[-1] > 4 * _MAX_WINDOW:
            raise EvaluationError(f"anchored series table needs {off[-1]:.3g} terms")
        # int32 indices, which scipy.sparse takes without a copy
        self.off = off.astype(np.int32)
        self.k = np.arange(off[-1], dtype=np.int32)
        self.k -= np.repeat((off[:-1] - lo).astype(np.int32), self.widths)
        row = np.repeat(np.arange(x.size, dtype=np.int32), self.widths)
        self.data = np.empty(off[-1])
        for b in range(0, self.data.size, _BLOCK):  # in blocks, to bound scratch
            e = min(b + _BLOCK, self.data.size)
            self.data[b:e] = _gamma_weight(s + self.k[b:e], x[row[b:e]])

    def head(self, n: int, pad: int = 0):
        """Rows 0..n-1 as a CSR matrix, with pad columns past the furthest of
        their windows."""
        # imported here: only this route needs it, and loading it with the
        # package costs every other process, the simulators' too, 1.5 MB
        from scipy import sparse
        end = int(self.off[n])
        return sparse.csr_matrix((self.data[:end], self.k[:end], self.off[:n + 1]),
                                 shape=(n, int(self.hi[:n].max()) + 1 + pad))

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in vars(self).values())


class _AnchoredLattice:
    """Anchors, Taylor offsets and the two banded tables on r_i = i*h, i < n.

    Jump means and node arguments are both x_i = (i h)^2 / (4t).  x_i gets
    the anchor A = rint(x_i) and the offset delta_i = x_i - A, exact by
    Sterbenz's lemma, with |delta_i| <= 1/2.  Row A of ``jumps`` holds
    Poisson(m; A) over the anchor's verified window in m.  Row A of
    ``nodes`` holds psi_k(A) = A^(a+k) e^-A / Gamma(a+k+1) over a window in
    k whose upper edge is verified at A and lower edge at A - 1/2, so both
    hold over the anchor's cell (psi_0(0) = 1/Gamma(a+1)); a node carries
    the factor (x/A)^a, or x^a at A = 0.  Every entry depends on its own
    anchor alone and every sum runs over one row in index order, so no
    value depends on how far the tables reach.
    """

    def __init__(self, dim: int, t: float, h: float, n: int, n_jumps: int):
        a = 0.5 * dim
        self.a, self.n, self.n_jumps, self.lift = a, n, n_jumps, max(1.0, 2.0 ** a)
        self.terms = _taylor_terms(self.lift)
        self.factorials = np.array([math.factorial(k) for k in range(self.terms)], float)
        x = (np.arange(n, dtype=float) * h) ** 2 / (4.0 * t)
        anchor = np.rint(x)
        new = np.diff(anchor, prepend=-1.0) != 0.0
        self.first = np.flatnonzero(new)   # first lattice index of each anchor
        self.row = np.cumsum(new) - 1      # anchor of each lattice index
        self.anchors = anchor[self.first]
        self.delta = x - anchor
        self.scale = np.where(anchor > 0.0, x / np.maximum(anchor, 1.0), x) ** a
        jumps = self.anchors[:self.row[n_jumps - 1] + 1]
        lo, hi = _window_edges(jumps, 0.0, 1.0, _TAIL / 4.0)
        self.jumps = _Banded(0.0, jumps, lo, hi)
        self.top_max = int(hi.max()) + self.terms - 1  # the furthest q reaches
        # node rows up to the first whose window starts past top_max: no
        # node after it needs a Taylor sum
        eps = _TAIL / (4.0 * self.lift)
        lo = _window_edges(np.maximum(self.anchors - 0.5, 0.0), a, a + 1.0, eps)[0]
        nodes = self.anchors[:np.argmax(np.append(lo, np.inf) > self.top_max) + 1]
        hi = _window_edges(nodes, a, a + 1.0, eps)[1]
        self.nodes = _Banded(a, nodes, np.minimum(lo[:nodes.size], hi), hi)
        self.nodes.data[0] = math.exp(-math.lgamma(a + 1.0))  # anchor 0, window [0, 0]
        self.nbytes = (self.jumps.nbytes + self.nodes.nbytes
                       + sum(v.nbytes for v in (self.first, self.row, self.anchors,
                                                self.delta, self.scale)))

    def apply(self, c: np.ndarray, n_out: int) -> tuple[np.ndarray, float]:
        """Mixture of the lattice jumps c on the nodes i*h, i < n_out, and its
        certified error (:meth:`eval_err`); c has at most n_jumps entries."""
        big_n = self.terms - 1
        n_a = int(self.row[c.size - 1]) + 1
        # jumps: the moments M_{A,n}, r_n(m) = sum_A M_{A,n} Poisson(m; A),
        # and q = sum_n (-grad)^n r_n by Horner's rule
        seg = self.first[:n_a]
        moments = np.empty((self.terms, n_a))
        x, dx = c.copy(), self.delta[:c.size]
        for n in range(self.terms):
            if n:
                x *= dx
                x /= n
            np.add.reduceat(x, seg, out=moments[n])
        r = self.jumps.head(n_a, big_n).T @ moments.T
        q = r[:, big_n].copy()
        for n in range(big_n - 1, -1, -1):
            q, prev = r[:, n] - q, q
            q[1:] += prev[:-1]
        cum = np.cumsum(q)
        # nodes: from the first anchor whose window starts past q on, every
        # P(a + m, x) with m <= top is 1 up to the lower tail, so the value
        # is the total.  Before it: Q = prefix sums of q, held at the total;
        # (L^n Q)_k with (L Q)_k = (k+1)/(a+k+1) Q_{k+1} - Q_k; coefficients
        # A^a h^(n)(A) = sum_k psi_k(A) (L^n Q)_k; and at each node the
        # Taylor sum (x/A)^a sum_n A^a h^(n)(A) delta^n / n!
        n_t = int(np.argmax(self.nodes.lo > q.size - 1))
        rows = self.row[:n_out]
        n_in = int(np.searchsorted(rows, n_t))
        nodes = self.nodes.head(int(rows[n_in - 1]) + 1)
        k_end = nodes.shape[1]
        d = np.empty(k_end + big_n)
        d[:q.size] = cum[:d.size]
        d[q.size:] = cum[-1]
        w = np.arange(1.0, d.size) / (self.a + np.arange(1.0, d.size))
        deriv = np.empty((k_end, self.terms))
        deriv[:, 0] = d[:k_end]
        for n in range(1, self.terms):
            d = w[:d.size - 1] * d[1:] - d[:-1]
            deriv[:, n] = d[:k_end]
        coef = np.ascontiguousarray((nodes @ deriv / self.factorials).T)
        vals = np.full(n_out, cum[-1])
        for s in range(0, n_in, _BLOCK):
            e = min(s + _BLOCK, n_in)
            # each anchor's coefficients, repeated over its run of nodes
            block = np.repeat(coef[:, rows[s]:rows[e - 1] + 1],
                              np.bincount(rows[s:e] - rows[s]), axis=1)
            dx = self.delta[s:e]
            acc = block[big_n].copy()
            for n in range(big_n - 1, -1, -1):
                acc *= dx
                acc += block[n]
            vals[s:e] = acc * self.scale[s:e]
        err = self.eval_err(c, seg, q.size, n_t)
        return np.clip(vals, 0.0, max(c.sum(), 0.0)), err

    def eval_err(self, c: np.ndarray, seg: np.ndarray, n_q: int, n_t: int) -> float:
        """Certified error of :meth:`apply`, ||c||_1 times the sum of

        * the Taylor remainders, with |delta| <= 1/2 and N + 1 terms.  Jumps:
          ||q - q_N||_1 <= sup ||d^(N+1)/dmu^(N+1) Poisson||_1 / (N+1)!
          <= 2^(N+1) (1/2)^(N+1) / (N+1)!, since ||grad^n||_1 <= 2^n.  Nodes:
          x^a |h^(N+1)(s)| <= 2^(N+1) ||Q||_inf max(1, 2^a) for s between
          the anchor and x, since ||L||_inf <= 2 and x^a sum_k phi_k(s) <=
          max(1, 2^a).  Together (1 + max(1, 2^a)) / (N+1)!.
        * the window tails.  Each of the four is verified below _TAIL/4 per
          unit mass (over max(1, 2^a) for the nodes) and lifted by
          sum_n (2 |delta|)^n / n! <= e (and (x/A)^a <= max(1, 2^a)), so
          each books at most e _TAIL / 4 < _TAIL: e _TAIL together.  A node
          past every window start (n_t) drops the lower node tail alone.
        * roundoff, gamma_K times the same computation on absolute values,
          which the same lifts bound by e ||c||_1 on the jump side and by
          e max(1, 2^a) ||c||_1 on the node side.  K counts the roundings on
          the longest path.  Jumps: 2N for c delta^n / n!, the anchor's
          jump sum, the table row's l1 error _TABLE_ULPS, the sum over
          anchors, 2N for the fold.  Nodes: the prefix sum, 3N for L^n, the
          table again, the window sum, one for 1/n!, 2N for Horner's rule,
          4 for the factor (x/A)^a (a quotient and a power within one ulp)
          and its product.
        * argument rounding: x carries a relative error gamma_3, and
          |dF/dx| x <= ||c||_1 (sqrt(x) + 1) on each side (Stirling's bound
          on the Poisson and gamma densities), x below the last anchor
          before n_t: 3 gamma_3 (sqrt(x_max) + 1).

        ||Q||_inf <= ||q||_1 is ||c||_1 to first order, and the factor 1.01
        covers the second-order terms.  Every term depends on c alone.
        """
        big_n = self.terms - 1
        k_jump = 4 * big_n + int(np.diff(seg, append=c.size).max()) + _TABLE_ULPS + seg.size
        k_node = n_q + 5 * big_n + _TABLE_ULPS + int(self.nodes.widths[:n_t].max()) + 5
        x_max = float(self.anchors[n_t - 1]) + 0.5
        per_mass = ((1.0 + self.lift) / math.factorial(self.terms)
                    + math.e * _TAIL
                    + math.e * (_gamma(k_jump) + self.lift * _gamma(k_node))
                    + 3.0 * _gamma(3) * (math.sqrt(x_max) + 1.0))
        return 1.01 * float(np.abs(c).sum()) * per_mass


def _lattice_anchored(dim: int, t: float, c: np.ndarray, h: float, n_out: int
                      ) -> tuple[np.ndarray, float]:
    """Mixture of nonempty lattice jumps c on the nodes i*h, i < n_out, for
    every d but 1 and 3, on tables cached per (dim, t, h).

    The tables are rebuilt longer, with headroom as mass spreads, when they
    hold fewer than n_out nodes or c.size jumps, and twice as long when no
    node window starts past every jump window.
    """
    key = ("series", dim, t, h)
    lattice = _IMAGE_CACHE.pop(key, None)
    n, n_jumps = n_out + n_out // 4, c.size + c.size // 4
    while (lattice is None or lattice.n < n_out or lattice.n_jumps < c.size
           or lattice.nodes.lo[-1] <= lattice.top_max):
        if lattice is not None and lattice.n >= n_out and lattice.n_jumps >= c.size:
            n = max(n, 2 * lattice.n)
        lattice = None  # the old tables go before the new ones are built
        lattice = _AnchoredLattice(dim, t, h, n, n_jumps)
    return _cached(key, lambda: lattice).apply(c, n_out)


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
    # written as not <= so that a NaN fails the check
    if not np.all(np.abs(r_nodes - np.arange(n, dtype=float) * h) <= slack):
        raise ValueError("r_nodes must be the lattice i*lattice_h for i = 0..n-1")
    idx = np.rint(locs / h)
    if not np.all(np.abs(locs - idx * h) <= slack) or idx.min() < 0 or idx.max() >= n:
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
    takes the band-limited image route and every other d the anchored
    Taylor route on tables cached per lattice.  Every dropped tail is at
    most 2^-56 per unit mass.  Returns (values, certified absolute
    evaluation error).

    ``sizes`` of shape (k, len(locs)) holds k mixtures on the same ``locs``
    and nodes, and the call returns (k, n) values and k errors.  The
    lattice is checked once and each row evaluated on its own: it gets the
    bits that a call with that row alone returns, and neither a node's
    value nor the error depends on how many nodes follow it.
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
    if not 0.0 < h < math.inf:
        raise ValueError(f"lattice_h must be positive and finite, got {lattice_h}")
    cs = _lattice_jumps(locs, rows, r_nodes, h) if locs.size else [locs[:0]] * len(rows)
    vals, errs = np.zeros((len(cs), r_nodes.size)), np.zeros(len(cs))
    route = _lattice_images if dim in (1, 3) else _lattice_anchored
    for k, c in enumerate(cs):
        if c.size:
            vals[k], errs[k] = route(dim, float(t), c, h, r_nodes.size)
    return (vals, errs) if sizes.ndim == 2 else (vals[0], float(errs[0]))
