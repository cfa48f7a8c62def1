"""Radial transition kernels of d-dimensional Brownian motion (diffusivity sqrt 2).

Objects implemented here, all conditional on the starting radius y:

* ``radial_cdf``  w(y, r, t) = P(||B_t|| < r | ||B_0|| = y)
* ``bessel_density``  g = dw/dr, the Bessel transition density
* ``kernel_G``  G = -dw/dy, the fundamental solution of
  dG/dt = d^2G/dr^2 - ((d-1)/r) dG/dr with G(y, 0, t) = 0

The computational route: ||B_t||^2 / (2t) follows a noncentral chi-squared
law with d degrees of freedom and noncentrality y^2 / (2t), so

    w(y, r, t) = sum_m  Poisson(m; y^2/(4t)) * P(d/2 + m, r^2/(4t))

with P the regularized lower incomplete gamma function; in d = 1 and 3, w
has Gaussian image forms.  The Poisson tail bounds the truncation, so every
evaluation of w carries a certified absolute error.  Differentiating in the
noncentrality shifts the degrees of freedom by two, giving

    g(y, r, t) = (r/t) * f_ncx2(r^2/2t; d,   y^2/2t)
    G(y, r, t) = (y/t) * f_ncx2(r^2/2t; d+2, y^2/2t),

evaluated in every d through scipy's ``ive``, with no booked error.  The
lattice engine ``mixture_node_values``, which the solver's sandwich step
calls once for both branches, evaluates G_t of step profiles with jumps
c_j at lattice points a_j as the finite mixtures sum_j c_j w(a_j, r, t) on
the lattice nodes, and every apply costs the kernel's support, not the
domain:

* image route (d = 1, 3): the saturated parts of the image kernels are
  prefix sums of the jump sizes, and the remainders, cut to a band of B
  cells, are one FFT convolution of length about n_act + 2B (n_act = cells
  carrying jumps);
* anchored route (any other d): each jump mean and node argument
  x = (ih)^2/(4t) lies within 1/2 of an integer anchor A, and both sides of
  the series are entire in their continuous argument, so they are Taylor
  expanded about the anchors with N + 1 = 21 terms, the anchor-and-Taylor
  idea of the fast Gauss transform (Greengard & Strain, SIAM J. Sci. Stat.
  Comput. 12, 1991).  Jumps: moments M_{A,n} = sum_j c_j delta_j^n / n!
  against a table of Poisson(m; A), folded as q = sum_n (-grad)^n r_n since
  d/dmu Poisson(m) = Poisson(m-1) - Poisson(m).  Nodes: the mixture is
  z^a h(z), a = d/2, with h(z) = sum_k Q_k z^k e^-z / Gamma(a+k+1) over the
  prefix sums Q of q; h^(n)(A) comes from (LQ)_k = (k+1)/(a+k+1) Q_{k+1} -
  Q_k against a second table, and each node from a Taylor sum in
  delta = z - A.  The tables come in blocks of anchors built by a ratio
  recurrence, kept per (dim, t, h) within the cache budget and streamed
  past it.  The pointwise kernels run one unit jump through the same route.

The returned ``eval_err`` books, per unit of mixture mass:

* image route: the erfc and Gaussian image terms beyond the band (the
  bounds of ``_image_tail``) and a margin of 64 eps n_fft for FFT and
  prefix-sum roundoff;
* anchored route (``_AnchoredLattice.eval_err``): the Taylor remainders,
  the four window tails, roundoff after Higham (Accuracy and Stability of
  Numerical Algorithms, 2nd ed., 2002) and the rounding of the arguments.

Bands and windows are sized so that every dropped tail stays below 2^-56
per unit mass; no quadrature is involved.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft
from scipy.special import erf, erfc, gammainc, gammaincc, gammaln, ive

from .core import _nonnegative, _positive

__all__ = [
    "EvaluationError",
    "radial_cdf",
    "bessel_density",
    "kernel_G",
    "mixture_node_values",
]

_SQRT_PI = math.sqrt(math.pi)


class EvaluationError(RuntimeError):
    """A noncentral series window, of a jump or of a node, would need more
    than _MAX_WINDOW terms; no table size is limited otherwise."""


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
# and the dropped tails are booked per unit of mixture mass.  Every tail is
# cut at _TAIL per unit mass, below double rounding: the solver freezes its
# flat tail where values come within 1e-12 of the total mass, so a coarser
# kernel there would move the active grid.  There is no accuracy option.

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


def _window_edges(x: np.ndarray, s_lo: float, s_hi: float, eps: float, shift: float = 0.0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Verified windows [lo, hi] in m for means x (sorted ascending).

    hi is the smallest m >= 0 with gammainc(s_hi + m, x) <= eps; lo is the
    largest m >= 1, at most hi, with gammaincc(s_lo + m, x') <= eps at
    x' = max(x - shift, 0), or 0.  Each entry's edges depend on its own mean
    alone.
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

    x = np.maximum(x - shift, 0.0)
    lo = np.maximum(np.floor(x - spread).astype(np.int64), 0)
    lo[(lo > 0) & lower_bad(np.maximum(lo, 1), x)] = 0
    first_bad = _smallest_passing(lower_bad, x, lo, np.ceil(x).astype(np.int64) + 2)
    return np.minimum(first_bad - 1, hi), hi


def _ncx2_cdf(x: np.ndarray, dim: int, lam: float) -> np.ndarray:
    """Noncentral chi-squared CDF within the booked error of one unit jump of
    mean lam/2 through the anchored series (:class:`_AnchoredLattice`)."""
    x = np.asarray(x, dtype=float)
    mu = 0.5 * lam
    if mu == 0.0 or x.size == 0:
        return gammainc(0.5 * dim, 0.5 * x)
    z = 0.5 * x.ravel()
    order = np.argsort(z, kind="stable")
    vals, _ = _AnchoredLattice(dim, np.array([mu]), z[order]).apply([np.ones(1)], z.size)
    return vals[0][np.argsort(order)].reshape(x.shape)  # within [0, 1]


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
    _positive("t", t)
    _nonnegative("y", y)
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

    Evaluated through scipy's ``ive`` in every d, with no booked error.
    The y = 0 case is the continuity limit: the chi distribution with d
    degrees of freedom scaled by sqrt(2t).
    """
    r_arr = _check_point(dim, y, r, t)
    out = (r_arr / t) * _ncx2_pdf(r_arr * r_arr / (2.0 * t), dim, y * y / (2.0 * t))
    return float(out) if r_arr.ndim == 0 else out


def kernel_G(dim: int, y: float, r, t: float):
    """G(y, r, t) = -dw/dy >= 0.

    Differentiating the noncentral series in its noncentrality shifts the
    degrees of freedom by two: G = (y/t) * f_ncx2(r^2/2t; d+2, y^2/2t),
    evaluated through scipy's ``ive`` in every d, with no booked error.
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

# Cross-call kernel data keyed by lattice: image engines and anchored series
# tables.  Entries report their own ``nbytes``; the least recently used go
# first once the budget is exceeded, and a series entry keeps table blocks
# only while it fits (:class:`_AnchoredLattice`).
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
_WEIGHT_ULPS = 256  # relative error of a _gamma_weight value in units of 2^-53 (196 seen)
_SPAN = 64          # anchor values per table block
_BLOCK = 4096       # nodes per block of Taylor sums: scratch below 1 MB


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


def _anchored(x: np.ndarray):
    """Anchors A = rint(x) of sorted x: the distinct anchors, the first index
    of each, the anchor of each entry and the offsets x - A."""
    anchor = np.rint(x)
    new = np.diff(anchor, prepend=-1.0) != 0.0
    return anchor[new], np.flatnonzero(new), np.cumsum(new) - 1, x - anchor


class _Table:
    """Rows psi_k(A) = A^(s+k) e^-A / Gamma(s+k+1) of sorted anchors A, each
    over at least its verified window [lo, hi] (psi_0(0) = 1/Gamma(s+1)).

    Block b, the anchors in [_SPAN b, _SPAN (b+1)), is one dense array over
    columns c0[b] .. c1[b] - 1, the union of their windows, built from those
    anchors alone by the ratio recurrence psi_k = psi_(k-1) A / (s+k) and
    scaled to one saddle-point value per row at its mode.  The rounded
    factors up to the mode cancel, so an entry j columns from it is within
    gamma(_WEIGHT_ULPS + 2j + 2) of psi, relatively.  The recurrence stays
    below e^100; entries outside a window may underflow, under its tail.
    """

    def __init__(self, s: float, anchors: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.s, self.anchors, self.lo, self.hi = s, anchors, lo, hi
        first = np.flatnonzero(np.diff(anchors // _SPAN, prepend=-1.0))
        self.rows = np.append(first, anchors.size)  # block b holds rows[b]:rows[b+1]
        self.c0 = np.minimum.reduceat(lo, first)
        self.c1 = np.maximum.reduceat(hi, first) + 1
        block = np.repeat(np.arange(first.size), np.diff(self.rows))
        self.mode = np.clip(np.floor(anchors - s), self.c0[block], self.c1[block] - 1)
        self.start = np.where(anchors > 0.0, _gamma_weight(s + self.mode, anchors),
                              math.exp(-math.lgamma(s + 1.0)))
        self.blocks: dict[int, np.ndarray] = {}
        self.nbytes = sum(v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray))

    def block_of(self, row: int) -> int:  # the block holding a row
        return int(np.searchsorted(self.rows, row, side="right")) - 1

    def build(self, b: int) -> np.ndarray:
        i0, i1 = self.rows[b], self.rows[b + 1]
        c0, width = int(self.c0[b]), int(self.c1[b] - self.c0[b])
        out = np.empty((i1 - i0, width))
        out[:, 0] = 1.0
        np.divide(self.anchors[i0:i1, None], self.s + np.arange(c0 + 1.0, c0 + width),
                  out=out[:, 1:])
        np.cumprod(out, axis=1, out=out)
        mode = (self.mode[i0:i1] - c0).astype(np.int64)
        out *= (self.start[i0:i1] / out[np.arange(i1 - i0), mode])[:, None]
        return out


class _AnchoredLattice:
    """Mixtures of Poisson(mu_j) jumps on the incomplete-gamma basis at node
    arguments z_i, both sorted, by Taylor series about integer anchors.

    Every mean and argument x gets the anchor A = rint(x) and the offset
    delta = x - A, exact by Sterbenz's lemma, with |delta| <= 1/2.  Table
    ``jumps`` holds Poisson(m; A) over each jump anchor's window in m,
    verified at A.  Table ``nodes`` holds psi_k(A) = A^(a+k) e^-A /
    Gamma(a+k+1) over a window in k whose upper edge is verified at A and
    lower edge at A - 1/2, so both hold over the anchor's cell; a node
    carries the factor (z/A)^a, or z^a at A = 0.  A table block is kept
    while this entry, the running apply's scratch, the block and an eighth
    of the budget (the apply's other arrays) fit in _CACHE_BYTES, else built,
    used and dropped.  Sums run over whole blocks, so no value depends on
    how far the tables reach or on what is kept.
    """

    def __init__(self, dim: int, mu: np.ndarray, z: np.ndarray):
        a = 0.5 * dim
        self.a, self.n, self.lift, self.scratch = a, z.size, max(1.0, 2.0 ** a), 0
        self.terms = _taylor_terms(self.lift)
        self.factorials = np.array([math.factorial(k) for k in range(self.terms)], float)
        anchors, self.first, _, self.jump_delta = _anchored(mu)
        self.jumps = _Table(0.0, anchors, *_window_edges(anchors, 0.0, 1.0, _TAIL / 4.0))
        anchors, _, self.row, self.delta = _anchored(z)
        node_anchor = anchors[self.row]
        self.scale = np.where(node_anchor > 0.0, z / np.maximum(node_anchor, 1.0), z) ** a
        eps = _TAIL / (4.0 * self.lift)  # the node tails are lifted by up to lift
        self.nodes = _Table(a, anchors, *_window_edges(anchors, a, a + 1.0, eps, 0.5))
        self.arrays = sum(v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray))

    @property
    def nbytes(self) -> int:
        return self.jumps.nbytes + self.nodes.nbytes + self.arrays + self.scratch

    def _room(self) -> int:
        """Bytes this entry may still grow by in the cache; none outside it."""
        entries = _IMAGE_CACHE.values()
        return _CACHE_BYTES - sum(e.nbytes for e in entries) if self in entries else 0

    def _blocks(self, table: _Table, lo: int, hi: int, scratch: int):
        """Blocks lo..hi-1 of ``table``, each built once; an apply's scratch
        counts in this entry, and kept blocks go, last first, until it fits."""
        self.scratch = scratch
        for kept in (self.nodes, self.jumps):
            while kept.blocks and self._room() < 0:
                kept.nbytes -= kept.blocks.pop(max(kept.blocks)).nbytes
        for b in range(lo, hi):
            block = table.blocks.get(b)
            if block is None:
                block = table.build(b)
                if block.nbytes + _CACHE_BYTES // 8 <= self._room():
                    table.blocks[b] = block
                    table.nbytes += block.nbytes
            yield b, block
        self.scratch = 0

    def _jump_sums(self, cs: list[np.ndarray]) -> list[tuple[int, int, np.ndarray]]:
        """Per row c: its blocks, the index m0 where its q starts and Q, the
        prefix sums of q = sum_n (-grad)^n r_n (Horner), from the moments
        M_{A,n} = sum_j c_j delta_j^n / n! and r_n = sum_A M_{A,n} Poisson(A)."""
        big_n, jumps, acc = self.terms - 1, self.jumps, []
        for c in cs:
            seg = self.first[:np.searchsorted(self.first, c.size)]
            b_end = jumps.block_of(seg.size - 1) + 1
            moments = np.zeros((self.terms, jumps.rows[b_end]))
            x, dx = c.copy(), self.jump_delta[:c.size]
            for n in range(self.terms):
                if n:
                    x *= dx
                    x /= n
                np.add.reduceat(x, seg, out=moments[n, :seg.size])
            m0 = int(jumps.c0[:b_end].min())
            r = np.zeros((self.terms, int(jumps.c1[:b_end].max()) - m0 + big_n))
            acc.append((b_end, m0, moments, r))
        for b, block in self._blocks(jumps, 0, max(u[0] for u in acc),
                                     sum(m.nbytes + r.nbytes for _, _, m, r in acc)):
            i0, i1 = jumps.rows[b], jumps.rows[b + 1]
            for b_end, m0, moments, r in acc:
                if b < b_end:
                    r[:, jumps.c0[b] - m0:jumps.c1[b] - m0] += moments[:, i0:i1] @ block
        out = []
        for b_end, m0, _, r in acc:
            q = r[big_n].copy()
            for n in range(big_n - 1, -1, -1):
                q, prev = r[n] - q, q
                q[1:] += prev[:-1]
            out.append((b_end, m0, np.cumsum(q)))
        return out

    def apply(self, cs: list[np.ndarray], n_out: int) -> tuple[np.ndarray, np.ndarray]:
        """Mixtures of the jump rows cs, sizes at the first cs[k].size means, on
        the first n_out nodes, and their certified errors (:meth:`eval_err`).

        One pass over the blocks serves every row, and each row gets the bits
        of a call with that row alone.  A node whose window starts past q
        (anchor n_t on) sees the total, one whose block ends below q nothing.
        Between them: (L^n Q)_k, (L Q)_k = (k+1)/(a+k+1) Q_{k+1} - Q_k, with
        Q held at the total past q; A^a h^(n)(A) = sum_k psi_k(A) (L^n Q)_k
        over the block; at each node (z/A)^a sum_n A^a h^(n)(A) delta^n / n!
        """
        big_n, nodes = self.terms - 1, self.nodes
        vals, errs, used = np.empty((len(cs), n_out)), np.empty(len(cs)), []
        for k, (c, (b_end, m0, cum)) in enumerate(zip(cs, self._jump_sums(cs))):
            n_t = int(np.argmax(np.append(nodes.lo, np.inf) > m0 + cum.size - 1))
            b_lo = int(np.argmax(np.append(nodes.c1, np.inf) > m0))
            i_lo, i_hi = np.searchsorted(self.row[:n_out], [nodes.rows[b_lo], n_t])
            vals[k, :i_lo], vals[k, i_lo:] = 0.0, cum[-1]
            errs[k] = self.eval_err(c, b_end, cum.size, b_lo, n_t)
            if i_hi > i_lo:
                b_hi = nodes.block_of(self.row[i_hi - 1]) + 1
                k0, k1 = int(nodes.c0[b_lo:b_hi].min()), int(nodes.c1[b_lo:b_hi].max())
                kk = np.arange(k0, k1 + big_n, dtype=float)
                d = np.where(kk < m0, 0.0, cum[np.clip(kk - m0, 0, cum.size - 1).astype(int)])
                w = (kk[:-1] + 1.0) / (self.a + kk[:-1] + 1.0)
                deriv = np.empty((self.terms, k1 - k0))
                deriv[0] = d[:k1 - k0]
                for n in range(1, self.terms):
                    d = w[:d.size - 1] * d[1:] - d[:-1]
                    deriv[n] = d[:k1 - k0]
                coef = np.empty((self.terms, nodes.rows[b_hi] - nodes.rows[b_lo]))
                used.append((k, b_lo, b_hi, k0, deriv, coef, i_lo, i_hi))
        for b, block in self._blocks(nodes, min((u[1] for u in used), default=0),
                                     max((u[2] for u in used), default=0),
                                     sum(u[4].nbytes + u[5].nbytes for u in used)):
            for _, b_lo, b_hi, k0, deriv, coef, _, _ in used:
                if b_lo <= b < b_hi:
                    i0 = nodes.rows[b] - nodes.rows[b_lo]
                    coef[:, i0:i0 + block.shape[0]] = (
                        deriv[:, nodes.c0[b] - k0:nodes.c1[b] - k0] @ block.T)
        for k, b_lo, _, _, _, coef, i_lo, i_hi in used:
            coef /= self.factorials[:, None]
            base = nodes.rows[b_lo]
            for s in range(i_lo, i_hi, _BLOCK):
                e = min(s + _BLOCK, i_hi)
                # each anchor's coefficients, repeated over its run of nodes
                block = np.repeat(coef[:, self.row[s] - base:self.row[e - 1] - base + 1],
                                  np.bincount(self.row[s:e] - self.row[s]), axis=1)
                horner = block[big_n].copy()
                for n in range(big_n - 1, -1, -1):
                    horner *= self.delta[s:e]
                    horner += block[n]
                vals[k, s:e] = horner * self.scale[s:e]
        for v, c in zip(vals, cs):
            np.clip(v, 0.0, max(c.sum(), 0.0), out=v)
        return vals, errs

    def eval_err(self, c: np.ndarray, b_end: int, n_q: int, b_lo: int, n_t: int) -> float:
        """Certified error of :meth:`apply` for jumps c, ||c||_1 times the sum of

        * the Taylor remainders, with |delta| <= 1/2 and N + 1 terms.  Jumps:
          ||q - q_N||_1 <= sup ||d^(N+1)/dmu^(N+1) Poisson||_1 / (N+1)!
          <= 2^(N+1) (1/2)^(N+1) / (N+1)!, since ||grad^n||_1 <= 2^n.  Nodes:
          x^a |h^(N+1)(s)| <= 2^(N+1) ||Q||_inf max(1, 2^a) for s between
          the anchor and x, since ||L||_inf <= 2 and x^a sum_k phi_k(s) <=
          max(1, 2^a).  Together (1 + max(1, 2^a)) / (N+1)!.
        * the window tails.  Each of the four is verified below _TAIL/4 per
          unit mass (over max(1, 2^a) for the nodes) and lifted by
          sum_n (2 |delta|)^n / n! <= e (and (x/A)^a <= max(1, 2^a)), so
          each books at most e _TAIL / 4 < _TAIL: e _TAIL together (blocks
          only add terms past the windows; a node set to the total or to 0
          drops one node tail alone).
        * roundoff, gamma_K times the same computation on absolute values,
          which the same lifts bound by e ||c||_1 on the jump side and by
          e max(1, 2^a) ||c||_1 on the node side.  K counts the roundings on
          the longest path, _WEIGHT_ULPS + 2w + 2 for an entry of a block w
          columns wide (:class:`_Table`).  Jumps: 2N for c delta^n / n!, the
          anchor's jump sum, the table, one per anchor and per block for the
          sum over anchors, 2N for the fold.  Nodes: the prefix sum, 3N for
          L^n, the table, the sum over a block row, one for 1/n!, 2N for
          Horner's rule, 4 for the factor (x/A)^a (a quotient and a power
          within one ulp) and its product.
        * argument rounding: x carries a relative error gamma_3, and
          |dF/dx| x <= ||c||_1 (sqrt(x) + 1) on each side (Stirling's bound
          on the densities), x below the last anchor before n_t.

        ||Q||_inf <= ||q||_1 is ||c||_1 to first order; the factor 1.01
        covers the second-order terms.  Every term depends on c alone.
        """
        big_n, table, nodes = self.terms - 1, _WEIGHT_ULPS + 2, self.nodes
        seg = self.first[:np.searchsorted(self.first, c.size)]
        w_jump = int((self.jumps.c1 - self.jumps.c0)[:b_end].max())
        w_node = int((nodes.c1 - nodes.c0)[b_lo:nodes.block_of(n_t - 1) + 1].max(initial=0))
        k_jump = (4 * big_n + int(np.diff(seg, append=c.size).max()) + table + 2 * w_jump
                  + seg.size + b_end)
        k_node = n_q + 5 * big_n + table + 3 * w_node + 5
        x_max = float(nodes.anchors[max(n_t, 1) - 1]) + 0.5
        per_mass = ((1.0 + self.lift) / math.factorial(self.terms)
                    + math.e * _TAIL
                    + math.e * (_gamma(k_jump) + self.lift * _gamma(k_node))
                    + 3.0 * _gamma(3) * (math.sqrt(x_max) + 1.0))
        return 1.01 * float(np.abs(c).sum()) * per_mass


def _lattice_anchored(dim: int, t: float, cs: list[np.ndarray], h: float, n_out: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Mixtures of the nonempty lattice jump rows cs on the nodes i*h,
    i < n_out, for every d but 1 and 3, on tables cached per (dim, t, h).
    The lattice runs to the end of the anchor block of node n_out - 1, so a
    longer one has the same blocks and a node's bits do not depend on
    n_out; one shorter than n_out is built afresh."""
    key = ("series", dim, t, h)
    lattice = _IMAGE_CACHE.pop(key, None)
    if lattice is None or lattice.n < n_out:
        x = (np.arange(n_out, dtype=float) * h) ** 2 / (4.0 * t)
        top = (np.rint(x[-1]) // _SPAN + 1) * _SPAN  # the next block's first anchor
        x = (np.arange(math.ceil(math.sqrt(4.0 * t * (top + 1.0)) / h) + 2) * h) ** 2 / (4.0 * t)
        x = x[:np.count_nonzero(np.rint(x) < top)]
        lattice = _AnchoredLattice(dim, x, x)
    return _cached(key, lambda: lattice).apply(cs, n_out)


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
        spec = fft.rfft(c, n_fft)
        spec *= self.k_hat
        if self.dim == 3:
            images = fft.rfft(w2, n_fft)
            spec += np.multiply(images, self.e_hat, out=images)
        u = fft.irfft(spec, n_fft)  # u[p mod n_fft] for p in [-band, n_act + band)
        half = np.full(n_out, 0.5 * c.sum())  # half the prefix sums: 0.5 scales exactly
        np.multiply(_prefix_sums(c)[:n_out], 0.5, out=half[:min(n_act, n_out)])
        vals = half.copy()
        vals[1:] += half[:-1]
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
    within = np.zeros((-(-n // block), block))
    within.ravel()[:n] = c
    np.cumsum(within, axis=1, out=within)
    offsets = np.concatenate(([0.0], np.cumsum(within[:-1, -1])))
    within += offsets[:, None]
    return within.ravel()[:n]


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
    return np.clip(vals, 0.0, c.sum(), out=vals), eval_err


def _trimmed(c: np.ndarray) -> np.ndarray:
    """c up to its last nonzero entry, searched from the end in chunks."""
    for end in range(c.size, 0, -1024):
        nz = np.flatnonzero(c[max(end - 1024, 0):end])
        if nz.size:
            return c[:max(end - 1024, 0) + int(nz[-1]) + 1]
    return c[:0]


def mixture_node_values(dim: int, t: float, locs: np.ndarray, sizes: np.ndarray,
                        r_nodes: np.ndarray, *,
                        lattice_h: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the mixtures sum_j sizes[k, j] * w(locs_j, r, t), one per row
    of ``sizes``, at the lattice nodes.

    ``r_nodes`` must be the lattice i*lattice_h for i = 0..n-1 (to 1e-9 *
    lattice_h), ``locs`` its prefix r_nodes[:m] and ``sizes`` of shape
    (k, m): one jump per node from the origin, as the solver's step passes
    them.  Any other shape raises ``ValueError``.  d in {1, 3} takes the
    band-limited image route and every other d the anchored Taylor route on
    tables cached per lattice.  Every dropped tail is at most 2^-56 per unit
    mass.  Returns (k, n) values and k certified absolute evaluation errors.
    Each row is evaluated on its own: it gets the bits that a call with that
    row alone returns, and neither a node's value nor the error depends on
    how many nodes follow it.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _positive("t", t)
    h = _positive("lattice_h", lattice_h)
    locs = np.asarray(locs, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    r_nodes = np.asarray(r_nodes, dtype=float)
    n, m = r_nodes.size, locs.size
    # written as not <= so that a NaN fails the check
    if not np.all(np.abs(r_nodes - np.arange(n, dtype=float) * h) <= 1e-9 * h):
        raise ValueError("r_nodes must be the lattice i*lattice_h for i = 0..n-1")
    if not np.array_equal(locs, r_nodes[:m]):
        raise ValueError(f"locs must be the lattice prefix r_nodes[:m]; got {locs.shape} "
                         f"locs that are not the first of {n} nodes")
    if sizes.ndim != 2 or sizes.shape[1] != m:
        raise ValueError(f"sizes must have shape (k, {m}), got {sizes.shape}")
    if not np.all(np.isfinite(sizes)):
        raise ValueError("sizes must be finite")
    cs = [_trimmed(c) for c in sizes + 0.0]  # each row is its jump array; -0.0 becomes 0.0
    vals, errs = np.zeros((len(cs), n)), np.zeros(len(cs))
    live = [k for k, c in enumerate(cs) if c.size]
    if dim in (1, 3):
        for k in live:
            vals[k], errs[k] = _lattice_images(dim, float(t), cs[k], h, n)
    elif live:
        vals[live], errs[live] = _lattice_anchored(dim, float(t), [cs[k] for k in live], h, n)
    return vals, errs
