"""Radial transition kernels of d-dimensional Brownian motion (diffusivity sqrt 2).

The one pointwise kernel, conditional on the starting radius y:

* ``radial_cdf``  w(y, r, t) = P(||B_t|| < r | ||B_0|| = y)

The computational route: ||B_t||^2 / (2t) follows a noncentral chi-squared
law with d degrees of freedom and noncentrality y^2 / (2t), so

    w(y, r, t) = sum_m  Poisson(m; y^2/(4t)) * P(d/2 + m, r^2/(4t))

with P the regularized lower incomplete gamma function; in d = 1, w is
0.5 [erf((r - y)/2 sqrt t) + erf((r + y)/2 sqrt t)].  The Poisson tail
bounds the truncation, so every evaluation of w carries a certified
absolute error.  ``radial_cdf`` and ``mixture_node_values`` take only
integer d in 1..12 (``core._MAX_DIM``), the range the anchored route's 21
Taylor terms are sized for.  The lattice engine ``mixture_node_values``,
which the solver's sandwich step calls once for both branches, evaluates
G_t of step profiles with jumps c_j at lattice points a_j as the finite
mixtures sum_j c_j w(a_j, r, t) on the lattice nodes.  Both routes take one
jump row per call and return its values and certified error, and every
apply costs the kernel's support, not the domain:

* image route (d = 1): the saturated parts of the erf image kernel are
  prefix sums of the jump sizes, and the erfc remainders, cut to a band of
  B cells, are one FFT convolution of length about n_act + 2B (n_act =
  cells carrying jumps);
* anchored route (every other d): each jump mean and node argument
  x = (ih)^2/(4t) lies within 1/2 of an integer anchor A, and both sides of
  the series are entire in their continuous argument, so they are Taylor
  expanded about the anchors with N + 1 = 21 terms, the anchor-and-Taylor
  idea of the fast Gauss transform (Greengard & Strain, SIAM J. Sci. Stat.
  Comput. 12, 1991).  Jumps: since d/dmu Poisson(m) = Poisson(m-1) -
  Poisson(m), the Taylor term (-grad)^n / n! is a sum of shifts by j with
  weights (-1)^(n-j) / (j! (n-j)!), so the moments S_{A,n} = sum_j c_j
  delta_j^n fold per anchor into one row per shift, against a table of
  Poisson(m; A), and q sums the shifted rows.  Nodes: the mixture is
  z^a h(z), a = d/2, with h(z) = sum_k Q_k z^k e^-z / Gamma(a+k+1) over the
  prefix sums Q of q; h^(n)(A) comes from (LQ)_k = (k+1)/(a+k+1) Q_{k+1} -
  Q_k against a second table, and each node from a Taylor sum in
  delta = z - A by Horner's rule, a block of node anchors taking fewer terms
  where the computed derivatives certify a smaller remainder.  Per Taylor
  term, a pass over the jumps or the nodes is a few numpy calls on whole
  arrays, and the per-node data is the offsets, which jumps and nodes share
  on the solver's lattice, and the factors (z/A)^a.  The tables come in
  blocks of anchors built by a ratio recurrence, kept per (dim, t, h) within
  the cache budget and streamed past it.  ``radial_cdf`` runs one unit jump
  through the same route at every d but 1 (the erf form) and at every y but
  0 (P(d/2, r^2/(4t))), so at d >= 2 the pointwise kernel and the lattice
  share one engine.

The returned ``eval_err`` books, per unit of mixture mass:

* image route: the erfc terms beyond the band (erfc at the band edge) and a
  margin of 64 eps n_fft for FFT and prefix-sum roundoff (recursive sums err
  by gamma_{n-1}, Higham 2002 §4.2);
* anchored route (``_AnchoredLattice.eval_err``): the Taylor remainders,
  the four window tails, roundoff after Higham (Accuracy and Stability of
  Numerical Algorithms, 2nd ed., 2002) and the rounding of the arguments.
  On the lattice it is a function of (dim, t, h, c) alone: it depends
  neither on n_out nor on what the kernel cache held before the call.

Bands and windows are sized so that every dropped tail stays below 2^-56
per unit mass; no quadrature is involved.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft
from scipy.special import erf, erfc, gammainc, gammaincc, gammaln

from .core import _MAX_DIM, _integer, _nonnegative, _positive

__all__ = [
    "EvaluationError",
    "radial_cdf",
    "mixture_node_values",
]

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
    out[big] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kb2)) / kb2) / kb2)
                / kb2) / kb
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


# ---------------------------------------------------------------------------
# Pointwise kernel
# ---------------------------------------------------------------------------

def radial_cdf(dim: int, y: float, r, t: float):
    """w(y, r, t) = P(||B_t|| < r | ||B_0|| = y); vectorized in r."""
    _integer("dim", dim, 1, _MAX_DIM)
    _positive("t", t)
    _nonnegative("y", y)
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr >= 0.0) & (r_arr < math.inf)):
        raise ValueError("r must be finite and nonnegative")
    s2 = 2.0 * math.sqrt(t)
    if dim == 1:
        out = 0.5 * (erf((r_arr - y) / s2) + erf((r_arr + y) / s2))
    else:
        # one unit jump of mean mu through the anchored series, within its booked error
        z = r_arr * r_arr / (4.0 * t)
        mu = y * y / (4.0 * t)
        if mu == 0.0 or z.size == 0:
            out = gammainc(0.5 * dim, z)
        else:
            flat = z.ravel()
            order = np.argsort(flat, kind="stable")
            vals, _ = _AnchoredLattice(dim, np.array([mu]), flat[order]).apply(
                np.ones(1), flat.size)
            out = vals[np.argsort(order)].reshape(z.shape)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if r_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Grid engine: G_t applied to a step profile
# ---------------------------------------------------------------------------

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


_TAYLOR_TERMS = 21  # terms about each anchor: 2^(d/2) / 21! < _TAIL for every d <= _MAX_DIM
_WEIGHT_ULPS = 96   # relative error of a _gamma_weight value in units of 2^-53 (66 seen)
_SPAN = 64          # anchor values per table block


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: a result of n roundings,
    in any order, is within gamma_n times the same computation on absolute
    values (Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    Lemma 3.1, Sec. 3.1 for sums and dot products, Sec. 5.1 for Horner)."""
    nu = n * 2.0 ** -53
    return nu / (1.0 - nu)


def _anchored(x: np.ndarray):
    """Anchors A = rint(x) of sorted x: the distinct anchors, the index of
    each one's first entry with x.size appended, and the offsets x - A."""
    anchor = np.rint(x)
    first = np.flatnonzero(np.diff(anchor, prepend=-1.0))
    return anchor[first], np.append(first, x.size), x - anchor


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
        self.width = self.c1 - self.c0
        self.lo_max = np.maximum.accumulate(lo)
        self.c1_max = np.maximum.accumulate(self.c1)
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
        c0, width = int(self.c0[b]), int(self.width[b])
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
    delta = x - A, exact by Sterbenz's lemma, with |delta| <= 1/2; when mu is
    z, jumps and nodes share these arrays.  Table ``jumps`` holds
    Poisson(m; A) over each jump anchor's window in m, verified at A.  Table
    ``nodes`` holds psi_k(A) = A^(a+k) e^-A / Gamma(a+k+1) over a window in
    k whose upper edge is verified at A and lower edge at A - 1/2, so both
    hold over the anchor's cell; a node carries the factor (z/A)^a, or z^a
    at A = 0.  A table block is kept while this entry, the running apply's
    scratch, the block and an eighth of the budget (the apply's other
    arrays) fit in _CACHE_BYTES, else built, used and dropped.  Sums run over
    whole blocks, so no value depends on how far the tables reach or on
    what is kept.  ``more(lo, hi)``, given on a lattice, returns the anchors
    in [lo, hi) that a longer lattice would have past the last node: table
    ``nodes`` takes their window edges, a block at a time, until a window
    starts past the last index that q can reach, and never builds their
    blocks.  So n_t in :meth:`apply`, and with it the error, does not depend
    on where the lattice ends.
    """

    def __init__(self, dim: int, mu: np.ndarray, z: np.ndarray, more=None):
        a = 0.5 * dim
        self.a, self.n, self.lift, self.scratch = a, z.size, max(1.0, 2.0 ** a), 0
        self.terms = _TAYLOR_TERMS
        self.factorials = np.array([math.factorial(k) for k in range(self.terms)], float)
        # fold[j, n] = (-1)^(n-j) / (j! (n-j)!), correctly rounded: the binomial
        # expansion of (-grad)^n / n! into shifts by j
        self.fold = np.array([[(-1) ** (n - j) / (math.factorial(j) * math.factorial(n - j))
                               if n >= j else 0.0 for n in range(self.terms)]
                              for j in range(self.terms)])
        jumps = _anchored(mu)
        anchors, self.first, self.delta = jumps if mu is z else _anchored(z)
        self.jump_first, self.jump_delta = jumps[1:]
        self.jumps = _Table(0.0, jumps[0], *_window_edges(jumps[0], 0.0, 1.0, _TAIL / 4.0))
        node_anchor = np.rint(z)
        self.scale = np.where(node_anchor > 0.0, z / np.maximum(node_anchor, 1.0), z) ** a
        eps = _TAIL / (4.0 * self.lift)  # the node tails are lifted by up to lift
        lo, hi = _window_edges(anchors, a, a + 1.0, eps, 0.5)
        reach = int(self.jumps.c1.max()) + self.terms - 2  # q's last index, at most
        top = (anchors[-1] // _SPAN + 1) * _SPAN
        while more is not None and lo.max() <= reach:
            past = more(top, top + _SPAN)
            lo_past, hi_past = _window_edges(past, a, a + 1.0, eps, 0.5)
            anchors = np.append(anchors, past)
            lo, hi = np.append(lo, lo_past), np.append(hi, hi_past)
            top += _SPAN
        self.nodes = _Table(a, anchors, lo, hi)
        k = np.arange(float(self.nodes.c1.max()) + self.terms)
        self.w = (k + 1.0) / (a + k + 1.0)  # the weights of L, (k+1)/(a+k+1)
        arrays = {id(v): v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray)}
        self.arrays = sum(arrays.values())  # shared arrays once

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

    def _jump_sums(self, c: np.ndarray) -> tuple[np.ndarray, int, int, np.ndarray]:
        """The first jump of each anchor of the jumps c, their blocks, the
        index m0 where their q starts and Q, the prefix sums of q[m] =
        sum_j c_j Poisson(m; mu_j) to N + 1 Taylor terms: the moments S_{A,n}
        = sum_j c_j delta_j^n fold into R_{A,j} = sum_n S_{A,n} (-1)^(n-j) /
        (j! (n-j)!), as (-grad)^n / n! = sum_j shift^j (-1)^(n-j) / (j!
        (n-j)!), and q[m] = sum_j r_j[m - j], r_j = sum_A R_{A,j} Poisson(A),
        row j of a buffer read with rows one entry shorter landing j right."""
        big_n, jumps = self.terms - 1, self.jumps
        seg = self.jump_first[:np.searchsorted(self.jump_first, c.size)]
        b_end = jumps.block_of(seg.size - 1) + 1
        moments = np.empty((self.terms, seg.size))
        x, dx = c.copy(), self.jump_delta[:c.size]
        np.add.reduceat(x, seg, out=moments[0])
        for n in range(1, self.terms):
            x *= dx
            np.add.reduceat(x, seg, out=moments[n])
        folded = self.fold @ moments
        m0 = int(jumps.c0[:b_end].min())
        span = int(jumps.c1[:b_end].max()) - m0 + big_n  # the length of q
        skew = np.zeros(self.terms * (span + 1))
        r = skew.reshape(self.terms, span + 1)
        for b, block in self._blocks(jumps, 0, b_end, folded.nbytes + skew.nbytes):
            i0, i1 = jumps.rows[b], min(jumps.rows[b + 1], seg.size)
            r[:, jumps.c0[b] - m0:jumps.c1[b] - m0] += folded[:, i0:i1] @ block[:i1 - i0]
        q = skew[:self.terms * span].reshape(self.terms, span).sum(axis=0)
        return seg, b_end, m0, np.cumsum(q)

    def _node_terms(self, deriv: np.ndarray, k0: int, cum: np.ndarray, b_lo: int,
                    b_hi: int) -> list[int]:
        """Taylor terms per node block b_lo..b_hi-1, deriv[n] holding L^n Q
        from column k0: the fewest M whose remainder, bounded through the
        computed |L^M Q| on the block's columns, is at most half the booked
        one (:meth:`eval_err`), else N + 1."""
        nodes, m = self.nodes, np.arange(1, self.terms)
        q_max = float(np.abs(cum).max())
        slack = 2.0 ** m * q_max * (_gamma(cum.size + 3 * self.terms) + _TAIL)
        limit = q_max * 2.0 ** m * self.factorials[1:] / (2.0 * math.factorial(self.terms))
        height = np.abs(deriv[1:])
        fits = np.array([height[:, nodes.c0[b] - k0:nodes.c1[b] - k0].max(axis=1)
                         for b in range(b_lo, b_hi)]) + slack <= limit
        return np.where(fits.any(axis=1), fits.argmax(axis=1) + 1, self.terms).tolist()

    def apply(self, c: np.ndarray, n_out: int) -> tuple[np.ndarray, float]:
        """Mixture of the jumps c, sizes at the first c.size means, on the
        first n_out nodes, and its certified error (:meth:`eval_err`).

        A node whose window starts past q (anchor n_t on) sees the total, one
        whose block ends below q nothing.  Between them: (L^n Q)_k,
        (L Q)_k = (k+1)/(a+k+1) Q_{k+1} - Q_k, with Q held at the total past
        q; A^a h^(n)(A) = sum_k psi_k(A) (L^n Q)_k over the block; at each
        node (z/A)^a sum_n A^a h^(n)(A) delta^n / n! by Horner's rule.
        """
        big_n, nodes = self.terms - 1, self.nodes
        seg, b_end, m0, cum = self._jump_sums(c)
        n_t = int(np.searchsorted(nodes.lo_max, m0 + cum.size - 1, side="right"))
        b_lo = int(np.searchsorted(nodes.c1_max, m0, side="right"))
        base = nodes.rows[b_lo]
        i_lo, i_hi = np.minimum(self.first[[base, min(n_t, self.first.size - 1)]], n_out)
        vals = np.full(n_out, cum[-1])
        vals[:i_lo] = 0.0
        err = self.eval_err(c, seg, b_end, cum.size, b_lo, n_t)
        if i_hi > i_lo:
            a_hi = int(np.searchsorted(self.first, i_hi - 1, side="right"))  # past node i_hi - 1
            b_hi = nodes.block_of(a_hi - 1) + 1
            k0, k1 = int(nodes.c0[b_lo:b_hi].min()), int(nodes.c1[b_lo:b_hi].max())
            size = k1 - k0 + big_n
            deriv = np.empty((self.terms, size))
            # Q on columns k0 .. k1 + N - 1: 0 before q, the total past it
            s, e = np.clip([m0 - k0, m0 - k0 + cum.size], 0, size)
            deriv[0, :s] = 0.0
            deriv[0, s:e] = cum[k0 - m0 + s:k0 - m0 + e]
            deriv[0, e:] = cum[-1]
            w = self.w[k0:]
            for n in range(1, self.terms):
                m = size - n
                np.multiply(w[:m], deriv[n - 1, 1:m + 1], out=deriv[n, :m])
                deriv[n, :m] -= deriv[n - 1, :m]
            need = self._node_terms(deriv, k0, cum, b_lo, b_hi)
            coef = np.zeros((max(need), nodes.rows[b_hi] - base))
            for b, block in self._blocks(nodes, b_lo, b_hi, deriv.nbytes + coef.nbytes):
                i0, t = nodes.rows[b] - base, need[b - b_lo]
                coef[:t, i0:i0 + block.shape[0]] = (
                    deriv[:t, nodes.c0[b] - k0:nodes.c1[b] - k0] @ block.T)
            coef /= self.factorials[:coef.shape[0], None]
            # Horner's rule from 0, each anchor's coefficient repeated over its
            # nodes; term n runs from the first to the last block taking it, a
            # block's rows past its own terms being 0
            rows = (nodes.rows[b_lo:b_hi + 1] - base).tolist()
            ends = (np.minimum(self.first[nodes.rows[b_lo:b_hi + 1]], i_hi) - i_lo).tolist()
            runs = np.diff(np.minimum(self.first[base:nodes.rows[b_hi] + 1], i_hi))
            out, delta = vals[i_lo:i_hi], self.delta[i_lo:i_hi]
            out[:] = 0.0
            for n in range(coef.shape[0] - 1, -1, -1):
                taking = [i for i, t in enumerate(need) if t > n]
                b0, b1 = taking[0], taking[-1] + 1
                s, e, a0, a1 = ends[b0], ends[b1], rows[b0], rows[b1]
                out[s:e] *= delta[s:e]
                out[s:e] += np.repeat(coef[n, a0:a1], runs[a0:a1])
            out *= self.scale[i_lo:i_hi]
        return np.clip(vals, 0.0, max(c.sum(), 0.0), out=vals), err

    def eval_err(self, c: np.ndarray, seg: np.ndarray, b_end: int, n_q: int, b_lo: int,
                 n_t: int) -> float:
        """Certified error of :meth:`apply` for jumps c, whose anchors' first
        jumps are seg, ||c||_1 times the sum of

        * the Taylor remainders, with |delta| <= 1/2 and N + 1 terms.  Jumps:
          ||q - q_N||_1 <= sup ||d^(N+1)/dmu^(N+1) Poisson||_1 / (N+1)!
          <= 2^(N+1) (1/2)^(N+1) / (N+1)!, since ||grad^n||_1 <= 2^n.  Nodes:
          x^a |h^(N+1)(s)| <= 2^(N+1) ||Q||_inf max(1, 2^a) for s between
          the anchor and x, since ||L||_inf <= 2 and x^a sum_k phi_k(s) <=
          max(1, 2^a).  Together (1 + max(1, 2^a)) / (N+1)!.  A node block
          takes fewer terms, M, where x^a |h^(M)(s)| <= max(1, 2^a) (the
          computed max |L^M Q| over the block's columns plus its roundoff,
          gamma_(n_q + 3N) 2^M ||Q||_inf) plus 2^M ||Q||_inf _TAIL for the
          columns outside keeps its remainder within half its part of this.
        * the window tails.  Each of the four is verified below _TAIL/4 per
          unit mass (over max(1, 2^a) for the nodes) and lifted by
          sum_n (2 |delta|)^n / n! <= e (and (x/A)^a <= max(1, 2^a)), so
          each books at most e _TAIL / 4 < _TAIL: e _TAIL together (blocks
          only add terms past the windows; a node set to the total or to 0
          drops one node tail alone).
        * roundoff, gamma_K times the same computation on absolute values,
          which the same lifts bound by e ||c||_1 on the jump side (the fold
          has |(-1)^(n-j) / (j! (n-j)!)| summing to 2^n / n! over j, as
          |grad|^n does) and by e max(1, 2^a) ||c||_1 on the node side.  K
          counts the roundings on the longest path, _WEIGHT_ULPS + 2w + 2
          for an entry of a block w columns wide (:class:`_Table`), fewer
          Taylor terms only taking roundings away.  Jumps: N for c delta^n,
          the anchor's jump sum, N + 2 for the fold (its rounded entry, the
          product and a sum of N + 1 terms), the table, one per anchor and
          per block for the sum over anchors, N for the sum of the N + 1
          shifted rows.  Nodes: the prefix sum, 3N for L^n, the table, the
          sum over a block row, one for 1/n!, 2N for Horner's rule, 4 for
          the factor (x/A)^a (a quotient and a power within one ulp) and its
          product.
        * argument rounding: x carries a relative error gamma_3, and
          |dF/dx| x <= ||c||_1 (sqrt(x) + 1) on each side (Stirling's bound
          on the densities), x below the last anchor before n_t.

        ||Q||_inf <= ||q||_1 is ||c||_1 to first order; the factor 1.01
        covers the second-order terms.  Every term depends on c alone.
        """
        big_n, table, nodes = self.terms - 1, _WEIGHT_ULPS + 2, self.nodes
        w_jump = int(self.jumps.width[:b_end].max())
        w_node = int(nodes.width[b_lo:nodes.block_of(n_t - 1) + 1].max(initial=0))
        k_jump = (3 * big_n + 2 + int(np.diff(seg, append=c.size).max()) + table
                  + 2 * w_jump + seg.size + b_end)
        k_node = n_q + 5 * big_n + table + 3 * w_node + 5
        x_max = float(nodes.anchors[max(n_t, 1) - 1]) + 0.5
        per_mass = ((1.0 + self.lift) / math.factorial(self.terms)
                    + math.e * _TAIL
                    + math.e * (_gamma(k_jump) + self.lift * _gamma(k_node))
                    + 3.0 * _gamma(3) * (math.sqrt(x_max) + 1.0))
        return 1.01 * float(np.abs(c).sum()) * per_mass


def _arguments(t: float, h: float, i0: int, top: float) -> np.ndarray:
    """x_i = (ih)^2/(4t) of the lattice nodes i*h from i0 on with rint(x_i) < top."""
    i = np.arange(i0, math.ceil(math.sqrt(4.0 * t * (top + 1.0)) / h) + 2)
    x = (i * h) ** 2 / (4.0 * t)
    return x[:np.count_nonzero(np.rint(x) < top)]


def _lattice_anchored(dim: int, t: float, c: np.ndarray, h: float, n_out: int
                      ) -> tuple[np.ndarray, float]:
    """Mixture of lattice jumps c on the nodes i*h, i < n_out, and its error,
    for every d but 1, on tables cached per (dim, t, h).  The lattice runs to
    the end of the anchor block of its last node, so a longer one has the
    same blocks, and its node windows run on past its end until they start
    past every q: neither a node's bits nor the error depend on n_out or on
    the lattice cached.  A lattice shorter than n_out is rebuilt with an
    eighth more nodes, the solver's own growth rule."""
    key = ("series", dim, t, h)
    lattice = _IMAGE_CACHE.pop(key, None)
    if lattice is None or lattice.n < n_out:
        n = n_out if lattice is None else n_out + n_out // 8
        last = (np.array([n - 1.0]) * h) ** 2 / (4.0 * t)
        x = _arguments(t, h, 0, (np.rint(last[0]) // _SPAN + 1) * _SPAN)

        def more(lo: float, hi: float) -> np.ndarray:  # the anchors in [lo, hi) past x
            anchors = np.unique(np.rint(_arguments(t, h, x.size, hi)))
            return anchors[anchors >= lo]

        lattice = _AnchoredLattice(dim, x, x, more)
    return _cached(key, lambda: lattice).apply(c, n_out)


class _ImageEngine:
    """Band-limited image kernel for lattice mixtures in d = 1.

    For jumps c_j at j*h and nodes i*h the image formula gives
    sum_j c_j w(jh, ih, t) = 0.5 sum_j c_j [K(i-j) + K(i+j)] with
    K(m) = erf(mh / 2 sqrt t).  Split K = sgn - k with
    k(m) = sgn(m) erfc(|m| h / 2 sqrt t): the sgn part and the constant
    limit of the reflection are prefix sums of c, and k, cut to |m| <= band,
    is one linear convolution u = c * k over m in [-band, n_act + band).
    Its negative half gives the reflection remainder, since
    sum_j c_j erfc((i+j) h / 2 sqrt t) = -u[-i] (+ c_0 at i = 0).  One apply
    costs one forward FFT and one inverse, of length about n_act + 2 band.
    """

    def __init__(self, t: float, h: float, band: int, n_fft: int):
        self.band, self.n_fft = band, n_fft
        m = np.arange(-band, band + 1)
        kern = np.zeros(n_fft)
        kern[m % n_fft] = 0.5 * np.sign(m) * erfc(np.abs(m) * (h / (2.0 * math.sqrt(t))))
        self.k_hat = fft.rfft(kern)
        self.nbytes = self.k_hat.nbytes

    def apply(self, c: np.ndarray, n_out: int) -> np.ndarray:
        """Node values from the jump sizes c."""
        n_act, band, n_fft = c.size, self.band, self.n_fft
        spec = fft.rfft(c, n_fft)
        spec *= self.k_hat
        u = fft.irfft(spec, n_fft)  # u[p mod n_fft] for p in [-band, n_act + band)
        half = np.full(n_out, 0.5 * c.sum())  # half the prefix sums: 0.5 scales exactly
        np.multiply(np.cumsum(c)[:n_out], 0.5, out=half[:min(n_act, n_out)])
        vals = half.copy()
        vals[1:] += half[:-1]
        k = min(n_out, n_act + band)
        vals[:k] -= u[:k]
        k = min(n_out - 1, band)
        vals[1:k + 1] += u[::-1][:k]
        vals[0] = 0.0  # w(a, 0, t) = 0
        return vals


_BAND_STEP = 256  # bands and FFT lengths are bucketed so engines get reused


def _lattice_images(t: float, c: np.ndarray, h: float, n_out: int
                    ) -> tuple[np.ndarray, float]:
    """Mixture of lattice jumps c on the nodes i*h, i < n_out, in d = 1, and
    its error: the erfc terms beyond the band and the FFT roundoff margin."""
    mass = float(np.abs(c).sum())
    budget = _TAIL * mass
    # start near the edge (each tail term is about its weight times e^-x^2);
    # the scan only moves outwards, so the edge it stops at always passes
    x = max(1.0, math.sqrt(math.log((mass + abs(float(c[0]))) / budget)) - 1.0)
    while math.erfc(x) * mass > budget:
        x += 0.02
    scale = h / (2.0 * math.sqrt(t))
    band = -(-int(math.ceil(x / scale)) // _BAND_STEP) * _BAND_STEP
    # neither the band nor the booked tail depends on n_out, so the values
    # at a node do not depend on how many nodes are asked for
    tail = math.erfc((band + 1) * scale) * mass
    need = -(-(c.size + 2 * band) // _BAND_STEP) * _BAND_STEP
    key = ("image", t, h, band, fft.next_fast_len(need, real=True))
    engine = _cached(key, lambda: _ImageEngine(t, h, band, key[-1]))
    vals = engine.apply(c, n_out)
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
    them.  Any other shape raises ``ValueError``.  d = 1 takes the
    band-limited image route and every other d the anchored Taylor route on
    tables cached per lattice.  Every dropped tail is at most 2^-56 per unit
    mass.  Returns (k, n) values and k certified absolute evaluation errors.
    Each row is evaluated on its own: it gets the bits that a call with that
    row alone returns, and neither a node's value nor the error depends on
    how many nodes follow it or on what the kernel cache held before.
    """
    _integer("dim", dim, 1, _MAX_DIM)
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
    for k, c in enumerate(cs):
        if c.size:
            vals[k], errs[k] = (_lattice_images(float(t), c, h, n) if dim == 1
                                else _lattice_anchored(dim, float(t), c, h, n))
    return vals, errs
