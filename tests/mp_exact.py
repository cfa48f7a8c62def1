"""Exact noncentral chi-squared mixtures in mpmath, shared by the kernel tests."""

import mpmath as mp


def exact_series(dim, sizes, h, nodes, t):
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
