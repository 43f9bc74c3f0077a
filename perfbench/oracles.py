"""High-precision reference values for the benchmark's correctness checks.

Every reference is computed with mpmath at ``DPS`` significant digits and
shares no code with fadecap. The laws are described here from their
definitions, not read from the library:

* ``gamma:N=2`` uses the closed forms of Alouini & Goldsmith (IEEE TVT
  48(4), 1999) and Goldsmith & Varaiya (IEEE TIT 43(6), 1997):
  z_t = W(1/S), C_OA = E1(z_t) + e^{-z_t},
  C_RA = 1 + (1 - 1/S) e^{1/S} E1(1/S), C_CI = log(1 + S),
  C_TCI = (1 + z_t) e^{-z_t} log(1 + S e^{z_t}).
* Laws whose density is a finite sum a z^n e^{-b z} (the gamma, MISO and
  max-exponential laws) get F and T(t) = int_t^inf p(z)/z dz from upper
  incomplete gamma functions; the capacity integrals use mpmath quad.
* Tabulated (piecewise-linear) laws get every functional from exact
  per-segment antiderivatives.

All values are in nats. The OA cutoff solves (1 - F(t))/t - T(t) = S.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 30


class MixtureLaw:
    """Density sum_k a_k z^n_k e^{-b_k z}."""

    def __init__(self, name, terms, knots=()):
        self.name = name
        self.terms = [(mp.mpf(a), int(n), mp.mpf(b)) for a, n, b in terms]
        self.knots = [mp.mpf(k) for k in knots]
        self.top = mp.inf
        self._moments = {}

    def pdf(self, z):
        # Near z = 0 the terms cancel to a small density; the absolute error
        # stays at the working precision, which is all the integrals need.
        return mp.fsum(a * z ** n * mp.exp(-b * z) for a, n, b in self.terms)

    def _cached(self, key, compute):
        if key not in self._moments:
            self._moments[key] = compute()
        return self._moments[key]

    def tail_mass(self, t):
        """1 - F(t)."""
        return mp.fsum(a * mp.gammainc(n + 1, b * t) / b ** (n + 1) for a, n, b in self.terms)

    def cdf(self, t):
        return 1 - self.tail_mass(t)

    def tail_inverse(self, t):
        """T(t) = int_t^inf p(z)/z dz, t > 0."""
        return mp.fsum(a * mp.gammainc(n, b * t) / b ** n for a, n, b in self.terms)

    def mean(self):
        return mp.fsum(a * mp.factorial(n + 1) / b ** (n + 2) for a, n, b in self.terms)

    def inverse_mean(self):
        return self._cached("inv", lambda: self.integrate(lambda z: self.pdf(z) / z, 0, mp.inf))

    def log_mean(self):
        return self._cached(
            "log", lambda: self.integrate(lambda z: mp.log(z) * self.pdf(z), 0, mp.inf)
        )

    def integrate(self, f, lo, hi, extra=()):
        points = sorted({mp.mpf(lo), *(k for k in list(self.knots) + [mp.mpf(e) for e in extra]
                                     if lo < k < hi)})
        return mp.quad(f, points + [hi])

    def log1p_integral(self, s, lo, hi):
        """int_lo^hi log(1 + s z) p(z) dz."""
        return self.integrate(lambda z: mp.log1p(s * z) * self.pdf(z), lo, hi, extra=(1 / s,))

    def log_ratio_integral(self, t):
        """int_t^inf log(z/t) p(z) dz."""
        return self.integrate(lambda z: mp.log(z / t) * self.pdf(z), t, mp.inf)


class TabulatedLaw:
    """Piecewise-linear density through (z_i, p_i), renormalized to unit mass."""

    def __init__(self, name, grid):
        self.name = name
        z = [mp.mpf(float(a)) for a, _ in grid]
        p = [mp.mpf(float(b)) for _, b in grid]
        mass = mp.fsum((p[i] + p[i + 1]) * (z[i + 1] - z[i]) / 2 for i in range(len(z) - 1))
        p = [v / mass for v in p]
        # p(z) = c0 + c1 z on segment i
        self.seg = []
        for i in range(len(z) - 1):
            c1 = (p[i + 1] - p[i]) / (z[i + 1] - z[i])
            self.seg.append((z[i], z[i + 1], p[i] - c1 * z[i], c1))
        self.top = z[-1]

    def _clipped(self, lo, hi):
        for a, b, c0, c1 in self.seg:
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                yield a2, b2, c0, c1

    def cdf(self, t):
        return mp.fsum(c0 * (b - a) + c1 * (b * b - a * a) / 2
                       for a, b, c0, c1 in self._clipped(0, t))

    def tail_mass(self, t):
        return 1 - self.cdf(t)

    def tail_inverse(self, t):
        total = []
        for a, b, c0, c1 in self._clipped(t, self.top):
            if a == 0:
                if c0 != 0:
                    return mp.inf
                total.append(c1 * b)
            else:
                total.append(c0 * mp.log(b / a) + c1 * (b - a))
        return mp.fsum(total)

    def mean(self):
        return mp.fsum(c0 * (b * b - a * a) / 2 + c1 * (b ** 3 - a ** 3) / 3
                       for a, b, c0, c1 in self.seg)

    def inverse_mean(self):
        return self.tail_inverse(0)

    def log_mean(self):
        def anti(z, c0, c1):
            if z == 0:
                return mp.mpf(0)
            lz = mp.log(z)
            return c0 * (z * lz - z) + c1 * (z * z * lz / 2 - z * z / 4)

        return mp.fsum(anti(b, c0, c1) - anti(a, c0, c1) for a, b, c0, c1 in self.seg)

    def log1p_integral(self, s, lo, hi):
        """int_lo^hi log(1 + s z) (c0 + c1 z) dz from exact antiderivatives."""

        def anti(z, c0, c1):
            u = 1 + s * z
            lu = mp.log(u)
            g0 = u * lu / s - z
            g1 = (z * z / 2 - 1 / (2 * s * s)) * lu - z * z / 4 + z / (2 * s)
            return c0 * g0 + c1 * g1

        return mp.fsum(anti(b, c0, c1) - anti(a, c0, c1)
                       for a, b, c0, c1 in self._clipped(lo, hi))

    def log_ratio_integral(self, t):
        """int_t^top log(z/t) (c0 + c1 z) dz."""

        def anti(z, c0, c1):
            lz = mp.log(z / t)
            return c0 * (z * lz - z) + c1 * (z * z * lz / 2 - z * z / 4)

        return mp.fsum(anti(b, c0, c1) - anti(a, c0, c1)
                       for a, b, c0, c1 in self._clipped(t, self.top))


def gamma2_law():
    return MixtureLaw("gamma2", [(1, 1, 1)], knots=(1, 2, 6))


def miso_law(N, K):
    """Best of K users with N-antenna gains: K P(N,z)^(K-1) z^(N-1) e^-z / (N-1)!."""
    # P(N, z) = 1 - e^{-z} sum_{j<N} z^j/j!; expand the power into terms
    poly = {(0, 0): mp.mpf(1)}  # (power of z, multiple of e^{-z}) -> coeff of P^(K-1)
    base = {(0, 0): mp.mpf(1)}
    for j in range(N):
        base[(j, 1)] = -1 / mp.factorial(j)
    for _ in range(K - 1):
        nxt = {}
        for (n1, m1), c1 in poly.items():
            for (n2, m2), c2 in base.items():
                key = (n1 + n2, m1 + m2)
                nxt[key] = nxt.get(key, 0) + c1 * c2
        poly = nxt
    scale = K / mp.factorial(N - 1)
    terms = [(scale * c, n + N - 1, m + 1) for (n, m), c in poly.items() if c != 0]
    center = N + math.log(K) + 1.0
    return MixtureLaw(f"miso{N}{K}", terms, knots=(N / 2, center, 2 * center + 2))


def maxexp_law(K):
    """Best of K unit exponentials: K e^-z (1 - e^-z)^(K-1)."""
    terms = [(K * mp.binomial(K - 1, j) * (-1) ** j, 0, j + 1) for j in range(K)]
    h = float(mp.harmonic(K))
    return MixtureLaw(f"maxexp{K}", terms, knots=(h / 2, h, h + 4))


# ---------------------------------------------------------------------------
# Scheme references
# ---------------------------------------------------------------------------


def oa_threshold(law, S):
    """Water-filling cutoff: the root of (1 - F(t))/t - T(t) = S in (0, min(1/S, top))."""
    S = mp.mpf(S)

    def g(t):
        return law.tail_mass(t) / t - law.tail_inverse(t) - S

    hi = min(1 / S, law.top)
    lo = hi / 2
    while g(lo) <= 0:
        hi, lo = lo, lo / 8
    return mp.findroot(g, (lo, hi), solver="anderson")


def capacity(law, scheme, S, z_t=None):
    """Reference capacity of one scheme in nats, as an mpf."""
    S = mp.mpf(S)
    if scheme == "awgn":
        return mp.log1p(S * law.mean())
    if scheme == "oa":
        return law.log_ratio_integral(oa_threshold(law, S))
    if scheme == "ra":
        return law.log1p_integral(S, 0, law.top)
    if scheme == "ci":
        return mp.log1p(S / law.inverse_mean())
    t = mp.mpf(z_t)
    if scheme == "tci":
        return law.tail_mass(t) * mp.log1p(S / law.tail_inverse(t))
    if scheme == "ctci":
        d = 1 / (law.cdf(t) + t * law.tail_inverse(t))
        return law.log1p_integral(S * d, 0, t) + law.tail_mass(t) * mp.log1p(S * d * t)
    raise ValueError(f"unknown scheme {scheme!r}")


def gamma2_capacity(scheme, S, z_t=None):
    """Closed forms for gamma:N=2; CTCI has none and uses the mixture path."""
    S = mp.mpf(S)
    if scheme == "awgn":
        return mp.log1p(2 * S)
    if scheme == "oa":
        zt = mp.lambertw(1 / S).real
        return mp.e1(zt) + mp.exp(-zt)
    if scheme == "ra":
        return 1 + (1 - 1 / S) * mp.exp(1 / S) * mp.e1(1 / S)
    if scheme == "ci":
        return mp.log1p(S)
    if scheme == "tci":
        t = mp.mpf(z_t)
        return (1 + t) * mp.exp(-t) * mp.log1p(S * mp.exp(t))
    return capacity(gamma2_law(), scheme, S, z_t)


def gaps(law):
    """(gap_awgn_oa, gap_oa_ci, gap_awgn_ci) from the law's exact moments."""
    mean, inv, logm = law.mean(), law.inverse_mean(), law.log_mean()
    return (mp.log(mean) - logm, logm + mp.log(inv), mp.log(mean * inv))


def tci_best(law, S, lo, hi, grid=160):
    """Largest TCI capacity over thresholds in [lo, hi].

    Stationary points solve (1 - F) S / (t T (T + S)) = log(1 + S/T), the
    zero of the derivative divided by p(t); each sign change on a log grid
    is refined and the best local maximum is returned as (t*, C*).
    """
    S = mp.mpf(S)

    def cap(t):
        return law.tail_mass(t) * mp.log1p(S / law.tail_inverse(t))

    def h(t):
        T = law.tail_inverse(t)
        return law.tail_mass(t) * S / (t * T * (T + S)) - mp.log1p(S / T)

    with mp.workdps(15):
        ts = [mp.mpf(lo) * (mp.mpf(hi) / lo) ** (mp.mpf(i) / (grid - 1)) for i in range(grid)]
        hs = [h(t) for t in ts]
    best_t = max(ts, key=cap)
    best = cap(best_t)
    for i in range(grid - 1):
        if hs[i] > 0 >= hs[i + 1]:
            t = mp.findroot(h, (ts[i], ts[i + 1]), solver="anderson")
            c = cap(t)
            if c > best:
                best_t, best = t, c
    return best_t, best
