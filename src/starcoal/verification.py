"""Cross-route consistency battery behind the ``verify`` subcommand.

Every check here compares two routes to the same quantity that share as
little code as possible: closed forms against adaptive quadrature, exact
rational spectral sums against direct evaluation, Monte Carlo ensembles
against analytic moments.  Checks are grouped into named suites so the
command line can run one at a time.  A suite returns its checks as data,
each a (name, gaps, bound) or (name, gaps, bound, "ge") tuple whose gaps
list the (residual, where) pair of every point it compared;
``run_suites`` executes a selection and turns every such tuple into a
``CheckResult`` through one function, and ``format_report`` renders them
as stable text with the bound printed next to each residual.  The report
contains no timings or other run-dependent noise, so two runs with the
same seed produce byte-identical output.

Monte Carlo suites draw from fixed per-suite substreams of the given
seed.  Their bounds are z-score limits (3 or 4 standard errors), wide
enough that a passing seed is overwhelmingly likely, and any particular
seed either passes forever or fails forever.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import InvalidParameterError, QuadratureError, RngStream, StarcoalError, TwoTypeParams, mean_se, mean_se_of_sums, quad_offset, shifted_sums
from .eigen import (
    PolyRep,
    eigen_poly,
    eigenvalue,
    expansion_expectation,
    generator_apply,
    hyper_pairing,
    pv_expectation_g_q1,
    pv_expectation_g_q1_numeric,
)
from .lines import (
    absorption_time_ensemble,
    an_distribution,
    an_distribution_spectral,
    duality_check,
    mean_absorption_time,
)
from .multitype import (
    MultiParams,
    MutationMatrix,
    infinite_sampling_prob,
    markov_line_kernel,
    pim_line_kernel,
    pim_transition_law,
)
from .selection import (
    DriftSpec,
    RootPair,
    asg_stationary,
    asg_stationary_gf,
    custom_drift,
    fixation_prob,
    flow,
    mutation_selection_drift,
    neutral_drift,
    replacement_stationary,
    roots,
    selection_duality_check,
    skeleton_matrix,
    ua_time_ensemble,
)
from .selection import stationary_density as selection_stationary_density
from .selection import stationary_law as selection_stationary_law
from .twotype import (
    _component_branch,
    _transition_blocks,
    line_kernel,
    replacement_component_density,
    stationary_density_eval,
    stationary_sample,
    transition_density_eval,
    transition_law,
    transition_moment,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suites", "format_report"]


@dataclass(frozen=True)
class CheckResult:
    """One verified comparison: an observed residual against its bound.

    direction "le" means the check passes when observed <= bound (the
    usual residual case); "ge" is for quantities that must stay large,
    such as Kolmogorov-Smirnov p-values.  where is the parameter point of
    the worst residual; the report does not print it.
    """

    suite: str
    name: str
    observed: float
    bound: float
    direction: str = "le"
    where: tuple | None = None

    def __post_init__(self):
        if self.direction not in ("le", "ge"):
            raise InvalidParameterError(f"direction must be 'le' or 'ge', got {self.direction!r}")

    @property
    def passed(self) -> bool:
        if self.direction == "le":
            return self.observed <= self.bound
        return self.observed >= self.bound


# Disjoint substream indices per suite, so adding draws to one suite never
# shifts the randomness seen by another.
_STREAM = {
    "uniform-stationary": 200,
    "transition-moments": 300,
    "expansion": 500,
    "absorption-time": 800,
    "moment-duality": 900,
    "asg": 1300,
}

_THETA_GRID = (0.5, 1.0, 2.0, 5.0)
_P_GRID = (0.1, 0.5, 0.9)
_SERIES_RATIO_LIMIT = 0.9


def _check_result(suite: str, name: str, gaps, bound: float, direction: str = "le") -> CheckResult:
    """The check from its (residual, where) pairs: the largest residual for
    "le", the smallest for "ge", the first such pair on ties."""
    observed, where = (max if direction == "le" else min)(gaps, key=lambda g: g[0])
    return CheckResult(suite, name, observed, bound, direction, where)


def _pelz_good_sf(d: float, n: int) -> float:
    """1 - P(D_n < d) by the Pelz-Good (1976) expansion in powers of n^-1/2.

    With x = sqrt(n) d, P(sqrt(n) D_n <= x) = K0 + K1/n^1/2 + K2/n + K3/n^3/2,
    each K a theta series in pi^2 (k + 1/2)^2 and pi^2 k^2 (Pelz and Good
    1976, JRSS B 38, 152-156; Simard and L'Ecuyer 2011, J. Stat. Softw.
    39(11), eq. 9).  The sums run over |k| <= 8, where at x^2 < 2.2 the
    next term is below e^-126 of the first.
    """
    x2 = n * d * d
    x = math.sqrt(x2)
    h2 = (math.pi * np.arange(0.5, 8.0)) ** 2
    k2 = (math.pi * np.arange(1.0, 9.0)) ** 2
    eh, ek = 2.0 * np.exp(-0.5 * h2 / x2), 2.0 * np.exp(-0.5 * k2 / x2)
    s0, s1, s2, s3 = (float(np.dot(h2**j, eh)) for j in range(4))
    t1, t2 = float(np.dot(k2, ek)), float(np.dot(k2 * k2, ek))
    x4, x6, x8 = x2 * x2, x2 * x2 * x2, x2 * x2 * x2 * x2
    k0 = s0 / x
    k1 = (s1 - x2 * s0) / (6.0 * x4)
    k2_ = ((6.0 * x6 + 2.0 * x4) * s0 + (2.0 * x4 - 5.0 * x2) * s1 + (1.0 - 2.0 * x2) * s2) / (72.0 * x6 * x) - t1 / (36.0 * x2 * x)
    k3 = ((5.0 - 30.0 * x2) * s3 + (212.0 * x4 - 60.0 * x2) * s2 + (135.0 * x4 - 96.0 * x6) * s1 - (30.0 * x6 + 90.0 * x8) * s0) / (
        6480.0 * x8 * x2
    ) + (3.0 * x2 * t1 - t2) / (216.0 * x6)
    rn = math.sqrt(n)
    return 1.0 - math.sqrt(0.5 * math.pi) * (k0 + k1 / rn + k2_ / n + k3 / (n * rn))


# Loader's (2000) Stirling remainder log m! - log(sqrt(2 pi m) (m / e)^m),
# tabulated below 16 and by its asymptotic series from there.
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2.0 * math.pi) for m in range(1, 16)]
)


def _stirlerr(m: np.ndarray) -> np.ndarray:
    big = np.maximum(m, 16.0)
    w = 1.0 / (big * big)
    series = (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w * (1.0 / 1680.0 - w / 1188.0)))) / big
    return np.where(m < 16.0, _STIRLERR_SMALL[np.minimum(m, 15.0).astype(int)], series)


def _bd0(x: np.ndarray, delta: float) -> np.ndarray:
    """Loader's deviance x log(x / M) + M - x at M = x - delta, with the
    series in v = delta / (x + M) where |v| < 0.1 and cancellation looms."""
    v = delta / (2.0 * x - delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = x * np.log(x / (x - delta)) - delta
    v2 = v * v
    tail = 0.0
    for j in range(9, 0, -1):
        tail = v2 * (1.0 / (2 * j + 1) + tail)
    return np.where(np.abs(v) < 0.1, delta * v + 2.0 * x * v * tail, direct)


def _smirnov_sf(d: float, n: int) -> float:
    """P(D+_n >= d), one-sided, by the Birnbaum-Tingey (1951) sum.

    The j-th term, C(n, j) (1 - d - j/n)^(n - j) (d + j/n)^(j - 1) d, is
    d / b times the binomial probability of j in n at b = d + j/n, which is
    taken in Loader's (2000) saddle-point form.  Its terms keep their digits
    at n = 1e6, where a route through lgamma loses about 6e-10 relative.
    """
    nd = n * d
    top = math.ceil(n - nd) - 1
    parts = [math.exp(n * math.log1p(-d))]
    lead = float(_stirlerr(np.float64(n)))
    for lo in range(1, top + 1, 1 << 16):
        j = np.arange(lo, min(top, lo + (1 << 16) - 1) + 1, dtype=float)
        rest = n - j
        log_term = (
            np.log(nd / (nd + j))
            + lead
            - _stirlerr(j)
            - _stirlerr(rest)
            - _bd0(j, -nd)
            - _bd0(rest, nd)
            + 0.5 * np.log(n / (2.0 * math.pi * j * rest))
        )
        parts.append(float(np.exp(log_term).sum()))
    return math.fsum(parts)


def _ks_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided Kolmogorov-Smirnov statistic of n draws.

    For n in the thousands and up: the Pelz-Good expansion where n d^2 < 2.2,
    else twice the one-sided law, whose double crossings are below 1e-6 of
    it there.  D_n >= 1/(2n) always, and from n d^2 = 370 on (so for every
    d >= 1) the value is below the smallest normal double.
    """
    if n * d <= 0.5:
        return 1.0
    if n * d * d >= 370.0:
        return 0.0
    sf = _pelz_good_sf(d, n) if n * d * d < 2.2 else 2.0 * _smirnov_sf(d, n)
    return min(1.0, max(0.0, sf))


def _ks_pvalue(draws: np.ndarray, cdf=None) -> float:
    """Two-sided KS p-value of draws against a continuous cdf, the uniform
    one by default.  Sorts draws in place and takes D+ and D- in chunks, so
    no full-size temporary is made."""
    draws.sort()
    n, dplus, dminus = draws.size, 0.0, 0.0
    for i in range(0, n, 1 << 16):
        x = draws[i : i + (1 << 16)]
        if cdf is not None:
            x = cdf(x)
        k = np.arange(i, i + x.size, dtype=float)
        dplus = max(dplus, float(np.max((k + 1.0) / n - x)))
        dminus = max(dminus, float(np.max(x - k / n)))
    return _ks_sf(max(dplus, dminus), n)


def _suite_transition_mass(seed: int) -> list[tuple]:
    """Total transition mass (atom plus both density pieces) equals 1."""
    gaps = []
    for theta in _THETA_GRID:
        for p in _P_GRID:
            par = TwoTypeParams(theta=theta, p=p)
            for t in (0.1, 1.0, 10.0):
                for x in (0.0, 0.3, 1.0):
                    law = transition_law(par, x, t)
                    gaps.append((abs(law.quadrature_mass() - 1.0), (theta, p, t, x)))
    return [("max |quadrature mass - 1| over parameter grid", gaps, 1e-10)]


def _suite_uniform_stationary(seed: int) -> list[tuple]:
    """At theta = 2, p = 1/2 the stationary law is uniform on (0, 1)."""
    par = TwoTypeParams(theta=2.0, p=0.5)
    grid = [0.01 + 0.02 * k for k in range(50)]
    dens = [(abs(stationary_density_eval(par, xi) - 1.0), (2.0, 0.5, xi)) for xi in grid]
    rng = RngStream(seed, _STREAM["uniform-stationary"])
    draws = stationary_sample(par, rng, size=1_000_000)
    n = draws.size
    pval = _ks_pvalue(draws)
    return [
        ("max |density - 1| on 50-point grid", dens, 1e-12),
        ("KS p-value, 1e6 draws vs uniform", [(pval, (2.0, 0.5, n))], 0.01, "ge"),
    ]


def _workers(tasks: int) -> int:
    """Pool size: the CPUs this process may use, at most 8 and at most tasks."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, 8, tasks))


_MOMENT_CELLS = tuple(itertools.product(_THETA_GRID, _P_GRID, (0.1, 1.0, 10.0), (0.0, 0.3, 1.0)))


def _suite_transition_moments(seed: int, pool) -> Callable[[], list[tuple]]:
    """Analytic transition moments against ensemble averages, n <= 4.

    Submits one task per grid cell to pool and returns the function that
    collects them into the check.  Cell k draws, in blocks, exactly what
    the k-th of a run of sample_transition calls of 1e6 draws would: its
    two uniform runs start 2e6 k outputs on, read ahead of the one stream,
    so neither the pool size nor what runs beside the cells changes the
    result.  Sums are taken about each power's mean over the first block.
    """
    rng = RngStream(seed, _STREAM["transition-moments"])
    n_mc = 1_000_000

    def gaps(k: int) -> list[tuple[float, tuple]]:
        theta, p, t, x = _MOMENT_CELLS[k]
        par = TwoTypeParams(theta=theta, p=p)
        shifts, sums = [], np.zeros((4, 2))
        for _, draws in _transition_blocks(par, x, t, rng, n_mc, k):
            draws -= p
            power = draws
            for i in range(4):
                if i:
                    power = power * draws
                if len(shifts) == i:
                    shifts.append(float(power.mean()))
                sums[i] += shifted_sums(power, shifts[i])
        out = []
        for n, (shift, (total, sumsq)) in enumerate(zip(shifts, sums.tolist()), 1):
            mean, se = mean_se_of_sums(n_mc, shift, total, sumsq)
            out.append((abs(mean - transition_moment(par, n, x, t)) / se, (theta, p, t, x, n)))
        return out

    futures = [pool.submit(gaps, k) for k in range(len(_MOMENT_CELLS))]

    def collect() -> list[tuple]:
        return [("max |mc - analytic| in SE units, n <= 4", [g for f in futures for g in f.result()], 4.0)]

    return collect


def _suite_eigen_equation(seed: int) -> list[tuple]:
    """Generator applied to an eigenpolynomial is -eigenvalue times it."""
    gaps = []
    for theta in _THETA_GRID:
        for p in _P_GRID:
            par = TwoTypeParams(theta=theta, p=p)
            for n in range(13):
                g = eigen_poly(par, n)
                h = generator_apply(par, g)
                lam = eigenvalue(par, n)
                res = max(
                    abs(h.coefficient(k) + lam * g.coefficient(k)) for k in range(14)
                )
                gaps.append((res, (theta, p, n)))
    return [("max coefficient residual, n <= 12", gaps, 1e-12)]


def _suite_expansion(seed: int) -> list[tuple]:
    """Spectral expansion of E[g(xi_t)] against the binomial moment route."""
    gen = RngStream(seed, _STREAM["expansion"])
    gaps = []
    for i in range(20):
        coeffs = tuple(float(c) for c in gen.gen.uniform(-1.0, 1.0, size=9))
        g = PolyRep(0.0, coeffs)
        for theta, p in ((0.5, 0.3), (2.0, 0.7)):
            par = TwoTypeParams(theta=theta, p=p)
            centered = g.with_shift(p).coeffs
            for x in (0.0, 0.3, 0.7, 1.0):
                for t in (0.1, 1.0, 5.0):
                    direct = math.fsum(
                        centered[k] * transition_moment(par, k, x, t) for k in range(9)
                    )
                    via = expansion_expectation(par, g, x, t)
                    gaps.append((abs(via - direct), (i, theta, p, x, t)))
    return [("max |spectral - moment route|, 20 random degree-8 g", gaps, 1e-10)]


def _suite_pairing(seed: int) -> list[tuple]:
    """Biorthogonality of the eigenpolynomials under both pairings."""
    pairs, pvs, splits = [], [], []
    for theta in _THETA_GRID:
        for p in _P_GRID:
            par = TwoTypeParams(theta=theta, p=p)
            for m in range(1, 13):
                gm = eigen_poly(par, m)
                for n in range(2, 13):
                    want = 1.0 if n == m else 0.0
                    pairs.append((abs(hyper_pairing(gm, n) - want), (theta, p, m, n)))
                want = 1.0 if m == 1 else 0.0
                exact = pv_expectation_g_q1(par, gm)
                pvs.append((abs(exact - want), (theta, p, m)))
                splits.append((abs(pv_expectation_g_q1_numeric(par, gm) - exact), (theta, p, m)))
    return [
        ("max |<P_m, dual_n> - delta_mn|, m, n <= 12", pairs, 1e-12),
        ("max |principal-value pairing - delta_m1|", pvs, 1e-12),
        ("max |numeric pv route - exact pv route|", splits, 1e-10),
    ]


def _suite_line_spectral(seed: int) -> list[tuple]:
    """Line-count law: direct survival sums against the spectral route.  A
    route that raises fails its point with gap inf instead of the battery."""
    gaps, zeros = [], []
    for theta in (0.5, 2.0, 5.0):
        for n in range(1, 21):
            for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                try:
                    direct = an_distribution(n, theta, t).probs
                    spectral = an_distribution_spectral(n, theta, t).probs
                    gaps.append((max(abs(a - b) for a, b in zip(direct, spectral)), (n, theta, t)))
                except StarcoalError:
                    gaps.append((math.inf, (n, theta, t)))
            for route, law in (("direct", an_distribution), ("spectral", an_distribution_spectral)):
                try:
                    start = law(n, theta, 0.0).probs
                    zeros.append((max(abs(q - (1.0 if j == n else 0.0)) for j, q in enumerate(start)), (n, theta, route)))
                except StarcoalError:
                    zeros.append((math.inf, (n, theta, route)))
    return [
        ("max |direct - spectral|, n <= 20", gaps, 1e-10),
        ("t = 0 mass at the start count, both routes", zeros, 0.0),
    ]


def _suite_absorption_time(seed: int) -> list[tuple]:
    """Mean time to full resolution: closed form and simulation."""
    exact = [(abs(mean_absorption_time(2, 2.0) - 4.0 / 3.0), (2, 2.0))]
    rng = RngStream(seed, _STREAM["absorption-time"])
    size = 100_000
    gaps = []
    for n in (2, 5, 10):
        for theta in (1.0, 2.0, 5.0):
            mean, se = mean_se(absorption_time_ensemble(n, theta, size, rng))
            gaps.append((abs(mean - mean_absorption_time(n, theta)) / se, (n, theta)))
    return [
        ("|mean(2, theta=2) - 4/3|", exact, 0.0),
        ("max |mc - exact| in SE units, 1e5 paths", gaps, 3.0),
    ]


def _suite_moment_duality(seed: int) -> list[tuple]:
    """Forward moments against the backward line-count estimator."""
    rng = RngStream(seed, _STREAM["moment-duality"])
    gaps = []
    for theta, p, x, t in ((1.0, 0.3, 0.6, 1.0), (2.0, 0.5, 0.7, 0.5), (5.0, 0.8, 0.2, 2.0)):
        par = TwoTypeParams(theta=theta, p=p)
        for n in range(1, 5):
            lhs, rhs, se = duality_check(par, n, x, t, 1_000_000, rng)
            gaps.append((abs(lhs - rhs) / se, (theta, p, x, t, n)))
    return [("max |analytic - mc| in SE units, n <= 4, 1e6 paths", gaps, 4.0)]


def _suite_replacement_parts(seed: int) -> list[tuple]:
    """Replacement-count components: pointwise sum and Poisson masses."""
    p, x = 0.3, 0.7
    sums, masses = [], []
    for theta in (0.5, 2.0, 5.0):
        par = TwoTypeParams(theta=theta, p=p)
        for t in (0.5, 2.0):
            eh = math.exp(-0.5 * theta * t)
            top = p * -math.expm1(-0.5 * theta * t)
            edge = p + (1.0 - p) * eh
            points = [top * f for f in (0.2, 0.5, 0.8)]
            points += [edge + (1.0 - edge) * f for f in (0.2, 0.5, 0.8)]
            for xi in points:
                total = math.fsum(
                    replacement_component_density(par, x, t, k, xi) for k in range(1, 51)
                )
                sums.append((abs(total - transition_density_eval(par, x, t, xi)), (theta, t, xi)))
            # Each branch integrated in the offset d from its gap edge, where
            # w = eh + d / scale: edge + d would round back onto the edge.
            upper, lower = (p, x - p, 1.0 - p, 1.0 - edge), (1.0 - p, p - x, p, top)
            for k in range(1, 11):
                log_poisson = k * math.log(t) - t - math.lgamma(k + 1.0)
                mass = 0.0
                for weight, shift, scale, width in (upper, lower):
                    def f_k(d):
                        u = 2.0 / (theta * t) * np.log1p(d / (scale * eh))
                        w, gap = eh + d / scale, scale * eh + d
                        return _component_branch(weight, eh, shift, w, gap, u, k, theta * t, log_poisson)

                    mass += quad_offset(f_k, width)
                masses.append((abs(mass - math.exp(log_poisson)), (theta, t, k)))
    return [
        ("max |sum of 50 components - density|", sums, 1e-8),
        ("max |component mass - Poisson weight|, k <= 10", masses, 1e-8),
    ]


def _suite_multitype(seed: int) -> list[tuple]:
    """Two-type embedding, Markov mutation kernel, sampling identity."""
    # The line kernels are compared at t = 0.7, where = (theta, p); the
    # laws at where = (theta, p, x, t).  Region i is the two-type upper
    # branch at (p_i, x_i), so it is compared through the mirror xi -> 1 - xi
    # with the other type's lower piece, in 1 - xi / p, not (xi - p) / (1 - p).
    embeds = []
    for theta in (0.5, 2.0, 5.0):
        for p in (0.3, 0.5):
            par = TwoTypeParams(theta=theta, p=p)
            mp = MultiParams(theta=theta, p_vec=(p, 1.0 - p))
            kdev = np.max(np.abs(pim_line_kernel(mp, 0.7) - line_kernel(par, 0.7)))
            embeds.append((float(kdev), (theta, p)))
            for x in (0.2, 0.7):
                for t in (0.5, 2.0):
                    law = transition_law(par, x, t)
                    slaw = pim_transition_law(mp, (x, 1.0 - x), t)
                    (atom_pos, atom_mass), = law.atoms
                    gaps = [
                        abs(slaw.atom_mass - atom_mass),
                        abs(slaw.atom_point[0] - atom_pos),
                        abs(slaw.atom_point[1] - (1.0 - atom_pos)),
                    ]
                    others = ((TwoTypeParams(theta=theta, p=1.0 - p), 1.0 - x), (par, x))
                    for r, (other, x_other) in zip(slaw.regions, others):
                        lower = next(pc for pc in transition_law(other, x_other, t).pieces if pc.lower == 0.0)
                        gaps += [abs((1.0 - r.lower) - lower.upper), abs(r.mass - lower.mass)]
                        for f in (0.2, 0.5, 0.8):
                            v = r.lower + (1.0 - r.lower) * f
                            gaps.append(abs(r.density(v) - transition_density_eval(other, x_other, t, 1.0 - v)))
                    embeds.append((max(gaps), (theta, p, x, t)))
    swap = MutationMatrix(matrix=((0.0, 1.0), (1.0, 0.0)))
    swaps = []
    for theta in (0.5, 2.0):
        for t in (0.3, 1.0, 3.0):
            e = math.exp(-theta * t)
            want = np.array([[1.0 + e, 1.0 - e], [1.0 - e, 1.0 + e]]) / 2.0
            got = markov_line_kernel(swap, theta, t)
            swaps.append((float(np.max(np.abs(got - want))), (theta, t)))
    samples = [
        (abs(infinite_sampling_prob(n, j, 2.0) - float(Fraction(1, n + 1))), (n, j))
        for n in range(1, 21)
        for j in range(n + 1)
    ]
    return [
        ("max two-type embedding mismatch, d = 2", embeds, 1e-12),
        ("max |swap kernel - closed form|", swaps, 1e-12),
        ("theta = 2 sampling probs vs 1/(n+1), n <= 20", samples, 0.0),
    ]


def _skeleton_series(drift: DriftSpec) -> tuple[float, float]:
    """Exp(1)-averaged endpoint flows by geometric-series expansion.

    p11 expands b e^{-g t}/(1 - b e^{-g t}) termwise; p21 uses the
    binomial expansion in Y = c/(1+c) < 1, each term carrying the
    prefactor (1+c)^{-1/g} Y^{k+1} in log space: at weak mutation and
    selection the prefactor alone underflows, and the terms rise for about
    Y/(g(1-Y)) steps before they fall, so the sum stops only past its peak.
    Both series need their ratios b, Y away from 1; the selection suite
    uses them only where _series_converges.
    """
    rp = roots(drift.theta, drift.beta, drift.p)
    scale = 2.0 / drift.beta
    g = rp.decay_rate
    inv_g = 1.0 / g
    b = rp.b
    acc = 0.0
    k = 0
    term = b / (inv_g + 1.0)
    while abs(term) > 1e-17 * max(1.0, abs(acc)):
        acc += term
        k += 1
        term *= b * (inv_g + k) / (inv_g + k + 1.0)
        if k > 500_000:
            msg = f"skeleton series for p11 failed to converge for {drift!r}"
            raise QuadratureError(msg, rp.r1 + scale * acc, scale * abs(term))
    p11 = rp.r1 + scale * acc

    y = rp.c / (1.0 + rp.c)
    log_term = math.log(y / (inv_g + 1.0)) - inv_g * math.log1p(rp.c)
    acc, k, ratio = 0.0, 0, math.inf
    while ratio >= 1.0 or term > 1e-17 * max(1.0, acc):
        term = math.exp(log_term)
        acc += term
        k += 1
        ratio = y * (inv_g + k) * (inv_g + k) / (k * (inv_g + k + 1.0))
        log_term += math.log(ratio)
        if k > 500_000:
            msg = f"skeleton series for p21 failed to converge for {drift!r}"
            raise QuadratureError(msg, rp.r1 - scale * acc, scale * term)
    p21 = rp.r1 - scale * acc
    return p11, p21


def _series_converges(rp: RootPair) -> bool:
    """Whether both skeleton series ratios, b and c/(1+c), are at most _SERIES_RATIO_LIMIT."""
    return rp.b <= _SERIES_RATIO_LIMIT and rp.c / (1.0 + rp.c) <= _SERIES_RATIO_LIMIT


def _suite_selection(seed: int) -> list[tuple]:
    """Drift roots, skeleton routes, stationary law, fixation identities."""
    # where is (theta, beta, p), with xi added for pointwise densities.
    root_gaps = []
    for theta in _THETA_GRID:
        for beta in (0.5, 2.0, 5.0):
            for p in _P_GRID:
                rp = roots(theta, beta, p)
                phi = theta / beta
                for r in (rp.r1, rp.r2):
                    root_gaps.append((abs(r * r - (1.0 - phi) * r - p * phi), (theta, beta, p)))

    skel_gaps = []
    points = [(1.0, 2.0, 0.5)]
    for theta in (0.5, 1.0, 2.0):
        for beta in (1.0, 2.0, 4.0):
            for p in (0.3, 0.5, 0.7):
                points.append((theta, beta, p))
    for theta, beta, p in points:
        # Only where the series converge can they check the production skeleton.
        if not _series_converges(roots(theta, beta, p)):
            continue
        drift = mutation_selection_drift(theta, p, beta)
        s_mu, s_nu = _skeleton_series(drift)
        q_mu, q_nu = skeleton_matrix(drift)[:, 0].tolist()
        skel_gaps.append((max(abs(s_mu - q_mu), abs(s_nu - q_nu)), (theta, beta, p)))

    masses, means, densities = [], [], []
    for theta, beta, p in ((1.0, 2.0, 0.5), (0.5, 4.0, 0.3), (2.0, 1.0, 0.7)):
        drift = mutation_selection_drift(theta, p, beta)
        law = selection_stationary_law(drift)
        pi1, _ = replacement_stationary(drift)
        masses.append((abs(law.quadrature_mass() - 1.0), (theta, beta, p)))
        means.append((abs(law.mean() - pi1), (theta, beta, p)))
        r1 = roots(theta, beta, p).r1
        # The law's density is its offset form about r1; stationary_density
        # writes the same branch in the absolute coordinate.
        for f in (0.2, 0.6, 0.9):
            for xi in (r1 * f, r1 + (1.0 - r1) * f):
                pc = next(q for q in law.pieces if q.lower < xi < q.upper)
                densities.append((abs(pc.density(xi) - selection_stationary_density(drift, xi)), (theta, beta, p, xi)))

    named = mutation_selection_drift(1.0, 0.5, 2.0)
    bespoke = custom_drift(lambda y: 0.5 * (0.5 - y) + y * (1.0 - y))
    customs = [
        (abs(selection_stationary_density(bespoke, xi) - selection_stationary_density(named, xi)), (1.0, 2.0, 0.5, xi))
        for xi in (0.1, 0.35, 0.6, 0.9)
    ]

    ln2 = [(abs(fixation_prob(2.0, 0.5, 1) - math.log(2.0)), (2.0, 0.5))]
    # fixed_type names whose initial frequency x is; the complementary
    # event starts the other type at 1 - x.
    comps = [
        (abs(fixation_prob(beta, x, 1) + fixation_prob(beta, 1.0 - x, 2) - 1.0), (beta, x))
        for beta in (0.5, 2.0, 5.0) for x in (0.1, 0.5, 0.9)
    ]

    # The neutral limit names the skeleton, a flow by (x0, t) or a density by xi.
    weak = mutation_selection_drift(1.0, 0.3, 1e-6)
    neutral = neutral_drift(1.0, 0.3)
    limits = [(float(np.max(np.abs(skeleton_matrix(weak) - skeleton_matrix(neutral)))), ("skeleton",))]
    for x0 in (0.0, 0.6, 1.0):
        for t in (0.5, 2.0, 10.0):
            limits.append((abs(flow(weak, x0, t) - flow(neutral, x0, t)), ("flow", x0, t)))
    for xi in (0.1, 0.5, 0.7, 0.9):
        gap = abs(selection_stationary_density(weak, xi) - selection_stationary_density(neutral, xi))
        limits.append((gap, ("density", xi)))

    return [
        ("max drift-quadratic residual at both roots", root_gaps, 1e-12),
        ("max |series skeleton - quadrature skeleton|", skel_gaps, 1e-8),
        ("max |stationary mass - 1|", masses, 1e-8),
        ("max |stationary mean - replacement weight|", means, 1e-8),
        ("max |law density - direct density|", densities, 1e-12),
        ("max |custom-drift density - closed form|", customs, 1e-8),
        ("|fixation(1/2, beta=2) - ln 2|", ln2, 1e-8),
        ("max |P_fix(1) + P_fix(2) - 1|", comps, 1e-10),
        ("max neutral-limit gap at beta = 1e-6", limits, 1e-4),
    ]


def _suite_asg(seed: int) -> list[tuple]:
    """Branching-graph clocks, stationary line counts, selection duality."""
    # The Monte Carlo checks name (n, beta, sample size), the duality
    # check (n, x, t, beta, sample size).
    rng = RngStream(seed, _STREAM["asg"])
    size = 40_000
    means, pvals = [], []
    for n in (2, 10):
        for beta in (0.5, 2.0):
            times = ua_time_ensemble(n, beta, size, rng)
            mean, se = mean_se(times)
            means.append((abs(mean - 1.0) / se, (n, beta, size)))
            pvals.append((_ks_pvalue(times, lambda x: -np.expm1(-x)), (n, beta, size)))

    counts = [(abs(asg_stationary(2.0, i) - float(Fraction(1, i * (i + 1)))), (2.0, i)) for i in range(1, 21)]
    gfs = [
        (abs(asg_stationary_gf(beta, k / 10.0) - fixation_prob(beta, k / 10.0, 2)), (beta, k / 10.0))
        for beta in (0.5, 2.0, 7.0)
        for k in range(1, 10)
    ]

    duals = []
    for n, x, t, beta in ((2, 0.5, 1.0, 2.0), (3, 0.3, 0.5, 0.5)):
        lhs, rhs, (se_l, se_r) = selection_duality_check(n, x, t, beta, 200_000, rng)
        duals.append((abs(lhs - rhs) / (se_l + se_r), (n, x, t, beta, 200_000)))

    return [
        ("max |mean collapse time - 1| in SE units", means, 3.0),
        ("min KS p-value vs unit exponential", pvals, 0.01, "ge"),
        ("beta = 2 stationary counts vs 1/(i(i+1)), i <= 20", counts, 0.0),
        ("max |stationary gf - loss probability|", gfs, 1e-8),
        ("max |forward mc - branching mc| in joint SE units", duals, 4.0),
    ]


# Each suite returns its checks as (name, gaps, bound[, "ge"]) tuples; transition-moments
# alone takes (seed, pool) and returns a collector of them; see run_suites.
_SUITES = (
    ("transition-mass", _suite_transition_mass),
    ("uniform-stationary", _suite_uniform_stationary),
    ("transition-moments", _suite_transition_moments),
    ("eigen-equation", _suite_eigen_equation),
    ("expansion", _suite_expansion),
    ("pairing", _suite_pairing),
    ("line-spectral", _suite_line_spectral),
    ("absorption-time", _suite_absorption_time),
    ("moment-duality", _suite_moment_duality),
    ("replacement-parts", _suite_replacement_parts),
    ("multitype", _suite_multitype),
    ("selection", _suite_selection),
    ("asg", _suite_asg),
)

SUITE_NAMES = tuple(name for name, _ in _SUITES)


def run_suites(names=None, seed: int = 0) -> list[CheckResult]:
    """Run the requested suites and return their checks in registry order.

    When transition-moments is requested, its grid cells go to a thread
    pool first; the calling thread then runs the other requested suites in
    registry order while the cells draw, and collects the cells last.  No
    other suite leaves the calling thread.  Each suite draws only from its
    own substream of seed, so neither the pool size nor the choice of
    suites changes any result.  Freed heap goes back to the OS before the
    results are returned.

    Args:
        names: one suite name, an iterable of them, or None / "all" for
            every suite.
        seed: base seed; each Monte Carlo suite uses its own substream.

    Returns:
        The concatenated check results.

    Raises:
        InvalidParameterError: an unknown suite name was requested.
        Whatever a suite or a transition-moments cell raises, once the
        cells not yet started are cancelled and the running ones finish.
    """
    from concurrent.futures import ThreadPoolExecutor

    if names is None or names == "all":
        wanted = set(SUITE_NAMES)
    else:
        wanted = {names} if isinstance(names, str) else set(names)
        unknown = wanted.difference(SUITE_NAMES)
        if unknown:
            raise InvalidParameterError(f"unknown suite names: {sorted(unknown)}")
    pool = ThreadPoolExecutor(_workers(len(_MOMENT_CELLS))) if "transition-moments" in wanted else None
    try:
        collect = dict(_SUITES)["transition-moments"](seed, pool) if pool is not None else None
        done = {name: fn(seed) for name, fn in _SUITES if name in wanted and name != "transition-moments"}
        if collect is not None:
            done["transition-moments"] = collect()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    _release_freed_heap()
    return [_check_result(name, *check) for name, _ in _SUITES if name in done for check in done[name]]


def _release_freed_heap() -> None:
    """Return the C heap's free pages to the OS, where glibc's malloc_trim exists.

    Once an 8 MB array (1e6 draws) has been freed, glibc serves smaller
    arrays from its heap and trims the heap only when 16 MB lie free at its
    top, so the asg suite's 1.6 MB temporaries would stay resident, about
    14 MB, after the battery.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if sys.platform == "linux" else None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def format_report(results) -> str:
    """Stable text rendering, one line per check plus a summary line."""
    lines = []
    for r in results:
        op = "<=" if r.direction == "le" else ">="
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.suite:<19} {r.name:<55} {r.observed:>11.4e} {op} {r.bound:.1e}"
        )
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass} of {len(results)} checks passed")
    return "\n".join(lines) + "\n"
