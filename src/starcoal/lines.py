"""Backward line counting and moment duality.

Tracing n sampled individuals backward, each line resolves by mutation at
rate theta/2 and the whole set of unresolved lines collapses to one at the
population replacement events, rate 1.  The line count A(t) therefore moves
down the chain n -> n-1 -> ... with collapse jumps to 1, and its law is an
explicit mix of binomial terms.  The alternating sums in the closed forms
cancel catastrophically in floats near n = 50, so every distribution value
is assembled as integers over a common dyadic denominator, rounded once:
the float inputs e^{-theta t/2}, e^{-t} and theta are dyadic rationals, so
each rate ratio 1 + m theta/2 and each time factor is an integer ratio.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, RngStream, TwoTypeParams
from .core import _blocks, _check_work, _dyadic, _rate_ratios, _replicates, _sweep, check_int, check_real, mean_se_of_counts
from .twotype import _raw_moment

__all__ = [
    "LineDist",
    "LinePath",
    "an_distribution",
    "an_distribution_spectral",
    "mean_absorption_time",
    "simulate_lines",
    "duality_check",
    "stationary_moment_via_coalescent",
]


@dataclass(frozen=True)
class LineDist:
    """Distribution of the unresolved line count after time t."""

    n: int
    theta: float
    t: float
    probs: tuple[float, ...]

    def __post_init__(self):
        at = f"n={self.n!r}, theta={self.theta!r}, t={self.t!r}"
        if len(self.probs) != self.n + 1:
            raise InvalidParameterError(f"line-count law for {at} has {len(self.probs)} entries, not n + 1")
        j = min(range(self.n + 1), key=self.probs.__getitem__)
        check_real(f"P(A = {j}) of the line-count law for {at}", self.probs[j], 0.0, math.inf)
        check_real(f"sum of the line-count law for {at}", math.fsum(self.probs), 1.0 - 1e-12, 1.0 + 1e-12)


@dataclass(frozen=True)
class LinePath:
    """One backward run of the line-count chain to absorption."""

    final_lines: int
    absorption_time: float


def _check_law_args(n: int, theta: float, t: float) -> None:
    """The line laws' domain: n >= 1, theta > 0 finite, t >= 0 finite; _rate_ratios caps n."""
    check_int("n", n, 1)
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("t", t, 0.0, math.inf, open_hi=True)


def an_distribution(n: int, theta: float, t: float) -> LineDist:
    """Law of the unresolved line count, exact up to one final rounding.

    For 1 < j <= n the probability is the binomial survival term
    C(n,j) p(t)^j (1-p(t))^{n-j} e^{-t} with p(t) = e^{-theta t/2}; j = 1
    adds the alternating resolvent sum and j = 0 closes the total to 1.
    With p(t) = A / 2^a, e^{-t} = B / 2^b and 1 + m theta/2 = d[m] / D,
    every term is an integer over 2^{an+b} L, L = d[0] ... d[n-1].
    """
    _check_law_args(n, theta, t)
    T, D, d = _rate_ratios(theta, n, "line-count law")
    A, a = _dyadic(math.exp(-0.5 * theta * t))
    B, b = _dyadic(math.exp(-t))
    shift = a * n + b
    C = (1 << a) - A  # (1 - p(t)) 2^a
    # C(n,j) A^j C^{n-j} for j = n down to 1, by one exact small division a step.
    surv = [A**n]
    for j in range(n, 1, -1):
        surv.append(surv[-1] * j * C // ((n - j + 1) * A) if A else 0)
    probs = [0.0, 0.0] + [s * B / (1 << shift) for s in reversed(surv[:-1])]
    # With w_k = (-1)^{k+1} C(n,k) L / d[k-1] and e^{-t} p^k = B A^k 2^{a(n-k)}
    # over 2^shift, the resolvent sums need W = sum w_k and, by Horner in A,
    # h1 = sum w_k A^{k-1} 2^{a(n-k)} and h2, the same with weights (k-1) w_k.
    # Step k multiplies the sums by d[k-1], so w_k enters as +-C(n,k) d[k] ... d[n-1].
    W, h1, h2, L = 0, 0, 0, 1
    for k in range(n, 0, -1):
        w = (-1) ** (k + 1) * math.comb(n, k) * L
        W = W * d[k - 1] + w
        h1 = h1 * A * d[k - 1] + (w << (a * (n - k)))
        h2 = h2 * A * d[k - 1] + ((k - 1) * w << (a * (n - k)))
        L *= d[k - 1]
    pfw = A * W << (shift - a)  # p(t) W, over 2^shift
    den = L << shift
    probs[1] = (surv[-1] * B * L + D * (pfw - B * A * h1)) / den
    probs[0] = (den - D * pfw - T * B * A * h2) / den
    return LineDist(n=n, theta=theta, t=t, probs=tuple(probs))


def _spectral_pairs(n: int, theta: float):
    """q[k], the rows p[0][.] and p[1][.] and the factors r[k] as integer
    (num, den) pairs.

    With (T, D, d) from _rate_ratios, 1 + m theta/2 = d[m] / D.  Returns
    (q, rows, r, Lq): rows is (p[0], p[1]), and Lq[k] is L over q[k]'s
    denominator, L = Lq[0] = d[0] ... d[n-1] being that of q[1].  The rows
    j >= 2 are p[j][k] = (-1)^{j+1} C(k,j) r[k]; the spectral law sums rows
    0 and 1 by Horner and the others by one Taylor shift of E_k = q[k] r[k].
    No pair holds a survival term of an_distribution, which forms no q or
    p, so the two routes stay independent.
    """
    T, D, d = _rate_ratios(theta, n, "line-count law")
    L = math.prod(d[:n])
    sign = [(-1) ** (k + 1) for k in range(n + 1)]
    Lq = [L, 1] + [L // d[k - 1] for k in range(2, n + 1)]
    q1 = n * L + D * sum(sign[k] * math.comb(n, k) * Lq[k] for k in range(2, n + 1))
    q = [(1, 1), (q1, L)] + [(sign[k] * math.comb(n, k) * (k - 1) * d[k], d[k - 1]) for k in range(2, n + 1)]
    r = [(1, 1)] * 2 + [(d[k - 1], (k - 1) * d[k]) for k in range(2, n + 1)]  # k = 0, 1 pad: C(k,j) = 0
    rows = ([(1, 1), (-1, 1)] + [(-T, d[k]) for k in range(2, n + 1)], [(0, 1)] + [(1, 1)] * n)
    return q, rows, r, Lq


def an_distribution_spectral(n: int, theta: float, t: float) -> LineDist:
    """Line-count law reconstructed as sum_k e^{-lambda_k t} Q^(k) P_j^(k).

    The time factors are evaluated through the exact identity
    e^{-(1 + k theta/2) t} = e^{-t} (e^{-theta t/2})^k.  With
    e^{-theta t/2} = A / 2^a and e^{-t} = B / 2^b they are integers over the
    common dyadic denominator 2^{an+b}, so each probability is one integer
    sum, rounded once, and the alternating spectral sums cancel exactly
    rather than in floats.  Rows 0 and 1 are sums by Horner in A; for j >= 2,
    q[k] p[j][k] = (-1)^{j+1} C(k,j) E_k with E_k = q[k] r[k] an integer, and
    one Taylor shift by 1 gives every row (n passes of suffix sums).  The
    route stays independent of an_distribution: it forms no survival term
    C(n,j) p^j (1-p)^{n-j}, and an_distribution forms no q or p.
    """
    _check_law_args(n, theta, t)
    A, a = _dyadic(math.exp(-0.5 * theta * t))
    B, b = _dyadic(math.exp(-t))
    shift = a * n + b
    q, rows, r, Lq = _spectral_pairs(n, theta)
    probs = []

    def exact(num: int, den: int) -> int:
        quo, rem = divmod(num, den)
        if rem:
            raise InvalidParameterError(f"spectral weights for n={n!r}, theta={theta!r} are not integers")
        return quo

    for row in rows:
        # The weights q[k] p[j][k] over L = Lq[0] are integers, summed by Horner in A
        # over e^{-t} p^k = B A^k 2^{a(n-k)} / 2^shift; k = 0, 1 have factors 1, p.
        w = [exact(qn * pn, pd) * Lk for (qn, _), (pn, pd), Lk in zip(q, row, Lq)]
        h = 0
        for k in range(n, 1, -1):
            h = h * A + (w[k] << (a * (n - k)))
        num = B * A**2 * h + (w[0] << shift) + (w[1] * A << (shift - a))
        probs.append(num / (Lq[0] << shift))
    # F holds E_k A^k 2^{a(n-k)} for k = n down to 2.  Pass i turns the entries
    # for k >= i into suffix sums; after n passes F[n-j] = sum_k C(k,j) F_k.
    F, power = [], A
    for k, (qn, qd), (rn, rd) in zip(range(2, n + 1), q[2:], r[2:]):
        power *= A
        F.append(exact(qn * rn, qd * rd) * power << (a * (n - k)))
    F.reverse()
    for i in range(n):
        F[: n + 1 - i] = itertools.accumulate(F[: n + 1 - i])
    probs += [(-1) ** (j + 1) * B * F[n - j] / (1 << shift) for j in range(2, n + 1)]
    return LineDist(n=n, theta=theta, t=t, probs=tuple(probs))


def mean_absorption_time(n: int, theta: float) -> float:
    """Expected time until every line has resolved.

    Equals r (1 - n! / (r (r+1) ... (r+n-1))) with r = 1 + 2/theta; with
    (T, D, d) from _rate_ratios, r + j = d[j+1] / T, so the value is one
    integer ratio, rounded once.  n = 2, theta = 2 gives exactly 4/3.  n is
    capped at LINE_LAW_N_CAP.
    """
    check_int("n", n, 1)
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    T, D, d = _rate_ratios(theta, n, "mean absorption time")
    prod = math.prod(d[1:])
    try:
        return d[1] * (prod - math.factorial(n) * T**n) / (T * prod)
    except OverflowError:
        raise InvalidParameterError(f"mean absorption time overflows a float at n = {n}, theta = {theta!r}") from None


def simulate_lines(n: int, theta: float, rng: RngStream) -> LinePath:
    """Simulate the line-count chain to absorption.

    From i >= 2 the chain waits Exp(1 + i theta/2) and steps to i - 1 by
    mutation (probability i theta / (2 + i theta)) or collapses to 1; from
    1 only the final mutation remains, rate theta/2.  Replacement epochs
    seen from a single line relabel it without changing the count, so they
    are not simulated after the collapse.
    """
    check_int("n", n, 1)
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    _check_work("lines.simulate_lines", n + 1, 1)
    clock = 0.0
    state = n
    while state >= 1:
        rate = 0.5 * theta * state + (1.0 if state >= 2 else 0.0)
        clock += rng.gen.exponential() / rate
        if state >= 2 and rng.gen.random() * rate < 1.0:
            state = 1
        else:
            state -= 1
    return LinePath(final_lines=state, absorption_time=clock)


def _line_ensemble(
    n: int, theta: float, t: float, size: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Staged backward engine: (state at t, lines before collapse, clock).

    The second array is 0 for replicates with no collapse before t; the
    clock holds each replicate's last event time by t.  Each stage draws
    one Exp(1) wait for every active replicate and one uniform for each
    whose event lands by t, so at most n + 1 stages run regardless of size.
    t = inf runs every chain to absorption, where the clock is the
    absorption time.
    """
    state = np.full(size, n, dtype=np.min_scalar_type(n))
    clock = np.zeros(size)
    coal_before = np.zeros_like(state)

    def land(a):
        count = state[a]
        landed = rng.gen.standard_exponential(a.size)
        landed /= 0.5 * theta * count + (count >= 2)
        landed += clock[a]
        alive = landed <= t
        kept = np.flatnonzero(alive)
        clock[a.take(kept)] = landed.take(kept)
        return alive

    def resolve(a):
        # From i >= 2 lines the total rate is 1 + i theta/2, and the collapse
        # has rate 1: it wins with probability 1/rate.
        count = state[a]
        coal = np.flatnonzero((count >= 2) & (rng.gen.random(a.size) * (0.5 * theta * count + (count >= 2)) < 1.0))
        coal_before[a.take(coal)] = count.take(coal)
        count -= 1
        count[coal] = 1
        state[a] = count
        return count >= 1

    active = _replicates(size)
    while active.size:
        active = _sweep(_sweep(active, land), resolve)
    return state, coal_before, clock


def absorption_time_ensemble(n: int, theta: float, size: int, rng: RngStream) -> np.ndarray:
    """Absorption times of size independent chains, by the staged engine."""
    check_int("n", n, 1)
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_int("size", size, 1)
    _check_work("lines.absorption_time_ensemble", n + 1, size)
    return _line_ensemble(n, theta, math.inf, size, rng)[2]


def duality_check(
    params: TwoTypeParams, n: int, x: float, t: float, n_mc: int, rng: RngStream
) -> tuple[float, float, float]:
    """Moment duality: E_x[xi(t)^n] against the backward-line estimator.

    The left side expands xi^n binomially through centered transition
    moments.  The right side averages, per simulated chain, x^A p^{n-A}
    when no collapse occurred by t (A the state at t, possibly 0), and
    after a collapse from i lines either x p^{n-i} (the merged line still
    unresolved at t) or p^{n+1-i} (it mutated too).

    Returns:
        (lhs, rhs, rhs standard error).
    """
    check_int("n", n, 1)
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf, open_lo=True, open_hi=True)
    check_int("n_mc", n_mc, 2)
    _check_work("lines.duality_check", n + 1, n_mc)
    p = params.p
    lhs = _raw_moment(params, n, x, t)
    state, coal_before = _line_ensemble(n, params.theta, t, n_mc, rng)[:2]
    # A path's value depends only on (coal_before, state): count the pairs
    # and read their values from a table.
    s = np.arange(n + 1)
    table = np.empty((n + 1, n + 1))
    table[0] = x ** s.astype(float) * p ** (n - s).astype(float)
    exponent = (n - s[1:, None]).astype(float)
    table[1:] = np.where(s == 1, x * p**exponent, p ** (exponent + 1.0))
    pairs = sum(
        np.bincount(coal_before[b].astype(np.intp) * (n + 1) + state[b], minlength=table.size) for b in _blocks(n_mc)
    )
    rhs, rhs_se = mean_se_of_counts(pairs, table)
    return lhs, rhs, rhs_se


def stationary_moment_via_coalescent(
    params: TwoTypeParams, n: int, n_mc: int, rng: RngStream
) -> tuple[float, float]:
    """Estimate of the stationary E[xi^n] from the embedded jump chain.

    Runs the discrete chain until the first collapse from i >= 2 lines
    (value p^{n+1-i}) or until a single line remains without any collapse
    (value p^n, the same as a collapse from one line).  Time plays no role,
    only the jump probabilities i theta / (2 + i theta).

    Returns:
        (estimate, standard error); n = 1 returns (p, 0.0) since every
        trajectory then scores exactly p.
    """
    check_int("n", n, 1)
    check_int("n_mc", n_mc, 2)
    _check_work("lines.stationary_moment_via_coalescent", n + 1, n_mc)
    state = np.full(n_mc, n, dtype=np.min_scalar_type(n))
    a = np.ones_like(state)

    def step(b):
        count = state[b]
        coal = np.flatnonzero(rng.gen.random(b.size) * (0.5 * params.theta * count + 1.0) < 1.0)
        a[b.take(coal)] = count.take(coal)
        count -= 1
        count[coal] = 1
        state[b] = count
        return count >= 2

    active = _replicates(n_mc)
    while active.size:
        active = _sweep(active, step)
    # A path's value p^{n+1-a} depends only on a.
    counts = sum(np.bincount(a[b], minlength=n + 1) for b in _blocks(n_mc))
    return mean_se_of_counts(counts, params.p ** (n + 1 - np.arange(n + 1)).astype(float))
