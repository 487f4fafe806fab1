"""Reference values computed apart from the program under test.

Nothing here imports starcoal.  The closed forms come from the generator of
the two-type process, L f(x) = (theta/2)(p - x) f'(x) + x f(1) + (1 - x) f(0)
- f(x), applied to f = x and f = x^2, and from the line-count and branching
chains written out by hand.  The integrals that have no closed form are
evaluated with mpmath at 30 significant digits, from formulas transcribed
from the model, not from the library's code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

MP_DIGITS = 30


def transition_mean(theta: float, p: float, x: float, t: float) -> float:
    """E_x[xi(t)]: replacements are a martingale, so only mutation moves it."""
    return p + (x - p) * math.exp(-0.5 * theta * t)


def transition_second_moment(theta: float, p: float, x: float, t: float) -> float:
    """E_x[xi(t)^2] from m2' = (theta p + 1) m1 - (theta + 1) m2."""
    slow = math.exp(-(theta + 1.0) * t)
    fast = math.exp(-0.5 * theta * t)
    return x * x * slow + (theta * p + 1.0) * (
        p * (1.0 - slow) / (theta + 1.0) + (x - p) * (fast - slow) / (0.5 * theta + 1.0)
    )


def stationary_raw_moment(theta: float, p: float, n: int) -> float:
    """Stationary E[xi^n] from 0 = E[L x^n], m_1 = p."""
    m = p
    for k in range(2, n + 1):
        m = (0.5 * k * theta * p * m + p) / (0.5 * k * theta + 1.0)
    return m


def absorption_mean(n: int, theta: float) -> float:
    """Mean time until all n lines have mutated, by first-step analysis.

    From i >= 2 lines the chain leaves at rate 1 + i theta/2, collapsing
    to one line with probability 1/(1 + i theta/2); one line leaves at
    rate theta/2.  Solved exactly in rationals from the bottom up.
    """
    half = Fraction(theta) / 2
    mean = [Fraction(0), 1 / half]
    for i in range(2, n + 1):
        rate = 1 + i * half
        mean.append((1 + mean[1] + i * half * mean[i - 1]) / rate)
    return float(mean[n])


def branching_mean(n: int, beta: float, h: float) -> float:
    """E[B(h)] for the branching dual from n lines.

    i lines branch at rate i beta/2 and collapse to one at rate 1, so
    d/dt E[B] = (beta/2) E[B] - (E[B] - 1); needs beta != 2.
    """
    c = 1.0 / (1.0 - 0.5 * beta)
    return c + (n - c) * math.exp((0.5 * beta - 1.0) * h)


def drift_roots(theta: float, beta: float, p: float) -> tuple[float, float]:
    """Roots r2 < 0 < r1 of x^2 - (1 - theta/beta) x - p theta/beta, in mpmath."""
    with mpmath.workdps(MP_DIGITS):
        phi = mpmath.mpf(theta) / beta
        s = 1 - phi
        disc = mpmath.sqrt(s * s + 4 * p * phi)
        return (s + disc) / 2, (s - disc) / 2


def mp_skeleton(theta: float, p: float, beta: float) -> tuple[float, float]:
    """(E mu(T), E nu(T)), T ~ Exp(1), for the flow with mutation and selection.

    dx/dt = -(beta/2)(x - r1)(x - r2) integrates to
    (x - r1)/(x - r2) = (x0 - r1)/(x0 - r2) e^{-(beta/2)(r1 - r2) t}.
    """
    with mpmath.workdps(MP_DIGITS):
        r1, r2 = drift_roots(theta, beta, p)
        rate = mpmath.mpf(beta) / 2 * (r1 - r2)

        def flow_from(x0):
            ratio0 = (x0 - r1) / (x0 - r2)

            def f(t):
                u = ratio0 * mpmath.exp(-rate * t)
                return mpmath.exp(-t) * (r1 - r2 * u) / (1 - u)

            return float(mpmath.quad(f, [0, 1, mpmath.inf]))

        return flow_from(mpmath.mpf(1)), flow_from(mpmath.mpf(0))


def skeleton_is_series(theta: float, p: float, beta: float) -> bool:
    """Whether both flow ratios b = (1-r1)/(1-r2) and c/(1+c), c = -r1/r2, are <= 0.9."""
    s = 1.0 - theta / beta
    disc = math.sqrt(s * s + 4.0 * p * theta / beta)
    r1, r2 = 0.5 * (s + disc), 0.5 * (s - disc)
    c = -r1 / r2
    return (1.0 - r1) / (1.0 - r2) <= 0.9 and c / (1.0 + c) <= 0.9


def mp_fixation(beta: float, x: float) -> float:
    """P1(x) = (2/beta) x int_0^1 z^{2/beta - 1} / (1 - (1-x)(1-z)) dz."""
    with mpmath.workdps(MP_DIGITS):
        a = mpmath.mpf(2) / beta
        w = 1 - mpmath.mpf(x)
        integral = mpmath.quad(lambda z: z ** (a - 1) / (1 - w * (1 - z)), [0, 1])
        return float(a * x * integral)


def mp_transition_piece_masses(theta: float, p: float, x: float, t: float) -> tuple[float, float]:
    """Masses of the two density pieces of the transition law.

    With e = e^{-theta t/2} and a = 2/theta, the type-1 piece is
    xi = p + (1-p) w and the type-2 piece xi = p (1 - v), w, v in (e, 1),
    with densities in w and v of (p + e (x-p)/w) a w^{a-1} and
    (1 - p - e (x-p)/v) a v^{a-1}.
    """
    with mpmath.workdps(MP_DIGITS):
        a = mpmath.mpf(2) / theta
        e = mpmath.exp(-mpmath.mpf(theta) * t / 2)
        dx = mpmath.mpf(x) - p
        up = mpmath.quad(lambda w: (p + e * dx / w) * a * w ** (a - 1), [e, 1])
        lo = mpmath.quad(lambda v: (1 - p - e * dx / v) * a * v ** (a - 1), [e, 1])
        return float(up), float(lo)
