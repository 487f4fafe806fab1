"""Spectral decomposition of the two-type generator.

The generator L g = x(g(1)-g(x)) + (1-x)(g(0)-g(x)) + (theta/2)(p-x) g'(x)
acts triangularly on polynomials in y = x - p, so its eigenfunctions are
monic polynomials P_n = y^n + c_{n1} y + c_{n0} with eigenvalues 0, theta/2,
and 1 + n theta/2 for n >= 2.  The dual basis pairs a polynomial with the
stationary law (n = 0), a principal value against the unbounded kernel Q1
(n = 1), and plain Taylor coefficients at p (n >= 2).  Everything here is
closed-form linear algebra on coefficient tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    LINE_LAW_N_CAP,
    InvalidParameterError,
    TwoTypeParams,
    _quad_led_by,
    check_int,
    check_real,
    quad_offset,
)
from .twotype import _alternating_gap

__all__ = [
    "PolyRep",
    "eigenvalue",
    "eigen_coefficients",
    "eigen_poly",
    "generator_apply",
    "pv_expectation_g_q1",
    "pv_expectation_g_q1_numeric",
    "stationary_expectation",
    "hyper_pairing",
    "expansion_expectation",
]


@dataclass(frozen=True)
class PolyRep:
    """Polynomial stored by coefficients in powers of (x - shift).

    coeffs[k] multiplies (x - shift)^k.  The tuple may carry trailing zeros.
    """

    shift: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidParameterError("PolyRep needs at least one coefficient")
        for k, c in enumerate(self.coeffs):
            check_real(f"coeffs[{k}]", c, -math.inf, math.inf, open_lo=True, open_hi=True)
        check_real("shift", self.shift, -math.inf, math.inf, open_lo=True, open_hi=True)

    def coefficient(self, k: int) -> float:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0.0

    def __call__(self, x: float) -> float:
        y = x - self.shift
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * y + c
        if not math.isfinite(acc):
            raise InvalidParameterError(f"PolyRep value at x = {x!r} about shift {self.shift!r} is not finite")
        return acc

    def with_shift(self, new_shift: float) -> "PolyRep":
        """Re-expand around new_shift by binomial shifting."""
        if new_shift == self.shift:
            return self
        d = new_shift - self.shift
        n = len(self.coeffs)
        out = [0.0] * n
        for j in range(n):
            out[j] = math.fsum(
                self.coeffs[k] * math.comb(k, j) * d ** (k - j) for k in range(j, n)
            )
        return PolyRep(new_shift, tuple(out))


def eigenvalue(params: TwoTypeParams, n: int) -> float:
    """n-th eigenvalue: 0, theta/2, then 1 + n theta/2 from n = 2 on.

    The jump between n = 1 and n = 2 reflects the replacement events, which
    kill all centered powers of degree >= 2 but only relabel degree 1.
    """
    check_int("n", n, 0)
    if n == 0:
        return 0.0
    if n == 1:
        return 0.5 * params.theta
    return 1.0 + 0.5 * n * params.theta


def eigen_coefficients(params: TwoTypeParams, n: int) -> tuple[float, float]:
    """Constant and linear corrections (c_n0, c_n1) of the n-th eigen poly,
    through _alternating_gap, which does not cancel near p = 1/2; the 0.0 -
    keeps c_n1 at +0.0, not -0.0, at p = 1/2, so printed tables read 0."""
    check_int("n", n, 2)
    theta, p = params.theta, params.p
    a = 2.0 / theta
    c0 = -(a / (n + a)) * p * (1.0 - p) * _alternating_gap(p, n - 1)
    c1 = 0.0 - (a / (n - 1.0 + a)) * _alternating_gap(p, n)
    return c0, c1


def eigen_poly(params: TwoTypeParams, n: int) -> PolyRep:
    """Monic eigen polynomial P_n in powers of (x - p).

    P_0 = 1, P_1 = x - p, and for n >= 2 the pure power is corrected by a
    linear and a constant term so the low-degree output of the generator
    cancels.  It holds n + 1 floats, so n above LINE_LAW_N_CAP raises before
    any allocation.
    """
    check_int("n", n, 0)
    if n > LINE_LAW_N_CAP:
        raise InvalidParameterError(f"eigen polynomial for n={n!r} exceeds LINE_LAW_N_CAP = {LINE_LAW_N_CAP}")
    if n == 0:
        return PolyRep(params.p, (1.0,))
    if n == 1:
        return PolyRep(params.p, (0.0, 1.0))
    c0, c1 = eigen_coefficients(params, n)
    coeffs = [0.0] * (n + 1)
    coeffs[0] = c0
    coeffs[1] = c1
    coeffs[n] = 1.0
    return PolyRep(params.p, tuple(coeffs))


def generator_apply(params: TwoTypeParams, g: PolyRep) -> PolyRep:
    """Apply the generator to a polynomial, exactly.

    In the (x - p) basis with coefficients a_k the image has coefficients
    -(1 + k theta/2) a_k for k >= 2, (g(1) - g(0)) - (1 + theta/2) a_1 at
    k = 1, and (1-p) g(0) + p g(1) - a_0 at k = 0.
    """
    g = g.with_shift(params.p)
    a = g.coeffs
    g0 = g(0.0)
    g1 = g(1.0)
    out = list(a)
    out[0] = (1.0 - params.p) * g0 + params.p * g1 - a[0]
    if len(a) > 1:
        out[1] = (g1 - g0) - (1.0 + 0.5 * params.theta) * a[1]
    for k in range(2, len(a)):
        out[k] = -(1.0 + 0.5 * k * params.theta) * a[k]
    return PolyRep(params.p, tuple(out))


def pv_expectation_g_q1(params: TwoTypeParams, g: PolyRep) -> float:
    """Principal value of E[g(xi) Q1(xi)] under the stationary law.

    Q1(xi) = (1-p) / (p (xi-p)) above p and -p / ((1-p) (p-xi)) below,
    non-integrable at p.  Series route: the centered powers pair as (x-p)^1 -> 1 and
    (x-p)^n -> -c_{n1} for n >= 2, constants pair to 0, so the value is
    a_1 - sum_{n>=2} a_n c_{n1}.
    """
    return _pairing(params, g, 1)


def pv_expectation_g_q1_numeric(params: TwoTypeParams, g: PolyRep) -> float:
    """Principal value via the symmetric-mass substitution, numerically.

    Both stationary branches map to eta in (0, 1) with density
    (2/theta) eta^{2/theta - 1}, and Q1 contributes +1/eta above p and
    -1/eta below with equal branch weights, so the symmetric truncations
    of the PV integral collapse to one absolutely convergent integral of
    g(p + (1-p) eta) - g(p(1 - eta)) against (2/theta) eta^{2/theta - 2}.

    The branch difference is expanded in coefficients before integrating:
    evaluating the two branches separately and subtracting loses all
    precision as eta -> 0, where the quadrature needs the integrand most.
    """
    if not isinstance(g, PolyRep):
        raise InvalidParameterError("the principal-value pairing is defined for polynomial observables")
    theta, p = params.theta, params.p
    a = 2.0 / theta
    b = g.with_shift(p).coeffs
    # g(p + (1-p) eta) - g(p (1-eta)) = sum_k b_k ((1-p)^k - (-p)^k) eta^k,
    # with the k = 0 terms cancelling identically.
    diff = tuple(bk * ((1.0 - p) ** k - (-p) ** k) for k, bk in enumerate(b))

    def integrand(eta: float) -> float:
        acc = 0.0
        for c in reversed(diff[1:]):
            acc = acc * eta + c
        return a * eta ** (a - 1.0) * acc

    with _quad_led_by(f"pv_expectation_g_q1_numeric(theta={theta!r}, p={p!r})"):
        return quad_offset(integrand, 1.0)


def stationary_expectation(params: TwoTypeParams, g: PolyRep) -> float:
    """E[g(xi)] under the stationary law, by pairing centered powers.

    E[(xi-p)^n] = -c_{n0} for n >= 2 and 0 for n = 1, so the value is
    a_0 - sum_{n>=2} a_n c_{n0}.
    """
    return _pairing(params, g, 0)


def _pairing(params: TwoTypeParams, g: PolyRep, order: int) -> float:
    """a_order - sum_{n>=2} a_n c_{n,order}, a_n g's coefficients about p (0 if g has no a_order)."""
    a = g.with_shift(params.p).coeffs
    if len(a) <= order:
        return 0.0
    acc = [a[order]]
    for n in range(2, len(a)):
        if a[n] != 0.0:
            acc.append(-a[n] * eigen_coefficients(params, n)[order])
    return math.fsum(acc)


def hyper_pairing(g: PolyRep, n: int) -> float:
    """Dual pairing of order n >= 2: the n-th Taylor coefficient at g.shift.

    The order-n dual functional annihilates polynomials of degree < n and
    all higher centered powers' low-degree corrections, leaving
    g^{(n)}(shift)/n!.
    """
    check_int("n", n, 2)
    return g.coefficient(n)


def expansion_expectation(params: TwoTypeParams, g: PolyRep, x: float, t: float) -> float:
    """E_x[g(xi(t))] assembled from the eigen expansion.

    Stationary term, plus e^{-theta t/2} times the PV pairing times (x-p),
    plus sum over n >= 2 of e^{-(1 + n theta/2) t} a_n P_n(x).  Agrees with
    the moment route for every polynomial.  P_n(x) = (y^(n-1) + c_n1) y + c_n0
    with y = x - p, the steps of PolyRep's Horner rule, over one running power
    of y, so the sum costs O(deg g).
    """
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf, open_hi=True)
    g = g.with_shift(params.p)
    a = g.coeffs
    acc = [stationary_expectation(params, g)]
    if len(a) > 1:
        pv = pv_expectation_g_q1(params, g)
        acc.append(math.exp(-0.5 * params.theta * t) * pv * (x - params.p))
    y = x - params.p
    power = y
    for n in range(2, len(a)):
        if a[n] != 0.0:
            lam = 1.0 + 0.5 * n * params.theta
            c0, c1 = eigen_coefficients(params, n)
            acc.append(math.exp(-lam * t) * a[n] * ((power + c1) * y + c0))
        power *= y
    return math.fsum(acc)
