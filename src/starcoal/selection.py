"""Selection through deterministic skeleton flows and the branching dual.

Between replacement events the frequency follows dx/dt = v(x) with
v(x) = (theta/2)(p - x) + (beta/2) x (1 - x); at rate-1 events it jumps to
1 or 0 with probability given by its current value.  All one-step laws
reduce to the flow from 1 (mu) and from 0 (nu), and the stationary law is
an exponentially weighted pushforward of those flows.  The quadratic's
roots r2 < 0 < r1 < 1 of chi^2 - (1 - theta/beta) chi - p theta/beta
control everything; r1 is the interior equilibrium.

The genealogical dual for pure selection is a branching chain: i lines
branch to i + 1 at rate i beta/2 and collapse to 1 at rate 1.  Collapse is
a constant-rate event, so the time to the ultimate ancestor is Exp(1)
whenever at least two lines are present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import (
    DomainEscapeError,
    InvalidParameterError,
    MixedLaw,
    NoStationaryDistributionError,
    NonMonotoneDriftError,
    Piece,
    QuadratureError,
    RngStream,
    SimulationAbortError,
    TwoTypeParams,
    check_int,
    check_real,
    mean_se,
    quad_offset,
)
from .core import _check_work, _quad_led_by, _rate_ratios, _replicates, _sample, _sweep, mean_se_of_counts
from .twotype import PathRecord, _jump_endpoints, _jump_path, transition_density_eval
from .twotype import stationary_law as _neutral_stationary_law

__all__ = [
    "ASG_STATE_CAP",
    "DriftSpec",
    "RootPair",
    "AsgPath",
    "neutral_drift",
    "logistic_drift",
    "mutation_selection_drift",
    "custom_drift",
    "roots",
    "flow",
    "skeleton_matrix",
    "replacement_stationary",
    "stationary_density",
    "stationary_law",
    "stationary_sample",
    "simulate_path",
    "fixation_prob",
    "asg_simulate",
    "ua_time_ensemble",
    "asg_stationary",
    "asg_stationary_gf",
    "asg_count_ensemble",
    "selection_duality_check",
]

ASG_STATE_CAP = 10_000_000
_UA_RESIDUAL_STATE = 1_000
_GF_TERM_BUDGET = 10_000_000


@dataclass(frozen=True)
class DriftSpec:
    """Between-event drift, one of four kinds.

    kind "neutral" uses (theta, p); "logistic" uses beta; the combined
    "mutation_selection" uses all three; "custom" carries a velocity callable
    alone.  Use the factory functions rather than filling fields by hand.
    """

    kind: str
    theta: float | None = None
    p: float | None = None
    beta: float | None = None
    velocity_fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("neutral", "logistic", "mutation_selection", "custom"):
            raise InvalidParameterError(f"unknown drift kind {self.kind!r}")
        if self.kind in ("neutral", "mutation_selection"):
            check_real("theta", self.theta, 0.0, math.inf, open_lo=True, open_hi=True)
            check_real("p", self.p, 0.0, 1.0, open_lo=True, open_hi=True)
        if self.kind in ("logistic", "mutation_selection"):
            check_real("beta", self.beta, 0.0, math.inf, open_lo=True, open_hi=True)
        if self.kind == "custom":
            if not callable(self.velocity_fn):
                raise InvalidParameterError("custom drift needs a velocity callable")

    def velocity(self, x: float) -> float:
        if self.kind == "neutral":
            return 0.5 * self.theta * (self.p - x)
        if self.kind == "logistic":
            return 0.5 * self.beta * x * (1.0 - x)
        if self.kind == "mutation_selection":
            return 0.5 * self.theta * (self.p - x) + 0.5 * self.beta * x * (1.0 - x)
        return self.velocity_fn(x)


def neutral_drift(theta: float, p: float) -> DriftSpec:
    return DriftSpec(kind="neutral", theta=theta, p=p)


def logistic_drift(beta: float) -> DriftSpec:
    return DriftSpec(kind="logistic", beta=beta)


def mutation_selection_drift(theta: float, p: float, beta: float) -> DriftSpec:
    return DriftSpec(kind="mutation_selection", theta=theta, p=p, beta=beta)


def custom_drift(velocity) -> DriftSpec:
    """Drift dx/dt = velocity(x); Dormand-Prince error control sets every flow step."""
    return DriftSpec(kind="custom", velocity_fn=velocity)


@dataclass(frozen=True)
class RootPair:
    """Roots r2 < 0 < r1 < 1 of the drift quadratic, with shorthands.

    decay_rate is beta (r1 - r2) / 2, the relaxation rate of the flow;
    b and c are the flow constants from the endpoints 1 and 0.
    """

    theta: float
    beta: float
    p: float
    r1: float
    r2: float

    @property
    def decay_rate(self) -> float:
        return 0.5 * self.beta * (self.r1 - self.r2)

    @property
    def b(self) -> float:
        return (1.0 - self.r1) / (1.0 - self.r2)

    @property
    def c(self) -> float:
        return -self.r1 / self.r2


def roots(theta: float, beta: float, p: float) -> RootPair:
    """Solve chi^2 - (1 - phi) chi - p phi = 0, phi = theta/beta.

    The larger-magnitude root comes from the quadratic formula and the
    other from the exact product -p phi, which avoids cancellation when
    phi is large (weak selection).
    """
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("beta", beta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("p", p, 0.0, 1.0, open_lo=True, open_hi=True)
    phi = theta / beta
    s = 1.0 - phi
    prod = -p * phi
    disc = math.sqrt(s * s - 4.0 * prod)
    if s >= 0.0:
        r1 = 0.5 * (s + disc)
        r2 = prod / r1
    else:
        r2 = 0.5 * (s - disc)
        r1 = prod / r2
    return RootPair(theta=theta, beta=beta, p=p, r1=r1, r2=r2)


# Dormand and Prince (1980), RK5(4)7M for y' = v(y): the rows of stages 2
# to 6, the fifth-order weights (stage 7 sits at the new state, so its slope
# starts the next step), the fifth- minus fourth-order weights of all seven
# stages, which estimate the local error, and the weights of the last
# coefficient of the continuous extension.  Dense output loses about a
# decade against the step tolerance, hence the tight _RTOL and _ATOL.
_DP_A = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
_DP_D = (-12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0, -10690763975.0 / 1880347072.0,
         701980252875.0 / 199316789632.0, -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)
_RTOL, _ATOL = 1e-12, 1e-15


def _dp45(v, y0: float, t_end: float):
    """One trajectory of y' = v(y), y(0) = y0, through t_end, with dense output.

    Dormand-Prince 5(4), advancing with the fifth-order solution.  A step is
    accepted when its error estimate over _ATOL + _RTOL times the larger of
    the old and new magnitude is below 1; the next step is h times
    0.9 err^(-1/5), kept within [0.2, 10] and not above 1 just after a
    rejection, which also holds a stiff drift's step near the stability
    boundary.  No step is cut at t_end: the run stops at the first accepted
    step past it, so no step depends on t_end.
    Returns the accepted steps' starts, widths and coefficients c0..c4, with
    y(start + theta width) = c0 + theta (c1 + (1 - theta) (c2 + theta (c3 +
    (1 - theta) c4))) on theta in [0, 1] (Hairer, Norsett and Wanner (1993),
    Solving ODEs I, secs. II.4 and II.6); or None when the step falls below
    ten float spacings at the current time or is NaN, as v's NaN makes it.
    """
    f0 = v(y0)
    scale = _ATOL + _RTOL * abs(y0)
    d0, d1 = abs(y0) / scale, abs(f0) / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    d2 = abs(v(y0 + h0 * f0) - f0) / scale / h0
    h1 = max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1)
    s, y, ks, steps, rejected = 0.0, y0, [f0], [], False
    while s <= t_end:
        if not h >= 10.0 * (math.nextafter(s, math.inf) - s):
            return None
        ks = ks[:1]
        for row in _DP_A:
            ks.append(v(y + h * sum(a * k for a, k in zip(row, ks))))
        new = y + h * sum(b * k for b, k in zip(_DP_B, ks))
        ks.append(v(new))
        err = abs(h * sum(e * k for e, k in zip(_DP_E, ks))) / (_ATOL + _RTOL * max(abs(y), abs(new)))
        if err < 1.0:
            rise = new - y
            bulge = h * ks[0] - rise
            steps.append((s, h, y, rise, bulge, rise - h * ks[-1] - bulge, h * sum(d * k for d, k in zip(_DP_D, ks))))
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.2)
            s, y, ks = s + h, new, ks[-1:]
            h *= min(1.0, factor) if rejected else factor
            rejected = False
        else:
            h *= max(0.2, 0.9 * err**-0.2)
            rejected = True
    starts, widths, *coef = np.array(steps).T
    return starts, widths, coef


def _flow_read(drift: DriftSpec, chi0: float, ages: np.ndarray) -> np.ndarray:
    """drift's flow from chi0 at each of ages, read from one _dp45 trajectory
    to the largest age; or DomainEscapeError naming chi0, that age and the
    drift kind when the step size underflows, or a state before that age or
    a value read leaves [0, 1]."""
    t = float(np.max(ages))
    inputs = f"chi0 = {chi0!r}, t = {t!r}, {drift.kind} drift"
    traj = _dp45(lambda y: float(drift.velocity(y)), chi0, t)
    if traj is None:
        raise DomainEscapeError(f"flow integration failed ({inputs}): required step size is less than spacing between numbers")
    starts, widths, (c0, c1, c2, c3, c4) = traj
    k = np.searchsorted(starts, ages, side="right") - 1
    theta = (ages - starts[k]) / widths[k]
    chi = c0[k] + theta * (c1[k] + (1.0 - theta) * (c2[k] + theta * (c3[k] + (1.0 - theta) * c4[k])))
    if not all(np.all((y >= -1e-9) & (y <= 1.0 + 1e-9)) for y in (c0, chi)):
        raise DomainEscapeError(f"custom drift pushed the flow outside [0, 1] ({inputs})")
    return np.clip(chi, 0.0, 1.0)


def _exp(x):
    """math.exp for a float, so scalar flows stay Python floats; np.exp for an ndarray."""
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _flow_step(drift: DriftSpec):
    """drift's flow (chi0, t) -> chi(t), its kind and roots resolved once.

    The named kinds' closed forms take floats or float ndarrays alike, and
    t = inf lands on the stable equilibrium.  Custom drift runs one dense
    trajectory per distinct start and reads it at every age; a float start
    and time give a float.
    """
    if drift.kind == "neutral":
        return lambda chi0, t: drift.p + (chi0 - drift.p) * _exp(-0.5 * drift.theta * t)
    if drift.kind == "logistic":
        # The added (chi0 == 0) keeps a start at 0 at 0 where the
        # exponential underflows, and adds nothing elsewhere.
        return lambda chi0, t: chi0 / ((1.0 - chi0) * _exp(-0.5 * drift.beta * t) + chi0 + (chi0 == 0.0))
    if drift.kind == "mutation_selection":
        rp = roots(drift.theta, drift.beta, drift.p)
        r1, r2, rate = rp.r1, rp.r2, rp.decay_rate

        def step(chi0, t):
            ratio = (r1 - chi0) / (chi0 - r2) * _exp(-rate * t)
            return r1 - (r1 - r2) * ratio / (1.0 + ratio)

        return step

    def read(chi0, t):
        chi0, t = np.broadcast_arrays(chi0, t)
        out = np.empty(chi0.shape)
        for c in np.unique(chi0):
            out[chi0 == c] = _flow_read(drift, float(c), t[chi0 == c])
        return out if out.ndim else float(out)

    return read


def flow(drift: DriftSpec, chi0: float, t: float) -> float:
    """Deterministic frequency flow started from chi0, run for time t.

    The named kinds allow t = inf, landing on the stable equilibrium;
    custom drift reads a trajectory integrated to t and needs a finite t.
    """
    check_real("chi0", chi0, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf)
    if drift.kind == "custom" and not math.isfinite(t):
        raise InvalidParameterError("custom drift needs finite t")
    return _flow_step(drift)(chi0, t)


def _skeleton_quadrature(drift: DriftSpec) -> tuple[float, float]:
    """Exp(1)-averaged endpoint flows as integrals over u = e^{-t}; a custom
    drift reads each pass's nodes from one trajectory per endpoint."""
    step = _flow_step(drift)
    with _quad_led_by(f"skeleton quadrature for {drift!r}"):
        p11 = quad_offset(lambda u: step(1.0, -np.log(u)), 1.0)
        p21 = quad_offset(lambda u: step(0.0, -np.log(u)), 1.0)
    return p11, p21


@lru_cache(maxsize=128)
def _skeleton_core(drift: DriftSpec) -> tuple[float, float]:
    """(E mu(T), E nu(T)) for T ~ Exp(1), cached per drift: closed forms for
    the neutral and logistic kinds, else one quadrature of the aged flows,
    which the selection suite checks against their geometric series.
    stationary_density calls this at every evaluation point, so the cache
    makes integrating the density affordable.  DriftSpec is frozen and
    hashes by field values (custom velocity callables by identity).
    """
    if drift.kind == "neutral":
        shrink = 1.0 / (1.0 + 0.5 * drift.theta)
        return drift.p + (1.0 - drift.p) * shrink, drift.p * (1.0 - shrink)
    if drift.kind == "logistic":
        return 1.0, 0.0
    return _skeleton_quadrature(drift)


def skeleton_matrix(drift: DriftSpec) -> np.ndarray:
    """One-replacement transition matrix of the embedded type chain.

    Row 1 is (E mu(T), 1 - E mu(T)) and row 2 is (E nu(T), 1 - E nu(T))
    with T ~ Exp(1).  Neutral drift gives E mu(T) = p + (1-p)/(1 + theta/2)
    and E nu(T) = p (theta/2)/(1 + theta/2); pure selection is absorbing;
    any other drift's aged flows are one quadrature over u = e^{-T}.
    """
    e_mu, e_nu = _skeleton_core(drift)
    return np.array([[e_mu, 1.0 - e_mu], [e_nu, 1.0 - e_nu]])


def replacement_stationary(drift: DriftSpec) -> tuple[float, float]:
    """Stationary law (pi1, pi2) of the embedded replacement-type chain.

    pi1 = E nu(T) / (E nu(T) + 1 - E mu(T)); raises when both flows pin to
    the endpoints (pure selection), where the chain is absorbing and no
    stationary law exists.
    """
    e_mu, e_nu = _skeleton_core(drift)
    denom = e_nu + (1.0 - e_mu)
    if denom < 1e-14:
        raise NoStationaryDistributionError(
            "embedded replacement chain is absorbing; no stationary law"
        )
    pi1 = e_nu / denom
    return pi1, 1.0 - pi1


def _custom_orbit_guard(drift: DriftSpec, lo: float, hi: float, sign: float):
    """Require sign * velocity > 0 on a grid over (lo, hi)."""
    xs = np.linspace(lo, hi, 257)[1:-1]
    for xv in xs:
        if sign * drift.velocity(float(xv)) <= 0.0:
            raise NonMonotoneDriftError(
                "custom drift changes sign inside a flow orbit; stationary "
                "density needs monotone endpoint flows"
            )


def stationary_density(drift: DriftSpec, xi: float) -> float:
    """Stationary density at xi: sum of pi_i e^{-t_i(xi)} / |v(xi)|.

    t_i(xi) is the flow time from endpoint i to xi; a branch contributes
    only where its orbit passes, above the equilibrium for the flow from 1
    and below it for the flow from 0.  The equilibrium itself has measure
    zero and returns 0.  Neutral drift is the two-type transition density at
    t = inf, from x = p.
    """
    check_real("xi", xi, 0.0, 1.0)
    if drift.kind == "neutral":
        return transition_density_eval(TwoTypeParams(drift.theta, drift.p), drift.p, math.inf, xi)
    pi1, pi2 = replacement_stationary(drift)
    if drift.kind == "mutation_selection":
        rp = roots(drift.theta, drift.beta, drift.p)
        speed = 0.5 * drift.beta * abs(xi - rp.r1) * (xi - rp.r2)
        expo = 1.0 / rp.decay_rate
        if rp.r1 < xi < 1.0:
            decay = ((xi - rp.r1) * (1.0 - rp.r2) / ((xi - rp.r2) * (1.0 - rp.r1))) ** expo
            return pi1 * decay / speed
        if 0.0 < xi < rp.r1:
            decay = ((rp.r1 - xi) * (-rp.r2) / ((xi - rp.r2) * rp.r1)) ** expo
            return pi2 * decay / speed
        return 0.0
    # Custom drift: xi lies on the orbit of the endpoint its velocity points
    # away from, reached after the time integral of 1/|v| from xi to that
    # endpoint, offsets measured from xi.  An endpoint at equilibrium never
    # leaves, so its branch is empty.
    if xi in (0.0, 1.0):
        return 0.0
    v_xi = drift.velocity(xi)
    if not (v_xi < 0.0 or v_xi > 0.0):
        return 0.0
    toward, end, weight = (1.0, 1.0, pi1) if v_xi < 0.0 else (-1.0, 0.0, pi2)
    _custom_orbit_guard(drift, min(xi, end), max(xi, end), -toward)
    if drift.velocity(end) == 0.0:
        return 0.0

    def slowness(d: np.ndarray) -> np.ndarray:
        speeds = [abs(float(drift.velocity(y))) for y in (xi + toward * d).ravel().tolist()]
        return 1.0 / np.reshape(speeds, d.shape)

    with _quad_led_by(f"stationary_density(custom drift, xi={xi!r})"):
        t_hit = quad_offset(slowness, abs(end - xi))
    return weight * math.exp(-t_hit) / abs(v_xi)


def stationary_law(drift: DriftSpec) -> MixedLaw:
    """Stationary law as a MixedLaw, for the kinds with closed inverse flows.

    Neutral drift reuses the two-type law.  Mutation with selection splits
    at the interior equilibrium r1: branch masses (pi2, pi1) and exact cdfs
    from the inverse flow (the factor e^{-t(xi)} is the decay term of the
    density).  One function builds both branches, writing the density in
    the offset from r1, since the absolute coordinate cannot resolve the factor
    |xi - r1|^{1/g - 1} within an ulp of the root.  Custom drifts have no
    closed inverse and are served pointwise by stationary_density instead.
    """
    if drift.kind == "neutral":
        return _neutral_stationary_law(TwoTypeParams(theta=drift.theta, p=drift.p))
    if drift.kind == "logistic":
        raise NoStationaryDistributionError(
            "embedded replacement chain is absorbing; no stationary law"
        )
    if drift.kind != "mutation_selection":
        raise InvalidParameterError(
            "stationary_law needs a named drift kind; evaluate custom drifts "
            "through stationary_density and stationary_sample"
        )
    pi1, pi2 = replacement_stationary(drift)
    rp = roots(drift.theta, drift.beta, drift.p)
    r1, r2 = rp.r1, rp.r2
    gap = r1 - r2
    expo = 1.0 / rp.decay_rate
    half_beta = 0.5 * drift.beta

    def flow_piece(end: float, mass: float) -> Piece:
        """The flow from end (0.0 or 1.0) toward r1, in the offset d from r1,
        where xi - r2 = gap + sign d; r2 < 0 < r1 < 1 make far = end - r2 and
        near = |end - r1| exact and positive."""
        sign = 1.0 if end else -1.0
        far, near = end - r2, sign * (end - r1)

        def density(d):
            span = gap + sign * d
            return mass * (d * far / (span * near)) ** expo / (half_beta * d * span)

        def cdf(z: float) -> float:
            u = (sign * (z - r1) * far / ((z - r2) * near)) ** expo
            return mass * (u if end else 1.0 - u)

        lower, upper = (r1, end) if end else (end, r1)
        return Piece(lower, upper, mass, cdf, density, "lower" if end else "upper", near)

    return MixedLaw(
        atoms=(),
        pieces=(flow_piece(0.0, pi2), flow_piece(1.0, pi1)),
        label=f"selection stationary_law(theta={drift.theta!r}, p={drift.p!r}, beta={drift.beta!r})",
    )


def stationary_sample(drift: DriftSpec, rng: RngStream, size=None):
    """Draw from the stationary law: endpoint by pi, age Exp(1), then flow."""
    pi1, _ = replacement_stationary(drift)
    step = _flow_step(drift)
    return _sample(rng, size, lambda gens, m: step((gens[0].random(m) < pi1).astype(float), gens[1].standard_exponential(m)))


def simulate_path(drift: DriftSpec, x: float, horizon: float, rng: RngStream) -> PathRecord:
    """Forward trajectory to a finite horizon: flow between rate-1 jumps."""
    check_real("x", x, 0.0, 1.0)
    check_real("horizon", horizon, 0.0, math.inf, open_lo=True, open_hi=True)
    _check_work("selection.simulate_path", horizon, 1)
    return _jump_path(_flow_step(drift), x, horizon, rng)


def fixation_prob(beta: float, x: float, fixed_type: int) -> float:
    """Absorption probability under pure selection, no mutation.

    The frequency argument is the initial frequency of the queried type.
    With a = 2/beta, u = z^a and r = u^{1/a}, type 1 (favoured) fixes with
    P1(x) = a x int_0^1 z^{a-1} dz / (1 - (1-x)(1-z)) = x int_0^1 du /
    (x + (1-x) r) and type 2 with P2(y) = a y int_0^1 z^a dz /
    (1 - y(1-z)) = y int_0^1 r du / (1 - y + y r).  These are two separate
    integrals, so P1(x) + P2(1-x) = 1 holds only to quadrature accuracy.
    For a >= 1 the root r is singular at u = 0, where the offsets start.
    For a < 1 the layer of width about a below u = 1 is resolved by
    offsets d from u = 1, with r = exp(log1p(-d) / a).
    """
    check_real("beta", beta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("x", x, 0.0, 1.0)
    if fixed_type not in (1, 2):
        raise InvalidParameterError(f"fixed_type must be 1 or 2, got {fixed_type!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    a = 2.0 / beta
    inv_a = 1.0 / a
    # x enters the denominator as itself: 1 - (1 - x) would carry the
    # rounding of 1 - x, relative 1e-16 / x, wherever r is near 0.
    lead, tail = (x, 1.0 - x) if fixed_type == 1 else (1.0 - x, x)

    def kernel(d):
        r = d**inv_a if a >= 1.0 else np.exp(inv_a * np.log1p(-d))
        return (1.0 if fixed_type == 1 else r) / (lead + tail * r)

    with _quad_led_by(f"fixation_prob(beta={beta!r}, x={x!r}, fixed_type={fixed_type!r})"):
        return x * quad_offset(kernel, 1.0)


@dataclass(frozen=True)
class AsgPath:
    """One run of the branching dual to a finite horizon.

    t_ua is the first hit of a single line: 0.0 when starting there, None
    if the horizon came first.
    """

    final_state: int
    t_ua: float | None


def asg_simulate(n: int, beta: float, rng: RngStream, horizon: float) -> AsgPath:
    """Simulate the branching dual from n lines to a finite horizon.

    The run continues through collapses until the horizon; rate-1 events at
    a single line relabel it and are skipped.  States beyond ASG_STATE_CAP
    abort.  ua_time_ensemble gives the ancestor time without a horizon.
    """
    check_int("n", n, 1)
    check_real("beta", beta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("horizon", horizon, 0.0, math.inf, open_lo=True, open_hi=True)
    _check_work("selection.asg_simulate", horizon, 1)
    clock = 0.0
    state = n
    t_ua = 0.0 if n == 1 else None
    while True:
        branch_rate = 0.5 * beta * state
        total = branch_rate + (1.0 if state >= 2 else 0.0)
        clock += rng.gen.exponential() / total
        if clock > horizon:
            return AsgPath(final_state=state, t_ua=t_ua)
        if state >= 2 and rng.gen.random() * total >= branch_rate:
            state = 1
            if t_ua is None:
                t_ua = clock
        else:
            state += 1
            if state >= ASG_STATE_CAP:
                raise _state_cap_abort(n, beta)


def ua_time_ensemble(n: int, beta: float, size: int, rng: RngStream) -> np.ndarray:
    """Ultimate-ancestor times of size independent dual runs.

    Staged over events; replicates still running after k events hold n + k
    lines.  One reaching S = _UA_RESIDUAL_STATE lines adds a fresh Exp(1)
    residual to its clock, exact since the collapse clock has rate 1 at any
    line count.  At beta = 2 that share is exactly n/S of the sample.
    """
    check_int("n", n, 1)
    check_real("beta", beta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_int("size", size, 1)
    t_ua = np.zeros(size)
    if n == 1:
        return t_ua

    def wait(a, total_rate):
        t_ua[a] += rng.gen.standard_exponential(a.size) / total_rate

    active = _replicates(size)
    for s in range(n, _UA_RESIDUAL_STATE):
        if not active.size:
            return t_ua
        rate = 0.5 * beta * s
        _sweep(active, lambda a, r=rate + 1.0: wait(a, r))
        active = _sweep(active, lambda a, r=rate: rng.gen.random(a.size) * (r + 1.0) < r)
    _sweep(active, lambda a: wait(a, 1.0))
    return t_ua


def asg_stationary(beta: float, i: int) -> float:
    """Stationary mass pi_i = (2/beta) (i-1)! / (1 + 2/beta)_(i).

    Up to i = LINE_LAW_N_CAP one integer ratio, rounded once, over _rate_ratios
    at theta = beta: D (i-1)! T^(i-1) / (d[1] ... d[i]).  Log-gamma beyond;
    beta = 2 gives exactly 1/(i (i+1)).
    """
    check_int("i", i, 1)
    check_real("beta", beta, 0.0, math.inf, open_lo=True, open_hi=True)
    try:
        T, D, d = _rate_ratios(beta, i, "stationary dual law")
    except InvalidParameterError:  # i above the cap
        a = 2.0 / beta
        return math.exp(
            math.log(a) + math.lgamma(i) + math.lgamma(a + 1.0) - math.lgamma(a + 1.0 + i)
        )
    return D * math.factorial(i - 1) * T ** (i - 1) / math.prod(d[1:])


def asg_stationary_gf(beta: float, y: float) -> float:
    """sum_i pi_i y^i, the stationary generating function.

    Matches the type-2 fixation probability at argument y.  Terms decay at
    least geometrically in y, so the tail is cut when its geometric bound
    drops below 1e-13; QuadratureError is raised up front, from the
    log-gamma form of pi_i, when that takes over _GF_TERM_BUDGET terms.
    """
    check_real("beta", beta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("y", y, 0.0, 1.0, open_hi=True)
    if y == 0.0:
        return 0.0
    a = 2.0 / beta
    last = _GF_TERM_BUDGET
    log_pi = math.log(a) + math.lgamma(a + 1.0) + math.lgamma(last) - math.lgamma(a + 1.0 + last)
    if log_pi + last * math.log(y) + math.log(y / (1.0 - y)) > math.log(1e-13):
        msg = f"stationary gf at beta={beta!r}, y={y!r} needs over {last} terms"
        raise QuadratureError(msg, math.nan, math.inf)
    term = a / (a + 1.0) * y
    acc = 0.0
    i = 1
    while term * y / (1.0 - y) > 1e-13 or i < 10:
        acc += term
        term *= i / (a + i + 1.0) * y
        i += 1
    return acc + term


def _state_cap_abort(n: int, beta: float) -> SimulationAbortError:
    """The abort of a dual run from n lines at beta that reached the cap."""
    msg = f"branching dual from n = {n} at beta = {beta!r} exceeded ASG_STATE_CAP = {ASG_STATE_CAP} lines"
    return SimulationAbortError(msg)


def asg_count_ensemble(n: int, beta: float, t: float, size: int, rng: RngStream) -> np.ndarray:
    """Line counts B(t) of size independent dual runs with a horizon.

    Uses the exact phase structure: while at least two lines exist the next
    collapse is Exp(1) independent of the branching, which behaves as a
    pure Yule process whose increment over a phase of length u is a sum of
    geometrics with parameter e^{-beta u/2}; a single line dwells Exp(beta/2)
    with the collapse clock paused.  Each loop pass settles one phase, so
    the pass count is of order t.
    """
    check_int("n", n, 1)
    check_real("beta", beta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("t", t, 0.0, math.inf, open_lo=True, open_hi=True)
    check_int("size", size, 1)
    _check_work("selection.asg_count_ensemble", t, size)
    remaining = np.full(size, float(t))
    out = np.zeros(size, dtype=np.int64)

    def dwell(a):
        wait = rng.gen.exponential(scale=2.0 / beta, size=a.size)
        rem = remaining[a]
        out[a[wait >= rem]] = 1
        remaining[a] = rem - wait
        return wait < rem

    def phase(a, lines):
        """Collapse clocks for a, then the Yule totals of the runs they end."""
        ended = []

        def collapse(b):
            # An ended run keeps its geometrics' parameter in remaining.
            wait = rng.gen.standard_exponential(b.size)
            rem = remaining[b]
            go = wait < rem
            ended.append(b[~go])
            remaining[b] = np.where(go, rem - wait, np.exp(-0.5 * beta * rem))
            return go

        a = _sweep(a, collapse)
        # A parameter that underflowed to 0 stands for a count past any cap.
        if any(not remaining[b].all() for b in ended):
            raise _state_cap_abort(n, beta)
        for _ in range(lines):
            for b in ended:
                out[b] += rng.gen.geometric(remaining[b])
                if np.any(out[b] >= ASG_STATE_CAP):
                    raise _state_cap_abort(n, beta)
        return a

    active = _replicates(size)
    if n >= 2:
        active = phase(active, n)
    while active.size:
        active = phase(_sweep(active, dwell), 2)
    return out


def selection_duality_check(
    n: int, x: float, t: float, beta: float, n_mc: int, rng: RngStream
) -> tuple[float, float, tuple[float, float]]:
    """Moment duality for pure selection, both sides Monte Carlo.

    Left: E[xi(t)^n] for the jump process with drift -(beta/2) x (1-x)
    started at x, simulated through the type swap xi = 1 - xi', where xi'
    is the standard logistic-drift process from 1 - x.  Right: E[x^{B(t)}]
    for the branching dual from n lines.

    Returns:
        (lhs, rhs, (lhs standard error, rhs standard error)).
    """
    check_int("n", n, 1)
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf, open_lo=True, open_hi=True)
    check_int("n_mc", n_mc, 2)
    _check_work("selection.selection_duality_check", t, n_mc)
    ends = _jump_endpoints(_flow_step(logistic_drift(beta)), 1.0 - x, t, n_mc, rng)
    np.subtract(1.0, ends, out=ends)
    ends **= n
    lhs, lhs_se = mean_se(ends)
    del ends
    # A run's value x^B(t) depends only on its count.
    counts = np.bincount(asg_count_ensemble(n, beta, t, n_mc, rng))
    rhs, rhs_se = mean_se_of_counts(counts, np.power(float(x), np.arange(counts.size, dtype=float)))
    return lhs, rhs, (lhs_se, rhs_se)
