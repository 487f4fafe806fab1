"""Two-type star-shaped Fleming-Viot process: exact laws and simulation.

The population is totally replaced by one individual's offspring at rate 1,
and between replacements each line mutates at rate theta/2, choosing type 1
with probability p.  Conditioning on the last replacement time gives every
law in closed form: the transition law is an atom (no replacement yet) plus
two density pieces, one per replacement type, separated by a gap of zero
density; at t = inf it is the stationary law.  This module evaluates those
laws, their moments, the per-replacement-count decomposition of the density,
and provides exact samplers and a forward path simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    InvalidParameterError,
    MixedLaw,
    Piece,
    RngStream,
    TwoTypeParams,
    check_int,
    check_real,
    exp_decay_window,
    replacement_decay_integral,
)
from .core import _blocks, _check_work, _replicates, _sample, _select, _sweep

__all__ = [
    "PathRecord",
    "line_kernel",
    "marginal_q",
    "transition_law",
    "transition_density_eval",
    "stationary_law",
    "stationary_density_eval",
    "stationary_sample",
    "transition_moment",
    "sample_transition",
    "simulate_path",
    "path_endpoint_ensemble",
    "replacement_component_density",
]


@dataclass(frozen=True)
class PathRecord:
    """A simulated forward trajectory.

    events holds (time, replacement type, frequency just after) triples in
    increasing time order; frequency is 1.0 after a type-1 replacement and
    0.0 after a type-2 replacement.
    """

    events: tuple[tuple[float, int, float], ...]
    final_frequency: float


def line_kernel(params: TwoTypeParams, t: float) -> np.ndarray:
    """Mutation-only 2x2 matrix: entry ij is P(a type-i line is of type j at t).

    A line keeps its type unless at least one mutation occurs (probability
    1 - e^{-theta t/2}), in which case the last mutation decides the type,
    landing on type 1 with probability p.  t = inf gives rows (p, 1 - p).
    """
    check_real("t", t, 0.0, math.inf)
    e = math.exp(-0.5 * params.theta * t)
    m = -math.expm1(-0.5 * params.theta * t)
    p = params.p
    return np.array([[e + m * p, m * (1.0 - p)], [m * p, e + m * (1.0 - p)]])


def marginal_q(params: TwoTypeParams, x: float, t: float) -> tuple[float, float]:
    """Type distribution of one individual drawn at time t, no replacement.

    q1 = x e^{-theta t/2} + (1 - e^{-theta t/2}) p, written here as
    p + (x-p) e^{-theta t/2} so that x = p is an exact fixed point; t = inf
    gives (p, 1 - p).
    """
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf)
    q1 = params.p + (x - params.p) * math.exp(-0.5 * params.theta * t)
    return q1, 1.0 - q1


def _branch_density(weight, eh, shift, w, far, a: float, scale: float):
    """One replacement branch's density, (weight + eh shift / w) a w^(a-1) / scale.

    w is the branch coordinate and far = 1 - w, measured exactly from the
    other end.  The power is w^(a-1) for w < 1/2, which keeps the w = 0
    limits (inf, a constant 1 at a = 1, and 0), and exp((a-1) log1p(-far))
    above, where a = 2/theta would amplify the rounding of w near 1.  The
    stationary branches are eh = 0.  Takes floats or float ndarrays.
    """
    w = np.asarray(w, dtype=float)
    high = w >= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.power(w, a - 1.0, out=np.empty_like(w))
        power[high] = np.exp((a - 1.0) * np.log1p(-np.asarray(far)[high]))
        return (weight + eh * shift / w if eh else weight) * a * power / scale


def transition_law(params: TwoTypeParams, x: float, t: float) -> MixedLaw:
    """Law of the type-1 frequency at time t started from x.

    Structure: an atom at the mutation-flow point q1(t; x) with mass e^{-t}
    (no replacement yet), a density piece on (p + (1-p)e^{-theta t/2}, 1)
    from type-1 replacements, a mirrored piece on (0, p(1-e^{-theta t/2}))
    from type-2 replacements, and zero density on the middle gap, which
    contains the atom.  Piece masses are closed-form: integrating the type-1
    branch over the last-replacement time gives
    p(1-e^{-t}) + (x-p) K(theta,t) with K the replacement decay integral.
    A piece narrower than an ulp of its far edge holds no float strictly
    inside, so its mass becomes an atom at that edge.  At t = inf the atom
    and every x - p term vanish (K = 0), leaving the stationary law.

    Args:
        params: mutation parameters.
        x: initial frequency in [0, 1].
        t: horizon; t = 0 returns the point mass at x, t = inf the
            stationary law.

    Returns:
        MixedLaw with exact component masses.
    """
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf)
    label = f"transition_law(theta={params.theta!r}, p={params.p!r}, x={x!r}, t={t!r})"
    theta, p, q = params.theta, params.p, 1.0 - params.p
    a = 2.0 / theta
    delta = 1.0 - 0.5 * theta
    eh = math.exp(-0.5 * theta * t)
    mix = -math.expm1(-0.5 * theta * t)
    atom_mass = math.exp(-t)
    s = -math.expm1(-t)
    big_k = replacement_decay_integral(theta, t) if t < math.inf else 0.0
    # Shared subexpressions so the atom lands exactly on a gap edge when
    # x is 0 or 1; p + (x-p) eh would differ from the edge by an ulp.
    q1 = x * eh + p * mix

    def branch(end, weight, shift, scale, mass):
        """One replacement branch: type 1 above p (end 1.0), type 2 below (end 0.0).

        Its density is written in the offset d from the piece edge nearest
        p, where both branches have a boundary layer of width eh that the
        absolute coordinate cannot resolve once eh is below an ulp of p.
        Its cdf is the head form above p and the tail form below.  None
        when massless, else the Piece or its edge atom.
        """
        if not mass > 0.0:
            return None
        width = scale * mix
        lower, upper = (eh + p * mix, 1.0) if end else (0.0, width)
        if not lower < upper:
            return end, mass

        def cdf(xi, _end=end, _w=weight, _s=shift, _c=scale, _p=p, _a=a, _d=delta, _t=t, _am=atom_mass, _K=big_k):
            v = (xi - _p) / _c if _end else 1.0 - xi / _c
            win = exp_decay_window(_d, _t, _t + _a * math.log(v)) if _t < math.inf else 0.0
            return _w * (v**_a - _am) + _s * win if _end else _w * (1.0 - v**_a) + _s * (_K - win)

        return Piece(
            lower=lower,
            upper=upper,
            mass=mass,
            cdf=cdf,
            offset_density=lambda d: _branch_density(weight, eh, shift, eh + d / scale, (width - d) / scale, a, scale),
            offset_side="lower" if end else "upper",
            offset_width=width,
        )

    mass_up = p * s + (x - p) * big_k
    parts = (branch(1.0, p, x - p, q, mass_up), branch(0.0, q, p - x, p, s - mass_up))
    pieces = [b for b in parts if isinstance(b, Piece)]
    atoms = [b for b in parts if isinstance(b, tuple)]
    # e^{-t} underflows past t ~ 745, and a massless atom is no atom.
    if atom_mass > 0.0:
        atoms.append((q1, atom_mass))
    return MixedLaw(atoms=tuple(atoms), pieces=tuple(pieces), label=label)


def transition_density_eval(params: TwoTypeParams, x: float, t: float, xi: float) -> float:
    """Continuous-part density of the transition law at xi.

    Returns 0 on the closed middle gap and outside [0, 1]; the atom at
    q1(t; x) is not represented here.  t = inf is allowed and gives the
    stationary branches.
    """
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf, open_lo=True)
    check_real("xi", xi, -math.inf, math.inf)
    theta, p, q = params.theta, params.p, 1.0 - params.p
    a = 2.0 / theta
    eh = math.exp(-0.5 * theta * t)
    if eh + p * -math.expm1(-0.5 * theta * t) < xi <= 1.0:
        return float(_branch_density(p, eh, x - p, (xi - p) / q, (1.0 - xi) / q, a, q))
    if 0.0 <= xi < p * -math.expm1(-0.5 * theta * t):
        return float(_branch_density(q, eh, p - x, 1.0 - xi / p, xi / p, a, p))
    return 0.0


def stationary_law(params: TwoTypeParams) -> MixedLaw:
    """Stationary law: transition_law at t = inf, labelled as this call.

    Mass p above p with density p (2/theta) w^{2/theta - 1} / (1-p),
    w = (xi-p)/(1-p), mirrored below p with mass 1-p; Uniform(0,1) at
    theta = 2, p = 1/2.
    """
    law = transition_law(params, params.p, math.inf)
    return replace(law, label=f"stationary_law(theta={params.theta!r}, p={params.p!r})")


def stationary_density_eval(params: TwoTypeParams, xi: float) -> float:
    """Pointwise stationary density: transition_density_eval at t = inf, and
    at xi = p the upper branch's limit (inf for theta > 2), which the lower
    one matches except at theta = 2 with p != 1/2."""
    check_real("xi", xi, 0.0, 1.0)
    if xi == params.p:
        return float(_branch_density(params.p, 0.0, 0.0, 0.0, 1.0, 2.0 / params.theta, 1.0 - params.p))
    return transition_density_eval(params, params.p, math.inf, xi)


def stationary_sample(params: TwoTypeParams, rng: RngStream, size=None):
    """Exact stationary draw(s): sample_transition at t = inf, where x drops
    out; p + (1 - p) e^{-theta tau/2} with probability p, else p - p e^{-theta tau/2}."""
    return sample_transition(params, params.p, math.inf, rng, size)


def _alternating_gap(p: float, m: int) -> float:
    """(1 - p)^m - (-p)^m in O(1); for even m, +-big^m (1 - (small/big)^m),
    with log(small/big) from the exact 1 - 2p on [1/4, 3/4], where the powers
    cancel, and taken directly outside, where 1 - |1 - 2p|/big rounds to 0."""
    q = 1.0 - p
    if m % 2:
        return q**m + p**m
    big = max(p, q)
    r = math.log1p(-abs(1.0 - 2.0 * p) / big) if 0.25 <= p <= 0.75 else math.log(min(p, q) / big)
    gap = -(big**m) * math.expm1(m * r)
    return gap if p <= 0.5 else -gap


def transition_moment(params: TwoTypeParams, n: int, x: float, t: float) -> float:
    """E_x[(xi(t) - p)^n] in closed form.

    Three terms: the decaying n-th power, the stationary contribution, and a
    cross term linear in (x - p).  Valid for all n >= 0 including t = 0 and
    t = inf, the stationary moment; n = 0 short-circuits to 1 because the cross-term bracket
    vanishes only symbolically there (the denominator 2/theta - 1 can be 0).
    """
    check_int("n", n, 0)
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf)
    if n == 0:
        return 1.0
    theta, p = params.theta, params.p
    a = 2.0 / theta
    dx = x - p
    rate_n = (1.0 + 0.5 * n * theta) * t
    main = math.exp(-rate_n) * dx**n
    stat = (a / (n + a)) * p * (1.0 - p) * _alternating_gap(p, n - 1) * -math.expm1(-rate_n)
    cross = (
        dx
        * math.exp(-0.5 * theta * t)
        * (a / (n - 1.0 + a))
        * _alternating_gap(p, n)
        * -math.expm1(-(1.0 + 0.5 * (n - 1) * theta) * t)
    )
    return main + stat + cross


def _check_raw_moment_n(n: int) -> None:
    """Raise InvalidParameterError, before any work, past n = 1029, where
    C(n, n/2) no longer converts to a float as _raw_moment's sum holds it."""
    if n > 1029:
        raise InvalidParameterError(f"raw moment n={n!r} exceeds 1029: C(n, n/2) overflows a float")


def _raw_moment(params: TwoTypeParams, n: int, x: float, t: float) -> float:
    """E_x[xi(t)^n] = sum_k C(n,k) p^(n-k) E_x[(xi(t) - p)^k], summed by fsum."""
    _check_raw_moment_n(n)
    return math.fsum(math.comb(n, k) * params.p ** (n - k) * transition_moment(params, k, x, t) for k in range(n + 1))


def sample_transition(params: TwoTypeParams, x: float, t: float, rng: RngStream, size=None):
    """Exact draw(s) from the transition law, t in (0, inf].

    Uses the last-replacement representation: the back-distance tau to the
    last replacement is Exp(1).  If tau >= t (probability e^{-t}) return the
    atom q1(t; x); otherwise choose branch 1 with probability q1(t - tau; x)
    and return p_{11}(tau) or p_{21}(tau).  At t = inf the atom has mass 0
    and q1 is p, so the draws do not depend on x: the stationary law.

    Args:
        size: None for the one draw of size=1, else an ensemble shape.  A
            call draws prod(size) doubles from rng for each of u (the
            back-distance) and u_type in turn, each one PCG64 output, so the
            k-th of a series of equal-size calls starts 2 k prod(size)
            outputs past the first; the transition-moments suite relies on this.
    """
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf, open_lo=True)
    draw = lambda gens, m: _transition_from_uniforms(params, x, t, *(g.random(m) for g in gens))
    return _sample(rng, size, draw)


def _transition_blocks(params: TwoTypeParams, x: float, t: float, rng: RngStream, size: int, k: int):
    """Yield (slice, draws), block by block and without moving rng, for the
    draws of the k-th of a series of sample_transition(., size) calls on rng.
    Each block's draws are a new array, which the caller may overwrite."""
    gens = [rng.ahead(size * (2 * k + j)) for j in range(2)]
    for s in _blocks(size):
        m = s.stop - s.start
        yield s, _transition_from_uniforms(params, x, t, *(g.random(m) for g in gens))


def _transition_from_uniforms(params: TwoTypeParams, x: float, t: float, u, u_type):
    """The transition draws sample_transition makes from its two uniform
    runs, which it overwrites.  log(1 - u), in [-36.7, 0], is minus the
    Exp(1) back-distance tau; the draw is the atom iff tau >= t, else
    p + (1[u_type < q1(t - tau; x)] - p) e^{-theta tau/2}.  Both exponents
    are clamped to [-1e3, 0], where exp is 0.0 already, so none overflows.
    At t = inf the atom (of mass 0) and q1 are p, set directly, as
    transition_law sets K = 0 there: a theta that halves to 0 makes
    theta t/2 = 0 * inf NaN, which leaves the cap at t."""
    rate, p = 0.5 * params.theta, params.p
    cap = 1e3 / rate if rate * t > 1e3 else t
    log_v = np.log(np.subtract(1.0, u, out=u), out=u)
    if t < math.inf:
        atom = p + (x - p) * math.exp(-rate * t)
        q1_back = p + (x - p) * np.exp(-rate * np.clip(log_v + t, 0.0, cap))
    else:
        atom = q1_back = p
    draw = np.less(u_type, q1_back, out=u_type)
    draw -= p
    draw *= np.exp(rate * np.maximum(log_v, -cap))
    draw += p
    return _select(np.greater(log_v, -t, out=log_v), draw, atom)


def _jump_path(step, x: float, horizon: float, rng: RngStream) -> PathRecord:
    """Scalar forward engine: rate-1 jumps to 1 or 0, flow in between.

    step(freq, elapsed) is the deterministic flow over elapsed time.  Each
    event draws one Exp(1) wait and then one uniform; the frequency just
    before the jump, step(freq, wait), is the probability of jumping to 1.
    The wait that overshoots the horizon is drawn and discarded, and the
    final frequency flows from the last jump to the horizon.  The caller
    validates x and a finite horizon, and bounds the work by _check_work.
    """
    # Scalar numpy draws cost more than the rest of an event, so the bound
    # methods are looked up once; standard_exponential() returns exactly
    # the values of exponential() from the same stream, with less overhead.
    exponential, uniform = rng.gen.standard_exponential, rng.gen.random
    events = []
    clock = 0.0
    freq = x
    while True:
        wait = exponential()
        if clock + wait > horizon:
            break
        clock += wait
        freq = 1.0 if uniform() < step(freq, wait) else 0.0
        events.append((clock, 1 if freq == 1.0 else 2, freq))
    return PathRecord(tuple(events), step(freq, horizon - clock))


def _jump_endpoints(step, x: float, t: float, size: int, rng: RngStream) -> np.ndarray:
    """Staged forward engine: endpoints at t of size paths from x.

    The same process as _jump_path with step acting on arrays.  Each stage
    draws one Exp(1) wait for every still-active path and one uniform for
    each path whose event lands by t; the rest are finalized by the flow.
    The stage count is the largest event count, which concentrates near
    t + O(sqrt(t log size)).  The caller validates x, t and the work.
    """
    clock = np.zeros(size)
    freq = np.full(size, float(x))

    def land(a):
        # Until its uniform, a landed path's freq holds its chance of a 1.
        wait = rng.gen.standard_exponential(a.size)
        landed = clock[a] + wait
        hit = landed <= t
        kept = np.flatnonzero(hit)
        a = a.take(kept)
        clock[a] = landed.take(kept)
        freq[a] = step(freq[a], wait.take(kept))
        return hit

    def jump(a):
        freq[a] = rng.gen.random(a.size) < freq[a]

    active = _replicates(size)
    while active.size:
        active = _sweep(active, land)
        _sweep(active, jump)
    for s in _blocks(size):
        freq[s] = step(freq[s], t - clock[s])
    return freq


def simulate_path(params: TwoTypeParams, x: float, horizon: float, rng: RngStream) -> PathRecord:
    """Forward jump-process trajectory on [0, horizon], horizon finite.

    Replacement epochs arrive at rate 1.  Between epochs the frequency
    follows the deterministic mutation flow toward p; at an epoch the whole
    population becomes type 1 with probability equal to the current
    frequency (setting it to 1), else type 2 (setting it to 0).
    """
    check_real("x", x, 0.0, 1.0)
    check_real("horizon", horizon, 0.0, math.inf, open_lo=True, open_hi=True)
    _check_work("twotype.simulate_path", horizon, 1)
    p, decay = params.p, -0.5 * params.theta
    return _jump_path(lambda f, w: p + (f - p) * math.exp(decay * w), x, horizon, rng)


def path_endpoint_ensemble(
    params: TwoTypeParams, x: float, t: float, n_paths: int, rng: RngStream
) -> np.ndarray:
    """Endpoint frequencies at finite t of n_paths independent trajectories."""
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf, open_hi=True)
    check_int("n_paths", n_paths, 1)
    _check_work("twotype.path_endpoint_ensemble", t, n_paths)
    p, decay = params.p, -0.5 * params.theta
    return _jump_endpoints(lambda f, w: p + (f - p) * np.exp(decay * w), x, t, n_paths, rng)


def _component_branch(weight, eh, shift, w, gap, u, k: int, theta_t: float, log_poisson: float):
    """One branch of replacement_component_density, 2k (weight + shift eh / w)
    u^(k-1) e^{log_poisson} / (theta t gap), gap = |xi - p|, at floats or
    float ndarrays of w, gap and u."""
    return (2.0 * k * (weight + shift * eh / w) / (theta_t * gap)) * u ** (k - 1) * math.exp(log_poisson)


def replacement_component_density(
    params: TwoTypeParams, x: float, t: float, k: int, xi: float
) -> float:
    """Joint density of exactly k replacements in (0, t) and frequency xi.

    Supported on the same two intervals as the transition density; the sum
    over k >= 1 recovers it, and each component integrates to the Poisson
    weight e^{-t} t^k / k!.  The factor u = 1 + (2/(theta t)) log w is the
    conditional position of the last of k uniformly ordered replacements.
    """
    check_int("k", k, 1)
    check_real("x", x, 0.0, 1.0)
    check_real("t", t, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("xi", xi, -math.inf, math.inf)
    theta, p = params.theta, params.p
    eh = math.exp(-0.5 * theta * t)
    log_poisson = k * math.log(t) - t - math.lgamma(k + 1.0)
    if eh + p * -math.expm1(-0.5 * theta * t) < xi <= 1.0:
        w = (xi - p) / (1.0 - p)
        u = 1.0 + 2.0 * math.log(w) / (theta * t)
        return _component_branch(p, eh, x - p, w, xi - p, u, k, theta * t, log_poisson)
    if 0.0 <= xi < p * -math.expm1(-0.5 * theta * t):
        v = 1.0 - xi / p
        u = 1.0 + 2.0 * math.log(v) / (theta * t)
        return _component_branch(1.0 - p, eh, p - x, v, p - xi, u, k, theta * t, log_poisson)
    return 0.0
