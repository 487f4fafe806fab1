"""Shared numeric substrate for the star-shaped replacement process library.

This module holds the pieces every other module leans on: the validated
two-type parameter bundle, the mixed atom-plus-density law on [0, 1] that all
transition and stationary distributions take, deterministic seedable RNG
streams for reproducible Monte Carlo, the ensemble mean and standard error,
and quadrature.

Quadrature contract: every integral either meets the fixed tolerance of
1e-11, absolute or relative to its value, within 400 panel bisections, or
raises QuadratureError.  There is one integrator, quad_offset: a vectorized
Gauss-Kronrod rule in the log of the distance from one end of the
interval, which calls its integrand on float ndarrays.  It resolves the
power-law endpoint singularities and boundary layers these laws produce,
and integrates smooth integrands as well.  It marches outward in that log
until a tail bound fitted to the integrand's decay falls below 2^-70 of
the value, or down to offsets of 1e-250 times the width, where the bound
must stay within half the tolerance.  Roots of monotone scalar functions,
such as piece cdfs, come from one bracketing finder, brent_root.  Nothing
here, nor anywhere in the package, imports scipy.

Concurrency model: all evaluators are pure functions of their arguments, and
samplers mutate only the RngStream passed to them.  Parallel Monte Carlo is
sharded by giving each worker its own stream_index, or, to split one
stream's draws exactly, its own RngStream.ahead position; results are then
merged by deterministic reduction.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "StarcoalError",
    "InvalidParameterError",
    "QuadratureError",
    "NoStationaryDistributionError",
    "DomainEscapeError",
    "NonMonotoneDriftError",
    "SimulationAbortError",
    "SIM_WORK_CAP",
    "LINE_LAW_N_CAP",
    "TwoTypeParams",
    "RngStream",
    "quad_offset",
    "brent_root",
    "Piece",
    "MixedLaw",
    "replacement_decay_integral",
    "exp_decay_window",
    "check_real",
    "check_int",
    "mean_se",
    "mean_se_of_sums",
    "mean_se_of_counts",
    "shifted_sums",
]


class StarcoalError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(StarcoalError, ValueError):
    """An argument violates a documented precondition."""


class QuadratureError(StarcoalError, RuntimeError):
    """Adaptive integration did not reach the requested tolerance.

    Carries the best available estimate and an error bound so callers can
    decide whether to degrade gracefully or abort.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.message = message
        self.estimate = estimate
        self.error_bound = error_bound


class NoStationaryDistributionError(StarcoalError, RuntimeError):
    """The requested stationary object does not exist (absorbing dynamics)."""


class DomainEscapeError(StarcoalError, RuntimeError):
    """A numerically integrated flow left the frequency domain [0, 1]."""


class NonMonotoneDriftError(StarcoalError, ValueError):
    """A custom drift produced a non-monotone flow where monotonicity is required."""


class SimulationAbortError(StarcoalError, RuntimeError):
    """A simulation exceeded its configured growth or iteration guard."""


# ---------------------------------------------------------------------------
# Argument checks
# ---------------------------------------------------------------------------


def check_real(name: str, value, lo: float, hi: float, *, open_lo=False, open_hi=False):
    """Require lo <= value <= hi, with either end optionally open.

    NaN fails every comparison and so is always rejected; an infinite value
    passes only through a closed infinite end, so hi = inf with open_hi
    means "finite".  Non-numbers are rejected rather than raising TypeError.
    """
    try:
        if (lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi):
            return
    except TypeError:
        pass
    span = f"{'(' if open_lo else '['}{float(lo)!r}, {float(hi)!r}{')' if open_hi else ']'}"
    raise InvalidParameterError(f"{name} must lie in {span}, got {value!r}")


def check_int(name: str, value, minimum: int):
    """Require an integer (Python or numpy) no smaller than minimum."""
    try:
        if operator.index(value) >= minimum:
            return
    except TypeError:
        pass
    raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_size(name: str, value) -> tuple:
    """Require None, an integer >= 1 or a tuple of them; return the shape, () for None."""
    dims = () if value is None else value if isinstance(value, tuple) else (value,)
    try:
        if all(operator.index(v) >= 1 for v in dims):
            return dims
    except TypeError:
        pass
    raise InvalidParameterError(f"{name} must be None or a shape of integers >= 1, got {value!r}")


def shifted_sums(values, shift: float = 0.0) -> tuple[float, float]:
    """sum(x - shift) and sum((x - shift)^2) over an ndarray.  The dot is
    einsum's: OpenBLAS runs a long dot on its own threads, which contend
    with a caller's thread pool."""
    y = values - shift if shift else values
    return float(y.sum()), float(np.einsum("i,i->", y, y))


def mean_se_of_sums(n: int, shift: float, total: float, sumsq: float) -> tuple[float, float]:
    """Mean and standard error of n values from their shifted_sums about
    shift; the nearer shift is to the mean, the fewer digits cancel."""
    mean = total / n
    return shift + mean, math.sqrt((sumsq - total * mean) / (n - 1) / n)


def mean_se_of_counts(counts, values) -> tuple[float, float]:
    """Mean and standard error of a sample of counts[k] copies of values[k],
    by exact sums (fsum); mean_se of the expanded sample agrees to rounding."""
    c = np.asarray(counts, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    n = float(c.sum())
    mean = math.fsum(c * v) / n
    dev = v - mean
    return mean, math.sqrt(math.fsum(c * dev * dev) / (n - 1) / n)


def mean_se(values) -> tuple[float, float]:
    """Sample mean and standard error of the mean, in one pass over values.

    The mean is sum / n, bitwise what values.mean() returns, and the sums
    are taken about 0.  When sumsq - sum * mean cancels more than three
    digits (values nearly constant), the standard error is recomputed from
    the sums about the mean instead.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise InvalidParameterError(f"mean_se needs at least 2 values, got {n}")
    total, sumsq = shifted_sums(x)
    mean = total / n
    if sumsq - total * mean < 1e-3 * sumsq:
        return mean, mean_se_of_sums(n, mean, *shifted_sums(x, mean))[1]
    return mean_se_of_sums(n, 0.0, total, sumsq)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoTypeParams:
    """Mutation parameters of the two-type model.

    theta is the total mutation rate per line (each line mutates at rate
    theta / 2) and p is the probability that a mutation produces type 1.
    Boundary values are rejected: supports and several denominators
    degenerate at p in {0, 1} or theta == 0, and callers who want boundary
    behaviour should take limits instead.
    """

    theta: float
    p: float

    def __post_init__(self):
        check_real("theta", self.theta, 0.0, math.inf, open_lo=True, open_hi=True)
        check_real("p", self.p, 0.0, 1.0, open_lo=True, open_hi=True)


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RngStream:
    """A deterministic, independently seeded random stream.

    Two streams built from the same (base_seed, stream_index) produce
    identical sequences; distinct stream_index values give statistically
    independent streams from the same base seed, which is how parallel Monte
    Carlo is sharded.  Internally this is numpy's PCG64 keyed through
    SeedSequence spawn keys.
    """

    base_seed: int
    stream_index: int = 0
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        check_int("base_seed", self.base_seed, 0)
        check_int("stream_index", self.stream_index, 0)
        if operator.index(self.base_seed) >= 2**64:
            raise InvalidParameterError(f"base_seed must be below 2**64, got {self.base_seed!r}")
        seq = np.random.SeedSequence(entropy=self.base_seed, spawn_key=(self.stream_index,))
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def ahead(self, outputs: int) -> np.random.Generator:
        """A new generator `outputs` PCG64 outputs (doubles of random())
        past this stream.  It advances a copy of the bit generator: the
        stream it was built from never moves.  The batch engines draw only
        variates made of whole 64-bit outputs, so advance matches drawing."""
        check_int("outputs", outputs, 0)
        bits = np.random.PCG64(0)
        bits.state = self.gen.bit_generator.state
        return np.random.Generator(bits.advance(outputs))


# Replicates per block of the batch engines, which hold their outputs, their
# per-replicate state and a few blocks.  Smaller blocks lose time to Python
# and, on pool threads, to the GIL; larger ones leave more memory behind.
_BLOCK = 1 << 15


def _blocks(size: int):
    """Consecutive slices of range(size), _BLOCK long but for the last."""
    return (slice(lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK))


# The most expected work a forward simulation may take.  count replicates
# to horizon t expect t rate-1 events each, and one staged pass per unit of
# t costs about 1000 events' interpreter time: work t (count + 1000).  At
# about 50 ns a unit, the largest call allowed runs for a minute or so.  The
# backward line engines (5-21 ns a unit) pass their n + 1 stages as horizon.
SIM_WORK_CAP = 1e9

# The largest n of the exact line-count laws, which grow as n^2 to n^3 in
# big-integer work, and of eigen_poly's P_n, which holds n + 1 floats.  At
# n = 2000, theta = 0.1, t = 0.3 the direct law takes about 1 s and the
# spectral one about 11 s.
LINE_LAW_N_CAP = 2000


def _dyadic(x: float) -> tuple[int, int]:
    """Split a float into (m, e) with x == m / 2^e exactly."""
    m, den = float(x).as_integer_ratio()
    return m, den.bit_length() - 1


def _rate_ratios(theta: float, n: int, law: str) -> tuple[int, int, list[int]]:
    """(T, D, d) with theta = T / 2^c, D = 2^{c+1} and d[m] = D + m T, m = 0..n.

    The exact rate form of every rising-factorial law in a = 2/theta:
    1 + m theta/2 = d[m] / D and a + m = d[m] / T.  n above LINE_LAW_N_CAP
    raises before any big-integer work, naming the law.
    """
    if n > LINE_LAW_N_CAP:
        raise InvalidParameterError(f"{law} for n={n!r}, theta={theta!r} exceeds LINE_LAW_N_CAP = {LINE_LAW_N_CAP}")
    T, c = _dyadic(theta)
    D = 1 << (c + 1)
    return T, D, [D + m * T for m in range(n + 1)]


def _check_work(call: str, horizon: float, count: int) -> None:
    """Raise SimulationAbortError, before any draw, when count replicates
    of call to horizon expect more work than SIM_WORK_CAP."""
    if horizon * (count + 1000) > SIM_WORK_CAP:
        raise SimulationAbortError(f"{call} to horizon {horizon!r} with {count} replicates exceeds SIM_WORK_CAP = {SIM_WORK_CAP:g}")


def _sample(rng: RngStream, size, draw, width=()):
    """A sample of shape size + width, drawn block by block, equal to what
    one-shot code drawing two consecutive runs of prod(size) variates
    gives.  draw(gens, m) returns m rows from gens, one generator per run
    at the block's place in it.  The second is rng itself, moved past the
    first run, so its variates may take several outputs each (Exp(1)).
    size=None is the one draw of size=1, as a float or a row of width."""
    shape = check_size("size", size) or (1,)
    n = math.prod(shape)
    gens = [rng.ahead(0), rng.gen]
    rng.gen.bit_generator.advance(n)
    out = np.empty((n, *width))
    for s in _blocks(n):
        out[s] = draw(gens, s.stop - s.start)
    if size is None:
        return out[0] if width else float(out[0])
    return out.reshape(*shape, *width)


def _replicates(size: int) -> np.ndarray:
    """Indices 0..size-1 of an ensemble's replicates, int32 below 2^31."""
    return np.arange(size, dtype=np.int32 if size < 2**31 else np.intp)


def _select(m: np.ndarray, v: np.ndarray, w) -> np.ndarray:
    """np.where(m, v, w) bit for bit, for m in {0., 1.} and finite v, w other than -0.0: v m + w (1 - m), in place."""
    v *= m
    np.subtract(1.0, m, out=m)
    m *= w
    v += m
    return v


def _sweep(active: np.ndarray, visit) -> np.ndarray:
    """One stage of a staged engine: visit(block) on active's blocks in
    order, drawing in replicate order.  visit returns None to keep all, or a
    mask of those kept, compacted in place (flatnonzero, take) to a view it returns."""
    kept = 0
    for s in _blocks(active.size):
        block = active[s]
        mask = visit(block)
        if mask is not None:
            block = block.take(np.flatnonzero(mask))
        active[kept : kept + block.size] = block
        kept += block.size
    return active[:kept]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21): the
# non-negative nodes from the outside in, their Kronrod weights, and the
# weights of the embedded 10-point Gauss rule, which uses every other node.
_GK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208703349798, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG_HALF = np.zeros(11)
_WG_HALF[1::2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651623,
)
_GK_X = np.concatenate([-_GK_HALF, _GK_HALF[-2::-1]])
_GK_WK = np.concatenate([_WK_HALF, _WK_HALF[-2::-1]])
_GK_WKG = _GK_WK - np.concatenate([_WG_HALF, _WG_HALF[-2::-1]])
_GRADE = 8.0 ** np.arange(-18, 0)  # quad_offset's first panel edges, in steps
_EDGES = np.concatenate([[0.0], _GRADE, np.arange(1.0, 193.0)])  # all, to the deepest floor (192 steps)
# quad_offset's first pass, to s = 18 steps (about 54), and the share of
# its value below which a fitted tail stops the march.  Passes add panels
# in fours, OpenBLAS's gemv row block, so each sums as in one full pass.
_PROBE, _TAIL_SHARE = _GRADE.size + 18, 2.0**-70
# quad_offset's tolerance, absolute or relative to the value, whichever is
# larger, and its budget of panel bisections.
_TOL, _BISECTIONS = 1e-11, 400


def _offset_panels(f_off, width: float, lo: np.ndarray, half: np.ndarray):
    """Kronrod values, |Kronrod - Gauss| and node values of g, one per panel.

    g(s) = f_off(delta) * delta at delta = width * e^{-s}, one f_off call for
    every node of every panel; f_off must return one value per node, and a
    non-finite g raises.
    """
    off = width * np.exp(-((lo + half)[:, None] + half[:, None] * _GK_X))
    with np.errstate(all="ignore"):
        try:
            f = np.asarray(f_off(off), dtype=float)
        except TypeError as exc:
            raise InvalidParameterError(
                f"offset integrand over width {width!r} must accept a float ndarray: {exc}"
            ) from exc
        if f.shape not in ((), off.shape):
            raise InvalidParameterError(f"offset integrand over width {width!r} must return one value per node")
        g = f * off
    bad = ~np.isfinite(g)
    if bad.any():
        msg = f"offset integrand over width {width!r} is not finite at offset {float(off[bad][0])!r}"
        raise QuadratureError(msg, math.nan, math.inf)
    return half * (g @ _GK_WK), np.abs(half * (g @ _GK_WKG)), g


def _tail_fit(nodes: list[float], span: float, value: float) -> tuple[float, float, float]:
    """Fit |g| ~ e^{-k s} across one panel from g at its 21 nodes, the outermost span apart.

    Returns k, the bound |g(s_end)| / k on the mass beyond the panel, and
    how much further in s that bound falls below _TAIL_SHARE of |value|: 0
    if it is below already, inf if |g| does not decay or strays from the fit
    by over a factor 2 at the middle node, as it does near a root.
    """
    inner, mid, outer = abs(nodes[0]), abs(nodes[10]), abs(nodes[-1])
    rate = (math.log(inner) - math.log(outer)) / span if min(inner, outer) > 0.0 else -math.inf
    tail = outer / rate if rate > 0.0 else math.inf if outer else 0.0
    share = _TAIL_SHARE * abs(value)
    if mid > 2.0 * math.sqrt(inner) * math.sqrt(outer):
        return rate, tail, math.inf
    if tail <= share:
        return rate, tail, 0.0
    return rate, tail, math.log(tail / share) / rate if rate > 0.0 and share > 0.0 else math.inf


@contextmanager
def _quad_led_by(lead: str):
    """Re-raise a QuadratureError from the block with lead, its call, in front."""
    try:
        yield
    except QuadratureError as exc:
        raise QuadratureError(f"{lead}: {exc.message}", exc.estimate, exc.error_bound) from None


def quad_offset(f_off, width: float) -> float:
    """Integrate f_off(delta) for delta in (0, width], delta measured from 0.

    The offset parametrization is the accurate way to integrate a density
    toward a difficult endpoint: offsets are exact doubles at every scale,
    so steep layers and integrable power blow-ups near delta == 0 can be
    resolved far below one ulp of the endpoint's absolute position.  The
    substitution delta = width * e^{-s} turns a power law d^(k-1) into
    g(s) = f_off(delta) delta ~ e^{-k s}, which 21-point Gauss-Kronrod panels
    of width about 3, graded geometrically toward s = 0, integrate.  The
    panels march outward in s.  The first pass reaches s of about 54, and
    the mass beyond the deepest panel is bounded by fitting |g| ~ e^{-k s}
    across it.  Where that bound exceeds 2^-70 of the value, the next pass
    goes straight to the depth the fit says is enough, at most the floor
    delta = 1e-250 * width; there the bound is not added but must stay
    within half the tolerance, 1e-11 * max(1, |value|).  f_off receives
    every node of a pass at once as a float ndarray.  The error of a panel
    is taken as |Kronrod - Gauss|; while their sum exceeds half the
    tolerance, the panels that carry the excess are bisected and evaluated
    again.

    Raises:
        QuadratureError: the panels miss the tolerance within 400
            bisections, the bounded mass below the floor exceeds half the
            tolerance (for a unit mass near d^(k-1), k below about 0.05),
            or f_off returns a non-finite value.
        InvalidParameterError: f_off does not accept an ndarray or does
            not return one value per node.
    """
    check_real("width", width, 0.0, math.inf, open_lo=True, open_hi=True)
    floor = max(64.0 * 5e-324, width * 1e-250)
    depth = max(math.log(width / floor), 3.0)
    count = math.ceil(depth / 3.0)
    # The first panel is graded toward s = 0, down to the float resolution
    # of offsets near width: a density that piles up at the far end of the
    # piece, like a w^(a-1) for large a, holds its mass within 1/a of s = 0,
    # where panels of width 3 would place no node.
    edges = depth / count * _EDGES[: _GRADE.size + count + 1]
    halves = 0.5 * (edges[1:] - edges[:-1])
    # March outward in s from the first _PROBE panels, on to the depth where
    # the fitted tail falls below its share, at most to the floor.
    end = min(_PROBE, halves.size)
    lo, half = edges[:end], halves[:end]
    kron, err, g = _offset_panels(f_off, width, lo, half)
    while True:
        rate, tail, more = _tail_fit(g[-1].tolist(), 2.0 * float(half[-1] * _GK_X[-1]), math.fsum(kron.tolist()))
        if end == halves.size or not more:
            break
        new = min(halves.size, end + 4 * math.ceil((int(np.searchsorted(edges, edges[end] + more)) - end) / 4))
        new_kron, new_err, g = _offset_panels(f_off, width, edges[end:new], halves[end:new])
        lo, half, end = edges[:new], halves[:new], new
        kron, err = np.concatenate([kron, new_kron]), np.concatenate([err, new_err])
    budget = _BISECTIONS
    while True:
        value = math.fsum(kron.tolist())
        tol = _TOL * max(1.0, abs(value))
        excess = float(err.sum()) - 0.5 * tol
        if excess <= 0.0:
            break
        # Bisect the fewest panels, largest errors first, that carry the excess.
        order = np.argsort(err)[::-1]
        pick = order[: int(np.searchsorted(np.cumsum(err[order]), excess)) + 1]
        budget -= pick.size
        if budget < 0:
            msg = f"offset quadrature over width {width!r} did not converge within {_BISECTIONS} bisections"
            raise QuadratureError(msg, value, float(err.sum()))
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        sub = 0.5 * half[pick]
        new_lo, new_half = np.concatenate([lo[pick], lo[pick] + 2.0 * sub]), np.concatenate([sub, sub])
        new_kron, new_err, _ = _offset_panels(f_off, width, new_lo, new_half)
        lo, half = np.concatenate([lo[keep], new_lo]), np.concatenate([half[keep], new_half])
        kron, err = np.concatenate([kron[keep], new_kron]), np.concatenate([err[keep], new_err])
    if tail > 0.5 * tol:
        msg = f"offset integral over width {width!r} leaves mass below the floor {floor!r}"
        raise QuadratureError(f"{msg}: |g| decays with fitted exponent {rate!r}, tail bound {tail!r}", value, tail)
    return value


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


def brent_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b], given fa = f(a) and fb = f(b) of opposite signs.

    Brent's zeroin (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 4): c keeps the bracket's other end, b the best
    iterate, and each step takes inverse quadratic or linear
    interpolation when it stays well inside the bracket and shrinks the
    step before last by half, or else bisects.  It stops when the bracket
    half-width is at most (xtol + rtol |b|) / 2 or f(b) == 0, after at
    most about (log2 of the bracket over xtol)^2 evaluations, though a
    smooth monotone f takes a handful.
    """
    if (fa > 0.0) == (fb > 0.0) and fa != 0.0 and fb != 0.0:
        raise InvalidParameterError(f"brent_root needs a sign change on [{a!r}, {b!r}], got {fa!r} and {fb!r}")
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * (xtol + rtol * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


# ---------------------------------------------------------------------------
# Stable exponential windows
# ---------------------------------------------------------------------------


def exp_decay_window(delta: float, t: float, z: float) -> float:
    """Evaluate exp(-t) * (exp(delta * z) - 1) / delta, stably.

    The ratio degenerates to z at delta == 0 and suffers cancellation for
    small |delta * z|; for large delta * z the two exponentials are combined
    before subtracting so nothing overflows as long as delta * z <= t.
    """
    dz = delta * z
    if delta == 0.0:
        return math.exp(-t) * z
    if abs(dz) < 0.5:
        return math.exp(-t) * math.expm1(dz) / delta
    return (math.exp(dz - t) - math.exp(-t)) / delta


def replacement_decay_integral(theta: float, t: float) -> float:
    """Compute the integral of exp(-theta*(t-s)/2) * exp(-s) over s in (0, t).

    Equals (exp(-theta*t/2) - exp(-t)) / (1 - theta/2) away from theta == 2
    and t * exp(-t) at theta == 2; evaluated through exp_decay_window so the
    removable singularity never produces cancellation.
    """
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("t", t, 0.0, math.inf, open_hi=True)
    return exp_decay_window(1.0 - 0.5 * theta, t, t)


# ---------------------------------------------------------------------------
# Mixed laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One absolutely continuous component of a MixedLaw.

    The density lives on the open interval (lower, upper) and is written
    once, as offset_density: a function of the exact distance from the
    endpoint named by offset_side, over distances in (0, offset_width),
    that must accept a float ndarray.  Offsets are exact doubles at every
    scale, whereas the absolute coordinate cannot resolve structure within
    an ulp of an endpoint; quadrature and the density method both go
    through this form.  offset_width is the piece width computed without
    subtracting the rounded endpoints, so a boundary placed between machine
    numbers costs no accuracy.

    mass is the density's exact integral, supplied in closed form by the
    constructors so normalization stays a testable property rather than
    something enforced by rescaling.  cdf is the absolute accumulated mass
    on [lower, x].
    """

    lower: float
    upper: float
    mass: float
    cdf: Callable[[float], float]
    offset_density: Callable[[np.ndarray], np.ndarray]
    offset_side: str
    offset_width: float

    def __post_init__(self):
        if not (0.0 <= self.lower < self.upper <= 1.0):
            raise InvalidParameterError(f"piece support [{self.lower}, {self.upper}] is not an interval in [0, 1]")
        if not (self.mass > 0.0 and self.mass <= 1.0 + 1e-12):
            raise InvalidParameterError(f"piece mass {self.mass!r} outside (0, 1]")
        if self.offset_side not in ("lower", "upper"):
            raise InvalidParameterError(f"offset_side must be 'lower' or 'upper', got {self.offset_side!r}")
        # The rounded endpoints of a narrow piece may each be an ulp off.
        width = self.upper - self.lower
        if not abs(self.offset_width - width) <= 1e-6 * width + 4.0 * math.ulp(self.upper):
            raise InvalidParameterError(f"offset_width {self.offset_width!r} disagrees with the piece support")

    def density(self, x: float) -> float:
        """The density at x in (lower, upper), from its offset form.

        The far distance comes from the rounded offset of x, so near a power
        piece's far end this is off by about a - 1 ulps (3e-8 relative at
        theta = 1e-8); quadrature passes exact offsets."""
        d = x - self.lower if self.offset_side == "lower" else self.upper - x
        return float(self.offset_density(np.asarray(d, dtype=float)))


@dataclass(frozen=True)
class MixedLaw:
    """A probability law on [0, 1] of atoms plus disjoint density pieces.

    label names the law and its parameters, as its constructor was called;
    a QuadratureError raised while integrating the pieces leads with it.
    """

    atoms: tuple[tuple[float, float], ...]
    pieces: tuple[Piece, ...]
    label: str = "MixedLaw"

    def __post_init__(self):
        if not self.atoms and not self.pieces:
            raise InvalidParameterError("a MixedLaw needs at least one atom or density piece")
        for loc, mass in self.atoms:
            if not (0.0 <= loc <= 1.0):
                raise InvalidParameterError(f"atom location {loc!r} outside [0, 1]")
            if not (0.0 < mass <= 1.0 + 1e-12):
                raise InvalidParameterError(f"atom mass {mass!r} outside (0, 1]")
        spans = sorted((pc.lower, pc.upper) for pc in self.pieces)
        for (a0, b0), (a1, b1) in zip(spans, spans[1:]):
            if a1 < b0:
                raise InvalidParameterError("piece supports overlap")
        for loc, _ in self.atoms:
            for pc in self.pieces:
                if pc.lower < loc < pc.upper:
                    raise InvalidParameterError("atom sits strictly inside a density piece")
        total = self.total_mass()
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"component masses sum to {total!r}, not 1")

    def total_mass(self) -> float:
        """Sum of the stored component masses."""
        return math.fsum(m for _, m in self.atoms) + math.fsum(pc.mass for pc in self.pieces)

    def quadrature_mass(self) -> float:
        """Atom masses plus piece densities integrated by quad_offset."""
        total = [m for _, m in self.atoms]
        with _quad_led_by(self.label):
            total += [quad_offset(pc.offset_density, pc.offset_width) for pc in self.pieces]
        return math.fsum(total)

    def mean(self) -> float:
        """First moment, atoms and piece masses exactly, offsets by quad_offset."""
        total = [loc * m for loc, m in self.atoms]
        for pc in self.pieces:
            # x = anchor -/+ offset, so the moment splits into the closed-form
            # piece mass times the anchor plus a signed pure-offset moment.
            with _quad_led_by(self.label):
                sway = quad_offset(lambda d, f=pc.offset_density: d * f(d), pc.offset_width)
            total.append(pc.lower * pc.mass + sway if pc.offset_side == "lower" else pc.upper * pc.mass - sway)
        return math.fsum(total)

    def cdf(self, x: float) -> float:
        """P(X <= x) from the atoms and the piece cdfs."""
        total = [m for loc, m in self.atoms if loc <= x]
        for pc in self.pieces:
            if x >= pc.upper:
                total.append(pc.mass)
            elif x > pc.lower:
                total.append(pc.cdf(x))
        return math.fsum(total)

    def sample(self, rng: RngStream) -> float:
        """Draw one point: pick a component by mass, then invert within it."""
        u = rng.gen.random() * self.total_mass()
        acc = 0.0
        for loc, mass in self.atoms:
            acc += mass
            if u <= acc:
                return loc
        for pc in self.pieces:
            acc += pc.mass
            if u <= acc:
                return self._sample_piece(pc, rng)
        return self._sample_piece(self.pieces[-1], rng) if self.pieces else self.atoms[-1][0]

    def _sample_piece(self, pc: Piece, rng: RngStream) -> float:
        """Invert the piece cdf at a uniform share of its mass by root finding."""
        target = rng.gen.random() * pc.mass
        fn = lambda x: pc.cdf(x) - target
        lo = math.nextafter(pc.lower, pc.upper)
        hi = math.nextafter(pc.upper, pc.lower)
        f_lo = fn(lo)
        if f_lo >= 0.0:
            return lo
        f_hi = fn(hi)
        if f_hi <= 0.0:
            return hi
        return brent_root(fn, lo, hi, f_lo, f_hi, xtol=1e-14, rtol=8.9e-16)
