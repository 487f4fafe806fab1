"""Shared numeric substrate for the star-shaped replacement process library.

This module holds the pieces every other module leans on: the validated
two-type parameter bundle, the mixed atom-plus-density law on [0, 1] that all
transition and stationary distributions take, deterministic seedable RNG
streams for reproducible Monte Carlo, and adaptive quadrature that tolerates
the power-law endpoint singularities these laws produce.

Concurrency model: all evaluators are pure functions of their arguments, and
samplers mutate only the RngStream passed to them.  Parallel Monte Carlo is
sharded by giving each worker its own stream_index; results are then merged
by deterministic reduction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.optimize

__all__ = [
    "StarcoalError",
    "InvalidParameterError",
    "SingularityError",
    "QuadratureError",
    "NoStationaryDistributionError",
    "DomainEscapeError",
    "NonMonotoneDriftError",
    "SimulationAbortError",
    "TwoTypeParams",
    "RngStream",
    "QuadSpec",
    "quad",
    "quad_offset",
    "Piece",
    "MixedLaw",
    "truncated_exponential_inverse_cdf",
    "sample_truncated_exponential",
    "replacement_decay_integral",
    "exp_decay_window",
    "check_real",
    "check_int",
]


class StarcoalError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(StarcoalError, ValueError):
    """An argument violates a documented precondition."""


class SingularityError(StarcoalError, ValueError):
    """Evaluation was requested exactly at a non-removable singularity."""


class QuadratureError(StarcoalError, RuntimeError):
    """Adaptive integration did not reach the requested tolerance.

    Carries the best available estimate and an error bound so callers can
    decide whether to degrade gracefully or abort.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
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


def check_size(name: str, value):
    """Require a sample shape: None, an integer >= 1 or a tuple of them."""
    dims = () if value is None else value if isinstance(value, tuple) else (value,)
    try:
        if all(operator.index(v) >= 1 for v in dims):
            return
    except TypeError:
        pass
    raise InvalidParameterError(f"{name} must be None or a shape of integers >= 1, got {value!r}")


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

    @property
    def theta1(self) -> float:
        return self.theta * self.p

    @property
    def theta2(self) -> float:
        return self.theta * (1.0 - self.p)


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
        if not isinstance(self.base_seed, int) or not (0 <= self.base_seed < 2**64):
            raise InvalidParameterError("base_seed must be an integer in [0, 2**64)")
        if not isinstance(self.stream_index, int) or self.stream_index < 0:
            raise InvalidParameterError("stream_index must be a non-negative integer")
        seq = np.random.SeedSequence(entropy=self.base_seed, spawn_key=(self.stream_index,))
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def random(self, size=None):
        return self.gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def exponential(self, scale=1.0, size=None):
        return self.gen.exponential(scale, size)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_subdivisions: int = 400

    def __post_init__(self):
        check_real("abs_tol", self.abs_tol, 0.0, math.inf, open_lo=True, open_hi=True)
        check_real("rel_tol", self.rel_tol, 0.0, math.inf, open_lo=True, open_hi=True)
        check_int("max_subdivisions", self.max_subdivisions, 8)


def _quad_smooth(f, a: float, b: float, spec: QuadSpec, tighten: float = 1.0):
    """Gauss-Kronrod integration of f on [a, b] with failure detection."""
    out = scipy.integrate.quad(
        f,
        a,
        b,
        epsabs=spec.abs_tol * tighten,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3:
        # QUADPACK attached a warning message; accept only if the reported
        # error is still comfortably inside tolerance.
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if abserr > 8.0 * tol:
            raise QuadratureError(str(out[3]).splitlines()[0], value, abserr)
    return value, abserr


_LADDER_GRID = 1 << 14


def _sweep_blocks(g, depth: float, spec: QuadSpec, head: float = 0.0) -> float:
    """Sum Gauss-Kronrod blocks of g over [0, depth], starting from `head`.

    A single pass over the whole range mixes magnitudes spanning hundreds of
    decades and trips QUADPACK's roundoff detector, so the range is swept in
    fixed blocks; each call then sees a narrow dynamic range.  Blocks whose
    error claim exceeds the smooth-path escape are still accepted while a
    bounded total claimed-error allowance lasts, since node-rounding noise
    inflates the claim far beyond the realized error.
    """
    nblocks = max(1, math.ceil(depth / 3.0))
    step = depth / nblocks
    share = 0.5 / nblocks
    slack = 32.0 * spec.abs_tol
    pieces = [head]
    for k in range(nblocks):
        a = k * step
        b = depth if k == nblocks - 1 else (k + 1) * step
        try:
            value, _ = _quad_smooth(g, a, b, spec, tighten=share)
        except QuadratureError as err:
            if err.error_bound > slack:
                raise
            slack -= err.error_bound
            value = err.estimate
        pieces.append(value)
    return math.fsum(pieces)


def quad_offset(f_off, width: float, spec: QuadSpec | None = None) -> float:
    """Integrate f_off(delta) for delta in (0, width], delta measured from 0.

    The offset parametrization is the accurate way to integrate a density
    toward a difficult endpoint: offsets are exact doubles at every scale,
    so steep layers and integrable power blow-ups near delta == 0 can be
    resolved far below one ulp of the endpoint's absolute position.  The
    substitution delta = width * exp(-s) makes the integrand tame, and the
    sweep runs deep enough that the neglected tail is harmless for any
    power exponent down to about 0.1.
    """
    spec = spec or QuadSpec()
    check_real("width", width, 0.0, math.inf, open_lo=True, open_hi=True)
    floor = max(64.0 * 5e-324, width * 1e-250)
    depth = math.log(width / floor)

    def g(s: float) -> float:
        off = width * math.exp(-s)
        return f_off(off) * off

    return _sweep_blocks(g, depth, spec)


def _grid_layer_sum(f, end: float, inward: float, count: int):
    """Midpoint sum of f over the first `count` floats next to `end`.

    Walking the actual float grid sidesteps node rounding entirely: each
    machine number owns a rounding cell of one ulp, and f evaluated at the
    cell centre times the cell width is the exact contribution of that cell
    up to curvature terms of order ulp^2.  Returns the summed mass and the
    outer boundary of the covered region.
    """
    first = math.nextafter(end, inward)
    u = abs(first - end)
    probe = end + count * u if inward > end else end - count * u
    if math.nextafter(probe, inward) - probe == first - end:
        # No binade crossing: the grid is uniform and can be built by
        # arithmetic instead of nextafter stepping.
        sign = 1.0 if inward > end else -1.0
        total = u * math.fsum(f(end + sign * j * u) for j in range(1, count + 1))
        boundary = end + sign * (count + 0.5) * u
    else:
        xs = []
        x = first
        for _ in range(count):
            xs.append(x)
            x = math.nextafter(x, inward)
        # Nonuniform cells: each point owns half the gap to each neighbour.
        cells = []
        prev = end
        for j, xj in enumerate(xs):
            nxt = xs[j + 1] if j + 1 < len(xs) else x
            cells.append(abs(0.5 * (nxt + xj) - 0.5 * (xj + prev)))
            prev = xj
        total = math.fsum(f(xj) * c for xj, c in zip(xs, cells))
        boundary = 0.5 * (xs[-1] + x)
    # The half cell touching `end` itself, where no machine number exists:
    # extend f by its boundary value.  A bounded layer is flat across it; a
    # genuinely unbounded density hides mass here that no pointwise scheme
    # can see, which is the structural blind spot of grid-bound evaluation.
    total += f(first) * 0.5 * u
    return total, boundary


def _quad_ladder(f, lower: float, upper: float, spec: QuadSpec, side: str = "lower") -> float:
    """Integrate toward one difficult endpoint down to float resolution.

    Fallback for integrands only available pointwise in the absolute
    coordinate.  The last few thousand machine numbers before the endpoint
    are summed cell by cell (midpoint rule on the float grid itself),
    because no adaptive scheme can place nodes inside a layer whose width
    is a handful of ulps; the remainder is handled in the log-offset
    variable x = end -/+ W e^{-s} and swept in blocks.  Accuracy is limited
    to roughly |density near the endpoint| * ulp(endpoint): below that the
    absolute coordinate cannot even state where the endpoint is.  Densities
    that can be evaluated from an exact endpoint offset should go through
    quad_offset instead, which has no such floor.
    """
    width = upper - lower
    end, inward = (lower, upper) if side == "lower" else (upper, lower)
    if end == 0.0 and side == "lower":
        # Offsets from zero are exact, so the stronger routine applies as is.
        return quad_offset(f, width, spec)
    u = abs(math.nextafter(end, inward) - end)
    count = _LADDER_GRID
    if (count + 2.0) * u >= 0.25 * width:
        # Piece spans too few machine numbers for the split; shrink the grid
        # region and if even that fails integrate the whole piece directly.
        count = int(0.125 * width / u)
        if count < 16:
            value, _ = _quad_smooth(f, lower, upper, spec)
            return value
    layer, boundary = _grid_layer_sum(f, end, inward, count)
    depth = math.log(width / abs(boundary - end))
    if side == "lower":

        def g(s: float) -> float:
            off = width * math.exp(-s)
            return f(lower + off) * off
    else:

        def g(s: float) -> float:
            off = width * math.exp(-s)
            return f(upper - off) * off

    return _sweep_blocks(g, depth, spec, head=layer)


def quad(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadSpec | None = None,
    *,
    singular_lower: bool = False,
    singular_upper: bool = False,
) -> float:
    """Adaptively integrate f over (lower, upper).

    Args:
        f: scalar integrand, evaluated only strictly inside the interval.
        lower, upper: finite interval endpoints with lower <= upper.
        spec: tolerances; defaults to QuadSpec().
        singular_lower, singular_upper: flag endpoints where f may blow up
            like an integrable power law or carry a steep boundary layer;
            those ends get the log-offset substitution instead of a single
            Gauss-Kronrod pass.

    Raises:
        QuadratureError: the requested tolerance could not be certified.
    """
    spec = spec or QuadSpec()
    check_real("lower", lower, -math.inf, math.inf, open_lo=True, open_hi=True)
    check_real("upper", upper, lower, math.inf, open_hi=True)
    if upper == lower:
        return 0.0
    if singular_lower and singular_upper:
        mid = 0.5 * (lower + upper)
        return quad(f, lower, mid, spec, singular_lower=True) + quad(
            f, mid, upper, spec, singular_upper=True
        )
    if singular_upper:
        return _quad_ladder(f, lower, upper, spec, side="upper")
    if singular_lower:
        return _quad_ladder(f, lower, upper, spec, side="lower")
    value, _ = _quad_smooth(f, lower, upper, spec)
    return value


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
# Truncated exponential
# ---------------------------------------------------------------------------


def truncated_exponential_inverse_cdf(u, t: float):
    """Map uniform u in [0, 1) to the rate-1 exponential conditioned below t.

    Closed form -log(1 - u * (1 - exp(-t))), written with expm1/log1p so both
    tiny and huge t keep full precision.  u == 0 lands on the excluded lower
    boundary 0 of the open support.
    """
    check_real("t", t, 0.0, math.inf, open_lo=True, open_hi=True)
    return -np.log1p(np.asarray(u) * np.expm1(-t))


def sample_truncated_exponential(t: float, rng: RngStream, size=None):
    """Draw from a rate-1 exponential conditioned to lie in (0, t)."""
    u = rng.gen.random(size)
    out = truncated_exponential_inverse_cdf(u, t)
    return float(out) if size is None else out


# ---------------------------------------------------------------------------
# Mixed laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One absolutely continuous component of a MixedLaw.

    density evaluates the unnormalized density on the open interval
    (lower, upper); mass is its exact integral, supplied in closed form by
    the constructors so normalization stays a testable property rather than
    something enforced by rescaling.  cdf, when present, is the absolute
    accumulated mass on [lower, x]; inverse_cdf maps a piece-normalized
    uniform to a point.  singular marks an endpoint where the density has an
    integrable blow-up, which quadrature must know about.

    offset_density, when present, is the same density written as a function
    of the exact distance from the endpoint named by offset_side, over
    distances in (0, offset_width).  Quadrature prefers it: the absolute
    coordinate cannot resolve structure within an ulp of an endpoint,
    whereas offsets are exact doubles at every scale.  offset_width is the
    piece width computed without subtracting the rounded endpoints, so a
    boundary placed between machine numbers costs no accuracy.
    """

    lower: float
    upper: float
    density: Callable[[float], float]
    mass: float
    cdf: Callable[[float], float] | None = None
    inverse_cdf: Callable[[float], float] | None = None
    singular: str | None = None
    offset_density: Callable[[float], float] | None = None
    offset_side: str | None = None
    offset_width: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.lower < self.upper <= 1.0):
            raise InvalidParameterError(f"piece support [{self.lower}, {self.upper}] is not an interval in [0, 1]")
        if not (self.mass > 0.0 and self.mass <= 1.0 + 1e-12):
            raise InvalidParameterError(f"piece mass {self.mass!r} outside (0, 1]")
        if self.singular not in (None, "lower", "upper"):
            raise InvalidParameterError("singular must be None, 'lower' or 'upper'")
        if self.offset_density is not None:
            if self.offset_side not in ("lower", "upper"):
                raise InvalidParameterError("offset_side must be 'lower' or 'upper' when offset_density is given")
            width = self.upper - self.lower
            if self.offset_width is None or abs(self.offset_width - width) > 1e-6 * width:
                raise InvalidParameterError("offset_width disagrees with the piece support")


@dataclass(frozen=True)
class MixedLaw:
    """A probability law on [0, 1] of atoms plus disjoint density pieces."""

    atoms: tuple[tuple[float, float], ...]
    pieces: tuple[Piece, ...]

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

    def quadrature_mass(self, spec: QuadSpec | None = None) -> float:
        """Atom masses plus numerically integrated piece densities."""
        spec = spec or QuadSpec()
        total = [m for _, m in self.atoms]
        for pc in self.pieces:
            if pc.offset_density is not None:
                total.append(quad_offset(pc.offset_density, pc.offset_width, spec))
            else:
                total.append(
                    quad(
                        pc.density,
                        pc.lower,
                        pc.upper,
                        spec,
                        singular_lower=pc.singular == "lower",
                        singular_upper=pc.singular == "upper",
                    )
                )
        return math.fsum(total)

    def mean(self, spec: QuadSpec | None = None) -> float:
        """First moment, atoms exactly and pieces by quadrature."""
        spec = spec or QuadSpec()
        total = [loc * m for loc, m in self.atoms]
        for pc in self.pieces:
            if pc.offset_density is not None:
                # x = anchor -/+ offset, so the moment splits into the piece
                # mass times the anchor plus a signed pure-offset moment.
                mass = quad_offset(pc.offset_density, pc.offset_width, spec)
                sway = quad_offset(
                    lambda d, pc=pc: d * pc.offset_density(d), pc.offset_width, spec
                )
                if pc.offset_side == "lower":
                    total.append(pc.lower * mass + sway)
                else:
                    total.append(pc.upper * mass - sway)
            else:
                total.append(
                    quad(
                        lambda x, pc=pc: x * pc.density(x),
                        pc.lower,
                        pc.upper,
                        spec,
                        singular_lower=pc.singular == "lower",
                        singular_upper=pc.singular == "upper",
                    )
                )
        return math.fsum(total)

    def cdf(self, x: float, spec: QuadSpec | None = None) -> float:
        """P(X <= x), using piece cdfs where available and quadrature otherwise."""
        spec = spec or QuadSpec()
        total = [m for loc, m in self.atoms if loc <= x]
        for pc in self.pieces:
            if x <= pc.lower:
                continue
            if x >= pc.upper:
                total.append(pc.mass)
            elif pc.cdf is not None:
                total.append(pc.cdf(x))
            else:
                total.append(
                    quad(pc.density, pc.lower, x, spec, singular_lower=pc.singular == "lower")
                )
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
        v = rng.gen.random()
        if pc.inverse_cdf is not None:
            return pc.inverse_cdf(v)
        target = v * pc.mass
        if pc.cdf is not None:
            fn = lambda x: pc.cdf(x) - target
        else:
            spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-12)
            fn = lambda x: quad(pc.density, pc.lower, x, spec, singular_lower=pc.singular == "lower") - target
        lo = np.nextafter(pc.lower, pc.upper)
        hi = np.nextafter(pc.upper, pc.lower)
        if fn(lo) >= 0.0:
            return float(lo)
        if fn(hi) <= 0.0:
            return float(hi)
        return float(scipy.optimize.brentq(fn, lo, hi, xtol=1e-14, rtol=8.9e-16))

