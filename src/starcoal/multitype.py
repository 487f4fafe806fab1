"""Many-type and measure-valued extensions.

With d types and parent-independent mutation the process stays a finite
mixture of the two-type laws: conditioning on the last replacement's type i
puts the state on the segment from the mutation equilibrium p toward the
i-th vertex, and type i against the rest is the two-type process at
(p_i, x_i), so each region's density in xi_i is that law's upper branch,
with the other coordinates pinned affinely.  Markov mutation (a
row-stochastic matrix applied at rate theta/2 per line) changes only the
single-line kernel, evaluated here by scaling and squaring.  The
infinitely-many-types limit leaves one replacement family of mass eta
plus dust, with eta a Beta(2/theta, 1) variable; sampling formulas reduce
to its moments, each one integer ratio over the dyadic theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InvalidParameterError, RngStream, TwoTypeParams, _rate_ratios, _sample, replacement_decay_integral
from .core import check_int, check_real
from .twotype import transition_density_eval

__all__ = [
    "MultiParams",
    "MutationMatrix",
    "SimplexRegion",
    "SimplexLaw",
    "load_mutation_matrix",
    "pim_line_kernel",
    "pim_transition_law",
    "pim_stationary_sample",
    "markov_line_kernel",
    "markov_stationary_gamma",
    "markov_stationary_sample",
    "infinite_sampling_prob",
]


@dataclass(frozen=True)
class MultiParams:
    """Parent-independent mutation on d types: rate theta/2, law p_vec."""

    theta: float
    p_vec: tuple[float, ...]

    def __post_init__(self):
        check_real("theta", self.theta, 0.0, math.inf, open_lo=True, open_hi=True)
        if len(self.p_vec) < 2:
            raise InvalidParameterError("p_vec needs at least two types")
        for i, q in enumerate(self.p_vec):
            check_real(f"p_vec[{i}]", q, 0.0, 1.0, open_lo=True, open_hi=True)
        if abs(math.fsum(self.p_vec) - 1.0) > 1e-12:
            raise InvalidParameterError("type probabilities must sum to 1")

    @property
    def d(self) -> int:
        return len(self.p_vec)


@dataclass(frozen=True, eq=False)
class MutationMatrix:
    """Row-stochastic single-mutation transition matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise InvalidParameterError("mutation matrix must be square with d >= 2")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise InvalidParameterError("mutation matrix entries must be finite and non-negative")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidParameterError("mutation matrix rows must sum to 1")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def is_irreducible(self) -> bool:
        reach = (self.matrix > 0.0) | np.eye(self.d, dtype=bool)
        for _ in range(max(1, math.ceil(math.log2(self.d)) + 1)):
            reach = reach @ reach
        return bool(np.all(reach))


def load_mutation_matrix(path) -> MutationMatrix:
    """Read a whitespace-separated numeric grid and validate it.  A file
    that cannot be read, parsed or accepted raises InvalidParameterError
    naming the path."""
    try:
        return MutationMatrix(matrix=np.loadtxt(path, dtype=float, ndmin=2))
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(f"mutation matrix file {str(path)!r}: {exc}") from exc


@dataclass(frozen=True)
class SimplexRegion:
    """One replacement branch of the simplex-valued law.

    Parametrized by the coordinate xi_i of the replaced type on
    (lower, upper); density(xi_i) is the upper branch of the two-type
    density at (p_i, x_i) on (lower, 1], and 0 elsewhere: below lower, where
    the two-type law has its gap and its lower branch, and above 1.
    companion(xi_i) returns the full state vector, whose other coordinates
    are the affine pin (1 - (xi_i - p_i)/(1 - p_i)) p_j.
    """

    index: int
    lower: float
    upper: float
    mass: float
    density: Callable[[float], float]
    companion: Callable[[float], tuple[float, ...]]


@dataclass(frozen=True)
class SimplexLaw:
    """Atom plus one segment density per type."""

    d: int
    atom_point: tuple[float, ...]
    atom_mass: float
    regions: tuple[SimplexRegion, ...]

    def __post_init__(self):
        total = self.total_mass()
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"simplex law mass {total!r} must be 1")

    def total_mass(self) -> float:
        return self.atom_mass + math.fsum(r.mass for r in self.regions)


def _check_state(mp: MultiParams, x_vec) -> np.ndarray:
    x = np.asarray(x_vec, dtype=float)
    if x.shape != (mp.d,):
        raise InvalidParameterError(f"state must have {mp.d} coordinates")
    for i, v in enumerate(x.tolist()):
        check_real(f"x_vec[{i}]", v, 0.0, 1.0)
    if abs(float(x.sum()) - 1.0) > 1e-9:
        raise InvalidParameterError("state must be a probability vector")
    return x


def pim_line_kernel(mp: MultiParams, t: float) -> np.ndarray:
    """Single-line kernel delta_ij e^{-theta t/2} + (1 - e^{-theta t/2}) p_j.

    t = inf is allowed and gives p_j in every row.
    """
    check_real("t", t, 0.0, math.inf)
    e = math.exp(-0.5 * mp.theta * t)
    m = -math.expm1(-0.5 * mp.theta * t)
    return e * np.eye(mp.d) + m * np.tile(np.asarray(mp.p_vec), (mp.d, 1))


def pim_transition_law(mp: MultiParams, x_vec, t: float) -> SimplexLaw:
    """Law at time t from state x: atom plus d replacement segments.

    Region i is the two-type upper piece in the coordinate xi_i with the
    pair (p_i, x_i), whose density transition_density_eval evaluates; its
    mass p_i(1 - e^{-t}) + (x_i - p_i) K(theta, t) integrates the branch-i
    choice probability over the last replacement time.  Masses add to 1
    exactly because the (x_i - p_i) terms cancel.
    """
    x = _check_state(mp, x_vec)
    check_real("t", t, 0.0, math.inf, open_hi=True)
    if t == 0.0:
        return SimplexLaw(d=mp.d, atom_point=tuple(float(v) for v in x), atom_mass=1.0, regions=())
    theta = mp.theta
    eh = math.exp(-0.5 * theta * t)
    s = -math.expm1(-t)
    big_k = replacement_decay_integral(theta, t)
    p = np.asarray(mp.p_vec)
    atom = p + (x - p) * eh

    regions = []
    for i in range(mp.d):
        pi, xi0 = float(p[i]), float(x[i])
        mass = pi * s + (xi0 - pi) * big_k
        lower = eh + pi * -math.expm1(-0.5 * theta * t)

        def comp(v: float, _i=i, _p=pi, _pv=p) -> tuple[float, ...]:
            shrink = (1.0 - v) / (1.0 - _p)
            out = _pv * shrink
            out = out.tolist()
            out[_i] = v
            return tuple(out)

        regions.append(
            SimplexRegion(
                index=i,
                lower=lower,
                upper=1.0,
                mass=mass,
                density=lambda v, _par=TwoTypeParams(theta, pi), _x=xi0, _lo=lower: (
                    0.0 if v <= _lo else transition_density_eval(_par, _x, t, v)
                ),
                companion=comp,
            )
        )
    return SimplexLaw(
        d=mp.d,
        atom_point=tuple(float(v) for v in atom),
        atom_mass=math.exp(-t),
        regions=tuple(regions),
    )


def pim_stationary_sample(mp: MultiParams, rng: RngStream, size=None):
    """Stationary state: mass eta = U^{theta/2} on type i ~ p_vec, rest split by p.

    Returns one (d,) vector or an array of shape size + (d,).
    """
    p = np.asarray(mp.p_vec)

    def draw(gens, m):
        # choice draws one uniform per state.
        eta = gens[0].random(m) ** (0.5 * mp.theta)
        out = (1.0 - eta)[:, None] * p
        out[np.arange(m), gens[1].choice(mp.d, p=p, size=m)] += eta
        return out

    return _sample(rng, size, draw, (mp.d,))


def markov_line_kernel(mm: MutationMatrix, theta: float, t: float) -> np.ndarray:
    """exp(lam (M - I)), lam = theta t / 2, by scaling and squaring.

    At h = lam / 2^s <= 1, s = max(0, ceil(log2 lam)), the Poisson-weighted
    powers h^k M^k / k! for k < 18 leave a tail below 2e-16, which the row
    renormalization puts back; then s squarings, each followed by a row
    renormalization, without which the squares drift off stochastic by up
    to 1e-9 at lam = 5e7.  A theta t that overflows raises.
    """
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    check_real("t", t, 0.0, math.inf, open_hi=True)
    lam = 0.5 * theta * t
    if lam == math.inf:
        raise InvalidParameterError(f"theta * t overflows a float: theta = {theta!r}, t = {t!r}")
    squarings = math.ceil(math.log2(lam)) if lam > 1.0 else 0
    h = math.ldexp(lam, -squarings)
    out = term = np.eye(mm.d)
    for k in range(1, 18):
        term = (h / k) * (term @ mm.matrix)
        out = out + term
    out /= out.sum(axis=1, keepdims=True)
    for _ in range(squarings):
        out = out @ out
        out /= out.sum(axis=1, keepdims=True)
    return out


def markov_stationary_gamma(mm: MutationMatrix) -> np.ndarray:
    """Stationary law of the single-line chain: gamma M = gamma.

    Requires irreducibility; the linear system replaces one balance
    equation with the normalization row.
    """
    if not mm.is_irreducible():
        raise InvalidParameterError("mutation matrix must be irreducible")
    d = mm.d
    a = mm.matrix.T - np.eye(d)
    a[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    gamma = np.linalg.solve(a, b)
    gamma = np.clip(gamma, 0.0, None)
    return gamma / gamma.sum()


def markov_stationary_sample(mm: MutationMatrix, theta: float, rng: RngStream) -> np.ndarray:
    """Stationary state under Markov mutation.

    The last replacement happened Exp(1) ago with a type drawn from gamma;
    the state is that type's row of the line kernel over the elapsed time.
    """
    gamma = markov_stationary_gamma(mm)
    i = int(rng.gen.choice(mm.d, p=gamma))
    tau = rng.gen.exponential()
    return markov_line_kernel(mm, theta, tau)[i]


def infinite_sampling_prob(n: int, j: int, theta: float) -> float:
    """P(j of n sampled lines fall in the replacement family, n - j in the dust).

    P(B = j) for B ~ Binomial(n, eta), eta the family mass: the exact
    rational (n!/j!) (a)_(j) / (1 + a)_(n), a = 2/theta, with (y)_(k) the
    rising factorial.  j = n gives E[eta^n] = a/(a + n); at theta = 2 every j
    gives 1/(n + 1).  With (T, D, d) from _rate_ratios, a + m = d[m] / T, so
    the law is one integer ratio, rounded once:
    D (j + 1) ... n T^{n-j} / (d[j] ... d[n]) for j >= 1, and
    n! T^n / (d[1] ... d[n]) for j = 0.  n is capped at LINE_LAW_N_CAP.
    """
    check_int("n", n, 1)
    check_int("j", j, 0)
    if j > n:
        raise InvalidParameterError(f"need j <= n, got n={n!r}, j={j!r}")
    check_real("theta", theta, 0.0, math.inf, open_lo=True, open_hi=True)
    T, D, d = _rate_ratios(theta, n, "infinite-types sampling law")
    num = math.prod(range(j + 1, n + 1)) * T ** (n - j) * (D if j else 1)
    return num / math.prod(d[max(j, 1) :])
