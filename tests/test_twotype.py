"""Two-type transition and stationary laws against independent oracles.

Frozen reference numbers were produced by 40-digit quadrature of the
last-replacement decomposition: condition on the time s since the most
recent replacement (exponential weight), the replacing type (probability
p + (x - p) e^{-theta (t-s)/2} for type 1), and push the frequency through
the deterministic mutation flow for the remaining s.  That construction
never touches the closed-form density implemented here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import kstest

from starcoal.core import InvalidParameterError, RngStream, TwoTypeParams, replacement_decay_integral
from starcoal.twotype import (
    line_kernel,
    marginal_q,
    path_endpoint_ensemble,
    replacement_component_density,
    sample_transition,
    simulate_path,
    stationary_density_eval,
    stationary_law,
    stationary_sample,
    transition_density_eval,
    transition_law,
    transition_moment,
)

PAR_A = TwoTypeParams(theta=1.0, p=0.3)
PAR_B = TwoTypeParams(theta=3.5, p=0.6)
PAR_C = TwoTypeParams(theta=0.8, p=0.35)


def test_marginal_q_flow():
    q1, q2 = marginal_q(PAR_A, 0.7, 1.0)
    assert q1 == pytest.approx(0.3 + 0.4 * math.exp(-0.5), rel=1e-15)
    assert q1 + q2 == 1.0
    # x = p is an exact fixed point of the mutation flow.
    assert marginal_q(PAR_A, 0.3, 17.0) == (0.3, 0.7)
    with pytest.raises(InvalidParameterError):
        marginal_q(PAR_A, 1.2, 1.0)
    with pytest.raises(InvalidParameterError):
        marginal_q(PAR_A, 0.5, -1.0)


def test_line_kernel_rows():
    k = line_kernel(PAR_B, 0.9)
    assert k[0, 0] + k[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert k[1, 0] + k[1, 1] == pytest.approx(1.0, abs=1e-15)
    assert line_kernel(PAR_B, 0.0) == pytest.approx(np.eye(2))
    far = line_kernel(PAR_B, 60.0)
    assert far[0, 0] == pytest.approx(0.6, abs=1e-12)
    assert far[1, 0] == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        line_kernel(PAR_B, math.nan)


def test_transition_law_structure():
    law = transition_law(PAR_A, 0.7, 1.0)
    (loc, mass), = law.atoms
    eh = math.exp(-0.5)
    assert mass == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert loc == pytest.approx(0.3 + 0.4 * eh, rel=1e-15)
    lowers = sorted(pc.lower for pc in law.pieces)
    assert len(law.pieces) == 2
    low = min(law.pieces, key=lambda pc: pc.lower)
    high = max(law.pieces, key=lambda pc: pc.lower)
    assert low.lower == 0.0
    assert low.upper == pytest.approx(0.3 * -math.expm1(-0.5), rel=1e-14)
    assert high.lower == pytest.approx(0.3 + 0.7 * eh, rel=1e-14)
    assert high.upper == 1.0
    # The atom sits strictly inside the density gap.
    assert low.upper < loc < high.lower
    assert law.quadrature_mass() == pytest.approx(1.0, abs=1e-10)


def test_transition_law_sub_ulp_piece_becomes_edge_atom():
    # The upper piece (1 - p)(1 - e^{-theta t/2}) = 3.5e-18 wide holds no
    # float strictly inside; its closed-form mass sits in an atom at 1.
    par, x, t = TwoTypeParams(theta=1e-3, p=0.3), 0.9, 1e-14
    law = transition_law(par, x, t)
    up = 0.3 * -math.expm1(-t) + 0.6 * replacement_decay_integral(par.theta, t)
    assert dict(law.atoms)[1.0] == pytest.approx(up, rel=1e-12)
    assert [(pc.lower, pc.upper) for pc in law.pieces] == [(0.0, 0.3 * -math.expm1(-0.5e-3 * t))]
    assert law.quadrature_mass() == pytest.approx(1.0, abs=1e-15)
    assert law.mean() == pytest.approx(0.3 + 0.6 * math.exp(-0.5e-3 * t), abs=1e-15)
    # At a subnormal horizon the lower piece is empty as well.
    law = transition_law(par, x, 5e-324)
    assert not law.pieces and law.total_mass() == 1.0


def test_piece_density_matches_pointwise_density():
    # Piece.density goes through the offset form; the *_eval functions
    # evaluate the same branch in the absolute coordinate.
    for par, x, t in ((PAR_A, 0.7, 1.0), (PAR_B, 0.2, 0.4), (PAR_C, 0.0, 2.5)):
        for pc in transition_law(par, x, t).pieces:
            for f in (0.1, 0.5, 0.9):
                xi = pc.lower + f * (pc.upper - pc.lower)
                assert pc.density(xi) == pytest.approx(transition_density_eval(par, x, t, xi), rel=1e-12)
        for pc in stationary_law(par).pieces:
            for f in (0.1, 0.5, 0.9):
                xi = pc.lower + f * (pc.upper - pc.lower)
                assert pc.density(xi) == pytest.approx(stationary_density_eval(par, xi), rel=1e-12)


def test_transition_piece_masses_against_scipy():
    for par, x, t in ((PAR_A, 0.7, 1.0), (PAR_B, 0.2, 0.4), (PAR_C, 0.0, 2.5)):
        law = transition_law(par, x, t)
        for pc in law.pieces:
            ref, err = integrate.quad(
                pc.density, pc.lower, pc.upper, limit=200, epsabs=1e-12, epsrel=1e-12
            )
            assert pc.mass == pytest.approx(ref, abs=max(1e-9, 10 * err))


def test_transition_density_oracles():
    # 40-digit last-replacement quadrature, theta=1, p=0.3, x=0.7, t=1.
    assert transition_density_eval(PAR_A, 0.7, 1.0, 0.8) == pytest.approx(
        1.305422794773621871873730080806, rel=1e-12
    )
    assert transition_density_eval(PAR_A, 0.7, 1.0, 0.1) == pytest.approx(
        1.493696018544088648167645684468, rel=1e-12
    )
    # Same construction at theta=3.5, p=0.6, x=0.2, t=0.4.
    assert transition_density_eval(PAR_B, 0.2, 0.4, 0.9) == pytest.approx(
        0.5416168832898961391381645489357, rel=1e-12
    )
    # 0.35 falls in the gap between the two supports.
    assert transition_density_eval(PAR_B, 0.2, 0.4, 0.35) == 0.0


def test_transition_moment_oracles():
    want = (
        0.2426122638850533694415198139965,
        0.1627042807354559094365486431588,
        0.0749043628787328858772897153826,
        0.0465513859902074839378860455452,
    )
    for n, ref in enumerate(want, start=1):
        assert transition_moment(PAR_A, n, 0.7, 1.0) == pytest.approx(ref, rel=1e-13)
    assert transition_moment(PAR_A, 0, 0.7, 1.0) == 1.0
    # t = 0 collapses to the point mass at x.
    for n in range(1, 5):
        assert transition_moment(PAR_B, n, 0.2, 0.0) == pytest.approx(
            (0.2 - 0.6) ** n, rel=1e-14
        )
    # Long horizons forget x.
    for n in range(1, 5):
        assert transition_moment(PAR_C, n, 0.9, 80.0) == pytest.approx(
            transition_moment(PAR_C, n, 0.1, math.inf), rel=1e-12, abs=1e-13
        )
    with pytest.raises(InvalidParameterError):
        transition_moment(PAR_A, -1, 0.7, 1.0)
    with pytest.raises(InvalidParameterError):
        transition_moment(PAR_A, 2, 0.5, math.nan)


def _mp_transition_moment(theta, p, n, x, t):
    """The three terms of transition_moment at 50 digits, and the sum of their sizes."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        theta, p, x, t = (mpmath.mpf(v) for v in (theta, p, x, t))
        a, q, dx = 2 / theta, 1 - p, x - p
        decay_n = mpmath.exp(-(1 + n * theta / 2) * t)
        main = decay_n * dx**n
        stat = a / (n + a) * (p * q**n + (-1) ** n * q * p**n) * (1 - decay_n)
        cross = (
            dx
            * mpmath.exp(-theta * t / 2)
            * a / (n - 1 + a)
            * (q**n - (-1) ** n * p**n)
            * (1 - mpmath.exp(-(1 + (n - 1) * theta / 2) * t))
        )
        return float(main + stat + cross), float(abs(main) + abs(stat) + abs(cross))


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300)
@given(
    n=st.integers(1, 8),
    theta=_log_uniform(1e-15, 1e4),
    p=st.floats(1e-6, 1.0 - 1e-6),
    x=st.floats(0.0, 1.0),
    t=_log_uniform(1e-8, 1e3),
)
def test_transition_moment_against_mpmath(n, theta, p, x, t):
    # Held to 1e-12 of the size of its terms: the float exponentials alone
    # carry a relative error of |exponent| ulps, up to about 745 of them.
    want, scale = _mp_transition_moment(theta, p, n, x, t)
    got = transition_moment(TwoTypeParams(theta, p), n, x, t)
    assert abs(got - want) <= 1e-12 * scale + 1e-300


@pytest.mark.parametrize("p", [0.5 - 1e-9, 0.5 + 3e-7, 0.4999])
def test_transition_moment_near_half(p):
    # (1-p)^n - p^n cancels as p nears 1/2; the closed form must not.
    for n in range(1, 9):
        for x, t in ((0.3, 5.0), (p, 1e-6), (0.9, 0.2)):
            want, scale = _mp_transition_moment(1.5, p, n, x, t)
            got = transition_moment(TwoTypeParams(1.5, p), n, x, t)
            assert abs(got - want) <= 1e-12 * scale, (n, x, t)



def test_transition_moments_match_density_integration():
    # Independent route: integrate xi^n against the law's own components.
    par, x, t = PAR_B, 0.2, 0.4
    law = transition_law(par, x, t)
    for n in (1, 2, 3):
        total = [m * (loc - par.p) ** n for loc, m in law.atoms]
        for pc in law.pieces:
            val, _ = integrate.quad(
                lambda xi: (xi - par.p) ** n * pc.density(xi),
                pc.lower,
                pc.upper,
                limit=200,
                epsabs=1e-12,
            )
            total.append(val)
        assert transition_moment(par, n, x, t) == pytest.approx(
            math.fsum(total), abs=1e-9
        )


def test_stationary_density_oracles():
    # theta=0.8, p=0.35 by the stationary last-replacement mixture.
    assert stationary_density_eval(PAR_C, 0.6) == pytest.approx(
        0.3210958365844893466463717149074, rel=1e-12
    )
    assert stationary_density_eval(PAR_C, 0.2) == pytest.approx(
        1.302627201918934112659867642532, rel=1e-12
    )
    # Full support: no interior gap in the stationary law.
    law = stationary_law(PAR_C)
    assert law.quadrature_mass() == pytest.approx(1.0, abs=1e-10)
    assert not law.atoms
    # For theta > 2 the density diverges at p but stays integrable.
    steep = TwoTypeParams(theta=5.0, p=0.4)
    assert stationary_density_eval(steep, 0.4) == math.inf
    # At theta = 2 with p = 1/2 both branches are the constant 1, and for
    # theta < 2 the density vanishes at p.
    assert stationary_density_eval(TwoTypeParams(theta=2.0, p=0.5), 0.5) == 1.0
    assert stationary_density_eval(PAR_C, 0.35) == 0.0
    assert stationary_law(steep).quadrature_mass() == pytest.approx(1.0, abs=1e-10)


def test_stationary_moment_values():
    # The stationary moments are the t = inf transition moments; the raw
    # moment sums the centered ones binomially, as `starcoal moments` does.
    def moments(n):
        central = [transition_moment(PAR_C, k, 0.9, math.inf) for k in range(n + 1)]
        return central[n], math.fsum(math.comb(n, k) * 0.35 ** (n - k) * c for k, c in enumerate(central))

    central2, raw2 = moments(2)
    # [p q^2 + q p^2] / (1 + theta) has the exact rational value 91/720 here.
    assert central2 == pytest.approx(91.0 / 720.0, rel=1e-14)
    assert raw2 == pytest.approx(
        0.35**2 + central2, rel=1e-14
    )
    central3, raw3 = moments(3)
    assert raw3 == pytest.approx(0.2066060606060606060606060606061, rel=1e-13)
    assert moments(1) == (0.0, 0.35)
    assert moments(0) == (1.0, 1.0)


@pytest.mark.parametrize("par", [PAR_A, PAR_B, PAR_C])
def test_stationary_law_is_transition_law_at_infinity(par):
    # At t = inf the atom and every trace of the start x are gone; the
    # stationary law is that call, relabelled.
    stat = stationary_law(par)
    assert stat.label == f"stationary_law(theta={par.theta!r}, p={par.p!r})"
    assert [(pc.lower, pc.upper, pc.mass) for pc in stat.pieces] == [(par.p, 1.0, par.p), (0.0, par.p, 1.0 - par.p)]
    grid = [k / 64 for k in range(65)]
    fields = lambda pc: (pc.lower, pc.upper, pc.mass, pc.offset_side, pc.offset_width)
    for x in (0.0, 0.3, par.p, 1.0):
        law = transition_law(par, x, math.inf)
        assert law.label == f"transition_law(theta={par.theta!r}, p={par.p!r}, x={x!r}, t=inf)"
        assert law.atoms == stat.atoms == ()
        for pc, ref in zip(law.pieces, stat.pieces, strict=True):
            assert fields(pc) == fields(ref)
            d = np.linspace(0.0, pc.offset_width, 33)
            np.testing.assert_array_equal(pc.offset_density(d), ref.offset_density(d))
        assert [law.cdf(xi) for xi in grid] == [stat.cdf(xi) for xi in grid]
        assert law.quadrature_mass() == stat.quadrature_mass()


def test_stationary_law_cdf_and_sampling():
    law = stationary_law(PAR_C)
    p, half = PAR_C.p, 0.5 * PAR_C.theta
    for pc in law.pieces:
        # Piece cdf accumulates exactly the stored mass over its support.
        assert pc.cdf(pc.upper) == pytest.approx(pc.mass, rel=1e-12)
        for v in (0.13, 0.5, 0.92):
            # Closed-form quantiles of the eta representation, p + (1-p) eta
            # above p and p (1 - eta) below.
            xi = p + (1.0 - p) * v**half if pc.lower == p else p * (1.0 - (1.0 - v) ** half)
            assert pc.lower <= xi <= pc.upper
            assert pc.cdf(xi) / pc.mass == pytest.approx(v, abs=1e-10)
    draws = stationary_sample(PAR_C, RngStream(31, 0), size=20_000)
    cdf_vec = lambda v: np.array([law.cdf(float(s)) for s in np.atleast_1d(v)])
    assert kstest(draws, cdf_vec).pvalue > 0.01


def test_sample_transition_matches_moments():
    rng = RngStream(5, 0)
    par, x, t = PAR_A, 0.7, 1.0
    draws = sample_transition(par, x, t, rng, size=200_000) - par.p
    for n in (1, 2, 3):
        vals = draws**n
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        z = abs(float(vals.mean()) - transition_moment(par, n, x, t)) / se
        assert z < 4.0, f"moment {n}: z = {z:.2f}"
    atom_freq = float(np.mean(draws + par.p == marginal_q(par, x, t)[0]))
    want = math.exp(-t)
    assert abs(atom_freq - want) < 4.0 * math.sqrt(want * (1 - want) / draws.size)


def test_replacement_components_sum_to_density():
    par, x, t = TwoTypeParams(theta=2.0, p=0.3), 0.7, 0.8
    for xi in (0.05, 0.12, 0.85, 0.97):
        total = math.fsum(
            replacement_component_density(par, x, t, k, xi) for k in range(1, 60)
        )
        assert total == pytest.approx(
            transition_density_eval(par, x, t, xi), abs=1e-10
        )
    with pytest.raises(InvalidParameterError):
        replacement_component_density(par, x, t, 0, 0.5)


def test_replacement_components_integrate_to_poisson_weights():
    par, x, t = PAR_A, 0.1, 1.3
    eh = math.exp(-0.5 * par.theta * t)
    lo_top = par.p * -math.expm1(-0.5 * par.theta * t)
    hi_bot = par.p + (1.0 - par.p) * eh
    for k in (1, 2, 5, 9):
        f = lambda xi: replacement_component_density(par, x, t, k, xi)
        got = (
            integrate.quad(f, 0.0, lo_top, limit=200, epsabs=1e-12)[0]
            + integrate.quad(f, hi_bot, 1.0, limit=200, epsabs=1e-12)[0]
        )
        want = math.exp(-t) * t**k / math.factorial(k)
        assert got == pytest.approx(want, abs=1e-9)


def test_simulate_path_invariants():
    par = TwoTypeParams(theta=1.5, p=0.45)
    rec = simulate_path(par, 0.8, 6.0, RngStream(9, 0))
    times = [ev[0] for ev in rec.events]
    assert times == sorted(times)
    last_t, last_f = 0.0, 0.8
    for when, kind, freq in rec.events:
        assert 0.0 < when <= 6.0
        assert (kind, freq) in ((1, 1.0), (2, 0.0))
        last_t, last_f = when, freq
    flow = par.p + (last_f - par.p) * math.exp(-0.75 * (6.0 - last_t))
    assert rec.final_frequency == pytest.approx(flow, rel=1e-15)
    # An infinite horizon would never end the event loop.
    with pytest.raises(InvalidParameterError):
        simulate_path(par, 0.4, math.inf, RngStream(0))


def test_path_endpoint_ensemble_mean():
    par, x, t = PAR_A, 0.7, 1.0
    ends = path_endpoint_ensemble(par, x, t, 100_000, RngStream(12, 0))
    assert ends.shape == (100_000,)
    assert float(ends.min()) >= 0.0 and float(ends.max()) <= 1.0
    want = par.p + transition_moment(par, 1, x, t)
    se = float(ends.std(ddof=1)) / math.sqrt(ends.size)
    assert abs(float(ends.mean()) - want) < 4.0 * se
    for bad_x, bad_t, size in ((0.7, math.inf, 10), (2.0, 1.0, 10), (0.7, 1.0, -1)):
        with pytest.raises(InvalidParameterError):
            path_endpoint_ensemble(par, bad_x, bad_t, size, RngStream(0))
