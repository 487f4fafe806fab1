"""Selection: drift flows, skeleton chain, stationary law, fixation, dual.

Frozen reference values come from two independent constructions: nested
40-digit quadrature of exponentially aged endpoint flows (skeleton
expectations, stationary densities) and direct high-precision evaluation
of the fixation integrals.  scipy's ODE solver provides a third route for
the flow closed forms.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.stats import kstest

import starcoal.selection as selection
import starcoal.verification as verification
from starcoal.core import (
    LINE_LAW_N_CAP,
    DomainEscapeError,
    InvalidParameterError,
    NoStationaryDistributionError,
    NonMonotoneDriftError,
    QuadratureError,
    RngStream,
    SimulationAbortError,
    StarcoalError,
    TwoTypeParams,
    mean_se,
    mean_se_of_counts,
)
from starcoal.selection import (
    AsgPath,
    DriftSpec,
    asg_count_ensemble,
    asg_simulate,
    asg_stationary,
    asg_stationary_gf,
    custom_drift,
    fixation_prob,
    flow,
    logistic_drift,
    mutation_selection_drift,
    neutral_drift,
    replacement_stationary,
    roots,
    selection_duality_check,
    simulate_path,
    skeleton_matrix,
    stationary_density,
    stationary_law,
    stationary_sample,
    ua_time_ensemble,
)
from starcoal.twotype import stationary_density_eval

MS = mutation_selection_drift(1.0, 0.5, 2.0)


def test_drift_spec_validation():
    assert neutral_drift(1.0, 0.3).velocity(0.5) == pytest.approx(-0.1, rel=1e-15)
    assert logistic_drift(2.0).velocity(0.25) == pytest.approx(0.1875, rel=1e-15)
    assert MS.velocity(0.3) == pytest.approx(
        0.5 * (0.5 - 0.3) + 0.3 * 0.7, rel=1e-14
    )
    cd = custom_drift(lambda y: 0.1 * (0.4 - y))
    assert cd.velocity(0.9) == pytest.approx(-0.05, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        DriftSpec(kind="quadratic")
    with pytest.raises(InvalidParameterError):
        neutral_drift(1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        logistic_drift(-2.0)
    with pytest.raises(InvalidParameterError):
        custom_drift(None)


def test_roots():
    rp = roots(1.0, 2.0, 0.5)
    # Golden-ratio point: r1 = (1 + sqrt 5)/4.
    assert rp.r1 == pytest.approx(0.25 * (1.0 + math.sqrt(5.0)), rel=1e-15)
    assert rp.r2 < 0.0 < rp.r1 < 1.0
    phi = rp.theta / rp.beta
    for r in (rp.r1, rp.r2):
        assert r * r - (1.0 - phi) * r - rp.p * phi == pytest.approx(0.0, abs=1e-15)
    assert rp.decay_rate == pytest.approx(rp.beta * (rp.r1 - rp.r2) / 2.0, rel=1e-15)
    # Weak selection: the product form avoids cancellation, r1 -> p.
    weak = roots(1.0, 1e-8, 0.3)
    assert weak.r1 == pytest.approx(0.3, abs=1e-6)
    assert 0.0 < weak.r1 < 1.0
    with pytest.raises(InvalidParameterError):
        roots(1.0, 0.0, 0.5)


def _ivp_flow(velocity, chi0, t):
    sol = solve_ivp(
        lambda _s, y: [velocity(float(y[0]))],
        (0.0, t),
        [chi0],
        rtol=1e-11,
        atol=1e-13,
        max_step=0.1,
    )
    return float(sol.y[0][-1])


def test_flow_closed_forms_against_ode():
    cases = (
        (neutral_drift(1.3, 0.4), 0.9, 0.7),
        (logistic_drift(2.1), 0.2, 1.1),
        (MS, 0.3, 0.9),
        (MS, 0.95, 2.5),
    )
    for drift, x0, t in cases:
        assert flow(drift, x0, t) == pytest.approx(
            _ivp_flow(drift.velocity, x0, t), abs=1e-8
        )
    # Custom kind runs the same ODE machinery internally.
    cd = custom_drift(MS.velocity)
    assert flow(cd, 0.3, 0.9) == pytest.approx(flow(MS, 0.3, 0.9), abs=1e-8)


def test_flow_semigroup_and_equilibria():
    for x0 in (0.05, 0.5, 0.97):
        two_step = flow(MS, flow(MS, x0, 0.6), 1.1)
        assert two_step == pytest.approx(flow(MS, x0, 1.7), abs=1e-13)
    rp = roots(1.0, 2.0, 0.5)
    assert flow(MS, rp.r1, 5.0) == rp.r1
    assert flow(MS, 0.2, math.inf) == pytest.approx(rp.r1, rel=1e-15)
    assert flow(neutral_drift(1.0, 0.3), 0.9, math.inf) == pytest.approx(0.3)
    assert flow(logistic_drift(1.5), 0.4, math.inf) == 1.0
    assert flow(logistic_drift(1.5), 0.0, math.inf) == 0.0
    with pytest.raises(InvalidParameterError):
        flow(custom_drift(lambda y: 0.0), 0.5, math.inf)
    with pytest.raises(InvalidParameterError):
        flow(MS, 1.2, 1.0)
    with pytest.raises(InvalidParameterError):
        flow(neutral_drift(1.0, 0.3), 0.3, math.nan)


def test_flow_returns_python_floats():
    # One step per drift serves floats and arrays; a scalar start and time
    # must come back a Python float, not a numpy scalar or a 0-d array.
    cd = custom_drift(MS.velocity)
    for drift in (neutral_drift(1.0, 0.3), logistic_drift(1.5), MS, cd):
        for x0 in (0.0, 0.4, 1.0):
            for t in (0.0, 0.7) if drift is cd else (0.0, 0.7, math.inf):
                assert type(flow(drift, x0, t)) is float, (drift.kind, x0, t)
    assert flow(logistic_drift(1.5), 0.0, math.inf) == 0.0
    r1 = roots(1.0, 2.0, 0.5).r1
    for t in (0.0, 0.7, math.inf):
        assert flow(MS, r1, t) == r1
    rec = simulate_path(logistic_drift(1.8), 0.6, 5.0, RngStream(63, 0))
    assert type(rec.final_frequency) is float


def test_simulate_path_solves_the_roots_once(monkeypatch):
    calls = []
    monkeypatch.setattr(selection, "roots", lambda *a: calls.append(a) or roots(*a))
    for horizon in (0.5, 40.0):
        calls.clear()
        rec = simulate_path(MS, 0.4, horizon, RngStream(65, 0))
        assert len(calls) == 1, (horizon, len(rec.events))
    assert len(rec.events) > 20


def test_skeleton_matrix_closed_forms():
    theta, p = 1.6, 0.3
    m = skeleton_matrix(neutral_drift(theta, p))
    shrink = 1.0 / (1.0 + 0.5 * theta)
    assert m[0, 0] == pytest.approx(p + (1.0 - p) * shrink, rel=1e-14)
    assert m[1, 0] == pytest.approx(p * (1.0 - shrink), rel=1e-14)
    assert m.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-15)
    # Pure selection pins the endpoint flows, so the chain is absorbing.
    assert skeleton_matrix(logistic_drift(2.0)) == pytest.approx(np.eye(2))


def test_skeleton_series_and_quadrature_agree():
    # Aged endpoint flows by 40-digit quadrature, theta=1, beta=2, p=1/2.
    m = skeleton_matrix(MS)
    assert m[0, 0] == pytest.approx(0.8942883810870853847, rel=1e-12)
    assert m[1, 0] == pytest.approx(0.2631353153328790285, rel=1e-12)
    sq = selection._skeleton_quadrature(MS)
    ss = verification._skeleton_series(MS)
    assert ss[0] == pytest.approx(sq[0], abs=1e-9)
    assert ss[1] == pytest.approx(sq[1], abs=1e-9)
    # Near-degenerate roots push the series ratios toward 1; the battery's
    # reference series must still agree with the quadrature there.
    tight = mutation_selection_drift(1.0, 0.001, 1.0)
    sq = selection._skeleton_quadrature(tight)
    ss = verification._skeleton_series(tight)
    assert ss[0] == pytest.approx(sq[0], abs=1e-9)
    assert ss[1] == pytest.approx(sq[1], abs=1e-9)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _mp_skeleton(theta, p, beta):
    """(E mu(T), E nu(T)), T ~ Exp(1), as 30-digit integrals of e^{-t} times
    the closed-form flow, (x - r1)/(x - r2) = ratio0 e^{-rate t}.

    The cuts sit at 1 and 10 for the weight, at 1/rate and 10/rate for the
    flow's layer, and at log|ratio0|/rate, where a flow started near the
    unstable root takes off; cuts past t = 100 carry no weight.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        phi = mpmath.mpf(theta) / beta
        s = 1 - phi
        disc = mpmath.sqrt(s * s + 4 * mpmath.mpf(p) * phi)
        r1, r2 = (s + disc) / 2, (s - disc) / 2
        rate = mpmath.mpf(beta) / 2 * (r1 - r2)
        out = []
        for x0 in (1, 0):
            ratio0 = (x0 - r1) / (x0 - r2)
            cuts = {mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(10), 1 / rate, 10 / rate}
            if abs(ratio0) > 1:
                cuts.add(mpmath.log(abs(ratio0)) / rate)

            def weighted_flow(t, ratio0=ratio0):
                u = ratio0 * mpmath.exp(-rate * t)
                return mpmath.exp(-t) * (r1 - r2 * u) / (1 - u)

            out.append(float(mpmath.quad(weighted_flow, sorted(c for c in cuts if c < 100) + [mpmath.inf])))
        return np.array(out)


@settings(max_examples=40)
@given(theta=_log_uniform(1e-9, 1e3), p=st.floats(1e-6, 1.0 - 1e-6), beta=_log_uniform(1e-9, 1e3))
@example(theta=1e-6, p=0.5, beta=1e-8)
@example(theta=1e-6, p=0.3, beta=1e-6)
@example(theta=1e-7, p=0.1, beta=1e-8)
@example(theta=1e-20, p=0.5, beta=1e-20)
def test_skeleton_matches_mpmath_at_any_theta_and_beta(theta, p, beta):
    # At the second fixed point the geometric series raises, and at the
    # third it is 43-fold off in E nu(T).
    got = skeleton_matrix(mutation_selection_drift(theta, p, beta))[:, 0]
    assert np.max(np.abs(got - _mp_skeleton(theta, p, beta))) < 1e-12


@pytest.mark.parametrize("theta, p, beta", [(0.001, 0.3, 0.001), (0.01, 0.3, 0.01)])
def test_skeleton_series_at_weak_mutation_and_selection(theta, p, beta):
    # The series prefactor (1 + c)^(-1/g) is 2^-1826 and 2^-183 here, and
    # the terms rise for about 1/g steps.
    drift = mutation_selection_drift(theta, p, beta)
    assert np.max(np.abs(skeleton_matrix(drift)[:, 0] - _mp_skeleton(theta, p, beta))) < 1e-10
    pi1, _ = replacement_stationary(drift)
    assert stationary_law(drift).mean() == pytest.approx(pi1, abs=1e-10)


@pytest.mark.parametrize(
    "module, route",
    [(selection, "_skeleton_core"), (verification, "_skeleton_series")],
    ids=["production E nu", "reference series p21"],
)
def test_skeleton_check_fails_when_either_route_is_scaled(monkeypatch, module, route):
    # The selection suite's skeleton check compares the production skeleton
    # with the geometric series; a fault of 1e-6 in either side must show.
    check = "max |series skeleton - quadrature skeleton|"
    assert all(r.passed for r in verification.run_suites(["selection"], seed=42) if r.name == check)
    exact = getattr(module, route)

    def scaled(drift):
        e_mu, e_nu = exact(drift)
        return e_mu, (1.0 + 1e-6) * e_nu

    monkeypatch.setattr(module, route, scaled)
    assert check in {r.name for r in verification.run_suites(["selection"], seed=42) if not r.passed}


def test_skeleton_custom_matches_named():
    cd = custom_drift(MS.velocity)
    got = skeleton_matrix(cd)
    want = skeleton_matrix(MS)
    assert np.max(np.abs(got - want)) < 1e-8


def test_replacement_stationary():
    pi1, pi2 = replacement_stationary(MS)
    assert pi1 == pytest.approx(0.7133997626167875408, rel=1e-12)
    assert pi1 + pi2 == pytest.approx(1.0, abs=1e-15)
    # pi is stationary for the skeleton chain.
    pi = np.array([pi1, pi2])
    assert pi @ skeleton_matrix(MS) == pytest.approx(pi, abs=1e-13)
    # Without selection the chain's stationary law is (p, 1-p).
    assert replacement_stationary(neutral_drift(2.2, 0.37))[0] == pytest.approx(
        0.37, rel=1e-14
    )
    with pytest.raises(NoStationaryDistributionError):
        replacement_stationary(logistic_drift(1.0))


def test_stationary_density_oracles():
    # Flow-age quadrature oracles at theta=1, beta=2, p=1/2.
    assert stationary_density(MS, 0.9) == pytest.approx(
        3.587345201067961085695887900593, rel=1e-12
    )
    assert stationary_density(MS, 0.4) == pytest.approx(
        0.2554687355493758580216335524522, rel=1e-12
    )
    rp = roots(1.0, 2.0, 0.5)
    assert stationary_density(MS, rp.r1) == 0.0
    assert stationary_density(MS, 0.0) == 0.0
    assert stationary_density(MS, 1.0) == 0.0
    # The neutral kind reproduces the two-type stationary density.
    nd = neutral_drift(0.8, 0.35)
    par = TwoTypeParams(theta=0.8, p=0.35)
    for xi in (0.1, 0.34, 0.36, 0.8):
        assert stationary_density(nd, xi) == pytest.approx(
            stationary_density_eval(par, xi), rel=1e-13
        )
    assert stationary_density(nd, 0.35) == 0.0


def test_neutral_stationary_density_small_theta_vs_mpmath():
    # At small theta the power ((xi - p)/(1 - p))^(2/theta - 1) magnifies
    # the rounding of its base: a naive power lost 7.6e-9 relative here.
    mpmath = pytest.importorskip("mpmath")
    for theta, xi in ((1e-8, 1.0 - 1e-9), (1e-6, 1.0 - 1e-9), (1e-8, 1e-9), (1e-6, 0.2)):
        p = 0.3
        with mpmath.workdps(40):
            a, pm, x = 2 / mpmath.mpf(theta), mpmath.mpf(p), mpmath.mpf(xi)
            if xi > p:
                want = pm * a * ((x - pm) / (1 - pm)) ** (a - 1) / (1 - pm)
            else:
                want = (1 - pm) * a * (1 - x / pm) ** (a - 1) / pm
        got = stationary_density(neutral_drift(theta, p), xi)
        assert got == pytest.approx(float(want), rel=1e-14), (theta, xi)


def test_stationary_density_custom_matches_named():
    cd = custom_drift(MS.velocity)
    for xi in (0.3, 0.6, 0.95):
        assert stationary_density(cd, xi) == pytest.approx(
            stationary_density(MS, xi), rel=1e-8
        )


def test_stiff_custom_drift_needs_no_step_cap():
    # 6 + 80 y - 100 y^2 is the drift at theta = 40, p = 0.3, beta = 200.
    # The error controller alone keeps the stiff flow accurate; a step cap
    # at 1/L, L = 280, took 191,374 velocity calls for this skeleton.
    named = mutation_selection_drift(40.0, 0.3, 200.0)
    calls = [0]

    def velocity(y):
        calls[0] += 1
        return 6.0 + 80.0 * y - 100.0 * y * y

    cd = custom_drift(velocity)
    got = skeleton_matrix(cd)
    assert calls[0] <= 60_000
    assert got == pytest.approx(skeleton_matrix(named), rel=1e-12)
    assert replacement_stationary(cd)[0] == pytest.approx(replacement_stationary(named)[0], rel=1e-12)
    for xi in (0.1, 0.5, 0.9):
        assert stationary_density(cd, xi) == pytest.approx(stationary_density(named, xi), rel=1e-12)


def _custom_density_error(velocity) -> float:
    """Largest relative gap between the custom density of velocity and MS's
    closed form, over 27 points of (0.02, 0.98) and four points near r1."""
    cd = custom_drift(velocity)
    r1 = roots(1.0, 2.0, 0.5).r1
    points = np.linspace(0.02, 0.98, 29)[1:-1].tolist() + [r1 - 1e-3, r1 + 1e-3, r1 - 1e-6, r1 + 1e-6]
    return max(abs(stationary_density(cd, xi) / stationary_density(MS, xi) - 1.0) for xi in points)


def test_custom_density_by_quadrature_matches_closed_form():
    # The same drift written as a callable: 0.5 (0.5 - y) + y (1 - y).  The
    # ODE-and-root route was 1.2e-5 off at r1 +- 1e-6.
    assert _custom_density_error(lambda y: 0.5 * (0.5 - y) + y * (1.0 - y)) < 3e-10


def test_custom_density_check_sees_a_planted_fault():
    # A velocity 1e-6 too fast must move the density past the bound above,
    # so the check is not true by construction.
    assert _custom_density_error(lambda y: (1.0 + 1e-6) * MS.velocity(y)) > 1e-7


def test_custom_density_runs_no_flow(monkeypatch):
    # With the skeleton cached, the density integrates 1/|v| alone: no
    # flow, no ODE step.
    cd = custom_drift(MS.velocity)
    replacement_stationary(cd)

    def forbidden(*args):
        raise AssertionError("the custom density ran the flow ODE")

    monkeypatch.setattr(selection, "flow", forbidden)
    monkeypatch.setattr(selection, "_dp45", forbidden)
    for xi in (0.3, 0.9):
        assert stationary_density(cd, xi) == pytest.approx(stationary_density(MS, xi), rel=3e-10)


def test_custom_density_endpoint_equilibrium_is_empty():
    # v(1) = 0: the flow from 1 never leaves it, so nothing reaches 0.7.
    assert stationary_density(custom_drift(lambda y: (0.3 - y) * (1.0 - y)), 0.7) == 0.0


@pytest.mark.parametrize("fault", [math.nan, 0.0])
def test_custom_density_bad_velocity_names_the_call(fault):
    # The fault sits between xi and the orbit guard's first grid point, where
    # only the quadrature's nodes land.
    broken = {"on": False}
    cd = custom_drift(lambda y: fault if broken["on"] and 0.85 < y < 0.85 + 1e-9 else MS.velocity(y))
    replacement_stationary(cd)  # the skeleton, cached, sees the sound velocity
    broken["on"] = True
    with pytest.raises(QuadratureError, match=r"stationary_density\(custom drift, xi=0\.85\): .* not finite"):
        stationary_density(cd, 0.85)


def test_stationary_density_rejects_non_monotone_custom():
    # Three interior equilibria: inward at both boundaries, but the orbit
    # from 0 cannot pass the stable point at 0.2 to reach 0.6.
    bad = custom_drift(lambda y: -(y - 0.2) * (y - 0.5) * (y - 0.8))
    with pytest.raises(NonMonotoneDriftError):
        stationary_density(bad, 0.6)


def test_flow_escape_detection():
    # Every trajectory read names the start, the largest age and the drift
    # kind: the flow its own t, the skeleton its deepest quadrature node.
    sinking = custom_drift(lambda y: -1.0)
    with pytest.raises(DomainEscapeError, match=r"\(chi0 = 0\.5, t = 5\.0, custom drift\)"):
        flow(sinking, 0.5, 5.0)
    with pytest.raises(DomainEscapeError, match=r"\(chi0 = 1\.0, t = 53\.96\d*, custom drift\)"):
        skeleton_matrix(sinking)


def test_stationary_law_structure():
    law = stationary_law(MS)
    rp = roots(1.0, 2.0, 0.5)
    pi1, pi2 = replacement_stationary(MS)
    low = min(law.pieces, key=lambda pc: pc.lower)
    high = max(law.pieces, key=lambda pc: pc.lower)
    assert (low.lower, low.upper) == (0.0, rp.r1)
    assert (high.lower, high.upper) == (rp.r1, 1.0)
    assert low.mass == pytest.approx(pi2, rel=1e-14)
    assert high.mass == pytest.approx(pi1, rel=1e-14)
    assert law.quadrature_mass() == pytest.approx(1.0, abs=1e-9)
    assert law.mean() == pytest.approx(pi1, abs=1e-9)
    assert law.cdf(rp.r1) == pytest.approx(pi2, rel=1e-12)
    for pc in law.pieces:
        for v in (0.2, 0.8):
            # Quantiles push an Exp(1) age through the endpoint flow, from 0
            # below r1 and from 1 above it.
            xi = flow(MS, 0.0, -math.log1p(-v)) if pc.upper == rp.r1 else flow(MS, 1.0, -math.log(v))
            assert pc.lower <= xi <= pc.upper
            assert pc.cdf(xi) == pytest.approx(v * pc.mass, abs=1e-12)
        mid = 0.5 * (pc.lower + pc.upper)
        assert pc.density(mid) == pytest.approx(stationary_density(MS, mid), rel=1e-13)
    with pytest.raises(NoStationaryDistributionError):
        stationary_law(logistic_drift(1.0))
    with pytest.raises(InvalidParameterError):
        stationary_law(custom_drift(lambda y: 0.5 - y))


def test_stationary_sampling():
    law = stationary_law(MS)
    draws = stationary_sample(MS, RngStream(61, 0), size=20_000)
    cdf_vec = lambda v: np.array([law.cdf(float(s)) for s in np.atleast_1d(v)])
    assert kstest(draws, cdf_vec).pvalue > 0.01
    # Custom drift reads its draws from one trajectory per endpoint.
    cd = custom_drift(MS.velocity)
    few = stationary_sample(cd, RngStream(62, 0), size=4)
    assert few.shape == (4,)
    assert np.all((few >= 0.0) & (few <= 1.0))


def test_simulate_path_under_selection():
    rec = simulate_path(logistic_drift(1.8), 0.6, 5.0, RngStream(63, 0))
    times = [ev[0] for ev in rec.events]
    assert times == sorted(times)
    for when, kind, freq in rec.events:
        assert (kind, freq) in ((1, 1.0), (2, 0.0))
    # Frequency zero is absorbing for pure selection.
    flat = simulate_path(logistic_drift(1.8), 0.0, 3.0, RngStream(64, 0))
    assert flat.final_frequency == 0.0
    assert all(freq == 0.0 for _, _, freq in flat.events)
    with pytest.raises(InvalidParameterError):
        simulate_path(logistic_drift(1.8), 0.6, math.inf, RngStream(0))


def test_fixation_prob_oracles():
    # Direct high-precision evaluation of the defining integrals.
    assert fixation_prob(0.8, 0.3, 1) == pytest.approx(
        0.3918141508145016500880724960855, rel=1e-11
    )
    assert fixation_prob(0.8, 0.4, 2) == pytest.approx(
        0.3156787625206986561154486451155, rel=1e-11
    )
    assert fixation_prob(5.0, 0.2, 1) == pytest.approx(
        0.6058092379501323802071347532628, rel=1e-11
    )
    # beta = 2 at x = 1/2 integrates to ln 2 in closed form.
    assert fixation_prob(2.0, 0.5, 1) == pytest.approx(math.log(2.0), abs=1e-10)


def test_fixation_prob_strong_selection():
    # beta > 2 puts an integrable z^(2/beta - 1) singularity in the defining
    # integral; the reference integrates it in v = -(2/beta) log z, where it
    # is smooth, at 30 digits.  The grid spans both sides of beta = 2, where
    # fixation_prob changes the end its offsets run from, and frequencies
    # 1e-6 from either boundary.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for beta in (1e-3, 0.5, 2.0 - 1e-7, 2.0 + 1e-7, 2.5, 5.0, 50.0, 400.0, 1600.0, 1e4):
            half = mpmath.mpf(beta) / 2
            cuts = sorted({mpmath.mpf(0), 1 / half, 8 / half, mpmath.mpf(1)}) + [mpmath.inf]
            for x in (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6):
                xm = mpmath.mpf(x)
                ref = xm * mpmath.quad(
                    lambda v: mpmath.exp(-v) / (xm + (1 - xm) * mpmath.exp(-v * half)), cuts
                )
                assert abs(fixation_prob(beta, x, 1) - ref) < 1e-12, (beta, x)
                assert abs(fixation_prob(beta, 1.0 - x, 2) - (1 - ref)) < 1e-12, (beta, x)


def test_fixation_prob_properties():
    for beta in (0.5, 2.0, 7.0):
        for x in (0.1, 0.5, 0.9):
            total = fixation_prob(beta, x, 1) + fixation_prob(beta, 1.0 - x, 2)
            assert total == pytest.approx(1.0, abs=1e-12)
    assert fixation_prob(3.0, 0.0, 1) == 0.0
    assert fixation_prob(3.0, 1.0, 1) == 1.0
    assert fixation_prob(3.0, 0.0, 2) == 0.0
    # Stronger selection favours type 1 more.
    vals = [fixation_prob(b, 0.3, 1) for b in (0.5, 2.0, 8.0)]
    assert vals[0] < vals[1] < vals[2]
    # Vanishing selection approaches the neutral martingale value x.
    assert fixation_prob(1e-6, 0.37, 1) == pytest.approx(0.37, abs=1e-4)
    with pytest.raises(InvalidParameterError):
        fixation_prob(2.0, 0.5, 3)
    with pytest.raises(InvalidParameterError):
        fixation_prob(-1.0, 0.5, 1)


def test_asg_simulate_invariants():
    # Replay the dual from an identical stream.  Each event draws one Exp(1)
    # wait over the total rate i beta/2 + 1 (collapse only from i >= 2); a
    # wait past the horizon ends the run, else one uniform picks the
    # collapse to 1 (probability 1/total) or a branch to i + 1.
    beta, horizon = 1.5, 2.0
    mine, twin = RngStream(65, 0), RngStream(65, 0)
    hit = 0
    for n in (4, 2, 7) * 20:
        clock, state, t_ua = 0.0, n, None
        while True:
            branch = 0.5 * beta * state
            total = branch + (1.0 if state >= 2 else 0.0)
            clock += twin.gen.exponential() / total
            if clock > horizon:
                break
            if state >= 2 and twin.gen.random() * total >= branch:
                state = 1
                t_ua = clock if t_ua is None else t_ua
            else:
                state += 1
        hit += t_ua is not None
        assert asg_simulate(n, beta, mine, horizon) == AsgPath(final_state=state, t_ua=t_ua)
    assert 0 < hit < 60
    assert mine.gen.random() == twin.gen.random()
    # Starting from one line the ancestor is immediate.
    assert asg_simulate(1, beta, RngStream(66, 0), horizon=3.0).t_ua == 0.0
    with pytest.raises(InvalidParameterError):
        asg_simulate(0, beta, RngStream(0), horizon=1.0)
    with pytest.raises(InvalidParameterError):
        asg_simulate(3, beta, RngStream(0), horizon=math.inf)


def test_ua_time_is_unit_exponential():
    # From two or more lines the count only grows until the first
    # collapse, so T_UA is exactly Exp(1) regardless of n and beta.
    for n, beta, seed in ((2, 0.5, 68), (10, 2.0, 69)):
        times = ua_time_ensemble(n, beta, 30_000, RngStream(seed, 0))
        se = float(times.std(ddof=1)) / math.sqrt(times.size)
        assert abs(float(times.mean()) - 1.0) < 3.5 * se
        assert kstest(times, "expon").pvalue > 0.01
    assert np.all(ua_time_ensemble(1, 2.0, 50, RngStream(70, 0)) == 0.0)
    with pytest.raises(InvalidParameterError):
        ua_time_ensemble(2, 2.0, -1, RngStream(0))


def _asg_stationary_oracle(beta: float, i: int) -> float:
    """pi_i = a (i-1)! / ((a+1) ... (a+i)), a = 2/beta, in exact Fractions."""
    a = Fraction(2) / Fraction(beta)
    val = a * math.factorial(i - 1)
    for m in range(1, i + 1):
        val /= a + m
    return float(val)


def test_asg_stationary():
    # The integer ratio rounds the exact rational once, as the oracle does.
    for beta in (1e-3, 0.1, 0.37, 1.3, 1.7, 2.0, 5.3, 123.456):
        for i in range(1, 65):
            assert asg_stationary(beta, i) == _asg_stationary_oracle(beta, i)
    # beta = 2 collapses to 1/(i(i+1)), exactly.
    for i in (1, 2, 7, 20):
        assert asg_stationary(2.0, i) == float(Fraction(1, i * (i + 1)))
    # Global balance: states above 1 are entered only by branching from
    # below, so pi_i (beta i/2 + 1) = pi_{i-1} beta (i-1)/2 for i >= 2.
    beta = 1.3
    for i in range(2, 25):
        out_rate = asg_stationary(beta, i) * (0.5 * beta * i + 1.0)
        in_rate = asg_stationary(beta, i - 1) * 0.5 * beta * (i - 1.0)
        assert out_rate == pytest.approx(in_rate, rel=1e-12)
    # The integer-ratio and log-gamma branches agree across the switch at the cap.
    i = LINE_LAW_N_CAP
    lo = asg_stationary(1.7, i)
    hi = asg_stationary(1.7, i + 1)
    assert hi / lo == pytest.approx(i / (2.0 / 1.7 + i + 1.0), rel=1e-10)
    with pytest.raises(InvalidParameterError):
        asg_stationary(2.0, 0)


def test_asg_stationary_gf():
    for beta in (0.5, 2.0, 7.0):
        for y in (0.1, 0.5, 0.9):
            partial = math.fsum(
                asg_stationary(beta, i) * y**i for i in range(1, 400)
            )
            assert asg_stationary_gf(beta, y) == pytest.approx(partial, abs=1e-10)
            # The generating function is the type-2 fixation probability.
            assert asg_stationary_gf(beta, y) == pytest.approx(
                fixation_prob(beta, y, 2), abs=1e-8
            )
    assert asg_stationary_gf(2.0, 0.0) == 0.0
    with pytest.raises(InvalidParameterError):
        asg_stationary_gf(2.0, 1.0)


def test_asg_count_ensemble_matches_event_simulation():
    n, beta, t = 2, 1.2, 0.8
    counts = asg_count_ensemble(n, beta, t, 30_000, RngStream(71, 0))
    assert counts.min() >= 1
    rng = RngStream(72, 0)
    direct = np.array(
        [asg_simulate(n, beta, rng, horizon=t).final_state for _ in range(4_000)]
    )
    for level in (1, 2, 3):
        p1 = float(np.mean(counts <= level))
        p2 = float(np.mean(direct <= level))
        se = math.sqrt(
            p1 * (1.0 - p1) / counts.size + p2 * (1.0 - p2) / direct.size
        )
        assert abs(p1 - p2) < 4.0 * se, f"P(B <= {level}): {p1:.4f} vs {p2:.4f}"


def test_selection_duality_power_table(monkeypatch):
    # rhs values read from a table of x^k equal np.power over the counts;
    # the rhs reduces the tally of the counts against that table, which is
    # mean_se over the per-run values to rounding.
    counts, seen = [], []
    real_counts = selection.asg_count_ensemble
    monkeypatch.setattr(selection, "asg_count_ensemble", lambda *a: counts.append(real_counts(*a)) or counts[-1])
    monkeypatch.setattr(selection, "mean_se_of_counts", lambda c, v: seen.append((c, v)) or mean_se_of_counts(c, v))
    for x in (0.0, 0.37, 1.0):
        _, rhs, (_, rhs_se) = selection_duality_check(3, x, 0.8, 1.5, 20_000, RngStream(74))
        tally, table = seen[-1]
        values = np.power(x, counts[-1].astype(float))
        assert np.array_equal(tally, np.bincount(counts[-1]))
        assert np.array_equal(table[counts[-1]], values)
        mean, se = mean_se(values)
        assert math.isclose(rhs, mean, rel_tol=1e-12) and math.isclose(rhs_se, se, rel_tol=1e-12)


def test_selection_duality_check():
    lhs, rhs, (se_l, se_r) = selection_duality_check(
        2, 0.5, 1.0, 2.0, 50_000, RngStream(73, 0)
    )
    assert se_l > 0.0 and se_r > 0.0
    assert abs(lhs - rhs) < 4.0 * math.hypot(se_l, se_r)
    with pytest.raises(InvalidParameterError):
        selection_duality_check(2, 0.5, 1.0, 2.0, 1, RngStream(0))
    # An infinite horizon would never end the staged event loops.
    with pytest.raises(InvalidParameterError):
        selection_duality_check(2, 0.5, math.inf, 2.0, 10, RngStream(0))
    with pytest.raises(InvalidParameterError):
        asg_count_ensemble(2, 2.0, math.inf, 10, RngStream(0))
    for bad_beta in (-1.0, math.nan):
        with pytest.raises(InvalidParameterError):
            selection_duality_check(2, 0.4, 0.8, bad_beta, 100, RngStream(0))


def test_asg_simulate_memory_does_not_grow_with_its_events():
    # At beta = 3 the dual takes about 15,000 events to horizon 200; a run
    # that kept them would hold hundreds of KiB.
    tracemalloc.start()
    try:
        asg_simulate(2, 3.0, RngStream(3, 0), horizon=200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_state_cap_aborts(monkeypatch):
    monkeypatch.setattr(selection, "ASG_STATE_CAP", 12)
    # The ensemble finishes replicates at its own, lower threshold with an
    # exact residual, so it never reaches the cap; the path simulator does.
    times = ua_time_ensemble(10, 8.0, 2_000, RngStream(74, 0))
    assert times.shape == (2_000,)
    assert np.all(np.isfinite(times))
    with pytest.raises(SimulationAbortError):
        asg_simulate(11, 50.0, RngStream(75, 0), horizon=10.0)


def test_state_cap_abort_names_inputs(monkeypatch):
    # Both raise sites name the start count, beta and the cap: the path
    # simulator, and the Yule phases of the count ensemble.
    monkeypatch.setattr(selection, "ASG_STATE_CAP", 12)
    with pytest.raises(SimulationAbortError, match=r"n = 11 at beta = 50\.0 exceeded ASG_STATE_CAP = 12 lines"):
        asg_simulate(11, 50.0, RngStream(75, 0), horizon=10.0)
    with pytest.raises(SimulationAbortError, match=r"n = 3 at beta = 4\.0 exceeded ASG_STATE_CAP = 12 lines"):
        asg_count_ensemble(3, 4.0, 2.0, 200, RngStream(77, 0))


def test_ua_residual_stitching(monkeypatch):
    # With the threshold two states above the start, half the beta = 2
    # replicates finish on the Exp(1) residual; the stitched clock must
    # still be exactly Exp(1).
    n = 2
    monkeypatch.setattr(selection, "_UA_RESIDUAL_STATE", n + 2)
    times = ua_time_ensemble(n, 2.0, 30_000, RngStream(76, 0))
    se = float(times.std(ddof=1)) / math.sqrt(times.size)
    assert abs(float(times.mean()) - 1.0) < 3.5 * se
    assert kstest(times, "expon").pvalue > 0.01


def test_asg_suite_finishes_at_former_abort_seeds():
    # Seeds 3 and 28 once drove a beta = 2 replicate past ASG_STATE_CAP.
    for seed in (3, 28):
        results = verification.run_suites("asg", seed)
        assert len(results) == 5
        assert all(isinstance(r, verification.CheckResult) for r in results)


def test_asg_stationary_gf_fails_fast_near_one():
    start = time.perf_counter()
    with pytest.raises(StarcoalError, match="y=0.999999"):
        asg_stationary_gf(2.0, 0.999999)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(InvalidParameterError):
        asg_stationary_gf(0.0, 0.5)


def test_skeleton_series_raises_typed_error():
    # phi = 1 with tiny p puts the p11 ratio b within 2e-6 of 1, far
    # beyond the series' term budget.
    with pytest.raises(QuadratureError, match="theta=1.0") as exc:
        verification._skeleton_series(mutation_selection_drift(1.0, 1e-12, 1.0))
    assert math.isfinite(exc.value.estimate)


def _failing_quad(f_off, width):
    raise QuadratureError(f"offset integral over width {width!r} failed", 0.5, 1.0)


@pytest.mark.parametrize(
    "call, lead",
    [
        (lambda: fixation_prob(2.0, 0.5, 1), "fixation_prob(beta=2.0, x=0.5, fixed_type=1): "),
        (lambda: selection._skeleton_quadrature(MS), f"skeleton quadrature for {MS!r}: "),
    ],
    ids=["fixation_prob", "skeleton_quadrature"],
)
def test_quadrature_error_names_the_call(monkeypatch, call, lead):
    # Integrals outside a MixedLaw lead their QuadratureError with the call,
    # keeping quad_offset's message, estimate and bound.
    monkeypatch.setattr(selection, "quad_offset", _failing_quad)
    with pytest.raises(QuadratureError) as exc:
        call()
    assert exc.value.message == lead + "offset integral over width 1.0 failed"
    assert (exc.value.estimate, exc.value.error_bound) == (0.5, 1.0)


def test_fixed_type_error_names_the_value():
    with pytest.raises(InvalidParameterError, match=r"fixed_type must be 1 or 2, got 3$"):
        fixation_prob(2.0, 0.5, 3)


def test_fixation_complement_points_against_mpmath():
    # The selection suite's complement check reads P_fix(1) + P_fix(2) - 1
    # as exactly 0 at its 9 points, which cannot tell a formula error the
    # two integrals share; each is held to a 30-digit integral in u = z^a.
    mpmath = pytest.importorskip("mpmath")
    for beta in (0.5, 2.0, 5.0):
        for x in (0.1, 0.5, 0.9):
            y = 1.0 - x
            with mpmath.workdps(30):
                a, xm, ym = 2 / mpmath.mpf(beta), mpmath.mpf(x), mpmath.mpf(y)
                p1 = xm * mpmath.quad(lambda u: 1 / (xm + (1 - xm) * u ** (1 / a)), [0, 1])
                p2 = ym * mpmath.quad(lambda u: u ** (1 / a) / (1 - ym + ym * u ** (1 / a)), [0, 1])
            assert fixation_prob(beta, x, 1) == pytest.approx(float(p1), rel=1e-14), (beta, x)
            assert fixation_prob(beta, y, 2) == pytest.approx(float(p2), rel=1e-14), (beta, y)
