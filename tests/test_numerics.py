"""The package's own numeric routines against scipy as a reference.

The KS survival function of the verify battery, the Dormand-Prince flow of
custom drifts and the bracketing root finder behind MixedLaw.sample stand
in for scipy.stats.kstwo, solve_ivp and brentq at runtime; here they are
held to those routines, and the flow to the closed forms of the named
drifts.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import kstest, kstwo

from starcoal.core import DomainEscapeError, InvalidParameterError, RngStream, TwoTypeParams, brent_root
from starcoal.selection import _flow_step, custom_drift, flow, logistic_drift, mutation_selection_drift, stationary_sample
from starcoal.twotype import transition_law
from starcoal.verification import _ks_pvalue, _ks_sf


def _ks_grid(n: int) -> list[float]:
    # sqrt(n) d from 0.3 to 20; at n = 1e6 scipy's one-sided sum takes
    # about a second a point, so that branch gets two points there.
    scaled = np.geomspace(0.3, 20.0, 24)
    if n > 100_000:
        scaled = [s for s in scaled if s * s < 2.2] + [1.6, 4.5]
    return [s / math.sqrt(n) for s in scaled]


@pytest.mark.parametrize("n", [40_000, 1_000_000])
def test_ks_sf_matches_kstwo(n):
    for d in _ks_grid(n):
        want, got = float(kstwo.sf(d, n)), _ks_sf(d, n)
        if want < sys.float_info.min:
            # Subnormal values keep too few bits for a relative comparison.
            assert got < sys.float_info.min, (n, d)
            continue
        rel = 1e-12 if n * d * d < 2.2 else 1e-9
        assert got == pytest.approx(want, rel=rel), (n, d, n * d * d)


def test_ks_sf_exact_ends():
    assert _ks_sf(0.5 / 40_000, 40_000) == 1.0
    assert _ks_sf(1.0, 40_000) == 0.0
    assert _ks_sf(20.0 / 200.0, 40_000) == 0.0


def test_ks_pvalue_matches_kstest():
    rng = RngStream(5, 0)
    draws = rng.gen.random(40_000)
    assert _ks_pvalue(draws.copy()) == pytest.approx(kstest(draws, "uniform").pvalue, rel=1e-12)
    times = rng.gen.exponential(size=40_000)
    got = _ks_pvalue(times.copy(), lambda x: -np.expm1(-x))
    assert got == pytest.approx(kstest(times, "expon").pvalue, rel=1e-12)
    # A shifted sample lands on the one-sided branch.
    got = _ks_pvalue(times + 0.02, lambda x: -np.expm1(-x))
    assert got == pytest.approx(kstest(times + 0.02, "expon").pvalue, rel=1e-9)
    assert got < 0.01


def test_custom_flow_matches_closed_forms():
    # Lipschitz bounds of v on [0, 1]: beta/2 and (theta + beta)/2.
    named = ((logistic_drift(1.7), 0.85), (mutation_selection_drift(1.0, 0.3, 2.5), 1.75))
    for drift, lipschitz in named:
        copy = custom_drift(drift.velocity, lipschitz)
        for x0 in (0.0, 0.05, 0.4, 0.9, 1.0):
            for t in (0.01, 0.7, 3.0, 12.0):
                assert flow(copy, x0, t) == pytest.approx(flow(drift, x0, t), abs=1e-9), (drift.kind, x0, t)


def test_flow_of_a_nan_velocity_fails_fast():
    # A NaN slope makes every step's error NaN; the step size then falls
    # through the floor instead of shrinking forever.
    start = time.perf_counter()
    with pytest.raises(DomainEscapeError, match=r"flow integration failed \(chi0 = 0\.5, t = 2\.0, custom drift\)"):
        flow(custom_drift(lambda y: math.nan, 1.0), 0.5, 2.0)
    with pytest.raises(DomainEscapeError, match="flow integration failed"):
        flow(custom_drift(lambda y: math.nan if y < 0.45 else -0.1, 1.0), 0.5, 2.0)
    assert time.perf_counter() - start < 1.0


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def test_brent_root_matches_brentq_on_piece_cdfs():
    laws = (
        transition_law(TwoTypeParams(1.0, 0.3), 0.6, 1.0),
        transition_law(TwoTypeParams(0.5, 0.7), 0.2, 0.3),
        transition_law(TwoTypeParams(5.0, 0.5), 0.9, 2.0),
    )
    for law in laws:
        for pc in law.pieces:
            lo, hi = math.nextafter(pc.lower, pc.upper), math.nextafter(pc.upper, pc.lower)
            for share in (1e-6, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-6):
                target = share * pc.mass
                f, calls = _counted(lambda x: pc.cdf(x) - target)
                want = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
                theirs, calls[0] = calls[0], 0
                # The caller evaluates the ends, as MixedLaw._sample_piece does.
                got = brent_root(f, lo, hi, f(lo), f(hi), xtol=1e-14, rtol=8.9e-16)
                assert got == pytest.approx(want, abs=1e-13), (law.label, share)
                assert calls[0] <= theirs + 1, (law.label, share, calls[0], theirs)


def test_brent_root_needs_a_sign_change():
    with pytest.raises(InvalidParameterError, match="sign change"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, xtol=1e-12, rtol=1e-15)
    assert brent_root(lambda x: x - 0.25, 0.25, 1.0, 0.0, 0.75, xtol=1e-12, rtol=1e-15) == 0.25


# 0.5 (0.5 - y) + y (1 - y) as a callable, and its closed form.
BESPOKE = custom_drift(lambda y: 0.5 * (0.5 - y) + y * (1.0 - y), 2.0)
NAMED = mutation_selection_drift(1.0, 0.5, 2.0)


def test_custom_flow_at_any_age_integrates():
    # A last step cut to t - s once rounded below ten float spacings and
    # failed the step-size floor, from 0 at this age among others.
    ages = RngStream(8, 0).gen.standard_exponential(2000).tolist() + [0.02953226217088809]
    for x0 in (0.0, 1.0):
        for t in ages:
            flow(BESPOKE, x0, t)
    for seed in range(20):
        stationary_sample(BESPOKE, RngStream(seed, 0), size=200)


def test_million_custom_draws_match_closed_form():
    start = time.perf_counter()
    got = stationary_sample(BESPOKE, RngStream(3, 1), size=1_000_000)
    took = time.perf_counter() - start
    want = stationary_sample(NAMED, RngStream(3, 1), size=1_000_000)
    assert np.max(np.abs(got - want)) < 2e-11
    assert took < 10.0


def test_custom_flow_reads_do_not_depend_on_the_largest_age():
    # The trajectory never cuts a step at its last age, so a scalar flow
    # equals bit for bit its read inside a batch that runs further.
    ages = np.array([0.02953226217088809, 0.4, 1.3, 2.0, 7.5, 30.0])
    for x0 in (0.0, 0.35, 1.0):
        batch = _flow_step(BESPOKE)(np.full(ages.size, x0), ages)
        assert [flow(BESPOKE, x0, float(t)) for t in ages] == batch.tolist()
