"""Line-count chain: distributions, absorption, simulation, duality.

Independent routes used here: the chain's rate matrix is small and
explicit, so scipy's matrix exponential gives reference probabilities
without touching the closed forms, and mean absorption times satisfy a
first-step recursion solvable in exact rationals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from starcoal.core import InvalidParameterError, RngStream, TwoTypeParams
from starcoal.lines import (
    LineDist,
    absorption_time_ensemble,
    an_distribution,
    an_distribution_spectral,
    an_limit,
    duality_check,
    mean_absorption_time,
    simulate_lines,
    spectral_coeffs,
    stationary_moment_via_coalescent,
)
from starcoal.twotype import stationary_moment


def _rate_matrix(n: int, theta: float) -> np.ndarray:
    """States 0..n; mutation j -> j-1 at rate j theta/2, collapse j -> 1
    at rate 1 for j >= 2."""
    q = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        q[j, j - 1] += 0.5 * theta * j
        q[j, j] -= 0.5 * theta * j
        if j >= 2:
            q[j, 1] += 1.0
            q[j, j] -= 1.0
    return q


@pytest.mark.parametrize(
    "n,theta,t",
    [(5, 2.0, 0.7), (3, 0.5, 1.3), (8, 5.0, 0.25), (12, 1.0, 2.0)],
)
def test_an_distribution_against_matrix_exponential(n, theta, t):
    dist = an_distribution(n, theta, t)
    ref = expm(_rate_matrix(n, theta) * t)[n]
    assert np.max(np.abs(np.array(dist.probs) - ref)) < 1e-12
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-14)


def test_an_distribution_edges():
    dist = an_distribution(4, 1.5, 0.0)
    assert dist.probs == (0.0, 0.0, 0.0, 0.0, 1.0)
    late = an_distribution(4, 1.5, 200.0)
    assert late.probs[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        an_distribution(0, 1.5, 1.0)
    with pytest.raises(InvalidParameterError):
        an_distribution(4, -1.0, 1.0)
    for bad_t in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            an_distribution(4, 1.5, bad_t)
        with pytest.raises(InvalidParameterError):
            an_distribution_spectral(4, 1.5, bad_t)
        with pytest.raises(InvalidParameterError):
            an_limit(1.0, bad_t, 1)


def test_spectral_route_matches_direct():
    for n, theta in ((1, 2.0), (4, 0.5), (9, 3.0)):
        for t in (0.3, 1.0, 4.0):
            a = an_distribution(n, theta, t).probs
            b = an_distribution_spectral(n, theta, t).probs
            assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-12
    # At t = 0 both routes reduce to the same exact point mass.
    assert an_distribution_spectral(6, 1.1, 0.0).probs == an_distribution(6, 1.1, 0.0).probs


def test_spectral_coeffs_shape():
    sc = spectral_coeffs(5, 2.0)
    assert sc.eigenvalues[0] == 0.0
    assert sc.eigenvalues[1] == 1.0
    assert sc.eigenvalues[5] == 6.0
    assert len(sc.q_weights) == 6
    assert len(sc.p_coeffs) == 6


def test_an_limit_matches_large_n():
    theta, t = 1.5, 0.8
    big = an_distribution(200, theta, t)
    assert an_limit(theta, t, 0) == pytest.approx(big.probs[0], abs=1e-12)
    assert an_limit(theta, t, 1) == pytest.approx(big.probs[1], abs=1e-12)
    assert an_limit(theta, t, "ge2") == pytest.approx(
        math.fsum(big.probs[2:]), abs=1e-12
    )
    assert an_limit(theta, t, "ge2") == math.exp(-t)
    with pytest.raises(InvalidParameterError):
        an_limit(theta, t, 3)
    with pytest.raises(InvalidParameterError):
        an_limit(theta, 0.0, 0)


def _mean_absorption_recursion(n: int, theta: Fraction) -> Fraction:
    # First-step analysis: E_1 = 2/theta and for j >= 2
    # E_j = (1 + (j theta/2) E_{j-1} + E_1) / (j theta/2 + 1).
    e = Fraction(2) / theta
    prev = e
    for j in range(2, n + 1):
        rate = Fraction(j) * theta / 2
        prev = (1 + rate * prev + e) / (rate + 1)
    return prev


def test_mean_absorption_time():
    assert mean_absorption_time(2, 2.0) == 4.0 / 3.0
    assert mean_absorption_time(1, 0.5) == 4.0
    want = _mean_absorption_recursion(7, Fraction(17, 10))
    assert mean_absorption_time(7, 1.7) == pytest.approx(float(want), rel=1e-15)
    want = _mean_absorption_recursion(25, Fraction(1, 4))
    assert mean_absorption_time(25, 0.25) == pytest.approx(float(want), rel=1e-15)
    with pytest.raises(InvalidParameterError):
        mean_absorption_time(0, 1.0)


def test_simulate_lines_to_absorption():
    path = simulate_lines(6, 1.3, RngStream(21, 0))
    assert path.initial_lines == 6
    assert path.horizon is None
    assert path.final_lines == 0
    assert path.absorption_time == path.events[-1][0]
    times = [ev[0] for ev in path.events]
    assert times == sorted(times) and times[0] > 0.0
    # Replay the state sequence from the event kinds.
    state = 6
    n_coal = 0
    for _, kind, after in path.events:
        if kind == "coalescence":
            assert state >= 2
            assert after == 1
            n_coal += 1
            state = 1
        else:
            assert kind == "mutation"
            assert after == state - 1
            state = after
    assert state == 0
    assert n_coal <= 1
    if n_coal:
        assert path.coalescence_time is not None
        assert path.lines_before_coalescence >= 2


def test_simulate_lines_with_horizon():
    path = simulate_lines(6, 1.3, RngStream(22, 0), horizon=0.4)
    assert path.horizon == 0.4
    assert all(ev[0] <= 0.4 for ev in path.events)
    assert 0 <= path.final_lines <= 6
    with pytest.raises(InvalidParameterError):
        simulate_lines(6, 1.3, RngStream(0), horizon=0.0)


def test_absorption_time_ensemble_mean():
    times = absorption_time_ensemble(4, 2.0, 20_000, RngStream(23, 0))
    assert times.shape == (20_000,)
    want = mean_absorption_time(4, 2.0)
    se = float(times.std(ddof=1)) / math.sqrt(times.size)
    z = abs(float(times.mean()) - want) / se
    assert z < 3.5, f"z = {z:.2f}"
    with pytest.raises(InvalidParameterError):
        absorption_time_ensemble(3, 1.0, -5, RngStream(0))


def test_duality_check_consistency():
    par = TwoTypeParams(theta=1.0, p=0.3)
    lhs, rhs, se = duality_check(par, 3, 0.6, 1.0, 100_000, RngStream(24, 0))
    assert se > 0.0
    assert abs(lhs - rhs) < 4.0 * se
    with pytest.raises(InvalidParameterError):
        duality_check(par, 3, 0.6, 1.0, 1, RngStream(0))


def test_stationary_moment_via_coalescent():
    par = TwoTypeParams(theta=1.2, p=0.4)
    # Every n = 1 trajectory scores exactly p, so the spread is pure
    # accumulation rounding.
    est1, se1 = stationary_moment_via_coalescent(par, 1, 100, RngStream(25, 0))
    assert est1 == pytest.approx(0.4, rel=1e-15)
    assert se1 < 1e-15
    est, se = stationary_moment_via_coalescent(par, 3, 50_000, RngStream(26, 0))
    want = stationary_moment(par, 3)[1]
    z = abs(est - want) / se
    assert z < 3.5, f"z = {z:.2f}"


def test_line_dist_validation():
    with pytest.raises(InvalidParameterError):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.7, -0.1, 0.4))
    with pytest.raises(InvalidParameterError):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.5, 0.2, 0.2))
