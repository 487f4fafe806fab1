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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import starcoal.lines as lines
import starcoal.verification as verification
from starcoal.core import (
    InvalidParameterError,
    RngStream,
    TwoTypeParams,
    _dyadic,
    mean_se,
    mean_se_of_counts,
    replacement_decay_integral,
)
from starcoal.lines import (
    LineDist,
    LinePath,
    _line_ensemble,
    absorption_time_ensemble,
    an_distribution,
    an_distribution_spectral,
    duality_check,
    mean_absorption_time,
    simulate_lines,
    stationary_moment_via_coalescent,
)
from starcoal.twotype import transition_moment


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


def test_spectral_route_matches_direct():
    for n, theta in ((1, 2.0), (4, 0.5), (9, 3.0)):
        for t in (0.3, 1.0, 4.0):
            a = an_distribution(n, theta, t).probs
            b = an_distribution_spectral(n, theta, t).probs
            assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-12
    # At t = 0 both routes reduce to the same exact point mass.
    assert an_distribution_spectral(6, 1.1, 0.0).probs == an_distribution(6, 1.1, 0.0).probs


# Exact-rational oracles: the Fraction implementations the integer routes
# replaced.  Both are exact up to the final rounding, so the floats must be
# equal, not merely close.
ORACLE_THETAS = (0.5, 2.0, 5.0, 1e-3, 40.0)
ORACLE_TIMES = (0.0, 0.1, 1.0, 10.0, 200.0)


def _an_fractions(n: int, theta: float, t: float) -> list[Fraction]:
    pf = Fraction(math.exp(-0.5 * theta * t))
    ef = Fraction(math.exp(-t))
    half = Fraction(theta) / 2
    probs: list[Fraction] = [Fraction(0)] * (n + 1)
    for j in range(2, n + 1):
        probs[j] = math.comb(n, j) * pf**j * (1 - pf) ** (n - j) * ef
    s1 = Fraction(0)
    s0 = Fraction(0)
    for k in range(1, n + 1):
        sign = -1 if k % 2 == 0 else 1
        denom = 1 + (k - 1) * half
        s1 += sign * math.comb(n, k) * (pf - ef * pf**k) / denom
        s0 += sign * math.comb(n, k) * (pf + (k - 1) * half * ef * pf**k) / denom
    probs[1] = n * pf * (1 - pf) ** (n - 1) * ef + s1
    probs[0] = 1 - s0
    return probs


def _an_integers(n: int, theta: float, t: float) -> tuple[float, ...]:
    """The integer an_distribution before its Horner form: the powers of
    A and 2^a - A, and two products of n-digit integers per step of k."""
    A, a = _dyadic(math.exp(-0.5 * theta * t))
    B, b = _dyadic(math.exp(-t))
    T, c = _dyadic(theta)
    D = 1 << (c + 1)
    d = [D + m * T for m in range(n)]
    L = math.prod(d)
    shift = a * n + b
    apow = [A**k for k in range(n + 1)]
    cpow = [((1 << a) - A) ** k for k in range(n + 1)]
    probs = [0.0, 0.0] + [
        math.comb(n, j) * apow[j] * cpow[n - j] * B / (1 << shift) for j in range(2, n + 1)
    ]
    pf = A << (shift - a)
    s1 = s0 = 0
    for k in range(1, n + 1):
        w = (-1) ** (k + 1) * math.comb(n, k) * (L // d[k - 1])
        tail = B * apow[k] << (a * (n - k))
        s1 += w * D * (pf - tail)
        s0 += w * (D * pf + (k - 1) * T * tail)
    den = L << shift
    probs[1] = (n * A * cpow[n - 1] * B * L + s1) / den
    probs[0] = (den - s0) / den
    return tuple(probs)


def _spectral_fractions(n: int, theta: float) -> tuple[list[Fraction], list[list[Fraction]]]:
    half = Fraction(theta) / 2
    q: list[Fraction] = [Fraction(0)] * (n + 1)
    q[0] = Fraction(1)
    if n >= 1:
        q[1] = sum(
            (-1 if i % 2 == 0 else 1) * Fraction(math.comb(n, i), 1) / (1 + (i - 1) * half)
            for i in range(1, n + 1)
        )
    for k in range(2, n + 1):
        sign = -1 if k % 2 == 0 else 1
        q[k] = sign * math.comb(n, k) * (k - 1) * (1 + k * half) / (1 + (k - 1) * half)
    p: list[list[Fraction]] = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    p[0][0] = Fraction(1)
    if n >= 1:
        p[0][1] = Fraction(-1)
    for k in range(2, n + 1):
        p[0][k] = -half / (1 + k * half)
    if n >= 1:
        for k in range(1, n + 1):
            p[1][k] = Fraction(1)
    for j in range(2, n + 1):
        sign = -1 if j % 2 == 0 else 1
        for k in range(j, n + 1):
            p[j][k] = sign * math.comb(k, j) * (1 + (k - 1) * half) / ((k - 1) * (1 + k * half))
    return q, p


def _spectral_sum(q, p, n: int, theta: float, t: float) -> tuple[float, ...]:
    """sum_k e^{-lambda_k t} q[k] p[j][k] in rationals, given the oracle's (q, p)."""
    pf = Fraction(math.exp(-0.5 * theta * t))
    ef = Fraction(math.exp(-t))
    factors = [Fraction(1), pf] + [ef * pf**k for k in range(2, n + 1)]
    return tuple(
        float(sum(factors[k] * q[k] * p[j][k] for k in range(n + 1))) for j in range(n + 1)
    )


def _mean_absorption_fraction(n: int, theta: float) -> float:
    r = 1 + Fraction(2) / Fraction(theta)
    denom = Fraction(1)
    for j in range(n):
        denom *= r + j
    return float(r * (1 - Fraction(math.factorial(n)) / denom))


def _assert_coeffs_equal(n: int, theta: float, q, p):
    pq, rows, r, _ = lines._spectral_pairs(n, theta)
    assert [Fraction(*v) for v in pq] == q
    assert [[Fraction(*v) for v in row] for row in rows] == p[:2]
    # The rows j >= 2, which the Taylor shift sums, are (-1)^{j+1} C(k,j) r[k].
    taylor = [[(-1) ** (j + 1) * math.comb(k, j) * Fraction(*r[k]) for k in range(n + 1)] for j in range(2, n + 1)]
    assert taylor == p[2:]


@pytest.mark.parametrize("theta", ORACLE_THETAS)
def test_integer_routes_equal_rational_oracles(theta):
    for n in range(1, 31):
        assert mean_absorption_time(n, theta) == _mean_absorption_fraction(n, theta)
        q, p = _spectral_fractions(n, theta)
        _assert_coeffs_equal(n, theta, q, p)
        for t in ORACLE_TIMES:
            direct = tuple(float(v) for v in _an_fractions(n, theta, t))
            assert an_distribution(n, theta, t).probs == direct, (n, t)
            # Both rational routes give the same rationals, so the spectral
            # route is held to the direct oracle on the whole grid and to its
            # own, slower oracle for n <= 20.
            spectral = an_distribution_spectral(n, theta, t).probs
            assert spectral == direct, (n, t)
            if n <= 20:
                assert spectral == _spectral_sum(q, p, n, theta, t), (n, t)


def test_integer_routes_equal_rational_oracles_at_n200():
    n, theta, t = 200, 1.7, 0.9
    direct = tuple(float(v) for v in _an_fractions(n, theta, t))
    assert an_distribution(n, theta, t).probs == direct
    assert an_distribution_spectral(n, theta, t).probs == direct
    assert mean_absorption_time(n, theta) == _mean_absorption_fraction(n, theta)
    _assert_coeffs_equal(n, theta, *_spectral_fractions(n, theta))


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=80)
@given(n=st.integers(1, 200), theta=_log_uniform(1e-3, 1e2), t=_log_uniform(1e-6, 1e2))
def test_line_laws_equal_integer_oracle(n, theta, t):
    # Both routes round the same exact rational once, so the spectral route
    # is held to the direct oracle as well.
    want = _an_integers(n, theta, t)
    assert an_distribution(n, theta, t).probs == want
    assert an_distribution_spectral(n, theta, t).probs == want


@pytest.mark.parametrize("n", [1, 2, 37, 200])
def test_line_laws_equal_integer_oracle_at_the_ends(n):
    # theta t = 1500 makes e^{-theta t/2} underflow to 0 (A = 0); at t = 0
    # it is 1 (2^a - A = 0).
    for theta, t in ((1.5, 1000.0), (1e-3, 1.5e6), (2.5, 0.0)):
        want = _an_integers(n, theta, t)
        assert an_distribution(n, theta, t).probs == want
        assert an_distribution_spectral(n, theta, t).probs == want


def test_an_distribution_large_n_limit():
    # As n grows, P(A = 1) tends to the replacement decay integral and
    # P(A >= 2) to e^{-t}, the chance of no replacement by t.
    theta, t = 1.5, 0.8
    big = an_distribution(200, theta, t).probs
    one, survive = replacement_decay_integral(theta, t), math.exp(-t)
    assert big[0] == pytest.approx(1.0 - one - survive, abs=1e-12)
    assert big[1] == pytest.approx(one, abs=1e-12)
    assert math.fsum(big[2:]) == pytest.approx(survive, abs=1e-12)


def _mean_absorption_recursion(n: int, theta: Fraction) -> Fraction:
    # First-step analysis: E_1 = 2/theta and for j >= 2
    # E_j = (1 + (j theta/2) E_{j-1} + E_1) / (j theta/2 + 1).
    e = Fraction(2) / theta
    prev = e
    for j in range(2, n + 1):
        rate = Fraction(j) * theta / 2
        prev = (1 + rate * prev + e) / (rate + 1)
    return prev


def test_spectral_coeffs_beyond_float_range():
    # The spectral weights q[k] ~ C(n, k) (k - 1) pass the float range near
    # n = 1030; both line laws keep them as integers, so past it they still
    # agree, sum to 1 and stay finite, as does the exact absorption ratio.
    q, _, _, _ = lines._spectral_pairs(1000, 1.0)
    assert max(abs(num) // den for num, den in q) > 10**300
    q, _, _, _ = lines._spectral_pairs(1040, 1.0)
    assert max(abs(num) // den for num, den in q) > 10**309
    spectral = an_distribution_spectral(1040, 1.0, 0.5).probs
    assert spectral == an_distribution(1040, 1.0, 0.5).probs
    assert all(map(math.isfinite, spectral)) and math.fsum(spectral) == pytest.approx(1.0, abs=1e-12)
    assert mean_absorption_time(1040, 1.0) == pytest.approx(3.0, rel=1e-5)


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
    # Replay the chain from an identical stream.  Each event draws one Exp(1)
    # wait over the total rate i theta/2 + 1 (collapse only from i >= 2) and,
    # from i >= 2 lines, one uniform: the collapse to 1 wins with
    # probability 1/rate, else one line mutates away.
    theta = 1.3
    mine, twin = RngStream(21, 0), RngStream(21, 0)
    collapsed = 0
    for n in (6, 1, 2, 9) * 10:
        clock, state = 0.0, n
        while state:
            rate = 0.5 * theta * state + (1.0 if state >= 2 else 0.0)
            clock += twin.gen.exponential() / rate
            if state >= 2 and twin.gen.random() * rate < 1.0:
                collapsed += 1
                state = 1
            else:
                state -= 1
        assert simulate_lines(n, theta, mine) == LinePath(final_lines=0, absorption_time=clock)
        assert clock > 0.0
    assert 0 < collapsed < 30
    assert mine.gen.random() == twin.gen.random()


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


@pytest.mark.parametrize(
    "theta, p, x, t, n",
    [(1.0, 0.3, 0.6, 1.0, 3), (2.0, 0.5, 0.0, 0.5, 1), (5.0, 0.8, 1.0, 2.0, 4), (0.3, 0.1, 0.7, 3.0, 9)],
)
def test_duality_table_equals_masked_expressions(monkeypatch, theta, p, x, t, n):
    # The per-path values as masked expressions over the whole ensemble
    # computed them before the (coal_before, state) table.
    state, coal_before = _line_ensemble(n, theta, t, 50_000, RngStream(27))[:2]
    want = np.empty(state.size)
    no_coal = coal_before == 0
    want[no_coal] = x ** state[no_coal].astype(float) * p ** (n - state[no_coal]).astype(float)
    merged = ~no_coal
    exponent = (n - coal_before[merged]).astype(float)
    want[merged] = np.where(state[merged] == 1, x * p**exponent, p ** (exponent + 1.0))
    # duality_check counts the (coal_before, state) pairs and reduces the
    # counts against the flattened table: each path's table entry is its
    # masked value, and the reduction is mean_se over those values.
    seen = []
    monkeypatch.setattr(lines, "mean_se_of_counts", lambda c, v: seen.append((c, v)) or mean_se_of_counts(c, v))
    _, rhs, se = duality_check(TwoTypeParams(theta, p), n, x, t, 50_000, RngStream(27))
    counts, table = seen[0]
    codes = coal_before.astype(np.intp) * (n + 1) + state
    assert np.array_equal(counts, np.bincount(codes, minlength=(n + 1) ** 2))
    assert np.array_equal(table.ravel()[codes], want)
    assert math.isclose(rhs, mean_se(want)[0], rel_tol=1e-12)
    assert math.isclose(se, mean_se(want)[1], rel_tol=1e-12)


def test_stationary_moment_via_coalescent():
    par = TwoTypeParams(theta=1.2, p=0.4)
    # Every n = 1 trajectory scores exactly p, so the spread is pure
    # accumulation rounding.
    est1, se1 = stationary_moment_via_coalescent(par, 1, 100, RngStream(25, 0))
    assert est1 == pytest.approx(0.4, rel=1e-15)
    assert se1 < 1e-15
    est, se = stationary_moment_via_coalescent(par, 3, 50_000, RngStream(26, 0))
    want = math.fsum(math.comb(3, k) * 0.4 ** (3 - k) * transition_moment(par, k, 0.5, math.inf) for k in range(4))
    z = abs(est - want) / se
    assert z < 3.5, f"z = {z:.2f}"


def test_line_dist_validation():
    # Exact zeros and a sum within 1e-12 of 1 pass; the three rejections
    # are the message tests below.
    LineDist(n=2, theta=1.0, t=0.5, probs=(0.0, 0.0, 1.0))
    LineDist(n=2, theta=1.0, t=0.5, probs=(0.5, 0.5, 5e-13))
    with pytest.raises(InvalidParameterError):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.5, 0.5, 2e-12))


_AT = r"n=2, theta=1\.0, t=0\.5"


def test_line_dist_length_error_names_inputs():
    with pytest.raises(InvalidParameterError, match=f"^line-count law for {_AT} has 2 entries, not n \\+ 1$"):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.5, 0.5))


def test_line_dist_entry_error_names_inputs():
    with pytest.raises(InvalidParameterError, match=f"^P\\(A = 1\\) of the line-count law for {_AT} .*, got -0\\.1$"):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.7, -0.1, 0.4))


def test_line_dist_sum_error_names_inputs():
    with pytest.raises(InvalidParameterError, match=f"^sum of the line-count law for {_AT} .*, got 0\\.9$"):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.5, 0.2, 0.2))
    # A NaN entry fails the sum instead of slipping past both comparisons.
    with pytest.raises(InvalidParameterError, match=f"^sum of the line-count law for {_AT} .*, got nan$"):
        LineDist(n=2, theta=1.0, t=0.5, probs=(0.5, 0.5, math.nan))


def _planted(part):
    """_spectral_pairs with one weight moved: q[3]'s numerator or the column
    factor r[3] of the rows j >= 2, each off by one."""
    real = lines._spectral_pairs

    def pairs(n, theta):
        q, rows, r, Lq = real(n, theta)
        if n >= 3:
            moved = q if part == "q" else r
            moved[3] = (moved[3][0] + 1, moved[3][1])
        return q, rows, r, Lq

    return pairs


@pytest.mark.parametrize("part", ["q", "r"])
def test_line_spectral_check_reads_the_spectral_weights(monkeypatch, part):
    # The Taylor-shift sum must still read the weights _spectral_pairs
    # forms, so one planted weight must fail the line-spectral suite.
    _, gaps, bound = verification._suite_line_spectral(0)[0]
    assert bound == 1e-10 and max(g for g, _ in gaps) <= bound
    q, _, r, _ = lines._spectral_pairs(5, 2.0)
    monkeypatch.setattr(lines, "_spectral_pairs", _planted(part))
    planted_q, _, planted_r, _ = lines._spectral_pairs(5, 2.0)
    assert (planted_q, planted_r) != (q, r)
    # The planted weight no longer divides exactly, so the spectral route
    # raises from the first planted count, n = 3 ...
    with pytest.raises(InvalidParameterError, match=r"^spectral weights for n=3, theta=0\.5 are not integers$"):
        an_distribution_spectral(3, 0.5, 0.1)
    # ... and both checks of the suite fail there with an infinite gap
    # rather than stopping the battery.
    gaps, zeros = verification.run_suites(["line-spectral"], seed=0)
    assert not gaps.passed and gaps.observed == math.inf and gaps.where == (3, 0.5, 0.1)
    assert not zeros.passed and zeros.observed == math.inf and zeros.where == (3, 0.5, "spectral")


@settings(max_examples=300)
@given(n=st.integers(1, 60), theta=_log_uniform(1e-3, 1e2), t=_log_uniform(1e-6, 1e2))
def test_line_laws_are_distributions_and_agree(n, theta, t):
    direct = an_distribution(n, theta, t).probs
    spectral = an_distribution_spectral(n, theta, t).probs
    for probs in (direct, spectral):
        assert min(probs) >= 0.0
        assert abs(math.fsum(probs) - 1.0) <= 1e-12
    assert max(abs(a - b) for a, b in zip(direct, spectral)) <= 1e-10
