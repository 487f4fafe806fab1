"""Spectral machinery: polynomials, eigen corrections, dual pairings.

The correction-coefficient oracles were frozen from an exact rational
eigendecomposition of the generator truncated to polynomials of degree
twelve, built in a computer algebra system from the jump-plus-drift action
directly.  That route also confirms the middle coefficients of every eigen
polynomial vanish identically.
"""

import math

import pytest

import starcoal.eigen as eigen
import starcoal.twotype as twotype
import starcoal.verification as verification
from starcoal.core import InvalidParameterError, QuadratureError, TwoTypeParams
from starcoal.eigen import (
    PolyRep,
    eigen_coefficients,
    eigen_poly,
    eigenvalue,
    expansion_expectation,
    generator_apply,
    hyper_pairing,
    pv_expectation_g_q1,
    pv_expectation_g_q1_numeric,
    stationary_expectation,
)
from starcoal.twotype import transition_moment


def test_polyrep_basics():
    g = PolyRep(0.5, (1.0, -2.0, 0.0, 4.0, 0.0))
    assert g.coefficient(3) == 4.0
    assert g.coefficient(9) == 0.0
    x = 0.8
    assert g(x) == pytest.approx(1.0 - 2.0 * 0.3 + 4.0 * 0.3**3, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        PolyRep(0.0, ())
    with pytest.raises(InvalidParameterError):
        PolyRep(0.0, (1.0, math.nan))


def test_polyrep_shift_round_trip():
    g = PolyRep(0.25, (1.0, 2.0, 3.0, -0.5))
    h = g.with_shift(0.75)
    # Same polynomial, different expansion point.
    for x in (0.0, 0.3, 0.9):
        assert h(x) == pytest.approx(g(x), rel=1e-14)
    # Dyadic shifts re-expand exactly, so the round trip is bit-clean.
    assert g.with_shift(0.75).with_shift(0.25).coeffs == g.coeffs
    assert g.with_shift(0.25) is g


def test_eigenvalue_sequence():
    par = TwoTypeParams(theta=3.0, p=0.4)
    assert eigenvalue(par, 0) == 0.0
    assert eigenvalue(par, 1) == 1.5
    assert eigenvalue(par, 2) == 4.0
    assert eigenvalue(par, 3) == 5.5
    with pytest.raises(InvalidParameterError):
        eigenvalue(par, -1)


def test_eigen_coefficient_oracles():
    # Exact rational eigenvectors: theta=1/2, p=1/4, degree 4.
    c0, c1 = eigen_coefficients(TwoTypeParams(theta=0.5, p=0.25), 4)
    assert c0 == pytest.approx(-21.0 / 512.0, rel=1e-15)
    assert c1 == pytest.approx(-5.0 / 28.0, rel=1e-15)
    # theta=3, p=2/5, degree 3.
    c0, c1 = eigen_coefficients(TwoTypeParams(theta=3.0, p=0.4), 3)
    assert c0 == pytest.approx(-12.0 / 1375.0, rel=1e-14)
    assert c1 == pytest.approx(-7.0 / 100.0, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        eigen_coefficients(TwoTypeParams(theta=1.0, p=0.5), 1)


@pytest.mark.parametrize(
    "theta, p, n",
    [(3417.0, 0.5 - 5.1e-12, 7), (3417.0, 0.5 - 5.1e-12, 8), (1.0, 0.5 + 1e-9, 6), (2.0, 0.5 + 1e-13, 11)],
)
def test_eigen_coefficients_near_one_half_against_mpmath(theta, p, n):
    # p q^n + q (-p)^n and (-p)^n - q^n cancel as p nears 1/2: evaluated
    # as written in floats, c_n0 is 6.3e-6 off at the first point.
    mpmath = pytest.importorskip("mpmath")
    c0, c1 = eigen_coefficients(TwoTypeParams(theta=theta, p=p), n)
    with mpmath.workdps(50):
        pm, a = mpmath.mpf(p), 2 / mpmath.mpf(theta)
        q = 1 - pm
        want0 = -(a / (n + a)) * (pm * q**n + q * (-pm) ** n)
        want1 = (a / (n - 1 + a)) * ((-pm) ** n - q**n)
    assert c0 == pytest.approx(float(want0), rel=1e-13, abs=0.0)
    assert c1 == pytest.approx(float(want1), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [1e-17, 5e-324, 1.0 - 2.0**-53])
def test_brackets_at_extreme_p_against_mpmath(p):
    # For p below about 1e-17, 1 - (1 - 2p)/(1 - p) rounds to 0, so a log1p
    # form of the bracket would take log(0); the closed forms must not raise.
    mpmath = pytest.importorskip("mpmath")
    theta, x, t = 1.0, 0.3, 0.7
    par = TwoTypeParams(theta=theta, p=p)
    with mpmath.workdps(50):
        pm, a, xm, tm = mpmath.mpf(p), 2 / mpmath.mpf(theta), mpmath.mpf(x), mpmath.mpf(t)
        q = 1 - pm

        def gap(m):
            return q**m - (-pm) ** m

        for n in (1, 2, 3):
            rate = (1 + n * theta / 2) * tm
            want = (
                mpmath.exp(-rate) * (xm - pm) ** n
                + (a / (n + a)) * pm * q * gap(n - 1) * -mpmath.expm1(-rate)
                + (xm - pm)
                * mpmath.exp(-theta * tm / 2)
                * (a / (n - 1 + a))
                * gap(n)
                * -mpmath.expm1(-(1 + (n - 1) * theta / 2) * tm)
            )
            assert transition_moment(par, n, x, t) == pytest.approx(float(want), rel=1e-14, abs=1e-300)
        for n in (2, 3, 4):
            c0, c1 = eigen_coefficients(par, n)
            want0 = -(a / (n + a)) * (pm * q**n + q * (-pm) ** n)
            want1 = (a / (n - 1 + a)) * ((-pm) ** n - q**n)
            assert c0 == pytest.approx(float(want0), rel=1e-14, abs=1e-300)
            assert c1 == pytest.approx(float(want1), rel=1e-14, abs=1e-300)


def test_battery_fails_on_a_scaled_alternating_gap(monkeypatch):
    # The eigen coefficients and the transition moments share one bracket;
    # the generator and the numeric pv integral still pin it.
    gap = twotype._alternating_gap

    def scaled(p, m):
        return (1.0 + 1e-6) * gap(p, m)

    monkeypatch.setattr(twotype, "_alternating_gap", scaled)
    monkeypatch.setattr(eigen, "_alternating_gap", scaled)
    results = verification.run_suites(["eigen-equation", "expansion", "pairing"], seed=42)
    assert {r.name for r in results if not r.passed} == {
        "max coefficient residual, n <= 12",
        "max |spectral - moment route|, 20 random degree-8 g",
        "max |numeric pv route - exact pv route|",
    }


def test_eigen_poly_structure():
    par = TwoTypeParams(theta=1.7, p=0.6)
    assert eigen_poly(par, 0).coeffs == (1.0,)
    assert eigen_poly(par, 1).coeffs == (0.0, 1.0)
    g = eigen_poly(par, 7)
    assert g.shift == 0.6
    assert g.coefficient(7) == 1.0
    # Only the constant and linear corrections survive.
    assert all(g.coefficient(k) == 0.0 for k in range(2, 7))


def test_generator_annihilates_eigen_polys():
    par = TwoTypeParams(theta=0.5, p=0.25)
    for n in range(0, 9):
        g = eigen_poly(par, n)
        img = generator_apply(par, g)
        lam = eigenvalue(par, n)
        for k in range(10):
            assert img.coefficient(k) == pytest.approx(
                -lam * g.coefficient(k), abs=1e-14
            )


def test_generator_matches_pointwise_formula():
    # Independent route: the generator acts as mutation drift
    # (theta/2)(p - x) g'(x) plus rate-one replacement jumps to 1 or 0.
    par = TwoTypeParams(theta=2.3, p=0.35)
    g = PolyRep(0.0, (0.3, -1.2, 0.7, 0.25, -0.4))
    img = generator_apply(par, g)
    dg = lambda x: sum(k * c * x ** (k - 1) for k, c in enumerate(g.coeffs) if k)
    for x in (0.0, 0.15, 0.35, 0.62, 1.0):
        direct = (
            0.5 * par.theta * (par.p - x) * dg(x)
            + x * (g(1.0) - g(x))
            + (1.0 - x) * (g(0.0) - g(x))
        )
        assert img(x) == pytest.approx(direct, abs=1e-13)


def test_pv_pairing_series_vs_numeric():
    par = TwoTypeParams(theta=1.3, p=0.45)
    polys = (
        PolyRep(0.0, (0.0, 1.0)),
        PolyRep(0.0, (2.0, -1.0, 3.0, 0.5)),
        PolyRep(0.2, (1.0, 0.0, -2.0, 0.0, 0.0, 1.5)),
    )
    for g in polys:
        series = pv_expectation_g_q1(par, g)
        numeric = pv_expectation_g_q1_numeric(par, g)
        assert numeric == pytest.approx(series, abs=1e-10)
    # Constants pair to zero.
    assert pv_expectation_g_q1(par, PolyRep(0.0, (7.0,))) == 0.0


def test_pv_pairing_error_names_its_inputs():
    # At theta = 45 the weight eta^(2/theta - 2) leaves mass below the
    # offset floor; the error leads with the call, as the laws' errors do.
    with pytest.raises(QuadratureError) as exc:
        pv_expectation_g_q1_numeric(TwoTypeParams(theta=45.0, p=0.3), PolyRep(0.0, (0.0, 1.0)))
    assert exc.value.message.startswith("pv_expectation_g_q1_numeric(theta=45.0, p=0.3): offset integral over width")
    assert math.isfinite(exc.value.estimate)


def test_stationary_expectation_matches_moment_route():
    par = TwoTypeParams(theta=0.9, p=0.3)
    g = PolyRep(0.1, (0.5, 1.0, -2.0, 0.0, 3.0))
    b = g.with_shift(par.p).coeffs
    direct = math.fsum(
        bk * transition_moment(par, k, 0.5, math.inf) for k, bk in enumerate(b)
    )
    assert stationary_expectation(par, g) == pytest.approx(direct, rel=1e-13)


def test_hyper_pairing_biorthogonality():
    par = TwoTypeParams(theta=2.0, p=0.5)
    for m in range(2, 8):
        pm = eigen_poly(par, m)
        for n in range(2, 8):
            assert hyper_pairing(pm, n) == (1.0 if m == n else 0.0)
    with pytest.raises(InvalidParameterError):
        hyper_pairing(eigen_poly(par, 2), 1)


def test_expansion_expectation_matches_moment_route():
    par = TwoTypeParams(theta=1.1, p=0.4)
    g = PolyRep(0.0, (0.2, -0.9, 1.4, 0.0, 0.6, -0.3))
    x, t = 0.85, 0.7
    b = g.with_shift(par.p).coeffs
    direct = math.fsum(
        bk * transition_moment(par, k, x, t) for k, bk in enumerate(b)
    )
    assert expansion_expectation(par, g, x, t) == pytest.approx(direct, abs=1e-12)
    # At t = 0 the expansion telescopes back to g(x).
    assert expansion_expectation(par, g, x, 0.0) == pytest.approx(g(x), abs=1e-12)
