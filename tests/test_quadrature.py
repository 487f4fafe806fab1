"""Quadrature accuracy: each law's integrals meet 1e-10 or raise QuadratureError.

The laws' densities behave like a w^(a-1), a = 2/theta, at a piece edge.
At large theta almost all of their mass sits within offsets that no float
quadrature reaches, and the contract is then a QuadratureError rather than
a silently truncated value.  The oracles integrate at 30 digits with
mpmath in u = -log w, where a w^(a-1) dw becomes a e^(-a u) du; plain
tanh-sinh in w itself misses most of the mass once a is small (at
a = 0.01 it returns 0.546 for 1).  The laws' cdfs are held to their
closed-form component masses at every piece edge.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcoal.core import QuadratureError, TwoTypeParams, replacement_decay_integral
from starcoal.eigen import eigen_poly, pv_expectation_g_q1_numeric
from starcoal.selection import mutation_selection_drift, replacement_stationary
from starcoal.selection import stationary_law as selection_stationary_law
from starcoal.twotype import stationary_law, transition_law, transition_moment

mpmath = pytest.importorskip("mpmath")

TOL = 1e-10


def _mp_log_quad(f, top=math.inf):
    """int_0^top f(u) du at 30 digits; a layer near a finite top gets its own panel."""
    with mpmath.workdps(30):
        top = mpmath.mpf(top)
        cuts = [0, top] if top < 80 else [0, top - 40, top]
        return float(mpmath.quad(f, cuts))


def _mp_transition_mass(theta, p, x, t):
    """Atom plus both pieces; w = e^-u runs from 1 down to e^(-theta t/2)."""
    a, dx, top = mpmath.mpf(2) / theta, mpmath.mpf(x) - p, 0.5 * theta * t

    def piece(sign, weight):
        return lambda u: (weight + sign * dx * mpmath.exp(u - top)) * a * mpmath.exp(-a * u)

    return math.exp(-t) + _mp_log_quad(piece(1, p), top) + _mp_log_quad(piece(-1, 1 - p), top)


def _mp_stationary(theta, p, moment):
    """Stationary mass (moment 0) or mean (moment 1) over both pieces."""
    a = mpmath.mpf(2) / theta

    def f(u):
        w = mpmath.exp(-u)
        up, lo = p + (1 - p) * w, p * (1 - w)
        return (p * up**moment + (1 - p) * lo**moment) * a * mpmath.exp(-a * u)

    return _mp_log_quad(f)


def _mp_pv(theta, g):
    """The absolutely convergent PV integral of pv_expectation_g_q1_numeric."""
    p, a = g.shift, mpmath.mpf(2) / theta
    diff = [c * ((1 - p) ** k - (-p) ** k) for k, c in enumerate(g.with_shift(p).coeffs)]

    def f(u):
        eta = mpmath.exp(-u)
        return a * mpmath.exp(-a * u) * sum(c * eta ** (k - 1) for k, c in enumerate(diff) if k)

    return _mp_log_quad(f)


def _matches_or_raises(compute, want) -> bool:
    """True if compute() is within TOL of want, False if it raised."""
    try:
        got = compute()
    except QuadratureError:
        return False
    assert abs(got - want) <= TOL, f"got {got!r}, want {want!r}"
    return True


# (theta, must match).  The large-theta point of each family is a case
# that used to come out silently wrong: stationary mass off by 3.2e-3 at
# theta = 200, transition mass 0.9438 at theta = 400, stationary mean off
# by 0.146 at theta = 1600, the PV pairing off by 5.2e-5 at theta = 400.
# At theta = 1e-5 the mass piles up within 1e-5 of the far end instead.


@pytest.mark.parametrize("theta, must_match", [(200.0, False), (20.0, True), (0.5, True), (1e-5, True)])
def test_stationary_mass(theta, must_match):
    law = stationary_law(TwoTypeParams(theta, 0.3))
    want = _mp_stationary(theta, 0.3, 0)
    assert _matches_or_raises(law.quadrature_mass, want) or not must_match


@pytest.mark.parametrize(
    "theta, x, t, must_match",
    [(400.0, 0.3, 100.0, False), (400.0, 0.9, 3.0, False), (10.0, 0.3, 1.0, True), (1.5, 0.9, 0.05, True)],
)
def test_transition_mass(theta, x, t, must_match):
    law = transition_law(TwoTypeParams(theta, 0.5), x, t)
    want = _mp_transition_mass(theta, 0.5, x, t)
    assert _matches_or_raises(law.quadrature_mass, want) or not must_match


@pytest.mark.parametrize("theta, must_match", [(1600.0, False), (20.0, True), (3.0, True)])
def test_stationary_mean(theta, must_match):
    law = stationary_law(TwoTypeParams(theta, 0.3))
    want = _mp_stationary(theta, 0.3, 1)
    assert want == pytest.approx(0.3, abs=1e-14)
    assert _matches_or_raises(law.mean, want) or not must_match


@pytest.mark.parametrize("theta, must_match", [(400.0, False), (5.0, True)])
def test_pv_pairing_of_an_eigenpolynomial(theta, must_match):
    par = TwoTypeParams(theta, 0.3)
    g = eigen_poly(par, 3)
    want = _mp_pv(theta, g)
    assert _matches_or_raises(lambda: pv_expectation_g_q1_numeric(par, g), want) or not must_match


@pytest.mark.parametrize(
    "theta, beta, p, must_match", [(0.01, 0.01, 1e-4, True), (0.01, 0.1, 1e-4, False), (1.0, 2.0, 0.4, True)]
)
def test_selection_stationary_mass(theta, beta, p, must_match):
    # Weak selection and mutation pile each piece's mass within 1/expo of
    # the far end of its offset range (expo = 1e4 at the first point); both
    # weak points used to return a piece mass near 1e-55 in place of 0.9999.
    law = selection_stationary_law(mutation_selection_drift(theta, p, beta))
    assert _matches_or_raises(law.quadrature_mass, 1.0) or not must_match


@pytest.mark.parametrize("theta", [1e-15, 1e-10, 1e-6])
def test_transition_law_at_tiny_theta(theta):
    # w^(2/theta - 1) amplifies the rounding of w near 1 by 2/theta: the
    # mass came out 0.931 at theta = 1e-15, and the sweep raised below 1e-8.
    p, x, t = 0.3, 0.9, 1.0
    law = transition_law(TwoTypeParams(theta, p), x, t)
    assert law.quadrature_mass() == pytest.approx(1.0, abs=TOL)
    assert law.mean() == pytest.approx(p + (x - p) * math.exp(-0.5 * theta * t), abs=TOL)


def _edge_masses(law, pieces_with_mass):
    """Pairs (law.cdf at each piece edge, closed-form mass up to that edge)."""
    out = []
    for pc, _ in pieces_with_mass:
        for edge in (pc.lower, pc.upper):
            want = sum(m for loc, m in law.atoms if loc <= edge)
            want += sum(m for q, m in pieces_with_mass if q.upper <= edge)
            out.append((law.cdf(edge), want))
    return out


def test_cdf_at_piece_edges_matches_closed_form_masses():
    cases = []
    for theta, p, x, t in ((0.5, 0.3, 0.9, 0.7), (2.0, 0.5, 0.2, 2.0), (5.0, 0.6, 0.0, 0.3)):
        law = transition_law(TwoTypeParams(theta, p), x, t)
        up = p * -math.expm1(-t) + (x - p) * replacement_decay_integral(theta, t)
        low, high = sorted(law.pieces, key=lambda pc: pc.lower)
        cases.append((law, ((low, -math.expm1(-t) - up), (high, up))))
    for theta, p in ((0.8, 0.35), (2.0, 0.5), (5.0, 0.4)):
        law = stationary_law(TwoTypeParams(theta, p))
        low, high = sorted(law.pieces, key=lambda pc: pc.lower)
        cases.append((law, ((low, 1.0 - p), (high, p))))
    for theta, beta, p in ((1.0, 2.0, 0.5), (0.5, 4.0, 0.3)):
        drift = mutation_selection_drift(theta, p, beta)
        law = selection_stationary_law(drift)
        pi1, pi2 = replacement_stationary(drift)
        low, high = sorted(law.pieces, key=lambda pc: pc.lower)
        cases.append((law, ((low, pi2), (high, pi1))))
    for law, pieces_with_mass in cases:
        for got, want in _edge_masses(law, pieces_with_mass):
            assert got == pytest.approx(want, abs=1e-14)
        # Each piece's own cdf runs from 0 to its closed-form mass.
        for pc, mass in pieces_with_mass:
            assert pc.cdf(pc.lower) == pytest.approx(0.0, abs=1e-12)
            assert pc.cdf(pc.upper) == pytest.approx(mass, abs=1e-12)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=200)
@given(
    theta=_log_uniform(1e-15, 1e4),
    p=st.floats(1e-6, 1.0 - 1e-6),
    x=st.floats(0.0, 1.0),
    t=_log_uniform(1e-8, 1e3),
)
def test_transition_law_mass_and_mean_or_raise(theta, p, x, t):
    law = transition_law(TwoTypeParams(theta, p), x, t)
    want_mean = p + (x - p) * math.exp(-0.5 * theta * t)
    _matches_or_raises(law.quadrature_mass, 1.0)
    _matches_or_raises(law.mean, want_mean)


# Each law constructor at a point where its quadrature_mass raises, with
# the label its QuadratureError leads with and the law's closed-form mean,
# which mean meets there: its offset moment decays one power faster.
_FAILING_LAWS = {
    "twotype.transition_law": (
        lambda: transition_law(TwoTypeParams(400.0, 0.5), 0.9, 3.0),
        "transition_law(theta=400.0, p=0.5, x=0.9, t=3.0): ",
        0.5 + transition_moment(TwoTypeParams(400.0, 0.5), 1, 0.9, 3.0),
    ),
    "twotype.stationary_law": (
        lambda: stationary_law(TwoTypeParams(45.0, 0.3)),
        "stationary_law(theta=45.0, p=0.3): ",
        0.3,
    ),
    "selection.stationary_law": (
        lambda: selection_stationary_law(mutation_selection_drift(100.0, 0.3, 1.0)),
        "selection stationary_law(theta=100.0, p=0.3, beta=1.0): ",
        replacement_stationary(mutation_selection_drift(100.0, 0.3, 1.0))[0],
    ),
}


@pytest.mark.parametrize("constructor", sorted(_FAILING_LAWS))
def test_quadrature_error_names_the_law(constructor):
    make, label, mean = _FAILING_LAWS[constructor]
    law = make()
    with pytest.raises(QuadratureError) as exc:
        law.quadrature_mass()
    assert str(exc.value).startswith(label + "offset integral over width"), str(exc.value)
    assert exc.value.message.startswith(label)
    assert math.isfinite(exc.value.estimate)
    assert law.mean() == pytest.approx(mean, abs=1e-12)


def test_mean_error_names_the_law():
    # Weak mutation and selection at small p: the piece below the
    # replacement point misses the tolerance for mean as for quadrature_mass.
    law = selection_stationary_law(mutation_selection_drift(0.01, 1e-4, 0.1))
    with pytest.raises(QuadratureError) as exc:
        law.mean()
    label = "selection stationary_law(theta=0.01, p=0.0001, beta=0.1): "
    assert str(exc.value).startswith(label + "offset quadrature over width"), str(exc.value)
    assert math.isfinite(exc.value.estimate)
