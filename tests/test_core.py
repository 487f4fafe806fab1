"""Core plumbing: parameters, RNG streams, quadrature, mixed laws."""

import math

import numpy as np
import pytest
from scipy import integrate

from starcoal import core
from starcoal.core import (
    InvalidParameterError,
    QuadratureError,
    MixedLaw,
    Piece,
    RngStream,
    TwoTypeParams,
    exp_decay_window,
    mean_se,
    quad_offset,
    replacement_decay_integral,
    truncated_exponential_inverse_cdf,
)
from starcoal.selection import mutation_selection_drift, replacement_stationary
from starcoal.selection import stationary_law as selection_stationary_law
from starcoal.twotype import stationary_law, transition_law, transition_moment


def test_two_type_params_validation():
    par = TwoTypeParams(theta=2.0, p=0.25)
    assert (par.theta, par.p) == (2.0, 0.25)
    with pytest.raises(InvalidParameterError):
        TwoTypeParams(theta=0.0, p=0.5)
    with pytest.raises(InvalidParameterError):
        TwoTypeParams(theta=1.0, p=1.0)
    with pytest.raises(InvalidParameterError):
        TwoTypeParams(theta=math.inf, p=0.5)


def test_rng_stream_reproducible_and_sharded():
    a = RngStream(123, 4).gen.random(8)
    b = RngStream(123, 4).gen.random(8)
    c = RngStream(123, 5).gen.random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # Seeds go through check_int like every other integer argument, so
    # numpy integers are accepted and floats are not.
    assert np.array_equal(RngStream(np.int64(123), np.uint8(4)).gen.random(8), a)
    RngStream(np.uint64(2**64 - 1))
    for seed, index, name in ((-1, 0, "base_seed"), (2**64, 0, "base_seed"), (1.0, 0, "base_seed"),
                              (1, -2, "stream_index"), (1, np.int64(-1), "stream_index"), (1, 2.0, "stream_index")):
        with pytest.raises(InvalidParameterError, match=name):
            RngStream(seed, index)


def test_quad_smooth_and_singular():
    # One rule integrates smooth integrands and integrable blow-ups at the
    # offset origin alike, handing the integrand float ndarrays.
    assert quad_offset(np.exp, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert quad_offset(lambda z: z**-0.5, 1.0) == pytest.approx(2.0, abs=1e-10)
    assert quad_offset(lambda z: -np.log(z), 1.0) == pytest.approx(1.0, abs=1e-10)
    # Upper blow-ups are written as offsets from the upper end.
    assert quad_offset(lambda d: 0.8 * d**-0.2, 1.0) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(InvalidParameterError):
        quad_offset(np.exp, -1.0)


def test_quad_offset_power_law():
    # int_0^W d^(a-1) dd = W^a / a, exact up to the tolerance even for
    # exponents far below anything a fixed grid could resolve.
    for a, width in ((0.3, 0.35), (0.15, 1.0), (1.7, 0.6), (1e4, 1.0)):
        got = quad_offset(lambda d, _a=a: d ** (_a - 1.0), width)
        assert got == pytest.approx(width**a / a, rel=1e-9)
    with pytest.raises(InvalidParameterError):
        quad_offset(lambda d: 1.0, 0.0)


def test_quad_offset_boundary_layer():
    eps = 1e-12
    got = quad_offset(lambda d: np.exp(-d / eps) / eps, 0.5)
    assert got == pytest.approx(1.0, rel=1e-9)


def test_quad_offset_closed_forms_where_the_march_stops():
    # Power laws, whose fitted tails are exact, stop wherever their tail
    # falls below its share; the slowest run almost to the floor.
    for k in (0.05, 0.1, 0.5, 1.0, 2.0, 4.0):
        for width in (1.0, 0.3):
            got = quad_offset(lambda d, _k=k: d ** (_k - 1.0), width)
            assert got == pytest.approx(width**k / k, rel=1e-12, abs=0.0)
    for width in (0.1, 1.0, 3.0):
        assert quad_offset(lambda d: np.exp(-d), width) == pytest.approx(-math.expm1(-width), rel=1e-12, abs=0.0)


def _probe_outer_node(width: float) -> float:
    """s = log(width / offset) of the outermost node of the first pass."""
    depth = math.log(width / (width * 1e-250))
    step = depth / math.ceil(depth / 3.0)
    lo, hi = step * core._EDGES[core._PROBE - 1], step * core._EDGES[core._PROBE]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * float(core._GK_X[-1])


@pytest.mark.parametrize("shift", [0.0, -1.5, 0.2])
def test_quad_offset_root_in_the_deepest_probe_panel(shift):
    # g(s) = e^{-s/10} (s - s0) decays slowly and changes sign at s0: at the
    # first pass's outermost node (where |g| is small by accident), at its
    # middle node, or just past the panel.  The tail beyond the first pass
    # holds about 1e-3 of the integral, and the value must still meet its
    # tolerance.
    width, rate = 1.0, 0.1
    s0 = _probe_outer_node(width) + shift

    def f_off(d):
        s = np.log(width / d)
        return np.exp(-rate * s) * (s - s0) / d

    want = 1.0 / rate**2 - s0 / rate
    assert quad_offset(f_off, width) == pytest.approx(want, rel=2e-11, abs=0.0)


def test_quad_offset_stops_a_bounded_integrand_early():
    # A bounded integrand has g ~ e^{-s}: its tail is certified after the
    # first pass, which used to run all 210 panels (4,410 nodes).
    nodes = []

    def counting(d):
        nodes.append(d.size)
        return 1.0 + d

    assert quad_offset(counting, 1.0) == pytest.approx(1.5, rel=1e-14)
    assert sum(nodes) <= 800


def test_exp_decay_window_branches_agree():
    # delta == 0 short-circuit.
    assert exp_decay_window(0.0, 1.5, 0.7) == pytest.approx(0.7 * math.exp(-1.5), rel=1e-15)
    # Small |delta z| uses expm1; the raw two-exponential form cancels.
    tiny = exp_decay_window(1e-9, 1.0, 1.0)
    series = math.exp(-1.0) * (1.0 + 1e-9 / 2.0 + 1e-18 / 6.0)
    assert tiny == pytest.approx(series, rel=1e-13)
    # Branch seam at |delta z| = 0.5.
    below = exp_decay_window(0.499999999, 2.0, 1.0)
    above = exp_decay_window(0.500000001, 2.0, 1.0)
    assert below == pytest.approx(above, rel=1e-8)


def test_replacement_decay_integral():
    # 40-digit quadrature of exp(-theta (t-s)/2) exp(-s) ds over (0, 2).
    assert replacement_decay_integral(0.5, 2.0) == pytest.approx(
        0.6282605019680276422797333866915947334, rel=1e-14
    )
    assert replacement_decay_integral(2.0, 3.0) == pytest.approx(
        3.0 * math.exp(-3.0), rel=1e-14
    )
    # Continuity across the removable theta = 2 point.
    lo = replacement_decay_integral(2.0 - 1e-11, 1.0)
    hi = replacement_decay_integral(2.0 + 1e-11, 1.0)
    assert lo == pytest.approx(hi, rel=1e-9)
    with pytest.raises(InvalidParameterError):
        replacement_decay_integral(1.0, -0.5)


def test_truncated_exponential_round_trip():
    t = 2.5
    norm = -math.expm1(-t)
    for u in (0.0, 0.2, 0.77, 0.999999):
        s = float(truncated_exponential_inverse_cdf(u, t))
        assert 0.0 <= s < t
        assert -math.expm1(-s) / norm == pytest.approx(u, abs=1e-12)
    arr = truncated_exponential_inverse_cdf(np.array([0.1, 0.9]), t)
    assert arr.shape == (2,)
    with pytest.raises(InvalidParameterError):
        truncated_exponential_inverse_cdf(0.5, 0.0)


def _toy_law() -> MixedLaw:
    piece = Piece(
        lower=0.0,
        upper=0.5,
        mass=0.75,
        cdf=lambda xi: 1.5 * xi,
        offset_density=lambda d: np.full_like(d, 1.5),
        offset_side="lower",
        offset_width=0.5,
    )
    return MixedLaw(atoms=((0.5, 0.25),), pieces=(piece,))


def _flat_piece(height: float) -> Piece:
    return Piece(
        lower=0.0,
        upper=1.0,
        mass=height,
        cdf=lambda xi: height * xi,
        offset_density=lambda d: np.full_like(d, height),
        offset_side="lower",
        offset_width=1.0,
    )


def test_mixed_law_mass_mean_cdf():
    law = _toy_law()
    assert law.quadrature_mass() == pytest.approx(1.0, abs=1e-12)
    assert law.mean() == pytest.approx(0.25 * 0.5 + 1.5 * 0.125, abs=1e-12)
    assert law.cdf(0.2) == pytest.approx(0.3, abs=1e-14)
    assert law.cdf(0.5) == pytest.approx(1.0, abs=1e-14)


def test_mixed_law_sampling():
    law = _toy_law()
    rng = RngStream(11, 0)
    draws = np.array([law.sample(rng) for _ in range(20_000)])
    atom_freq = float(np.mean(draws == 0.5))
    assert abs(atom_freq - 0.25) < 3.5 * math.sqrt(0.25 * 0.75 / 20_000)
    rest = draws[draws != 0.5]
    assert float(rest.max()) < 0.5
    mean_exact = 0.25
    se = float(rest.std(ddof=1)) / math.sqrt(rest.size)
    assert abs(float(rest.mean()) - mean_exact) < 4.0 * se


def test_mixed_law_validation():
    good = _flat_piece(1.0)
    with pytest.raises(InvalidParameterError):
        MixedLaw(atoms=(), pieces=(good, good))  # overlap
    with pytest.raises(InvalidParameterError):
        MixedLaw(atoms=((0.5, 0.5),), pieces=(good,))  # atom inside a piece
    with pytest.raises(InvalidParameterError):
        MixedLaw(atoms=(), pieces=())  # no mass at all
    with pytest.raises(InvalidParameterError):
        MixedLaw(atoms=(), pieces=(_flat_piece(0.5),))  # masses must close to 1
    shape = dict(lower=0.0, upper=1.0, mass=1.0, cdf=lambda xi: xi)
    with pytest.raises(InvalidParameterError):
        Piece(**shape, offset_density=lambda d: 1.0, offset_side="middle", offset_width=1.0)
    with pytest.raises(InvalidParameterError):
        Piece(**shape, offset_density=lambda d: 1.0, offset_side="lower", offset_width=0.25)


def test_quadrature_mass_prefers_offset_route():
    # A density with an integrable blow-up at the upper edge, integrated
    # from its offset form.
    a = 0.25
    piece = Piece(
        lower=0.0,
        upper=1.0,
        mass=1.0,
        cdf=lambda xi: 1.0 - (1.0 - xi) ** a,
        offset_density=lambda d: a * d ** (a - 1.0),
        offset_side="upper",
        offset_width=1.0,
    )
    law = MixedLaw(atoms=(), pieces=(piece,))
    assert law.quadrature_mass() == pytest.approx(1.0, abs=1e-11)
    # Independent integrator on the same absolute-coordinate density.
    ref, _ = integrate.quad(piece.density, 0.0, 1.0, points=[1.0])
    assert ref == pytest.approx(1.0, abs=1e-6)


def _stationary(theta, p):
    return stationary_law(TwoTypeParams(theta, p)), p


def _transition(theta, p, x, t):
    par = TwoTypeParams(theta, p)
    return transition_law(par, x, t), p + transition_moment(par, 1, x, t)


def _selection(theta, p, beta):
    drift = mutation_selection_drift(theta, p, beta)
    return selection_stationary_law(drift), replacement_stationary(drift)[0]


# Makers of (law, closed-form mean), with their arguments, at the fixed
# points of tests/test_quadrature.py but the one in _MEAN_RAISES.
_MEAN_FIXED = (
    [(_stationary, (theta, 0.3)) for theta in (200.0, 20.0, 0.5, 1e-5, 1600.0, 3.0)]
    + [(_stationary, args) for args in ((0.8, 0.35), (2.0, 0.5), (5.0, 0.4))]
    + [
        (_transition, (theta, 0.5, x, t))
        for theta, x, t in ((400.0, 0.3, 100.0), (400.0, 0.9, 3.0), (10.0, 0.3, 1.0), (1.5, 0.9, 0.05))
    ]
    + [(_transition, (theta, 0.3, 0.9, 1.0)) for theta in (1e-15, 1e-10, 1e-6)]
    + [(_transition, args) for args in ((0.5, 0.3, 0.9, 0.7), (2.0, 0.5, 0.2, 2.0), (5.0, 0.6, 0.0, 0.3))]
    + [(_selection, args) for args in ((0.01, 1e-4, 0.01), (1.0, 0.4, 2.0), (1.0, 0.5, 2.0), (0.5, 0.3, 4.0))]
)
# Laws whose quadrature_mass raises, the offset integrand d f(d) of the
# mean decaying one power faster than f near the piece edge.
_MEAN_PAST_THE_MASS = (
    [(_stationary, (theta, 0.3)) for theta in (45.0, 100.0, 200.0, 1000.0, 1600.0)]
    + [
        (_transition, args)
        for args in ((400.0, 0.5, 0.3, 100.0), (400.0, 0.5, 0.9, 3.0), (400.0, 0.3, 0.9, 100.0), (1e4, 0.3, 0.9, 1e3))
    ]
    + [(_selection, args) for args in ((100.0, 0.3, 1.0), (1000.0, 0.3, 1.0), (1.0, 0.3, 1000.0), (1e4, 0.3, 1e4))]
)
# Laws whose mean still raises.
_MEAN_RAISES = [(_selection, (0.01, 1e-4, 0.1)), (_stationary, (1e-7, 0.3))]


def test_mean_matches_its_closed_form():
    # mean takes each piece's mass in closed form and integrates only its
    # signed offset moment.
    for make, args in _MEAN_FIXED + _MEAN_PAST_THE_MASS:
        law, want = make(*args)
        got = law.mean()
        assert abs(got - want) <= 1e-12, (law.label, got, want)
    for make, args in _MEAN_PAST_THE_MASS:
        with pytest.raises(QuadratureError):
            make(*args)[0].quadrature_mass()
    for make, args in _MEAN_RAISES:
        with pytest.raises(QuadratureError):
            make(*args)[0].mean()


def test_quad_offset_takes_one_value_per_node():
    # A constant broadcasts over the nodes; stacked or reshaped values are
    # not one integrand and raise before they reach the sums.
    assert quad_offset(lambda d: 2.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    for f_off in (lambda d: np.stack([d, d * d]), lambda d: d[:, :1], lambda d: d.ravel()):
        with pytest.raises(InvalidParameterError, match="must return one value per node"):
            quad_offset(f_off, 1.0)


def test_mean_se_matches_two_pass_statistics():
    rng = np.random.default_rng(3)
    for values in (rng.exponential(size=10_001), 1e6 + rng.random(500), np.array([1.0, 2.0])):
        mean, se = mean_se(values)
        assert mean == values.mean()
        assert se == pytest.approx(values.std(ddof=1) / math.sqrt(values.size), rel=1e-12)
    # Nearly constant values cancel in the one-pass sum of squares; the
    # deviations are then summed directly.
    assert mean_se(np.full(100, 0.4))[1] < 1e-15
    with pytest.raises(InvalidParameterError):
        mean_se(np.ones(1))
