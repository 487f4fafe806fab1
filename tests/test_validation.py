"""Input contract of the public entry points, as hypothesis properties.

Every real argument has a documented domain.  NaN is outside every one
of them, and t = inf is inside only where a docstring says so: the closed
forms transition_moment, transition_density_eval, marginal_q, line_kernel,
pim_line_kernel and flow for the named drift kinds, and the sampler
sample_transition.  Any value outside
the domain must raise InvalidParameterError before any work starts: not a
nan result, not a bare numpy error, and not an event loop that never
ends.  Each case below calls one entry point with valid defaults and
replaces one argument with a value drawn from outside its domain; the bad
values are few in kind (NaN, an infinity, a value below or above the
range), so 30 examples per entry point cover them.
"""

import json
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcoal import cli, core, eigen, lines, multitype, selection, twotype
from starcoal.core import InvalidParameterError, RngStream, TwoTypeParams

INF = math.inf

# (lo, hi, open_lo, open_hi) domains of the real arguments.
UNIT = (0.0, 1.0, False, False)
OPEN_UNIT = (0.0, 1.0, True, True)
POSITIVE = (0.0, INF, True, True)
TIME = (0.0, INF, False, True)
TIME_POS = (0.0, INF, True, True)
TIME_INF = (0.0, INF, False, False)
TIME_POS_INF = (0.0, INF, True, False)
ANY = (-INF, INF, False, False)

PAR = TwoTypeParams(1.3, 0.35)
MP = multitype.MultiParams(1.4, (0.2, 0.5, 0.3))
MM = multitype.MutationMatrix(np.array([[0.5, 0.5], [0.3, 0.7]]))
MS = selection.mutation_selection_drift(1.0, 0.5, 2.0)
G = eigen.PolyRep(0.35, (0.1, 0.2, 0.3))


def rng():
    return RngStream(0)


def outside(lo, hi, open_lo, open_hi):
    """Values outside the domain; NaN always is, signed zeros kept honest."""
    parts = [st.just(math.nan)]
    if lo == -INF:
        if open_lo:
            parts.append(st.just(-INF))
    else:
        below = lo if open_lo else math.nextafter(lo, -INF)
        parts.append(st.floats(max_value=below, allow_nan=False))
    if hi == INF:
        if open_hi:
            parts.append(st.just(INF))
    else:
        above = hi if open_hi else math.nextafter(hi, INF)
        parts.append(st.floats(min_value=above, allow_nan=False))
    return st.one_of(parts)


# name -> (call with valid keyword defaults, {argument: domain})
CASES = {
    "core.TwoTypeParams": (
        lambda theta=1.0, p=0.3: TwoTypeParams(theta, p), {"theta": POSITIVE, "p": OPEN_UNIT}),
    "core.quad_offset": (
        lambda width=0.5: core.quad_offset(lambda d: 1.0, width), {"width": POSITIVE}),
    "core.replacement_decay_integral": (
        lambda theta=1.0, t=1.0: core.replacement_decay_integral(theta, t),
        {"theta": POSITIVE, "t": TIME}),
    "twotype.line_kernel": (lambda t=1.0: twotype.line_kernel(PAR, t), {"t": TIME_INF}),
    "twotype.marginal_q": (
        lambda x=0.4, t=1.0: twotype.marginal_q(PAR, x, t), {"x": UNIT, "t": TIME_INF}),
    "twotype.transition_law": (
        lambda x=0.4, t=1.0: twotype.transition_law(PAR, x, t), {"x": UNIT, "t": TIME_INF}),
    "twotype.transition_density_eval": (
        lambda x=0.4, t=1.0, xi=0.9: twotype.transition_density_eval(PAR, x, t, xi),
        {"x": UNIT, "t": TIME_POS_INF, "xi": ANY}),
    "twotype.stationary_density_eval": (
        lambda xi=0.9: twotype.stationary_density_eval(PAR, xi), {"xi": UNIT}),
    "twotype.transition_moment": (
        lambda x=0.4, t=1.0: twotype.transition_moment(PAR, 2, x, t), {"x": UNIT, "t": TIME_INF}),
    "twotype.sample_transition": (
        lambda x=0.4, t=1.0: twotype.sample_transition(PAR, x, t, rng()),
        {"x": UNIT, "t": TIME_POS_INF}),
    "twotype.simulate_path": (
        lambda x=0.4, horizon=1.0: twotype.simulate_path(PAR, x, horizon, rng()),
        {"x": UNIT, "horizon": TIME_POS}),
    "twotype.path_endpoint_ensemble": (
        lambda x=0.4, t=1.0: twotype.path_endpoint_ensemble(PAR, x, t, 10, rng()),
        {"x": UNIT, "t": TIME}),
    "twotype.replacement_component_density": (
        lambda x=0.4, t=1.0, xi=0.9: twotype.replacement_component_density(PAR, x, t, 1, xi),
        {"x": UNIT, "t": TIME_POS, "xi": ANY}),
    "eigen.expansion_expectation": (
        lambda x=0.4, t=1.0: eigen.expansion_expectation(PAR, G, x, t), {"x": UNIT, "t": TIME}),
    "lines.an_distribution": (
        lambda theta=1.0, t=1.0: lines.an_distribution(4, theta, t),
        {"theta": POSITIVE, "t": TIME}),
    "lines.an_distribution_spectral": (
        lambda theta=1.0, t=1.0: lines.an_distribution_spectral(4, theta, t),
        {"theta": POSITIVE, "t": TIME}),
    "lines.mean_absorption_time": (
        lambda theta=1.0: lines.mean_absorption_time(4, theta), {"theta": POSITIVE}),
    "lines.simulate_lines": (
        lambda theta=1.0: lines.simulate_lines(4, theta, rng()), {"theta": POSITIVE}),
    "lines.absorption_time_ensemble": (
        lambda theta=1.0: lines.absorption_time_ensemble(4, theta, 10, rng()), {"theta": POSITIVE}),
    "lines.duality_check": (
        lambda x=0.4, t=1.0: lines.duality_check(PAR, 2, x, t, 10, rng()),
        {"x": UNIT, "t": TIME_POS}),
    "multitype.MultiParams": (
        lambda theta=1.0: multitype.MultiParams(theta, (0.2, 0.8)), {"theta": POSITIVE}),
    "multitype.pim_line_kernel": (lambda t=1.0: multitype.pim_line_kernel(MP, t), {"t": TIME_INF}),
    # x_vec is the state's first coordinate, checked alone before the sum.
    "multitype.pim_transition_law": (
        lambda t=1.0, x_vec=0.2: multitype.pim_transition_law(MP, (x_vec, 0.5, 0.3), t),
        {"t": TIME, "x_vec": UNIT}),
    "multitype.markov_line_kernel": (
        lambda theta=1.0, t=1.0: multitype.markov_line_kernel(MM, theta, t),
        {"theta": POSITIVE, "t": TIME}),
    "multitype.infinite_sampling_prob": (
        lambda theta=1.0: multitype.infinite_sampling_prob(4, 2, theta), {"theta": POSITIVE}),
    "selection.mutation_selection_drift": (
        lambda theta=1.0, p=0.5, beta=2.0: selection.mutation_selection_drift(theta, p, beta),
        {"theta": POSITIVE, "p": OPEN_UNIT, "beta": POSITIVE}),
    "selection.roots": (
        lambda theta=1.0, beta=2.0, p=0.5: selection.roots(theta, beta, p),
        {"theta": POSITIVE, "beta": POSITIVE, "p": OPEN_UNIT}),
    "selection.flow": (
        lambda chi0=0.4, t=1.0: selection.flow(MS, chi0, t), {"chi0": UNIT, "t": TIME_INF}),
    "selection.stationary_density": (
        lambda xi=0.9: selection.stationary_density(MS, xi), {"xi": UNIT}),
    "selection.simulate_path": (
        lambda x=0.4, horizon=1.0: selection.simulate_path(MS, x, horizon, rng()),
        {"x": UNIT, "horizon": TIME_POS}),
    "selection.fixation_prob": (
        lambda beta=2.0, x=0.4: selection.fixation_prob(beta, x, 1), {"beta": POSITIVE, "x": UNIT}),
    "selection.asg_simulate": (
        lambda beta=1.0, horizon=1.0: selection.asg_simulate(3, beta, rng(), horizon),
        {"beta": POSITIVE, "horizon": TIME_POS}),
    "selection.ua_time_ensemble": (
        lambda beta=1.0: selection.ua_time_ensemble(3, beta, 10, rng()), {"beta": POSITIVE}),
    "selection.asg_stationary": (
        lambda beta=1.0: selection.asg_stationary(beta, 3), {"beta": POSITIVE}),
    "selection.asg_stationary_gf": (
        lambda beta=1.0, y=0.5: selection.asg_stationary_gf(beta, y),
        {"beta": POSITIVE, "y": (0.0, 1.0, False, True)}),
    "selection.asg_count_ensemble": (
        lambda beta=1.0, t=1.0: selection.asg_count_ensemble(3, beta, t, 10, rng()),
        {"beta": POSITIVE, "t": TIME_POS}),
    "selection.selection_duality_check": (
        lambda x=0.4, t=1.0, beta=1.0: selection.selection_duality_check(2, x, t, beta, 10, rng()),
        {"x": UNIT, "t": TIME_POS, "beta": POSITIVE}),
}

# name -> (call with a valid default size, smallest valid size)
SIZE_CASES = {
    "twotype.path_endpoint_ensemble": (
        lambda size=10: twotype.path_endpoint_ensemble(PAR, 0.4, 1.0, size, rng()), 1),
    "lines.absorption_time_ensemble": (
        lambda size=10: lines.absorption_time_ensemble(4, 1.0, size, rng()), 1),
    "lines.duality_check": (lambda size=10: lines.duality_check(PAR, 2, 0.4, 1.0, size, rng()), 2),
    "lines.stationary_moment_via_coalescent": (
        lambda size=10: lines.stationary_moment_via_coalescent(PAR, 2, size, rng()), 2),
    "selection.ua_time_ensemble": (
        lambda size=10: selection.ua_time_ensemble(3, 1.0, size, rng()), 1),
    "selection.asg_count_ensemble": (
        lambda size=10: selection.asg_count_ensemble(3, 1.0, 1.0, size, rng()), 1),
    "selection.selection_duality_check": (
        lambda size=10: selection.selection_duality_check(2, 0.4, 1.0, 1.0, size, rng()), 2),
    "twotype.sample_transition": (
        lambda size=10: twotype.sample_transition(PAR, 0.4, 1.0, rng(), size=size), 1),
    "twotype.stationary_sample": (lambda size=10: twotype.stationary_sample(PAR, rng(), size), 1),
    "selection.stationary_sample": (
        lambda size=10: selection.stationary_sample(MS, rng(), size), 1),
    "multitype.pim_stationary_sample": (
        lambda size=10: multitype.pim_stationary_sample(MP, rng(), size), 1),
}
# Samplers whose size is a numpy shape: None, an integer or a tuple.
SHAPED = (
    "twotype.sample_transition",
    "twotype.stationary_sample",
    "selection.stationary_sample",
    "multitype.pim_stationary_sample",
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_defaults_are_valid(name):
    call, _ = CASES[name]
    call()


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=30)
@given(data=st.data())
def test_real_argument_outside_domain_raises(name, data):
    call, domains = CASES[name]
    arg = data.draw(st.sampled_from(sorted(domains)), label="argument")
    value = data.draw(outside(*domains[arg]), label="value")
    with pytest.raises(InvalidParameterError, match=arg):
        call(**{arg: value})


@pytest.mark.parametrize("name", sorted(SIZE_CASES))
@settings(max_examples=30)
@given(data=st.data())
def test_ensemble_size_must_be_an_integer(name, data):
    call, minimum = SIZE_CASES[name]
    call()
    bad = data.draw(st.one_of(st.integers(max_value=minimum - 1), st.floats()), label="size")
    with pytest.raises(InvalidParameterError):
        call(size=bad)


@pytest.mark.parametrize("name", SHAPED)
def test_sample_shape_may_be_a_tuple(name):
    call, _ = SIZE_CASES[name]
    # A shape draws the same stream as the flat size, in C order.
    flat, shaped = call(size=6), call(size=(2, 3))
    assert np.array_equal(np.reshape(shaped, np.shape(flat)), flat)
    for bad in ((2, 0), (3, -1), (2.0,), (2, None)):
        with pytest.raises(InvalidParameterError, match="size"):
            call(size=bad)


def test_offset_integrand_failures_are_typed():
    # quad_offset hands the integrand float ndarrays; a scalar-only one is a
    # caller error, and a non-finite value is a quadrature failure, and both
    # errors name the width.
    with pytest.raises(InvalidParameterError, match="width 0.5"):
        core.quad_offset(lambda d: math.exp(-d), 0.5)
    with pytest.raises(core.QuadratureError, match="width 0.25 is not finite"):
        core.quad_offset(lambda d: np.full_like(d, np.nan), 0.25)
    with pytest.raises(core.QuadratureError, match="width 1.0 is not finite"):
        core.quad_offset(lambda d: d**-1.5, 1.0)  # not integrable: overflows
    # A density too flat at 0 leaves mass below the floor: raised, not
    # dropped, naming the floor and the fitted exponent.
    with pytest.raises(core.QuadratureError, match="floor 1e-250.*exponent 0.0099"):
        core.quad_offset(lambda d: 0.01 * d**-0.99, 1.0)
    with pytest.raises(core.QuadratureError, match="400 bisections"):
        core.quad_offset(lambda d: np.sin(1e3 / d) / d, 1.0)


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (multitype.infinite_sampling_prob, (2.5, 1, 1.0), "n"),
        (multitype.infinite_sampling_prob, (2, 0.5, 1.0), "j"),
        (multitype.infinite_sampling_prob, (2, 3, 1.0), "j <= n"),
        (lines.an_distribution, (2.5, 1.0, 1.0), "n"),
        (lines.an_distribution_spectral, ("3", 1.0, 1.0), "n"),
        (lines.mean_absorption_time, (2.5, 1.0), "n"),
        (multitype.MultiParams, (1.0, ("a", 0.5)), r"p_vec\[0\]"),
        (eigen.PolyRep, (0.0, ("x",)), r"coeffs\[0\]"),
        (eigen.PolyRep, ("x", (1.0,)), "shift"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_non_numbers_and_non_integers_raise_typed(fn, args, match):
    # Counts go through check_int and reals through check_real, so a float
    # count or a string is an InvalidParameterError naming the argument, not
    # a bare TypeError from math.factorial or a comparison.
    with pytest.raises(InvalidParameterError, match=match):
        fn(*args)


def test_results_past_float_range_raise_typed():
    # Each used to escape as a bare exception or a non-finite value: an
    # OverflowError from the exact ratio, numpy's ValueError from a
    # geometric parameter that underflowed to 0, and -inf.
    with pytest.raises(InvalidParameterError, match=r"n = 3, theta = 1e-308"):
        lines.mean_absorption_time(3, 1e-308)
    with pytest.raises(core.SimulationAbortError, match=r"n = 2 at beta = 1e\+308"):
        selection.asg_count_ensemble(2, 1e308, 1.0, 10, rng())
    with pytest.raises(InvalidParameterError, match=r"x = 0\.5 about shift 1e\+308"):
        eigen.PolyRep(1e308, (1.0, 2.0))(0.5)


# Forward simulations whose cost grows with the horizon, at a finite one
# far past any that can finish, and backward line engines, which stop within
# n + 1 stages and count those as their horizon, at such a line count.
HUGE = 1e308
HUGE_N = 10**9
HUGE_HORIZONS = {
    "twotype.simulate_path": lambda r: twotype.simulate_path(PAR, 0.4, HUGE, r),
    "twotype.path_endpoint_ensemble": lambda r: twotype.path_endpoint_ensemble(PAR, 0.5, HUGE, 3, r),
    "selection.simulate_path": lambda r: selection.simulate_path(MS, 0.4, HUGE, r),
    "selection.selection_duality_check": lambda r: selection.selection_duality_check(2, 0.5, HUGE, 1.0, 10, r),
    "selection.asg_count_ensemble": lambda r: selection.asg_count_ensemble(2, 1.0, HUGE, 10, r),
    "selection.asg_simulate": lambda r: selection.asg_simulate(3, 0.5, r, horizon=HUGE),
    "lines.absorption_time_ensemble": lambda r: lines.absorption_time_ensemble(HUGE_N, 1.0, 3, r),
    "lines.stationary_moment_via_coalescent": lambda r: lines.stationary_moment_via_coalescent(PAR, HUGE_N, 10, r),
    "lines.simulate_lines": lambda r: lines.simulate_lines(HUGE_N, 1.0, r),
    "lines.duality_check": lambda r: lines.duality_check(PAR, HUGE_N, 0.5, 1.0, 10, r),
}


def _in_time(call, seconds=1.0):
    """call(), failed by an alarm if it has not returned within seconds."""

    def expire(*_):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(HUGE_HORIZONS))
def test_huge_horizons_abort_before_any_draw(name):
    mine = rng()
    horizon = HUGE_N + 1 if name.startswith("lines.") else "1e\\+308"
    with pytest.raises(core.SimulationAbortError, match=rf"{name} to horizon {horizon} with \d+ replicates exceeds SIM_WORK_CAP"):
        _in_time(lambda: HUGE_HORIZONS[name](mine))
    assert mine.gen.random() == rng().gen.random()


def test_cli_huge_horizon_exits_with_an_error(capsys):
    for argv in (
        ["simulate", "fv", "--theta", "1.0", "--p", "0.3", "--x", "0.5", "--t", "1e308", "--seed", "1"],
        ["simulate", "lines", "--n", str(HUGE_N), "--theta", "1", "--seed", "1"],
    ):
        assert _in_time(lambda: cli.main(argv)) == 1
        assert "SIM_WORK_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("law", [lines.an_distribution, lines.an_distribution_spectral], ids=lambda f: f.__name__)
def test_line_laws_past_the_cap_raise_at_once(law):
    # Both exact laws grow as n^2 to n^3 in big-integer work; past the cap
    # they raise before any of it, at a full-mantissa theta and t too.
    n = core.LINE_LAW_N_CAP + 1
    with pytest.raises(InvalidParameterError, match=rf"^line-count law for n={n}, theta=0\.1 exceeds LINE_LAW_N_CAP = {n - 1}$"):
        _in_time(lambda: law(n, 0.1, 0.3))


def test_cli_line_law_past_the_cap_exits_with_an_error(capsys):
    argv = ["lines", "--n", "100000", "--theta", "0.1", "--t-grid", "0.3"]
    assert _in_time(lambda: cli.main(argv)) == 1
    assert "LINE_LAW_N_CAP" in capsys.readouterr().err


def test_infinite_sampling_prob_past_the_cap_raises_at_once():
    # Its integer ratio grows as n^2 in big-integer work for one j, and the
    # CLI table asks for every j.
    n = core.LINE_LAW_N_CAP + 1
    with pytest.raises(
        InvalidParameterError,
        match=rf"^infinite-types sampling law for n={n}, theta=0\.1 exceeds LINE_LAW_N_CAP = {n - 1}$",
    ):
        _in_time(lambda: multitype.infinite_sampling_prob(n, n // 2, 0.1))


def test_cli_sampling_law_past_the_cap_exits_with_an_error(capsys):
    argv = ["multitype", "--theta", "0.1", "--n", "100000"]
    assert _in_time(lambda: cli.main(argv)) == 1
    assert "LINE_LAW_N_CAP" in capsys.readouterr().err


def test_mean_absorption_time_past_the_cap_raises_at_once():
    # Its product of n big integers grows about as n^2 in work, faster at a
    # full-mantissa theta: about 53 s at n = 1e5, theta = 0.1 uncapped.
    n = core.LINE_LAW_N_CAP + 1
    with pytest.raises(
        InvalidParameterError,
        match=rf"^mean absorption time for n={n}, theta=0\.1 exceeds LINE_LAW_N_CAP = {n - 1}$",
    ):
        _in_time(lambda: lines.mean_absorption_time(n, 0.1))


@pytest.mark.parametrize("n", [core.LINE_LAW_N_CAP + 1, 10**9, 10**18])
def test_eigen_poly_past_the_cap_raises_at_once(n):
    # P_n holds n + 1 floats: several GB at n = 1e9 without the cap.
    cap = core.LINE_LAW_N_CAP
    with pytest.raises(InvalidParameterError, match=rf"^eigen polynomial for n={n} exceeds LINE_LAW_N_CAP = {cap}$"):
        _in_time(lambda: eigen.eigen_poly(PAR, n))
    assert eigen.eigen_poly(PAR, cap).coefficient(cap) == 1.0


def test_cli_simulated_lines_past_the_cap_exit_with_an_error(capsys):
    # The ensemble runs first and passes SIM_WORK_CAP; the exact mean then raises.
    argv = ["simulate", "lines", "--n", "100000", "--theta", "0.1", "--n-mc", "2", "--seed", "1"]
    assert _in_time(lambda: cli.main(argv), 2.0) == 1
    assert "LINE_LAW_N_CAP" in capsys.readouterr().err


def test_cli_eigen_table_is_linear_in_n(capsys, monkeypatch):
    # Each row prints c0 and c1 only, not the whole P_n of n + 1 coefficients,
    # and n is capped at LINE_LAW_N_CAP, as eigen_poly is: uncapped, the table
    # took 5.3 s and 357 MB at n = 1e6.
    built = []

    def poly(par, n):
        built.append(n)
        return eigen.eigen_poly(par, n)

    monkeypatch.setattr(cli, "eigen_poly", poly)
    cap = core.LINE_LAW_N_CAP
    argv = ["eigen", "--theta", "1.3", "--p", "0.35", "--format", "json", "--n"]
    assert _in_time(lambda: cli.main(argv + [str(cap)]), 2.0) == 0
    assert built == [0, 1]
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == cap + 1
    par = TwoTypeParams(1.3, 0.35)
    for n, value, c0, c1 in rows[:13]:
        g = eigen.eigen_poly(par, n)
        assert (value, c0, c1) == (eigen.eigenvalue(par, n), g.coefficient(0), g.coefficient(1))
    assert _in_time(lambda: cli.main(argv + [str(cap + 1)]), 0.5) == 1
    assert capsys.readouterr().err == f"error: eigen polynomial for n={cap + 1} exceeds LINE_LAW_N_CAP = {cap}\n"
