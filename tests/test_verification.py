"""Checks for the verify battery plumbing itself.

The individual identities behind each suite are exercised in the module
tests; here we only make sure the registry, the pass/fail bookkeeping,
the one reducer that turns each suite's (residual, where) pairs into a
CheckResult, the stable report rendering and the worst-point `where`
fields behave, using the cheap deterministic suites plus one small Monte
Carlo suite run twice; one full battery at seed 3 checks that every
check sets `where`.
The transition-moments cells run on a thread pool while the
calling thread runs the other suites: these tests check that the cells
draw exactly what a sequential run would, that the results keep registry
order and do not depend on the pool size, and that an error in a suite
or a cell propagates and leaves no pool thread behind.
"""

import dataclasses
import math
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from starcoal import core, twotype, verification
from starcoal.core import InvalidParameterError, RngStream, StarcoalError
from starcoal.twotype import TwoTypeParams, sample_transition
from starcoal.verification import (
    SUITE_NAMES,
    CheckResult,
    format_report,
    run_suites,
)

EXPECTED_SUITES = (
    "transition-mass",
    "uniform-stationary",
    "transition-moments",
    "eigen-equation",
    "expansion",
    "pairing",
    "line-spectral",
    "absorption-time",
    "moment-duality",
    "replacement-parts",
    "multitype",
    "selection",
    "asg",
)


def test_suite_registry():
    assert SUITE_NAMES == EXPECTED_SUITES


def test_check_result_pass_logic():
    assert CheckResult("s", "small residual", 1e-12, 1e-10).passed
    assert not CheckResult("s", "large residual", 1e-8, 1e-10).passed
    # "ge" is for quantities that must stay large, e.g. KS p-values.
    assert CheckResult("s", "p-value", 0.4, 0.01, direction="ge").passed
    assert not CheckResult("s", "p-value", 0.001, 0.01, direction="ge").passed
    with pytest.raises(InvalidParameterError):
        CheckResult("s", "bad", 0.0, 1.0, direction="lt")


def test_reducer_keeps_the_worst_pair():
    # "le" keeps the largest residual, "ge" the smallest, a tie the first
    # such pair, and where always comes from the pair kept.
    gaps = [(0.5, "a"), (2.0, "b"), (2.0, "c"), (0.1, "d"), (0.1, "e")]
    assert verification._check_result("s", "r", gaps, 1.0) == CheckResult("s", "r", 2.0, 1.0, "le", "b")
    assert verification._check_result("s", "p", gaps, 0.01, "ge") == CheckResult("s", "p", 0.1, 0.01, "ge", "d")
    single = verification._check_result("s", "exact", [(0.0, (2, 2.0))], 0.0)
    assert single.passed and single.where == (2, 2.0)


def test_suites_return_data_named_by_the_registry(monkeypatch):
    # A suite returns (name, gaps, bound[, "ge"]) tuples and builds no
    # CheckResult; run_suites reduces them and supplies the suite name.
    checks = verification._suite_absorption_time(0)
    assert [len(c) for c in checks] == [3, 3]
    assert all(isinstance(gaps, list) and all(len(g) == 2 for g in gaps) for _, gaps, _ in checks)

    def fake(seed):
        return [("r", [(1e-3, (seed,)), (2e-3, (seed + 1,))], 1e-2), ("p", [(0.5, ("x",))], 0.01, "ge")]

    suites = tuple((name, fake if name == "eigen-equation" else fn) for name, fn in verification._SUITES)
    monkeypatch.setattr(verification, "_SUITES", suites)
    assert run_suites("eigen-equation", seed=4) == [
        CheckResult("eigen-equation", "r", 2e-3, 1e-2, "le", (5,)),
        CheckResult("eigen-equation", "p", 0.5, 0.01, "ge", ("x",)),
    ]


def test_deterministic_suites_pass():
    suites = ["transition-mass", "eigen-equation", "expansion", "pairing", "line-spectral"]
    results = run_suites(suites, seed=0)
    assert [r.suite for r in results] == suites[:3] + ["pairing"] * 3 + ["line-spectral"] * 2
    for r in results:
        assert r.passed, f"{r.suite}/{r.name}: {r.observed} vs {r.bound}"
    # Every residual check names its worst grid point; the t = 0 line-spectral
    # check, an exact identity with every gap 0, names the first.
    mass, eigen, expansion, pair, pv, split = (r.where for r in results[:6])
    assert mass[:2] in {(theta, p) for theta in (0.5, 1.0, 2.0, 5.0) for p in (0.1, 0.5, 0.9)}
    assert mass[2] in (0.1, 1.0, 10.0) and mass[3] in (0.0, 0.3, 1.0)
    assert len(eigen) == 3 and eigen[2] in range(13)
    assert expansion[0] in range(20) and expansion[1:3] in {(0.5, 0.3), (2.0, 0.7)}
    assert pair[2] in range(1, 13) and pair[3] in range(2, 13)
    assert len(pv) == len(split) == 3
    assert results[6].where is not None and results[7].where == (1, 0.5, "direct")


def test_monte_carlo_suite_repeatable():
    # Same seed twice must give bit-identical residuals, not merely both
    # passing; the report text must match byte for byte as well.
    first = run_suites(["absorption-time"], seed=7)
    second = run_suites(["absorption-time"], seed=7)
    assert [(r.name, r.observed) for r in first] == [(r.name, r.observed) for r in second]
    assert format_report(first) == format_report(second)
    for r in first:
        assert r.passed


def test_unknown_suite_rejected():
    with pytest.raises(InvalidParameterError):
        run_suites(["no-such-suite"], seed=0)


def test_one_suite_name_as_a_string():
    # A str is one suite name, not an iterable of one-letter names.
    assert run_suites("multitype", seed=0) == run_suites(["multitype"], seed=0)
    with pytest.raises(InvalidParameterError, match="no-such-suite"):
        run_suites("no-such-suite", seed=0)


@pytest.fixture(scope="module")
def battery():
    # One full battery, shared by the tests below, with the
    # transition-moments cells on a single pool thread.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_workers", lambda tasks: 1)
        return run_suites("all", seed=3)


def test_every_check_names_where(battery):
    assert len(battery) == 33
    assert [(r.suite, r.name) for r in battery if r.where is None] == []


def test_report_rendering():
    results = [
        CheckResult("demo", "tiny", 2e-13, 1e-10),
        CheckResult("demo", "p-value", 0.37, 0.01, direction="ge"),
        CheckResult("demo", "blown", 3.0, 1.0),
    ]
    report = format_report(results)
    lines = report.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("PASS") and "<=" in lines[0]
    assert lines[1].startswith("PASS") and ">=" in lines[1]
    assert lines[2].startswith("FAIL")
    assert lines[3] == "2 of 3 checks passed"
    assert report.endswith("\n")


def test_blocked_cell_draws_equal_sequential_sampler(monkeypatch):
    # A run of equal-size sample_transition calls on one stream, in the
    # transition-moments grid order; a block of 3000 does not divide 10,000.
    size = 10_000
    grid = [
        (TwoTypeParams(theta, p), x, t)
        for theta in (0.5, 1.0, 2.0, 5.0)
        for p in (0.1, 0.5, 0.9)
        for t in (0.1, 1.0, 10.0)
        for x in (0.0, 0.3, 1.0)
    ]
    shared = RngStream(11, 300)
    sequential = [sample_transition(par, x, t, shared, size=size) for par, x, t in grid]
    rng = RngStream(11, 300)
    monkeypatch.setattr(core, "_BLOCK", 3_000)
    for k in (0, len(grid) // 2, len(grid) - 1):
        par, x, t = grid[k]
        blocks = [draws for _, draws in twotype._transition_blocks(par, x, t, rng, size, k)]
        assert [b.size for b in blocks] == [3000, 3000, 3000, 1000]
        assert np.array_equal(np.concatenate(blocks), sequential[k])

    # Every cell at once from more threads than CPUs, switching often, all
    # reading ahead of the one shared stream.
    def cell(k):
        par, x, t = grid[k]
        return np.concatenate([draws for _, draws in twotype._transition_blocks(par, x, t, rng, size, k)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(cell, k) for k in range(len(grid))]
            drawn = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(d, s) for d, s in zip(drawn, sequential))
    # Reading ahead never moved the stream.
    assert rng.gen.random() == RngStream(11, 300).gen.random()


def test_results_independent_of_pool_size_and_in_registry_order(monkeypatch, battery):
    # The battery's cells ran on one pool thread; here they run on two
    # while absorption-time runs on the calling thread, asked for out of
    # registry order.
    one = [r for r in battery if r.suite in ("transition-moments", "absorption-time")]
    monkeypatch.setattr(verification, "_workers", lambda tasks: 2)
    two = run_suites(["absorption-time", "transition-moments"], seed=3)
    assert one == two
    assert [r.suite for r in one] == ["transition-moments", "absorption-time", "absorption-time"]
    assert one[1:] == run_suites(["absorption-time"], seed=3)
    theta, p, t, x, n = one[0].where
    assert (theta, p, t, x, n) in {
        (theta_, p_, t_, x_, n_)
        for theta_ in (0.5, 1.0, 2.0, 5.0)
        for p_ in (0.1, 0.5, 0.9)
        for t_ in (0.1, 1.0, 10.0)
        for x_ in (0.0, 0.3, 1.0)
        for n_ in range(1, 5)
    }


def _raise(*args):
    raise StarcoalError("planted failure")


@pytest.mark.parametrize("where", ["suite", "cell"])
def test_error_propagates_and_pool_shuts_down(monkeypatch, where):
    # A cheap suite on the calling thread, or every transition-moments cell,
    # raises; run_suites re-raises it and leaves no pool thread running.
    if where == "suite":
        suites = tuple((name, _raise if name == "eigen-equation" else fn) for name, fn in verification._SUITES)
        monkeypatch.setattr(verification, "_SUITES", suites)
    else:
        monkeypatch.setattr(twotype, "_transition_from_uniforms", _raise)
    before = threading.active_count()
    with pytest.raises(StarcoalError, match="planted failure"):
        run_suites(["transition-moments", "eigen-equation"], seed=0)
    assert threading.active_count() == before


def test_where_in_line_spectral_and_absorption_time(monkeypatch):
    # Stand-ins whose gaps peak at n = 7, theta = 2, t = 1 and at n = 10,
    # theta = 5.
    spectral, exact = verification.an_distribution_spectral, verification.mean_absorption_time

    def fake_spectral(n, theta, t):
        probs = spectral(n, theta, t).probs
        if (n, theta, t) == (7, 2.0, 1.0):
            probs = (probs[0] + 1e-3,) + probs[1:]
        return types.SimpleNamespace(probs=probs)

    def fake_exact(n, theta):
        return exact(n, theta) + (1.0 if (n, theta) == (10, 5.0) else 0.0)

    monkeypatch.setattr(verification, "an_distribution_spectral", fake_spectral)
    monkeypatch.setattr(verification, "mean_absorption_time", fake_exact)
    gap = run_suites(["line-spectral"], seed=0)[0]
    assert gap.where == (7, 2.0, 1.0)
    assert gap.observed == pytest.approx(1e-3, rel=1e-9)
    z = run_suites(["absorption-time"], seed=0)[1]
    assert z.where == (10, 5.0)


def test_where_names_worst_point_and_is_not_printed(monkeypatch):
    # A stand-in duality check whose gap peaks at theta = 2, n = 3.
    def fake_duality_check(par, n, x, t, n_mc, rng):
        return 0.0, 1.0 if (par.theta, n) == (2.0, 3) else 0.5, 1.0

    monkeypatch.setattr(verification, "duality_check", fake_duality_check)
    [result] = run_suites(["moment-duality"], seed=0)
    assert result.where == (2.0, 0.5, 0.7, 0.5, 3)
    assert result.observed == 1.0
    plain = dataclasses.replace(result, where=None)
    assert format_report([result]) == format_report([plain])


def test_where_in_replacement_parts_and_fixation(monkeypatch):
    # Stand-ins whose gaps peak at theta = 5, t = 0.5 (largest xi), at
    # theta = 2, t = 2, k = 4, and at beta = 5, x = 0.9.
    density, branch, fixation = (
        verification.transition_density_eval, verification._component_branch, verification.fixation_prob
    )

    def fake_density(par, x, t, xi):
        return density(par, x, t, xi) + (1e-3 * xi if (par.theta, t) == (5.0, 0.5) else 0.0)

    def fake_branch(weight, eh, shift, w, gap, u, k, theta_t, log_poisson):
        scale = 1.001 if (k, theta_t) == (4, 4.0) else 1.0
        return scale * branch(weight, eh, shift, w, gap, u, k, theta_t, log_poisson)

    def fake_fixation(beta, x, fixed_type):
        return fixation(beta, x, fixed_type) + (1e-3 if (beta, x, fixed_type) == (5.0, 0.9, 1) else 0.0)

    monkeypatch.setattr(verification, "transition_density_eval", fake_density)
    monkeypatch.setattr(verification, "_component_branch", fake_branch)
    monkeypatch.setattr(verification, "fixation_prob", fake_fixation)
    sums, masses = run_suites(["replacement-parts"], seed=0)
    edge = 0.3 + 0.7 * math.exp(-1.25)
    assert sums.where == (5.0, 0.5, edge + (1.0 - edge) * 0.8)
    assert masses.where == (2.0, 2.0, 4)
    comp = next(c for c in run_suites(["selection"], seed=0) if "P_fix" in c.name)
    assert comp.where == (5.0, 0.9)
    assert comp.observed == pytest.approx(1e-3, rel=1e-9)
