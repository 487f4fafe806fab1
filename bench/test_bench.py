"""Tests of the benchmark itself, kept apart from the library's test suite.

    python3 -m pytest bench

Run from the root of a source checkout.  Each workload runs one round at a
reduced size and must pass its checks; every kind of check must reject a
deliberately perturbed program output, so that no check is vacuous; and the
mc-ensembles checks must also pass at other seeds, one of them at full size.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import starcoal  # noqa: E402
import starcoal.cli  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Round, rate_probe  # noqa: E402

REDUCED = {
    "VERIFY_SUITE": "eigen-equation",
    "VERIFY_MIN_CHECKS": 1,
    "THETAS": (0.5, 5.0),
    "TRANSITIONS_PER_THETA": 2,
    "STATIONARY_PER_THETA": 1,
    "SKELETON_DRIFTS": 2,
    "FIXATION_BETAS": (1.0, 2.0),
    "FIXATION_XS": 1,
    "PV_POLYS": 2,
    "LINE_TIMES": {20: (2, 1), 40: (1, 1)},
    "MARKOV_KERNELS": 2,
    "DRAWS": 20_000,
    "PATHS": 300,
    "PROBE_PATHS": 300,
}


@pytest.fixture
def reduced(monkeypatch):
    for name, value in REDUCED.items():
        monkeypatch.setattr(workloads, name, value)


def run_round(name: str, seed: int = 1, r: int = 0) -> Round:
    workload = WORKLOADS[name]
    rnd = Round()
    workload.run(starcoal, workload.build(starcoal, seed, r), rnd)
    return rnd


def failures(rnd: Round) -> list[str]:
    return [name for name, ok, _ in rnd.checks if not ok]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_passes(reduced, name):
    rnd = run_round(name)
    assert rnd.attempted > 0 and rnd.failed == 0
    assert rnd.checks and failures(rnd) == []
    assert rnd.program_s > 0.0


def test_rate_probe_passes(reduced):
    rnd = Round()
    rate_probe(starcoal, 1, 0, rnd)
    assert rnd.failed == 0 and failures(rnd) == []
    assert rnd.draws == workloads.DRAWS and rnd.paths == workloads.PROBE_PATHS


@pytest.mark.parametrize("seed", [2, 977])
def test_mc_checks_pass_at_other_seeds(reduced, seed):
    rnd = run_round("mc-ensembles", seed=seed, r=3)
    assert rnd.failed == 0 and failures(rnd) == []


def test_mc_checks_pass_at_full_size_second_seed():
    rnd = run_round("mc-ensembles", seed=2)
    assert rnd.failed == 0 and failures(rnd) == []
    assert rnd.draws == 10 * workloads.DRAWS


def test_rounds_repeat_the_same_operations(reduced):
    """Whole rounds of the same operations: the attempted count never depends on seed or round."""
    for name in ("exact-laws", "mc-ensembles"):
        counts = {run_round(name, seed, r).attempted for seed, r in ((1, 0), (5, 1), (8, 2))}
        assert len(counts) == 1, (name, counts)


# Each case perturbs one program output and names a check that must then fail.


def _shift(fn, delta):
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs) + delta

    return wrapper


def _spectral_moved(fn):
    def wrapper(*args, **kwargs):
        law = fn(*args, **kwargs)
        probs = list(law.probs)
        big, second = sorted(range(len(probs)), key=probs.__getitem__)[-2:]
        probs[big] -= 1e-9
        probs[second] += 1e-9
        return dataclasses.replace(law, probs=tuple(probs))

    return wrapper


def _final_shifted(fn, delta):
    def wrapper(*args, **kwargs):
        rec = fn(*args, **kwargs)
        return dataclasses.replace(rec, final_frequency=rec.final_frequency + delta)

    return wrapper


def _piece_mass_moved(fn):
    """Move stored mass between the two density pieces; the law's total stays 1."""

    def wrapper(*args, **kwargs):
        law = fn(*args, **kwargs)
        lo, up = law.pieces
        moved = 1e-6 * lo.mass
        pieces = (dataclasses.replace(lo, mass=lo.mass - moved), dataclasses.replace(up, mass=up.mass + moved))
        return dataclasses.replace(law, pieces=pieces)

    return wrapper


def _estimator_shifted(fn):
    def wrapper(*args, **kwargs):
        lhs, rhs, se = fn(*args, **kwargs)
        return lhs, rhs + 10.0 * se, se

    return wrapper


PERTURBATIONS = {
    # closed form: transition mean
    "mean vs closed form": (
        "exact-laws", "core.MixedLaw.mean", lambda f: _shift(f, 1e-7), "mean = closed form"),
    # property: total mass 1
    "mass property": (
        "exact-laws", "core.MixedLaw.quadrature_mass", lambda f: _shift(f, 1e-7), "quadrature mass = 1"),
    # second route inside the program: mean against transition_moment
    "mean vs transition_moment": (
        "exact-laws", "twotype.transition_moment", lambda f: _shift(f, 1e-7), "p + transition_moment"),
    # mpmath oracle and a symmetry property
    "fixation vs mpmath": (
        "exact-laws", "selection.fixation_prob", lambda f: _shift(f, 1e-7), "P1 = mpmath"),
    "fixation symmetry": (
        "exact-laws", "selection.fixation_prob", lambda f: _shift(f, 1e-7), "P1(x) + P2(1-x) = 1"),
    "skeleton vs mpmath": (
        "exact-laws", "selection.skeleton_matrix", lambda f: _shift(f, 1e-7), "skeleton E mu(T) = mpmath"),
    "piece masses vs mpmath": (
        "exact-laws", "twotype.transition_law", _piece_mass_moved, "piece masses = mpmath"),
    "pairing routes": (
        "exact-laws", "eigen.pv_expectation_g_q1_numeric", lambda f: _shift(f, 1e-7), "numeric = series"),
    "line law routes": (
        "exact-laws", "lines.an_distribution_spectral", _spectral_moved, "direct = spectral"),
    "markov kernel vs expm": (
        "exact-laws", "multitype.markov_line_kernel", lambda f: _shift(f, 1e-9), "= expm"),
    # Monte Carlo means in standard-error units
    "batch sample mean": (
        "mc-ensembles", "twotype.sample_transition", lambda f: _shift(f, 0.05), "sample_transition mean"),
    "estimator with its own SE": (
        "mc-ensembles", "lines.duality_check", _estimator_shifted, "duality_check line estimator"),
    "scalar path endpoints": (
        "mc-ensembles", "twotype.simulate_path", lambda f: _final_shifted(f, 0.2), "simulate_path endpoint mean"),
    "ua clock": (
        "mc-ensembles", "selection.ua_time_ensemble", lambda f: _shift(f, 0.1), "ua_time_ensemble mean = 1"),
    # the battery's own verdict
    "verify report": (
        "verify-battery", "verification.eigenvalue", lambda f: _shift(f, 1e-6), "verify exit status 0"),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_check_rejects_perturbed_output(reduced, monkeypatch, case):
    workload, target, perturb, expected = PERTURBATIONS[case]
    module, _, attr = target.partition(".")
    owner = getattr(starcoal, module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    monkeypatch.setattr(owner, attr, perturb(getattr(owner, attr)))
    rnd = run_round(workload)
    assert rnd.failed == 0
    assert any(expected in name for name in failures(rnd)), failures(rnd)


def test_failed_operations_are_counted(reduced, monkeypatch):
    def broken(*args, **kwargs):
        raise starcoal.SimulationAbortError("injected")

    monkeypatch.setattr(starcoal.lines, "simulate_lines", broken)
    rnd = run_round("mc-ensembles")
    assert rnd.failed == workloads.PATHS
    assert failures(rnd) == []


def test_tracer_restores_and_nests(reduced):
    before = (starcoal.twotype.sample_transition, starcoal.core.MixedLaw.sample, starcoal.selection.flow)
    with Tracer(starcoal) as tracer:
        run_round("mc-ensembles")
    assert (starcoal.twotype.sample_transition, starcoal.core.MixedLaw.sample, starcoal.selection.flow) == before
    totals = tracer.totals()
    assert totals["twotype.sample_transition.s"] > 0.0 and totals["core.MixedLaw.sample.s"] > 0.0
    assert totals["twotype.simulate_path.calls"] == workloads.PATHS
    spans = {sid: parent for sid, parent, _, _, _ in tracer.spans}
    assert all(parent == 0 or parent in spans for parent in spans.values())


# One traced exact-laws round in a fresh interpreter, as the benchmark runs
# it: the program caches skeleton integrals per drift within a process.
TRACE_ONE_ROUND = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import starcoal, starcoal.cli, workloads
from tracing import Tracer
for name, value in {reduced!r}.items():
    setattr(workloads, name, value)
w = workloads.WORKLOADS["exact-laws"]
with Tracer(starcoal) as tracer:
    w.run(starcoal, w.build(starcoal, 4, 0), workloads.Round())
print(json.dumps(tracer.totals()))
"""


def test_traced_counts_repeat_across_runs():
    code = TRACE_ONE_ROUND.format(here=HERE, src=os.path.join(os.path.dirname(HERE), "src"), reduced=REDUCED)
    runs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.PIPE, text=True, timeout=300)
        totals = json.loads(done.stdout.splitlines()[-1])
        runs.append({k: v for k, v in totals.items() if not k.endswith(".s")})
    assert runs[0] == runs[1]
    for key in ("core.quadpack.calls", "core.integrand.evals", "core.quad_offset.calls", "selection.flow.calls"):
        assert runs[0][key] > 0


def test_probe_slices_run_between_operations(reduced, monkeypatch):
    import run

    monkeypatch.setattr(workloads, "PROBE_EVERY", 0.0)
    rounds, probes = run._measure(WORKLOADS["exact-laws"], starcoal, 1, 0.001)
    assert len(rounds) == 1
    assert len(probes) == rounds[0].attempted + 2
    assert rounds[0].draws == 0 and all(p.draws == workloads.DRAWS for p in probes)
