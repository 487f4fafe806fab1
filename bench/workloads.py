"""The three benchmark workloads: inputs, one round of calls, and its checks.

A round is a fixed list of operations, each one call into starcoal.  Only
the time inside those calls is measured; every output is checked after
its call returns, against a reference computed apart from the program
(oracle.py, scipy's expm, a second route through the library) or against
a property the method must have.  Round r of seed s always makes the same
calls on the same inputs, and no two rounds share a parameter point, so
no cache in the program can carry work from one round to the next.

Library functions are always reached as module attributes at call time
(``twotype.sample_transition``), which is what lets tracing.py see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import traceback
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

import oracle

# Monte Carlo checks pass when the estimate is within Z_BOUND standard
# errors of its target.  A correct program misses one check with
# probability about 2e-9, so it passes at any seed in practice.
Z_BOUND = 6.0
# Quadrature and exact-rational checks: the library's default quadrature
# tolerance is 1e-11 per piece; these leave room for summing pieces.
QUAD_TOL = 1e-9
EXACT_TOL = 1e-12

VERIFY_SEED = 42
VERIFY_SUITE = "all"
VERIFY_MIN_CHECKS = 33


class Round:
    """Times operations, counts failures and collects check outcomes.

    `between`, if given, is called after each operation, outside its timing.
    """

    def __init__(self, between: Callable[[], None] | None = None):
        self.between = between
        self.program_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.draws = 0
        self.batch_s = 0.0
        self.paths = 0
        self.scalar_s = 0.0
        self.checks: list[tuple[str, bool, str]] = []

    def op(self, fn, *args, draws: int = 0, path: bool = False, **kwargs):
        """Call fn once; return its result, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            result = None
        spent = time.perf_counter() - start
        self.program_s += spent
        if draws:
            self.draws += draws
            self.batch_s += spent
        if path:
            self.paths += 1
            self.scalar_s += spent
        if self.between is not None:
            self.between()
        return result

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        err = abs(got - want)
        self.check(name, err <= tol, f"|{got!r} - {want!r}| = {err:.3e} > {tol:.1e}")

    def z(self, name: str, sample, want: float) -> None:
        """Check that the mean of sample is within Z_BOUND standard errors of want."""
        sample = np.asarray(sample, dtype=float)
        se = float(sample.std(ddof=1)) / math.sqrt(sample.size)
        self.z_of(name, float(sample.mean()), want, se)

    def z_of(self, name: str, got: float, want: float, se: float) -> None:
        z = abs(got - want) / se if se > 0.0 else (0.0 if got == want else math.inf)
        self.check(name, z <= Z_BOUND, f"mean {got!r} vs {want!r}: {z:.2f} SE > {Z_BOUND}")


# ---------------------------------------------------------------------------
# verify-battery
# ---------------------------------------------------------------------------


def verify_round(sc, inp, rnd: Round) -> None:
    """``starcoal verify --suite all --seed 42``, run in process through cli.main.

    The battery is pinned at seed 42 whatever the benchmark seed: the
    acceptance tests pin that seed, and some other seeds abort the
    branching dual (see CHANGES.md).  Each of the battery's checks counts
    as one operation; an abort fails all of them.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sc.cli.main(["verify", "--suite", VERIFY_SUITE, "--seed", str(VERIFY_SEED)])
    except Exception:
        code = None
        traceback.print_exc()
    rnd.program_s += time.perf_counter() - start
    lines = out.getvalue().splitlines()
    results = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    if code is None or not results:
        rnd.attempted += VERIFY_MIN_CHECKS
        rnd.failed += VERIFY_MIN_CHECKS
        return
    rnd.attempted += len(results)
    passed = sum(ln.startswith("PASS") for ln in results)
    rnd.check("verify exit status 0", code == 0, f"exit {code}: {err.getvalue().strip()}")
    rnd.check(f"verify runs at least {VERIFY_MIN_CHECKS} checks", len(results) >= VERIFY_MIN_CHECKS, f"{len(results)} checks")
    rnd.check("verify summary line", lines[-1] == f"{passed} of {len(results)} checks passed", lines[-1])
    for ln in results:
        rnd.check(f"verify: {ln[6:80].strip()}", ln.startswith("PASS"), ln)


# ---------------------------------------------------------------------------
# exact-laws
# ---------------------------------------------------------------------------

THETAS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
TRANSITIONS_PER_THETA = 10
STATIONARY_PER_THETA = 6
SKELETON_DRIFTS = 10
FIXATION_BETAS = (0.5, 1.0, 2.0, 5.0)
FIXATION_XS = 6
PV_POLYS = 8
# Line-count laws: n -> (direct evaluations, spectral evaluations) per round.
LINE_TIMES = {20: (6, 6), 200: (2, 1)}
MARKOV_KERNELS = 8


def exact_inputs(sc, seed: int, r: int) -> dict:
    """Parameter points for round r: a fixed grid, each point jittered."""
    g = np.random.default_rng([seed, r, 1])

    def jit(v: float, spread: float = 0.04) -> float:
        return float(v * (1.0 + spread * (2.0 * g.random() - 1.0)))

    transitions = [
        (sc.TwoTypeParams(jit(th), float(g.uniform(0.1, 0.9))), float(g.random()), float(g.uniform(0.2, 3.0)))
        for th in THETAS
        for _ in range(TRANSITIONS_PER_THETA)
    ]
    stationary = [
        sc.TwoTypeParams(jit(th), float(g.uniform(0.1, 0.9))) for th in THETAS for _ in range(STATIONARY_PER_THETA)
    ]
    # Drifts whose skeleton takes the quadrature branch: strong selection
    # against a weak mutation rate drives c/(1+c) above 0.9.
    drifts = []
    while len(drifts) < SKELETON_DRIFTS:
        theta, p, beta = float(g.uniform(0.2, 0.6)), float(g.uniform(0.2, 0.6)), float(g.uniform(3.0, 5.0))
        if not oracle.skeleton_is_series(theta, p, beta):
            drifts.append((theta, p, beta))
    fixation = [(jit(beta), float(g.uniform(0.05, 0.95))) for beta in FIXATION_BETAS for _ in range(FIXATION_XS)]
    pv = [
        (sc.TwoTypeParams(float(g.uniform(0.5, 5.0)), float(g.uniform(0.1, 0.9))),
         sc.PolyRep(0.0, tuple(float(c) for c in g.uniform(-1.0, 1.0, size=7))))
        for _ in range(PV_POLYS)
    ]
    line_theta = float(g.uniform(0.5, 5.0))
    line_times = {n: [float(t) for t in g.uniform(0.1, 2.0 if n > 50 else 5.0, size=k)] for n, (k, _) in LINE_TIMES.items()}
    markov = []
    for _ in range(MARKOV_KERNELS):
        m = g.random((4, 4)) + 0.05
        markov.append((sc.MutationMatrix(m / m.sum(axis=1, keepdims=True)), float(g.uniform(0.5, 5.0)), float(g.uniform(0.1, 3.0))))
    return {
        "transitions": transitions, "stationary": stationary, "drifts": drifts,
        "fixation": fixation, "pv": pv, "line_theta": line_theta,
        "line_times": line_times, "markov": markov,
    }


def exact_round(sc, inp: dict, rnd: Round) -> None:
    """Deterministic evaluators: quadrature through MixedLaw and quad, exact rationals."""
    twotype, selection, lines = sc.twotype, sc.selection, sc.lines

    for par, x, t in inp["transitions"]:
        law = rnd.op(twotype.transition_law, par, x, t)
        if law is None:
            continue
        tag = f"transition theta={par.theta:.4g} p={par.p:.4g} x={x:.4g} t={t:.4g}"
        mass = rnd.op(law.quadrature_mass)
        if mass is not None:
            rnd.close(f"{tag}: quadrature mass = 1", mass, 1.0, QUAD_TOL)
        mean = rnd.op(law.mean)
        if mean is not None:
            rnd.close(f"{tag}: mean = closed form", mean, oracle.transition_mean(par.theta, par.p, x, t), QUAD_TOL)
            moment = rnd.op(twotype.transition_moment, par, 1, x, t)
            if moment is not None:
                rnd.close(f"{tag}: mean = p + transition_moment(1)", mean, par.p + moment, QUAD_TOL)

    # One transition law per round against the mpmath piece masses.
    par, x, t = inp["transitions"][-1]
    law = rnd.op(twotype.transition_law, par, x, t)
    mass = rnd.op(law.quadrature_mass) if law is not None else None
    if mass is not None:
        up, lo = oracle.mp_transition_piece_masses(par.theta, par.p, x, t)
        atom = math.fsum(m for _, m in law.atoms)
        rnd.close("transition quadrature mass = atom + mpmath pieces", mass, atom + up + lo, QUAD_TOL)
        stored = sorted(pc.mass for pc in law.pieces)
        rnd.close("transition piece masses = mpmath", math.fsum(abs(a - b) for a, b in zip(stored, sorted((up, lo)))), 0.0, EXACT_TOL)

    for par in inp["stationary"]:
        law = rnd.op(twotype.stationary_law, par)
        if law is None:
            continue
        tag = f"stationary theta={par.theta:.4g} p={par.p:.4g}"
        mass = rnd.op(law.quadrature_mass)
        if mass is not None:
            rnd.close(f"{tag}: quadrature mass = 1", mass, 1.0, QUAD_TOL)
        mean = rnd.op(law.mean)
        if mean is not None:
            rnd.close(f"{tag}: mean = p", mean, par.p, QUAD_TOL)

    for i, (theta, p, beta) in enumerate(inp["drifts"]):
        drift = rnd.op(selection.mutation_selection_drift, theta, p, beta)
        if drift is None:
            continue
        tag = f"selection theta={theta:.4g} p={p:.4g} beta={beta:.4g}"
        skel = rnd.op(selection.skeleton_matrix, drift)
        law = rnd.op(selection.stationary_law, drift)
        mass = rnd.op(law.quadrature_mass) if law is not None else None
        mean = rnd.op(law.mean) if law is not None else None
        if mass is not None:
            rnd.close(f"{tag}: stationary mass = 1", mass, 1.0, QUAD_TOL)
        if i == 0 and (skel is not None or mean is not None):
            # The stationary mean is the chance that a replacement is of
            # type 1, pi1 = E nu / (E nu + 1 - E mu), from the skeleton.
            e_mu, e_nu = oracle.mp_skeleton(theta, p, beta)
            if skel is not None:
                rnd.close(f"{tag}: skeleton E mu(T) = mpmath", float(skel[0, 0]), e_mu, QUAD_TOL)
                rnd.close(f"{tag}: skeleton E nu(T) = mpmath", float(skel[1, 0]), e_nu, QUAD_TOL)
            if mean is not None:
                rnd.close(f"{tag}: stationary mean = mpmath pi1", mean, e_nu / (e_nu + 1.0 - e_mu), QUAD_TOL)
        elif skel is not None and mean is not None:
            pi1 = skel[1, 0] / (skel[1, 0] + skel[0, 1])
            rnd.close(f"{tag}: stationary mean = skeleton pi1", mean, float(pi1), QUAD_TOL)

    for j, (beta, x) in enumerate(inp["fixation"]):
        p1 = rnd.op(selection.fixation_prob, beta, x, 1)
        p2 = rnd.op(selection.fixation_prob, beta, 1.0 - x, 2)
        if p1 is not None and p2 is not None:
            rnd.close(f"fixation beta={beta:.4g} x={x:.4g}: P1(x) + P2(1-x) = 1", p1 + p2, 1.0, QUAD_TOL)
        if j == 0 and p1 is not None:
            rnd.close(f"fixation beta={beta:.4g} x={x:.4g}: P1 = mpmath", p1, oracle.mp_fixation(beta, x), QUAD_TOL)

    for par, g in inp["pv"]:
        numeric = rnd.op(sc.eigen.pv_expectation_g_q1_numeric, par, g)
        series = rnd.op(sc.eigen.pv_expectation_g_q1, par, g)
        if numeric is not None and series is not None:
            rnd.close(f"pv pairing theta={par.theta:.4g}: numeric = series", numeric, series, QUAD_TOL)

    theta = inp["line_theta"]
    for n, times in inp["line_times"].items():
        direct = {t: rnd.op(lines.an_distribution, n, theta, t) for t in times}
        for t in times[: LINE_TIMES[n][1]]:
            spec = rnd.op(lines.an_distribution_spectral, n, theta, t)
            if spec is not None and direct[t] is not None:
                gap = max(abs(a - b) for a, b in zip(direct[t].probs, spec.probs))
                rnd.close(f"line law n={n} theta={theta:.4g} t={t:.4g}: direct = spectral", gap, 0.0, EXACT_TOL)
        for t, dist in direct.items():
            if dist is not None:
                rnd.close(f"line law n={n} t={t:.4g}: total mass 1", math.fsum(dist.probs), 1.0, EXACT_TOL)

    for mm, theta, t in inp["markov"]:
        kernel = rnd.op(sc.multitype.markov_line_kernel, mm, theta, t)
        if kernel is not None:
            want = scipy.linalg.expm(0.5 * theta * t * (mm.matrix - np.eye(mm.d)))
            rnd.close(f"markov kernel theta={theta:.4g} t={t:.4g} = expm", float(np.max(np.abs(kernel - want))), 0.0, EXACT_TOL)


# ---------------------------------------------------------------------------
# mc-ensembles
# ---------------------------------------------------------------------------

DRAWS = 1_000_000
PATHS = 3_000
MC_THETA, MC_P, MC_X, MC_T = 1.3, 0.35, 0.8, 0.9
SEL_THETA, SEL_P, SEL_BETA = 1.0, 0.4, 2.0
SEL_HORIZON = 12.0  # e^-12: endpoints are stationary to far below one SE
LINES_N = 5
ASG_N, ASG_BETA, ASG_HORIZON = 3, 0.5, 1.5
DUAL_N = 2
COAL_N = 3
SEL_DUAL = (2, 0.4, 0.8, 0.5)  # n, x, t, beta
PIM_P = (0.2, 0.5, 0.3)


def mc_inputs(sc, seed: int, r: int) -> dict:
    """Fixed parameters; every call gets its own seeded substream."""
    streams = iter(range(1000 * r, 1000 * (r + 1)))
    par = sc.TwoTypeParams(MC_THETA, MC_P)
    return {
        "par": par,
        "drift": sc.selection.mutation_selection_drift(SEL_THETA, SEL_P, SEL_BETA),
        "law": sc.twotype.transition_law(par, MC_X, MC_T),
        "multi": sc.MultiParams(MC_THETA, PIM_P),
        "rng": lambda: sc.RngStream(seed, next(streams)),
    }


def _velocity(xi):
    return 0.5 * SEL_THETA * (SEL_P - xi) + 0.5 * SEL_BETA * xi * (1.0 - xi)


def _stationary_generator_checks(rnd: Round, tag: str, xi) -> None:
    """E[L f] = 0 under the stationary law, for f = x and f = x^2."""
    xi = np.asarray(xi, dtype=float)
    v = _velocity(xi)
    rnd.z(f"{tag}: E[v(xi)] = 0", v, 0.0)
    rnd.z(f"{tag}: E[2 xi v(xi) + xi - xi^2] = 0", 2.0 * xi * v + xi - xi * xi, 0.0)


def mc_round(sc, inp: dict, rnd: Round) -> None:
    """Vectorized ensembles of DRAWS replicates, then PATHS scalar paths per simulator."""
    twotype, selection, lines = sc.twotype, sc.selection, sc.lines
    par, rng = inp["par"], inp["rng"]
    m1 = oracle.transition_mean(MC_THETA, MC_P, MC_X, MC_T)
    m2 = oracle.transition_second_moment(MC_THETA, MC_P, MC_X, MC_T)

    xi = rnd.op(twotype.sample_transition, par, MC_X, MC_T, rng(), size=DRAWS, draws=DRAWS)
    if xi is not None:
        rnd.z("sample_transition mean", xi, m1)
        rnd.z("sample_transition second moment", xi * xi, m2)

    xi = rnd.op(twotype.stationary_sample, par, rng(), size=DRAWS, draws=DRAWS)
    if xi is not None:
        rnd.z("two-type stationary_sample mean", xi, MC_P)
        rnd.z("two-type stationary_sample second moment", xi * xi, oracle.stationary_raw_moment(MC_THETA, MC_P, 2))

    xi = rnd.op(selection.stationary_sample, inp["drift"], rng(), size=DRAWS, draws=DRAWS)
    if xi is not None:
        _stationary_generator_checks(rnd, "selection stationary_sample", xi)

    xi = rnd.op(twotype.path_endpoint_ensemble, par, MC_X, MC_T, DRAWS, rng(), draws=DRAWS)
    if xi is not None:
        rnd.z("path_endpoint_ensemble mean", xi, m1)
        rnd.z("path_endpoint_ensemble second moment", xi * xi, m2)

    times = rnd.op(lines.absorption_time_ensemble, LINES_N, MC_THETA, DRAWS, rng(), draws=DRAWS)
    if times is not None:
        rnd.z("absorption_time_ensemble mean", times, oracle.absorption_mean(LINES_N, MC_THETA))

    out = rnd.op(lines.duality_check, par, DUAL_N, MC_X, MC_T, DRAWS, rng(), draws=DRAWS)
    if out is not None:
        lhs, rhs, se = out
        rnd.close("duality_check analytic side = closed form", lhs, m2, EXACT_TOL)
        rnd.z_of("duality_check line estimator", rhs, m2, se)

    out = rnd.op(lines.stationary_moment_via_coalescent, par, COAL_N, DRAWS, rng(), draws=DRAWS)
    if out is not None:
        est, se = out
        rnd.z_of("stationary_moment_via_coalescent", est, oracle.stationary_raw_moment(MC_THETA, MC_P, COAL_N), se)

    n, x, t, beta = SEL_DUAL
    out = rnd.op(selection.selection_duality_check, n, x, t, beta, DRAWS, rng(), draws=DRAWS)
    if out is not None:
        lhs, rhs, (se_l, se_r) = out
        rnd.z_of("selection_duality_check forward = branching", lhs - rhs, 0.0, math.hypot(se_l, se_r))

    times = rnd.op(selection.ua_time_ensemble, ASG_N, ASG_BETA, DRAWS, rng(), draws=DRAWS)
    if times is not None:
        rnd.z("ua_time_ensemble mean = 1", times, 1.0)
        rnd.z("ua_time_ensemble second moment = 2", times * times, 2.0)

    states = rnd.op(sc.multitype.pim_stationary_sample, inp["multi"], rng(), size=DRAWS, draws=DRAWS)
    if states is not None:
        rnd.close("pim_stationary_sample rows sum to 1", float(np.max(np.abs(states.sum(axis=1) - 1.0))), 0.0, EXACT_TOL)
        for i, p in enumerate(PIM_P):
            rnd.z(f"pim_stationary_sample mean of type {i}", states[:, i], p)
        rnd.z("pim_stationary_sample second moment of type 0", states[:, 0] ** 2, oracle.stationary_raw_moment(MC_THETA, PIM_P[0], 2))
    del xi, times, states

    _scalar_paths(sc, inp, rnd, m1, m2)


def _scalar_paths(sc, inp: dict, rnd: Round, m1: float, m2: float) -> None:
    twotype, selection, lines = sc.twotype, sc.selection, sc.lines
    par = inp["par"]

    stream = inp["rng"]()
    finals = []
    for _ in range(PATHS):
        rec = rnd.op(twotype.simulate_path, par, MC_X, MC_T, stream, path=True)
        if rec is not None:
            finals.append(rec.final_frequency)
            if any(f not in (0.0, 1.0) for _, _, f in rec.events):
                rnd.check("twotype.simulate_path jumps land on 0 or 1", False, repr(rec.events))
    if finals:
        rnd.z("twotype.simulate_path endpoint mean", finals, m1)
        rnd.z("twotype.simulate_path endpoint second moment", np.square(finals), m2)

    stream = inp["rng"]()
    finals = [
        rec.final_frequency
        for rec in (rnd.op(selection.simulate_path, inp["drift"], MC_X, SEL_HORIZON, stream, path=True) for _ in range(PATHS))
        if rec is not None
    ]
    if finals:
        _stationary_generator_checks(rnd, "selection.simulate_path endpoint", finals)

    stream = inp["rng"]()
    absorbed = []
    for _ in range(PATHS):
        rec = rnd.op(lines.simulate_lines, LINES_N, MC_THETA, stream, path=True)
        if rec is not None:
            absorbed.append(rec.absorption_time)
            if rec.final_lines != 0:
                rnd.check("simulate_lines runs to absorption", False, repr(rec))
    if absorbed:
        rnd.z("simulate_lines absorption time mean", absorbed, oracle.absorption_mean(LINES_N, MC_THETA))

    stream = inp["rng"]()
    counts, hit = [], []
    for _ in range(PATHS):
        rec = rnd.op(selection.asg_simulate, ASG_N, ASG_BETA, stream, horizon=ASG_HORIZON, path=True)
        if rec is not None:
            counts.append(rec.final_state)
            hit.append(0.0 if rec.t_ua is None else 1.0)
    if counts:
        rnd.z("asg_simulate line count at horizon", counts, oracle.branching_mean(ASG_N, ASG_BETA, ASG_HORIZON))
        rnd.z("asg_simulate P(collapse before horizon)", hit, -math.expm1(-ASG_HORIZON))

    stream = inp["rng"]()
    draws = [d for d in (rnd.op(inp["law"].sample, stream, path=True) for _ in range(PATHS)) if d is not None]
    if draws:
        rnd.z("MixedLaw.sample mean", draws, m1)
        rnd.z("MixedLaw.sample second moment", np.square(draws), m2)


PROBE_PATHS = 10_000
PROBE_EVERY = 1.0


def rate_probe(sc, seed: int, r: int, rnd: Round) -> None:
    """One slice of a fixed sampler load: a batch of sample_transition and PROBE_PATHS forward paths.

    Every workload reports draws_per_s and paths_per_s.  exact-laws draws
    nothing, and verify-battery's draws happen inside one CLI call where
    only tracing could time them, so on those two the rates come from
    these slices, run outside the rounds' timing: before the first round,
    after every round, and between operations once PROBE_EVERY seconds
    have passed since the last slice.
    """
    par = sc.TwoTypeParams(MC_THETA, MC_P)
    xi = rnd.op(sc.twotype.sample_transition, par, MC_X, MC_T, sc.RngStream(seed, 500_000 + r), size=DRAWS, draws=DRAWS)
    if xi is not None:
        rnd.z("probe sample_transition mean", xi, oracle.transition_mean(MC_THETA, MC_P, MC_X, MC_T))
    stream = sc.RngStream(seed, 600_000 + r)
    finals = [
        rec.final_frequency
        for rec in (rnd.op(sc.twotype.simulate_path, par, MC_X, MC_T, stream, path=True) for _ in range(PROBE_PATHS))
        if rec is not None
    ]
    if finals:
        rnd.z("probe simulate_path endpoint mean", finals, oracle.transition_mean(MC_THETA, MC_P, MC_X, MC_T))


class Workload(NamedTuple):
    """How to build round r's inputs, run one round, and report the per-layer run."""

    build: Callable  # (starcoal, seed, r) -> inputs
    run: Callable  # (starcoal, inputs, Round) -> None
    trace_rounds: int  # traced rounds in a --trace 1 run, each paired with an untraced one
    probe: bool  # draws_per_s and paths_per_s come from rate_probe slices


WORKLOADS = {
    "verify-battery": Workload(lambda sc, seed, r: None, verify_round, trace_rounds=1, probe=True),
    "exact-laws": Workload(exact_inputs, exact_round, trace_rounds=1, probe=True),
    "mc-ensembles": Workload(mc_inputs, mc_round, trace_rounds=3, probe=False),
}
