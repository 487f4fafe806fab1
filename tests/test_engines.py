"""Blocked batch engines: the same draws as one-shot code, in bounded memory.

Each engine draws its replicates in blocks of core._BLOCK.  The reference
copies below are the one-shot engines they replaced, each materialising
every stage at full size.  An engine must return bitwise what its reference
returns and leave its stream where the reference leaves it; the count
reductions, which replace a gathered array of per-path values, agree with
mean_se over those values to rounding.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import starcoal.core as core
import starcoal.lines as lines
import starcoal.multitype as multitype
import starcoal.selection as selection
import starcoal.twotype as twotype
from starcoal.core import _BLOCK, RngStream, TwoTypeParams, _sweep, mean_se
from starcoal.multitype import MultiParams

B = _BLOCK
SIZES = (1, B - 1, B, B + 1, 3 * B + 7)
PAR = TwoTypeParams(1.3, 0.35)
DRIFTS = (
    selection.mutation_selection_drift(1.0, 0.4, 2.0),
    selection.mutation_selection_drift(3.0, 0.2, 5.0),
    selection.neutral_drift(0.7, 0.3),
)


# ---------------------------------------------------------------------------
# Reference one-shot engines
# ---------------------------------------------------------------------------


def ref_sample_transition(params, x, t, rng, size=None):
    shape = () if size is None else size
    u, u_type = (rng.gen.random(shape) for _ in range(2))
    rate, p = 0.5 * params.theta, params.p
    atom = p + (x - p) * math.exp(-rate * t)
    tau = -np.log(1.0 - u)
    decay = np.exp(-rate * tau)
    q1_back = p + (x - p) * np.exp(-rate * np.maximum(t - tau, 0.0))
    upper = p + (1.0 - p) * decay
    lower = p - p * decay
    out = np.where(tau >= t, atom, np.where(u_type < q1_back, upper, lower))
    return float(out) if size is None else out


def ref_pim_stationary_sample(mp, rng, size):
    p = np.asarray(mp.p_vec)
    eta = rng.gen.random(size) ** (0.5 * mp.theta)
    i = rng.gen.choice(mp.d, p=p, size=size)
    out = (1.0 - eta)[..., None] * p
    out[(*np.indices(eta.shape), i)] += eta
    return out


def ref_selection_stationary_sample(drift, rng, size):
    pi1, _ = selection.replacement_stationary(drift)
    chi0 = (rng.gen.random(size) < pi1).astype(float)
    tau = rng.gen.exponential(size=size)
    return selection._flow_step(drift)(chi0, tau)


def ref_jump_endpoints(step, x, t, size, rng):
    clock = np.zeros(size)
    freq = np.full(size, float(x))
    active = np.arange(size)
    while active.size:
        wait = rng.gen.exponential(size=active.size)
        landed = clock[active] + wait
        hit = landed <= t
        idx = active[hit]
        clock[idx] = landed[hit]
        before = step(freq[idx], wait[hit])
        freq[idx] = (rng.gen.random(idx.size) < before).astype(float)
        active = idx
    return step(freq, t - clock)


def ref_line_ensemble(n, theta, t, size, rng):
    state = np.full(size, n, dtype=np.int64)
    clock = np.zeros(size)
    coal_before = np.zeros(size, dtype=np.int64)
    active = np.arange(size)
    while active.size:
        count = state[active]
        rate = 0.5 * theta * count + (count >= 2)
        landed = rng.gen.exponential(size=active.size)
        landed /= rate
        landed += clock[active]
        alive = landed <= t
        active, count, rate, landed = active[alive], count[alive], rate[alive], landed[alive]
        clock[active] = landed
        coal = (count >= 2) & (rng.gen.random(active.size) * rate < 1.0)
        coal_before[active[coal]] = count[coal]
        state[active[coal]] = 1
        state[active[~coal]] -= 1
        active = active[state[active] >= 1]
    return state, coal_before, clock


def ref_duality_values(params, n, x, t, n_mc, rng):
    p = params.p
    state, coal_before, _ = ref_line_ensemble(n, params.theta, t, n_mc, rng)
    s = np.arange(n + 1)
    table = np.empty((n + 1, n + 1))
    table[0] = x ** s.astype(float) * p ** (n - s).astype(float)
    exponent = (n - s[1:, None]).astype(float)
    table[1:] = np.where(s == 1, x * p**exponent, p ** (exponent + 1.0))
    return table[coal_before, state]


def ref_coalescent_values(params, n, n_mc, rng):
    state = np.full(n_mc, n, dtype=np.int64)
    a = np.ones(n_mc, dtype=np.int64)
    active = np.arange(n_mc)
    while active.size:
        s = state[active].astype(float)
        coal = rng.gen.random(active.size) * (0.5 * params.theta * s + 1.0) < 1.0
        a[active[coal]] = state[active[coal]]
        state[active[coal]] = 1
        state[active[~coal]] -= 1
        active = active[(state[active] >= 2) & (a[active] == 1)]
    return params.p ** (n + 1 - a).astype(float)


def ref_ua_time_ensemble(n, beta, size, rng):
    t_ua = np.zeros(size)
    if n == 1:
        return t_ua
    active = np.arange(size)
    for s in range(n, selection._UA_RESIDUAL_STATE):
        if not active.size:
            return t_ua
        rate = 0.5 * beta * s
        t_ua[active] += rng.gen.exponential(size=active.size) / (rate + 1.0)
        active = active[rng.gen.random(active.size) * (rate + 1.0) < rate]
    t_ua[active] += rng.gen.exponential(size=active.size)
    return t_ua


def ref_asg_count_ensemble(n, beta, t, size, rng):
    def yule_total(pe, start):
        out = np.zeros(pe.size, dtype=np.int64)
        for _ in range(start if pe.size else 0):
            out += rng.gen.geometric(pe)
        return out

    remaining = np.full(size, float(t))
    out = np.zeros(size, dtype=np.int64)
    done = np.zeros(size, dtype=bool)
    if n >= 2:
        collapse = rng.gen.exponential(size=size)
        finish = collapse >= remaining
        out[finish] = yule_total(np.exp(-0.5 * beta * remaining[finish]), n)
        done |= finish
        remaining[~finish] -= collapse[~finish]
    while not done.all():
        idx = np.flatnonzero(~done)
        dwell = rng.gen.exponential(scale=2.0 / beta, size=idx.size)
        ends = dwell >= remaining[idx]
        out[idx[ends]] = 1
        done[idx[ends]] = True
        grow = idx[~ends]
        remaining[grow] -= dwell[~ends]
        collapse = rng.gen.exponential(size=grow.size)
        finish = collapse >= remaining[grow]
        fin_idx = grow[finish]
        out[fin_idx] = yule_total(np.exp(-0.5 * beta * remaining[fin_idx]), 2)
        done[fin_idx] = True
        remaining[grow[~finish]] -= collapse[~finish]
    return out


# ---------------------------------------------------------------------------
# Bitwise equivalence
# ---------------------------------------------------------------------------


def _same(got, want):
    """Equal arrays, floats compared bit for bit through their int64 views."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.dtype.kind == "f":
        assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))
    else:
        assert np.array_equal(got.astype(np.int64), want.astype(np.int64))


def _check(engine, reference, seed=5):
    """engine and reference called on equal streams give bitwise equal
    results and leave the streams at the same next draw."""
    mine, theirs = RngStream(seed, 9), RngStream(seed, 9)
    got, want = engine(mine), reference(theirs)
    for g, w in zip(got, want) if isinstance(want, tuple) else ((got, want),):
        _same(g, w)
    assert mine.gen.random() == theirs.gen.random()


def test_standard_exponential_equals_exponential():
    # The staged engines draw Exp(1) waits with standard_exponential; the
    # one-shot engines drew them with exponential().
    a, b = RngStream(3, 1), RngStream(3, 1)
    _same(a.gen.standard_exponential(3 * B + 7), b.gen.exponential(size=3 * B + 7))
    _same([a.gen.standard_exponential() for _ in range(100)], [b.gen.exponential() for _ in range(100)])
    assert a.gen.random() == b.gen.random()


@pytest.mark.parametrize("size", (None, *SIZES, (2, B + 3)))
def test_sample_transition_blocks(size):
    for x, t in ((0.8, 0.9), (0.0, 0.05), (1.0, 40.0)):
        _check(
            lambda r: twotype.sample_transition(PAR, x, t, r, size=size),
            lambda r: ref_sample_transition(PAR, x, t, r, size=size),
        )


# Edge cases of the exact selects: t below every back-distance but 0 (all
# atoms but u = 0) or above the largest, -log 2^-53 = 36.7 (none), atoms at
# 0, p and 1, and decays that are exactly 1 (theta = 1e-300, lower = +0.0)
# or 0 (theta = 1e300).  A -0.0, NaN or flipped branch shows in the bitwise
# comparison.
@pytest.mark.parametrize("theta", (1e-300, 1.3, 1e300))
@pytest.mark.parametrize("x", (0.0, PAR.p, 1.0))
@pytest.mark.parametrize("t", (1e-17, 0.9, 800.0))
def test_sample_transition_exact_select_edges(theta, x, t):
    par = TwoTypeParams(theta, PAR.p)
    _check(
        lambda r: twotype.sample_transition(par, x, t, r, size=B + 1),
        lambda r: ref_sample_transition(par, x, t, r, size=B + 1),
    )


@pytest.mark.parametrize("size", (1, B + 1, (2, B + 3)))
def test_sample_transition_stream_layout(size):
    # Two runs of prod(size) outputs: the call leaves rng where ahead(2 n) is.
    rng = RngStream(5, 9)
    ahead = rng.ahead(2 * int(np.prod(size)))
    twotype.sample_transition(PAR, 0.8, 0.9, rng, size=size)
    assert rng.gen.random(4).tolist() == ahead.random(4).tolist()


def test_sample_transition_finite_operands_and_no_warnings(monkeypatch):
    # Atom draws put t - tau < 0 in the type threshold, and theta tau/2 passes
    # the float range at the largest theta; the kernel clamps both, so no
    # exp or product overflows and every _select operand is finite.  At
    # t = inf, theta t/2 is 0 * inf where theta = 5e-324 halves to 0.
    def checked(m, v, w):
        assert np.all((m == 0.0) | (m == 1.0)) and np.isfinite(v).all() and math.isfinite(w)
        return core._select(m, v, w)

    monkeypatch.setattr(twotype, "_select", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (5e-324, 1e-300, 1e4, 1e300, 1.7976931348623157e308):
            for x in (0.0, PAR.p, 1.0):
                for t in (1e-17, 0.9, 36.0, 40.0, 800.0, math.inf):
                    draws = twotype.sample_transition(TwoTypeParams(theta, PAR.p), x, t, RngStream(2, 1), size=B + 1)
                    assert ((draws >= 0.0) & (draws <= 1.0)).all()


@pytest.mark.parametrize("theta", (5e-324, 1e-300, 1.3, 1e300))
def test_sample_transition_at_infinity_drops_x(theta):
    # At t = inf the atom has mass 0 and the type threshold is p, whatever x.
    # theta = 5e-324 halves to a rate of 0, no mutation: each draw is its
    # replacement's type, 1 exactly when u_type (the second run) is below p.
    par = TwoTypeParams(theta, PAR.p)
    want = twotype.sample_transition(par, par.p, math.inf, RngStream(6, 3), size=B + 1)
    for x in (0.0, 1.0):
        _same(twotype.sample_transition(par, x, math.inf, RngStream(6, 3), size=B + 1), want)
    if theta == 5e-324:
        _same(want, (RngStream(6, 3).ahead(B + 1).random(B + 1) < PAR.p).astype(float))


@pytest.mark.parametrize("p", (1e-6, 1.0 - 1e-6))
@pytest.mark.parametrize("theta", (1e-300, 1.3, 1e300))
def test_stationary_sample_exact_select_edges(p, theta):
    par = TwoTypeParams(theta, p)
    _check(
        lambda r: twotype.stationary_sample(par, r, size=B + 1),
        lambda r: ref_sample_transition(par, p, math.inf, r, size=B + 1),
    )


@pytest.mark.parametrize("size", (1, B, B + 1, 3 * B + 7))
@pytest.mark.parametrize("share", (0.0, 0.5, 1.0))
def test_sweep_compacts_as_a_boolean_mask(size, share):
    # One-shot boolean-mask compaction against _sweep's blocked index
    # compaction, in blocks that keep all, none, a share, or hold one replicate.
    active = np.random.default_rng(size).permutation(size).astype(np.int32)
    keep = np.random.default_rng(1).random(size) < share
    got = _sweep(active.copy(), lambda b: keep[b])
    _same(got, active[keep[active]])
    _same(_sweep(active.copy(), lambda b: None), active)


@pytest.mark.parametrize("size", (*SIZES, (2, B + 3)))
def test_fixed_count_samplers(size):
    for par in (PAR, TwoTypeParams(2.0, 0.5), TwoTypeParams(7.0, 0.9)):
        _check(
            lambda r: twotype.stationary_sample(par, r, size=size),
            lambda r: ref_sample_transition(par, par.p, math.inf, r, size=size),
        )
    mp = MultiParams(1.3, (0.2, 0.5, 0.3))
    _check(
        lambda r: multitype.pim_stationary_sample(mp, r, size=size),
        lambda r: ref_pim_stationary_sample(mp, r, size),
    )
    for drift in DRIFTS:
        _check(
            lambda r: selection.stationary_sample(drift, r, size=size),
            lambda r: ref_selection_stationary_sample(drift, r, size),
        )


def test_custom_drift_stationary_sample_blocks():
    drift = selection.custom_drift(lambda y: 0.5 * (0.4 - y) + y * (1.0 - y))
    named = selection.mutation_selection_drift(1.0, 0.4, 2.0)
    got = selection.stationary_sample(drift, RngStream(4, 2), size=(2, 3))
    want = selection.stationary_sample(named, RngStream(4, 2), size=(2, 3))
    assert got.shape == (2, 3) and np.allclose(got, want, rtol=0.0, atol=1e-8)


def test_scalar_draw_is_the_first_batch_draw():
    # size=None returns bitwise the one draw of size=1 and leaves the stream
    # where size=1 does, for every fixed-count sampler.
    custom = selection.custom_drift(lambda y: 0.5 * (0.4 - y) + y * (1.0 - y))
    mp = MultiParams(1.3, (0.2, 0.5, 0.3))
    samplers = [
        *(lambda r, s, x=x, t=t: twotype.sample_transition(PAR, x, t, r, size=s) for x, t in ((0.8, 0.9), (0.0, 0.05))),
        *(lambda r, s, par=par: twotype.stationary_sample(par, r, size=s) for par in (PAR, TwoTypeParams(7.0, 0.9))),
        *(lambda r, s, drift=drift: selection.stationary_sample(drift, r, size=s) for drift in (*DRIFTS, custom)),
        lambda r, s: multitype.pim_stationary_sample(mp, r, size=s),
    ]
    for sampler in samplers:
        for seed in range(200):
            scalar, batch = RngStream(seed, 9), RngStream(seed, 9)
            _same(sampler(scalar, None), sampler(batch, 1)[0])
            assert scalar.gen.random() == batch.gen.random()


@pytest.mark.parametrize("size", SIZES)
def test_jump_endpoints_blocks(size):
    p, decay = PAR.p, -0.5 * PAR.theta
    neutral = lambda f, w: p + (f - p) * np.exp(decay * w)  # noqa: E731
    logistic = selection._flow_step(selection.logistic_drift(1.5))
    for step, x, t in ((neutral, 0.8, 0.9), (neutral, 0.0, 3.0), (logistic, 0.6, 0.8)):
        _check(
            lambda r: twotype._jump_endpoints(step, x, t, size, r),
            lambda r: ref_jump_endpoints(step, x, t, size, r),
        )


@pytest.mark.parametrize("n", (1, 2, 5, 300))
@pytest.mark.parametrize("t", (0.3, math.inf))
@pytest.mark.parametrize("size", SIZES)
def test_line_ensemble_blocks(n, t, size):
    # n = 300 counts in uint16.  At theta = 0.05 a collapse wins one event
    # in 8.5 from 300 lines, so most chains finish in a few dozen stages.
    theta = 1.0 if n < 300 else 0.05
    _check(lambda r: lines._line_ensemble(n, theta, t, size, r), lambda r: ref_line_ensemble(n, theta, t, size, r))


@pytest.mark.parametrize("size", SIZES)
def test_ua_and_asg_count_blocks(size):
    for n, beta in ((1, 2.0), (2, 2.0), (5, 0.5)):
        _check(lambda r: selection.ua_time_ensemble(n, beta, size, r), lambda r: ref_ua_time_ensemble(n, beta, size, r))
    for n, beta, t in ((1, 2.0, 0.3), (2, 0.5, 0.8), (5, 2.0, 1.5)):
        _check(
            lambda r: selection.asg_count_ensemble(n, beta, t, size, r),
            lambda r: ref_asg_count_ensemble(n, beta, t, size, r),
        )


def _close(got, want):
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("n", (1, 2, 5, 300))
@pytest.mark.parametrize("t", (0.3, math.inf))
def test_count_reductions_match_mean_se(n, t):
    # The two-type duality and the embedded-chain moment against mean_se
    # over the values the one-shot code gathered; the draws themselves are
    # the same, so the streams end level.
    size = B + 1
    x = 0.6
    par = TwoTypeParams(0.05 if n == 300 else 1.0, 0.3)
    if math.isfinite(t):
        mine, theirs = RngStream(8, n), RngStream(8, n)
        _, rhs, se = lines.duality_check(par, n, x, t, size, mine)
        want = mean_se(ref_duality_values(par, n, x, t, size, theirs))
        _close(rhs, want[0])
        _close(se, want[1])
        assert mine.gen.random() == theirs.gen.random()
    mine, theirs = RngStream(9, n), RngStream(9, n)
    got = lines.stationary_moment_via_coalescent(par, n, size, mine)
    values = ref_coalescent_values(par, n, size, theirs)
    if n == 1:
        # Every path scores p: the exact sums give p itself, and the standard
        # error is 0 either way.
        assert got == (par.p, 0.0) and mean_se(values)[1] == 0.0
        _close(got[0], mean_se(values)[0])
    else:
        for g, w in zip(got, mean_se(values)):
            _close(g, w)
    assert mine.gen.random() == theirs.gen.random()


@pytest.mark.parametrize("n, x, t, beta", ((1, 0.4, 0.8, 0.5), (2, 0.4, 0.8, 0.5), (5, 0.7, 1.5, 2.0)))
def test_selection_duality_counts_match_mean_se(n, x, t, beta):
    size = B + 1
    mine, theirs = RngStream(10, n), RngStream(10, n)
    lhs, rhs, (lhs_se, rhs_se) = selection.selection_duality_check(n, x, t, beta, size, mine)
    drift = selection.logistic_drift(beta)
    ends = ref_jump_endpoints(selection._flow_step(drift), 1.0 - x, t, size, theirs)
    assert (lhs, lhs_se) == mean_se((1.0 - ends) ** n)
    counts = ref_asg_count_ensemble(n, beta, t, size, theirs)
    want = mean_se(np.power(float(x), np.arange(counts.max() + 1, dtype=float))[counts])
    _close(rhs, want[0])
    _close(rhs_se, want[1])
    assert mine.gen.random() == theirs.gen.random()


# ---------------------------------------------------------------------------
# Memory budget
# ---------------------------------------------------------------------------

MIB = 1 << 20
N = 1_000_000
DRIFT = selection.mutation_selection_drift(1.0, 0.4, 2.0)
MULTI = MultiParams(1.3, (0.2, 0.5, 0.3))
# Each engine's tracemalloc peak at 1e6 replicates may be at most half of
# what its one-shot form took (the figure after each lambda, MiB), and
# sample_transition, the two-type stationary_sample and duality_check
# carry tighter bounds.  The returned arrays are 7.6 MiB (22.9 for the
# three-type states).
BUDGETS = (
    ("sample_transition", lambda r: twotype.sample_transition(PAR, 0.8, 0.9, r, size=N), 12.0),
    ("absorption_time_ensemble", lambda r: lines.absorption_time_ensemble(5, 1.3, N, r), 69.0 / 2),
    ("path_endpoint_ensemble", lambda r: twotype.path_endpoint_ensemble(PAR, 0.8, 0.9, N, r), 66.2 / 2),
    ("selection_duality_check", lambda r: selection.selection_duality_check(2, 0.4, 0.8, 0.5, N, r), 64.3 / 2),
    ("duality_check", lambda r: lines.duality_check(PAR, 2, 0.8, 0.9, N, r), 20.0),
    ("pim_stationary_sample", lambda r: multitype.pim_stationary_sample(MULTI, r, size=N), 53.4 / 2),
    ("stationary_moment_via_coalescent", lambda r: lines.stationary_moment_via_coalescent(PAR, 3, N, r), 45.8 / 2),
    ("selection.stationary_sample", lambda r: selection.stationary_sample(DRIFT, r, size=N), 38.1 / 2),
    ("ua_time_ensemble", lambda r: selection.ua_time_ensemble(3, 0.5, N, r), 30.5 / 2),
    ("stationary_sample", lambda r: twotype.stationary_sample(PAR, r, size=N), 12.0),
)


def test_memory_budget_at_1e6_replicates():
    peaks = {}
    for name, run, _ in BUDGETS:
        tracemalloc.start()
        try:
            run(RngStream(1, 2))
            peaks[name] = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
    over = {name: (round(peaks[name], 1), bound) for name, _, bound in BUDGETS if peaks[name] > bound}
    assert not over, over
