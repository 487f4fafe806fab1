"""Multi-type laws: simplex embeddings, Markov mutation, sampling formulas.

Each simplex region evaluates the two-type upper branch at (p_i, x_i), so
the two-type module is the reference only through the type mirror
xi -> 1 - xi, whose lower piece is written in its own coordinate; planted
faults show which battery checks still guard that shared branch formula.
Markov kernels are checked against scipy's matrix
exponential, and the sampling distributions against exact rational
arithmetic plus a direct binomial-mixture simulation.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from starcoal import multitype, twotype, verification
from starcoal.core import InvalidParameterError, RngStream, TwoTypeParams
from starcoal.multitype import (
    MultiParams,
    MutationMatrix,
    infinite_sampling_prob,
    load_mutation_matrix,
    markov_line_kernel,
    markov_stationary_gamma,
    markov_stationary_sample,
    pim_line_kernel,
    pim_stationary_sample,
    pim_transition_law,
)
from starcoal.twotype import line_kernel, marginal_q, transition_density_eval, transition_law

MP3 = MultiParams(theta=1.4, p_vec=(0.2, 0.5, 0.3))


def test_multi_params_validation():
    assert MP3.d == 3
    with pytest.raises(InvalidParameterError):
        MultiParams(theta=0.0, p_vec=(0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        MultiParams(theta=1.0, p_vec=(1.0,))
    with pytest.raises(InvalidParameterError):
        MultiParams(theta=1.0, p_vec=(0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        MultiParams(theta=1.0, p_vec=(0.4, 0.4))


def test_mutation_matrix_validation():
    swap = MutationMatrix(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert swap.d == 2
    assert swap.is_irreducible()
    assert not MutationMatrix(matrix=np.eye(3)).is_irreducible()
    assert not MutationMatrix(
        matrix=np.array([[1.0, 0.0], [0.5, 0.5]])
    ).is_irreducible()
    with pytest.raises(InvalidParameterError):
        MutationMatrix(matrix=np.ones((2, 3)))
    with pytest.raises(InvalidParameterError):
        MutationMatrix(matrix=np.array([[0.5, 0.5], [1.2, -0.2]]))
    with pytest.raises(InvalidParameterError):
        MutationMatrix(matrix=np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_load_mutation_matrix(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0.7 0.3\n0.2 0.8\n")
    mm = load_mutation_matrix(path)
    assert mm.matrix == pytest.approx(np.array([[0.7, 0.3], [0.2, 0.8]]))
    bad = tmp_path / "bad.txt"
    bad.write_text("0.7 0.4\n0.2 0.8\n")
    with pytest.raises(InvalidParameterError):
        load_mutation_matrix(bad)
    # A missing file and a non-numeric entry are input errors naming the path.
    missing = tmp_path / "missing.txt"
    with pytest.raises(InvalidParameterError, match="missing.txt"):
        load_mutation_matrix(missing)
    text = tmp_path / "text.txt"
    text.write_text("0.7 abc\n0.2 0.8\n")
    with pytest.raises(InvalidParameterError, match="text.txt"):
        load_mutation_matrix(text)


def test_pim_line_kernel_embeds_two_type():
    theta, p = 1.9, 0.35
    mp = MultiParams(theta=theta, p_vec=(p, 1.0 - p))
    for t in (0.0, 0.4, 2.5):
        got = pim_line_kernel(mp, t)
        assert got == pytest.approx(line_kernel(TwoTypeParams(theta=theta, p=p), t), abs=1e-15)
    k3 = pim_line_kernel(MP3, 0.8)
    assert k3.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-15)


def _assert_region_mirrors(region, theta, p_other, x_other, t, points):
    """region against the lower piece of the two-type law of the frequency
    1 - xi, at (p_other, x_other): edge, mass and density at 1 - v."""
    other = TwoTypeParams(theta=theta, p=p_other)
    lower = next(pc for pc in transition_law(other, x_other, t).pieces if pc.lower == 0.0)
    assert 1.0 - region.lower == pytest.approx(lower.upper, rel=1e-15)
    assert region.mass == pytest.approx(lower.mass, rel=1e-13)
    for v in points:
        assert region.density(v) == pytest.approx(transition_density_eval(other, x_other, t, 1.0 - v), rel=1e-13)


def test_pim_transition_law_embeds_two_type():
    # Region i is the upper branch at (p_i, x_i); the type mirror xi -> 1 - xi
    # maps it onto the lower piece of the other type's law, which the two-type
    # module writes in 1 - xi / p rather than in (xi - p) / (1 - p).
    theta, p, x, t = 1.0, 0.3, 0.7, 1.0
    par = TwoTypeParams(theta=theta, p=p)
    mp = MultiParams(theta=theta, p_vec=(p, 1.0 - p))
    law = pim_transition_law(mp, (x, 1.0 - x), t)
    two = transition_law(par, x, t)
    assert law.atom_mass == two.atoms[0][1]
    assert law.atom_point[0] == pytest.approx(marginal_q(par, x, t)[0], rel=1e-15)
    assert math.fsum(law.atom_point) == pytest.approx(1.0, abs=1e-15)
    r0, r1 = law.regions
    _assert_region_mirrors(r0, theta, 1.0 - p, 1.0 - x, t, (0.84, 0.93, 0.99))
    _assert_region_mirrors(r1, theta, p, x, t, (0.9, 0.96))
    assert law.total_mass() == pytest.approx(1.0, abs=1e-14)


def test_pim_regions_mirror_two_type_for_three_types():
    # With d = 3, type i against the rest is the two-type process at
    # (p_i, x_i), so the rest's frequency follows the law at (1 - p_i, 1 - x_i).
    x_vec, t = (0.5, 0.25, 0.25), 0.9
    for r, p_i, x_i in zip(pim_transition_law(MP3, x_vec, t).regions, MP3.p_vec, x_vec):
        points = [r.lower + (1.0 - r.lower) * f for f in (0.1, 0.5, 0.9)]
        _assert_region_mirrors(r, MP3.theta, 1.0 - p_i, 1.0 - x_i, t, points)
        # 0 on the gap, which ends at lower, and above 1.
        assert r.density(r.lower) == 0.0
        assert r.density(math.nextafter(1.0, 2.0)) == 0.0


def test_region_density_is_zero_below_its_region():
    # At v = 0.05 both regions sit below their lower edges (0.665 and 0.857),
    # where the two-type density at (p_i, x_i) is its lower branch: 1.507 and
    # 1.346 there.  A region holds only the upper branch.
    law = pim_transition_law(MultiParams(1.3, (0.3, 0.7)), (0.9, 0.1), 1.0)
    for r, p_i, x_i in zip(law.regions, (0.3, 0.7), (0.9, 0.1)):
        assert r.lower > 0.05
        assert transition_density_eval(TwoTypeParams(1.3, p_i), x_i, 1.0, 0.05) > 1.0
        assert r.density(0.05) == 0.0


def test_region_density_near_one_against_mpmath():
    # At theta = 1e-8 the power w^(2/theta - 1) amplifies the rounding of
    # w = (xi - p) / (1 - p) near 1 by 2e8; the region density takes it
    # from the exact distance 1 - xi instead.
    mpmath = pytest.importorskip("mpmath")
    theta, x_vec, t, v = 1e-8, (0.9, 0.1), 1.0, 1.0 - 1e-9
    mp = MultiParams(theta=theta, p_vec=(0.3, 0.7))
    law = pim_transition_law(mp, x_vec, t)
    for i in (0, 1):
        with mpmath.workdps(40):
            p, x, a = mpmath.mpf(mp.p_vec[i]), mpmath.mpf(x_vec[i]), 2 / mpmath.mpf(theta)
            w = (mpmath.mpf(v) - p) / (1 - p)
            ref = float((p + mpmath.exp(-t / a) * (x - p) / w) * a * w ** (a - 1) / (1 - p))
        assert law.regions[i].density(v) == pytest.approx(ref, rel=1e-14)


def test_embedding_region_densities_against_mpmath():
    # Region 0 evaluates the two-type upper branch itself, so the multitype
    # suite's embedding check reaches it only through the type mirror; at the
    # suite's 72 points the region density is also held to 30 digits.
    mpmath = pytest.importorskip("mpmath")
    for theta in (0.5, 2.0, 5.0):
        for p in (0.3, 0.5):
            mp = MultiParams(theta=theta, p_vec=(p, 1.0 - p))
            for x in (0.2, 0.7):
                for t in (0.5, 2.0):
                    r0 = pim_transition_law(mp, (x, 1.0 - x), t).regions[0]
                    for f in (0.2, 0.5, 0.8):
                        xi = r0.lower + (1.0 - r0.lower) * f
                        with mpmath.workdps(30):
                            pm, xm, a = mpmath.mpf(p), mpmath.mpf(x), 2 / mpmath.mpf(theta)
                            w = (mpmath.mpf(xi) - pm) / (1 - pm)
                            want = (pm + mpmath.exp(-t / a) * (xm - pm) / w) * a * w ** (a - 1) / (1 - pm)
                        assert r0.density(xi) == pytest.approx(float(want), rel=1e-14), (theta, p, x, t, xi)


EMBED = "max two-type embedding mismatch, d = 2"


def _scale(monkeypatch, module, name):
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: (1.0 + 1e-6) * f(*args))


@pytest.mark.parametrize("name", ["transition_density_eval", "replacement_decay_integral"])
def test_embedding_check_fails_on_a_scaled_region(monkeypatch, name):
    # The (x_i - p_i) K terms cancel in the total mass, so a scaled K still
    # builds a valid SimplexLaw; only the embedding check sees it.
    assert all(r.passed for r in verification.run_suites("multitype", seed=42))
    _scale(monkeypatch, multitype, name)
    results = verification.run_suites("multitype", seed=42)
    assert {r.name for r in results if not r.passed} == {EMBED}


def test_battery_guards_the_shared_branch_density(monkeypatch):
    # Regions and two-type laws share _branch_density, so the embedding
    # check cannot see a fault in it; quadrature mass and the replacement
    # decomposition do.
    suites = ["transition-mass", "replacement-parts", "multitype"]
    _scale(monkeypatch, twotype, "_branch_density")
    failing = {(r.suite, r.name) for r in verification.run_suites(suites, seed=42) if not r.passed}
    assert failing == {
        ("transition-mass", "max |quadrature mass - 1| over parameter grid"),
        ("replacement-parts", "max |sum of 50 components - density|"),
    }


def test_pim_transition_law_three_types():
    x_vec = (0.5, 0.25, 0.25)
    t = 0.9
    law = pim_transition_law(MP3, x_vec, t)
    assert law.atom_mass == math.exp(-t)
    assert math.fsum(law.atom_point) == pytest.approx(1.0, abs=1e-14)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-14)
    for region in law.regions:
        ref, err = integrate.quad(
            region.density, region.lower, region.upper, limit=200, epsabs=1e-12
        )
        assert region.mass == pytest.approx(ref, abs=max(1e-9, 10 * err))
        for v in (region.lower + 0.3 * (1.0 - region.lower), 0.99):
            comp = region.companion(v)
            assert comp[region.index] == v
            assert math.fsum(comp) == pytest.approx(1.0, abs=1e-14)
            assert all(c >= 0.0 for c in comp)
    # t = 0 degenerates to the starting point.
    frozen = pim_transition_law(MP3, x_vec, 0.0)
    assert frozen.atom_mass == 1.0
    assert frozen.atom_point == x_vec
    assert frozen.regions == ()
    with pytest.raises(InvalidParameterError):
        pim_transition_law(MP3, (0.5, 0.5, 0.5), 1.0)


def test_pim_stationary_sample():
    rng = RngStream(41, 0)
    states = pim_stationary_sample(MP3, rng, size=50_000)
    assert states.shape == (50_000, 3)
    assert float(states.min()) >= 0.0
    assert states.sum(axis=1) == pytest.approx(np.ones(50_000), abs=1e-12)
    # Stationary mean is p_vec.
    for i in range(3):
        se = float(states[:, i].std(ddof=1)) / math.sqrt(states.shape[0])
        assert abs(float(states[:, i].mean()) - MP3.p_vec[i]) < 4.0 * se
    single = pim_stationary_sample(MP3, rng)
    assert single.shape == (3,)
    assert math.fsum(single) == pytest.approx(1.0, abs=1e-12)


def test_markov_line_kernel_swap_closed_form():
    swap = MutationMatrix(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    theta, t = 1.6, 0.9
    same = 0.5 * (1.0 + math.exp(-theta * t))
    cross = 0.5 * (1.0 - math.exp(-theta * t))
    got = markov_line_kernel(swap, theta, t)
    assert got == pytest.approx(np.array([[same, cross], [cross, same]]), abs=1e-13)
    assert markov_line_kernel(swap, theta, 0.0) == pytest.approx(np.eye(2))


def test_markov_line_kernel_against_expm():
    m = np.array([[0.1, 0.6, 0.3], [0.4, 0.2, 0.4], [0.25, 0.25, 0.5]])
    mm = MutationMatrix(matrix=m)
    for theta, t in ((0.7, 0.5), (2.0, 1.7), (5.0, 8.0)):
        got = markov_line_kernel(mm, theta, t)
        ref = expm(0.5 * theta * (m - np.eye(3)) * t)
        assert np.max(np.abs(got - ref)) < 1e-12
        assert got.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)


M3 = np.array([[0.1, 0.6, 0.3], [0.4, 0.2, 0.4], [0.25, 0.25, 0.5]])


def _uniformization(m: np.ndarray, lam: float) -> np.ndarray:
    """exp(lam (M - I)) as the kernel computed it before scaling and squaring:
    Poisson-weighted powers of M out to a Chernoff tail below 1e-14."""
    log_lam = math.log(lam)
    kmax = max(20, int(lam + 12.0 * math.sqrt(lam) + 30.0))
    while -lam + kmax * (1.0 + log_lam - math.log(kmax)) > math.log(1e-14):
        kmax *= 2
    out, power = np.zeros_like(m), np.eye(len(m))
    for k in range(kmax + 1):
        out += math.exp(k * log_lam - math.lgamma(k + 1) - lam) * power
        power = power @ m
    return out / out.sum(axis=1, keepdims=True)


def _timed_kernel(mm: MutationMatrix, lam: float) -> np.ndarray:
    """The kernel at theta t / 2 = lam, held to rows summing to 1 and to
    10 ms a call (the fastest of three, against a noisy clock)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        got = markov_line_kernel(mm, 2.0, lam)
        best = min(best, time.perf_counter() - start)
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-15, lam
    assert best < 0.01, (lam, best)
    return got


@pytest.mark.parametrize("lam", [0.5, 40.0])
def test_markov_line_kernel_against_mpmath_expm(lam):
    # At 50 digits mpmath's expm is itself only good to lam of about 40.
    mpmath = pytest.importorskip("mpmath")
    got = _timed_kernel(MutationMatrix(matrix=M3), lam)
    with mpmath.workdps(50):
        gen = mpmath.mpf(lam) * (mpmath.matrix(M3.tolist()) - mpmath.eye(3))
        want = np.array(mpmath.expm(gen).tolist(), dtype=float)
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("lam", [0.5, 40.0, 5e3, 5e4])
def test_markov_line_kernel_against_uniformization(lam):
    got = _timed_kernel(MutationMatrix(matrix=M3), lam)
    assert np.max(np.abs(got - _uniformization(M3, lam))) < 1e-14


@pytest.mark.parametrize("lam", [5e3, 5e7, 5e307])
def test_markov_line_kernel_reaches_the_stationary_rows(lam):
    # Long past mixing every row is gamma, gamma M = gamma, solved at 40 digits.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.matrix(M3.T.tolist()) - mpmath.eye(3)
        a[2, 0] = a[2, 1] = a[2, 2] = 1
        gamma = np.array(mpmath.lu_solve(a, mpmath.matrix([0, 0, 1])).tolist(), dtype=float).ravel()
    got = _timed_kernel(MutationMatrix(matrix=M3), lam)
    assert np.max(np.abs(got - gamma)) < 1e-14


@pytest.mark.parametrize("lam", [0.5, 40.0, 5e3, 5e7])
def test_markov_line_kernel_reducible_blocks(lam):
    # Two closed two-state classes: no unique gamma, and each block has the
    # closed form of a two-state chain leaving at rates u and w.
    blocks = ((0.3, 0.6), (0.05, 0.9))
    m = np.zeros((4, 4))
    want = np.zeros((4, 4))
    for k, (u, w) in enumerate(blocks):
        i = 2 * k
        m[i : i + 2, i : i + 2] = [[1.0 - u, u], [w, 1.0 - w]]
        e = math.exp(-(u + w) * lam)
        want[i : i + 2, i : i + 2] = np.array([[w + u * e, u - u * e], [w - w * e, u + w * e]]) / (u + w)
    got = _timed_kernel(MutationMatrix(matrix=m), lam)
    assert np.max(np.abs(got - want)) < 1e-14


def test_markov_line_kernel_overflow_names_theta_and_t():
    with pytest.raises(InvalidParameterError, match=r"theta = 4\.0, t = 1e\+308"):
        markov_line_kernel(MutationMatrix(matrix=M3), 4.0, 1e308)


def test_markov_stationary_gamma():
    m = np.array([[0.1, 0.6, 0.3], [0.4, 0.2, 0.4], [0.25, 0.25, 0.5]])
    mm = MutationMatrix(matrix=m)
    gamma = markov_stationary_gamma(mm)
    assert gamma @ m == pytest.approx(gamma, abs=1e-13)
    assert gamma.sum() == pytest.approx(1.0, abs=1e-13)
    # Doubly stochastic chains have the uniform law.
    swap = MutationMatrix(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert markov_stationary_gamma(swap) == pytest.approx(np.array([0.5, 0.5]))
    with pytest.raises(InvalidParameterError):
        markov_stationary_gamma(MutationMatrix(matrix=np.eye(2)))


def test_markov_stationary_sample():
    m = np.array([[0.1, 0.6, 0.3], [0.4, 0.2, 0.4], [0.25, 0.25, 0.5]])
    state = markov_stationary_sample(MutationMatrix(matrix=m), 1.3, RngStream(43, 0))
    assert state.shape == (3,)
    assert float(state.min()) >= 0.0
    assert math.fsum(state) == pytest.approx(1.0, abs=1e-12)


def test_infinite_sampling_prob():
    # theta = 2 makes every count equally likely, exactly.
    for n in (1, 4, 11, 20):
        for j in range(n + 1):
            assert infinite_sampling_prob(n, j, 2.0) == float(Fraction(1, n + 1))
    # Exact rational route at theta = 3 (so a = 2/3 has no float error:
    # Fraction(3.0) == 3).
    a = Fraction(2, 3)
    n = 6
    den = Fraction(1)
    for m in range(n):
        den *= 1 + a + m
    for j in range(n + 1):
        num = Fraction(math.factorial(n), math.factorial(j))
        for m in range(j):
            num *= a + m
        assert infinite_sampling_prob(n, j, 3.0) == float(num / den)
    assert math.fsum(
        infinite_sampling_prob(9, j, 0.7) for j in range(10)
    ) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(InvalidParameterError):
        infinite_sampling_prob(3, 4, 1.0)


def test_infinite_sampling_prob_moments():
    # j counts the lines in the replacement family, P(B = j) with
    # B ~ Binomial(n, eta), so it is C(n, j) E[eta^j (1 - eta)^{n-j}]:
    # 80/429 = C(5, 3) 8/429 at theta = 4/5.
    assert infinite_sampling_prob(5, 3, 0.8) == pytest.approx(float(Fraction(80, 429)), rel=1e-14)
    # j = n is E[eta^n] = a/(a + n), exact at theta = 1/2 (a = 4).
    assert infinite_sampling_prob(1, 1, 1.0) == 2.0 / 3.0
    for n in range(1, 6):
        assert infinite_sampling_prob(n, n, 0.5) == float(Fraction(4, 4 + n))
    # Independent quadrature of the defining integral.
    theta = 1.3
    a = 2.0 / theta
    ref, _ = integrate.quad(
        lambda e: a * e ** (a - 1.0) * e**2 * (1.0 - e) ** 3, 0.0, 1.0
    )
    assert infinite_sampling_prob(5, 2, theta) == pytest.approx(10.0 * ref, abs=1e-10)


def test_infinite_sampling_prob_against_simulation():
    # Direct mixture route: eta = U^{theta/2} and B ~ Binomial(n, eta)
    # lines in the replacement family.
    n, theta, size = 6, 1.5, 200_000
    gen = RngStream(44, 0).gen
    eta = gen.random(size) ** (0.5 * theta)
    b = gen.binomial(n, eta)
    for j in range(n + 1):
        freq = float(np.mean(b == j))
        want = infinite_sampling_prob(n, j, theta)
        se = math.sqrt(want * (1.0 - want) / size)
        assert abs(freq - want) < 4.0 * se, f"j = {j}"
