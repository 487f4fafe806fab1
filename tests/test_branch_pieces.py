"""One branch constructor per law: the same bits as two written-out branches.

twotype.transition_law builds its type-1 and type-2 pieces, and
selection.stationary_law its two flow pieces, through one function each.
The reference copies below are the constructions they replaced, with each
branch written out on its own.  Every law must equal its reference in its
atoms, label, piece bounds, masses, sides and widths, in its offset
densities from 1e-250 widths to the full width, and in its piece cdfs at
interior points.
"""

import math

import numpy as np
import pytest

import starcoal.selection as selection
import starcoal.twotype as twotype
import starcoal.verification as verification
from starcoal.core import (
    MixedLaw,
    Piece,
    QuadratureError,
    TwoTypeParams,
    exp_decay_window,
    replacement_decay_integral,
)

OFFSETS = np.concatenate([np.geomspace(1e-250, 1.0, 51), [0.3, 0.5, 0.7, 0.999]])
FRACTIONS = [k / 16.0 for k in range(1, 16)]


# ---------------------------------------------------------------------------
# Reference constructions, each branch written out
# ---------------------------------------------------------------------------


def ref_transition_law(params, x, t):
    label = f"transition_law(theta={params.theta!r}, p={params.p!r}, x={x!r}, t={t!r})"
    theta, p, q = params.theta, params.p, 1.0 - params.p
    a = 2.0 / theta
    delta = 1.0 - 0.5 * theta
    eh = math.exp(-0.5 * theta * t)
    mix = -math.expm1(-0.5 * theta * t)
    atom_mass = math.exp(-t)
    s = -math.expm1(-t)
    big_k = replacement_decay_integral(theta, t) if t < math.inf else 0.0
    q1 = x * eh + p * mix

    mass_up = p * s + (x - p) * big_k
    mass_lo = s - mass_up
    width_up, width_lo = q * mix, p * mix

    def cdf_up(xi, _p=p, _x=x, _a=a, _d=delta, _t=t, _am=atom_mass):
        w = (xi - _p) / (1.0 - _p)
        win = exp_decay_window(_d, _t, _t + _a * math.log(w)) if _t < math.inf else 0.0
        return _p * (w**_a - _am) + (_x - _p) * win

    def cdf_lo(xi, _p=p, _x=x, _a=a, _d=delta, _t=t, _K=big_k):
        v = 1.0 - xi / _p
        win = exp_decay_window(_d, _t, _t + _a * math.log(v)) if _t < math.inf else 0.0
        return (1.0 - _p) * (1.0 - v**_a) - (_x - _p) * (_K - win)

    pieces, atoms = [], []
    lower = eh + p * mix
    if mass_up > 0.0 and lower < 1.0:
        pieces.append(
            Piece(
                lower=lower,
                upper=1.0,
                mass=mass_up,
                cdf=cdf_up,
                offset_density=lambda d: twotype._branch_density(
                    p, eh, x - p, eh + d / q, (width_up - d) / q, a, q
                ),
                offset_side="lower",
                offset_width=width_up,
            )
        )
    elif mass_up > 0.0:
        atoms.append((1.0, mass_up))
    if mass_lo > 0.0 and width_lo > 0.0:
        pieces.append(
            Piece(
                lower=0.0,
                upper=width_lo,
                mass=mass_lo,
                cdf=cdf_lo,
                offset_density=lambda d: twotype._branch_density(
                    q, eh, p - x, eh + d / p, (width_lo - d) / p, a, p
                ),
                offset_side="upper",
                offset_width=width_lo,
            )
        )
    elif mass_lo > 0.0:
        atoms.append((0.0, mass_lo))
    if atom_mass > 0.0:
        atoms.append((q1, atom_mass))
    return MixedLaw(atoms=tuple(atoms), pieces=tuple(pieces), label=label)


def ref_selection_stationary_law(drift):
    pi1, pi2 = selection.replacement_stationary(drift)
    rp = selection.roots(drift.theta, drift.beta, drift.p)
    r1, r2 = rp.r1, rp.r2
    gap = r1 - r2
    expo = 1.0 / rp.decay_rate
    half_beta = 0.5 * drift.beta

    def dens_lo_off(d):
        back = gap - d
        return pi2 * (d * (-r2) / (back * r1)) ** expo / (half_beta * d * back)

    def cdf_lo(z):
        return pi2 * (1.0 - ((r1 - z) * (-r2) / ((z - r2) * r1)) ** expo)

    def dens_up_off(d):
        fwd = gap + d
        return pi1 * (d * (1.0 - r2) / (fwd * (1.0 - r1))) ** expo / (half_beta * d * fwd)

    def cdf_up(z):
        return pi1 * ((z - r1) * (1.0 - r2) / ((z - r2) * (1.0 - r1))) ** expo

    return MixedLaw(
        atoms=(),
        pieces=(
            Piece(0.0, r1, pi2, cdf_lo, dens_lo_off, "upper", r1),
            Piece(r1, 1.0, pi1, cdf_up, dens_up_off, "lower", 1.0 - r1),
        ),
        label=f"selection stationary_law(theta={drift.theta!r}, p={drift.p!r}, beta={drift.beta!r})",
    )


# ---------------------------------------------------------------------------
# Bitwise comparison
# ---------------------------------------------------------------------------


def _assert_same_law(law, ref):
    assert law.label == ref.label
    assert law.atoms == ref.atoms
    assert len(law.pieces) == len(ref.pieces)
    for pc, rc in zip(law.pieces, ref.pieces):
        fields = ("lower", "upper", "mass", "offset_side", "offset_width")
        assert [getattr(pc, f) for f in fields] == [getattr(rc, f) for f in fields]
        with np.errstate(all="ignore"):
            d = OFFSETS * pc.offset_width
            np.testing.assert_array_equal(pc.offset_density(d), rc.offset_density(d))
        span = pc.upper - pc.lower
        inside = [pc.lower + f * span for f in FRACTIONS]
        inside += [math.nextafter(pc.lower, pc.upper), math.nextafter(pc.upper, pc.lower)]
        for xi in (v for v in inside if pc.lower < v < pc.upper):
            assert pc.cdf(xi) == rc.cdf(xi), xi


@pytest.mark.parametrize("theta", [1e-3, 0.5, 2.0, 5.0, 40.0])
@pytest.mark.parametrize("p", [1e-4, 0.3, 0.5, 0.9])
def test_transition_law_equals_written_out_branches(theta, p):
    par = TwoTypeParams(theta, p)
    for x in (0.0, 0.3, p, 1.0):
        for t in (0.0, 5e-324, 1e-14, 0.1, 1.0, 10.0, 800.0, math.inf):
            _assert_same_law(twotype.transition_law(par, x, t), ref_transition_law(par, x, t))


@pytest.mark.parametrize(
    "theta, p, beta",
    [
        (0.01, 1e-3, 0.1),
        (1e-3, 0.5, 50.0),
        (1.0, 0.5, 2.0),
        (0.5, 0.3, 4.0),
        (2.0, 0.7, 1.0),
        (1e-3, 0.3, 1e-3),
        (3.0, 0.2, 5.0),
        (45.0, 0.99, 0.05),
    ],
)
def test_selection_law_equals_written_out_branches(theta, p, beta):
    drift = selection.mutation_selection_drift(theta, p, beta)
    law, ref = selection.stationary_law(drift), ref_selection_stationary_law(drift)
    _assert_same_law(law, ref)
    try:
        want = ref.quadrature_mass()
    except QuadratureError as err:
        with pytest.raises(QuadratureError) as got:
            law.quadrature_mass()
        assert str(got.value) == str(err)
    else:
        assert law.quadrature_mass() == want


# ---------------------------------------------------------------------------
# Planted faults: the battery still checks each single constructor
# ---------------------------------------------------------------------------


class _ScaledPiece(Piece):
    """A Piece whose offset density is 1 + 1e-6 times the one it was given."""

    def __post_init__(self):
        super().__post_init__()
        f = self.offset_density
        object.__setattr__(self, "offset_density", lambda d: (1.0 + 1e-6) * f(d))


@pytest.mark.parametrize(
    "module, suite, failing",
    [
        (twotype, "transition-mass", {"max |quadrature mass - 1| over parameter grid"}),
        # stationary_density writes the flow branches in the absolute
        # coordinate, so the density check still has an independent route.
        (selection, "selection", {
            "max |stationary mass - 1|",
            "max |stationary mean - replacement weight|",
            "max |law density - direct density|",
        }),
    ],
)
def test_battery_fails_on_a_scaled_branch_density(monkeypatch, module, suite, failing):
    assert all(r.passed for r in verification.run_suites([suite], seed=42))
    # Only the branch constructor builds Pieces in either module.
    monkeypatch.setattr(module, "Piece", _ScaledPiece)
    results = verification.run_suites([suite], seed=42)
    assert {r.name for r in results if not r.passed} == failing
