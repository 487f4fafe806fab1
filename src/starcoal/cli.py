"""Command-line surface: evaluators, samplers, and the verify battery.

Every table subcommand emits either CSV (parameters echoed as ``#``
comment lines, then a header row) or JSON ({"params", "columns",
"rows"}), selected with --format and written to --out or standard
output.  Floats are printed with %.17g so values round-trip exactly and
identical invocations produce byte-identical output.

Exit status: 0 on success (and, for ``verify``, only when every check
passed), 1 on a numeric failure inside the library, 2 on bad arguments.
Only ``simulate`` and ``verify`` draw, so only they take --seed; their
default seed comes from the STARCOAL_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import RngStream, StarcoalError, check_int, mean_se
from .eigen import PolyRep, eigen_coefficients, eigen_poly, eigenvalue
from .lines import (
    absorption_time_ensemble,
    an_distribution,
    an_distribution_spectral,
    mean_absorption_time,
)
from .multitype import (
    MultiParams,
    infinite_sampling_prob,
    load_mutation_matrix,
    markov_line_kernel,
    pim_line_kernel,
)
from .selection import (
    custom_drift,
    fixation_prob,
    mutation_selection_drift,
    neutral_drift,
    replacement_stationary,
    roots,
    skeleton_matrix,
    ua_time_ensemble,
)
from .selection import stationary_density as selection_stationary_density
from .twotype import (
    TwoTypeParams,
    _raw_moment,
    marginal_q,
    path_endpoint_ensemble,
    stationary_density_eval,
    transition_density_eval,
    transition_moment,
)
from .verification import SUITE_NAMES, format_report, run_suites

__all__ = ["main"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _parse_grid(text: str) -> list[float]:
    """Grid argument: either lo:hi:step or a comma-separated list."""
    try:
        if ":" in text:
            lo_s, hi_s, step_s = text.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if not (step > 0.0 and hi >= lo):
                raise ValueError
            count = int(math.floor((hi - lo) / step + 1e-9))
            return [lo + k * step for k in range(count + 1)]
        values = [float(tok) for tok in text.split(",") if tok.strip()]
        if not values or sorted(values) != values:
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:step or a sorted comma list, got {text!r}"
        ) from None


def _emit(args, params: list[tuple[str, object]], columns: list[str], rows) -> None:
    if args.format == "json":
        payload = {
            "params": {k: v for k, v in params},
            "columns": list(columns),
            "rows": [list(r) for r in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k} = {_fmt(v)}" for k, v in params]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed_of(args, parser) -> int:
    source = "STARCOAL_SEED" if args.seed is None else "--seed"
    env = os.environ.get("STARCOAL_SEED") or "0"
    try:
        seed = int(env) if args.seed is None else args.seed
    except ValueError:
        parser.error(f"STARCOAL_SEED must be an integer, got {env!r}")
    if not 0 <= seed < 2**64:
        parser.error(f"{source} must be an integer in [0, 2**64), got {seed}")
    return seed


def _cmd_transition(args, parser) -> int:
    par = TwoTypeParams(theta=args.theta, p=args.p)
    q1, _ = marginal_q(par, args.x, args.t)
    params = [
        ("theta", args.theta),
        ("p", args.p),
        ("x", args.x),
        ("t", args.t),
        ("atom_position", q1),
        ("atom_mass", math.exp(-args.t)),
    ]
    rows = [(xi, transition_density_eval(par, args.x, args.t, xi)) for xi in args.grid]
    _emit(args, params, ["xi", "density"], rows)
    return 0


def _cmd_stationary(args, parser) -> int:
    par = TwoTypeParams(theta=args.theta, p=args.p)
    rows = [(xi, stationary_density_eval(par, xi)) for xi in args.grid]
    _emit(args, [("theta", args.theta), ("p", args.p)], ["xi", "density"], rows)
    return 0


def _cmd_moments(args, parser) -> int:
    check_int("n_max", args.n_max, 0)
    par = TwoTypeParams(theta=args.theta, p=args.p)
    rows = []
    for n in range(args.n_max + 1):
        for t in args.t_grid:
            rows.append((n, t, transition_moment(par, n, args.x, t), _raw_moment(par, n, args.x, t)))
    params = [("theta", args.theta), ("p", args.p), ("x", args.x), ("n_max", args.n_max)]
    _emit(args, params, ["n", "t", "central_moment", "raw_moment"], rows)
    return 0


def _cmd_eigen(args, parser) -> int:
    check_int("n", args.n, 0)
    par = TwoTypeParams(theta=args.theta, p=args.p)
    rows = []
    for n in range(args.n + 1):
        # Rows print c0 and c1 only; P_n whole would cost n + 1 coefficients.
        g = eigen_poly(par, n) if n < 2 else PolyRep(par.p, eigen_coefficients(par, n))
        rows.append((n, eigenvalue(par, n), g.coefficient(0), g.coefficient(1)))
    params = [("theta", args.theta), ("p", args.p)]
    _emit(args, params, ["n", "eigenvalue", "c0", "c1"], rows)
    return 0


def _cmd_lines(args, parser) -> int:
    rows = []
    for t in args.t_grid:
        direct = an_distribution(args.n, args.theta, t).probs
        spectral = an_distribution_spectral(args.n, args.theta, t).probs
        for j, (a, b) in enumerate(zip(direct, spectral)):
            rows.append((t, j, a, b, abs(a - b)))
    params = [("n", args.n), ("theta", args.theta)]
    _emit(args, params, ["t", "j", "direct", "spectral", "abs_diff"], rows)
    return 0


def _cmd_simulate(args, parser) -> int:
    check_int("n_mc", args.n_mc, 2)
    rng = RngStream(_seed_of(args, parser), 0)
    if args.kind == "fv":
        par = TwoTypeParams(theta=args.theta, p=args.p)
        values = path_endpoint_ensemble(par, args.x, args.t, args.n_mc, rng)
        params = [("theta", args.theta), ("p", args.p), ("x", args.x), ("t", args.t)]
        names = ("mean", "analytic_mean")
        exact = args.p + transition_moment(par, 1, args.x, args.t)
    elif args.kind == "lines":
        values = absorption_time_ensemble(args.n, args.theta, args.n_mc, rng)
        params = [("n", args.n), ("theta", args.theta)]
        names = ("mean_absorption_time", "exact_mean")
        exact = mean_absorption_time(args.n, args.theta)
    else:
        values = ua_time_ensemble(args.n, args.beta, args.n_mc, rng)
        params = [("n", args.n), ("beta", args.beta)]
        names, exact = ("mean_collapse_time", "exact_mean"), 1.0
    params += [("n_mc", args.n_mc), ("seed", _seed_of(args, parser))]
    mean, se = mean_se(values)
    rows = [(names[0], mean), ("se", se), (names[1], exact)]
    _emit(args, params, ["quantity", "value"], rows)
    return 0


def _cmd_multitype(args, parser) -> int:
    if args.n is not None:
        check_int("n", args.n, 1)
    rows = []
    params: list[tuple[str, object]] = [("theta", args.theta)]
    if args.p_vec is not None:
        if args.t is None:
            parser.error("--p-vec needs --t for the line kernel")
        mp = MultiParams(theta=args.theta, p_vec=tuple(args.p_vec))
        kern = pim_line_kernel(mp, args.t)
        params.append(("p_vec", ",".join(_fmt(v) for v in args.p_vec)))
        params.append(("t", args.t))
        for i in range(mp.d):
            for j in range(mp.d):
                rows.append(("pim_kernel", i, j, float(kern[i, j])))
    if args.matrix is not None:
        if args.t is None:
            parser.error("--matrix needs --t for the line kernel")
        mm = load_mutation_matrix(args.matrix)
        kern = markov_line_kernel(mm, args.theta, args.t)
        params.append(("matrix", args.matrix))
        for i in range(mm.d):
            for j in range(mm.d):
                rows.append(("markov_kernel", i, j, float(kern[i, j])))
    if args.n is not None:
        for j in range(args.n + 1):
            rows.append(("sampling", args.n, j, infinite_sampling_prob(args.n, j, args.theta)))
    if not rows:
        parser.error("nothing to do: pass --p-vec, --matrix, or --n")
    _emit(args, params, ["kind", "i", "j", "value"], rows)
    return 0


def _cmd_selection(args, parser) -> int:
    rows: list[tuple[str, object, float]] = []
    params: list[tuple[str, object]] = []
    if args.drift_coeffs is not None:
        coeffs = args.drift_coeffs
        lipschitz = sum(k * abs(c) for k, c in enumerate(coeffs)) or 1.0
        drift = custom_drift(PolyRep(0.0, tuple(coeffs)), lipschitz)
        params.append(("drift_coeffs", ",".join(_fmt(c) for c in coeffs)))
    elif args.beta is not None and args.theta is None:
        # Pure selection: absorbing endpoints, so the table reports
        # fixation probabilities over the grid instead of a density.
        params.append(("beta", args.beta))
        grid = args.grid or _parse_grid("0.1:0.9:0.1")
        for x in grid:
            rows.append(("fixation_1", x, fixation_prob(args.beta, x, 1)))
        for x in grid:
            rows.append(("fixation_2", x, fixation_prob(args.beta, x, 2)))
        _emit(args, params, ["quantity", "x", "value"], rows)
        return 0
    elif args.theta is not None and args.p is not None and args.beta is not None:
        drift = mutation_selection_drift(args.theta, args.p, args.beta)
        params += [("theta", args.theta), ("p", args.p), ("beta", args.beta)]
        rp = roots(args.theta, args.beta, args.p)
        rows.append(("r1", "", rp.r1))
        rows.append(("r2", "", rp.r2))
    elif args.theta is not None and args.p is not None:
        drift = neutral_drift(args.theta, args.p)
        params += [("theta", args.theta), ("p", args.p)]
    else:
        parser.error("pass --theta/--p [--beta], --beta alone, or --drift-coeffs")
    mat = skeleton_matrix(drift)
    for i in (0, 1):
        for j in (0, 1):
            rows.append((f"skeleton_{i + 1}{j + 1}", "", float(mat[i, j])))
    pi1, pi2 = replacement_stationary(drift)
    rows.append(("pi1", "", pi1))
    rows.append(("pi2", "", pi2))
    for xi in args.grid or []:
        rows.append(("density", xi, selection_stationary_density(drift, xi)))
    _emit(args, params, ["quantity", "xi", "value"], rows)
    return 0


def _cmd_verify(args, parser) -> int:
    suites = "all" if args.suite == "all" else [args.suite]
    results = run_suites(suites, seed=_seed_of(args, parser))
    _write(args, format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcoal",
        description="Star-shaped replacement process: laws, spectra, simulators, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transition", help="transition density over a frequency grid")
    sp.set_defaults(run=_cmd_transition)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--grid", type=_parse_grid, required=True)
    _add_common(sp)

    sp = sub.add_parser("stationary", help="stationary density over a frequency grid")
    sp.set_defaults(run=_cmd_stationary)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--grid", type=_parse_grid, required=True)
    _add_common(sp)

    sp = sub.add_parser("moments", help="centered and raw transition moments")
    sp.set_defaults(run=_cmd_moments)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--n-max", type=int, default=4)
    sp.add_argument("--t-grid", type=_parse_grid, required=True)
    _add_common(sp)

    sp = sub.add_parser("eigen", help="eigenvalues and low-order eigenpolynomial coefficients")
    sp.set_defaults(run=_cmd_eigen)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("lines", help="line-count law, direct and spectral routes")
    sp.set_defaults(run=_cmd_lines)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--t-grid", type=_parse_grid, required=True)
    _add_common(sp)

    sp = sub.add_parser("simulate", help="ensemble summaries from the path simulators")
    sp.set_defaults(run=_cmd_simulate)
    sim = sp.add_subparsers(dest="kind", required=True)
    fv = sim.add_parser("fv", help="forward frequency paths")
    fv.add_argument("--theta", type=float, required=True)
    fv.add_argument("--p", type=float, required=True)
    fv.add_argument("--x", type=float, required=True)
    fv.add_argument("--t", type=float, required=True)
    ln = sim.add_parser("lines", help="backward line-count paths")
    ln.add_argument("--n", type=int, required=True)
    ln.add_argument("--theta", type=float, required=True)
    ag = sim.add_parser("asg", help="branching-line collapse clocks")
    ag.add_argument("--n", type=int, required=True)
    ag.add_argument("--beta", type=float, required=True)
    for ensemble in (fv, ln, ag):
        ensemble.add_argument("--n-mc", type=int, default=10_000)
        _add_common(ensemble)
        ensemble.add_argument("--seed", type=int, default=None, help="overrides STARCOAL_SEED")

    sp = sub.add_parser("multitype", help="simplex kernels and the sampling distribution")
    sp.set_defaults(run=_cmd_multitype)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--p-vec", type=lambda s: [float(v) for v in s.split(",")], default=None)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--matrix", default=None, help="path to a row-stochastic numeric grid")
    sp.add_argument("--n", type=int, default=None, help="sample size for the sampling law")
    _add_common(sp)

    sp = sub.add_parser("selection", help="roots, skeleton, stationary density, fixation")
    sp.set_defaults(run=_cmd_selection)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--drift-coeffs", type=float, nargs="+", default=None,
                    help="polynomial velocity coefficients, constant term first")
    sp.add_argument("--grid", type=_parse_grid, default=None)
    _add_common(sp)

    sp = sub.add_parser("verify", help="run the cross-check battery")
    sp.set_defaults(run=_cmd_verify)
    sp.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except StarcoalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
