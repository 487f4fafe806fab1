"""End-to-end checks of the command line surface.

Each test drives ``cli.main`` in process and parses the emitted CSV or
JSON.  Numeric correctness of the underlying evaluators is covered by
the module tests; here the concern is argument wiring, the table
contracts (parameter echo, column names, row shapes), output routing,
seeds, and exit codes.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starcoal
from starcoal import cli
from starcoal.lines import mean_absorption_time
from starcoal.multitype import MultiParams, pim_line_kernel
from starcoal.selection import fixation_prob


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    """Split CSV output into (params dict, columns, rows of strings)."""
    params = {}
    columns = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            params[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return params, columns, rows


def test_parse_grid_forms():
    assert cli._parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert cli._parse_grid("0.3,0.6,0.9") == [0.3, 0.6, 0.9]
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid("abc")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid("0.9,0.3")  # unsorted list
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid("1:0:0.1")  # hi below lo


def test_stationary_uniform_case(capsys):
    # theta = 2, p = 1/2 makes the stationary law Uniform(0, 1); every
    # grid point, endpoints included, must print density exactly 1.
    rc, out, err = run_cli(
        capsys, ["stationary", "--theta", "2", "--p", "0.5", "--grid", "0:1:0.1"]
    )
    assert rc == 0 and err == ""
    params, columns, rows = parse_csv(out)
    assert params == {"theta": "2", "p": "0.5"}
    assert columns == ["xi", "density"]
    assert len(rows) == 11
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0
    for row in rows:
        assert row[1] == "1"


def test_eigen_table(capsys):
    rc, out, err = run_cli(capsys, ["eigen", "--theta", "2", "--p", "0.5", "--n", "3"])
    assert rc == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["n", "eigenvalue", "c0", "c1"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    n2 = rows[2]
    assert float(n2[1]) == 3.0
    assert float(n2[2]) == pytest.approx(-1.0 / 12.0, rel=1e-14)
    assert float(n2[3]) == 0.0


def test_transition_atom_echo(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["transition", "--theta", "1.5", "--p", "0.3", "--x", "0.7",
         "--t", "0.7", "--grid", "0.1,0.5,0.9"],
    )
    assert rc == 0
    params, columns, rows = parse_csv(out)
    assert columns == ["xi", "density"]
    assert len(rows) == 3
    assert float(params["atom_mass"]) == math.exp(-0.7)
    eh = math.exp(-1.5 * 0.7 / 2.0)
    assert float(params["atom_position"]) == pytest.approx(0.3 + 0.4 * eh, rel=1e-15)


def test_csv_json_agreement(capsys):
    argv = ["moments", "--theta", "1.3", "--p", "0.45", "--x", "0.6",
            "--n-max", "3", "--t-grid", "0.5,1.0"]
    rc, csv_out, _ = run_cli(capsys, argv)
    assert rc == 0
    rc, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert rc == 0

    payload = json.loads(json_out)
    assert set(payload) == {"params", "columns", "rows"}
    assert payload["columns"] == ["n", "t", "central_moment", "raw_moment"]
    assert payload["params"]["n_max"] == 3
    assert len(payload["rows"]) == 4 * 2

    _, _, csv_rows = parse_csv(csv_out)
    for text_row, json_row in zip(csv_rows, payload["rows"]):
        assert [float(v) for v in text_row] == [float(v) for v in json_row]
    # n = 0 rows: central and raw moment are both exactly 1.
    assert payload["rows"][0][2] == 1.0 and payload["rows"][0][3] == 1.0


def test_lines_table(capsys):
    rc, out, _ = run_cli(
        capsys, ["lines", "--n", "4", "--theta", "1.5", "--t-grid", "0.3,1.0"]
    )
    assert rc == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["t", "j", "direct", "spectral", "abs_diff"]
    assert len(rows) == 2 * 5
    for row in rows:
        assert float(row[4]) < 1e-12
    by_t = {}
    for r in rows:
        by_t.setdefault(r[0], []).append(float(r[2]))
    assert sorted(float(t) for t in by_t) == [0.3, 1.0]
    for probs in by_t.values():
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_simulate_fv_deterministic(capsys):
    argv = ["simulate", "fv", "--theta", "1.0", "--p", "0.3", "--x", "0.6",
            "--t", "0.8", "--n-mc", "2000", "--seed", "3"]
    rc, first, _ = run_cli(capsys, argv)
    assert rc == 0
    rc, second, _ = run_cli(capsys, argv)
    assert first == second
    params, columns, rows = parse_csv(first)
    assert columns == ["quantity", "value"]
    assert [r[0] for r in rows] == ["mean", "se", "analytic_mean"]
    assert params["seed"] == "3"
    mean, se, analytic = (float(r[1]) for r in rows)
    assert abs(mean - analytic) < 5.0 * se


def test_simulate_lines_exact_mean(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["simulate", "lines", "--n", "2", "--theta", "2", "--n-mc", "1000", "--seed", "1"],
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["mean_absorption_time", "se", "exact_mean"]
    assert float(rows[2][1]) == mean_absorption_time(2, 2.0)
    assert float(rows[2][1]) == 4.0 / 3.0


def test_simulate_asg_seed_sources(capsys, monkeypatch):
    argv_tail = ["simulate", "asg", "--n", "3", "--beta", "1.0", "--n-mc", "500"]
    monkeypatch.setenv("STARCOAL_SEED", "5")
    rc, env_out, _ = run_cli(capsys, argv_tail)
    assert rc == 0
    monkeypatch.delenv("STARCOAL_SEED")
    rc, flag_out, _ = run_cli(capsys, argv_tail + ["--seed", "5"])
    assert rc == 0
    # The environment default and the explicit flag must be the same run.
    assert env_out == flag_out

    params, _, rows = parse_csv(flag_out)
    assert params["seed"] == "5"
    assert [r[0] for r in rows] == ["mean_collapse_time", "se", "exact_mean"]
    assert rows[2][1] == "1"

    monkeypatch.setenv("STARCOAL_SEED", "5")
    rc, other, _ = run_cli(capsys, argv_tail + ["--seed", "9"])
    assert rc == 0
    other_params, _, _ = parse_csv(other)
    assert other_params["seed"] == "9"
    assert other != flag_out


def test_non_integer_seed_variable_is_a_usage_error(capsys, monkeypatch):
    # A bad STARCOAL_SEED exits 2 with a usage message naming it, for both
    # commands that read it; --seed still wins over it.
    monkeypatch.setenv("STARCOAL_SEED", "abc")
    for argv in (["simulate", "lines", "--n", "3", "--theta", "1"], ["verify", "--suite", "eigen-equation"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "STARCOAL_SEED must be an integer, got 'abc'" in err
    rc, _, _ = run_cli(capsys, ["simulate", "lines", "--n", "3", "--theta", "1", "--n-mc", "100", "--seed", "4"])
    assert rc == 0


def test_table_commands_take_no_seed(capsys):
    # Only simulate and verify draw, so only they read a seed.
    with pytest.raises(SystemExit) as exc:
        cli.main(["eigen", "--theta", "2", "--p", "0.5", "--n", "3", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    # Every starcoal line of README's sh blocks except the full battery, which
    # test_criterion_14_determinism runs, from a directory holding swap.txt.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [chunk.split("```", 1)[0] for chunk in readme.split("```sh\n")[1:]]
    commands = [line.split()[1:] for b in blocks for line in b.splitlines() if line.startswith("starcoal ")]
    commands = [argv for argv in commands if argv[:3] != ["verify", "--suite", "all"]]
    assert len(commands) == 13
    (tmp_path / "swap.txt").write_text("0 1\n1 0\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        rc, out, err = run_cli(capsys, argv)
        assert (rc, err) == (0, "") and out, argv


def test_out_of_range_seed_is_a_usage_error(capsys, monkeypatch):
    # A seed outside [0, 2**64) exits 2 with a usage message naming where it
    # came from, the flag or the environment variable.
    argv = ["simulate", "lines", "--n", "3", "--theta", "1", "--n-mc", "100"]
    for seed in ("-1", str(2**64)):
        for source, tail in (("--seed", ["--seed", seed]), ("STARCOAL_SEED", [])):
            monkeypatch.setenv("STARCOAL_SEED", seed if source == "STARCOAL_SEED" else "0")
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + tail)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:") and f"{source} must be an integer in [0, 2**64), got {seed}" in err
    monkeypatch.setenv("STARCOAL_SEED", str(2**64 - 1))
    assert run_cli(capsys, argv)[0] == 0


def test_multitype_pim_and_sampling(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["multitype", "--theta", "1.9", "--p-vec", "0.35,0.65", "--t", "0.4", "--n", "4"],
    )
    assert rc == 0
    params, columns, rows = parse_csv(out)
    assert columns == ["kind", "i", "j", "value"]
    assert [float(v) for v in params["p_vec"].split(",")] == [0.35, 0.65]

    kern = pim_line_kernel(MultiParams(theta=1.9, p_vec=(0.35, 0.65)), 0.4)
    pim_rows = [r for r in rows if r[0] == "pim_kernel"]
    assert len(pim_rows) == 4
    for r in pim_rows:
        assert float(r[3]) == float(kern[int(r[1]), int(r[2])])

    sampling = [r for r in rows if r[0] == "sampling"]
    assert [r[2] for r in sampling] == ["0", "1", "2", "3", "4"]
    assert math.fsum(float(r[3]) for r in sampling) == pytest.approx(1.0, abs=1e-14)


def test_multitype_sampling_uniform_case(capsys):
    # theta = 2 mixes the binomial over a uniform frequency, so the
    # sampling law is flat: every count has probability 1/(n+1).
    rc, out, _ = run_cli(capsys, ["multitype", "--theta", "2", "--n", "4"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 5
    for r in rows:
        assert float(r[3]) == 0.2


def test_multitype_matrix_kernel(capsys, tmp_path):
    mat = tmp_path / "swap.txt"
    mat.write_text("0 1\n1 0\n")
    rc, out, _ = run_cli(
        capsys, ["multitype", "--theta", "1.0", "--matrix", str(mat), "--t", "0.7"]
    )
    assert rc == 0
    params, _, rows = parse_csv(out)
    assert params["matrix"] == str(mat)
    assert len(rows) == 4
    off = 0.5 * (1.0 - math.exp(-0.7))
    by_ij = {(r[1], r[2]): float(r[3]) for r in rows}
    assert by_ij[("0", "1")] == pytest.approx(off, abs=1e-13)
    assert by_ij[("1", "0")] == pytest.approx(off, abs=1e-13)
    assert by_ij[("0", "0")] == pytest.approx(1.0 - off, abs=1e-13)


def test_multitype_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["multitype", "--theta", "1.0", "--p-vec", "0.3,0.7"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["multitype", "--theta", "1.0"])
    assert exc.value.code == 2


def test_selection_pure_fixation(capsys):
    rc, out, _ = run_cli(capsys, ["selection", "--beta", "0.8"])
    assert rc == 0
    params, columns, rows = parse_csv(out)
    assert set(params) == {"beta"} and float(params["beta"]) == 0.8
    assert columns == ["quantity", "x", "value"]
    p1 = [r for r in rows if r[0] == "fixation_1"]
    p2 = [r for r in rows if r[0] == "fixation_2"]
    assert len(p1) == 9 and len(p2) == 9 and len(rows) == 18
    # Complementarity across the reflected grid point.
    for r1, r2 in zip(p1, reversed(p2)):
        assert float(r1[2]) + float(r2[2]) == pytest.approx(1.0, abs=1e-9)
    values = [float(r[2]) for r in p1]
    assert values == sorted(values)
    assert float(p1[4][2]) == fixation_prob(0.8, float(p1[4][1]), 1)


def test_selection_named_drift_table(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["selection", "--theta", "1.0", "--p", "0.5", "--beta", "2.0",
         "--grid", "0.4,0.9"],
    )
    assert rc == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["quantity", "xi", "value"]
    by_name = {r[0]: r for r in rows}
    assert float(by_name["r1"][2]) == pytest.approx((1.0 + math.sqrt(5.0)) / 4.0, rel=1e-14)
    assert float(by_name["r2"][2]) < 0.0
    for key in ("skeleton_11", "skeleton_12", "skeleton_21", "skeleton_22"):
        assert key in by_name
    assert float(by_name["pi1"][2]) == pytest.approx(0.7133997626167875, rel=1e-10)
    assert float(by_name["pi1"][2]) + float(by_name["pi2"][2]) == pytest.approx(1.0, abs=1e-12)
    densities = [r for r in rows if r[0] == "density"]
    assert [float(r[1]) for r in densities] == [0.4, 0.9]
    assert float(densities[1][2]) == pytest.approx(3.5873452010679611, rel=1e-10)


def test_selection_custom_matches_neutral(capsys):
    rc, neutral_out, _ = run_cli(capsys, ["selection", "--theta", "1.2", "--p", "0.3"])
    assert rc == 0
    # Same velocity (theta/2)(p - x) given as polynomial coefficients.
    rc, custom_out, _ = run_cli(capsys, ["selection", "--drift-coeffs", "0.18", "-0.6"])
    assert rc == 0

    _, _, n_rows = parse_csv(neutral_out)
    n_by = {r[0]: float(r[2]) for r in n_rows}
    assert n_by["pi1"] == pytest.approx(0.3, rel=1e-14)
    assert "r1" not in n_by

    params, _, c_rows = parse_csv(custom_out)
    assert set(params) == {"drift_coeffs"}
    assert [float(v) for v in params["drift_coeffs"].split(",")] == [0.18, -0.6]
    c_by = {r[0]: float(r[2]) for r in c_rows}
    assert c_by["pi1"] == pytest.approx(n_by["pi1"], abs=1e-8)
    assert c_by["skeleton_11"] == pytest.approx(n_by["skeleton_11"], abs=1e-8)


def test_selection_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selection", "--p", "0.4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("content", [None, "0.7 abc\n0.2 0.8\n"])
def test_multitype_bad_matrix_file(capsys, tmp_path, content):
    # A missing file or a non-numeric entry is an input error, not a traceback.
    mat = tmp_path / "m.txt"
    if content is not None:
        mat.write_text(content)
    rc, out, err = run_cli(capsys, ["multitype", "--theta", "1.0", "--matrix", str(mat), "--t", "0.7"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and str(mat) in err and "Traceback" not in err


def test_bad_grid_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stationary", "--theta", "2", "--p", "0.5", "--grid", "abc"])
    assert exc.value.code == 2


def test_library_error_exit_code(capsys):
    rc, out, err = run_cli(
        capsys, ["stationary", "--theta", "-1", "--p", "0.5", "--grid", "0.5"]
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


def test_lines_rejects_non_finite_time(capsys):
    rc, out, err = run_cli(capsys, ["lines", "--n", "5", "--theta", "1", "--t-grid", "nan"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "kind_args",
    [
        ["fv", "--theta", "1", "--p", "0.3", "--x", "0.5", "--t", "1"],
        ["lines", "--n", "3", "--theta", "1"],
        ["asg", "--n", "3", "--beta", "1"],
    ],
)
def test_simulate_rejects_single_replicate(capsys, kind_args):
    # One replicate has no sample variance: the se row would be nan.
    rc, out, err = run_cli(capsys, ["simulate", *kind_args, "--n-mc", "1", "--seed", "1"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "n_mc" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments", "--theta", "1", "--p", "0.3", "--x", "0.5", "--n-max", "-1", "--t-grid", "1"],
         "n_max must be an integer >= 0, got -1"),
        (["eigen", "--theta", "1", "--p", "0.3", "--n", "-1"], "n must be an integer >= 0, got -1"),
        (["multitype", "--theta", "1", "--n", "-2"], "n must be an integer >= 1, got -2"),
        (["eigen", "--theta", "2", "--p", "0.5", "--n", "2001"],
         "eigen polynomial for n=2001 exceeds LINE_LAW_N_CAP = 2000"),
    ],
    ids=["moments", "eigen", "multitype", "eigen-above-cap"],
)
def test_negative_sizes_exit_on_the_library_message(capsys, argv, message):
    # A size below its minimum once printed an empty table, or for
    # multitype a usage error that named no size.  eigen --n above
    # LINE_LAW_N_CAP stops before the first row, as eigen_poly does.
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_simulate_fv_rejects_infinite_time():
    # An infinite horizon once spun the jump loop forever, so the command
    # runs in a child process whose timeout turns a hang into a failure.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = ["simulate", "fv", "--theta", "1", "--p", "0.3", "--x", "0.5", "--t", "inf"]
    proc = subprocess.run(
        [sys.executable, "-m", "starcoal.cli", *argv, "--n-mc", "10"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

# The suites that once used scipy's KS law, ODE solver and root finder, the
# sampler that inverted piece cdfs by brentq, and a custom-drift density.
_NUMPY_ONLY_RUN = f"""
import contextlib, io, sys
from starcoal import cli, core, selection, twotype
with contextlib.redirect_stdout(io.StringIO()):
    for suite in ("uniform-stationary", "selection", "asg"):
        assert cli.main(["verify", "--suite", suite, "--seed", "42"]) == 0, suite
law = twotype.transition_law(core.TwoTypeParams(1.0, 0.3), 0.6, 1.0)
rng = core.RngStream(0)
assert all(0.0 <= law.sample(rng) <= 1.0 for _ in range(100))
assert selection.stationary_density(selection.custom_drift(lambda y: 0.5 * (0.5 - y) + y * (1.0 - y)), 0.6) > 0.0
{_SCIPY_MODULES}
"""


def test_import_loads_no_scipy():
    # The runtime depends on numpy alone: neither the import nor the suites
    # and routines that once called scipy load any of it.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for code in (f"import sys, starcoal, starcoal.cli; {_SCIPY_MODULES}", _NUMPY_ONLY_RUN):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def test_sibling_imports_are_exported():
    # A public name that one module takes from another is part of that
    # module's API, so it must be in that module's __all__; re-importing a
    # name through a module that does not define it is caught the same way.
    package = Path(cli.__file__).parent
    missing = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                exported = importlib.import_module(f"starcoal.{node.module}").__all__
                missing += [
                    f"{path.stem}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not alias.name.startswith("_") and alias.name not in exported
                ]
    assert missing == []


def test_package_reexports_the_module_apis():
    # starcoal re-exports every module's __all__ but core's helpers, cli's
    # entry point and the selection names that clash with twotype's.
    kept_out = {
        "core": {"quad_offset", "brent_root", "check_real", "check_int", "mean_se", "mean_se_of_sums",
                 "mean_se_of_counts", "shifted_sums"},
        "selection": {"stationary_density", "stationary_law", "stationary_sample", "simulate_path"},
        "cli": {"main"},
    }
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"starcoal.{path.stem}")
            absent = {n for n in module.__all__ if getattr(starcoal, n, None) is not getattr(module, n)}
            assert absent == kept_out.get(path.stem, set()), path.stem


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["eigen", "--theta", "1.7", "--p", "0.25", "--n", "5"]
    rc, stdout_text, _ = run_cli(capsys, argv)
    assert rc == 0
    target = tmp_path / "table.csv"
    rc, piped, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert rc == 0
    assert piped == ""
    assert target.read_text() == stdout_text


def test_verify_single_suite(capsys, tmp_path):
    first = tmp_path / "report1.txt"
    second = tmp_path / "report2.txt"
    rc = cli.main(["verify", "--suite", "eigen-equation", "--seed", "0", "--out", str(first)])
    assert rc == 0
    rc = cli.main(["verify", "--suite", "eigen-equation", "--seed", "0", "--out", str(second)])
    assert rc == 0
    capsys.readouterr()
    text = first.read_text()
    assert text == second.read_text()
    lines = text.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1} of {len(lines) - 1} checks passed"


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_raw_moment_overflow_is_an_error(capsys):
    # C(n, k) overflows a float from n = 1030; the table stops, before any
    # row, with an error line naming n, not a traceback.
    argv = ["moments", "--theta", "1.3", "--p", "0.35", "--x", "0.8", "--n-max", "1030", "--t-grid", "0.9"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: raw moment n=1030") and "Traceback" not in err
