import contextlib
import csv
import io
import json
import math
import warnings

import pytest

from entnoise.cli import cli_main
from entnoise.experiment import _CONFIG_KEYS


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_classicality_boundary(capsys):
    code, out, _ = run_cli(capsys, "check-classicality", "--sxx", "1", "--spp", "1",
                           "--g", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "classical"
    assert doc["certificate_min_eigenvalue"] == pytest.approx(1.0, abs=1e-12)


def test_check_classicality_nonclassical(capsys):
    code, out, _ = run_cli(capsys, "check-classicality", "--g", "0.5")
    assert code == 0
    assert json.loads(out)["verdict"] == "non-classical"


def test_family_flag_is_gone_exits_2(capsys):
    # the sigmas default to zero, the identity screen, so there is no flag to discard them
    code, out, err = run_cli(capsys, "check-classicality", "--family", "identity",
                             "--sxx", "5", "--spp", "5", "--g", "0.1")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --family identity" in err


def test_simulate_writes_csv(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "--output", str(target), "simulate", "--sxx", "0.5",
                         "--spp", "0.5", "--t-max", "1.0", "--grid", "11")
    assert code == 0
    with open(target) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert rows[0]["g11"] == "1.0"
    assert float(rows[-1]["time"]) == pytest.approx(1.0)


def test_noise_test_identity_screen_fails_near_zero(capsys):
    code, out, _ = run_cli(capsys, "noise-test", "--g", "0.2", "--t-max", "0.1", "--grid", "41")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[0]["verdict"] == "False"
    assert float(rows[0]["bound"]) == pytest.approx(0.4)


def test_entanglement_scan_crosses_boundary(capsys):
    code, out, _ = run_cli(capsys, "entanglement-scan", "--g", "0.4", "--steps", "7",
                           "--t-max", "15", "--grid", "800")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 7
    classical = [row["classical"] == "True" for row in rows]
    onsets = [row["onset_time"] for row in rows]
    # below the boundary: onset found; above: none
    assert any(o != "" for o in onsets)
    for is_classical_row, onset in zip(classical, onsets):
        if is_classical_row:
            assert onset == ""
    assert classical[-1] and not classical[0]


@pytest.mark.parametrize("g", ["inf", "-inf", "nan"])
def test_entanglement_scan_non_finite_coupling_exits_3(capsys, g):
    # rejected before the strength grid, so numpy never sees the value and cannot warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "entanglement-scan", f"--g={g}")
    assert code == 3
    assert out == ""
    assert "coupling g must be finite" in err


@pytest.mark.parametrize("command", ["simulate", "noise-test"])
def test_overflowing_flow_exits_2(capsys, command):
    # |g| > 1 is unstable: by t = 750 the covariances overflow double precision;
    # a grid of one chunk is checked once, so the message names its end, after
    # the flag that set it
    code, out, err = run_cli(capsys, command, "--sxx", "1.5", "--spp", "1.5", "--g", "1.5",
                             "--t-max", "1000", "--grid", "5")
    assert code == 2
    assert out == ""
    assert err == ("error: --t-max = 1000: covariances are not finite, or near overflow, "
                   "by t = 1000: the flow leaves double precision over this time span\n")


@pytest.mark.parametrize("argv, expected, message", [
    (("check-classicality", "--g", "1e308"), 2, "error: coupling g = 1e+308 is out of range"),
    (("entanglement-scan", "--g", "1e308"), 2, "error: coupling g = 1e+308 is out of range"),
    (("check-classicality", "--sxx", "1e308", "--spp", "1"), 3,
     "physics constraint rejected: sigma_uu = 1e+308 is not finite, or too large for 2 Sigma"),
    (("noise-test", "--sxx", "1e308", "--spp", "1e308"), 3,
     "physics constraint rejected: sigma_uu = 1e+308 is not finite, or too large for 2 Sigma"),
    (("entanglement-scan", "--g", "0.4", "--s-min", "1e308"), 3,
     "physics constraint rejected: --s-min = 1e+308 is out of range: 2 s overflows"),
    (("entanglement-scan", "--g", "0.4", "--s-max", "1e308"), 3,
     "physics constraint rejected: --s-max = 1e+308 is out of range: 2 s overflows"),
])
def test_overflowing_coupling_or_screen_is_refused_naming_it(capsys, argv, expected, message):
    # refused before 2|g| Delta_1, 2 Sigma or 2 s is formed, so numpy cannot warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err.startswith(message)


# Every float flag of the screen and oracle subcommands at the edge values, and
# the integer sizes at zero and below: per subcommand, rows of (flag, value,
# exit code, message fragment). Exit code 0 rows run to a result with an empty
# stderr. The flag is passed as --flag=value, so that argparse reads "-inf" as
# a value, after base arguments that keep each run small.
SWEEP_BASE = {
    "check-classicality": [],
    "simulate": ["--grid", "5"],
    "noise-test": ["--grid", "5"],
    "entanglement-scan": ["--g", "0.4", "--steps", "2", "--grid", "100"],
    "oracle-verify": ["--dim", "3", "--steps", "1"],
}
SWEEP = {
    "check-classicality": [
        ("--sxx", "nan", 3, "sigma_uu = nan"),
        ("--sxx", "inf", 3, "sigma_uu = inf"),
        ("--sxx", "-inf", 3, "sigma_uu = -inf"),
        ("--sxx", "1e308", 3, "sigma_uu = 1e+308"),
        ("--sxx", "-1e308", 3, "sigma_uu = -1e+308"),
        ("--sxx", "0", 0, ""),
        ("--sxx", "-0", 0, ""),
        ("--sxx", "1e-320", 0, ""),
        ("--sxx", "-1", 3, "displacement moment matrix is not PSD"),
        ("--sxx", "1e200", 0, ""),
        ("--spp", "nan", 3, "sigma_vv = nan"),
        ("--spp", "inf", 3, "sigma_vv = inf"),
        ("--spp", "-inf", 3, "sigma_vv = -inf"),
        ("--spp", "1e308", 3, "sigma_vv = 1e+308"),
        ("--spp", "-1e308", 3, "sigma_vv = -1e+308"),
        ("--spp", "0", 0, ""),
        ("--spp", "-0", 0, ""),
        ("--spp", "1e-320", 0, ""),
        ("--spp", "-1", 3, "displacement moment matrix is not PSD"),
        ("--spp", "1e200", 0, ""),
        ("--sxp", "nan", 3, "sigma_uv = nan"),
        ("--sxp", "inf", 3, "sigma_uv = inf"),
        ("--sxp", "-inf", 3, "sigma_uv = -inf"),
        ("--sxp", "1e308", 3, "sigma_uv = 1e+308"),
        ("--sxp", "-1e308", 3, "sigma_uv = -1e+308"),
        ("--sxp", "0", 0, ""),
        ("--sxp", "-0", 0, ""),
        ("--sxp", "1e-320", 0, ""),
        ("--sxp", "-1", 3, "displacement moment matrix is not PSD"),
        ("--sxp", "1e200", 3, "displacement moment matrix is not PSD"),
        ("--g", "nan", 3, "must be finite, got [[0.0, 0.0], [0.0, 0.0]] and nan"),
        ("--g", "inf", 3, "must be finite, got [[0.0, 0.0], [0.0, 0.0]] and inf"),
        ("--g", "-inf", 3, "must be finite, got [[0.0, 0.0], [0.0, 0.0]] and -inf"),
        ("--g", "1e308", 2, "coupling g = 1e+308 is out of range"),
        ("--g", "-1e308", 2, "coupling g = -1e+308 is out of range"),
        ("--g", "0", 0, ""),
        ("--g", "-0", 0, ""),
        ("--g", "1e-320", 0, ""),
        ("--g", "-1", 0, ""),
        ("--g", "1e200", 0, ""),
        ("--tol", "nan", 2, "argument --tol: must be finite, got 'nan'"),
        ("--tol", "inf", 2, "argument --tol: must be finite, got 'inf'"),
        ("--tol", "-inf", 2, "argument --tol: must be finite, got '-inf'"),
        ("--tol", "1e308", 0, ""),
        ("--tol", "-1e308", 2, "argument --tol: must be >= 0, got '-1e308'"),
        ("--tol", "0", 0, ""),
        ("--tol", "-0", 0, ""),
        ("--tol", "1e-320", 0, ""),
        ("--tol", "-1", 2, "argument --tol: must be >= 0, got '-1'"),
        ("--tol", "1e200", 0, ""),
    ],
    "simulate": [
        ("--sxx", "nan", 3, "sigma_uu = nan"),
        ("--sxx", "inf", 3, "sigma_uu = inf"),
        ("--sxx", "-inf", 3, "sigma_uu = -inf"),
        ("--sxx", "1e308", 3, "sigma_uu = 1e+308"),
        ("--sxx", "-1e308", 3, "sigma_uu = -1e+308"),
        ("--sxx", "0", 0, ""),
        ("--sxx", "-0", 0, ""),
        ("--sxx", "1e-320", 0, ""),
        ("--sxx", "-1", 3, "displacement moment matrix is not PSD"),
        ("--sxx", "1e200", 2, "--t-max = 10: covariances are not finite"),
        ("--spp", "nan", 3, "sigma_vv = nan"),
        ("--spp", "inf", 3, "sigma_vv = inf"),
        ("--spp", "-inf", 3, "sigma_vv = -inf"),
        ("--spp", "1e308", 3, "sigma_vv = 1e+308"),
        ("--spp", "-1e308", 3, "sigma_vv = -1e+308"),
        ("--spp", "0", 0, ""),
        ("--spp", "-0", 0, ""),
        ("--spp", "1e-320", 0, ""),
        ("--spp", "-1", 3, "displacement moment matrix is not PSD"),
        ("--spp", "1e200", 2, "--t-max = 10: covariances are not finite"),
        ("--sxp", "nan", 3, "sigma_uv = nan"),
        ("--sxp", "inf", 3, "sigma_uv = inf"),
        ("--sxp", "-inf", 3, "sigma_uv = -inf"),
        ("--sxp", "1e308", 3, "sigma_uv = 1e+308"),
        ("--sxp", "-1e308", 3, "sigma_uv = -1e+308"),
        ("--sxp", "0", 0, ""),
        ("--sxp", "-0", 0, ""),
        ("--sxp", "1e-320", 0, ""),
        ("--sxp", "-1", 3, "displacement moment matrix is not PSD"),
        ("--sxp", "1e200", 3, "displacement moment matrix is not PSD"),
        ("--g", "nan", 3, "screen moments must be finite, got (0.0, 0.0, nan"),
        ("--g", "inf", 3, "screen moments must be finite, got (0.0, 0.0, inf"),
        ("--g", "-inf", 3, "screen moments must be finite, got (0.0, 0.0, -inf"),
        ("--g", "1e308", 2, "--t-max = 10: covariances are not finite"),
        ("--g", "-1e308", 2, "--t-max = 10: covariances are not finite"),
        ("--g", "0", 0, ""),
        ("--g", "-0", 0, ""),
        ("--g", "1e-320", 0, ""),
        ("--g", "-1", 0, ""),
        ("--g", "1e200", 2, "--t-max = 10: covariances are not finite"),
        ("--t-max", "nan", 2, "argument --t-max: must be finite, got 'nan'"),
        ("--t-max", "inf", 2, "argument --t-max: must be finite, got 'inf'"),
        ("--t-max", "-inf", 2, "argument --t-max: must be finite, got '-inf'"),
        ("--t-max", "1e308", 2, "--t-max = 1e+308: covariances are not finite"),
        ("--t-max", "-1e308", 2, "argument --t-max: must be > 0, got '-1e308'"),
        ("--t-max", "0", 2, "argument --t-max: must be > 0, got '0'"),
        ("--t-max", "-0", 2, "argument --t-max: must be > 0, got '-0'"),
        ("--t-max", "1e-320", 0, ""),
        ("--t-max", "-1", 2, "argument --t-max: must be > 0, got '-1'"),
        ("--t-max", "1e200", 2, "--t-max = 1e+200: covariances are not finite"),
    ],
    "noise-test": [
        ("--sxx", "nan", 3, "sigma_uu = nan"),
        ("--sxx", "inf", 3, "sigma_uu = inf"),
        ("--sxx", "-inf", 3, "sigma_uu = -inf"),
        ("--sxx", "1e308", 3, "sigma_uu = 1e+308"),
        ("--sxx", "-1e308", 3, "sigma_uu = -1e+308"),
        ("--sxx", "0", 0, ""),
        ("--sxx", "-0", 0, ""),
        ("--sxx", "1e-320", 0, ""),
        ("--sxx", "-1", 3, "displacement moment matrix is not PSD"),
        ("--sxx", "1e200", 2, "--t-max = 0.3: covariances are not finite"),
        ("--spp", "nan", 3, "sigma_vv = nan"),
        ("--spp", "inf", 3, "sigma_vv = inf"),
        ("--spp", "-inf", 3, "sigma_vv = -inf"),
        ("--spp", "1e308", 3, "sigma_vv = 1e+308"),
        ("--spp", "-1e308", 3, "sigma_vv = -1e+308"),
        ("--spp", "0", 0, ""),
        ("--spp", "-0", 0, ""),
        ("--spp", "1e-320", 0, ""),
        ("--spp", "-1", 3, "displacement moment matrix is not PSD"),
        ("--spp", "1e200", 2, "--t-max = 0.3: covariances are not finite"),
        ("--sxp", "nan", 3, "sigma_uv = nan"),
        ("--sxp", "inf", 3, "sigma_uv = inf"),
        ("--sxp", "-inf", 3, "sigma_uv = -inf"),
        ("--sxp", "1e308", 3, "sigma_uv = 1e+308"),
        ("--sxp", "-1e308", 3, "sigma_uv = -1e+308"),
        ("--sxp", "0", 0, ""),
        ("--sxp", "-0", 0, ""),
        ("--sxp", "1e-320", 0, ""),
        ("--sxp", "-1", 3, "displacement moment matrix is not PSD"),
        ("--sxp", "1e200", 3, "displacement moment matrix is not PSD"),
        ("--g", "nan", 3, "screen moments must be finite, got (0.0, 0.0, nan"),
        ("--g", "inf", 3, "screen moments must be finite, got (0.0, 0.0, inf"),
        ("--g", "-inf", 3, "screen moments must be finite, got (0.0, 0.0, -inf"),
        ("--g", "1e308", 2, "--t-max = 0.3: covariances are not finite"),
        ("--g", "-1e308", 2, "--t-max = 0.3: covariances are not finite"),
        ("--g", "0", 0, ""),
        ("--g", "-0", 0, ""),
        ("--g", "1e-320", 0, ""),
        ("--g", "-1", 0, ""),
        ("--g", "1e200", 2, "--t-max = 0.3: covariances are not finite"),
        ("--t-max", "nan", 2, "argument --t-max: must be finite, got 'nan'"),
        ("--t-max", "inf", 2, "argument --t-max: must be finite, got 'inf'"),
        ("--t-max", "-inf", 2, "argument --t-max: must be finite, got '-inf'"),
        ("--t-max", "1e308", 2, "--t-max = 1e+308: covariances are not finite"),
        ("--t-max", "-1e308", 2, "argument --t-max: must be > 0, got '-1e308'"),
        ("--t-max", "0", 2, "argument --t-max: must be > 0, got '0'"),
        ("--t-max", "-0", 2, "argument --t-max: must be > 0, got '-0'"),
        ("--t-max", "1e-320", 0, ""),
        ("--t-max", "-1", 2, "argument --t-max: must be > 0, got '-1'"),
        ("--t-max", "1e200", 2, "--t-max = 1e+200: covariances are not finite"),
    ],
    "entanglement-scan": [
        ("--g", "nan", 3, "coupling g must be finite, got nan"),
        ("--g", "inf", 3, "coupling g must be finite, got inf"),
        ("--g", "-inf", 3, "coupling g must be finite, got -inf"),
        ("--g", "1e308", 2, "coupling g = 1e+308 is out of range"),
        ("--g", "-1e308", 2, "coupling g = -1e+308 is out of range"),
        ("--g", "0", 0, ""),
        ("--g", "-0", 0, ""),
        ("--g", "1e-320", 0, ""),
        ("--g", "-1", 0, ""),
        ("--g", "1e200", 2, "--t-max = 25: covariances are not finite"),
        ("--s-min", "nan", 2, "argument --s-min: must be finite, got 'nan'"),
        ("--s-min", "inf", 2, "argument --s-min: must be finite, got 'inf'"),
        ("--s-min", "-inf", 2, "argument --s-min: must be finite, got '-inf'"),
        ("--s-min", "1e308", 3, "--s-min = 1e+308 is out of range"),
        ("--s-min", "-1e308", 3, "--s-min = -1e+308 is out of range"),
        ("--s-min", "0", 0, ""),
        ("--s-min", "-0", 0, ""),
        ("--s-min", "1e-320", 0, ""),
        ("--s-min", "-1", 3, "diffusion matrix Y is not PSD"),
        ("--s-min", "1e200", 2, "--t-max = 25: covariances are not finite"),
        ("--s-max", "nan", 2, "argument --s-max: must be finite, got 'nan'"),
        ("--s-max", "inf", 2, "argument --s-max: must be finite, got 'inf'"),
        ("--s-max", "-inf", 2, "argument --s-max: must be finite, got '-inf'"),
        ("--s-max", "1e308", 3, "--s-max = 1e+308 is out of range"),
        ("--s-max", "-1e308", 3, "--s-max = -1e+308 is out of range"),
        ("--s-max", "0", 0, ""),
        ("--s-max", "-0", 0, ""),
        ("--s-max", "1e-320", 0, ""),
        ("--s-max", "-1", 3, "diffusion matrix Y is not PSD"),
        ("--s-max", "1e200", 2, "--t-max = 25: covariances are not finite"),
        ("--t-max", "nan", 2, "argument --t-max: must be finite, got 'nan'"),
        ("--t-max", "inf", 2, "argument --t-max: must be finite, got 'inf'"),
        ("--t-max", "-inf", 2, "argument --t-max: must be finite, got '-inf'"),
        ("--t-max", "1e308", 2, "--t-max = 1e+308: covariances are not finite"),
        ("--t-max", "-1e308", 2, "argument --t-max: must be > 0, got '-1e308'"),
        ("--t-max", "0", 2, "argument --t-max: must be > 0, got '0'"),
        ("--t-max", "-0", 2, "argument --t-max: must be > 0, got '-0'"),
        ("--t-max", "1e-320", 2,
         "--t-max = 9.99989e-321: time step 9.88131e-323 is below the smallest normal double"),
        ("--t-max", "-1", 2, "argument --t-max: must be > 0, got '-1'"),
        ("--t-max", "1e200", 2, "--t-max = 1e+200: covariances are not finite"),
        ("--steps", "0", 2, "argument --steps: must be >= 1, got '0'"),
        ("--steps", "-0", 2, "argument --steps: must be >= 1, got '-0'"),
        ("--steps", "-1", 2, "argument --steps: must be >= 1, got '-1'"),
    ],
    "oracle-verify": [
        ("--t", "nan", 2, "argument --t: must be finite, got 'nan'"),
        ("--t", "inf", 2, "argument --t: must be finite, got 'inf'"),
        ("--t", "-inf", 2, "argument --t: must be finite, got '-inf'"),
        ("--t", "1e308", 2, "--t = 1e+308: covariances are not finite"),
        ("--t", "-1e308", 2, "argument --t: must be >= 0, got '-1e308'"),
        ("--t", "0", 0, ""),
        ("--t", "-0", 0, ""),
        ("--t", "1e-320", 0, ""),
        ("--t", "-1", 2, "argument --t: must be >= 0, got '-1'"),
        ("--t", "1e200", 2, "--t = 1e+200: covariances are not finite"),
        ("--dim", "0", 2, "--dim must be at least 3 levels, got 0"),
        ("--dim", "-0", 2, "--dim must be at least 3 levels, got 0"),
        ("--dim", "-1", 2, "--dim must be at least 3 levels, got -1"),
        ("--steps", "0", 2, "argument --steps: must be >= 1, got '0'"),
        ("--steps", "-0", 2, "argument --steps: must be >= 1, got '-0'"),
        ("--steps", "-1", 2, "argument --steps: must be >= 1, got '-1'"),
    ],
}


@pytest.mark.filterwarnings("error")
def test_input_sweep():
    # one in-process run per row; numpy warnings are errors, so none may print
    mismatched = []
    for command, rows in SWEEP.items():
        for flag, value, code, fragment in rows:
            base = list(SWEEP_BASE[command])
            if flag in base:
                del base[base.index(flag):base.index(flag) + 2]
            arg = f"{flag}={value}"
            argv = [arg, command, *base] if flag == "--tol" else [command, *base, arg]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli_main(argv)
            out, err = out.getvalue(), err.getvalue()
            ok = (out and not err) if code == 0 else (not out and fragment in err)
            if status != code or not ok:
                mismatched.append((command, flag, value, status, err.strip()[-120:]))
    assert not mismatched, mismatched


def test_overflowing_certificate_exits_2(capsys):
    # each value passes its own bound, but an entry of Y - 2i|g| Delta_1 has a
    # modulus above the largest double, so the certificate is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "check-classicality", "--sxx", "4e307", "--spp", "4e307",
                                 "--sxp", "4e307", "--g", "8.98e307")
    assert code == 2
    assert out == ""
    assert err == "error: matrix entries too large: the least eigenvalue is not finite\n"


def test_entanglement_scan_zero_steps_exits_2(capsys):
    code, out, err = run_cli(capsys, "entanglement-scan", "--g", "0.4", "--steps", "0")
    assert code == 2
    assert out == ""
    assert "argument --steps: must be >= 1, got '0'" in err


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--grid", "1"), "must be >= 2, got '1'"),
    (("simulate", "--grid", "-5"), "must be >= 2, got '-5'"),
    (("simulate", "--grid", "2.5"), "invalid int value: '2.5'"),
    (("noise-test", "--grid", "2"), "must be >= 3, got '2'"),
    (("entanglement-scan", "--g", "0.4", "--grid", "99"), "must be >= 100, got '99'"),
])
def test_bad_grid_size_exits_2_naming_the_flag(capsys, monkeypatch, argv, message):
    # refused while parsing, before the screen, the dynamics or numpy see it
    monkeypatch.setattr("entnoise.cli.build_dynamics", lambda *args: pytest.fail("built"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: {message}" in err


def test_memory_error_exits_2(capsys, monkeypatch):
    # numpy's allocation failure is a MemoryError; a grid too large for memory
    # gets an error line, not a traceback (the failure is staged on a small grid)
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr("entnoise.cli.propagate_grid", refuse)
    code, out, err = run_cli(capsys, "simulate", "--grid", "11")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_oracle_verify_table(capsys):
    code, out, _ = run_cli(capsys, "oracle-verify", "--dim", "7", "--t", "0.3",
                           "--steps", "4", "8")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    checks = {row["check"] for row in rows}
    assert {"trotter-covariance", "screen-moments", "gate-identity"} <= checks
    # the oracle's notes reach the table: at this truncation both displacement
    # screens leak past the 1e-4 threshold, the identity screen does not, and
    # only circuit rows carry notes
    leaks = {"isotropic-0.25": (1.3e-4, 1.5e-4), "anisotropic": (2.3e-4, 2.5e-4)}
    for row in rows:
        if row["check"] == "trotter-covariance" and row["screen"] in leaks:
            prefix = "carrier truncation leakage up to "
            assert row["notes"].startswith(prefix)
            low, high = leaks[row["screen"]]
            assert low < float(row["notes"][len(prefix):]) < high
        else:
            assert row["notes"] == ""
    gate_dev = [float(r["deviation"]) for r in rows if r["check"] == "gate-identity"]
    assert gate_dev[0] < 1e-6
    # trotter deviation shrinks with more steps for each screen
    for label in ("identity", "isotropic-0.25", "anisotropic"):
        devs = [float(r["deviation"]) for r in rows
                if r["check"] == "trotter-covariance" and r["screen"] == label]
        assert devs[0] > devs[-1]


def test_plan_experiment_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "platinum.cfg"
    cfg.write_text(
        "# platinum pair at millihertz\n"
        "mass_density = 22000\n"
        "frequency = 1e-3\n"
        "quality_factor = 1e9\n"
        "temperature = 0.01\n"
    )
    code, out, _ = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    g_hz = doc["reports"]["hz-cycles"]["g_per_s"]
    assert g_hz == pytest.approx(0.23e-3, rel=0.05)
    assert doc["reports"]["rad-s"]["g_per_s"] / g_hz == pytest.approx(2 * math.pi)
    assert 1e3 <= doc["reports"]["hz-cycles"]["tau_s"] <= 1e4


def test_plan_experiment_csv_format(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "mass_density = 22000\nfrequency = 1e-3\nquality_factor = 1e9\ntemperature = 0.01\n"
    )
    code, out, _ = run_cli(capsys, "--format", "csv", "plan-experiment", "--config", str(cfg))
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["key", "value"]
    keys = {row[0] for row in rows[1:]}
    assert "reports.hz-cycles.g_per_s" in keys


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mass_density = 22000\nwhat even is this line\n")
    code, _, err = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err


def test_omega_convention_config_key_exits_2(tmp_path, capsys):
    # plan-experiment reports both conventions; the config has no such key
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("mass_density = 22000\nfrequency = 1e-3\nquality_factor = 1e9\n"
                   "temperature = 0.01\nomega_convention = bogus\n")
    code, out, err = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "line 5: unknown config key 'omega_convention'" in err


def test_infinite_shot_time_exits_3(tmp_path, capsys):
    # an infinite shot time would print Infinity, which is not JSON
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("mass_density = 22000\nfrequency = 1e-3\nquality_factor = 1e9\n"
                   "temperature = 0.01\nshot_time = inf\n")
    code, out, err = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert "shot_time must be positive and finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("figures, key", [
    # a figure of Infinity or NaN would not be JSON
    (dict(frequency=1e300, quality_factor=1e-300, temperature=1e300), "kappa_per_s"),
    (dict(mass_density=1e308), "t_int_target_s"),
    # a zero divisor and a square past the double range
    (dict(frequency=1e-300), "nbar"),
    (dict(mass_density=1e-300), "t_int_target_s"),
])
def test_budget_figure_out_of_double_range_exits_3(tmp_path, capsys, figures, key):
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({"mass_density": 22000, "frequency": 1e-3, "quality_factor": 1e9,
                               "temperature": 0.01, **figures}))
    code, out, err = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert f"{key} must be positive and finite" in err


def test_underflowing_occupation_is_refused_without_a_regime_warning(tmp_path, capsys):
    # nbar underflows to 0: the refusal comes first, not a UserWarning about
    # the regime of the figure that is then refused
    cfg = tmp_path / "cold.cfg"
    cfg.write_text(_CONFIG.replace("temperature = 0.01", "temperature = 1e-320"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert "nbar must be positive and finite, got 0.0 (hz-cycles convention" in err
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("figures, code, message", [
    # float(True) would read a JSON true as 1 K
    (dict(temperature=True), 2, "cannot parse temperature = True"),
    # the config has no omega key, so the message names frequency
    (dict(frequency=0), 3, "frequency in rad/s must be positive and finite, got 0.0"),
    (dict(frequency=1e308), 3, "frequency in rad/s must be positive and finite, got inf"),
])
def test_config_figure_is_refused_by_its_own_key(tmp_path, capsys, figures, code, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mass_density": 22000, "frequency": 1e-3, "quality_factor": 1e9,
                               "temperature": 0.01, **figures}))
    status, out, err = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert (status, out) == (code, "")
    assert message in err


def test_unphysical_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "mass_density = -5\nfrequency = 1e-3\nquality_factor = 1e9\ntemperature = 0.01\n"
    )
    code, _, err = run_cli(capsys, "plan-experiment", "--config", str(cfg))
    assert code == 3
    assert "physics" in err


def test_non_psd_screen_exits_3(capsys):
    code, _, err = run_cli(capsys, "check-classicality", "--sxx", "0.1", "--spp", "0.1",
                           "--sxp", "0.9", "--g", "0.1")
    assert code == 3


@pytest.mark.parametrize("flags", [
    ("--sxx", "nan", "--spp", "1", "--g", "0.5"),
    ("--sxx", "1", "--spp", "1", "--g", "nan"),
    ("--sxx", "inf", "--spp", "1", "--g", "0.5"),
])
def test_non_finite_input_exits_3(capsys, flags):
    code, out, err = run_cli(capsys, "check-classicality", *flags)
    assert code == 3
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv, flag", [
    (("simulate", "--t-max", "nan"), "--t-max"),
    (("noise-test", "--t-max", "inf"), "--t-max"),
    (("entanglement-scan", "--g", "0.4", "--t-max=-inf"), "--t-max"),
    (("oracle-verify", "--t", "nan"), "--t"),
    # the isotropic screen strengths of the scan go through the same check
    (("entanglement-scan", "--g", "0.4", "--s-min", "nan"), "--s-min"),
    (("entanglement-scan", "--g", "0.4", "--s-min", "inf"), "--s-min"),
    (("entanglement-scan", "--g", "0.4", "--s-max", "nan"), "--s-max"),
    (("entanglement-scan", "--g", "0.4", "--s-max", "inf"), "--s-max"),
])
def test_non_finite_time_exits_2(capsys, argv, flag):
    # rejected while parsing, so numpy never sees the value and cannot warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be finite" in err


@pytest.mark.parametrize("tol, message", [
    ("nan", "must be finite"), ("inf", "must be finite"), ("-1", "must be >= 0"),
])
@pytest.mark.parametrize("argv", [
    ("check-classicality", "--sxx", "1", "--spp", "1", "--sxp", "0", "--g", "0.1"),
    ("entanglement-scan", "--g", "0.4", "--steps", "2", "--grid", "200"),
])
def test_bad_tolerance_exits_2(capsys, tol, message, argv):
    code, out, err = run_cli(capsys, f"--tol={tol}", *argv)
    assert code == 2
    assert out == ""
    assert f"argument --tol: {message}" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--t-max", "-1"),
    ("noise-test", "--t-max", "-1"),
    ("entanglement-scan", "--g", "0.4", "--t-max", "-5"),
    ("oracle-verify", "--t", "-1"),
    ("simulate", "--t-max", "0"),
    ("noise-test", "--t-max", "0"),
    ("entanglement-scan", "--g", "0.4", "--t-max", "0"),
])
def test_descending_time_grid_exits_2(capsys, argv):
    # a grid that does not increase is rejected while parsing, in terms of the
    # flag that set it; oracle-verify's single time may be 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    relation = ">=" if argv[-2] == "--t" else ">"
    assert f"argument {argv[-2]}: must be {relation} 0, got {argv[-1]!r}" in err


def test_oracle_verify_accepts_time_zero(capsys):
    code, out, _ = run_cli(capsys, "oracle-verify", "--dim", "4", "--t", "0", "--steps", "2")
    assert code == 0
    assert "trotter-covariance" in out


@pytest.mark.parametrize("steps", [("4", "0"), ("0",), ("8", "-3", "16")])
def test_oracle_verify_rejects_bad_steps_before_any_work(capsys, monkeypatch, steps):
    calls = []
    monkeypatch.setattr("entnoise.cli.trotter_evolve", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "oracle-verify", "--dim", "4", "--t", "0.3",
                             "--steps", *steps)
    assert code == 2
    assert out == ""
    assert "argument --steps: must be >= 1" in err
    assert calls == []


def test_oracle_verify_below_minimum_truncation_exits_2(capsys):
    code, out, err = run_cli(capsys, "oracle-verify", "--dim", "1", "--t", "0.3",
                             "--steps", "4")
    assert code == 2
    assert out == ""
    assert "at least 3 levels" in err


@pytest.mark.parametrize("dim", ["0", "-1", "2"])
def test_oracle_verify_rejects_small_dim_before_any_work(capsys, dim):
    code, out, err = run_cli(capsys, "oracle-verify", "--dim", dim, "--t", "0.3",
                             "--steps", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: --dim must be at least 3 levels, got {dim}\n"


@pytest.mark.parametrize("argv", [
    ("check-classicality", "--screen-file", "{missing}"),
    ("check-classicality", "--screen-file", "{directory}"),
    ("plan-experiment", "--config", "{missing}"),
    ("plan-experiment", "--config", "{directory}"),
])
def test_unreadable_input_file_exits_2(tmp_path, capsys, argv):
    paths = {"missing": tmp_path / "absent.txt", "directory": tmp_path}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    target = tmp_path / "absent" / "out.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "--output", str(target), "check-classicality",
                             "--g", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ")
    # the message names the path asked for, not the temporary file beside it
    assert repr(str(target)) in err and ".entnoise-" not in err
    assert not any(tmp_path.iterdir())


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_unknown_flag_exits_2(capsys):
    assert run_cli(capsys, "simulate", "--bogus")[0] == 2


def test_screen_file_input(tmp_path, capsys):
    screen_file = tmp_path / "screen.txt"
    screen_file.write_text("family = displacement\nsigma_uu = 1.0\nsigma_vv = 1.0\n")
    code, out, _ = run_cli(capsys, "check-classicality", "--screen-file", str(screen_file),
                           "--g", "0.5")
    assert code == 0
    assert json.loads(out)["classical"] is True


def test_malformed_screen_file_exits_2(tmp_path, capsys):
    screen_file = tmp_path / "screen.txt"
    screen_file.write_text("family = displacement\nsigma_uu 1.0\n")
    code, out, err = run_cli(capsys, "check-classicality", "--screen-file", str(screen_file))
    assert code == 2
    assert out == ""
    assert "line 2: expected 'key = value'" in err


_CONFIG = "mass_density = 22000\nfrequency = 1e-3\nquality_factor = 1e9\ntemperature = 0.01\n"


@pytest.mark.parametrize("command, text, message", [
    # a repeated key names both lines instead of letting the second win
    ("check-classicality", "family = displacement\nsigma_uu = 1\nsigma_vv = 1\nsigma_uu = 9\n",
     "line 4: sigma_uu is already set on line 2"),
    ("check-classicality", "family = identity\n# again\nfamily = displacement\n",
     "line 3: family is already set on line 1"),
    ("plan-experiment", _CONFIG + "mass_density = 1\n",
     "line 5: mass_density is already set on line 1"),
    ("plan-experiment", '{"mass_density": 1, "mass_density": 22000, "frequency": 1e-3, '
     '"quality_factor": 1e9, "temperature": 0.01}', "JSON config sets mass_density twice"),
    # a number that does not parse names its line and key, as in a config
    ("check-classicality", "family = displacement\nsigma_uu = abc\n",
     "line 2: cannot parse sigma_uu = 'abc'"),
    ("plan-experiment", _CONFIG.replace("1e9", "1e9x"), "line 3: cannot parse quality_factor = '1e9x'"),
])
def test_key_value_file_is_refused_naming_its_lines(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--config" if command == "plan-experiment" else "--screen-file"
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


EDGE_FIGURES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "-0", "1e-320", "-1", "1e200")


@pytest.mark.parametrize("form", ["key-value", "json"])
def test_config_sweep(tmp_path, form):
    # every config key at every edge figure, one in-process run each: a report
    # whose figures are all finite, or exit 2 or 3 with a message naming the
    # key, and never a RuntimeWarning (a low temperature's regime warning is fine)
    base = {"mass_density": "22000", "frequency": "1e-3", "quality_factor": "1e9",
            "temperature": "0.01"}
    path = tmp_path / "edge.cfg"
    mismatched = []
    for key in _CONFIG_KEYS:
        for value in EDGE_FIGURES:
            fields = {**base, key: value}
            path.write_text(json.dumps({k: float(v) for k, v in fields.items()})
                            if form == "json" else
                            "".join(f"{k} = {v}\n" for k, v in fields.items()))
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                status = cli_main(["plan-experiment", "--config", str(path)])
            out, err = out.getvalue(), err.getvalue()
            if status == 0:
                figures = list(_numbers(json.loads(out, parse_constant=float)))
                ok = figures and all(map(math.isfinite, figures))
            else:
                ok = status in (2, 3) and not out and key in err
            if not ok or any(issubclass(w.category, RuntimeWarning) for w in caught):
                mismatched.append((key, value, status, err.strip()[-120:]))
    assert not mismatched, mismatched


def _numbers(doc):
    """Every number in a parsed JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _numbers(item)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def test_screen_file_skips_comments_and_blank_lines(tmp_path, capsys):
    screen_file = tmp_path / "screen.txt"
    screen_file.write_text("# isotropic screen\n\nfamily = displacement  # the only family\n"
                           "sigma_uu = 1.0\n   \n# sigma_uv = 5\nsigma_vv = 1.0\n")
    code, out, _ = run_cli(capsys, "check-classicality", "--screen-file", str(screen_file),
                           "--g", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["screen"] == {"sigma_uu": 1.0, "sigma_vv": 1.0, "sigma_uv": 0.0}
    assert doc["classical"] is True


def test_seeded_random_start_is_reproducible(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--seed", "7", "simulate", "--sxx", "2.0",
                               "--spp", "2.0", "--g", "0.3", "--gamma0", "random",
                               "--t-max", "0.05", "--grid", "21")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1] != "0.0,1.0,0.0,0.0,0.0,1.0,0.0,0.0,1.0,0.0,1.0"


def test_noise_test_has_no_initial_state_flag(capsys):
    # the excess is Y_t's p diagonal for any start, so noise-test takes none
    code, out, err = run_cli(capsys, "noise-test", "--gamma0", "random")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --gamma0 random" in err


def test_plan_experiment_has_no_convention_flag(tmp_path, capsys):
    # the plan reports both conventions; no flag picks one
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "mass_density = 22000\nfrequency = 1e-3\nquality_factor = 1e9\ntemperature = 0.01\n"
    )
    code, out, err = run_cli(capsys, "--omega-convention", "rad-s",
                             "plan-experiment", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "invalid choice: 'rad-s'" in err
