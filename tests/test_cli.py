import csv
import json
import math
import warnings

import pytest

from entnoise.cli import cli_main


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
    # a grid of one chunk is checked once, so the message names its end
    code, out, err = run_cli(capsys, command, "--sxx", "1.5", "--spp", "1.5", "--g", "1.5",
                             "--t-max", "1000", "--grid", "5")
    assert code == 2
    assert out == ""
    assert err == ("error: covariances are not finite, or near overflow, by t = 1000: "
                   "the flow leaves double precision over this time span\n")


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
    assert doc["selected_convention"] == "hz-cycles"
    assert 1e3 <= doc["selected_report"]["tau_s"] <= 1e4


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
    # the convention is the --omega-convention flag; the config has no such key
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
        code, out, _ = run_cli(capsys, "--seed", "7", "noise-test", "--sxx", "2.0",
                               "--spp", "2.0", "--g", "0.3", "--gamma0", "random",
                               "--t-max", "0.05", "--grid", "21")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
