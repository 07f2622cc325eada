"""Command line front end.

Subcommands: check-classicality, simulate, noise-test, entanglement-scan,
oracle-verify, plan-experiment. Exit codes: 0 success, 2 usage, parse or
file error, 3 physics-constraint rejection.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .dynamics import build_dynamics, propagate, propagate_grid
from .entanglement import entanglement_onset
from .errors import PhysicsRejection
from .experiment import parse_config_text, plan_experiment
from .fock import (MIN_LEVELS, covariance_of, gate_identity_check, moments_numeric,
                   trotter_evolve, vacuum_state)
from .noise import run_noise_test
from .phasespace import TOL_PSD
from .sampling import random_physical_cov
from .screens import (
    DisplacementScreen,
    is_classical,
    moments_from_displacement,
    moments_with_coupling,
    screen_from_text,
)
from .states import vacuum_cov


def _screen_from_args(args) -> DisplacementScreen:
    """Resolve the screen flags: a screen file, else the sigmas (all zero is identity)."""
    if args.screen_file:
        with open(args.screen_file) as fh:
            screen = screen_from_text(fh.read())
        return screen if screen is not None else DisplacementScreen(0.0, 0.0, 0.0)
    return DisplacementScreen(args.sxx, args.spp, args.sxp)


def _dynamics_from_args(args):
    screen = _screen_from_args(args)
    moments = moments_from_displacement(screen)
    if args.g is not None:
        moments = moments_with_coupling(moments.Y, args.g)
    return build_dynamics(moments)


def _over_span(flag: str, value: float, propagation):
    """propagation(), naming the flag that set its time span if it refuses that span."""
    try:
        return propagation()
    except ValueError as exc:  # every other input has passed its own check by now
        raise type(exc)(f"{flag} = {value:g}: {exc}") from None


def _write_output(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".entnoise-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the path asked for, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _render(payload, fmt: str) -> str:
    """payload is either a dict (document) or a list of dicts (table)."""
    if fmt == "json":
        return json.dumps(payload, indent=2, default=float)
    buf = io.StringIO()
    if isinstance(payload, dict):
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        flat = json.loads(json.dumps(payload, default=float))

        def emit(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    emit(f"{prefix}.{k}" if prefix else k, v)
            elif isinstance(value, list):
                writer.writerow([prefix, "; ".join(map(str, value))])
            else:
                writer.writerow([prefix, value])

        emit("", flat)
    else:
        if not payload:
            return ""
        writer = csv.writer(buf)
        writer.writerow(payload[0].keys())
        writer.writerows(row.values() for row in payload)
    return buf.getvalue()


def _number(cast, low=-math.inf, relation=">="):
    """argparse type: text read by cast (float or int), finite and value <relation> low."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < low or relation == ">" and value == low:
            raise argparse.ArgumentTypeError(f"must be {relation} {low:g}, got {text!r}")
        return value
    return parse


def _add_screen_flags(parser):
    parser.add_argument("--screen-file", help="screen spec as a key-value text block")
    parser.add_argument("--sxx", type=float, default=0.0,
                        help="displacement variance driving x (sigma_uu)")
    parser.add_argument("--spp", type=float, default=0.0,
                        help="displacement variance driving p (sigma_vv)")
    parser.add_argument("--sxp", type=float, default=0.0,
                        help="displacement covariance (sigma_uv)")
    parser.add_argument("--g", type=float, default=None,
                        help="coupling strength (default: the screen's own eta)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entnoise",
        description="Screened-exchange oscillator simulations and experiment budgeting",
    )
    parser.add_argument("--version", action="version", version=f"entnoise {__version__}")
    parser.add_argument("--tol", type=_number(float, 0.0), default=TOL_PSD,
                        help="PSD decision tolerance, finite and >= 0 (default 1e-10)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for random inputs")
    parser.add_argument("--output", default=None, help="write to this path (atomic)")
    parser.add_argument("--format", choices=["json", "csv"], default=None,
                        help="output format (default: json for reports, csv for tables)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-classicality", help="decide whether a screen forbids entanglement")
    _add_screen_flags(p)
    p.set_defaults(run=_cmd_check_classicality)

    p = sub.add_parser("simulate", help="covariance trajectory under the screened dynamics")
    _add_screen_flags(p)
    p.add_argument("--t-max", type=_number(float, 0.0, ">"), default=10.0)
    p.add_argument("--grid", type=_number(int, 2), default=501)
    p.add_argument("--gamma0", choices=["vacuum", "random"], default="vacuum")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("noise-test", help="excess momentum-noise rate against the bound")
    _add_screen_flags(p)
    p.add_argument("--t-max", type=_number(float, 0.0, ">"), default=0.3)
    p.add_argument("--grid", type=_number(int, 3), default=201)
    p.set_defaults(run=_cmd_noise_test)

    p = sub.add_parser("entanglement-scan",
                       help="entanglement onset versus isotropic screen strength")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--s-min", type=_number(float), default=0.0)
    p.add_argument("--s-max", type=_number(float), default=None,
                   help="default: 1.5 |g| (just past the classical boundary)")
    p.add_argument("--steps", type=_number(int, 1), default=16)
    p.add_argument("--t-max", type=_number(float, 0.0, ">"), default=25.0)
    p.add_argument("--grid", type=_number(int, 100), default=2000)
    p.set_defaults(run=_cmd_entanglement_scan)

    p = sub.add_parser("oracle-verify",
                       help="cross-validate the Gaussian formulas against the circuit oracle")
    p.add_argument("--dim", type=int, default=12, help="Fock truncation per mode")
    p.add_argument("--t", type=_number(float, 0.0), default=0.5)
    p.add_argument("--steps", type=_number(int, 1), nargs="+", default=[8, 16, 32])
    p.set_defaults(run=_cmd_oracle_verify)

    p = sub.add_parser("plan-experiment", help="budget a torsion-pendulum configuration")
    p.add_argument("--config", required=True, help="key-value or JSON config file")
    p.set_defaults(run=_cmd_plan_experiment)

    return parser


def _cmd_check_classicality(args):
    screen = _screen_from_args(args)
    moments = moments_from_displacement(screen)
    g = args.g if args.g is not None else moments.eta
    ok, lam = is_classical(moments.Y, g, tol_psd=args.tol)
    return {
        "screen": {"sigma_uu": screen.sigma_uu, "sigma_vv": screen.sigma_vv,
                   "sigma_uv": screen.sigma_uv},
        "g": g,
        "classical": bool(ok),
        "verdict": "classical" if ok else "non-classical",
        "certificate_min_eigenvalue": lam,
    }, "json"


def _cmd_simulate(args):
    dyn = _dynamics_from_args(args)
    gamma0 = (vacuum_cov() if args.gamma0 == "vacuum"
              else random_physical_cov(np.random.default_rng(args.seed)))
    times = np.linspace(0.0, args.t_max, args.grid)
    gammas = _over_span("--t-max", args.t_max, lambda: propagate_grid(gamma0, dyn, times))
    columns = {"time": times.tolist()}
    columns.update((f"g{i + 1}{j + 1}", gammas[:, i, j].tolist())
                   for i in range(4) for j in range(i, 4))
    return [dict(zip(columns, row)) for row in zip(*columns.values())], "csv"


def _cmd_noise_test(args):
    dyn = _dynamics_from_args(args)
    report = _over_span("--t-max", args.t_max,
                        lambda: run_noise_test(dyn, args.t_max, args.grid))
    return list(report.rows()), "csv"


def _cmd_entanglement_scan(args):
    if not math.isfinite(args.g):
        raise PhysicsRejection(f"coupling g must be finite, got {args.g}")
    for flag, s in (("--s-min", args.s_min), ("--s-max", args.s_max)):
        if s is not None and abs(s) > np.finfo(float).max / 2:  # before 2 s is formed
            raise PhysicsRejection(f"{flag} = {s:g} is out of range: 2 s overflows")
    s_max = args.s_max if args.s_max is not None else 1.5 * abs(args.g)
    rows = []
    for s in np.linspace(args.s_min, s_max, args.steps):
        moments = moments_with_coupling(np.diag([2.0 * s, 2.0 * s]), args.g)
        ok, lam = is_classical(moments.Y, args.g, tol_psd=args.tol)
        dyn = build_dynamics(moments)
        onset = _over_span("--t-max", args.t_max, lambda: entanglement_onset(
            dyn, vacuum_cov(), args.t_max, grid=args.grid, tol_psd=args.tol))
        rows.append({
            "screen_strength": s,
            "classical": bool(ok),
            "certificate_min_eigenvalue": lam,
            "onset_time": "" if onset is None else onset,
        })
    return rows, "csv"


def _cmd_oracle_verify(args):
    d = args.dim
    if d < MIN_LEVELS:
        raise ValueError(f"--dim must be at least {MIN_LEVELS} levels, got {d}")
    moments_dim = max(d, 24)
    rows = []
    for label, screen in [
        ("identity", DisplacementScreen(0.0, 0.0, 0.0)),
        ("isotropic-0.25", DisplacementScreen(0.25, 0.25, 0.0)),
        ("anisotropic", DisplacementScreen(0.4, 0.1, 0.1)),
    ]:
        closed = moments_from_displacement(screen)
        dyn = build_dynamics(closed)
        target = _over_span("--t", args.t, lambda: propagate(vacuum_cov(), dyn, args.t))
        oracle_screen = None if label == "identity" else screen
        for n in args.steps:
            state = trotter_evolve(vacuum_state((d, d)), oracle_screen, args.t, n)
            dev = float(np.max(np.abs(covariance_of(state) - target)))
            rows.append({"check": "trotter-covariance", "screen": label,
                         "parameter": n, "deviation": dev, "notes": "; ".join(state.notes)})
        numeric = moments_numeric(oracle_screen, dim=moments_dim)
        rows.append({"check": "screen-moments", "screen": label, "parameter": moments_dim,
                     "deviation": float(np.max(np.abs(numeric.Y - closed.Y))), "notes": ""})
    rows.append({"check": "gate-identity", "screen": "none", "parameter": d,
                 "deviation": gate_identity_check(0.1, d), "notes": ""})
    return rows, "csv"


def _cmd_plan_experiment(args):
    with open(args.config) as fh:
        fields = parse_config_text(fh.read())
    return plan_experiment(fields), "json"


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, natural = args.run(args)
        fmt = args.format if args.format is not None else natural
        _write_output(_render(payload, fmt), args.output)
    except PhysicsRejection as exc:
        print(f"physics constraint rejected: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
