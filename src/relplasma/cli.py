"""Command-line front end: parameter sweeps, limit reports, dispersion scans,
and the self-check suite.

Exit codes: 0 success, 1 numerical failure (a non-converged grid point or a
failed check or an out-of-tolerance report row), 2 usage error.  Output is
deterministic for a fixed spec: floats carry 17 significant digits so a parsed
file reproduces the doubles bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import E2_DEFAULT, Regime, ThermoState, make_kinematics
from .dispersion import DispersionMode, negative_index_scan, solve_dispersion
from .limits import (NRState, RootNotBracketed, nr_plasmon_omega2,
                     pauli_landau, plasmon_frequency, thomas_fermi_mass2,
                     thomas_fermi_mass2_nr)
from .quadrature import DEFAULT_TOL, NonConvergence
from .response import evaluate_point, susceptibilities
from .scalar_functions import (LightConeSingular, drude_scalars,
                               stationary_scalars)

_PI2 = math.pi**2

SWEEP_FIELDS = ("t", "zeta", "omega", "qmag", "aStar", "bStar", "cStar",
                "eps", "muInv", "epsPrime", "tau", "chiE", "chiM", "regime",
                "errEst", "flags")

# omega^2 - qmag^2 at or beyond this sits in the pair continuum: refused up front
PAIR_THRESHOLD = 4.0

# below this the permeability is effectively singular: row flagged, not divided
POLE_GUARD = 1e-12

_CONFIG_KEYS = frozenset(
    {"t", "zeta", "omega", "q", "regime", "tol", "e2", "format", "out"})


class UsageError(ValueError):
    """Bad invocation: reported on stderr, exit code 2."""


def parse_axis(text: str) -> tuple[float, ...]:
    """Grid axis syntax: a scalar, a comma list, or an inclusive lo:hi:n range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be lo:hi:n, got {text!r}")
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
        if n < 2:
            raise ValueError("range needs at least two points")
        return tuple(float(x) for x in np.linspace(lo, hi, n))
    if "," in text:
        return tuple(float(tok) for tok in text.split(","))
    return (float(text),)


def resolve_tolerance(cli_value, config_value, env) -> float:
    """Quadrature tolerance precedence: flag, then config, then RELPLASMA_TOL."""
    for value in (cli_value, config_value):
        if value is not None:
            value = float(value)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance must be > 0, got {value}")
            return value
    raw = env.get("RELPLASMA_TOL")
    if raw is not None:
        value = float(raw)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"RELPLASMA_TOL must be > 0, got {raw!r}")
        return value
    return DEFAULT_TOL


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return raw


def _config_axis(value) -> tuple[float, ...]:
    if isinstance(value, str):
        return parse_axis(value)
    if isinstance(value, (int, float)):
        return (float(value),)
    if isinstance(value, list):
        return tuple(float(x) for x in value)
    raise UsageError(f"cannot interpret axis value {value!r}")


def _merge_axis(cli_value, config, key, default) -> tuple[float, ...]:
    if cli_value is not None:
        return cli_value
    if key in config:
        try:
            return _config_axis(config[key])
        except ValueError as exc:
            raise UsageError(f"config key {key}: {exc}") from exc
    return default


def _axis_arg(text: str) -> tuple[float, ...]:
    try:
        return parse_axis(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _pos_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _grid_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 8:
        raise argparse.ArgumentTypeError("grid needs at least 8 points")
    return value


@dataclass(frozen=True)
class SweepSpec:
    t: tuple[float, ...]
    zeta: tuple[float, ...]
    omega: tuple[float, ...]
    q: tuple[float, ...]
    regime: Regime | None
    tol: float
    e2: float
    fmt: str
    out: str | None


def _resolve_common(args, config):
    try:
        tol = resolve_tolerance(args.tol, config.get("tol"), os.environ)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    e2 = args.e2 if args.e2 is not None else config.get("e2", E2_DEFAULT)
    e2 = float(e2)
    if not (math.isfinite(e2) and e2 > 0.0):
        raise UsageError(f"coupling e2 must be > 0, got {e2}")
    fmt = getattr(args, "fmt", None) or config.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    out = getattr(args, "out", None) or config.get("out")
    return tol, e2, fmt, out


def _build_sweep_spec(args) -> SweepSpec:
    config = load_config(args.config) if args.config else {}
    t = _merge_axis(args.t, config, "t", (0.0,))
    zeta = _merge_axis(args.zeta, config, "zeta", (1.0,))
    omega = _merge_axis(args.omega, config, "omega", (0.1,))
    q = _merge_axis(args.q, config, "q", (0.05,))
    for name, axis, low in (("t", t, 0.0), ("zeta", zeta, 0.0),
                            ("omega", omega, 0.0), ("q", q, 0.0)):
        for v in axis:
            if not (math.isfinite(v) and v >= low):
                raise UsageError(f"{name} values must be finite and >= {low}")
    for w in omega:
        for qv in q:
            if w == 0.0 and qv == 0.0:
                raise UsageError("point omega=0, q=0 has no response: "
                                 "the static route needs q > 0")
            if w * w - qv * qv >= PAIR_THRESHOLD:
                raise UsageError(
                    f"point omega={w}, q={qv} reaches the pair continuum")
    regime_text = args.regime or config.get("regime") or "auto"
    if regime_text == "auto":
        regime = None
    else:
        try:
            regime = Regime(regime_text)
        except ValueError as exc:
            raise UsageError(f"unknown regime {regime_text!r}") from exc
    tol, e2, fmt, out = _resolve_common(args, config)
    return SweepSpec(t, zeta, omega, q, regime, tol, e2, fmt, out)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ";".join(f"{x:.17g}" for x in value)
    return str(value)


def _emit(records, fields, fmt, out_path, json_extra=None) -> None:
    if fmt == "csv":
        lines = [",".join(fields)]
        lines.extend(",".join(_format_cell(rec[key]) for key in fields)
                     for rec in records)
        text = "\n".join(lines) + "\n"
    else:
        payload = records if json_extra is None \
            else {**json_extra, "records": records}
        text = json.dumps(payload, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_sweep(args) -> int:
    spec = _build_sweep_spec(args)
    records = []
    rc = 0
    for t in spec.t:
        for zeta in spec.zeta:
            state = ThermoState(t=t, zeta=zeta, e2=spec.e2)
            for omega in spec.omega:
                for qmag in spec.q:
                    rec = dict.fromkeys(SWEEP_FIELDS)
                    rec.update(t=t, zeta=zeta, omega=omega, qmag=qmag,
                               flags="")
                    kin = make_kinematics(omega, qmag)
                    try:
                        triple, resp = evaluate_point(
                            kin, state, regime=spec.regime, tol=spec.tol)
                    except LightConeSingular:
                        rec["flags"] = "LightConeSkipped"
                        records.append(rec)
                        continue
                    except NonConvergence:
                        rec["flags"] = "NonConverged"
                        rc = 1
                        records.append(rec)
                        continue
                    chi = susceptibilities(resp, resp.vacuum)
                    values = {
                        "aStar": triple.aStar, "bStar": triple.bStar,
                        "cStar": triple.cStar, "eps": resp.eps,
                        "muInv": resp.muInv, "epsPrime": resp.epsPrime,
                        "tau": resp.tau, "chiE": chi.chiE, "chiM": chi.chiM,
                        "errEst": triple.errEst,
                    }
                    if not all(math.isfinite(v) for v in values.values()):
                        rec["flags"] = "NonConverged"
                        rc = 1
                        records.append(rec)
                        continue
                    rec.update(values)
                    rec["regime"] = triple.regime.name
                    rec["flags"] = "PoleNearby" \
                        if abs(resp.muInv) < POLE_GUARD else ""
                    records.append(rec)
    _emit(records, SWEEP_FIELDS, spec.fmt, spec.out)
    return rc


@dataclass(frozen=True)
class _LimitRow:
    label: str
    ref: float
    got: float
    mode: str
    tol: float
    enforced: bool


def _deviation(row: _LimitRow) -> float:
    if row.mode == "abs":
        return abs(row.got - row.ref)
    if row.got == row.ref:
        return 0.0
    return abs(row.got - row.ref) / max(abs(row.ref), abs(row.got))


def _limit_rows(state: ThermoState, tol: float) -> list[_LimitRow]:
    e2 = state.e2
    zeta = state.zeta
    pf = math.sqrt(zeta * zeta - 1.0) if zeta > 1.0 else 0.0
    ach = math.acosh(zeta) if zeta > 1.0 else 0.0
    in_window = pf <= 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nr = NRState(xiPrime=0.5 * pf * pf, t=0.0, e2=e2)

    rows = [
        _LimitRow("screening-mass", thomas_fermi_mass2(state),
                  stationary_scalars(1.0, state, tol=tol,
                                     method="quadrature").bStar,
                  "rel", 1e-8, True),
        _LimitRow("static-cross", (e2 / (6.0 * _PI2)) * ach,
                  -stationary_scalars(2.0e-4, state, tol=tol,
                                      method="quadrature").aStar,
                  "abs", 1e-6, True),
        _LimitRow("pauli-landau-sum", (e2 / (6.0 * _PI2)) * ach,
                  sum(pauli_landau(nr)), "rel", 5e-3, in_window),
        _LimitRow("collective-scale",
                  drude_scalars(0.01, state).ae2 if zeta > 1.0 else 0.0,
                  nr_plasmon_omega2(nr) / 4.0, "rel", 1e-2, in_window),
    ]
    try:
        omega_e, omega_root = plasmon_frequency(state, tol=tol)
    except RootNotBracketed:
        omega_e = omega_root = 0.0
    rows.append(_LimitRow("collective-root", omega_e, omega_root,
                          "rel", math.inf, False))
    return rows


def cmd_limits(args) -> int:
    config = load_config(args.config) if args.config else {}
    t_axis = _merge_axis(args.t, config, "t", (0.0,))
    zeta_axis = _merge_axis(args.zeta, config, "zeta", (1.0,))
    if len(t_axis) != 1 or len(zeta_axis) != 1:
        raise UsageError("limit report takes a single state, not a grid")
    if t_axis[0] != 0.0:
        raise UsageError("limit report compares degenerate closed forms; "
                         "requires t = 0")
    tol, e2, _, _ = _resolve_common(args, config)
    try:
        state = ThermoState(t=t_axis[0], zeta=zeta_axis[0], e2=e2)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    rows = _limit_rows(state, tol)
    if args.regime and args.regime != "auto":
        keep = {"stationary": ("screening-mass", "static-cross"),
                "longwave": ("pauli-landau-sum", "collective-scale",
                             "collective-root")}.get(args.regime)
        if keep is not None:
            rows = [row for row in rows if row.label in keep]

    print(f"# state: t={state.t:g} zeta={state.zeta:g} e2={state.e2:.10g} "
          f"tol={tol:g}")
    print(f"# {'row':<18} {'reference':>24} {'measured':>24} "
          f"{'deviation':>12} {'tol':>9} status")
    failed = False
    for row in rows:
        dev = _deviation(row)
        if row.enforced:
            status = "OK" if dev <= row.tol else "FAIL"
            failed = failed or status == "FAIL"
            tol_text = f"{row.tol:.0e}"
        else:
            status = "info"
            tol_text = "-"
        print(f"{row.label:<20} {row.ref:>24.16e} {row.got:>24.16e} "
              f"{dev:>12.3e} {tol_text:>9} {status}")
    return 1 if failed else 0


def cmd_dispersion(args) -> int:
    config = load_config(args.config) if args.config else {}
    t_axis = _merge_axis(args.t, config, "t", (0.0,))
    zeta_axis = _merge_axis(args.zeta, config, "zeta", (1.0,))
    if len(t_axis) != 1 or len(zeta_axis) != 1:
        raise UsageError("dispersion scan takes a single state, not a grid")
    omega = _merge_axis(args.omega, config, "omega", None)
    if omega is None or len(omega) < 2:
        raise UsageError("provide --omega lo:hi:n with at least two points")
    tol, e2, fmt, out = _resolve_common(args, config)
    try:
        state = ThermoState(t=t_axis[0], zeta=zeta_axis[0], e2=e2)
        report = negative_index_scan(state, min(omega), max(omega),
                                     len(omega), tol=tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    self_consistent = args.mode == "selfconsistent"
    records = []
    for i, w in enumerate(report.omegaGrid):
        eps = float(report.epsVals[i])
        mu_inv = float(report.muInvVals[i])
        ratio = eps / mu_inv if mu_inv != 0.0 else math.inf
        rec = {
            "omega": float(w),
            "eps": eps,
            "muInv": mu_inv,
            "nIndex": math.sqrt(ratio) if 0.0 < ratio < math.inf else None,
            "inBand": bool(eps < 0.0 and mu_inv < 0.0),
        }
        if self_consistent:
            sol = solve_dispersion(float(w), state,
                                   mode=DispersionMode.SelfConsistent,
                                   tol=tol, n_grid=args.q_grid)
            rec["qroots"] = list(sol.qroots)
        records.append(rec)

    fields = ("omega", "eps", "muInv", "nIndex", "inBand")
    if self_consistent:
        fields = fields + ("qroots",)
    band = list(report.negativeBand) if report.negativeBand is not None \
        else None
    _emit(records, fields, fmt, out, json_extra={"negativeBand": band})
    if fmt == "csv":
        summary = "negativeBand none" if band is None else \
            f"negativeBand {band[0]:.17g} {band[1]:.17g}"
        print(summary, file=sys.stdout if out is not None else sys.stderr)
    return 0


def report_checks(results) -> int:
    width = max((len(r.name) for r in results), default=1)
    n_pass = 0
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        n_pass += int(r.passed)
        line = (f"{verdict} {r.name:<{width}}  measured={r.measured:.9e}  "
                f"expected={r.expected:.9e}  tol={r.tolerance:.2e}")
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def cmd_check(args) -> int:
    from .checks import run_all_checks

    return report_checks(run_all_checks())


def _add_state_flags(sub) -> None:
    sub.add_argument("--t", type=_axis_arg, default=None,
                     help="temperature axis: scalar, comma list, or lo:hi:n")
    sub.add_argument("--zeta", type=_axis_arg, default=None,
                     help="chemical potential axis")


def _add_tuning_flags(sub) -> None:
    sub.add_argument("--tol", type=_pos_float, default=None,
                     help="quadrature tolerance (default 1e-9, or "
                          "RELPLASMA_TOL)")
    sub.add_argument("--e2", type=_pos_float, default=None,
                     help="squared coupling (default 4 pi / 137)")
    sub.add_argument("--config", default=None,
                     help="JSON file with the same keys as the flags")


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default=None, help="output format (default csv)")
    sub.add_argument("--out", default=None,
                     help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relplasma",
        description="Electromagnetic response of a hot relativistic "
                    "electron gas")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep",
                           help="evaluate responses on a parameter grid")
    _add_state_flags(sweep)
    sweep.add_argument("--omega", type=_axis_arg, default=None,
                       help="frequency axis")
    sweep.add_argument("--q", type=_axis_arg, default=None,
                       help="wavevector axis")
    sweep.add_argument("--regime",
                       choices=("auto", "full", "longwave", "stationary",
                                "vacuum"),
                       default=None, help="force an evaluation route")
    _add_tuning_flags(sweep)
    _add_output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    limits = sub.add_parser("limits",
                            help="closed forms vs quadrature vs the "
                                 "nonrelativistic oracle")
    _add_state_flags(limits)
    limits.add_argument("--regime",
                        choices=("auto", "full", "longwave", "stationary",
                                 "vacuum"),
                        default=None, help="restrict the report rows")
    _add_tuning_flags(limits)
    limits.set_defaults(func=cmd_limits)

    disp = sub.add_parser("dispersion",
                          help="negative-band scan and mode roots over a "
                               "frequency range")
    _add_state_flags(disp)
    disp.add_argument("--omega", type=_axis_arg, default=None,
                      help="frequency range lo:hi:n")
    disp.add_argument("--mode",
                      choices=("band", "longwave", "selfconsistent"),
                      default="band",
                      help="band scan only, or add self-consistent roots "
                           "(slow)")
    disp.add_argument("--q-grid", dest="q_grid", type=_grid_size,
                      default=512,
                      help="wavevector scan resolution for selfconsistent "
                           "mode")
    _add_tuning_flags(disp)
    _add_output_flags(disp)
    disp.set_defaults(func=cmd_dispersion)

    check = sub.add_parser("check", help="run the self-check suite")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
