"""Command-line front end: CSV emission for every capability.

Every command writes one RFC-4180-style CSV (CRLF line endings, header
row, ``.`` decimal separator, 12 significant digits) to stdout or
``--output``.  Each row carries a ``schema`` column naming the table
layout and its version, and a ``manifest_id`` column — a content hash of
the tool version, species data version, command line, and solver
settings (wall time excluded), so reruns with identical inputs emit
byte-identical output.  ``--manifest-out`` additionally writes the full
manifest (including wall time) as JSON.

Exit codes: 0 success with every computation converged; 2 usage errors;
3 species-data validation errors; 4 numerical non-convergence.

The species data directory can be overridden with the environment
variable RYDTHERM_DATA_DIR; individual files with ``--species-file``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__, units
from .bbr import (
    DEFAULT_TAIL_FRACTION,
    QuadratureError,
    bbr_shift_integral,
    bbr_shift_sum,
    farley_wing,
    farley_wing_fast,
    linewidths,
)
from .lattice import (
    MagicSolverError,
    pick_magic_root,
    solve_magic_wavelength,
    transition_wavelength,
)
from .polarizability import (
    ResonanceGuardError,
    ac_polarizability,
)
from .radial import RadialUnsolvableError
from .species import RydbergState, Species, SpeciesDataError, load_species
from .thermometry import (
    ThermometryError,
    ThermometryMeasurement,
    error_budget,
    invert_temperature,
    joint_solve_temperature_field,
)
from .transitions import DEFAULT_SPAN

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# per-species defaults for the magic/table1 commands: Rydberg series of
# the published magic transitions and the drive photon count
_MAGIC_DEFAULTS = {"Yb": ("3P0", 2), "Sr": ("3D1", 1)}
# the rows of the paper's Table 1
_TABLE1_N = "15,20,25,30,35,40"


class UsageError(ValueError):
    """Bad command-line arguments (exit 2)."""


class ConvergenceFailure(RuntimeError):
    """A requested computation did not converge (exit 4)."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _load(args) -> Species:
    name = getattr(args, "species_file", None) or getattr(args, "species", None)
    if not name:
        raise UsageError("a species is required (--species or --species-file)")
    return load_species(name)


def _parse_state(species: Species, text: str) -> RydbergState:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"bad state {text!r}: expected n:series, e.g. 25:3D1")
    try:
        n = int(parts[0])
    except ValueError:
        raise UsageError(f"bad state {text!r}: {parts[0]!r} is not an integer")
    return species.state(n, parts[1])


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad n list {text!r}: expected comma-separated integers")
    if not values:
        raise UsageError("empty n list")
    return values


def _parse_m_j(text: str) -> float | str | None:
    """--m-j: a number, 'stretched' (m_J = J) or 'scalar' (the average)."""
    if text == "scalar":
        return None
    return text if text == "stretched" else float(text)


def _tolerance(text: str) -> float:
    """--tolerance: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _hashed_command(argv: list[str]) -> list[str]:
    """Drop output-destination flags: the id names the computation."""
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
            continue
        if tok in ("-o", "--output", "--manifest-out"):
            skip = True
            continue
        if tok.startswith(("--output=", "--manifest-out=")):
            continue
        out.append(tok)
    return out


def _manifest(args, species: Species | None, extra: dict) -> dict:
    settings = {
        "temperature_k": getattr(args, "temperature", None),
        "span": getattr(args, "span", None),
        "tolerance": getattr(args, "tolerance", None),
    }
    m = {
        "tool": "rydtherm",
        "tool_version": __version__,
        "command": _hashed_command(args.command_line),
        "species": species.name if species is not None else None,
        "species_data_version": (
            species.data_version if species is not None else None
        ),
        "species_sha256": species.sha256 if species is not None else None,
        "settings": settings,
        **extra,
    }
    digest = hashlib.sha256(
        json.dumps(m, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    m["manifest_id"] = digest
    return m


def _emit(args, manifest: dict, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180: CRLF line terminator by default
    writer.writerow(header + ["schema", "manifest_id"])
    schema = manifest["schema"]
    mid = manifest["manifest_id"]
    for row in rows:
        writer.writerow([_fmt(v) for v in row] + [schema, mid])
    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    manifest_out = getattr(args, "manifest_out", None)
    if manifest_out:
        full = dict(manifest)
        full["wall_time_s"] = time.time() - args.t_start
        with open(manifest_out, "w") as fh:
            json.dump(full, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_fw(args) -> int:
    if not args.y:
        raise UsageError("fw: at least one --y value is required")
    rows = []
    for y in args.y:
        fast = farley_wing_fast(y)
        quad = farley_wing(y)
        rows.append([y, fast, quad, abs(fast - quad)])
    manifest = _manifest(args, None, {"schema": "fw.v1"})
    _emit(args, manifest, ["y", "value_fast", "value_quadrature", "abs_diff"], rows)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    if not args.y_max > args.y_min > 0:
        raise UsageError("fig2: need 0 < --y-min < --y-max")
    if args.points < 2:
        raise UsageError("fig2: --points must be >= 2")
    if args.linear:
        grid = np.linspace(args.y_min, args.y_max, args.points)
    else:
        grid = np.geomspace(args.y_min, args.y_max, args.points)
    rows = [[float(y), farley_wing_fast(float(y))] for y in grid]
    manifest = _manifest(
        args,
        None,
        {
            "schema": "fig2.v1",
            "grid": {
                "y_min": args.y_min,
                "y_max": args.y_max,
                "points": args.points,
                "spacing": "linear" if args.linear else "log",
            },
        },
    )
    _emit(args, manifest, ["y", "farley_wing"], rows)
    return EXIT_OK


def _shift_row(result) -> list:
    return [
        result.state_str,
        result.temperature_k,
        result.shift_hz,
        result.channel_hz,
        result.tail_hz,
        "" if result.f_missing is None else result.f_missing,
        result.converged,
        result.method,
        "" if result.span is None else result.span,
    ]


_SHIFT_HEADER = [
    "state",
    "temperature_k",
    "shift_hz",
    "channel_hz",
    "tail_hz",
    "f_missing",
    "converged",
    "method",
    "span",
]


def _cmd_bbr(args) -> int:
    species = _load(args)
    if not args.state:
        raise UsageError("bbr: at least one --state is required")
    routes = {"sum": (bbr_shift_sum,), "integral": (bbr_shift_integral,),
              "both": (bbr_shift_sum, bbr_shift_integral)}[args.route]
    rows, all_converged = [], True
    for text in args.state:
        state = _parse_state(species, text)
        for fn in routes:
            res = fn(
                state,
                args.temperature,
                span=args.span,
                tail_fraction=args.tolerance,
            )
            all_converged &= res.converged
            rows.append(_shift_row(res))
    manifest = _manifest(args, species, {"schema": "bbr.v1", "route": args.route})
    _emit(args, manifest, _SHIFT_HEADER, rows)
    if not all_converged:
        raise ConvergenceFailure("bbr: truncation tail exceeded the tolerance")
    return EXIT_OK


def _cmd_polarizability(args) -> int:
    species = _load(args)
    state = _parse_state(species, args.state)
    if args.wavelength_nm is not None and args.omega_au is not None:
        raise UsageError("polarizability: give --wavelength-nm or --omega-au, not both")
    if args.wavelength_nm is not None:
        omega = units.wavelength_nm_to_omega_au(args.wavelength_nm)
    else:
        omega = args.omega_au or 0.0
    res = ac_polarizability(state, omega, m_j=args.m_j, span=args.span)
    rows = [[
        res.state_str,
        res.omega_au,
        "scalar" if res.m_j is None else res.m_j,
        res.value_au,
        res.value_hz_m2_v2,
        res.value_khz_per_kw_cm2,
        res.tail_au,
        res.nearest_resonance_id or "",
        res.nearest_detuning_au,
    ]]
    manifest = _manifest(args, species, {"schema": "polarizability.v1"})
    _emit(
        args,
        manifest,
        [
            "state",
            "omega_au",
            "m_j",
            "alpha_au",
            "alpha_hz_m2_v2",
            "alpha_khz_per_kw_cm2",
            "tail_au",
            "nearest_resonance",
            "nearest_detuning_au",
        ],
        rows,
    )
    return EXIT_OK


def _magic_rows(species, args, detailed: bool):
    series, photons = _MAGIC_DEFAULTS.get(species.name, (None, 2))
    if args.series:
        series = args.series
    if getattr(args, "photons", None):
        photons = args.photons
    if series is None:
        raise UsageError(
            f"magic: no default Rydberg series for species "
            f"{species.name!r}; pass --series"
        )
    rows = []
    for n in _parse_n_list(args.n):
        state = species.state(n, series)
        roots = solve_magic_wavelength(
            species, state, k_ratio=args.k_ratio
        )
        root = pick_magic_root(roots)
        lam_i = transition_wavelength(species, state, photons=photons)
        if detailed:
            rows.append([
                n,
                series,
                root.wavelength_nm,
                root.alpha_khz_per_kw_cm2,
                lam_i,
                root.sin2_value,
                root.residual_au,
                root.valid,
                root.bracket_nm[0],
                root.bracket_nm[1],
                root.k_ratio,
                len(roots),
            ])
        else:
            rows.append([n, root.wavelength_nm, root.alpha_khz_per_kw_cm2, lam_i])
    return rows


def _cmd_magic(args) -> int:
    species = _load(args)
    rows = _magic_rows(species, args, detailed=True)
    manifest = _manifest(args, species, {"schema": "magic.v1"})
    _emit(
        args,
        manifest,
        [
            "n",
            "series",
            "lambda_m_nm",
            "alpha_khz_per_kw_cm2",
            "lambda_i_nm",
            "sin2",
            "residual_au",
            "valid",
            "bracket_lo_nm",
            "bracket_hi_nm",
            "k_ratio",
            "n_roots",
        ],
        rows,
    )
    return EXIT_OK


def _cmd_table1(args) -> int:
    species = _load(args)
    rows = _magic_rows(species, args, detailed=False)
    manifest = _manifest(args, species, {"schema": "table1.v1"})
    _emit(
        args,
        manifest,
        ["n", "lambda_m_nm", "alpha_khz_per_kw_cm2", "lambda_i_nm"],
        rows,
    )
    return EXIT_OK


def _cmd_linewidth(args) -> int:
    species = _load(args)
    if not args.state:
        raise UsageError("linewidth: at least one --state is required")
    rows = []
    for text in args.state:
        state = _parse_state(species, text)
        lw = linewidths(state, args.temperature, span=args.span)
        rows.append([
            lw.state_str,
            lw.temperature_k,
            lw.natural_hz,
            lw.bbr_hz,
            lw.total_hz,
        ])
    manifest = _manifest(args, species, {"schema": "linewidth.v1"})
    _emit(
        args,
        manifest,
        ["state", "temperature_k", "natural_hz", "bbr_fwhm_hz", "total_hz"],
        rows,
    )
    return EXIT_OK


def _read_measurements(species: Species, path: str) -> list[ThermometryMeasurement]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"state", "offset_hz", "sigma_hz"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise UsageError(
                f"{path}: measurement CSV needs columns {sorted(required)}"
            )
        out = []
        for rec in reader:
            out.append(
                ThermometryMeasurement(
                    state=_parse_state(species, rec["state"]),
                    offset_hz=float(rec["offset_hz"]),
                    sigma_hz=float(rec["sigma_hz"]),
                )
            )
    if not out:
        raise UsageError(f"{path}: no measurement rows")
    return out


_SOLUTION_HEADER = [
    "temperature_k",
    "sigma_temperature_k",
    "field_v_per_m",
    "sigma_field_v_per_m",
    "field_sq_clamped",
    "iterations",
    "max_abs_residual_hz",
]


def _solution_row(sol) -> list:
    return [
        sol.temperature_k,
        sol.sigma_temperature_k,
        sol.field_v_per_m,
        sol.sigma_field_v_per_m,
        sol.field_sq_clamped,
        sol.iterations,
        max(abs(r) for r in sol.residuals_hz),
    ]


def _cmd_thermo(args) -> int:
    species = _load(args)
    if args.thermo_command == "invert":
        if args.measurements:
            meas = _read_measurements(species, args.measurements)
            if len(meas) != 1:
                raise UsageError("thermo invert: exactly one measurement")
            m = meas[0]
        else:
            if args.state is None or args.offset_hz is None or args.sigma_hz is None:
                raise UsageError(
                    "thermo invert: need --measurements or all of "
                    "--state/--offset-hz/--sigma-hz"
                )
            m = ThermometryMeasurement(
                _parse_state(species, args.state), args.offset_hz, args.sigma_hz
            )
        sol = invert_temperature(m, seed_k=args.seed, span=args.span)
        manifest = _manifest(args, species, {"schema": "thermo_invert.v1"})
        _emit(args, manifest, _SOLUTION_HEADER, [_solution_row(sol)])
        return EXIT_OK
    if args.thermo_command == "joint":
        if not args.measurements:
            raise UsageError("thermo joint: --measurements CSV is required")
        meas = _read_measurements(species, args.measurements)
        sol = joint_solve_temperature_field(meas, seed_k=args.seed, span=args.span)
        manifest = _manifest(args, species, {"schema": "thermo_joint.v1"})
        _emit(args, manifest, _SOLUTION_HEADER, [_solution_row(sol)])
        return EXIT_OK
    # budget
    state = _parse_state(species, args.state)
    lower = (
        _parse_state(species, args.lower_state) if args.lower_state else None
    )
    eb = error_budget(
        species,
        state,
        args.fractional,
        args.temperature,
        lower=lower,
        linewidth_hz=args.linewidth_hz,
        span=args.span,
    )
    manifest = _manifest(args, species, {"schema": "thermo_budget.v1"})
    _emit(
        args,
        manifest,
        [
            "transition",
            "temperature_k",
            "frequency_hz",
            "fractional_accuracy",
            "target_resolution_hz",
            "sensitivity_hz_per_k",
            "temperature_sigma_k",
            "total_linewidth_hz",
            "line_split_factor",
            "clock_fractional_uncertainty",
            "leverage",
        ],
        [[
            eb.transition_id,
            eb.temperature_k,
            eb.transition_frequency_hz,
            eb.fractional_accuracy,
            eb.target_resolution_hz,
            eb.sensitivity_hz_per_k,
            eb.temperature_sigma_k,
            eb.total_linewidth_hz,
            eb.line_split_factor,
            "" if eb.clock_fractional_uncertainty is None else eb.clock_fractional_uncertainty,
            "" if eb.leverage is None else eb.leverage,
        ]],
    )
    return EXIT_OK


def _cmd_fig3(args) -> int:
    species = _load(args)
    series_list = [s.strip() for s in args.series.split(",") if s.strip()]
    if not series_list:
        raise UsageError("fig3: empty series list")
    if args.n_min > args.n_max:
        raise UsageError("fig3: --n-min must be <= --n-max")
    rows, all_converged = [], True
    for series in series_list:
        info = species.series_info(series)
        for n in range(max(args.n_min, info.n_min), args.n_max + 1):
            res = bbr_shift_sum(
                species.state(n, series),
                args.temperature,
                span=args.span,
                tail_fraction=args.tolerance,
            )
            all_converged &= res.converged
            rows.append([n, series, res.shift_hz, res.converged])
    manifest = _manifest(args, species, {"schema": "fig3.v1"})
    _emit(args, manifest, ["n", "series", "shift_hz", "converged"], rows)
    if not all_converged:
        raise ConvergenceFailure("fig3: some states did not converge")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydtherm",
        description=(
            "Blackbody shifts, magic lattices, and Rydberg thermometry "
            "for divalent atoms. All commands emit CSV."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--species", help="bundled species name (sr, yb, hydrogen)")
    common.add_argument(
        "--species-file", help="path to a .species data file (overrides --species)"
    )
    common.add_argument(
        "--temperature", type=float, default=300.0, help="temperature in K [300]"
    )
    common.add_argument(
        "--span", type=int, default=DEFAULT_SPAN,
        help=f"transition-table span in n [{DEFAULT_SPAN}]",
    )
    common.add_argument(
        "--tolerance", type=_tolerance, default=DEFAULT_TAIL_FRACTION,
        help=f"convergence tolerance (BBR tail fraction) [{DEFAULT_TAIL_FRACTION}]",
    )
    common.add_argument("--manifest-out", help="write the run manifest JSON here")
    common.add_argument("-o", "--output", help="write CSV here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fw", parents=[common], help="thermal kernel point values")
    p.add_argument("--y", type=float, action="append",
                   help="normalized frequency; repeatable")
    p.set_defaults(fn=_cmd_fw)

    p = sub.add_parser("fig2", parents=[common], help="thermal kernel curve")
    p.add_argument("--y-min", type=float, default=0.01)
    p.add_argument("--y-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--linear", action="store_true", help="linear grid (default log)")
    p.set_defaults(fn=_cmd_fig2)

    p = sub.add_parser("bbr", parents=[common], help="BBR Stark shift of states")
    p.add_argument("--state", action="append", help="n:series, e.g. 30:3S1; repeatable")
    p.add_argument("--route", choices=["sum", "integral", "both"], default="sum")
    p.set_defaults(fn=_cmd_bbr)

    p = sub.add_parser(
        "polarizability", parents=[common], help="AC/static polarizability"
    )
    p.add_argument("--state", required=True, help="n:series")
    p.add_argument("--omega-au", type=float, help="probe angular frequency (a.u.)")
    p.add_argument("--wavelength-nm", type=float, help="probe wavelength (nm)")
    p.add_argument("--m-j", type=_parse_m_j, default="stretched",
                   help="m_j value, or 'scalar' for the orientation average")
    p.set_defaults(fn=_cmd_polarizability)

    p = sub.add_parser("magic", parents=[common], help="magic-lattice solutions")
    p.add_argument("--n", required=True, help="comma-separated n list")
    p.add_argument("--series", help="Rydberg series (default per species)")
    p.add_argument("--k-ratio", type=float, default=1.0,
                   help="k / (omega/c), < 1 for non-counterpropagating beams")
    p.add_argument("--photons", type=int, choices=[1, 2],
                   help="drive photon count (default per species)")
    p.set_defaults(fn=_cmd_magic)

    p = sub.add_parser("table1", parents=[common],
                       help="magic table: n, lambda_m, alpha, lambda_i")
    p.add_argument("--n", default=_TABLE1_N,
                   help=f"comma-separated n list [{_TABLE1_N}]")
    p.add_argument("--series", help="Rydberg series (default per species)")
    p.add_argument("--k-ratio", type=float, default=1.0)
    p.add_argument("--photons", type=int, choices=[1, 2])
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("linewidth", parents=[common],
                       help="natural + BBR linewidths")
    p.add_argument("--state", action="append", help="n:series; repeatable")
    p.set_defaults(fn=_cmd_linewidth)

    p = sub.add_parser("thermo", parents=[], help="thermometry solvers")
    tsub = p.add_subparsers(dest="thermo_command", required=True)
    for name, needs in (("invert", "single"), ("joint", "csv"), ("budget", "state")):
        tp = tsub.add_parser(name, parents=[common])
        if name in ("invert", "joint"):
            tp.add_argument("--measurements",
                            help="CSV with columns state,offset_hz,sigma_hz")
            tp.add_argument("--seed", type=float, default=300.0,
                            help="temperature seed in K [300]")
        if name == "invert":
            tp.add_argument("--state", help="n:series")
            tp.add_argument("--offset-hz", type=float)
            tp.add_argument("--sigma-hz", type=float)
        if name == "budget":
            tp.add_argument("--state", required=True, help="upper state n:series")
            tp.add_argument("--lower-state",
                            help="lower state n:series (default: metastable)")
            tp.add_argument("--fractional", type=float, default=1.7e-16,
                            help="fractional frequency accuracy [1.7e-16]")
            tp.add_argument("--linewidth-hz", type=float,
                            help="override the computed transition linewidth")
        tp.set_defaults(fn=_cmd_thermo)

    p = sub.add_parser("fig3", parents=[common], help="shift vs n for series")
    p.add_argument("--series", default="3S1,3P0,3P1,3P2,3D1,3D2,3D3")
    p.add_argument("--n-min", type=int, default=8)
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(fn=_cmd_fig3)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    args.command_line = ["rydtherm", *argv]
    args.t_start = time.time()
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"rydtherm: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpeciesDataError, FileNotFoundError) as exc:
        print(f"rydtherm: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        ConvergenceFailure,
        QuadratureError,
        MagicSolverError,
        ThermometryError,
        RadialUnsolvableError,
        ResonanceGuardError,
    ) as exc:
        print(f"rydtherm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"rydtherm: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
