"""Command-line front end: CSV emission for every capability.

Every command writes one RFC-4180-style CSV (CRLF line endings, header
row, ``.`` decimal separator, 12 significant digits) to stdout or
``--output``.  Each row carries a ``schema`` column naming the table
layout and its version, and a ``manifest_id`` column — a hash of the
tool version, the schema, the parsed option values, and the content
(sha256) of the species and measurements files, so reruns with identical
inputs emit byte-identical output whatever the spelling, order or paths
of the arguments.  ``--manifest-out`` additionally writes the full
manifest as JSON, with the raw command line and the wall time outside
the hash.

Exit codes: 0 success with every computation converged; 2 usage errors
(non-finite or out-of-range numbers and options the command does not
take included); 3 species-data validation errors; 4 numerical
non-convergence or overflow.

A command is one row function ``(args, species) -> rows`` plus one entry
in ``COMMANDS`` giving that function, its schema and its CSV header, and
one subparser in ``_build_parser`` that accepts exactly the options the
row function reads, so every hashed option shaped the output.  A command
that reads a species takes ``--species``, a bundled name or a file path,
as ``load_species`` tells them apart.  ``main`` does the rest for every
command: it loads the species when the command takes one, builds the
manifest, writes the CSV, and exits 4 when a ``converged`` column holds
false.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _parse_state(species: Species, text: str) -> RydbergState:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad state {text!r}: expected n:series, e.g. 25:3D1")
    try:
        n = int(parts[0])
    except ValueError:
        raise ValueError(f"bad state {text!r}: {parts[0]!r} is not an integer")
    return species.state(n, parts[1])


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad n list {text!r}: expected comma-separated integers")
    if not values:
        raise ValueError("empty n list")
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


# options the id leaves out: output destinations, and input files, which
# enter by content (species_sha256, measurements_sha256)
_UNHASHED = ("output", "manifest_out", "species", "measurements")


def _manifest(args, species: Species | None, schema: str) -> dict:
    meas = getattr(args, "measurements", None)
    m = {
        "tool": "rydtherm",
        "tool_version": __version__,
        "schema": schema,
        "options": {k: v for k, v in vars(args).items() if k not in _UNHASHED},
        "species": species.name if species is not None else None,
        "species_data_version": (
            species.data_version if species is not None else None
        ),
        "species_sha256": species.sha256 if species is not None else None,
        "measurements_sha256": (
            hashlib.sha256(Path(meas).read_bytes()).hexdigest() if meas else None
        ),
    }
    digest = hashlib.sha256(
        json.dumps(m, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    m["manifest_id"] = digest
    return m


def _emit(
    args, argv: list[str], t_start: float, manifest: dict,
    header: tuple[str, ...], rows: list[list],
) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180: CRLF line terminator by default
    writer.writerow([*header, "schema", "manifest_id"])
    schema = manifest["schema"]
    mid = manifest["manifest_id"]
    for row in rows:
        writer.writerow([_fmt(v) for v in row] + [schema, mid])
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    if args.manifest_out:
        full = dict(manifest, command=["rydtherm", *argv])
        full["wall_time_s"] = time.time() - t_start
        with open(args.manifest_out, "w") as fh:
            json.dump(full, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


# ---------------------------------------------------------------------------
# commands: each returns the CSV rows of its table entry


def _fw_rows(args, species) -> list[list]:
    if not all(math.isfinite(y) for y in args.y):
        raise ValueError("fw: --y values must be finite")
    rows = []
    for y in args.y:
        fast = farley_wing_fast(y)
        quad = farley_wing(y)
        rows.append([y, fast, quad, abs(fast - quad)])
    return rows


def _fig2_rows(args, species) -> list[list]:
    if not (args.y_max > args.y_min > 0 and math.isfinite(args.y_max)):
        raise ValueError("fig2: need 0 < --y-min < --y-max")
    if args.points < 2:
        raise ValueError("fig2: --points must be >= 2")
    if args.linear:
        grid = np.linspace(args.y_min, args.y_max, args.points)
    else:
        grid = np.geomspace(args.y_min, args.y_max, args.points)
    return [[y, f] for y, f in zip(grid.tolist(), farley_wing_fast(grid).tolist())]


def _bbr_rows(args, species) -> list[list]:
    routes = {"sum": (bbr_shift_sum,), "integral": (bbr_shift_integral,),
              "both": (bbr_shift_sum, bbr_shift_integral)}[args.route]
    rows = []
    for text in args.state:
        state = _parse_state(species, text)
        for fn in routes:
            r = fn(state, args.temperature, span=args.span, tail_fraction=args.tolerance)
            rows.append([r.state_str, r.temperature_k, r.shift_hz, r.channel_hz,
                         r.tail_hz, r.f_missing, r.converged, r.method, r.span])
    return rows


def _polarizability_rows(args, species) -> list[list]:
    state = _parse_state(species, args.state)
    if args.wavelength_nm is not None:
        omega = units.wavelength_nm_to_omega_au(args.wavelength_nm)
    else:
        omega = args.omega_au or 0.0
    res = ac_polarizability(state, omega, m_j=args.m_j, span=args.span)
    return [[res.state_str, res.omega_au, "scalar" if res.m_j is None else res.m_j,
             res.value_au, res.value_hz_m2_v2, res.value_khz_per_kw_cm2, res.tail_au,
             res.nearest_resonance_id, res.nearest_detuning_au]]


_MAGIC_HEADER = ("n", "series", "lambda_m_nm", "alpha_khz_per_kw_cm2", "lambda_i_nm",
                 "sin2", "residual_au", "valid", "bracket_lo_nm", "bracket_hi_nm",
                 "k_ratio", "n_roots")
_TABLE1_HEADER = ("n", "lambda_m_nm", "alpha_khz_per_kw_cm2", "lambda_i_nm")


def _magic_rows(args, species) -> list[list]:
    default_series, default_photons = _MAGIC_DEFAULTS.get(species.name, (None, 2))
    series = args.series or default_series
    photons = args.photons or default_photons
    if series is None:
        raise ValueError(
            f"magic: no default Rydberg series for species "
            f"{species.name!r}; pass --series"
        )
    rows = []
    for n in _parse_n_list(args.n):
        state = species.state(n, series)
        roots = solve_magic_wavelength(species, state, k_ratio=args.k_ratio)
        root = pick_magic_root(roots)
        lam_i = transition_wavelength(state, photons=photons)
        rows.append([n, series, root.wavelength_nm, root.alpha_khz_per_kw_cm2, lam_i,
                     root.sin2_value, root.residual_au, root.valid, *root.bracket_nm,
                     root.k_ratio, len(roots)])
    return rows


def _table1_rows(args, species) -> list[list]:
    cols = [_MAGIC_HEADER.index(name) for name in _TABLE1_HEADER]
    return [[row[i] for i in cols] for row in _magic_rows(args, species)]


def _linewidth_rows(args, species) -> list[list]:
    rows = []
    for text in args.state:
        state = _parse_state(species, text)
        lw = linewidths(state, args.temperature, span=args.span)
        rows.append([lw.state_str, lw.temperature_k, lw.natural_hz, lw.bbr_hz,
                     lw.total_hz])
    return rows


def _read_measurements(species: Species, path: str) -> list[ThermometryMeasurement]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"state", "offset_hz", "sigma_hz"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"{path}: measurement CSV needs columns {sorted(required)}"
            )
        out = [ThermometryMeasurement(_parse_state(species, rec["state"]),
                                      float(rec["offset_hz"]), float(rec["sigma_hz"]))
               for rec in reader]
    if not out:
        raise ValueError(f"{path}: no measurement rows")
    return out


_SOLUTION_HEADER = ("temperature_k", "sigma_temperature_k", "field_v_per_m",
                    "sigma_field_v_per_m", "field_sq_clamped", "iterations",
                    "max_abs_residual_hz")


def _solution_row(sol) -> list:
    return [sol.temperature_k, sol.sigma_temperature_k, sol.field_v_per_m,
            sol.sigma_field_v_per_m, sol.field_sq_clamped, sol.iterations,
            max(abs(r) for r in sol.residuals_hz)]


def _thermo_invert_rows(args, species) -> list[list]:
    meas = ThermometryMeasurement(
        _parse_state(species, args.state), args.offset_hz, args.sigma_hz
    )
    return [_solution_row(invert_temperature(meas, span=args.span))]


def _thermo_joint_rows(args, species) -> list[list]:
    meas = _read_measurements(species, args.measurements)
    return [_solution_row(joint_solve_temperature_field(meas, span=args.span))]


def _thermo_budget_rows(args, species) -> list[list]:
    state = _parse_state(species, args.state)
    lower = _parse_state(species, args.lower_state) if args.lower_state else None
    eb = error_budget(state, args.fractional, args.temperature, lower=lower,
                      linewidth_hz=args.linewidth_hz, span=args.span)
    return [[eb.transition_id, eb.temperature_k, eb.transition_frequency_hz,
             eb.fractional_accuracy, eb.target_resolution_hz, eb.sensitivity_hz_per_k,
             eb.temperature_sigma_k, eb.total_linewidth_hz, eb.line_split_factor,
             eb.clock_fractional_uncertainty, eb.leverage]]


def _fig3_rows(args, species) -> list[list]:
    series_list = [s.strip() for s in args.series.split(",") if s.strip()]
    if not series_list:
        raise ValueError("fig3: empty series list")
    if args.n_min > args.n_max:
        raise ValueError("fig3: --n-min must be <= --n-max")
    rows = []
    for series in series_list:
        info = species.series_info(series)
        for n in range(max(args.n_min, info.n_min), args.n_max + 1):
            res = bbr_shift_sum(species.state(n, series), args.temperature,
                                span=args.span, tail_fraction=args.tolerance)
            rows.append([n, series, res.shift_hz, res.converged])
    return rows


class Command(NamedTuple):
    """One CLI command: how its rows are made and how its CSV is labelled."""

    rows: Callable[..., list[list]]  # (args, species or None) -> rows
    schema: str
    header: tuple[str, ...]


COMMANDS = {
    "fw": Command(_fw_rows, "fw.v1",
                  ("y", "value_fast", "value_quadrature", "abs_diff")),
    "fig2": Command(_fig2_rows, "fig2.v1", ("y", "farley_wing")),
    "bbr": Command(_bbr_rows, "bbr.v1",
                   ("state", "temperature_k", "shift_hz", "channel_hz", "tail_hz",
                    "f_missing", "converged", "method", "span")),
    "polarizability": Command(
        _polarizability_rows, "polarizability.v1",
        ("state", "omega_au", "m_j", "alpha_au", "alpha_hz_m2_v2",
         "alpha_khz_per_kw_cm2", "tail_au", "nearest_resonance",
         "nearest_detuning_au")),
    "magic": Command(_magic_rows, "magic.v1", _MAGIC_HEADER),
    "table1": Command(_table1_rows, "table1.v1", _TABLE1_HEADER),
    "linewidth": Command(_linewidth_rows, "linewidth.v1",
                         ("state", "temperature_k", "natural_hz", "bbr_fwhm_hz",
                          "total_hz")),
    "thermo invert": Command(_thermo_invert_rows, "thermo_invert.v1", _SOLUTION_HEADER),
    "thermo joint": Command(_thermo_joint_rows, "thermo_joint.v1", _SOLUTION_HEADER),
    "thermo budget": Command(
        _thermo_budget_rows, "thermo_budget.v1",
        ("transition", "temperature_k", "frequency_hz", "fractional_accuracy",
         "target_resolution_hz", "sensitivity_hz_per_k", "temperature_sigma_k",
         "total_linewidth_hz", "line_split_factor", "clock_fractional_uncertainty",
         "leverage")),
    "fig3": Command(_fig3_rows, "fig3.v1", ("n", "series", "shift_hz", "converged")),
}


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Names the unknown options that argparse's missing-option error hides."""

    def parse_known_args(self, args=None, namespace=None):
        self.argv = args or []
        return super().parse_known_args(args, namespace)

    def error(self, message):
        unknown = [arg for arg in self.argv if arg.startswith("--") and not any(
            f.startswith(arg.split("=")[0]) for f in self._option_string_actions)]
        super().error(f"unrecognized arguments: {' '.join(unknown)}; {message}"
                      if unknown and "are required" in message else message)


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


@functools.cache  # one per process; parse_args returns a new Namespace per call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rydtherm",
        description=(
            "Blackbody shifts, magic lattices, and Rydberg thermometry "
            "for divalent atoms. All commands emit CSV."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--manifest-out", help="write the run manifest JSON here")
    out.add_argument("-o", "--output", help="write CSV here instead of stdout")
    species = argparse.ArgumentParser(add_help=False, parents=[out])
    species.add_argument("--species", required=True,
                         help="bundled name (sr, yb, hydrogen) or path (./sr, x.species)")
    temperature = _option("--temperature", type=float, default=300.0,
                          help="temperature in K [300]")
    span = _option("--span", type=int, default=DEFAULT_SPAN,
                   help=f"transition-table span in n [{DEFAULT_SPAN}]")
    tolerance = _option(
        "--tolerance", type=_tolerance, default=DEFAULT_TAIL_FRACTION,
        help=f"convergence tolerance (BBR tail fraction) [{DEFAULT_TAIL_FRACTION}]",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fw", parents=[out], help="thermal kernel point values")
    p.add_argument("--y", type=float, action="append", required=True,
                   help="normalized frequency; repeatable")

    p = sub.add_parser("fig2", parents=[out], help="thermal kernel curve")
    p.add_argument("--y-min", type=float, default=0.01)
    p.add_argument("--y-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--linear", action="store_true", help="linear grid (default log)")

    p = sub.add_parser("bbr", parents=[species, temperature, span, tolerance],
                       help="BBR Stark shift of states")
    p.add_argument("--state", action="append", required=True,
                   help="n:series, e.g. 30:3S1; repeatable")
    p.add_argument("--route", choices=["sum", "integral", "both"], default="sum")

    p = sub.add_parser("polarizability", parents=[species, span],
                       help="AC/static polarizability")
    p.add_argument("--state", required=True, help="n:series")
    probe = p.add_mutually_exclusive_group()
    probe.add_argument("--omega-au", type=float, help="probe angular frequency (a.u.)")
    probe.add_argument("--wavelength-nm", type=float, help="probe wavelength (nm)")
    p.add_argument("--m-j", type=_parse_m_j, default="stretched",
                   help="m_j value, or 'scalar' for the orientation average")

    for name, text, n_opts in (
        ("magic", "magic-lattice solutions", {"required": True}),
        ("table1", "magic table: n, lambda_m, alpha, lambda_i", {"default": _TABLE1_N}),
    ):
        p = sub.add_parser(name, parents=[species], help=text)
        p.add_argument("--n", help="comma-separated n list", **n_opts)
        p.add_argument("--series", help="Rydberg series (default per species)")
        p.add_argument("--k-ratio", type=float, default=1.0,
                       help="k / (omega/c), < 1 for non-counterpropagating beams")
        p.add_argument("--photons", type=int, choices=[1, 2],
                       help="drive photon count (default per species)")

    p = sub.add_parser("linewidth", parents=[species, temperature, span],
                       help="natural + BBR linewidths")
    p.add_argument("--state", action="append", required=True,
                   help="n:series; repeatable")

    p = sub.add_parser("thermo", help="thermometry solvers")
    tsub = p.add_subparsers(dest="thermo_command", required=True)
    tp = tsub.add_parser("invert", parents=[species, span])
    tp.add_argument("--state", required=True, help="n:series")
    tp.add_argument("--offset-hz", type=float, required=True)
    tp.add_argument("--sigma-hz", type=float, required=True)
    tp = tsub.add_parser("joint", parents=[species, span])
    tp.add_argument("--measurements", required=True,
                    help="CSV with columns state,offset_hz,sigma_hz")
    tp = tsub.add_parser("budget", parents=[species, temperature, span])
    tp.add_argument("--state", required=True, help="upper state n:series")
    tp.add_argument("--lower-state",
                    help="lower state n:series; a clock state sits at its measured "
                         "level and adds no linewidth (default: metastable)")
    tp.add_argument("--fractional", type=float, default=1.7e-16,
                    help="fractional frequency accuracy [1.7e-16]")
    tp.add_argument("--linewidth-hz", type=float,
                    help="override the computed transition linewidth")

    p = sub.add_parser("fig3", parents=[species, temperature, span, tolerance],
                       help="shift vs n for series")
    p.add_argument("--series", default="3S1,3P0,3P1,3P2,3D1,3D2,3D3")
    p.add_argument("--n-min", type=int, default=8)
    p.add_argument("--n-max", type=int, default=50)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    t_start = time.time()
    name = args.command
    if name == "thermo":
        name = f"thermo {args.thermo_command}"
    cmd = COMMANDS[name]
    try:
        species = load_species(args.species) if "species" in vars(args) else None
        rows = cmd.rows(args, species)
        manifest = _manifest(args, species, cmd.schema)
        _emit(args, argv, t_start, manifest, cmd.header, rows)
    except (SpeciesDataError, FileNotFoundError) as exc:
        print(f"rydtherm: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        OverflowError,  # an input beyond the double range, e.g. --omega-au 1e300
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
    if "converged" in cmd.header:
        # the table is still emitted, with the unconverged rows flagged
        col = cmd.header.index("converged")
        failed = sum(not row[col] for row in rows)
        if failed:
            print(
                f"rydtherm: numerical failure: {name}: {failed} of {len(rows)} "
                f"rows did not converge",
                file=sys.stderr,
            )
            return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
