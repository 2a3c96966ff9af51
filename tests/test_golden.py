"""Golden CSVs: README-style CLI commands against committed reference output.

Each command is rerun in-process and compared with ``tests/golden/<name>.csv``:
the header and row count exactly, text columns exactly, numeric columns to
1e-10 relative (with an absolute floor for zeros).  ``manifest_id`` is not
compared there; it hashes the tool version, the schema, the parsed option
values and the sha256 of the input files, not the results, and
``test_golden_manifest_id`` checks it apart, so an edited species file
cannot leave a golden's id stale.
A ``{golden}`` token in a command names a committed input file in that
directory.

Regenerate the files (only when a change of the numbers is intended and
explained) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import functools
import io
import math
import os
import sys

import pytest

from rydtherm.cli import EXIT_OK, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

COMMANDS = {
    "bbr_sr": "bbr --species Sr --state 30:3D1 --state 5:3P0 --state 5:1S0 --route both",
    "bbr_yb": "bbr --species Yb --state 6:3P0 --state 6:1S0 --route both",
    "polarizability_sr_25_3d1": "polarizability --species Sr --state 25:3D1",
    "polarizability_sr_meta": "polarizability --species Sr --state 5:3P0 --m-j scalar",
    "polarizability_yb_meta_1203": (
        "polarizability --species Yb --state 6:3P0 --wavelength-nm 1203 --m-j scalar"
    ),
    "magic_yb_25": "magic --species Yb --n 25",
    "table1_yb": "table1 --species Yb --n 15,20,25,30,35,40",
    "linewidth_sr_40_3p0": "linewidth --species Sr --state 40:3P0",
    "linewidth_sr_meta": "linewidth --species Sr --state 5:3P0",
    "thermo_budget_sr": "thermo budget --species Sr --state 30:3D1 --fractional 1.7e-16",
    "fig3_sr": "fig3 --species Sr --series 3S1,3P1,3D2 --n-min 28 --n-max 32",
    "fw": "fw --y 0.5 --y 1.0 --y 2.6162",
    "fig2_log_7": "fig2 --points 7",
    "fig2_linear_5": "fig2 --points 5 --linear --y-min 0.1 --y-max 3",
    "thermo_invert_sr": (
        "thermo invert --species Sr --state 30:3D1 --offset-hz 2350.73 --sigma-hz 0.16"
    ),
    # Sr 25 and 30 3D1 offsets at 300 K and 5 V/m
    "thermo_joint_sr": "thermo joint --species Sr --measurements {golden}/meas_sr.csv",
}

REL_TOL = 1e-10
ABS_FLOOR = 1e-300
IGNORED = ("manifest_id",)


def run_csv(argv: list[str]) -> str:
    """CSV text the CLI writes for ``argv``; fails unless it exits 0."""
    out = io.StringIO()
    saved, sys.stdout = sys.stdout, out
    try:
        code = main(argv)
    finally:
        sys.stdout = saved
    assert code == EXIT_OK, f"rydtherm {' '.join(argv)} exited {code}"
    return out.getvalue()


@functools.cache
def golden_output(name: str) -> str:
    """CSV text of the golden command ``name``, run once per session."""
    return run_csv(command_argv(name))


def command_argv(name: str) -> list[str]:
    return [tok.replace("{golden}", GOLDEN_DIR) for tok in COMMANDS[name].split()]


def read_golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), newline="") as fh:
        return fh.read()


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(got: str, want: str, ignore: tuple[str, ...] = IGNORED) -> list[str]:
    """Differences between two CLI CSVs, one message per mismatching cell."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if got_rows[0] != want_rows[0]:
        return [f"header {got_rows[0]} != {want_rows[0]}"]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows) - 1} rows != {len(want_rows) - 1}"]
    header = want_rows[0]
    errors = []
    for i, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        for col, g, w in zip(header, g_row, w_row):
            if col in ignore:
                continue
            g_num, w_num = _number(g), _number(w)
            if g_num is None or w_num is None:
                same = g == w
            else:
                same = math.isclose(g_num, w_num, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)
            if not same:
                errors.append(f"row {i} {col}: {g!r} != {w!r}")
    return errors


def _column(text: str, col: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    i = rows[0].index(col)
    return [row[i] for row in rows[1:]]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name):
    assert compare_csv(golden_output(name), read_golden(name)) == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_manifest_id(name):
    got = _column(golden_output(name), "manifest_id")
    assert got == _column(read_golden(name), "manifest_id")


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(COMMANDS):
        with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), "w", newline="") as fh:
            fh.write(run_csv(command_argv(name)))
