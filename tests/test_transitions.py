"""Transition tables: the column invariants every channel sum relies on."""

import math
from pathlib import Path

import numpy as np
import pytest

from rydtherm import load_species
from rydtherm.bbr import natural_linewidth
from rydtherm.transitions import (
    build_transition_table,
    channel_table,
    downward_channels,
    species_line_table,
)

# (species, n, series): Rydberg and low-lying states of each bundled species
_STATES = [
    ("sr", 30, "3D1"), ("sr", 25, "3S1"), ("sr", 40, "3P0"), ("sr", 5, "3P0"),
    ("yb", 25, "3P0"), ("yb", 20, "1S0"), ("yb", 6, "1S0"),
    ("hydrogen", 2, "1P1"), ("hydrogen", 3, "1D2"), ("hydrogen", 12, "1S0"),
]


def _table(kind, name, n, series):
    species = load_species(name)
    if kind == "lattice":
        return species_line_table(species, "lattice")
    state = species.state(n, series)
    build = {
        "radial": build_transition_table,
        "downward": downward_channels,
        "line": channel_table,
    }[kind]
    return build(state)


_CASES = (
    [("radial", *st) for st in _STATES]
    + [("downward", *st) for st in _STATES]
    + [("line", "sr", 5, "1S0"), ("line", "sr", 5, "3P0"),
       ("line", "yb", 6, "1S0"), ("line", "yb", 6, "3P0")]
    + [("lattice", "sr", None, None), ("lattice", "yb", None, None)]
)


@pytest.mark.parametrize("case", _CASES, ids=lambda c: " ".join(map(str, c)))
def test_table_columns(case):
    kind = case[0]
    table = _table(*case)
    rows = len(table.channel_ids)
    columns = [table.omega_au, table.z2]
    if kind in ("line", "lattice"):
        assert table.j_final is None and table.f_missing is None
        assert table.span is None and table.core_alpha_au is not None
    else:
        columns.append(table.j_final)
        assert table.f_missing == 1.0 - math.fsum(
            (2.0 * table.omega_au * table.z2).tolist()
        )
        # a radial id is series:n; its J is the series label's last digit
        assert table.j_final.tolist() == [float(cid[2]) for cid in table.channel_ids]
    for column in columns:
        assert column.shape == (rows,)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[:1] = 0.0
    assert np.all(np.diff(np.abs(table.omega_au)) >= 0.0)
    assert len(set(table.channel_ids)) == rows
    if kind == "downward":
        assert np.all(table.omega_au < 0.0)


def test_table_equality_is_identity(sr):
    table = build_transition_table(sr.state(30, "3D1"))
    assert table == table
    assert table != build_transition_table(sr.state(30, "3D1"), span=20)


def test_line_table_rows_sorted_from_unsorted_file(sr):
    # the Sr ground-state bbrline list is not in |omega| order in the file
    omega = sr.line_lists["ground"].omega_au
    table = channel_table(sr.state(5, "1S0"))
    assert list(omega) != table.omega_au.tolist()
    assert sorted(omega) == table.omega_au.tolist()


def test_line_tables_are_cached_by_file_content(sr, tmp_path):
    # every caller of a line list reads one table per species file content
    from rydtherm.species import bundled_species_path

    meta = sr.metastable_state()
    table = channel_table(meta)
    assert channel_table(meta) is table
    assert species_line_table(sr, "metastable") is table
    assert channel_table(load_species("sr").metastable_state()) is table
    lattice = species_line_table(sr, "lattice")
    assert lattice is not table and lattice.channel_ids != ()
    copy = tmp_path / "sr.species"
    copy.write_text(Path(bundled_species_path("sr")).read_text(encoding="utf-8") + "#\n")
    assert channel_table(load_species(str(copy)).metastable_state()) is not table


def test_empty_downward_table(sr):
    # nothing lies below the 5s5p 3P0 clock state in the radial model
    state = sr.state(5, "3P0")
    table = downward_channels(state)
    assert table.channel_ids == ()
    assert table.omega_au.shape == table.z2.shape == table.j_final.shape == (0,)
    assert table.f_missing == 1.0
    assert natural_linewidth(state) == 0.0


def _top_final(table):
    return max(int(cid.split(":")[1]) for cid in table.channel_ids)


def test_walks_stop_at_the_one_bound_on_n(sr, sr_n_max_60):
    # with rydberg_n_max = 60, the n' <= 75 window of Sr 40 3D1 ends at 60:
    # no final above the bound is solved, or skipped as unsolvable
    table = build_transition_table(sr_n_max_60.state(40, "3D1"))
    assert _top_final(table) == 60
    assert table.skipped_unsolvable == 0
    # 60 3F2 lies above 3D 61 and 62: the downward walk stops at the bound
    # too, and skips only the compact finals the bundled file skips
    full = downward_channels(sr.state(60, "3F2"))
    down = downward_channels(sr_n_max_60.state(60, "3F2"))
    assert (_top_final(full), _top_final(down)) == (62, 60)
    assert down.skipped_unsolvable == full.skipped_unsolvable == 3
