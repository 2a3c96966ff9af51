"""Species data files: parsing, validation, state construction."""

import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from rydtherm import constants as k
from rydtherm.species import (
    SpeciesDataError,
    bundled_species_path,
    load_species,
)


def test_names_and_versions(sr, yb, hydrogen):
    assert sr.name == "Sr"
    assert yb.name == "Yb"
    assert hydrogen.name == "H"
    for sp in (sr, yb, hydrogen):
        assert sp.data_version


def test_state_quantum_numbers(sr):
    st = sr.state(30, "3S1")
    assert (st.L, st.S, st.J) == (0, 1.0, 1.0)
    st = sr.state(25, "3D2")
    assert (st.L, st.S, st.J) == (2, 1.0, 2.0)
    assert str(st) == "Sr 25 3D2"


def test_quantum_defect_lowers_n_eff(sr):
    for series in ("3S1", "3P1", "3D1"):
        st = sr.state(30, series)
        assert 0 < st.n_eff < st.n
    # defect shrinks with L: s > p > d for Sr triplets
    defects = [sr.state(30, s).n - sr.state(30, s).n_eff for s in ("3S1", "3P1", "3D1")]
    assert defects[0] > defects[1] > defects[2]


def test_binding_energy_ordering(sr):
    assert sr.state(30, "3S1").binding_au > sr.state(31, "3S1").binding_au > 0


def test_hydrogen_binding_exact(hydrogen):
    assert hydrogen.state(2, "1P1").binding_au == pytest.approx(1 / 8, rel=1e-12)
    assert hydrogen.state(1, "1S0").binding_au == pytest.approx(1 / 2, rel=1e-12)


def test_reduced_mass_shrinks_binding(sr, hydrogen):
    # hydrogen file is infinite-mass; Sr carries a finite-mass correction
    assert hydrogen.reduced_mass_factor == 1.0
    assert 0.99999 < sr.reduced_mass_factor < 1.0


def test_roles(sr, yb):
    meta = sr.metastable_state()
    assert (meta.n, meta.series) == (5, "3P0")
    assert sr.state_role(meta) == "metastable"
    assert sr.state_role(sr.state(5, "1S0")) == "ground"
    assert sr.state_role(sr.state(30, "3S1")) is None
    assert (yb.metastable_state().n, yb.metastable_state().series) == (6, "3P0")


def test_out_of_range_n_raises(sr):
    with pytest.raises(SpeciesDataError):
        sr.state(3, "3S1")
    with pytest.raises(SpeciesDataError):
        sr.state(500, "3S1")


def test_rydberg_n_max_is_the_one_bound_on_n(sr, sr_n_max_60):
    assert sr.state(80, "3D1").n == 80
    with pytest.raises(SpeciesDataError, match=r"n = 81 outside valid range \[4, 80\]"):
        sr.state(81, "3D1")
    assert sr_n_max_60.state(60, "3D1").n == 60
    for series in sr_n_max_60.series_labels():
        with pytest.raises(SpeciesDataError, match=r"n = 61 outside valid range"):
            sr_n_max_60.state(61, series)


@pytest.mark.parametrize("n", [30.5, 30.0, "30", math.nan])
def test_non_integral_n_is_rejected(sr, n):
    with pytest.raises(SpeciesDataError, match="is not an integer"):
        sr.state(n, "3D1")


def test_numpy_integer_n_is_an_int(sr):
    st = sr.state(np.int64(30), "3D1")
    assert type(st.n) is int and st == sr.state(30, "3D1")


def test_states_come_only_from_species_state(sr):
    # no field defaults: a hand-built state would share the cache key ()
    from rydtherm.species import RydbergState

    with pytest.raises(TypeError):
        RydbergState(sr, 81, "3S1")


def test_unknown_series_raises(sr):
    with pytest.raises(SpeciesDataError):
        sr.state(30, "3X1")
    with pytest.raises(SpeciesDataError):
        sr.state(30, "5S1")


def test_states_are_frozen_and_hashable(sr):
    st = sr.state(30, "3S1")
    with pytest.raises(Exception):
        st.n = 31
    assert st == sr.state(30, "3S1")
    assert len({st, sr.state(30, "3S1"), sr.state(31, "3S1")}) == 2


def test_line_lists_present(sr, yb):
    for sp in (sr, yb):
        assert set(sp.line_lists) == {"ground", "metastable", "lattice"}
        for lines in sp.line_lists.values():
            assert len(lines.omega_au) == len(lines.d_au) >= 1
            assert lines.core_alpha_au >= 0.0
            assert all(w > 0 for w in lines.omega_au)
            assert all(d > 0 for d in lines.d_au)
    # the Sr lattice model: five lines, in file order, and its core term
    assert sr.line_lists["lattice"].d_au == (3.72, 1.97, 2.5, 0.62, 1.49)
    assert sr.line_lists["lattice"].core_alpha_au == 5.6


def _edited_sr(tmp_path, extra_lines):
    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    path = tmp_path / "sr.species"
    path.write_text(text + "".join(f"{ln}\n" for ln in extra_lines))
    return str(path), text.count("\n") + 1


@pytest.mark.parametrize("key", [
    "line.01.omega_au",
    "line.01.d_au",
    "bbrline.metastable.001.omega_au",
    "bbrline.ground.0.d_au",
    "lowlying.3P0.01.final",
    "lowlying.3P0.0.dipole_n32_au",
])
def test_zero_padded_entry_is_an_unknown_key(tmp_path, key):
    # an entry number has one spelling: a zero-padded twin of entry 1 used
    # to pass the key check and then vanish from its list
    path, lineno = _edited_sr(tmp_path, [f"{key} = 1.0"])
    with pytest.raises(SpeciesDataError, match=f":{lineno}: unknown key '{key}'"):
        load_species(path)


def test_per_series_n_max_is_an_unknown_key(tmp_path):
    # rydberg_n_max is the one upper bound on n; older files stated it
    # again per series
    path, lineno = _edited_sr(tmp_path, ["defect.3S1.n_max = 80"])
    with pytest.raises(SpeciesDataError, match=f":{lineno}: unknown key 'defect.3S1.n_max'"):
        load_species(path)


def test_lowlying_dipole_without_final_is_rejected(tmp_path):
    path, _ = _edited_sr(tmp_path, ["lowlying.3P0.7.dipole_n32_au = 8.9"])
    with pytest.raises(SpeciesDataError, match="'lowlying.3P0.7.final'"):
        load_species(path)


@pytest.mark.parametrize("key", ["line.core_alpha_au", "bbrline.ground.core_alpha_au"])
def test_core_term_without_lines_is_rejected(tmp_path, key):
    # a core polarizability with no line beside it used to load and be
    # ignored: the list it belongs to was no line list
    text = Path(bundled_species_path("hydrogen")).read_text(encoding="utf-8")
    path = tmp_path / "h.species"
    path.write_text(text + f"{key} = 5.0\n")
    lineno = text.count("\n") + 1
    with pytest.raises(SpeciesDataError, match=f":{lineno}: {key} without a"):
        load_species(str(path))


def test_line_without_dipole_is_rejected(tmp_path):
    path, _ = _edited_sr(tmp_path, ["bbrline.ground.9.omega_au = 0.1"])
    with pytest.raises(SpeciesDataError, match="'bbrline.ground.9.d_au'"):
        load_species(path)


def test_ionization_limit_positive(sr, yb):
    for sp in (sr, yb):
        assert sp.ionization_limit_au > 0.2
        assert sp.clock_frequency_hz > 1e14
        assert 1000 < sp.magic_bracket_nm[1] or sp.magic_bracket_nm[0] > 1000


def test_load_by_path_matches_bundled(sr):
    by_path = load_species(bundled_species_path("sr"))
    assert (by_path.name, by_path.data_version) == (sr.name, sr.data_version)
    assert by_path.state(30, "3S1").binding_au == sr.state(30, "3S1").binding_au


def test_env_data_dir_override(tmp_path, monkeypatch, sr):
    shutil.copy(bundled_species_path("sr"), tmp_path / "sr.species")
    monkeypatch.setenv("RYDTHERM_DATA_DIR", str(tmp_path))
    sp = load_species("sr")
    assert (sp.name, sp.data_version) == (sr.name, sr.data_version)
    # the bundled directory is looked up once per process, but each load
    # still looks in RYDTHERM_DATA_DIR first and reads the file it finds
    bundled = bundled_species_path("sr")
    assert os.path.isfile(bundled)
    text = Path(bundled).read_text(encoding="utf-8")
    for mu0 in ("2.50", "2.60"):
        (tmp_path / "sr.species").write_text(
            text.replace("defect.3D1.mu0 = 2.658\n", f"defect.3D1.mu0 = {mu0}\n")
        )
        assert load_species("sr").series_info("3D1").mu0 == float(mu0)
    monkeypatch.delenv("RYDTHERM_DATA_DIR")
    assert load_species("sr") is sr
    assert bundled_species_path("sr") == bundled


def test_caches_are_keyed_by_file_content(tmp_path, sr):
    # same name and data_version, different quantum defect: the copy must
    # not be served the bundled file's cached radial solutions and tables
    from rydtherm.polarizability import static_polarizability
    from rydtherm.radial import RadialSolver

    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    assert "defect.3D1.mu0 = 2.658\n" in text
    path = tmp_path / "sr.species"
    path.write_text(text.replace("defect.3D1.mu0 = 2.658\n", "defect.3D1.mu0 = 2.50\n"))
    static_polarizability(sr.state(30, "3D1"))  # fill the shared caches
    copy = load_species(str(path))
    shared = static_polarizability(copy.state(30, "3D1")).value_au
    fresh = static_polarizability(copy.state(30, "3D1"), solver=RadialSolver())
    assert shared == fresh.value_au
    assert shared > 0.0  # the bundled Sr value is about -1.6e10 a.u.
    assert (copy.name, copy.data_version) == (sr.name, sr.data_version)
    assert copy.sha256 != sr.sha256


def test_one_species_per_file_content(tmp_path, sr):
    assert load_species("sr") is load_species("Sr") is sr
    path = tmp_path / "copy.species"
    shutil.copy(bundled_species_path("sr"), path)
    assert load_species(str(path)) is sr
    # an edit in place is a new content: parsed anew, not served the old one
    text = path.read_text(encoding="utf-8")
    path.write_text(
        text.replace("defect.3D1.mu0 = 2.658\n", "defect.3D1.mu0 = 2.50\n")
    )
    edited = load_species(str(path))
    assert edited is not sr
    assert edited.sha256 != sr.sha256
    assert edited.series_info("3D1").mu0 == 2.50
    assert load_species(str(path)) is edited


def test_broken_file_raises_on_every_load(tmp_path):
    good = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    broken = good.replace("ionization_limit_hartree =", "ionization_limit =")
    assert broken != good
    paths = [tmp_path / "a.species", tmp_path / "b.species"]
    for path in paths:
        path.write_text(broken)
    for path in [*paths, *paths]:
        where = re.escape(str(path))
        with pytest.raises(SpeciesDataError, match=rf"^{where}:\d+: unknown key"):
            load_species(str(path))
    paths[0].write_text(good)
    assert load_species(str(paths[0])) is load_species("sr")


def test_missing_species_raises():
    with pytest.raises((SpeciesDataError, FileNotFoundError)):
        load_species("unobtainium")


def test_corrupt_file_raises(tmp_path):
    bad = tmp_path / "bad.species"
    bad.write_text("format_version = 1\nname = Xx\n")
    with pytest.raises(SpeciesDataError):
        load_species(str(bad))


def test_energy_au_is_negative_binding(sr):
    st = sr.state(40, "3D1")
    assert st.energy_au == pytest.approx(-st.binding_au, rel=1e-15)
    # physical scale: binding ~ 1/(2 n*^2) hartree
    assert st.binding_au == pytest.approx(
        sr.reduced_mass_factor / (2 * st.n_eff**2), rel=1e-12
    )


@pytest.mark.parametrize("key, value", [
    ("clock.frequency_hz", "nan"),
    ("bbrline.metastable.core_alpha_au", "nan"),
    ("mass_amu", "nan"),
    ("mass_amu", "-inf"),
    ("clock.frequency_hz", "inf"),
    ("defect.3D1.mu0", "inf"),
    ("ionization_limit_hartree", "1e400"),  # overflows to inf
])
def test_non_finite_values_are_rejected(tmp_path, key, value):
    # every number in a species file must be finite; only mass_amu = inf
    # (hydrogen's infinitely heavy nucleus) is allowed
    lines = Path(bundled_species_path("sr")).read_text(encoding="utf-8").splitlines()
    (lineno,) = [i for i, ln in enumerate(lines, 1) if ln.startswith(f"{key} =")]
    lines[lineno - 1] = f"{key} = {value}"
    path = tmp_path / "sr.species"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpeciesDataError, match=f":{lineno}: bad float"):
        load_species(str(path))


# One case per check of the loader: (lines, replacement, message).  Each
# full line of the bundled Sr file that matches the ``lines`` regex is
# replaced (an empty replacement deletes it); the copy then fails to load,
# or, without a metastable state, fails when that state is asked for.
_BROKEN_SR = {
    "series-label-grammar": (
        r"defect\.3S1\.mu0 = 3\.371", "defect.3X1.mu0 = 3.371",
        r":\d+: unknown key 'defect\.3X1\.mu0'",
    ),
    "series-J-outside-L-S": (
        r"name = Sr", "name = Sr\ndefect.3D0.mu0 = 2.6",
        r"series label '3D0' violates \|L-S\| <= J <= L\+S",
    ),
    "no-equals-sign": (r"name = Sr", "name Sr", r":\d+: expected 'key = value'"),
    "duplicate-key": (r"name = Sr", "name = Sr\nname = Sr", r":\d+: duplicate key 'name'"),
    "bad-float": (
        r"defect\.3D1\.mu0 = 2\.658", "defect.3D1.mu0 = 2.658x",
        r":\d+: bad float '2\.658x' for 'defect\.3D1\.mu0'",
    ),
    "bad-integer": (
        r"rydberg_n_max = 80.*", "rydberg_n_max = 80.0",
        r":\d+: bad integer '80\.0' for 'rydberg_n_max'",
    ),
    "line-omega-not-positive": (
        r"line\.2\.omega_au = .*", "line.2.omega_au = 0",
        r"line\.2\.omega_au must be positive",
    ),
    "line-d-not-positive": (
        r"bbrline\.ground\.1\.d_au = .*", "bbrline.ground.1.d_au = -5.248",
        r"bbrline\.ground\.1\.d_au must be positive",
    ),
    "format-version": (
        r"format_version = 1", "format_version = 2", r"unsupported format_version",
    ),
    "mass-not-positive": (
        r"mass_amu = .*", "mass_amu = 0", r"mass_amu must be positive or inf",
    ),
    "ionization-limit-not-positive": (
        r"ionization_limit_hartree = .*", "ionization_limit_hartree = -0.2",
        r"ionization_limit_hartree must be > 0",
    ),
    "n_min-above-bound": (
        r"defect\.3S1\.n_min = 6", "defect.3S1.n_min = 81",
        r"defect\.3S1: n_min > rydberg_n_max",
    ),
    "n_eff-unphysical": (
        r"defect\.3S1\.n_min = 6", "defect.3S1.n_min = 3",
        r"defect\.3S1: n_eff\(3\) = -\d+\.\d+ is not physical",
    ),
    "no-defect-entries": (r"defect\..*", "", r"no defect\.<series> entries"),
    "lowlying-unknown-initial": (
        r"name = Sr", "name = Sr\nlowlying.1G4.1.final = 3F3:4",
        r"lowlying\.1G4: unknown initial series",
    ),
    "lowlying-final-spelling": (
        r"lowlying\.3P0\.1\.final = 3D1:4", "lowlying.3P0.1.final = 3D1-4",
        r"lowlying\.3P0\.1\.final = '3D1-4' must be '<series>:<n>'",
    ),
    "lowlying-not-dipole-coupled": (
        r"lowlying\.3P0\.1\.final = 3D1:4", "lowlying.3P0.1.final = 3P1:5",
        r"lowlying\.3P0\.1: '3P1:5' is not dipole-coupled",
    ),
    "lowlying-dipole-not-positive": (
        r"lowlying\.3P0\.1\.dipole_n32_au = 8\.9", "lowlying.3P0.1.dipole_n32_au = 0",
        r"lowlying\.3P0\.1\.dipole_n32_au must be > 0",
    ),
    "magic-bracket": (
        r"magic\.bracket_nm_high = 2450", "magic.bracket_nm_high = 2200",
        r"bad magic bracket",
    ),
    "magic-bracket-high-alone": (
        r"magic\.bracket_nm_low = 2300", "",
        r"missing required key 'magic\.bracket_nm_low'",
    ),
    "ground-series-unknown": (
        r"ground\.series = 1S0", "ground.series = 1G4", r"unknown series '1G4'",
    ),
    "ground-n-out-of-range": (
        r"ground\.n = 5", "ground.n = 4", r"n = 4 outside \[5, 80\] for 1S0",
    ),
    "metastable-n-without-series": (
        r"metastable\.series = 3P0", "", r"missing required key 'metastable\.series'",
    ),
    "no-metastable-state": (
        r"metastable\.(series|n) = .*", "", r"Sr: no metastable state defined",
    ),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_SR))
def test_broken_species_file_names_its_fault(tmp_path, case):
    lines, replacement, message = _BROKEN_SR[case]
    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    edited, count = re.subn(
        rf"^(?:{lines})\n", replacement and replacement + "\n", text, flags=re.M
    )
    assert count >= 1
    path = tmp_path / "sr.species"
    path.write_text(edited)
    with pytest.raises(SpeciesDataError, match=message):
        load_species(str(path)).metastable_state()
