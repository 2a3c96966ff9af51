"""Species data files: parsing, validation, state construction."""

import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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
    # the two roles the file names, and no other spelling of them
    for role in ("lattice", "Ground", "Metastable"):
        with pytest.raises(ValueError, match=f"clock role must be .*, got '{role}'"):
            sr.clock_state(role)


def test_roles_are_keyed_by_file_content(sr, sr_n_max_60):
    # an edited copy is another species: its states have no role in sr
    copy_meta = sr_n_max_60.metastable_state()
    assert sr_n_max_60.state_role(copy_meta) == "metastable"
    assert sr.state_role(copy_meta) is None
    assert sr_n_max_60.state_role(sr.metastable_state()) is None


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
        assert set(sp.line_tables) == {"ground", "metastable", "lattice"}
        for table in sp.line_tables.values():
            assert len(table.omega_au) == len(table.z2) >= 1
            assert table.core_alpha_au >= 0.0
            assert all(w > 0 for w in table.omega_au.tolist())
            assert all(z2 > 0 for z2 in table.z2.tolist())
    # the Sr lattice model: five lines (rows by |omega|, which is the file
    # order here), z^2 = d^2 / 3 at J = 0, and its core term
    d = np.array([3.72, 1.97, 2.5, 0.62, 1.49])
    assert sr.line_tables["lattice"].z2.tolist() == (np.float_power(d, 2) / 3.0).tolist()
    assert sr.line_tables["lattice"].core_alpha_au == 5.6


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


def test_clock_list_without_its_state_is_rejected_at_load(tmp_path):
    # a bbrline.metastable list of a file with no metastable state used to
    # load and be read by nothing
    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    text = re.sub(r"^metastable\.(series|n) = .*\n", "", text, flags=re.M)
    lines = enumerate(text.splitlines(), 1)
    lineno = next(i for i, ln in lines if ln.startswith("bbrline.metastable."))
    path = tmp_path / "sr.species"
    path.write_text(text)
    with pytest.raises(SpeciesDataError, match=f":{lineno}: bbrline.metastable: "):
        load_species(str(path))


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


def test_load_by_path_matches_bundled(tmp_path, sr):
    bundled = bundled_species_path("sr")
    assert os.path.isfile(bundled)
    by_path = load_species(bundled)
    assert (by_path.name, by_path.data_version) == (sr.name, sr.data_version)
    assert by_path.state(30, "3S1").binding_au == sr.state(30, "3S1").binding_au
    # each load reads the file at its path again
    text = Path(bundled).read_text(encoding="utf-8")
    path = tmp_path / "sr.species"
    for mu0 in ("2.50", "2.60"):
        path.write_text(
            text.replace("defect.3D1.mu0 = 2.658\n", f"defect.3D1.mu0 = {mu0}\n")
        )
        assert load_species(str(path)).series_info("3D1").mu0 == float(mu0)
    # a bare name is the bundled file, whose path is looked up once per name
    assert load_species("sr") is sr
    assert bundled_species_path("sr") == bundled


def test_env_data_dir_override(tmp_path, monkeypatch, sr):
    # RYDTHERM_DATA_DIR no longer names a data directory: an edited copy
    # there is read only through its path, never in place of a bare name
    bundled = bundled_species_path("sr")
    text = Path(bundled).read_text(encoding="utf-8")
    edited = text.replace("defect.3D1.mu0 = 2.658\n", "defect.3D1.mu0 = 2.50\n")
    assert edited != text
    (tmp_path / "sr.species").write_text(edited)
    monkeypatch.setenv("RYDTHERM_DATA_DIR", str(tmp_path))
    assert load_species("sr") is sr
    assert sr.series_info("3D1").mu0 == 2.658
    assert bundled_species_path("sr") == bundled
    assert not bundled.startswith(str(tmp_path))
    copy = load_species(str(tmp_path / "sr.species"))
    assert copy.series_info("3D1").mu0 == 2.50


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
# or at the latest when its metastable state is asked for.
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
    # a final no table reaches, or a second dipole for one final, would
    # load and never be used
    "lowlying-final-below-n_min": (
        r"lowlying\.3P0\.1\.final = 3D1:4", "lowlying.3P0.1.final = 3D1:3",
        r":\d+: lowlying\.3P0\.1\.final = '3D1:3' lies outside \[4, 80\] for 3D1",
    ),
    "lowlying-final-above-bound": (
        r"lowlying\.3P0\.1\.final = 3D1:4", "lowlying.3P0.1.final = 3D1:99",
        r":\d+: lowlying\.3P0\.1\.final = '3D1:99' lies outside \[4, 80\] for 3D1",
    ),
    "lowlying-final-listed-twice": (
        r"name = Sr",
        "name = Sr\nlowlying.3P0.2.final = 3D1:4\nlowlying.3P0.2.dipole_n32_au = 99",
        r":\d+: lowlying\.3P0\.2\.final = '3D1:4' is listed twice for lowlying\.3P0",
    ),
    "mu0-at-an-n-of-its-series": (
        r"defect\.3S1\.mu0 = 3\.371", "defect.3S1.mu0 = 6.0",
        r":\d+: defect\.3S1\.mu0 = 6\.0 equals n = 6 of its series",
    ),
    # numbers that parse but overflow where the engine uses them
    "mu-overflows-squared": (
        r"defect\.3S1\.mu0 = 3\.371", "defect.3S1.mu0 = 1e308",
        r":\d+: defect\.3S1: mu\(6\) overflows \(mu0 = 1e308\)",
    ),
    "mu-overflows-to-the-fourth": (
        r"defect\.3D1\.mu0 = 2\.658", "defect.3D1.mu0 = 1e150",
        r":\d+: defect\.3D1: mu\(4\) overflows \(mu0 = 1e150\)",
    ),
    "line-d-overflows-squared": (
        r"bbrline\.metastable\.1\.d_au = .*", "bbrline.metastable.1.d_au = 1e308",
        r":\d+: bbrline\.metastable\.1\.d_au = 1e308 overflows squared",
    ),
    "lowlying-dipole-overflows-squared": (
        r"lowlying\.3P0\.1\.dipole_n32_au = 8\.9",
        "lowlying.3P0.1.dipole_n32_au = 1e308",
        r":\d+: lowlying\.3P0\.1\.dipole_n32_au = 1e308 overflows squared",
    ),
    "lowlying-dipole-square-overflows": (
        r"lowlying\.3P0\.1\.dipole_n32_au = 8\.9",
        "lowlying.3P0.1.dipole_n32_au = 1e155",
        r":\d+: lowlying\.3P0\.1\.dipole_n32_au = 1e155 overflows squared",
    ),
    "line-omega-overflows-squared": (
        r"line\.1\.omega_au = .*", "line.1.omega_au = 1e200",
        r":\d+: line\.1\.omega_au = 1e200 overflows squared",
    ),
    "reduced-mass-factor-zero": (
        r"mass_amu = .*", "mass_amu = 5e-324",
        r":\d+: mass_amu = 5e-324 gives a reduced-mass factor of 0",
    ),
    "ionization-limit-overflows-in-hz": (
        r"ionization_limit_hartree = .*", "ionization_limit_hartree = 1e308",
        r":\d+: ionization_limit_hartree = 1e308 overflows in Hz",
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
    # the same edit, read as the bbrline.metastable list it leaves orphaned:
    # the load names the list's first line
    "bbrline-list-without-its-state": (
        r"metastable\.(series|n) = .*", "",
        r":\d+: bbrline\.metastable: Sr: no metastable state defined",
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


# Values a mutated key line may take; None deletes the line.
_MUTANT_VALUES = (
    "0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "5e-324", "", "x", "2.5", None,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=hst.data())
def test_one_mutated_key_line_loads_or_names_its_fault(tmp_path_factory, data):
    # a copy of a bundled file with one key line replaced or deleted either
    # loads or raises SpeciesDataError: no other exception and (warnings
    # being errors) no RuntimeWarning from an overflow
    name = data.draw(hst.sampled_from(["sr", "yb", "hydrogen"]))
    lines = Path(bundled_species_path(name)).read_text(encoding="utf-8").splitlines()
    keyed = [i for i, ln in enumerate(lines) if "=" in ln.split("#", 1)[0]]
    i = data.draw(hst.sampled_from(keyed))
    value = data.draw(hst.sampled_from(_MUTANT_VALUES))
    key = lines[i].partition("=")[0].strip()
    if value is None:
        del lines[i]
    else:
        lines[i] = f"{key} = {value}"
    path = tmp_path_factory.getbasetemp() / f"mutant_{name}.species"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load_species(str(path)).metastable_state()
    except SpeciesDataError:
        pass
