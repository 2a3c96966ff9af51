"""Command-line interface: CSV contract, manifests, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydtherm import cli
from rydtherm.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    main,
)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_fw_basic(capsys):
    code, out, _ = _run(capsys, "fw", "--y", "1.0", "--y", "2.5")
    assert code == EXIT_OK
    rows = _rows(out)
    assert len(rows) == 2
    assert rows[0]["schema"] == "fw.v1"
    assert float(rows[0]["value_fast"]) == pytest.approx(-1.9994076, rel=1e-6)
    assert float(rows[0]["abs_diff"]) < 1e-6


def test_csv_is_rfc4180_crlf(capsys):
    code, out, _ = _run(capsys, "fig2", "--points", "3")
    assert code == EXIT_OK
    assert "\r\n" in out
    header = out.split("\r\n", 1)[0]
    assert header == "y,farley_wing,schema,manifest_id"


def test_twelve_significant_digits(capsys):
    _, out, _ = _run(capsys, "bbr", "--species", "sr", "--state", "30:3S1")
    row = _rows(out)[0]
    mantissa = row["shift_hz"].replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) == 12


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["fig2", "--points", "50", "-o", str(a)]) == EXIT_OK
    assert main(["fig2", "--points", "50", "-o", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_import_and_magic_leave_scipy_solvers_unloaded(tmp_path):
    # start-up is most of a short command: importing the package and the
    # CLI, and the magic, thermo invert, bbr and fig3 commands, load none of
    # scipy's optimize, integrate or special (only the reference quadrature
    # routes import integrate), nor the linalg package (the radial solver
    # loads LAPACK's extension alone)
    import subprocess
    import sys

    import rydtherm

    commands = [
        ["magic", "--species", "Yb", "--n", "25"],
        ["thermo", "invert", "--species", "Sr", "--state", "30:3D1",
         "--offset-hz", "2350.73", "--sigma-hz", "0.16"],
        ["bbr", "--species", "Sr", "--state", "30:3D1", "--temperature", "300"],
        ["fig3", "--species", "Sr", "--series", "3S1", "--n-min", "20",
         "--n-max", "22"],
    ]
    out = str(tmp_path / "out.csv")
    code = (
        "import sys, rydtherm, rydtherm.cli\n"
        f"for args in {commands!r}:\n"
        f"    assert rydtherm.cli.main(args + ['-o', {out!r}]) == 0\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate',"
        " 'scipy.special', 'scipy.linalg') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(rydtherm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # --state appends: a list left on the shared parser would carry the
    # first call's two states into the second call
    code, out, _ = _run(capsys, "bbr", "--species", "sr",
                        "--state", "25:3S1", "--state", "26:3S1")
    assert code == EXIT_OK and len(_rows(out)) == 2
    code, out, _ = _run(capsys, "bbr", "--species", "sr", "--state", "30:3S1")
    assert code == EXIT_OK
    assert [row["state"] for row in _rows(out)] == ["Sr 30 3S1"]


def test_usage_error_between_calls_changes_no_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["magic", "--species", "yb", "--n", "25", "--k-ratio", "0.5"]
    assert main([*argv, "-o", str(a)]) == EXIT_OK
    # parsed up to --photons, which argparse then refuses
    bad = ["magic", "--species", "sr", "--n", "30", "--k-ratio", "0.25", "--photons", "3"]
    assert main(bad) == EXIT_USAGE
    assert main([*argv, "-o", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_manifest_id_excludes_output_paths(tmp_path, capsys):
    # the id names the computation, not where it was written
    a, b = tmp_path / "x.csv", tmp_path / "y.csv"
    main(["fw", "--y", "1.0", "-o", str(a)])
    main(["fw", "--y", "1.0", "-o", str(b)])
    capsys.readouterr()
    ra, rb = _rows(a.read_text()), _rows(b.read_text())
    assert ra[0]["manifest_id"] == rb[0]["manifest_id"]


@pytest.mark.parametrize(
    "spelling",
    [
        ("-o", "{}"),
        ("-o{}",),
        ("-o={}",),
        ("--output", "{}"),
        ("--output={}",),
        ("--out", "{}"),
        ("--out={}",),
        ("--o", "{}"),
        ("--manifest-out", "{}"),
        ("--manifest-out={}",),
        ("--manifest", "{}"),
        ("--ma={}",),
    ],
    ids=" ".join,
)
def test_manifest_id_ignores_every_output_spelling(tmp_path, capsys, spelling):
    # every spelling argparse accepts for -o/--output and --manifest-out,
    # prefix abbreviations and attached values included, leaves the id of
    # the run without a destination
    _, plain, _ = _run(capsys, "fw", "--y", "1.0")
    want = _rows(plain)[0]["manifest_id"]
    for name in ("a.out", "b.out"):
        path = tmp_path / name
        argv = ["fw", "--y", "1.0", *(part.format(path) for part in spelling)]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert path.exists()
        csv_text = path.read_text() if not out else out
        assert _rows(csv_text)[0]["manifest_id"] == want


def test_manifest_id_tracks_settings(capsys):
    _, out1, _ = _run(capsys, "bbr", "--species", "sr", "--state", "30:3S1")
    _, out2, _ = _run(capsys, "bbr", "--species", "sr", "--state", "30:3S1",
                      "--temperature", "200")
    assert _rows(out1)[0]["manifest_id"] != _rows(out2)[0]["manifest_id"]


def _id(capsys, *argv):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    return _rows(out)[0]["manifest_id"]


def test_manifest_id_ignores_order_and_explicit_defaults(capsys):
    # the id hashes the parsed option values, not the argument tokens
    want = _id(capsys, "bbr", "--species", "sr", "--state", "30:3S1")
    assert _id(capsys, "bbr", "--state", "30:3S1", "--species", "Sr") == want
    assert _id(capsys, "bbr", "--temperature=300", "--species", "sr",
               "--state", "30:3S1", "--span", "35", "--route", "sum") == want
    assert _id(capsys, "bbr", "--species", "sr", "--state", "31:3S1") != want


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_explicit_defaults_parse_to_the_same_namespace(command):
    # each golden run of the command, with every option that it leaves at
    # a non-None default spelled out at that default, parses to the same
    # Namespace, so the manifest id cannot move (the parser only)
    from test_golden import COMMANDS as GOLDEN
    from test_golden import command_argv

    parser = dict(_command_parsers(_build_parser()))[command]
    words = command.split()
    runs = [command_argv(name) for name in sorted(GOLDEN)
            if command_argv(name)[: len(words)] == words]
    assert runs
    for argv in runs:
        args = _build_parser().parse_args(argv)
        spelled = [
            f"{action.option_strings[-1]}={action.default}"
            for action in parser._actions
            if action.option_strings and action.nargs != 0
            and action.default is not None
            and getattr(args, action.dest) == action.default
        ]
        assert _build_parser().parse_args(argv + spelled) == args, spelled


def test_manifest_id_is_keyed_by_file_content(tmp_path, capsys):
    # the same species and measurement bytes at two paths give one id; an
    # edited measurement file gives another
    from rydtherm.species import bundled_species_path

    golden = os.path.join(os.path.dirname(__file__), "golden", "meas_sr.csv")
    text = Path(golden).read_text(encoding="utf-8")
    species = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    ids = set()
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        meas, sp = tmp_path / name / "m.csv", tmp_path / name / "sr.species"
        meas.write_text(text)
        sp.write_text(species)
        ids.add(_id(capsys, "thermo", "joint", "--species", str(sp),
                    "--measurements", str(meas)))
    assert ids == {_id(capsys, "thermo", "joint", "--species", "sr",
                       "--measurements", golden)}
    meas.write_text(text.replace("3442.58218", "3442.6"))
    assert _id(capsys, "thermo", "joint", "--species", str(sp),
               "--measurements", str(meas)) not in ids


def test_manifest_out_file(tmp_path, capsys):
    mpath = tmp_path / "run.json"
    _, out, _ = _run(
        capsys, "fw", "--y", "1.0", "--manifest-out", str(mpath)
    )
    manifest = json.loads(mpath.read_text())
    assert manifest["manifest_id"] == _rows(out)[0]["manifest_id"]
    assert manifest["tool"] == "rydtherm"
    assert manifest["tool_version"]
    assert manifest["wall_time_s"] >= 0.0
    # the raw command line is kept, outside the hash
    assert manifest["command"] == ["rydtherm", "fw", "--y", "1.0", "--manifest-out",
                                   str(mpath)]


def test_species_data_version_in_manifest(tmp_path, capsys):
    mpath = tmp_path / "run.json"
    _run(
        capsys,
        "bbr", "--species", "sr", "--state", "30:3S1",
        "--manifest-out", str(mpath),
    )
    manifest = json.loads(mpath.read_text())
    assert manifest["species"] == "Sr"
    assert manifest["species_data_version"].startswith("sr-")


def test_species_is_a_bundled_name_or_a_path(tmp_path, monkeypatch, capsys, sr):
    # an edited copy named `sr` in the working directory: `./sr` is that
    # file and `sr` the bundled one, whatever the working directory holds
    from rydtherm.bbr import bbr_shift_sum
    from rydtherm.species import bundled_species_path, load_species

    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    (tmp_path / "sr").write_text(
        text.replace("defect.3D1.mu0 = 2.658\n", "defect.3D1.mu0 = 2.60\n")
    )
    monkeypatch.chdir(tmp_path)
    edited = load_species(os.path.join(".", "sr"))
    assert edited is not sr
    for spelling, species, hz in (
        (os.path.join(".", "sr"), edited, 2378.91), ("sr", sr, 2346.64),
    ):
        code, out, _ = _run(capsys, "bbr", "--species", spelling, "--state", "30:3D1")
        assert code == EXIT_OK, spelling
        shift = bbr_shift_sum(species.state(30, "3D1"), 300.0).shift_hz
        assert _rows(out)[0]["shift_hz"] == "%.12g" % shift, spelling
        assert shift == pytest.approx(hz, abs=0.005), spelling
    # the old spelling read the bundled file here
    code, out, err = _run(capsys, "bbr", "--species-file", "sr", "--state", "30:3D1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "the following arguments are required: --species" in err


def test_manifest_names_species_content(tmp_path, capsys):
    # two files with the same name and data_version but different content
    import hashlib

    from rydtherm.species import bundled_species_path

    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    copy = tmp_path / "sr.species"
    copy.write_text(text + "# an edited copy\n")
    ids = []
    for i, path in enumerate((bundled_species_path("sr"), str(copy))):
        mpath = tmp_path / f"run{i}.json"
        _run(capsys, "bbr", "--species", path, "--state", "30:3S1",
             "--manifest-out", str(mpath))
        manifest = json.loads(mpath.read_text())
        with open(path, "rb") as fh:
            assert manifest["species_sha256"] == hashlib.sha256(fh.read()).hexdigest()
        ids.append(manifest["manifest_id"])
    assert ids[0] != ids[1]


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_bad_tolerance_is_a_usage_error(capsys, tolerance):
    code, _, err = _run(
        capsys, "bbr", "--species", "sr", "--state", "30:3D1",
        "--tolerance", tolerance,
    )
    assert code == EXIT_USAGE
    assert "--tolerance" in err


@pytest.mark.parametrize("argv", [
    "thermo budget --species Sr --state 30:3D1 --fractional nan",
    "thermo budget --species Sr --state 30:3D1 --fractional inf",
    # a fractional accuracy of 1 or more means nothing (1e300 overflows to inf)
    "thermo budget --species Sr --state 30:3D1 --fractional 1",
    "thermo budget --species Sr --state 30:3D1 --fractional 1e300",
    "thermo budget --species Sr --state 30:3D1 --linewidth-hz nan",
    "thermo budget --species Sr --state 30:3D1 --linewidth-hz -5",
    "polarizability --species Sr --state 25:3D1 --omega-au nan",
    "polarizability --species Sr --state 25:3D1 --wavelength-nm nan",
    # m_J must be one of J, J - 1, ..., -J
    "polarizability --species Sr --state 25:3D1 --m-j 0.5",
    "fw --y 1 --y inf",
    "fig2 --points 5 --y-max inf",
    # the metastable state is the lower end of the drive: no transition
    "magic --species sr --n 5 --series 3P0",
])
def test_meaningless_numbers_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error" in err


def test_usage_errors_exit_2(capsys):
    assert _run(capsys, "fw")[0] == EXIT_USAGE  # no y values
    assert _run(capsys, "fig2", "--y-min", "5", "--y-max", "2")[0] == EXIT_USAGE
    assert _run(capsys, "bbr", "--state", "30:3S1")[0] == EXIT_USAGE  # no species
    assert (
        _run(capsys, "bbr", "--species", "sr", "--state", "30-3S1")[0]
        == EXIT_USAGE
    )
    assert (
        _run(capsys, "table1", "--species", "yb", "--n", ",")[0] == EXIT_USAGE
    )
    assert _run(capsys, "nonsense")[0] == EXIT_USAGE


def _command_parsers(parser, prefix=()):
    """(command name, its parser) of every leaf command, e.g. 'thermo joint'."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _command_parsers(sub, (*prefix, name))


def _dests(parser):
    return {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def test_every_cli_option_is_read(monkeypatch, capsys):
    # an option that no golden run of its command reads shapes no output,
    # yet the manifest id hashes it: each command takes only what it reads
    from test_golden import COMMANDS as GOLDEN
    from test_golden import command_argv

    reads: set[str] = set()
    recording = False

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            if recording:
                reads.add(name)
            return super().__getattribute__(name)

    parser = _build_parser()
    manifest = cli._manifest

    def parse_args(argv):
        # record from the parsed namespace to the manifest, which reads
        # vars(args) whole: the species load and the row function
        nonlocal recording
        args = argparse.ArgumentParser.parse_args(parser, argv, Recorder())
        recording = True
        return args

    def stop_recording(*args):
        nonlocal recording
        recording = False
        return manifest(*args)

    monkeypatch.setattr(parser, "parse_args", parse_args)
    monkeypatch.setattr(cli, "_manifest", stop_recording)
    read_by: dict[str, set[str]] = {}
    for golden in GOLDEN:
        argv = command_argv(golden)
        reads.clear()
        assert main(argv) == EXIT_OK, golden
        name = " ".join(argv[:2]) if argv[0] == "thermo" else argv[0]
        read_by.setdefault(name, set()).update(reads)
    capsys.readouterr()
    commands = dict(_command_parsers(parser))
    assert set(read_by) == set(commands)
    exempt = {"output", "manifest_out", "command", "thermo_command"}
    unread = {
        name: sorted(_dests(sub) - exempt - read_by[name])
        for name, sub in commands.items()
        if _dests(sub) - exempt - read_by[name]
    }
    assert not unread, f"options no golden run of their command reads: {unread}"


# the options each command stopped accepting when the commands were cut
# down to the options they read, and --species-file, since --species takes
# a bundled name or a path
_T, _S, _TOL, _SF = "--temperature 300", "--span 35", "--tolerance 0.25", "--species-file x"
_DROPPED = {
    "fw --y 1": ("--species sr", _SF, _T, _S, _TOL),
    "fig2": ("--species sr", _SF, _T, _S, _TOL),
    "bbr --species sr --state 30:3S1": (_SF,),
    "polarizability --species sr --state 25:3D1": (_SF, _T, _TOL),
    "thermo invert --species sr --state 30:3D1 --offset-hz 2350.73 --sigma-hz 0.16":
        (_SF, _T, _TOL, "--measurements {meas}", "--seed 90"),
    "thermo joint --species sr --measurements {meas}": (_SF, _T, _TOL, "--seed 90"),
    "magic --species yb --n 25": (_SF, _T, _S, _TOL),
    "table1 --species yb --n 25": (_SF, _T, _S, _TOL),
    "linewidth --species sr --state 40:3P0": (_SF, _TOL),
    "thermo budget --species sr --state 30:3D1": (_SF, _TOL),
    "fig3 --species sr --series 3S1 --n-min 20 --n-max 20": (_SF,),
}


def test_dropped_options_exit_2(capsys):
    meas = os.path.join(os.path.dirname(__file__), "golden", "meas_sr.csv")
    cases = [(base, flag) for base, flags in _DROPPED.items() for flag in flags]
    assert len(cases) == 36
    for base, flag in cases:
        argv = f"{base} {flag}".format(meas=meas).split()
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert "unrecognized arguments" in err, argv


@pytest.mark.parametrize("argv, message", [
    ("bbr --state 30:3S1", "required: --species"),
    ("polarizability --species sr --state 25:3D1 --omega-au 0.05 --wavelength-nm 900",
     "--wavelength-nm: not allowed with argument --omega-au"),
])
def test_one_input_route_per_value(capsys, argv, message):
    code, out, err = _run(capsys, *argv.split())
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err


@pytest.mark.parametrize("probe", [
    "--omega-au 1e300", "--omega-au 2e154", "--wavelength-nm 1e-300",
])
def test_probe_frequency_squared_beyond_double_range_exits_4(capsys, probe):
    # omega^2 overflowed inside the channel sum: numpy warned, and the row
    # was written with alpha 0 and -0
    argv = f"polarizability --species Sr --state 25:3D1 {probe}".split()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv)
    assert (code, out) == (EXIT_NUMERIC, "")
    assert "squared lies beyond the double range" in err


def test_data_errors_exit_3(capsys, tmp_path):
    from rydtherm.species import bundled_species_path

    assert (
        _run(capsys, "bbr", "--species", "/no/such.species",
             "--state", "30:3S1")[0]
        == EXIT_DATA
    )
    bad = tmp_path / "bad.species"
    bad.write_text("format_version = 1\nname = Xx\n")
    assert (
        _run(capsys, "bbr", "--species", str(bad), "--state", "30:3S1")[0]
        == EXIT_DATA
    )
    # a mu0 equal to an n of its own series divided by zero in the loader
    sr_text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    bad.write_text(sr_text.replace("defect.3S1.mu0 = 3.371\n", "defect.3S1.mu0 = 6.0\n"))
    assert (
        _run(capsys, "bbr", "--species", str(bad), "--state", "30:3S1")[0]
        == EXIT_DATA
    )
    # out-of-range n is a data-validation failure, not a crash
    assert (
        _run(capsys, "bbr", "--species", "sr", "--state", "500:3S1")[0]
        == EXIT_DATA
    )


@pytest.mark.parametrize("key", [
    "clock.frequency_hz", "bbrline.metastable.core_alpha_au", "mass_amu",
])
def test_nan_in_species_file_exits_3(capsys, tmp_path, key):
    # a nan that loads reaches the CSV: six columns for the clock frequency,
    # four for the core polarizability
    from rydtherm.species import bundled_species_path

    lines = Path(bundled_species_path("sr")).read_text(encoding="utf-8").splitlines()
    lines = [f"{key} = nan" if ln.startswith(f"{key} =") else ln for ln in lines]
    path = tmp_path / "sr.species"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(
        capsys, "thermo", "budget", "--species", str(path), "--state", "25:3D1"
    )
    assert code == EXIT_DATA
    assert out == ""
    assert "bad float 'nan'" in err


def test_nonconvergence_exits_4_with_rows(capsys):
    code, out, err = _run(
        capsys,
        "bbr", "--species", "sr", "--state", "30:3S1", "--tolerance", "1e-9",
    )
    assert code == EXIT_NUMERIC
    rows = _rows(out)  # the table is still emitted, flagged unconverged
    assert rows[0]["converged"] == "false"
    assert "rydtherm" in err


@pytest.mark.parametrize("n, code", [(71, EXIT_OK), (76, EXIT_NUMERIC)])
def test_usable_n_stops_below_the_bound(capsys, n, code):
    # n = 76 loads (n <= rydberg_n_max = 80), but its window is clipped at
    # the bound, so the tail misses 0.60 of the strength and the row is
    # flagged; n = 71 still converges (f_missing 0.243)
    got, out, _ = _run(capsys, "bbr", "--species", "Sr", "--state", f"{n}:3D1")
    assert got == code
    assert _rows(out)[0]["converged"] == ("true" if code == EXIT_OK else "false")


def test_magic_no_root_exits_4(capsys, yb, tmp_path):
    # a Yb file whose magic bracket holds no root of the magic condition
    from test_lattice import _with_bracket

    _with_bracket(yb, (2000.0, 2200.0), tmp_path)
    code, out, err = _run(
        capsys, "magic", "--species", str(tmp_path / "yb.species"), "--n", "40"
    )
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numerical failure" in err and "no magic root" in err


def test_bbr_both_routes(capsys):
    _, out, _ = _run(
        capsys,
        "bbr", "--species", "sr", "--state", "30:3S1", "--route", "both",
    )
    rows = _rows(out)
    assert [r["method"] for r in rows] == ["sum", "integral"]
    assert float(rows[0]["shift_hz"]) == pytest.approx(
        float(rows[1]["shift_hz"]), rel=1e-3
    )


def test_polarizability_command(capsys):
    code, out, _ = _run(
        capsys,
        "polarizability", "--species", "sr", "--state", "25:3D1",
    )
    assert code == EXIT_OK
    row = _rows(out)[0]
    assert row["schema"] == "polarizability.v1"
    assert float(row["alpha_hz_m2_v2"]) == pytest.approx(-91.8, rel=1e-2)
    code2, out2, _ = _run(
        capsys,
        "polarizability", "--species", "sr", "--state", "25:3D1",
        "--m-j", "scalar",
    )
    assert float(_rows(out2)[0]["alpha_hz_m2_v2"]) == pytest.approx(
        -141.0, rel=1e-2
    )


def test_table1_default_rows_are_table_1(capsys):
    from test_golden import compare_csv, read_golden

    code, out, _ = _run(capsys, "table1", "--species", "Yb")
    assert code == EXIT_OK
    assert compare_csv(out, read_golden("table1_yb")) == []


def test_table1_yb(capsys):
    code, out, _ = _run(capsys, "table1", "--species", "yb", "--n", "25,40")
    assert code == EXIT_OK
    rows = _rows(out)
    assert float(rows[0]["lambda_m_nm"]) == pytest.approx(1203.0, rel=0.02)
    assert float(rows[1]["lambda_m_nm"]) == pytest.approx(1142.0, rel=0.02)
    assert float(rows[0]["lambda_i_nm"]) == pytest.approx(607.8, rel=0.005)


def test_linewidth_command(capsys):
    code, out, _ = _run(
        capsys, "linewidth", "--species", "sr", "--state", "25:3D1"
    )
    assert code == EXIT_OK
    row = _rows(out)[0]
    assert float(row["total_hz"]) == pytest.approx(
        float(row["natural_hz"]) + float(row["bbr_fwhm_hz"]), rel=1e-9
    )


def test_thermo_invert_inline(capsys):
    code, out, _ = _run(
        capsys,
        "thermo", "invert", "--species", "sr", "--state", "30:3D1",
        "--offset-hz", "2350.73", "--sigma-hz", "0.16",
    )
    assert code == EXIT_OK
    row = _rows(out)[0]
    assert float(row["temperature_k"]) == pytest.approx(300.0, abs=0.05)
    assert float(row["sigma_temperature_k"]) == pytest.approx(0.01, rel=0.05)


def test_thermo_invert_requires_inputs(capsys):
    code, _, err = _run(capsys, "thermo", "invert", "--species", "sr")
    assert code == EXIT_USAGE
    assert "required: --state, --offset-hz, --sigma-hz" in err


@pytest.mark.parametrize("argv", [
    # exited 0 at 1000 K with an infinite sigma
    "thermo invert --species Sr --state 5:3P0 --offset-hz 0 --sigma-hz 1",
    # exited 0 at 242.8 K after a RankWarning
    "thermo invert --species Sr --state 5:1S0 --offset-hz 1 --sigma-hz 1",
    # exited 4 as a degenerate design matrix
    "thermo joint --species Sr --measurements {meas}",
])
def test_clock_state_is_no_thermometer_exits_2(tmp_path, capsys, argv):
    meas = tmp_path / "meas.csv"
    meas.write_text("state,offset_hz,sigma_hz\n5:3P0,1.0,0.16\n30:3D1,2350.7,0.16\n")
    code, out, err = _run(capsys, *argv.format(meas=meas).split())
    assert (code, out) == (EXIT_USAGE, "")
    assert "clock state, not a Rydberg partner of the metastable state" in err


def test_thermo_joint_from_csv(tmp_path, capsys):
    import rydtherm as rt
    from rydtherm.polarizability import static_polarizability
    from rydtherm.thermometry import transition_bbr_shift

    sr = rt.load_species("sr")
    lines = ["state,offset_hz,sigma_hz"]
    for n in (25, 30):
        st = sr.state(n, "3D1")
        offset = transition_bbr_shift(sr, st, 300.0)
        offset -= 0.5 * static_polarizability(st).value_hz_m2_v2 * 25.0
        lines.append(f"{n}:3D1,{offset:.9g},0.16")
    meas = tmp_path / "meas.csv"
    meas.write_text("\n".join(lines) + "\n")

    code, out, _ = _run(
        capsys,
        "thermo", "joint", "--species", "sr", "--measurements", str(meas),
    )
    assert code == EXIT_OK
    row = _rows(out)[0]
    assert float(row["temperature_k"]) == pytest.approx(300.0, abs=1e-3)
    assert float(row["field_v_per_m"]) == pytest.approx(5.0, abs=1e-3)


def test_thermo_budget(capsys):
    code, out, _ = _run(
        capsys,
        "thermo", "budget", "--species", "sr", "--state", "30:3D1",
        "--linewidth-hz", "3500",
    )
    assert code == EXIT_OK
    row = _rows(out)[0]
    assert float(row["temperature_sigma_k"]) == pytest.approx(0.01, rel=0.05)
    assert float(row["leverage"]) > 100.0


def test_thermo_budget_explicit_metastable_lower_state(capsys):
    # --lower-state 5:3P0 spells out the default: every data cell is the
    # default's, byte for byte; only manifest_id hashes the extra option
    from test_golden import command_argv, read_golden

    def data(text):
        return [{k: v for k, v in row.items() if k != "manifest_id"}
                for row in _rows(text)]

    argv = [*command_argv("thermo_budget_sr"), "--lower-state", "5:3P0"]
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    assert data(out) == data(read_golden("thermo_budget_sr"))


def test_thermo_budget_at_zero_kelvin_exits_2(capsys):
    # every BBR slope is 0 at 0 K: no finite temperature uncertainty exists
    code, out, err = _run(
        capsys,
        "thermo", "budget", "--species", "sr", "--state", "30:3D1",
        "--temperature", "0",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "sensitivity is zero" in err


def test_fig3_small_grid(capsys):
    code, out, _ = _run(
        capsys,
        "fig3", "--species", "sr", "--series", "3S1",
        "--n-min", "30", "--n-max", "32",
    )
    assert code == EXIT_OK
    rows = _rows(out)
    assert [r["n"] for r in rows] == ["30", "31", "32"]
    assert all(r["converged"] == "true" for r in rows)
    assert all(r["schema"] == "fig3.v1" for r in rows)


def test_fig3_zero_temperature_column(capsys):
    code, out, _ = _run(
        capsys,
        "fig3", "--species", "sr", "--series", "3S1",
        "--n-min", "30", "--n-max", "31", "--temperature", "0",
    )
    assert code == EXIT_OK
    assert all(float(r["shift_hz"]) == 0.0 for r in _rows(out))


def test_version_and_help_exit_0(capsys):
    assert _run(capsys, "--version")[0] == 0
    with_help = main(["fig2", "--help"])
    capsys.readouterr()
    assert with_help == 0


# --- the exit-code contract under random argument vectors ---------------------

_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "x"]),
)
# (species, state): the clock states, a Rydberg state with a table, and
# hydrogen states with a zero-frequency (degenerate) channel
_STATES = st.sampled_from([
    ("Sr", "5:1S0"), ("Sr", "5:3P0"), ("Yb", "6:1S0"), ("Yb", "6:3P0"),
    ("Sr", "25:3D1"), ("hydrogen", "2:1P1"), ("hydrogen", "2:1S0"),
    ("hydrogen", "3:1D2"),
])
_JUNK = st.sampled_from(
    ["--bogus", "junk", "--y", "--state", "--points", "25:", ":3D1", "1e999", "--"]
)


@st.composite
def _flag(draw, name, values=_NUMBER):
    """``--name value`` or ``--name=value`` (the latter lets '-inf' through)."""
    value = draw(values)
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def _options(draw, *flags):
    argv = []
    for flag in flags:
        if draw(st.booleans()):
            argv += draw(flag)
    return argv


@st.composite
def _argv(draw):
    kind = draw(st.sampled_from(["fw", "fig2", "polarizability", "bbr", "budget"]))
    if kind == "fw":
        argv = ["fw"]
        for _ in range(draw(st.integers(0, 3))):
            argv += draw(_flag("--y"))
    elif kind == "fig2":
        argv = ["fig2", "--points", str(draw(st.integers(-1, 20)))]
        argv += draw(_options(_flag("--y-min"), _flag("--y-max"),
                              st.just(["--linear"])))
    elif kind == "budget":
        argv = ["thermo", "budget", "--species", "Sr", "--state", "25:3D1"]
        lower = st.sampled_from(["25:3D1", "26:3S1", "5:3P0"])
        argv += draw(_options(_flag("--fractional"), _flag("--linewidth-hz"),
                              _flag("--temperature"), _flag("--lower-state", lower)))
    else:
        species, state = draw(_STATES)
        argv = [kind, "--species", species, "--state", state]
        if kind == "bbr":
            argv += draw(_options(
                _flag("--temperature"), _flag("--tolerance"),
                _flag("--route", st.sampled_from(["sum", "integral", "both"]))))
        else:
            m_j = st.one_of(_NUMBER, st.sampled_from(["scalar", "stretched", "1", "-1"]))
            argv += draw(_options(
                _flag("--omega-au"), _flag("--wavelength-nm"), _flag("--m-j", m_j)))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(argv=_argv())
@example(argv="thermo budget --species Sr --state 25:3D1 --fractional nan".split())
@example(argv="polarizability --species Sr --state 25:3D1 --omega-au nan".split())
@example(argv="polarizability --species hydrogen --state 2:1P1".split())
@example(argv="polarizability --species hydrogen --state 2:1S0".split())
@example(argv="polarizability --species hydrogen --state 3:1D2".split())
@example(argv="thermo budget --species Sr --state 30:3D1 --lower-state 30:3D1".split())
@example(argv="polarizability --species Sr --state 25:3D1 --omega-au 1e300".split())
def test_cli_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception here fails the test
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
    if code == EXIT_OK:
        cells = [c for row in csv.reader(io.StringIO(out.getvalue())) for c in row]
        assert "nan" not in {c.lower() for c in cells}
