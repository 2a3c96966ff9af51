"""Standing-wave lattice: metastable polarizability, magic-wavelength solver."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from rydtherm import constants as k
from rydtherm import lattice, load_species, units
from rydtherm.lattice import (
    SCAN_POINTS,
    MagicResult,
    MagicSolverError,
    lattice_alpha_au,
    pick_magic_root,
    solve_magic_wavelength,
    transition_energy_au,
    transition_wavelength,
    trap_depth,
)
from rydtherm.radial import sin2_matrix_element
from rydtherm.species import bundled_species_path


def _with_bracket(species, bracket_nm, tmp_path):
    """A copy of the species' bundled file whose magic bracket is
    ``bracket_nm``: the solver searches only the file's bracket."""
    name = species.name.lower()
    text = Path(bundled_species_path(name)).read_text(encoding="utf-8")
    old = "magic.bracket_nm_low = %g\nmagic.bracket_nm_high = %g\n" % (
        species.magic_bracket_nm
    )
    assert old in text
    new = "magic.bracket_nm_low = %r\nmagic.bracket_nm_high = %r\n" % bracket_nm
    path = tmp_path / f"{name}.species"
    path.write_text(text.replace(old, new), encoding="utf-8")
    copy = load_species(str(path))
    assert copy.magic_bracket_nm == bracket_nm
    return copy


def test_magic_root_yb_published_row(yb):
    roots = solve_magic_wavelength(yb, yb.state(25, "3P0"))
    root = pick_magic_root(roots)
    assert root.wavelength_nm == pytest.approx(1203.0, rel=2e-2)
    assert root.valid
    assert root.alpha_au < 0.0
    # magic condition residual: alpha + (1 - 2<s>)/w^2 = 0
    assert abs(root.residual_au) <= 1e-6 * abs(root.alpha_au)
    # light-shift coefficient within the published scale
    assert root.alpha_khz_per_kw_cm2 == pytest.approx(31.1, rel=0.2)


def test_magic_wavelength_decreases_with_n(yb):
    lams = [
        pick_magic_root(solve_magic_wavelength(yb, yb.state(n, "3P0"))).wavelength_nm
        for n in (15, 25, 40)
    ]
    assert lams[0] > lams[1] > lams[2]


def test_orbit_average_moves_the_root(yb):
    # dropping the finite-orbit term is the point-dipole approximation;
    # at n = 40 the published root sits ~67 nm below it
    st = yb.state(40, "3P0")
    full = pick_magic_root(solve_magic_wavelength(yb, st))
    dipole = pick_magic_root(
        solve_magic_wavelength(yb, st, include_orbit_average=False)
    )
    assert dipole.sin2_value == 0.0
    assert dipole.wavelength_nm - full.wavelength_nm > 30.0


def test_magic_solver_error_paths(yb, tmp_path):
    for bracket, match in (((2000.0, 2200.0), "no magic root"),
                           ((1300.0, 1500.0), "resonance")):
        copy = _with_bracket(yb, bracket, tmp_path)
        with pytest.raises(MagicSolverError, match=match):
            solve_magic_wavelength(copy, copy.state(40, "3P0"))


def test_magic_solver_rejects_a_state_of_another_species(sr, yb, tmp_path):
    # the lattice model is the species' and the orbit the state's: a state
    # of another atom, or of an edited copy of the same file, is refused
    with pytest.raises(ValueError, match="another species file"):
        solve_magic_wavelength(yb, sr.state(30, "3D1"))
    copy = _with_bracket(yb, (1100.0, 1300.0), tmp_path)
    with pytest.raises(ValueError, match="another species file"):
        solve_magic_wavelength(copy, yb.state(25, "3P0"))


@pytest.mark.parametrize("name", ["sr", "yb"])
@pytest.mark.parametrize("role", ["ground", "metastable"])
def test_magic_solver_rejects_a_clock_state_partner(request, monkeypatch, name, role):
    # a clock state is no Rydberg partner: its quantum-defect orbit against
    # the lattice model of the metastable state gave a "valid" root
    species = request.getfixturevalue(name)

    def no_orbit_average(*args, **kwargs):
        raise AssertionError("orbit average taken for a clock state")

    monkeypatch.setattr(lattice, "sin2_matrix_element", no_orbit_average)
    with pytest.raises(ValueError, match=f"is the {role} clock state"):
        solve_magic_wavelength(species, species.clock_state(role))


def test_sr_magic_band(sr):
    lam15 = pick_magic_root(solve_magic_wavelength(sr, sr.state(15, "3D1")))
    lam40 = pick_magic_root(solve_magic_wavelength(sr, sr.state(40, "3D1")))
    assert lam15.wavelength_nm == pytest.approx(2392.0, rel=0.02)
    assert lam40.wavelength_nm == pytest.approx(2379.0, rel=0.02)
    assert lam40.wavelength_nm < lam15.wavelength_nm


def test_trap_depth_linear_in_intensity(yb):
    root = pick_magic_root(solve_magic_wavelength(yb, yb.state(25, "3P0")))
    d1 = trap_depth(root, 1.0)
    assert d1 == pytest.approx(abs(root.alpha_khz_per_kw_cm2) * 1e3, rel=1e-12)
    assert trap_depth(root, 2.5) == pytest.approx(2.5 * d1, rel=1e-12)
    assert trap_depth(root, 0.0) == 0.0
    # nan < 0 is False: an ordered comparison alone lets nan and inf through
    for bad in (-1e-300, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            trap_depth(root, bad)


def test_ionization_wavelengths(sr, yb):
    # two-photon drive from the Yb metastable state
    assert transition_wavelength(yb.state(15, "3P0"), photons=2) == pytest.approx(
        620.2, rel=5e-3
    )
    assert transition_wavelength(yb.state(40, "3P0"), photons=2) == pytest.approx(
        604.8, rel=5e-3
    )
    # one-photon drive from the Sr metastable state stays in the UV
    lam = transition_wavelength(sr.state(25, "3D1"), photons=1)
    assert 300.0 < lam < 325.0
    with pytest.raises(ValueError):
        transition_wavelength(sr.state(25, "3D1"), photons=3)


def test_transition_energy_positive(sr):
    e = transition_energy_au(sr.state(25, "3D1"))
    assert e > 0.0
    # higher n: less binding left to pay, larger photon energy
    assert transition_energy_au(sr.state(40, "3D1")) > e


@pytest.mark.parametrize("name", ["sr", "yb"])
def test_transition_energy_of_the_metastable_state_raises(request, name):
    # the metastable level is the clock frequency above the ground state
    # whichever way it is reached: no transition to itself
    species = request.getfixturevalue(name)
    with pytest.raises(ValueError, match="not positive"):
        transition_energy_au(species.metastable_state())


def test_lattice_alpha_negative_in_sr_bracket(sr):
    for lam in (2380.0, 2385.0, 2390.0):
        assert lattice_alpha_au(sr, units.wavelength_nm_to_omega_au(lam)) < 0.0


@pytest.mark.parametrize("sp", ["sr", "yb"])
def test_lattice_alpha_array_matches_scalar_calls(sp, request):
    # the magic scan takes its 200 alphas from one array call; Brent's
    # points are scalar calls, and both must agree to the last bit
    species = request.getfixturevalue(sp)
    lam_lo, lam_hi = species.magic_bracket_nm
    grid = np.linspace(
        units.wavelength_nm_to_omega_au(lam_hi),
        units.wavelength_nm_to_omega_au(lam_lo),
        SCAN_POINTS,
    )
    alphas = lattice_alpha_au(species, grid)
    scalar = [lattice_alpha_au(species, w) for w in grid.tolist()]
    assert all(type(a) is float for a in scalar)
    assert np.array_equal(alphas, scalar)
    assert np.array_equal(alphas, [lattice_alpha_au(species, w) for w in grid])
    with pytest.raises(ValueError, match=">= 0"):
        lattice_alpha_au(species, -grid)


# (species, series, n, k_ratio, m_l, bracket_nm): Table-1 ends of both
# species at two lattice angles, one orientation average, and a copy of
# the Yb file with a bracket wider than its own that still holds no
# lattice line
_SCAN_CASES = [
    (sp, series, n, k_ratio, 0, None)
    for sp, series in (("yb", "3P0"), ("sr", "3D1"))
    for n in (15, 40)
    for k_ratio in (1.0, 0.5)
] + [
    ("sr", "3D1", 25, 0.8, None, None),
    ("yb", "3P0", 25, 1.0, 0, (700.0, 1380.0)),
]


def _case_id(case):
    sp, series, n, k_ratio, m_l, bracket = case
    return f"{sp}-{n}-{series}-k{k_ratio}-ml{m_l}-{bracket or 'default'}"


def _case_species(case, request, tmp_path):
    """The case's species: the bundled file, or a copy with its bracket."""
    sp, _, _, _, _, bracket = case
    species = request.getfixturevalue(sp)
    return species if bracket is None else _with_bracket(species, bracket, tmp_path)


def _exact_scan(species, state, k_ratio, m_l):
    """Magic roots from the exact residual at every one of the scan points."""
    lam_lo, lam_hi = species.magic_bracket_nm

    def parts(w):
        s = sin2_matrix_element(state, k_ratio * w / k.C_AU, m_l=m_l)
        return lattice_alpha_au(species, w), s

    def residual(w):
        alpha, s = parts(w)
        return alpha + (1.0 - 2.0 * s) / (w * w)

    grid = np.linspace(
        units.wavelength_nm_to_omega_au(lam_hi),
        units.wavelength_nm_to_omega_au(lam_lo),
        SCAN_POINTS,
    )
    vals = [residual(w) for w in grid]
    roots = []
    for i in range(SCAN_POINTS - 1):
        if vals[i] == 0.0:
            root = grid[i]
        elif vals[i] * vals[i + 1] < 0.0:
            root = optimize.brentq(
                residual, grid[i], grid[i + 1], rtol=1e-12, maxiter=200
            )
        else:
            continue
        alpha, s = parts(root)
        roots.append(
            MagicResult(
                wavelength_nm=units.omega_au_to_wavelength_nm(root),
                k_ratio=k_ratio,
                alpha_au=alpha,
                sin2_value=s,
                residual_au=abs(alpha + (1.0 - 2.0 * s) / (root * root)),
                bracket_nm=(lam_lo, lam_hi),
                valid=alpha < 0.0,
            )
        )
    return sorted(roots, key=lambda r: r.wavelength_nm)


@pytest.mark.parametrize(
    "case, fit_safety",
    [pytest.param(case, lattice._FIT_SAFETY, id=_case_id(case)) for case in _SCAN_CASES]
    # an infinite proxy error bound puts every scan point in doubt: the
    # refinement loop then computes the exact residual at all of them
    + [pytest.param(case, math.inf, id=f"{_case_id(case)}-all-in-doubt")
       for case in _SCAN_CASES],
)
def test_magic_scan_matches_exact_scan(
    case, fit_safety, request, tmp_path, monkeypatch
):
    # the proxy scan decides signs from a Chebyshev fit of <sin^2>; every
    # root must still equal, field for field, the all-exact scan's
    monkeypatch.setattr(lattice, "_FIT_SAFETY", fit_safety)
    _, series, n, k_ratio, m_l, _ = case
    species = _case_species(case, request, tmp_path)
    state = species.state(n, series)
    roots = solve_magic_wavelength(species, state, k_ratio=k_ratio, m_l=m_l)
    assert roots
    assert roots == _exact_scan(species, state, k_ratio, m_l)


@pytest.mark.parametrize("case", _SCAN_CASES, ids=_case_id)
def test_magic_scan_orbit_average_count(case, request, tmp_path, monkeypatch):
    # the wrapped name is the one perfbench traces as lattice.sin2; the
    # all-exact scan makes about 207 calls per solve
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return sin2_matrix_element(*args, **kwargs)

    monkeypatch.setattr(lattice, "sin2_matrix_element", counted)
    _, series, n, k_ratio, m_l, _ = case
    species = _case_species(case, request, tmp_path)
    solve_magic_wavelength(species, species.state(n, series), k_ratio=k_ratio, m_l=m_l)
    assert lattice._FIT_NODES <= calls <= 30


def _both_brents(f, a, b, **kwargs):
    """The port's root and scipy's, with the points each evaluated f at."""
    from rydtherm import _brent

    seen = ([], [])
    roots = [
        solve(lambda x, xs=xs: xs.append(x) or f(x), a, b, **kwargs)
        for solve, xs in zip((_brent.brentq, optimize.brentq), seen)
    ]
    return roots, seen


def test_brent_port_is_scipy_brentq_bit_for_bit(sr, yb, monkeypatch):
    # every Brent call of these magic solves, replayed through scipy: the
    # same evaluation points and the same root, to the bit
    calls = []
    port = lattice.brentq

    def record(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(lattice, "brentq", record)
    for species, series in ((sr, "3D1"), (sr, "3S1"), (yb, "3P0"), (yb, "1S0")):
        for n in range(15, 41):
            for k_ratio in (1.0, 0.5):
                solve_magic_wavelength(species, species.state(n, series), k_ratio=k_ratio)
    assert len(calls) >= 200
    for f, a, b, kwargs in calls:
        (mine, theirs), (my_xs, their_xs) = _both_brents(f, a, b, **kwargs)
        assert type(mine) is type(theirs) is float
        assert mine == theirs and my_xs == their_xs, (a, b)


def test_brent_port_fails_as_scipy_does():
    from rydtherm import _brent

    for solve in (_brent.brentq, optimize.brentq):
        with pytest.raises(ValueError, match="different signs"):
            solve(lambda x: x * x + 1.0, -1.0, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            solve(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            solve(lambda x: x**3 - 2.0, 0.0, 2.0, maxiter=3)
        assert solve(lambda x: x - 1.0, 1.0, 2.0) == 1.0  # a root at an end


def test_lattice_table_keyed_by_file_content(tmp_path, sr):
    # a copy of the Sr file with one lattice line changed keeps the name and
    # data_version: it must get its own line table, and the bundled file's
    # alpha must stay the term-by-term sum of a freshly built table
    from rydtherm import load_species
    from rydtherm.species import bundled_species_path
    from rydtherm.transitions import channel_alpha_au, line_table

    omega = units.wavelength_nm_to_omega_au(2390.0)
    before = lattice_alpha_au(sr, omega)
    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    assert "line.1.d_au = 3.72\n" in text
    path = tmp_path / "sr.species"
    path.write_text(text.replace("line.1.d_au = 3.72\n", "line.1.d_au = 3.0\n"))
    copy = load_species(str(path))
    assert (copy.name, copy.data_version) == (sr.name, sr.data_version)
    assert copy.sha256 != sr.sha256
    assert lattice_alpha_au(copy, omega) != before
    assert lattice_alpha_au(load_species("sr"), omega) == before
    table = line_table(sr.line_lists["lattice"], 0.0)
    want = table.core_alpha_au
    for alpha in channel_alpha_au(table, omega).tolist():
        want += alpha
    assert before == want
