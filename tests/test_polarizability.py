"""Dipole polarizabilities: channel oracle, conventions, guards, units."""

import math
from pathlib import Path

import numpy as np
import pytest

from rydtherm import constants as k
from rydtherm import units
from rydtherm.polarizability import (
    ResonanceGuardError,
    ac_polarizability,
    static_polarizability,
)
from rydtherm.radial import RadialSolver
from rydtherm.species import Species, bundled_species_path
from rydtherm.transitions import channel_alpha_au


def test_single_channel_oracle():
    # hydrogen 1s <- 2p channel: f = 0.4162, static contribution f/w^2
    w = 3.0 / 8.0
    radial = 128.0 * math.sqrt(6.0) / 243.0
    # a one-line table of a J = 0 state: z^2 = l> radial^2 / 3, l> = 1; the
    # lattice list of a hydrogen file is such a table, with no core term
    path = bundled_species_path("hydrogen")
    lines = f"line.1.omega_au = {w!r}\nline.1.d_au = {radial!r}\n"
    table = Species(path, Path(path).read_bytes() + lines.encode()).line_tables["lattice"]
    assert table.core_alpha_au == 0.0
    f_osc = 2.0 * table.omega_au[0] * table.z2[0]
    assert f_osc == pytest.approx(0.41620, rel=1e-4)
    assert channel_alpha_au(table, 0.0)[0] == pytest.approx(f_osc / w**2, rel=1e-12)
    # dispersion: alpha grows as the probe approaches the line from below
    assert channel_alpha_au(table, 0.9 * w)[0] > channel_alpha_au(table, 0.0)[0]
    assert channel_alpha_au(table, 1.1 * w)[0] < 0.0


def test_clock_state_static_values(sr, yb):
    # textbook DC polarizabilities of the divalent clock states, a.u.
    assert ac_polarizability(sr.state(5, "1S0"), 0.0).value_au == pytest.approx(
        197.2, rel=0.02
    )
    assert ac_polarizability(
        sr.metastable_state(), 0.0, m_j=None
    ).value_au == pytest.approx(457.0, rel=0.02)
    assert ac_polarizability(
        yb.metastable_state(), 0.0, m_j=None
    ).value_au == pytest.approx(280.0, rel=0.02)


def test_metastable_m_j_restriction(sr):
    # J = 0 states have a single Zeeman component; anything else is an error
    meta = sr.metastable_state()
    assert ac_polarizability(meta, 0.0, m_j=0).value_au == pytest.approx(
        ac_polarizability(meta, 0.0, m_j=None).value_au, rel=1e-12
    )
    with pytest.raises(ValueError):
        ac_polarizability(meta, 0.0, m_j=1)


def test_rydberg_static_negative_and_growing(sr):
    vals = []
    for n in (20, 25, 30, 35, 40):
        res = static_polarizability(sr.state(n, "3D1"))
        assert res.value_au < 0.0
        vals.append(abs(res.value_hz_m2_v2))
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_published_nd_scale(sr):
    # |m_J| = 1 (stretched) static polarizabilities of the thermometry states
    a25 = static_polarizability(sr.state(25, "3D1")).value_hz_m2_v2
    a30 = static_polarizability(sr.state(30, "3D1")).value_hz_m2_v2
    assert a25 == pytest.approx(-100.0, rel=0.30)
    assert a30 == pytest.approx(-440.0, rel=0.30)
    # the orientation average is larger in magnitude for these nd states
    s25 = ac_polarizability(sr.state(25, "3D1"), 0.0, m_j=None).value_hz_m2_v2
    assert abs(s25) > abs(a25)


def test_free_electron_high_frequency_limit(sr):
    # far above every strong channel the electron responds as if free:
    # alpha -> -1/omega^2
    res = ac_polarizability(sr.state(30, "3S1"), 5.0)
    assert res.value_au * 25.0 == pytest.approx(-1.0, rel=0.01)


def test_unit_columns_consistent(sr):
    res = static_polarizability(sr.state(25, "3D1"))
    assert res.value_hz_m2_v2 == pytest.approx(
        res.value_au * k.HARTREE_HZ / k.ATOMIC_FIELD_V_PER_M**2, rel=1e-10
    )
    assert res.value_khz_per_kw_cm2 == pytest.approx(
        units.au_pol_to_khz_per_kw_cm2(res.value_au), rel=1e-10
    )


def test_resonance_guard(sr):
    res = static_polarizability(sr.state(25, "3D1"))
    assert res.nearest_resonance_id is not None
    # probing exactly on the nearest resonance trips the guard
    omega_res = abs(res.nearest_detuning_au)
    with pytest.raises(ResonanceGuardError):
        ac_polarizability(sr.state(25, "3D1"), omega_res)


def test_negative_probe_rejected(sr):
    with pytest.raises(ValueError):
        ac_polarizability(sr.state(25, "3D1"), -0.01)


def test_dc_stark_shift_scale(sr):
    # 5 V/m on the n = 25 thermometry state: -(1/2) alpha(0) E^2 is about
    # +1.15 kHz, the stray-field term of the joint solve
    alpha = static_polarizability(sr.state(25, "3D1")).value_hz_m2_v2
    assert -0.5 * alpha * 5.0**2 == pytest.approx(0.5 * 91.79 * 25.0, rel=0.02)


def test_scalar_vs_stretched_defaults(sr):
    st = sr.state(30, "3D1")
    stretched = ac_polarizability(st, 0.0)
    explicit = ac_polarizability(st, 0.0, m_j=1.0)
    scalar = ac_polarizability(st, 0.0, m_j=None)
    assert stretched.m_j == 1.0
    assert stretched.value_au == pytest.approx(explicit.value_au, rel=1e-12)
    assert scalar.m_j is None
    assert scalar.value_au != pytest.approx(stretched.value_au, rel=1e-3)


@pytest.mark.parametrize("m_j", [True, False, np.True_])
@pytest.mark.parametrize("n, series", [(30, "3D1"), (25, "3S1")])
def test_bool_m_j_is_rejected(sr, n, series, m_j):
    # True == 1 and False == 0 are both m_J of a J = 1 state: without the
    # check each passed as that number and was echoed as the bool
    st = sr.state(n, series)
    assert st.J == 1.0
    solver = RadialSolver()
    with pytest.raises(ValueError, match="m_j must be a number or None"):
        ac_polarizability(st, 0.0, m_j=m_j, solver=solver)
    # the numbers stay accepted, each echoed as given
    for m in (1, 1.0, 0, -1.0):
        assert repr(ac_polarizability(st, 0.0, m_j=m, solver=solver).m_j) == repr(m)


def test_m_weights_average_to_scalar(sr):
    # (2J+1)^-1 sum over m of alpha(m) equals the orientation average
    st = sr.state(30, "3D2")
    parts = [ac_polarizability(st, 0.0, m_j=m).value_au for m in (-2, -1, 0, 1, 2)]
    scalar = ac_polarizability(st, 0.0, m_j=None).value_au
    assert sum(parts) / 5.0 == pytest.approx(scalar, rel=1e-9)
