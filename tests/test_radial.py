"""Radial engine against exact hydrogen results and scaling laws."""

import math

import numpy as np
import pytest

from rydtherm.radial import (
    MeshOverflowError,
    RadialSolver,
    RadialUnsolvableError,
    default_solver,
    dipole_matrix_element,
    sin2_matrix_element,
    solve_radial,
)


def test_hydrogen_r_expectations(hydrogen, solver):
    st1s = hydrogen.state(1, "1S0")
    st2p = hydrogen.state(2, "1P1")
    # <r>_nl = (3n^2 - l(l+1)) / 2
    assert solver.radial_integral(st1s, st1s, 1) == pytest.approx(1.5, rel=1e-4)
    assert solver.radial_integral(st2p, st2p, 1) == pytest.approx(5.0, rel=1e-4)
    # <r^2>_nl = n^2 (5 n^2 + 1 - 3 l (l+1)) / 2
    assert solver.r2_expectation(st2p) == pytest.approx(30.0, rel=1e-4)
    assert solver.r2_expectation(st1s) == pytest.approx(3.0, rel=1e-4)


def test_hydrogen_1s_2p_dipole(hydrogen, solver):
    st1s = hydrogen.state(1, "1S0")
    st2p = hydrogen.state(2, "1P1")
    exact = 128.0 * math.sqrt(6.0) / 243.0  # 1.29027 a.u.
    assert solver.radial_integral(st1s, st2p, 1) == pytest.approx(exact, rel=1e-5)
    # reduced element: angular factor l> = 1 for s-p
    assert dipole_matrix_element(st1s, st2p) == pytest.approx(exact, rel=1e-5)


def test_dipole_forbidden_pair_raises(hydrogen):
    with pytest.raises(ValueError):
        dipole_matrix_element(hydrogen.state(1, "1S0"), hydrogen.state(2, "1S0"))


def test_normalization(hydrogen, solver):
    for st in (hydrogen.state(1, "1S0"), hydrogen.state(12, "1D2")):
        assert solver.radial_integral(st, st, 0) == pytest.approx(1.0, rel=1e-6)


def test_wavefunction_decays_past_turning_point(hydrogen, solver):
    st = hydrogen.state(20, "1S0")
    sol = solve_radial(st)
    x = sol.h * np.arange(sol.j_in, sol.j_out + 1)
    r = x * x
    u = sol.v * np.sqrt(x)  # same radial density weight on both sides
    peak = np.abs(u).max()
    # density peaks inside the classically allowed region (r < 2 n*^2)
    assert r[np.abs(u).argmax()] < 2.0 * st.n_eff**2
    # and tunnels away exponentially beyond it
    assert np.abs(u[r > 2.5 * st.n_eff**2]).max() < 0.05 * peak
    assert np.abs(u[r > 3.0 * st.n_eff**2]).max() < 5e-4 * peak


def test_mesh_halving_converged(hydrogen):
    st1s = hydrogen.state(1, "1S0")
    st2p = hydrogen.state(2, "1P1")
    coarse = RadialSolver(h=0.01).radial_integral(st1s, st2p, 1)
    fine = RadialSolver(h=0.005).radial_integral(st1s, st2p, 1)
    assert fine == pytest.approx(coarse, rel=1e-5)


def test_mesh_overflow_guard(sr):
    # species.state() range-checks n first, so build the state directly
    from rydtherm.species import RydbergState

    beyond = RydbergState(sr, 81, "3S1")
    with pytest.raises(MeshOverflowError):
        solve_radial(beyond)


def test_mesh_overflow_is_unsolvable_subclass():
    assert issubclass(MeshOverflowError, RadialUnsolvableError)


def test_sin2_trivial_limits(sr):
    st = sr.state(25, "3D1")
    assert sin2_matrix_element(st, 0.0) == 0.0
    with pytest.raises(ValueError):
        sin2_matrix_element(st, -1.0)


def test_sin2_small_k_matches_r2(hydrogen, solver):
    # isotropic small-k limit: <sin^2(kx)> -> k^2 <r^2> / 3
    st = hydrogen.state(15, "1S0")
    kq = 1e-7
    got = sin2_matrix_element(st, kq, m_l=None)
    r2 = solver.r2_expectation(st)
    assert got == pytest.approx(kq * kq * r2 / 3.0, rel=1e-6)


def test_sin2_deep_lattice_limit(sr):
    # k a_n >> 1: the electron samples sin^2 uniformly -> exactly 1/2
    st = sr.state(25, "3D1")
    assert sin2_matrix_element(st, 0.2) == pytest.approx(0.5, abs=1e-3)
    assert sin2_matrix_element(st, 0.2, m_l=None) == pytest.approx(0.5, abs=1e-3)


def test_sin2_published_rydberg_scale(sr):
    # nd (m_l = 0) state at n = 25 in a 4 um-spaced lattice
    spacing_bohr = 4.0e-6 / 5.29177210903e-11
    kq = math.pi / spacing_bohr
    got = sin2_matrix_element(sr.state(25, "3D1"), kq)
    assert got == pytest.approx(5.6e-4, rel=0.05)


def test_sin2_monotone_in_k(sr):
    st = sr.state(25, "3D1")
    vals = [sin2_matrix_element(st, kq) for kq in (1e-5, 4e-5, 2e-4, 1e-3, 0.05)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # small mesh-induced ringing above 1/2 is tolerated at intermediate k
    assert 0.0 < vals[0] and vals[-1] <= 0.5 + 5e-3


def test_sin2_alignment_matters(sr):
    # aligned (m_l = 0) d orbital spreads further along the lattice axis
    # than the isotropic average, so it samples more of the sin^2 curvature
    st = sr.state(25, "3D1")
    kq = 4.2e-5
    aligned = sin2_matrix_element(st, kq, m_l=0)
    spherical = sin2_matrix_element(st, kq, m_l=None)
    assert aligned > spherical
    assert aligned / spherical == pytest.approx((11 / 21) / (1 / 3), rel=1e-2)


def test_bessel_small_q_limit(hydrogen, solver):
    st = hydrogen.state(10, "1S0")
    assert solver.j0_average(st, 1e-9) == pytest.approx(1.0, rel=1e-8)
    assert solver.bessel_average(st, 2, 1e-9) == pytest.approx(0.0, abs=1e-10)


def test_default_solver_is_shared():
    assert default_solver() is default_solver()


def test_shared_solver_is_thread_safe(sr, yb):
    # one fresh solver shared by more threads than cores, with a short
    # switch interval, fills its cache concurrently: each state is asked
    # for twice in a row, so two threads build the same radial solutions
    # and tables at once.  Every shift must equal a serial run on another
    # fresh solver bit for bit, and every caller of one key must get the
    # one stored table (a lost update would hand two threads different
    # objects).
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from rydtherm.bbr import bbr_shift_sum
    from rydtherm.transitions import build_transition_table

    states = [
        sr.state(25, "3D1"), sr.state(26, "3D1"), sr.state(25, "3S1"),
        sr.state(27, "3P1"), sr.state(30, "3D2"), yb.state(25, "3S1"),
        yb.state(26, "3S1"), yb.state(28, "3D1"),
    ]
    serial_solver = RadialSolver()
    serial = [bbr_shift_sum(st, 300.0, solver=serial_solver) for st in states]
    shared = RadialSolver()

    def task(st):
        return build_transition_table(st, solver=shared), bbr_shift_sum(
            st, 300.0, solver=shared
        )

    twice = [st for st in states for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(task, twice, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert [shift for _, shift in got] == [r for r in serial for _ in range(2)]
    for st, (table, _) in zip(twice, got):
        assert table is build_transition_table(st, solver=shared)
