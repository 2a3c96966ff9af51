"""Radial engine against exact hydrogen results and scaling laws."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rydtherm import radial
from rydtherm.radial import (
    RadialSolver,
    RadialUnsolvableError,
    default_solver,
    sin2_matrix_element,
)
from rydtherm.wigner import line_strength_factor


def test_hydrogen_r_expectations(hydrogen, solver, moment):
    st1s = hydrogen.state(1, "1S0")
    st2p = hydrogen.state(2, "1P1")
    # <r>_nl = (3n^2 - l(l+1)) / 2
    assert solver.radial_integral(st1s, st1s) == pytest.approx(1.5, rel=1e-4)
    assert solver.radial_integral(st2p, st2p) == pytest.approx(5.0, rel=1e-4)
    # <r^2>_nl = n^2 (5 n^2 + 1 - 3 l (l+1)) / 2
    assert moment(solver, st2p, st2p, 2) == pytest.approx(30.0, rel=1e-4)
    assert moment(solver, st1s, st1s, 2) == pytest.approx(3.0, rel=1e-4)


def test_hydrogen_1s_2p_dipole(hydrogen, solver):
    st1s = hydrogen.state(1, "1S0")
    st2p = hydrogen.state(2, "1P1")
    exact = 128.0 * math.sqrt(6.0) / 243.0  # 1.29027 a.u.
    assert solver.radial_integral(st1s, st2p) == pytest.approx(exact, rel=1e-5)
    # reduced element sqrt(S): angular factor l> = 1 for s-p
    ang = line_strength_factor(st1s.L, st1s.J, st1s.S, st2p.L, st2p.J)
    reduced = math.sqrt(ang) * abs(solver.radial_integral(st1s, st2p))
    assert reduced == pytest.approx(exact, rel=1e-5)


def test_dipole_forbidden_pair_has_no_line_strength(hydrogen):
    a, b = hydrogen.state(1, "1S0"), hydrogen.state(2, "1S0")
    assert line_strength_factor(a.L, a.J, a.S, b.L, b.J) == 0.0


def test_normalization(hydrogen, solver, moment):
    for st in (hydrogen.state(1, "1S0"), hydrogen.state(12, "1D2")):
        assert moment(solver, st, st, 0) == pytest.approx(1.0, rel=1e-6)


def test_wavefunction_decays_past_turning_point(hydrogen, solver):
    st = hydrogen.state(20, "1S0")
    sol = solver.solve(st)
    x = solver.h * np.arange(sol.j_in, sol.j_out + 1)
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
    coarse = RadialSolver(h=0.01).radial_integral(st1s, st2p)
    fine = RadialSolver(h=0.005).radial_integral(st1s, st2p)
    assert fine == pytest.approx(coarse, rel=1e-5)


def test_sin2_trivial_limits(sr):
    st = sr.state(25, "3D1")
    assert sin2_matrix_element(st, 0.0) == 0.0
    with pytest.raises(ValueError):
        sin2_matrix_element(st, -1.0)


def test_sin2_small_k_matches_r2(hydrogen, solver, moment):
    # isotropic small-k limit: <sin^2(kx)> -> k^2 <r^2> / 3
    st = hydrogen.state(15, "1S0")
    kq = 1e-7
    got = sin2_matrix_element(st, kq, m_l=None)
    r2 = moment(solver, st, st, 2)
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


def test_order_zero_average_is_one_pair_integral(sr, monkeypatch):
    # order 0 of bessel_average, and so every orbit average of a state with
    # l > 0, is one pair integral: it does not go through j0_average, whose
    # call would be a second nested span for the same integral
    st = sr.state(30, "3D1")
    q = 5.2e-4
    solver = default_solver()
    before = (
        solver.bessel_average(st, 0, q),
        sin2_matrix_element(st, q / 2, m_l=0),
    )

    def second_span(*args):
        raise AssertionError("the order-0 average went through j0_average")

    monkeypatch.setattr(RadialSolver, "j0_average", second_span)
    after = (
        solver.bessel_average(st, 0, q),
        sin2_matrix_element(st, q / 2, m_l=0),
    )
    assert after == before


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


def _numerov_loop(kf, h):
    """The inward Numerov recurrence as a sequential loop: the oracle for
    the banded solve in ``_numerov_inward``."""
    n = kf.shape[0]
    c = (1.0 + (h * h / 12.0) * kf).tolist()
    v = [0.0] * n
    v[n - 2] = 1e-12
    for j in range(n - 2, 0, -1):
        v[j - 1] = ((12.0 - 10.0 * c[j]) * v[j] - c[j + 1] * v[j + 1]) / c[j - 1]
    return np.asarray(v)


def _oracle_states(sr, yb, hydrogen):
    states = [
        sp.state(n, series)
        for sp, all_series in ((sr, ("3S1", "3P0", "3D1")), (yb, ("3P0", "1S0")))
        for series in all_series
        for n in (8, 20, 30, 40, 50)
    ]
    # hydrogen s states only: a zero-defect l > 0 series is solved down to
    # r = 0.001 (l+1)^2 bohr, deep inside the centrifugal barrier, where the
    # irregular solution grows as r^-l and amplifies any rounding difference
    # (1.6e-8 of max|v| at the inner edge of 12 1D2, the same for the loop)
    return states + [hydrogen.state(1, "1S0"), hydrogen.state(20, "1S0")]


def test_numerov_matches_sequential_loop(sr, yb, hydrogen, monkeypatch):
    # every kf a fresh solver hands to the banded solve, checked against the
    # loop; they differ only by fused multiply-add rounding (measured 8.7e-13)
    solve = radial._numerov_inward
    seen = []

    def spy(kf, h):
        seen.append((kf.copy(), h))
        return solve(kf, h)

    monkeypatch.setattr(radial, "_numerov_inward", spy)
    fresh = RadialSolver()
    states = _oracle_states(sr, yb, hydrogen)
    for st in states:
        fresh.solve(st)
    assert len(seen) == len(states)
    for kf, h in seen:
        want = _numerov_loop(kf, h)
        got = solve(kf, h)
        assert got.shape == want.shape and got[-1] == 0.0 and got[-2] == 1e-12
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-11


def test_radial_integral_symmetric_and_matches_trapezoid(sr, yb, hydrogen, moment):
    # the stored-mesh dot product against the per-pair trapezoid it replaced
    fresh = RadialSolver()
    states = _oracle_states(sr, yb, hydrogen)
    # dipole pairs and diagonals
    pairs = [
        (a, b)
        for a in states
        for b in states
        if a.species is b.species and (a is b or abs(a.L - b.L) == 1)
    ]
    for a, b in pairs:
        got = fresh.radial_integral(a, b)
        assert got == fresh.radial_integral(b, a)
        old = moment(fresh, a, b, 1)
        assert got == pytest.approx(old, rel=1e-13, abs=0.0), (a, b)


def test_numerov_zero_pivot_raises():
    # c[j] = 1 + h^2 kf[j] / 12 is exactly 0 at h = 1, kf = -12
    kf = np.full(40, 2.0)
    kf[17] = -12.0
    assert 1.0 + (1.0 / 12.0) * kf[17] == 0.0
    with pytest.raises(RadialUnsolvableError, match="mesh index 17"):
        radial._numerov_inward(kf, 1.0)


@pytest.mark.parametrize(
    "first, then",
    [("rydtherm.radial", "scipy.linalg.lapack"), ("scipy.linalg", "rydtherm.radial")],
)
def test_dtbtrs_is_scipys_in_either_import_order(first, then):
    # the radial solver loads LAPACK's extension alone; importing scipy.linalg
    # before or after it leaves one module object, shared by both
    code = (
        "import gc, importlib, sys, types\n"
        f"importlib.import_module({first!r})\n"
        f"importlib.import_module({then!r})\n"
        "import scipy.linalg.lapack\n"
        "from rydtherm import radial\n"
        "name = 'scipy.linalg._flapack'\n"
        "mods = [m for m in gc.get_objects()\n"
        "        if isinstance(m, types.ModuleType) and m.__name__ == name]\n"
        "assert mods == [radial.lapack] and sys.modules[name] is radial.lapack\n"
        "assert radial.lapack.dtbtrs is scipy.linalg.lapack.dtbtrs\n"
        "print('ok')\n"
    )
    src = os.path.dirname(os.path.dirname(radial.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == ["ok"], proc.stdout


def test_flapack_loader_falls_back_to_the_package_import(monkeypatch):
    # where scipy's files do not hold the extension (an editable install),
    # the loader imports it through scipy.linalg: the same dtbtrs
    import scipy.linalg.lapack

    name = "scipy.linalg._flapack"
    lookups = []

    class NoSpec:
        @staticmethod
        def find_spec(fullname, path):
            lookups.append(fullname)
            return None

    monkeypatch.setattr(radial, "PathFinder", NoSpec)
    # the package attribute that the ordinary import would have set, so the
    # fallback loads no second module object
    monkeypatch.setattr(scipy.linalg, "_flapack", sys.modules[name], raising=False)
    monkeypatch.delitem(sys.modules, name)
    module = radial._load_flapack()
    assert lookups == [name]
    assert module.dtbtrs is scipy.linalg.lapack.dtbtrs is radial.lapack.dtbtrs


def test_pair_integrals_thread_safe_while_mesh_grows(sr, yb):
    # four threads share a fresh solver whose stored mesh starts empty; the
    # pairs come in rising n, so the threads keep asking for longer meshes
    # while others slice the current one, and the orbit averages build and
    # read each state's cached moments.  Every value must equal a serial
    # run on another fresh solver bit for bit, in each of 4 rounds.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    tasks = []
    for n in range(8, 51, 2):
        for sp in (sr, yb):
            a, b = sp.state(n, "3S1"), sp.state(n, "3P1")
            tasks += [(a, b), (b, a)]
            tasks += [(sp.state(n, "3P1"), order, 1e-3) for order in (0, 2)]

    def value(solver, task):
        if isinstance(task[1], int):
            return solver.bessel_average(*task)
        return solver.radial_integral(*task)

    serial_solver = RadialSolver()
    serial = [value(serial_solver, task) for task in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            shared = RadialSolver()
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(
                    pool.map(
                        lambda task: value(shared, task), tasks, timeout=300
                    )
                )
            assert got == serial
    finally:
        sys.setswitchinterval(interval)


def _mpmath_jn(order, z):
    import mpmath

    if z == 0.0:
        return 1.0 if order == 0 else 0.0
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        return float(mpmath.sqrt(mpmath.pi / (2 * zm)) * mpmath.besselj(order + 0.5, zm))


@pytest.mark.parametrize("order", [0, 2, 4, 6])
def test_bessel_kernel_matches_mpmath(order):
    # both regions and the switch between them: the series below
    # max(1, order), the upward recurrence from there on
    split = max(1.0, float(order))
    zs = sorted(
        {0.0, np.nextafter(split, 0.0), split, np.nextafter(split, np.inf)}
        | set(np.geomspace(1e-6, 1e3, 181).tolist())
        | set(np.linspace(0.0, 3.0 * split, 61).tolist())
    )
    z = np.array(zs)
    got = radial._bessel_j(order, z)
    want = np.array([_mpmath_jn(order, v) for v in zs])
    assert np.abs(got - want).max() <= 1e-15
    # each region alone, as when a mesh slice lies on one side of the split
    below, above = z[z < split], z[z >= split]
    assert np.array_equal(radial._bessel_j(order, below), got[: below.size])
    assert np.array_equal(radial._bessel_j(order, above), got[below.size :])


def _mesh_average_oracle(solver, state, order, q_au):
    """<j_order(q r)> as a trapezoid over the solution with scipy's
    ``spherical_jn`` (``np.sinc`` for order 0): the mesh average the
    numpy kernel replaced."""
    from scipy import special

    sol = solver.solve(state)
    x = solver.h * np.arange(sol.j_in, sol.j_out + 1)
    if order == 0:
        jn = np.sinc(q_au * x * x / math.pi)
    else:
        jn = special.spherical_jn(order, q_au * x * x)
    return 2.0 * solver.h * float(np.trapezoid(sol.v * sol.v * x * x * jn))


def _sin2_oracle(solver, state, k_au, m_l):
    from rydtherm.wigner import legendre_moment

    q = 2.0 * k_au
    if m_l is None or state.L == 0:
        return 0.5 * (1.0 - _mesh_average_oracle(solver, state, 0, q))
    cos_avg = 0.0
    for order in range(0, 2 * state.L + 1, 2):
        sign = -1.0 if (order // 2) % 2 else 1.0
        cos_avg += (
            sign
            * (2 * order + 1)
            * legendre_moment(state.L, m_l, order)
            * _mesh_average_oracle(solver, state, order, q)
        )
    return 0.5 * (1.0 - cos_avg)


def _lattice_wavenumbers():
    from rydtherm import constants, units

    ks = [
        units.wavelength_nm_to_omega_au(lam) / constants.C_AU
        for lam in (300.0, 1200.0, 2400.0, 3000.0)
    ]
    return ks + [0.05, 0.2]


@pytest.mark.parametrize(
    "species_name, series",
    [("sr", "3S1"), ("sr", "3D1"), ("yb", "3P0"), ("yb", "1S0")],
)
def test_orbit_averages_match_mesh_oracle(species_name, series, sr, yb):
    # up to rydberg_n_max and out to k = 0.2 a.u., where q r reaches the
    # hundreds and only the recurrence region carries the tail
    sp = {"sr": sr, "yb": yb}[species_name]
    solver = default_solver()  # the one sin2_matrix_element reads
    for n in (15, 30, 50, 80):
        st = sp.state(n, series)
        for k_au in _lattice_wavenumbers():
            q = 2.0 * k_au
            for order in (0, 2, 4):
                want = _mesh_average_oracle(solver, st, order, q)
                got = (
                    solver.j0_average(st, q)
                    if order == 0
                    else solver.bessel_average(st, order, q)
                )
                assert got == pytest.approx(want, rel=0.0, abs=1e-14), (st, k_au, order)
            for m_l in (0, None):
                want = _sin2_oracle(solver, st, k_au, m_l)
                got = sin2_matrix_element(st, k_au, m_l=m_l)
                assert got == pytest.approx(want, rel=0.0, abs=1e-14), (st, k_au, m_l)


def _seam_q(solver, state):
    """(q_below, q_above): the largest q with q r_top <= _MOMENT_Z (the
    moment path) and the next float up (the mesh path)."""
    r_top = solver._moments(state)[0]
    q = radial._MOMENT_Z / r_top
    while q * r_top > radial._MOMENT_Z:
        q = np.nextafter(q, 0.0)
    while np.nextafter(q, np.inf) * r_top <= radial._MOMENT_Z:
        q = np.nextafter(q, np.inf)
    return float(q), float(np.nextafter(q, np.inf))


@pytest.mark.parametrize(
    "species_name, series, n",
    [("sr", "3S1", 30), ("sr", "3D1", 15), ("sr", "3D1", 40), ("yb", "3P0", 40),
     ("sr", "3F2", 20), ("sr", "3F2", 45)],
)
def test_moment_and_mesh_paths_agree_at_the_seam(species_name, series, n, sr, yb):
    # on both sides of Z = q r_top = _MOMENT_Z, where the series over the
    # cached moments has the fewest digits to spare, the two paths agree;
    # below the seam an average takes the moment path, above it the mesh
    st = {"sr": sr, "yb": yb}[species_name].state(n, series)
    solver = RadialSolver()
    r_top, m = solver._moments(st)
    below, above = _seam_q(solver, st)
    assert below * r_top <= radial._MOMENT_Z < above * r_top
    for order in range(7):
        for q in (below, above):
            mesh = solver._mesh_average(st, order, q)
            got = solver.bessel_average(st, order, q)
            if order > 2 * st.L:  # no moments built for this order
                assert got == mesh
                continue
            moments = 2.0 * solver.h * radial._moment_series(order, q * r_top, m)
            assert abs(moments - mesh) <= 1e-15, (st, order, q)
            assert got == (moments if q == below else mesh), (st, order, q)


@pytest.mark.parametrize(
    "species_name, series", [("sr", "3D1"), ("yb", "3P0"), ("sr", "3F2")]
)
def test_moments_finite_at_rydberg_n_max(species_name, series, sr, yb):
    # r_top scales every power to <= 1: at the one bound on n the moments
    # are finite and fall with k, and the averages match the mesh
    sp = {"sr": sr, "yb": yb}[species_name]
    st = sp.state(sp.rydberg_n_max, series)
    solver = RadialSolver()
    r_top, m = solver._moments(st)
    assert all(math.isfinite(v) and v > 0.0 for v in m)
    assert all(b <= a for a, b in zip(m, m[1:]))
    q = _seam_q(solver, st)[0]
    for order in range(0, 2 * st.L + 1):
        got = solver.bessel_average(st, order, q)
        assert math.isfinite(got)
        assert abs(got - solver._mesh_average(st, order, q)) <= 1e-15, (st, order)


@pytest.mark.parametrize(
    "order, q", [(2, -1e-4), (2, math.nan), (0, math.inf), (-1, 1e-4)]
)
def test_orbit_average_rejects_bad_input(sr, solver, order, q):
    # the kernel needs an ascending argument z = q x^2 >= 0 and an order >= 0
    with pytest.raises(ValueError, match="order >= 0 and a finite q >= 0"):
        solver.bessel_average(sr.state(25, "3D1"), order, q)
