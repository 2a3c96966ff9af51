"""Radial engine against exact hydrogen results and scaling laws."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydtherm import radial
from rydtherm.radial import (
    RadialSolver,
    RadialUnsolvableError,
    default_solver,
    sin2_matrix_element,
)
from rydtherm.species import bundled_species_path, load_species
from rydtherm.transitions import build_transition_table
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


def _solve_reference(solver, state):
    """(j_in, j_out, v) by the plainest arithmetic of the module
    docstring: kfun as one expression on a fresh mesh, a zero-filled band
    of rows divided by their pivots and a separate right-hand side, and
    the trapezoid norm as the sum of (v x)^2 less half its end terms.
    ``RadialSolver.solve`` must match it bit for bit."""
    sd = state.defect
    l = sd.L
    nst = state.n_eff
    if nst <= l + 0.15:
        raise RadialUnsolvableError(str(state))
    mu = state.species.reduced_mass_factor
    energy = -state.binding_au
    if sd.mu0 == 0.0 and sd.mu2 == 0.0 and sd.mu4 == 0.0:
        r_min = 0.001 * (l + 1) ** 2
    else:
        r_min = 0.05 * l * (l + 1) + 1.0
    r_max = 2.0 * nst * (nst + 15.0)
    h = solver.h
    j_in = max(1, math.ceil(math.sqrt(r_min) / h))
    j_out = math.floor(math.sqrt(r_max) / h)
    x = (h * np.arange(j_out + 1))[j_in:]
    x2 = x**2
    kf = (
        -3.0 / (4.0 * x2)
        + 8.0 * mu
        + 8.0 * mu * energy * x2
        - 4.0 * l * (l + 1) / x2
    )
    n = kf.shape[0]
    c = 1.0 + (h * h / 12.0) * kf
    ab = np.zeros((3, n - 1), order="F")
    ab[0, 2:] = c[2 : n - 1] / c[: n - 3]
    ab[1, 1:] = (10.0 * c[1 : n - 1] - 12.0) / c[: n - 2]
    b = np.zeros((n - 1, 1))
    b[-1, 0] = 1e-12
    sol, info = radial.lapack.dtbtrs(ab, b, uplo="U", diag="U")
    assert info == 0
    v = np.zeros(n)
    v[:-1] = sol[:, 0]
    y = (v * x) ** 2
    norm_sq = 2.0 * h * (float(np.sum(y)) - 0.5 * (float(y[0]) + float(y[-1])))
    return j_in, j_out, v / math.sqrt(norm_sq)


def _every_series_states(sr, yb):
    return [
        sp.state(n, series)
        for sp in (sr, yb)
        for series in sp.series_labels()
        for n in sorted(
            {sp.series_info(series).n_min, 8, 20, 30, 50, sp.rydberg_n_max}
        )
        if n >= sp.series_info(series).n_min
    ]


def test_solve_is_bitwise_the_reference_arithmetic(sr, yb, hydrogen):
    # cached potential terms, a band scaled in place and an in-place
    # right-hand side, and the norm in the kf buffer change no bit of any
    # solution
    fresh = RadialSolver()
    states = _oracle_states(sr, yb, hydrogen) + _every_series_states(sr, yb)
    solved = 0
    for st in states:
        try:
            want = _solve_reference(fresh, st)
        except RadialUnsolvableError:
            with pytest.raises(RadialUnsolvableError):
                fresh.solve(st)
            continue
        got = fresh.solve(st)
        assert (got.j_in, got.j_out) == want[:2], st
        assert got.v.dtype == want[2].dtype and got.v.shape == want[2].shape
        assert got.v.tobytes() == want[2].tobytes(), st
        solved += 1
    assert solved >= 150


@pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf, -math.inf])
def test_mesh_step_must_be_finite_and_positive(h):
    with pytest.raises(ValueError, match="mesh step h must be finite and > 0"):
        RadialSolver(h)


def test_mesh_too_coarse_for_three_nodes_is_unsolvable(sr):
    # h = 1000 puts no node inside Sr 20 3S1's orbit: numpy used to fail
    # with a bare "negative dimensions are not allowed"
    with pytest.raises(RadialUnsolvableError, match="mesh step h = 1000 leaves 0 nodes"):
        RadialSolver(1000.0).solve(sr.state(20, "3S1"))


def test_mesh_too_coarse_per_oscillation_is_unsolvable(sr):
    # h = 5 solved Sr 20 3S1 on 6 nodes at ~14 rad of Numerov phase per
    # step; kfun < 8 mu bounds the phase by h sqrt(8 mu), which may not
    # pass 0.3 rad (20 nodes per oscillation)
    st = sr.state(20, "3S1")
    with pytest.raises(
        RadialUnsolvableError, match=r"h = 5 advances the Numerov phase by up to 14\.1 rad"
    ):
        RadialSolver(5.0).solve(st)
    with pytest.raises(RadialUnsolvableError, match=r"h = 0\.11 .* 0\.311 rad"):
        RadialSolver(0.11).solve(st)
    assert RadialSolver(0.1).solve(st).v.size > 3


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
        assert got == _overlap_reference(fresh, a, b), (a, b)
        old = moment(fresh, a, b, 1)
        assert got == pytest.approx(old, rel=1e-13, abs=0.0), (a, b)


def _overlap_reference(solver, a, b):
    """<a| r |b> by the plainest arithmetic of ``radial_integral``: the
    product of the common slices, one dot with x^4 of a fresh mesh, less
    half the end terms.  ``radial_integral`` must match it bit for bit."""
    sa, sb = solver.solve(a), solver.solve(b)
    j0, j1 = max(sa.j_in, sb.j_in), min(sa.j_out, sb.j_out)
    f = sa.v[j0 - sa.j_in : j1 - sa.j_in + 1] * sb.v[j0 - sb.j_in : j1 - sb.j_in + 1]
    w = (solver.h * np.arange(j1 + 1)) ** 4
    w = w[j0:]
    ends = float(f[0]) * float(w[0]) + float(f[-1]) * float(w[-1])
    return 2.0 * solver.h * (float(np.dot(f, w)) - 0.5 * ends)


@pytest.mark.parametrize(
    "species_name, series",
    [("sr", ("3F2", "3F3", "3F4")), ("yb", ("1F3", "3F2", "3F3", "3F4"))],
)
def test_series_with_equal_defects_share_one_solution(species_name, series, sr, yb):
    # Sr 3F2/3F3/3F4 share mu0 = 0.120 and Yb 1F3/3F2/3F3/3F4 mu0 = 0.276:
    # what a solve reads (l, n*, mu, zero-defect flag) is the same, so one
    # solution serves every series, and so do its radial moments
    sp = {"sr": sr, "yb": yb}[species_name]
    fresh = RadialSolver()
    states = [sp.state(30, label) for label in series]
    solutions = {id(fresh.solve(st)) for st in states}
    assert len(solutions) == 1
    assert len({id(fresh._moments(st)) for st in states}) == 1
    # another defect (Sr 1F3, 0.089) or another n is another solution
    others = [sp.state(31, series[0])]
    if species_name == "sr":
        others.append(sr.state(30, "1F3"))
    for st in others:
        assert id(fresh.solve(st)) not in solutions


def test_defect_differing_in_its_last_digit_shares_no_solution(tmp_path, sr):
    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    assert text.count("defect.3F3.mu0 = 0.120\n") == 1
    path = tmp_path / "sr.species"
    path.write_text(text.replace("defect.3F3.mu0 = 0.120\n", "defect.3F3.mu0 = 0.121\n"))
    copy = load_species(str(path))
    fresh = RadialSolver()
    edited = fresh.solve(copy.state(30, "3F3"))
    assert edited is not fresh.solve(sr.state(30, "3F3"))
    assert edited is not fresh.solve(copy.state(30, "3F2"))
    # the key is the content, not the file: the copy's unedited 3F2 is Sr's
    assert fresh.solve(copy.state(30, "3F2")) is fresh.solve(sr.state(30, "3F2"))


def test_tables_do_not_depend_on_which_sharing_state_solved_first(sr):
    # a shared solution is bitwise the one its other states would build:
    # every table reading Sr 3F2/3F3 is the same whichever solved first
    def tables(first):
        fresh = RadialSolver()
        for label in first:
            fresh.solve(sr.state(31, label))
        return [
            build_transition_table(sr.state(n, label), solver=fresh)
            for n, label in ((30, "3D3"), (30, "3F2"), (30, "3F3"), (31, "3F4"))
        ]

    for a, b in zip(tables(("3F2", "3F3")), tables(("3F3", "3F2"))):
        assert a.channel_ids == b.channel_ids
        for name in ("omega_au", "z2", "j_final"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.f_missing == b.f_missing


def test_states_and_shared_solutions_are_one_object_under_threads(tmp_path):
    # a fresh species (its own state memo) and a fresh solver, filled by
    # more threads than cores with a short switch interval: every call for
    # one (n, series) gets the one stored state, and the three F series of
    # one n the one stored solution (a lost update would hand out two)
    from concurrent.futures import ThreadPoolExecutor

    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    path = tmp_path / "sr.species"
    path.write_text(text + "# a copy with its own state memo\n")
    sp = load_species(str(path))
    shared = RadialSolver()
    tasks = [(n, label) for n in range(10, 41) for label in ("3F2", "3F3", "3F4")]

    def task(n_label):
        st = sp.state(*n_label)
        return st, shared.solve(st)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(task, tasks * 2, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for (n, label), (st, sol) in zip(tasks * 2, got):
        assert st is sp.state(n, label)
        assert sol is shared.solve(sp.state(n, "3F2"))


def test_unsolvable_error_names_the_state_that_asked(sr):
    # a build that raises stores nothing, so a state sharing the radial key
    # of one that failed raises again under its own name
    coarse = RadialSolver(0.11)
    for label in ("3F2", "3F3", "3F4"):
        with pytest.raises(RadialUnsolvableError, match=rf"^Sr 30 {label}: mesh step"):
            coarse.solve(sr.state(30, label))


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
    # before or after it gives one dtbtrs, and the package its _flapack
    # attribute (the radial solver's module, or the package's own object of
    # the same extension when the solver loaded first)
    code = (
        "import importlib, sys\n"
        f"importlib.import_module({first!r})\n"
        f"importlib.import_module({then!r})\n"
        "import scipy.linalg.lapack\n"
        "from rydtherm import radial\n"
        "name = 'scipy.linalg._flapack'\n"
        "module = scipy.linalg._flapack\n"
        "assert sys.modules[name] is module and module.__name__ == name\n"
        f"assert (module is radial.lapack) is {first == 'scipy.linalg'}\n"
        "assert module.dtbtrs is radial.lapack.dtbtrs\n"
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
    # four threads share a fresh solver whose stored mesh starts empty.  In
    # rising n the threads keep asking for longer meshes (each with its own
    # potential terms) while others slice the current one; in falling n
    # the first task builds the longest mesh and the rest build that mesh's
    # terms concurrently.  The orbit averages build and read each state's
    # cached moments.  Every value and every solution's bytes must equal a
    # serial run on another fresh solver, in each of 4 rounds.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    tasks = []
    for n in range(8, 51, 2):
        for sp in (sr, yb):
            a, b = sp.state(n, "3S1"), sp.state(n, "3P1")
            tasks += [(a, b), (b, a), (b, sp.state(n, "3D1"))]
            tasks += [(sp.state(n, "3P1"), order, 1e-3) for order in (0, 2)]

    def value(solver, task):
        if isinstance(task[1], int):
            return solver.bessel_average(*task)
        return solver.radial_integral(*task)

    states = {st for task in tasks for st in task[:2] if not isinstance(st, int)}

    def solutions(solver):
        return [
            (solver.solve(st).j_in, solver.solve(st).v.tobytes()) for st in states
        ]

    serial_solver = RadialSolver()
    serial = [value(serial_solver, task) for task in tasks]
    serial_solutions = solutions(serial_solver)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for order in (1, -1, 1, -1):
            shared = RadialSolver()
            assert shared._mesh.x.shape == (0,)
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(
                    pool.map(
                        lambda task: value(shared, task), tasks[::order], timeout=300
                    )
                )
            assert got == serial[::order]
            assert solutions(shared) == serial_solutions
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
