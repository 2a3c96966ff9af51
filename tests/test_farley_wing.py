"""Thermal response kernel F(y): oracle, shape, limits, route agreement.

The oracle is a 30-digit mpmath quadrature of the defining principal value
with the pole subtracted: with h(x) = x^3 / ((x + y)(e^x - 1)),

    PV int_0^inf h(x)/(x - y) dx = int_0^2y [h(x) - h(y)]/(x - y) dx
                                   + int_2y^inf h(x)/(x - y) dx,

since the principal value of 1/(x - y) over [0, 2y] is 0.  It shares
nothing with either implementation route (pole-excised adaptive quadrature
/ Chebyshev table), so agreement pins all three independently.
"""

import importlib.resources
import importlib.util
import math
import os
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from rydtherm import bbr
from rydtherm.bbr import _KERNEL_TABLE, farley_wing, farley_wing_fast, farley_wing_zero

mp.mp.dps = 30

ROOT = os.path.join(os.path.dirname(__file__), "..")
ORACLE_Y = [float(y) for y in np.geomspace(1e-3, 40.0, 25)]
# above 40 the table follows the reference's asymptotic series up to its top
# at 1e5, and the fast route switches to that series there
TABLE_TOP = 1e5
ABOVE_40_Y = [40.5, 150.0, 1145.0, 3e4, 99999.0, TABLE_TOP, 100001.0, 2.5e5]


def _oracle_mp(y):
    y = mp.mpf(y)

    def h(x):
        return x**3 / ((x + y) * mp.expm1(x))

    hy = h(y)
    near = mp.quad(lambda x: (h(x) - hy) / (x - y), [0, y, 2 * y])
    cuts = [2 * y] + [c for c in (1, 5, 20, 60) if c > 2 * y] + [mp.inf]
    far = mp.quad(lambda x: h(x) / (x - y), cuts)
    return -2 * y * (near + far)


def _oracle(y: float) -> float:
    return float(_oracle_mp(y))


@pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
def test_against_exponential_integral_oracle(y):
    want = _oracle(y)
    assert farley_wing(y) == pytest.approx(want, abs=5e-8)
    assert farley_wing_fast(y) == pytest.approx(want, abs=5e-8)


def test_both_routes_against_quadrature_oracle():
    want = np.array([_oracle(y) for y in ORACLE_Y])
    for y, w in zip(ORACLE_Y, want):
        assert abs(farley_wing(y) - w) <= 1e-11, y
        assert abs(farley_wing_fast(y) - w) <= 1e-11, y
    ys = np.array(ORACLE_Y)
    assert np.max(np.abs(farley_wing_fast(ys) - want)) <= 1e-11
    assert np.max(np.abs(farley_wing_fast(-ys) + want)) <= 1e-11


def test_table_derivative_against_oracle():
    # F' of the table is the derivative of its Chebyshev pieces; the oracle
    # side is a central difference with step 1e-6 y (error ~1e-12 y^2 F''')
    for y in ORACLE_Y[::3]:
        step = 1e-6 * y
        want = float((_oracle_mp(y + step) - _oracle_mp(y - step)) / (2 * step))
        _, got = farley_wing_fast(y, derivative=True)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), y


def test_kernel_above_40_against_oracle():
    # both sides of the table's top: F within 1e-11, F' within 1e-9 relative
    # of a central difference of the oracle (step 1e-6 y)
    f, df = farley_wing_fast(np.array(ABOVE_40_Y), derivative=True)
    for y, fv, dv in zip(ABOVE_40_Y, f, df):
        step = 1e-6 * y
        want_d = float((_oracle_mp(y + step) - _oracle_mp(y - step)) / (2 * step))
        want = _oracle(y)
        assert abs(fv - want) <= 1e-11, y
        assert abs(farley_wing(y) - want) <= 1e-11, y
        assert abs(dv - want_d) <= 1e-9 * abs(want_d), y


def test_kernel_table_file_is_reproducible():
    # tools/make_kernel_table.py rebuilds the committed coefficients exactly
    path = os.path.join(ROOT, "tools", "make_kernel_table.py")
    spec = importlib.util.spec_from_file_location("make_kernel_table", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    data = os.path.join(ROOT, "src", "rydtherm", "data", _KERNEL_TABLE)
    assert os.path.samefile(gen.PATH, data)
    assert gen.Y_MAX == TABLE_TOP
    with open(data, encoding="utf-8") as fh:
        assert fh.read() == gen.table_text()


def _two_pass_coefficients():
    """(s_min, piece width, G coefficients, dG/ds coefficients), each array
    (degree + 1 or degree, pieces), read from the table file as two
    arrays: the layout of the oracle below."""
    text = importlib.resources.files("rydtherm.data").joinpath(_KERNEL_TABLE)
    meta, rows = {}, []
    for line in text.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=")
            meta[key.strip()] = float(value)
        elif line:
            rows.append([float(x) for x in line.split()])
    coef = np.array(rows)
    width = (meta["s_max"] - meta["s_min"]) / int(meta["pieces"])
    dcoef = np.polynomial.chebyshev.chebder(coef, axis=1) * (2.0 / width)
    return meta["s_min"], width, np.ascontiguousarray(coef.T), np.ascontiguousarray(dcoef.T)


def _clenshaw_alloc(coef, t):
    """Clenshaw's recurrence with a new array at every step, one pass per
    coefficient array: the oracle for the kernel's single in-place pass."""
    t2 = 2.0 * t
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for c in coef[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return coef[0] + t * b1 - b2


def _fw_table_two_pass(a, _table):
    """F and F' inside the table by two separate allocating passes, one
    over G's coefficients and one over dG/ds's."""
    s_min, width, coef, dcoef = _TWO_PASS
    u = (np.log(a) - s_min) / width
    piece = np.minimum(np.maximum(u.astype(np.intp), 0), coef.shape[1] - 1)
    t = 2.0 * (u - piece) - 1.0
    g = _clenshaw_alloc(coef.take(piece, axis=1), t)
    return a * g, g + _clenshaw_alloc(dcoef.take(piece, axis=1), t)


_TWO_PASS = _two_pass_coefficients()


def test_kernel_matches_two_pass_oracle_bit_for_bit(monkeypatch):
    # the stacked table and its one in-place pass give every F and F' of
    # the two separate passes byte for byte: on a dense log grid, at every
    # piece boundary, across both seams of the table, at -y, at y = 0 and
    # for 0-d input.  The oracle reaches the same public function through
    # the unchanged branch and sign handling around the table
    s_min, width, coef, _ = _TWO_PASS
    y_min, y_max = bbr._kernel_table()[:2]
    bounds = np.exp(s_min + width * np.arange(coef.shape[1] + 1))
    seams = [y_min, y_max, 1e-5, TABLE_TOP]
    near = np.concatenate([bounds, seams])
    pos = np.concatenate([
        np.geomspace(1e-5, 1e5, 100_001),
        near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        [0.0, 1e-7, 2 * TABLE_TOP],
    ])
    ys = np.concatenate([pos, -pos, [-0.0]])
    got = farley_wing_fast(ys, derivative=True)
    inside = (pos >= y_min) & (pos <= y_max)
    got_inside = farley_wing_fast(pos[inside], derivative=True)
    scalars = ys[:: len(ys) // 400].tolist() + [0.0, -0.0, y_min, y_max, -y_max]
    got_scalars = [farley_wing_fast(y, derivative=True) for y in scalars]

    monkeypatch.setattr(bbr, "_fw_table", _fw_table_two_pass)
    want = farley_wing_fast(ys, derivative=True)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    want_inside = farley_wing_fast(pos[inside], derivative=True)
    assert got_inside[0].tobytes() == want_inside[0].tobytes()
    assert got_inside[1].tobytes() == want_inside[1].tobytes()
    for y, pair in zip(scalars, got_scalars):
        want_pair = farley_wing_fast(y, derivative=True)
        assert tuple(map(float.hex, pair)) == tuple(map(float.hex, want_pair)), y
        assert type(pair[0]) is float and type(pair[1]) is float


def test_array_and_scalar_calls_agree():
    grid = np.append(
        np.geomspace(1e-7, 1e3, 40), [3e4, TABLE_TOP, 2 * TABLE_TOP, 1e9, np.inf]
    )
    ys = np.concatenate([-grid, [0.0], grid])
    f, df = farley_wing_fast(ys, derivative=True)
    for y, fv, dv in zip(ys, f, df):
        got = farley_wing_fast(float(y), derivative=True)
        assert got == (fv, dv)
        assert type(got[0]) is float and type(got[1]) is float
    assert farley_wing_fast(ys[:6].reshape(2, 3)).shape == (2, 3)
    # an array wholly inside the table reads it unclamped, with nothing to
    # overwrite: the same bits
    inside = (np.abs(ys) >= 1e-5) & (np.abs(ys) <= TABLE_TOP)
    f_in, df_in = farley_wing_fast(ys[inside], derivative=True)
    assert np.array_equal(f_in, f[inside]) and np.array_equal(df_in, df[inside])
    edge = np.array([1e-5, TABLE_TOP * (1 - 1e-15), TABLE_TOP, -TABLE_TOP])
    f_edge = farley_wing_fast(edge)
    assert np.array_equal(f_edge, [farley_wing_fast(float(y)) for y in edge])
    assert np.array_equal(
        f_edge, farley_wing_fast(np.append(edge, 2 * TABLE_TOP))[:-1]
    )


def test_nan_gives_nan_without_warning():
    # a NaN reads the clamped table like any y outside it and is overwritten
    # with NaN; no cast warning, and every other element keeps its bits
    seam = [1e-5, np.nextafter(1e-5, 0), TABLE_TOP, np.nextafter(TABLE_TOP, np.inf)]
    pos = np.concatenate([[0.0, np.inf, 5e-324], seam, np.geomspace(1e-310, 1e308, 60)])
    ys = np.concatenate([pos, -pos, [-0.0]])
    f, df = farley_wing_fast(ys, derivative=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(math.isnan(v) for v in farley_wing_fast(math.nan, derivative=True))
        at = [0, 9, len(ys)]
        g, dg = farley_wing_fast(np.insert(ys, at, np.nan), derivative=True)
    holes = np.isnan(g)
    assert np.flatnonzero(holes).tolist() == [0, 10, len(ys) + 2]
    assert np.array_equal(np.isnan(dg), holes)
    assert g[~holes].tobytes() == f.tobytes() and dg[~holes].tobytes() == df.tobytes()


def test_value_at_origin():
    assert farley_wing(0.0) == 0.0
    assert farley_wing_fast(0.0) == 0.0


def test_small_y_slope():
    y = 1e-3
    for fn in (farley_wing, farley_wing_fast):
        assert fn(y) / y == pytest.approx(-math.pi**2 / 3, rel=1e-3)


def test_reference_small_y_series_against_oracle():
    # below |y| = 1e-3 the reference sums two terms of Binet's series
    for y in (1e-5, 1e-4, 9.99e-4):
        assert abs(farley_wing(y) - _oracle(y)) <= 1e-16, y


def test_oddness_exact():
    for y in np.geomspace(1e-3, 1e3, 25):
        assert farley_wing(y) + farley_wing(-y) == pytest.approx(0.0, abs=1e-13)
        assert farley_wing_fast(y) + farley_wing_fast(-y) == pytest.approx(
            0.0, abs=1e-13
        )


def test_single_minimum_location_and_depth():
    res = minimize_scalar(farley_wing_fast, bounds=(0.5, 2.0), method="bounded")
    assert res.x == pytest.approx(1.12, abs=0.02)
    assert res.fun == pytest.approx(-2.0205, abs=2e-3)


def test_zero_crossing():
    root = brentq(farley_wing_fast, 2.0, 3.5, xtol=1e-10)
    assert root == pytest.approx(2.6162, abs=2e-3)
    assert farley_wing_zero() == pytest.approx(root, abs=1e-8)
    assert abs(farley_wing(root)) < 1e-8


def test_zero_crossing_is_scipy_brentq_bit_for_bit():
    # farley_wing_zero runs the package's port of scipy's brentq
    assert farley_wing_zero() == brentq(farley_wing_fast, 0.5, 6.0, xtol=1e-10)


def test_zeta_literals_are_scipy_zeta():
    # the asymptotic series' zeta(2m + 4) are written out so that the
    # package needs no scipy.special import; these are scipy's values
    from scipy import special

    from rydtherm import bbr

    assert len(bbr._ZETA_EVEN) == 17
    for m, value in enumerate(bbr._ZETA_EVEN):
        assert value == float(special.zeta(2 * m + 4)), 2 * m + 4


def test_large_y_asymptote():
    y = 200.0
    asym = (2.0 * math.pi**4 / 15.0) / y
    assert farley_wing_fast(y) == pytest.approx(asym, rel=5e-3)
    assert farley_wing(y) == pytest.approx(asym, rel=5e-3)
    # and the tail keeps falling off as 1/y
    assert farley_wing_fast(400.0) == pytest.approx(
        farley_wing_fast(200.0) / 2.0, rel=2e-2
    )


def test_shape_one_min_one_max():
    # derivative sign pattern on (0, 40): negative, positive, negative
    y = np.geomspace(0.02, 40.0, 400)
    f = np.array([farley_wing_fast(v) for v in y])
    dsign = np.sign(np.diff(f))
    changes = np.nonzero(np.diff(dsign) != 0)[0]
    assert len(changes) == 2
    assert dsign[0] < 0 and dsign[-1] < 0


def test_routes_agree_everywhere():
    for y in np.geomspace(0.01, 30.0, 40):
        a, b = farley_wing(y), farley_wing_fast(y)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_continuity_across_route_seams():
    # the fast map switches branches at 1e-5 and at the table's top, the
    # reference at 1e-3 and 40; across each seam F moves only by F' times
    # the step
    for y0 in (1e-5, 1e-3, 40.0, TABLE_TOP):
        for fn in (farley_wing, farley_wing_fast):
            lo = fn(y0 * (1 - 1e-6))
            hi = fn(y0 * (1 + 1e-6))
            assert abs(hi - lo) < 1e-4 * max(1.0, abs(hi))
        _, slope = farley_wing_fast(y0, derivative=True)
        jump = farley_wing_fast(y0 * (1 + 1e-6)) - farley_wing_fast(y0 * (1 - 1e-6))
        assert abs(jump - slope * 2e-6 * y0) <= 1e-12, y0


# -- properties ----------------------------------------------------------------

_PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@_PROPERTY
@given(st.floats(min_value=0.0, max_value=1e300))
def test_property_exactly_odd(y):
    assert farley_wing_fast(-y) == -farley_wing_fast(y)
    f, df = farley_wing_fast(np.array([y, -y]), derivative=True)
    assert f[1] == -f[0] and df[1] == df[0]


@_PROPERTY
@given(st.floats(min_value=40.0, max_value=1e12))
def test_property_large_y_limit(y):
    # y F(y) = 2 pi^4/15 + 2 Gamma(6) zeta(6) / y^2 + ...; the correction
    # is about 244 / y^2, and 1e-13 allows for rounding
    excess = y * farley_wing_fast(y) - 2.0 * math.pi**4 / 15.0
    assert -1e-13 <= excess <= 260.0 / (y * y) + 1e-13


@_PROPERTY
@given(st.floats(min_value=1e-300, max_value=1e-5))
def test_property_small_y_limit(y):
    # F(y)/y = -pi^2/3 - y^2 (ln(y/2pi) + gamma) + ..., and 1e-15 allows
    # for rounding
    excess = farley_wing_fast(y) / y + math.pi**2 / 3.0
    assert abs(excess) <= 2.0 * y * y * abs(math.log(y)) + 1e-15
