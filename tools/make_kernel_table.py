"""Rebuild the Farley-Wing kernel table ``src/rydtherm/data/farley_wing_table.dat``.

``rydtherm.bbr.farley_wing_fast`` evaluates F(y) from a piecewise Chebyshev
table of G(s) = F(e^s) / e^s in s = ln|y|.  This script computes that table
from the reference quadrature ``rydtherm.bbr.farley_wing``: each of PIECES
equal intervals of s in [ln Y_MIN, ln Y_MAX] gets the degree-DEGREE
interpolant through the first-kind Chebyshev nodes, with coefficients summed
by ``math.fsum`` so that the file is the same on every run.  Above y = 40
the reference is its asymptotic series, so the table's top pieces are
fitted to that series.

The piece width was picked by measurement against a 30-digit mpmath
quadrature (F at 301 points in [1e-4, 1e3], F' by central differences at
601 points).  Every layout tried over [1e-5, 1e3] (160 to 768 pieces of
degree 6 to 12) keeps F within 3e-12.  F' inherits the ~5e-13 noise of the
quadrature, which most of them amplify past 1e-9 near y = 1 (320 x 9,
416 x 8, 512 x 7, every degree-6 layout); 448 pieces of degree 7 keep it
within 4e-10 max(1, |F'|) with the fewest Clenshaw steps per call.  The
top at 1e5 keeps that width (560 pieces) and every channel of a Rydberg
shift at room temperature inside the table: the continuum tail's first
node, at w = E_bind / 6.1e-4, lies at y = 1,150-1,950 for n = 25-30 at
300 K and up to 2.9e4 for the n >= 8 states of a Fig.-3 scan, so a top at
1e3 sent half of the thermometry kernel calls through the series too.

    PYTHONPATH=src python tools/make_kernel_table.py

It takes about three seconds (4,480 reference evaluations; the 1,523
above y = 40 are series sums).
"""

import math
import os

from rydtherm.bbr import farley_wing

Y_MIN = 1e-5  # below it the kernel uses -pi^2 y / 3 (error ~1e-14 at 1e-5)
Y_MAX = 1e5  # above it the kernel uses the asymptotic series
PIECES = 560
DEGREE = 7

PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "src", "rydtherm", "data", "farley_wing_table.dat",
)

HEADER = """\
# Piecewise Chebyshev table of G(s) = F(e^s) / e^s, s = ln|y|, for the
# Farley-Wing function F (rydtherm.bbr.farley_wing_fast).  Piece p covers
# s in [s_min + p w, s_min + (p + 1) w], w = (s_max - s_min) / pieces; its
# line holds the coefficients c_0 .. c_degree of sum_j c_j T_j(t), with
# t in [-1, 1] the piece's local variable.
# Written by tools/make_kernel_table.py from rydtherm.bbr.farley_wing;
# do not edit by hand.
"""


def piece_coefficients(s_lo: float, width: float) -> list[float]:
    """Chebyshev coefficients of G on [s_lo, s_lo + width]."""
    n = DEGREE + 1
    angles = [math.pi * (k + 0.5) / n for k in range(n)]
    values = []
    for theta in angles:
        y = math.exp(s_lo + 0.5 * width * (math.cos(theta) + 1.0))
        values.append(farley_wing(y) / y)
    coef = [
        (2.0 / n) * math.fsum(v * math.cos(j * th) for v, th in zip(values, angles))
        for j in range(n)
    ]
    coef[0] *= 0.5
    return coef


def table_text() -> str:
    s_min, s_max = math.log(Y_MIN), math.log(Y_MAX)
    width = (s_max - s_min) / PIECES
    lines = [
        HEADER,
        f"s_min = {s_min!r}\n",
        f"s_max = {s_max!r}\n",
        f"pieces = {PIECES}\n",
        f"degree = {DEGREE}\n",
    ]
    for p in range(PIECES):
        coef = piece_coefficients(s_min + p * width, width)
        lines.append(" ".join(repr(c) for c in coef) + "\n")
    return "".join(lines)


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(table_text())
