"""Rebuild the Farley-Wing kernel table ``src/rydtherm/data/farley_wing_table.dat``.

``rydtherm.bbr.farley_wing_fast`` evaluates F(y) from a piecewise Chebyshev
table of G(s) = F(e^s) / e^s in s = ln|y|.  This script computes that table
from the reference quadrature ``rydtherm.bbr.farley_wing``: each of PIECES
equal intervals of s in [ln Y_MIN, ln Y_MAX] gets the degree-DEGREE
interpolant through the first-kind Chebyshev nodes, with coefficients summed
by ``math.fsum`` so that the file is the same on every run.

    PYTHONPATH=src python tools/make_kernel_table.py

It takes about two seconds (672 reference evaluations).
"""

import math
import os

from rydtherm.bbr import farley_wing

Y_MIN = 1e-5  # below it the kernel uses -pi^2 y / 3 (error ~1e-14 at 1e-5)
Y_MAX = 40.0  # above it the kernel uses the asymptotic series (error < 4e-13)
PIECES = 32
DEGREE = 20

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
