"""Angular-momentum algebra for LS-coupled one-active-electron transitions.

Exact-arithmetic Racah formula for the 6j symbol (integer factorials via
``math.factorial``, evaluated in Fraction to avoid cancellation), plus the
line-strength factors used for the divalent-atom dipole channels.

For a dipole transition between LS-coupled states |L S J> -> |L' S J'|
(same spin, one-electron orbital l -> l' = l +/- 1 with the second valence
electron a spectator in s_1/2), the reduced line strength factorizes as

    S = (2J+1)(2J'+1) * {L' J' S; J L 1}^2 * max(L, L') * R^2

with R the one-electron radial integral <n'l'|r|nl>.  The scalar part of
|<z>|^2 entering isotropic sums is S / (3(2J+1)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _triangle_ok(a: float, b: float, c: float) -> bool:
    return (
        abs(a - b) <= c <= a + b
        and abs((a + b + c) - round(a + b + c)) < 1e-9
    )


def _tri_coeff(a: float, b: float, c: float) -> Fraction:
    # triangle coefficient Delta(abc)^2 as an exact Fraction
    f = math.factorial
    return Fraction(
        f(round(a + b - c)) * f(round(a - b + c)) * f(round(-a + b + c)),
        f(round(a + b + c + 1)),
    )


@lru_cache(maxsize=4096)
def sixj(j1: float, j2: float, j3: float, j4: float, j5: float, j6: float) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} (Racah sum, exact arithmetic).

    Arguments may be integers or half-integers.  Returns 0 for violated
    triangle conditions.
    """
    triads = (
        (j1, j2, j3),
        (j1, j5, j6),
        (j4, j2, j6),
        (j4, j5, j3),
    )
    for a, b, c in triads:
        if not _triangle_ok(a, b, c):
            return 0.0
    f = math.factorial
    pref = Fraction(1)
    for a, b, c in triads:
        pref *= _tri_coeff(a, b, c)
    t_min = max(
        round(j1 + j2 + j3),
        round(j1 + j5 + j6),
        round(j4 + j2 + j6),
        round(j4 + j5 + j3),
    )
    t_max = min(
        round(j1 + j2 + j4 + j5),
        round(j2 + j3 + j5 + j6),
        round(j3 + j1 + j6 + j4),
    )
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        num = f(t + 1) * (-1) ** t
        den = (
            f(t - round(j1 + j2 + j3))
            * f(t - round(j1 + j5 + j6))
            * f(t - round(j4 + j2 + j6))
            * f(t - round(j4 + j5 + j3))
            * f(round(j1 + j2 + j4 + j5) - t)
            * f(round(j2 + j3 + j5 + j6) - t)
            * f(round(j3 + j1 + j6 + j4) - t)
        )
        total += Fraction(num, den)
    # result = sqrt(pref) * total; do the sqrt in floats at the end
    return math.sqrt(float(pref)) * float(total)


def threej(
    j1: float, j2: float, j3: float, m1: float, m2: float, m3: float
) -> float:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3) (Racah sum, exact arithmetic).

    Arguments may be integers or half-integers.  Returns 0 for violated
    selection rules.
    """
    if round(2 * (m1 + m2 + m3)) != 0:
        return 0.0
    if not _triangle_ok(j1, j2, j3):
        return 0.0
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if abs(m) > j or round(2 * (j - m)) % 2 != 0:
            return 0.0
    f = math.factorial
    pref = _tri_coeff(j1, j2, j3)
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        pref *= f(round(j - m)) * f(round(j + m))
    k_min = max(0, round(j2 - j3 - m1), round(j1 - j3 + m2))
    k_max = min(
        round(j1 + j2 - j3), round(j1 - m1), round(j2 + m2)
    )
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        den = (
            f(k)
            * f(round(j1 + j2 - j3) - k)
            * f(round(j1 - m1) - k)
            * f(round(j2 + m2) - k)
            * f(round(j3 - j2 + m1) + k)
            * f(round(j3 - j1 - m2) + k)
        )
        total += Fraction((-1) ** k, den)
    sign = (-1) ** round(j1 - j2 - m3)
    return sign * math.sqrt(float(pref)) * float(total)


@lru_cache(maxsize=1024)
def legendre_moment(l: int, m: int, order: int) -> float:
    """<P_order(cos theta)> over the |Y_lm|^2 angular density."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    return (
        (-1) ** m
        * (2 * l + 1)
        * threej(l, order, l, 0, 0, 0)
        * threej(l, order, l, -m, 0, m)
    )


def line_strength_factor(L: int, J: float, S: float, Lp: int, Jp: float) -> float:
    """Angular part of the reduced line strength (R^2 factored out).

    Returns (2J+1)(2J'+1) {L' J' S; J L 1}^2 max(L, L'), i.e. the factor A
    such that the line strength is A * R_radial^2.  Zero when the channel is
    dipole-forbidden (|L-L'| != 1, |J-J'| > 1, or J = J' = 0).
    """
    if abs(L - Lp) != 1 or abs(J - Jp) > 1 or (J == 0 and Jp == 0):
        return 0.0
    w = sixj(Lp, Jp, S, J, L, 1)
    return (2 * J + 1) * (2 * Jp + 1) * w * w * max(L, Lp)
