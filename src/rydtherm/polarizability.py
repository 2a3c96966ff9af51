"""AC and static dipole polarizabilities.

The static value gives the shift -(1/2) alpha(0) E^2 of a stray DC field,
which the thermometry joint solve separates from the BBR shift; the AC
value at a lattice or probe frequency is the light-shift coefficient.  Both
are one sum over the channels of ``channel_table`` (the same tables as the
blackbody-shift engine), `alpha(w) = sum_ch 2 w_ch z_ch^2 / (w_ch^2 - w^2)`,
plus what lies outside the channels:

* a radial table (Rydberg and other quantum-defect states) adds a
  single-pole tail at the ionization threshold carrying the missing
  Thomas-Reiche-Kuhn strength, so the free-electron limit -1/w^2 is exact
  for w far above every resonance;
* a clock state's line table adds its constant core term (the core
  resonances lie far above every frequency of interest here).

Polarizabilities are m_J-resolved: a linearly polarized probe along the
quantization axis sees `alpha(m) = sum 2 w_ch S_ch (3j(J' 1 J; -m 0 m))^2
/ (w_ch^2 - w^2)`.  The default ``m_j="stretched"`` is the component
m_J = J, which the lattice/thermometry drive prepares and the one
``static_polarizability`` gives; ``m_j=None`` requests the orientation
average (the scalar value).  For J = 0 states all conventions coincide.
Line-list channels carry no final-state J, so there only the scalar
polarizability (m_j = None or 0) is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import constants as kconst
from . import units
from .radial import RadialSolver, default_solver
from .species import RydbergState
from .transitions import (
    DEFAULT_SPAN,
    TransitionTable,
    channel_alpha_au,
    channel_table,
    check_span,
)
from .wigner import threej

GUARD_FRACTION = 1e-4  # relative half-width of the band around a resonance

_AU_TO_HZ_M2_V2 = kconst.HARTREE_HZ / kconst.ATOMIC_FIELD_V_PER_M**2


class ResonanceGuardError(ValueError):
    """Requested frequency sits inside the guard band of a resonance."""


@dataclass(frozen=True)
class PolarizabilityResult:
    """Dynamic polarizability of one state at one probe frequency; its
    channel terms are ``channel_alpha_au`` of the state's ``channel_table``."""

    state_str: str
    omega_au: float
    m_j: float | None  # None = orientation average
    value_au: float
    tail_au: float
    nearest_resonance_id: str | None
    # signed detuning omega - |omega_res| of the nearest resonance, a.u.
    nearest_detuning_au: float

    @property
    def value_hz_m2_v2(self) -> float:
        """alpha such that the level shift is -1/2 alpha E^2 [Hz, V/m]."""
        return self.value_au * _AU_TO_HZ_M2_V2

    @property
    def value_khz_per_kw_cm2(self) -> float:
        """Single-beam light-shift coefficient, kHz per kW/cm^2."""
        return units.au_pol_to_khz_per_kw_cm2(self.value_au)


def _m_weight(j_initial: float, j_final: float, m_j: float) -> float:
    """Ratio of the m_J-resolved channel weight to the scalar z^2 weight."""
    w = threej(j_final, 1, j_initial, -m_j, 0, m_j)
    return 3.0 * (2.0 * j_initial + 1.0) * w * w


def _guard_check(table: TransitionTable, omega_au: float) -> None:
    """Raise if ``omega_au`` lies in any resonance's guard band; a zero
    frequency resonance has a zero-width band that omega = 0 still hits."""
    w_abs = np.abs(table.omega_au)
    hit = np.abs(omega_au - w_abs) <= GUARD_FRACTION * w_abs
    if hit.any():
        i = int(np.argmax(hit))
        raise ResonanceGuardError(
            f"probe frequency {omega_au:.9e} a.u. is within the "
            f"{GUARD_FRACTION:g} guard band of resonance {table.channel_ids[i]} "
            f"at {w_abs[i]:.9e} a.u."
        )


def ac_polarizability(
    state: RydbergState,
    omega_au: float,
    m_j: float | Literal["stretched"] | None = "stretched",
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> PolarizabilityResult:
    """Dynamic dipole polarizability at probe frequency ``omega_au`` >= 0.

    ``m_j`` defaults to the stretched component m_J = J; pass None for the
    orientation average.  Raises ValueError for a non-finite or negative
    ``omega_au``, for a bool ``m_j`` (True would pass as 1) and for an m_J
    that is not one of J, J - 1, ..., -J;
    OverflowError when ``omega_au`` squared exceeds the double range;
    ResonanceGuardError when ``omega_au`` is within ``GUARD_FRACTION``
    (relative) of any channel resonance.
    """
    if not (math.isfinite(omega_au) and omega_au >= 0):
        raise ValueError(f"probe frequency must be finite and >= 0, got {omega_au}")
    if math.isinf(omega_au * omega_au):  # every channel term squares it
        raise OverflowError(
            f"probe frequency {omega_au:g} a.u. squared lies beyond the double range"
        )
    if isinstance(m_j, (bool, np.bool_)):
        raise ValueError(f"m_j must be a number or None, got {m_j!r}")
    if m_j == "stretched":
        m_j = state.J
    if m_j is not None and m_j not in [state.J - k for k in range(int(2 * state.J) + 1)]:
        raise ValueError(f"m_j = {m_j} is not one of J = {state.J}, J - 1, ..., -J")
    table = channel_table(state, span, solver)
    m_resolved = m_j is not None and table.j_final is not None
    if m_j and not m_resolved:
        raise ValueError(
            f"{state}: the line-list route carries no final-state J data; "
            f"only the scalar (m_j=None or 0) polarizability is defined"
        )
    _guard_check(table, omega_au)
    alpha = channel_alpha_au(table, omega_au)
    if m_resolved:
        j_values, row_j = np.unique(table.j_final, return_inverse=True)
        weights = [_m_weight(state.J, j, m_j) for j in j_values.tolist()]
        alpha = alpha * np.array(weights)[row_j]
    parts = alpha.tolist()
    if table.core_alpha_au is not None:
        parts.append(table.core_alpha_au)
    # Missing-strength tail as a single pole at the ionization threshold:
    # keeps the far-off-resonance limit at exactly -1/w^2 (TRK) and adds
    # the right sign of static background below threshold.
    w_th = state.binding_au
    tail = (
        table.f_missing / (w_th * w_th - omega_au * omega_au)
        if table.f_missing is not None and table.f_missing > 0.0
        else 0.0
    )
    # the resonance nearest the probe, and the signed detuning from it
    det = omega_au - np.abs(table.omega_au)
    near = int(np.argmin(np.abs(det))) if det.size else None
    return PolarizabilityResult(
        state_str=str(state),
        omega_au=omega_au,
        m_j=m_j,
        value_au=math.fsum(parts) + tail,  # exactly rounded: order-free
        tail_au=tail,
        nearest_resonance_id=None if near is None else table.channel_ids[near],
        nearest_detuning_au=math.inf if near is None else float(det[near]),
    )


def static_polarizability(
    state: RydbergState,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> PolarizabilityResult:
    """Static dipole polarizability (the omega = 0 sum over states) of the
    stretched component m_J = J, computed once per solver, state and
    ``span`` and the same object returned after that."""
    span = check_span(span)
    solver = solver or default_solver()
    return solver.cached(
        ("static", state._key, span),
        lambda: ac_polarizability(state, 0.0, span=span, solver=solver),
    )

