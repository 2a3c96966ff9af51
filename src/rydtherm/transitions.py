"""Dipole channel tables: the one channel model behind every engine.

A "channel" is one dipole-coupled final state seen from a fixed initial
state: its signed transition energy omega = E_final - E_initial (atomic
units) and the scalar strength z^2 = S / (3 (2 J_i + 1)) that enters
isotropic (thermal or scalar-polarizability) sums, with S the line strength
(series-pair angular factor times the squared radial integral <f| r |i>).
Blackbody shift sums, polarizabilities, linewidths, and the lattice model
all iterate the same records, held in a ``TransitionTable``:

* ``build_transition_table(state, span)`` - the radial table: all channels
  with n' in [max(n_min', n - span), min(n_max', n + span)] for each
  dipole-coupled series, sorted by |omega|.  The summed oscillator strength
  (Thomas-Reiche-Kuhn, one active electron) tells callers how much strength
  the window missed.
* ``line_table`` - a complete line list from the species file (a clock
  state's ``bbrline.*`` list, or the ``line.*`` lattice model) plus a
  static core polarizability; no strength is missing.
* ``channel_table(state, span)`` - the one dispatch: the line table of a
  clock state, the radial table of any other state.
* ``downward_channels(state)`` - every channel below the state regardless
  of span, for spontaneous-decay sums.

Compact final states with no Coulomb-approximation solution (effective
quantum number at/below l) are normally skipped and their strength folded
into the caller's sum-rule tail.  For decay channels that dominate a
linewidth, species files may patch them explicitly (``lowlying.*`` keys):
the radial integral is then modeled as D / n_i*^(3/2), the standard scaling
of a Rydberg bound-bound integral onto a fixed compact state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import constants as kconst
from . import units
from .radial import (
    MeshOverflowError,
    RadialSolver,
    RadialUnsolvableError,
    default_solver,
)
from .species import Line, RydbergState
from .wigner import line_strength_factor

DEFAULT_SPAN = 35

_C3 = kconst.C_AU**3


@dataclass(frozen=True)
class Channel:
    """One dipole-coupled final state seen from the initial state.

    A line-list channel names no final state: ``series`` and ``n`` are None.
    """

    series: str | None
    n: int | None
    omega_au: float  # E_final - E_initial (signed)
    z2: float  # scalar |<z>|^2 = S / (3 (2 J_i + 1))

    @property
    def f_osc(self) -> float:
        """Signed oscillator strength 2 omega z^2 (TRK bookkeeping)."""
        return 2.0 * self.omega_au * self.z2

    @property
    def channel_id(self) -> str:
        if self.series is None:
            lam_nm = units.omega_au_to_wavelength_nm(abs(self.omega_au))
            return f"{lam_nm:.0f}nm"
        return f"{self.series}:{self.n}"


@dataclass(frozen=True)
class TransitionTable:
    """One initial state's channels and what lies outside them.

    A radial table covers a span window and misses ``f_missing`` of the
    oscillator strength; a line table is complete (``span`` and
    ``f_missing`` are None) and adds a static ``core_alpha_au``.
    ``omega_au`` and ``z2`` hold the channels' fields as read-only arrays,
    built on first use and kept with the table, for kernels that take a
    whole table in one call; ``channel_ids`` holds their ids the same way.
    """

    state_str: str
    span: int | None
    channels: tuple[Channel, ...]
    f_missing: float | None
    core_alpha_au: float | None = None
    skipped_unsolvable: int = 0  # finals with no radial solution and no patch

    def _field_array(self, name: str) -> np.ndarray:
        values = np.array([getattr(ch, name) for ch in self.channels], dtype=float)
        values.flags.writeable = False
        return values

    @functools.cached_property
    def omega_au(self) -> np.ndarray:
        return self._field_array("omega_au")

    @functools.cached_property
    def z2(self) -> np.ndarray:
        return self._field_array("z2")

    @functools.cached_property
    def channel_ids(self) -> tuple[str, ...]:
        return tuple(ch.channel_id for ch in self.channels)


def channel_alpha_au(ch: Channel, omega_au: float) -> float:
    """One channel's contribution to the scalar polarizability at omega.

    alpha_ch(omega) = 2 omega_ch z^2 / (omega_ch^2 - omega^2); the pole at
    |omega_ch| is the caller's to handle (principal value or guard band).
    """
    return 2.0 * ch.omega_au * ch.z2 / (ch.omega_au**2 - omega_au**2)


def einstein_a_s(ch: Channel) -> float:
    """Spontaneous rate of one downward channel, s^-1 (0 if upward).

    A = (4/3) |omega|^3 S / ((2 J_i + 1) c^3) = 4 |omega|^3 z^2 / c^3
    in atomic units, converted to SI.
    """
    if ch.omega_au >= 0:
        return 0.0
    return 4.0 * abs(ch.omega_au) ** 3 * ch.z2 / _C3 / kconst.ATOMIC_TIME_S


def coupled_series(state: RydbergState) -> tuple[str, ...]:
    """Series labels dipole-coupled to the state's series (LS rules)."""
    out = []
    for label in state.species.series_labels():
        sd = state.species.series_info(label)
        if sd.S != state.S or abs(sd.L - state.L) != 1:
            continue
        if abs(sd.J - state.J) > 1 or (sd.J == 0 and state.J == 0):
            continue
        out.append(label)
    return tuple(out)


# A calibrated dipole patch only makes sense when the initial orbit is much
# larger than the final one (that is where the radial integral follows the
# n*^-3/2 compact-channel law the patch encodes).  Below this scale ratio the
# states are near-ladder and the direct radial solution is the better value.
_PATCH_SCALE_RATIO = 2.0


def _patched_radial(state: RydbergState, series: str, n: int) -> float | None:
    """Species-file calibrated dipole for a compact final, or None."""
    for lch in state.species.lowlying_channels(state.series):
        if lch.final_series == series and lch.final_n == n:
            return lch.dipole_n32_au / state.n_eff**1.5
    return None


def _channel_radial(
    state: RydbergState,
    final: RydbergState,
    solver: RadialSolver,
) -> float | None:
    """Radial integral for one channel: calibrated patch, else solver.

    Calibrated species-file dipoles override the one-channel Coulomb value
    whenever the scale separation backing the n*^-3/2 law holds; they also
    serve as the fallback when the final state has no radial solution.
    Returns None when the channel has neither a solution nor a patch.
    """
    patched = _patched_radial(state, final.series, final.n)
    if patched is not None and state.n_eff >= _PATCH_SCALE_RATIO * final.n_eff:
        return patched
    try:
        return solver.radial_integral(state, final, power=1)
    except RadialUnsolvableError:
        return patched


def _make_channel(
    state: RydbergState,
    series: str,
    n: int,
    omega_au: float,
    radial: float,
    angular: float,
) -> Channel:
    strength = angular * radial * radial
    return Channel(
        series=series,
        n=n,
        omega_au=omega_au,
        z2=strength / (3.0 * (2.0 * state.J + 1.0)),
    )


def build_transition_table(
    state: RydbergState,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> TransitionTable:
    """All dipole channels with |n' - n| <= span (cached on the solver)."""
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    if state.n > state.species.rydberg_n_max:
        raise MeshOverflowError(
            f"{state}: n = {state.n} exceeds the species mesh budget "
            f"(rydberg_n_max = {state.species.rydberg_n_max})"
        )
    solver = solver or default_solver()
    key = ("table", state._key, span)
    return solver.cached(key, lambda: _build_table(state, span, solver))


def _build_table(
    state: RydbergState, span: int, solver: RadialSolver
) -> TransitionTable:
    e_i = state.energy_au
    channels = []
    skipped = 0
    for label in coupled_series(state):
        sd = state.species.series_info(label)
        ang = line_strength_factor(state.L, state.J, state.S, sd.L, sd.J)
        if ang == 0.0:
            continue
        lo = max(sd.n_min, state.n - span)
        hi = min(sd.n_max, state.n + span)
        for n_f in range(lo, hi + 1):
            final = state.species.state(n_f, label)
            radial = _channel_radial(state, final, solver)
            if radial is None:
                skipped += 1
                continue
            channels.append(
                _make_channel(
                    state, label, n_f, final.energy_au - e_i, radial, ang
                )
            )
    channels.sort(key=lambda ch: abs(ch.omega_au))
    return TransitionTable(
        state_str=str(state),
        span=span,
        channels=tuple(channels),
        f_missing=1.0 - math.fsum(ch.f_osc for ch in channels),
        skipped_unsolvable=skipped,
    )


def line_table(
    state_str: str, j: float, lines: tuple[Line, ...], core_alpha_au: float
) -> TransitionTable:
    """A complete line list of a state with total angular momentum ``j``."""
    return TransitionTable(
        state_str=state_str,
        span=None,
        channels=tuple(
            Channel(
                series=None,
                n=None,
                omega_au=line.omega_au,
                z2=line.d_au**2 / (3.0 * (2.0 * j + 1.0)),
            )
            for line in lines
        ),
        f_missing=None,
        core_alpha_au=core_alpha_au,
    )


def channel_table(
    state: RydbergState,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> TransitionTable:
    """The channels of any state: its species line list for a clock state
    (ground/metastable role with ``bbrline`` entries), else the radial table."""
    role = state.species.state_role(state)
    if role in state.species.bbr_lines:
        lines, core_alpha = state.species.bbr_lines[role]
        return line_table(str(state), state.J, lines, core_alpha)
    return build_transition_table(state, span, solver)


def downward_channels(
    state: RydbergState, solver: RadialSolver | None = None
) -> tuple[Channel, ...]:
    """Every dipole channel below the state, regardless of span."""
    solver = solver or default_solver()
    return solver.cached(
        ("downward", state._key), lambda: _build_downward(state, solver)
    )


def _build_downward(state: RydbergState, solver: RadialSolver) -> tuple[Channel, ...]:
    e_i = state.energy_au
    out = []
    for label in coupled_series(state):
        sd = state.species.series_info(label)
        ang = line_strength_factor(state.L, state.J, state.S, sd.L, sd.J)
        if ang == 0.0:
            continue
        for n_f in range(sd.n_min, sd.n_max + 1):
            final = state.species.state(n_f, label)
            if final.energy_au >= e_i:
                break
            radial = _channel_radial(state, final, solver)
            if radial is None:
                continue
            out.append(
                _make_channel(
                    state, label, n_f, final.energy_au - e_i, radial, ang
                )
            )
    out.sort(key=lambda ch: abs(ch.omega_au))
    return tuple(out)
