"""Dipole channel tables: the one channel model behind every engine.

A "channel" is one dipole-coupled final state seen from a fixed initial
state: its signed transition energy omega = E_final - E_initial (atomic
units) and the scalar strength z^2 = S / (3 (2 J_i + 1)) that enters
isotropic (thermal or scalar-polarizability) sums, with S the line strength
(series-pair angular factor times the squared radial integral <f| r |i>).
A ``TransitionTable`` holds one initial state's channels as columns, sorted
by |omega| when the table is built: ``channel_ids``, and read-only arrays
``omega_au``, ``z2`` and ``j_final``.  Blackbody shift sums,
polarizabilities, linewidths and the lattice model all read these columns
whole; ``channel_alpha_au`` and ``dipole_rate_s`` take a table and return one
value per row.  There are three kinds of table:

* ``build_transition_table(state, span)`` - the radial table: all channels
  with n' in [max(n_min', n - span), min(rydberg_n_max, n + span)] for
  each dipole-coupled series, where n_min' is the final series' lowest n
  and rydberg_n_max the species' one upper bound on n, so every final
  state lies within the bound.  The summed oscillator strength
  (Thomas-Reiche-Kuhn, one active electron) tells callers how much
  strength the window missed.
* a line table - a complete line list of the species file (a clock
  state's ``bbrline.*`` list, or the ``line.*`` lattice model) plus a
  static core polarizability, built when the file loads
  (``Species.line_tables``); no strength is missing, and no final state
  is named, so ``j_final`` is None.
* ``downward_channels(state)`` - every channel below the state regardless
  of span, for spontaneous-decay sums.  It walks the coupled series the
  same way as the radial table, from n_min' to the first final not below
  the state.

``channel_table(state, span)`` is the one dispatch: the line table of a
clock state, the radial table of any other state.

Compact final states with no Coulomb-approximation solution (effective
quantum number at/below l) are normally skipped and their strength folded
into the caller's sum-rule tail.  For decay channels that dominate a
linewidth, species files may patch them explicitly (``lowlying.*`` keys,
loaded as ``Species.lowlying``): the radial integral is then modeled as
D / n_i*^(3/2), the standard scaling of a Rydberg bound-bound integral
onto a fixed compact state.  ``TransitionTable`` itself lives in
``species``, which builds the line tables.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable

import numpy as np

from . import constants as kconst
from .radial import RadialSolver, RadialUnsolvableError, default_solver
from .species import RydbergState, SeriesDefect, TransitionTable, _columns
from .wigner import line_strength_factor

DEFAULT_SPAN = 35

_C3 = kconst.C_AU**3


def channel_alpha_au(table: TransitionTable, omega_au) -> np.ndarray:
    """Each channel's contribution to the scalar polarizability at omega.

    alpha_ch(omega) = 2 omega_ch z^2 / (omega_ch^2 - omega^2); the pole at
    |omega_ch| is the caller's to handle (principal value or guard band).
    ``omega_au`` is a float, or an array whose last axis broadcasts
    against the channels.  ``float_power`` squares through libm pow, bit
    for bit like a Python float's ``**`` (numpy's ``**`` and ``x * x`` may
    round the last bit differently).
    """
    w = table.omega_au
    return 2.0 * w * table.z2 / (
        np.float_power(w, 2) - np.float_power(omega_au, 2)
    )


def dipole_rate_s(table: TransitionTable) -> np.ndarray:
    """4 |omega|^3 z^2 / c^3 per channel (atomic units), in s^-1: the
    spontaneous rate (Einstein A = (4/3) |omega|^3 S / ((2 J_i + 1) c^3))
    of a downward channel, and by detailed balance the absorption rate per
    thermal photon of an upward one."""
    w3 = np.float_power(np.abs(table.omega_au), 3)
    return 4.0 * w3 * table.z2 / _C3 / kconst.ATOMIC_TIME_S


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


def check_span(span) -> int:
    """``span`` as an int; ValueError unless it is an integer >= 1 (a
    Python or numpy int, not a bool, float or str).  Every cache key that
    holds a span is formed from this value: ``2.0 == 2`` and ``True == 1``
    hash alike, so a raw span would find the entry of another."""
    try:
        n = operator.index(span)
    except TypeError:
        n = None
    if n is None or isinstance(span, bool):
        raise ValueError(f"span must be an integer, got {span!r}")
    if n < 1:
        raise ValueError(f"span must be >= 1, got {n}")
    return n


def build_transition_table(
    state: RydbergState,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> TransitionTable:
    """All dipole channels with |n' - n| <= span (cached on the solver).
    ``span`` is as ``check_span`` admits it."""
    span = check_span(span)
    solver = solver or default_solver()
    key = ("table", state._key, span)
    return solver.cached(key, lambda: _build_table(state, span, solver))


def _walk(
    state: RydbergState,
    solver: RadialSolver,
    n_range: Callable[[SeriesDefect], Iterable[int]],
    span: int | None = None,
) -> TransitionTable:
    """The radial table of the channels to the finals ``n_range(series)``
    of each dipole-coupled series.

    A channel's radial integral is the solver's, or a species-file
    calibrated patch (``lowlying.*``): the patch overrides the one-channel
    Coulomb value whenever the scale separation backing its n*^-3/2 law
    holds, and is the fallback when the final state has no radial
    solution.  A final with neither is skipped and counted.
    """
    species = state.species
    make_state = species.state
    radial_integral = solver.radial_integral
    n_eff = state.n_eff
    e_i = state.energy_au
    dipoles = species.lowlying.get(state.series, {})
    l_i, j_i, s_i = state.L, state.J, state.S
    ids, omega, strength, j_final = [], [], [], []
    skipped = 0
    for label in coupled_series(state):
        sd = species.series_info(label)
        ang = line_strength_factor(l_i, j_i, s_i, sd.L, sd.J)
        if ang == 0.0:
            continue
        for n_f in n_range(sd):
            final = make_state(n_f, label)
            dipole = dipoles.get((label, n_f))
            radial = None if dipole is None else dipole / n_eff**1.5
            if radial is None or n_eff < _PATCH_SCALE_RATIO * final.n_eff:
                try:
                    radial = radial_integral(state, final)
                except RadialUnsolvableError:
                    pass  # the patch, if any, stands in
            if radial is None:
                skipped += 1
                continue
            ids.append(f"{label}:{n_f}")
            omega.append(final.energy_au - e_i)
            strength.append(ang * radial * radial)
            j_final.append(sd.J)
    z2 = np.array(strength) / (3.0 * (2.0 * j_i + 1.0))
    cols = _columns(ids, omega, z2, j_final)
    return TransitionTable(
        span=span,
        **cols,
        f_missing=1.0 - math.fsum((2.0 * cols["omega_au"] * cols["z2"]).tolist()),
        skipped_unsolvable=skipped,
    )


def _build_table(
    state: RydbergState, span: int, solver: RadialSolver
) -> TransitionTable:
    n_max = state.species.rydberg_n_max

    def window(sd: SeriesDefect) -> range:
        return range(max(sd.n_min, state.n - span), min(n_max, state.n + span) + 1)

    return _walk(state, solver, window, span)


def channel_table(
    state: RydbergState,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> TransitionTable:
    """The channels of any state: its species line list for a clock state
    (ground/metastable role with ``bbrline`` entries), else the radial table.
    ``span`` is checked for both (``check_span``)."""
    span = check_span(span)
    table = state.species.line_tables.get(state.species.state_role(state))
    if table is None:
        table = build_transition_table(state, span, solver)
    return table


def downward_channels(state: RydbergState) -> TransitionTable:
    """Every dipole channel below the state, regardless of span (cached on
    ``default_solver()``)."""
    solver = default_solver()
    return solver.cached(
        ("downward", state._key), lambda: _build_downward(state, solver)
    )


def _build_downward(state: RydbergState, solver: RadialSolver) -> TransitionTable:
    def below(sd: SeriesDefect) -> Iterable[int]:
        # a series' energies rise with n: stop at its first final not below
        return itertools.takewhile(
            lambda n: state.species.state(n, sd.label).energy_au < state.energy_au,
            range(sd.n_min, state.species.rydberg_n_max + 1),
        )

    return _walk(state, solver, below)
