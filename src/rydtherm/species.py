"""Species data files and quantum-defect state energies.

A species file is UTF-8 ``key = value`` text with ``#`` comments.  It carries
everything the physics engine needs to know about one atom: Rydberg–Ritz
quantum defects per LS series, the ionization limit, reduced-mass factor,
discrete line lists for the clock states (BBR response) and for the
metastable lattice response, clock metadata, and solver defaults.  Unknown
keys are rejected with the offending line number, as are malformed values
and non-finite numbers (except ``mass_amu = inf``) — a corrupted data file
should fail loudly, not half-load.

Key families (see ``data/sr.species`` for a commented example):

    format_version, name, data_version, mass_amu, ionization_limit_hartree,
    rydberg_n_max,
    defect.<series>.{n_min,mu0,mu2,mu4},
    ground.{series,n}, metastable.{series,n},
    line.<i>.{omega_au,d_au}, line.core_alpha_au,
    bbrline.<ground|metastable>.<i>.{omega_au,d_au},
    bbrline.<ground|metastable>.core_alpha_au,
    lowlying.<series>.<i>.{final,dipole_n32_au},
    clock.frequency_hz, clock.bbr_sensitivity_per_K,
    magic.bracket_nm_low, magic.bracket_nm_high

A series' states run from its ``n_min`` to ``rydberg_n_max``, the one
upper bound on n of every series (and of every radial table built from
them); a ``defect.<series>.n_max`` line is an unknown key, and a ``mu0``
equal to an n of its own series is rejected (mu(n) is undefined there).
An entry number <i> has no leading zero, so ``line.01.d_au`` is an unknown
key.

Each line list loads as the ``TransitionTable`` of the state it belongs
to, in ``Species.line_tables``: "ground" and "metastable" (the
``bbrline`` lists) at the J of that clock state, which must be defined,
and "lattice" (the ``line`` model) at J = 0.  A line's reduced dipole d
enters as z^2 = d^2 / (3 (2J + 1)); the list's core polarizability is the
table's ``core_alpha_au``.

The ``lowlying`` family patches decay channels whose compact final states
(effective quantum number below l+1) have no Coulomb-approximation
wavefunction: ``final`` names the final state as ``<series>:<n>`` and
``dipole_n32_au`` is the coefficient D of the standard compact-state
scaling <final|r|n*, l> = D / n*^(3/2) for a Rydberg initial state with
effective quantum number n*.  Each initial series loads as a map from
(final series, final n) to D in ``Species.lowlying``; a final must be a
state of its series, and may be listed once, and D must be positive with
a finite square (a channel's strength is D^2 / n*^3).

Energies: a state (n, series) has effective quantum number
n* = n - mu(n), mu(n) = mu0 + mu2/(n-mu0)^2 + mu4/(n-mu0)^4, and binding
energy mu_red/(2 n*^2) hartree (mu_red = reduced-mass factor).
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
import io
import math
import operator
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import constants as k
from . import units

_L_LETTERS = "SPDFGHIK"


class SpeciesDataError(ValueError):
    """Malformed or inconsistent species data file."""


@dataclass(frozen=True)
class SeriesDefect:
    """One LS series: its quantum numbers and Rydberg-Ritz defects."""

    label: str
    S: float
    L: int
    J: float
    n_min: int
    mu0: float
    mu2: float
    mu4: float

    def mu(self, n: int) -> float:
        m = n - self.mu0
        return self.mu0 + self.mu2 / m**2 + self.mu4 / m**4


def _binding_au(mu_red: float, n_eff: float) -> float:
    """Binding energy mu_red / (2 n*^2) (positive), hartree."""
    return mu_red / (2.0 * n_eff**2)


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """One initial state's channels as columns, and what lies outside them.

    Row i is one channel: ``channel_ids[i]`` names it (``series:n``, or
    ``<wavelength>nm`` for a line-list entry), ``omega_au[i]`` is its signed
    transition energy, ``z2[i]`` its scalar strength and ``j_final[i]`` the
    final state's J.  Rows are sorted by |omega|; the arrays are read-only.
    A radial table covers a span window (a downward table: every channel
    below the state, ``span`` None) and misses ``f_missing`` of the
    oscillator strength; a line table is complete (``span``, ``f_missing``
    and ``j_final`` are None) and adds a static ``core_alpha_au``.
    Equality is identity: tables are compared as objects, not by content.
    """

    span: int | None
    channel_ids: tuple[str, ...]
    omega_au: np.ndarray
    z2: np.ndarray
    j_final: np.ndarray | None
    f_missing: float | None
    core_alpha_au: float | None = None
    skipped_unsolvable: int = 0  # finals with no radial solution and no patch


def _columns(
    ids: list[str], omega_au: list[float], z2: np.ndarray, j_final: list[float] | None
) -> dict:
    """TransitionTable columns, rows stably sorted by |omega|, read-only."""
    order = sorted(range(len(ids)), key=lambda i: abs(omega_au[i]))

    def column(values) -> np.ndarray:
        arr = np.asarray(values, dtype=float)[order]
        arr.flags.writeable = False
        return arr

    return {
        "channel_ids": tuple(ids[i] for i in order),
        "omega_au": column(omega_au),
        "z2": column(z2),
        "j_final": None if j_final is None else column(j_final),
    }


@dataclass(frozen=True)
class RydbergState:
    """A bound (n, series) state of a loaded species, made only by
    ``Species.state``, which checks n, sets the cache key and computes n*
    and the binding energy once: one object per (n, series) of a species."""

    species: "Species" = field(repr=False, compare=False)
    n: int
    series: str
    _key: tuple = field(repr=False)
    # determined by the species and (n, series), so out of eq and hash
    defect: SeriesDefect = field(repr=False, compare=False)
    n_eff: float = field(repr=False, compare=False)
    binding_au: float = field(repr=False, compare=False)  # positive, hartree

    @property
    def L(self) -> int:
        return self.defect.L

    @property
    def S(self) -> float:
        return self.defect.S

    @property
    def J(self) -> float:
        return self.defect.J

    @property
    def energy_au(self) -> float:
        """Energy relative to the ionization limit (negative), hartree."""
        return -self.binding_au

    def __str__(self) -> str:  # e.g. "Sr 25 3D1"
        return f"{self.species.name} {self.n} {self.series}"


def _parse_series_label(label: str) -> tuple[float, int, float]:
    """S, L, J of a label the key grammar admitted (``_SERIES``)."""
    S = (int(label[0]) - 1) / 2.0
    L = _L_LETTERS.index(label[1])
    J = float(label[2])
    if not (abs(L - S) <= J <= L + S):
        raise SpeciesDataError(f"series label {label!r} violates |L-S| <= J <= L+S")
    return S, L, J


_SERIES = r"[13][SPDFGH]\d"
_ENTRY = r"(?P<entry>[1-9]\d*)"
# The species file grammar, one pattern per key family.  A family made of
# lists captures the list in group "list" (a series label, or a line
# list's key prefix) and the number of an entry in group "entry".
_KEY_PATTERNS = {
    "scalar": re.compile(
        r"format_version|name|data_version|mass_amu|ionization_limit_hartree"
        r"|rydberg_n_max|(ground|metastable)\.(series|n)|clock\.frequency_hz"
        r"|clock\.bbr_sensitivity_per_K|magic\.bracket_nm_(low|high)"
    ),
    "defect": re.compile(rf"defect\.(?P<list>{_SERIES})\.(n_min|mu0|mu2|mu4)"),
    "line": re.compile(
        rf"(?P<list>line|bbrline\.(ground|metastable))"
        rf"\.({_ENTRY}\.(omega_au|d_au)|core_alpha_au)"
    ),
    "lowlying": re.compile(
        rf"lowlying\.(?P<list>{_SERIES})\.{_ENTRY}\.(final|dipole_n32_au)"
    ),
}
# the key prefix of each line list
_LINE_LISTS = {
    "lattice": "line", "ground": "bbrline.ground", "metastable": "bbrline.metastable"
}


def _read_kv(
    path: str, content: bytes
) -> tuple[dict[str, tuple[str, int]], dict[str, dict[str, set[int]]]]:
    """The (value, line number) of each key, and for each list family its
    lists and the entry numbers given for each."""
    out: dict[str, tuple[str, int]] = {}
    lists: dict[str, dict[str, set[int]]] = {}
    text = io.StringIO(content.decode("utf-8"), newline=None)
    for lineno, raw in enumerate(text, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpeciesDataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        for family, pattern in _KEY_PATTERNS.items():
            m = pattern.fullmatch(key)
            if m:
                break
        else:
            raise SpeciesDataError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise SpeciesDataError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = (val, lineno)
        if "list" in pattern.groupindex:
            entries = lists.setdefault(family, {}).setdefault(m["list"], set())
            if m.groupdict().get("entry"):
                entries.add(int(m["entry"]))
    return out, lists


class _KV:
    """Typed accessors over the raw key/value map with line-number errors."""

    def __init__(self, path: str, kv: dict[str, tuple[str, int]]):
        self.path = path
        self.kv = kv

    def _get(self, key: str, required: bool = True) -> tuple[str, int] | None:
        if key not in self.kv:
            if required:
                raise SpeciesDataError(f"{self.path}: missing required key {key!r}")
            return None
        return self.kv[key]

    def str_(self, key: str) -> str:
        return self._get(key)[0]

    def float_(self, key: str, required: bool = True) -> float:
        got = self._get(key, required)
        if got is None:  # a missing optional float reads 0.0
            return 0.0
        val, lineno = got
        try:
            x = float(val)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise SpeciesDataError(
                f"{self.path}:{lineno}: bad float {val!r} for {key!r} (must be finite)"
            )
        return x

    def int_(self, key: str) -> int:
        val, lineno = self._get(key)
        try:
            return int(val)
        except ValueError:
            raise SpeciesDataError(
                f"{self.path}:{lineno}: bad integer {val!r} for {key!r}"
            ) from None

    def has(self, key: str) -> bool:
        return key in self.kv


def _line_table(kvw: _KV, prefix: str, entries: set[int], j: float) -> TransitionTable:
    """The complete table of one line list, for a state whose total angular
    momentum is ``j``."""
    if not entries:  # its core term alone would be loaded and never used
        _, lineno = kvw.kv[f"{prefix}.core_alpha_au"]
        raise SpeciesDataError(
            f"{kvw.path}:{lineno}: {prefix}.core_alpha_au without a {prefix}.<i> line"
        )
    omega, d = [], []
    for i in sorted(entries):
        omega.append(kvw.float_(f"{prefix}.{i}.omega_au"))
        d.append(kvw.float_(f"{prefix}.{i}.d_au"))
        if omega[-1] <= 0:
            raise SpeciesDataError(
                f"{kvw.path}: {prefix}.{i}.omega_au must be positive"
            )
        if d[-1] <= 0:
            raise SpeciesDataError(f"{kvw.path}: {prefix}.{i}.d_au must be positive")
        for name, x in (("omega_au", omega[-1]), ("d_au", d[-1])):
            if not math.isfinite(x * x):  # omega^2 and z^2 must be numbers
                val, lineno = kvw.kv[f"{prefix}.{i}.{name}"]
                raise SpeciesDataError(
                    f"{kvw.path}:{lineno}: {prefix}.{i}.{name} = {val} overflows squared"
                )
    ids = [f"{units.omega_au_to_wavelength_nm(w):.0f}nm" for w in omega]
    z2 = np.float_power(d, 2) / (3.0 * (2.0 * j + 1.0))
    return TransitionTable(
        span=None,
        **_columns(ids, omega, z2, None),
        f_missing=None,
        core_alpha_au=kvw.float_(f"{prefix}.core_alpha_au", required=False),
    )


class Species:
    """Loaded species data: defects, line tables, low-lying patches, clock
    metadata."""

    def __init__(self, path: str, content: bytes):
        # caches are keyed by content: two files that share a name and a
        # data_version but differ anywhere must never share an entry
        self.sha256 = hashlib.sha256(content).hexdigest()
        kv, lists = _read_kv(path, content)
        kvw = _KV(path, kv)
        if kvw.int_("format_version") != 1:
            raise SpeciesDataError(f"{path}: unsupported format_version")
        self.name = kvw.str_("name")
        self.data_version = kvw.str_("data_version")
        if kvw.str_("mass_amu") == "inf":  # an infinitely heavy nucleus
            self.reduced_mass_factor = 1.0
        else:
            mass = kvw.float_("mass_amu")
            if mass <= 0:
                raise SpeciesDataError(f"{path}: mass_amu must be positive or inf")
            self.reduced_mass_factor = 1.0 / (1.0 + k.ELECTRON_MASS_U / mass)
            if self.reduced_mass_factor == 0.0:
                val, lineno = kv["mass_amu"]
                raise SpeciesDataError(
                    f"{path}:{lineno}: mass_amu = {val} gives a reduced-mass factor of 0"
                )
        self.ionization_limit_au = kvw.float_("ionization_limit_hartree")
        if self.ionization_limit_au <= 0:
            raise SpeciesDataError(f"{path}: ionization_limit_hartree must be > 0")
        if not math.isfinite(self.ionization_limit_au * k.HARTREE_HZ):
            val, lineno = kv["ionization_limit_hartree"]
            raise SpeciesDataError(
                f"{path}:{lineno}: ionization_limit_hartree = {val} overflows in Hz"
            )
        self.rydberg_n_max = kvw.int_("rydberg_n_max")

        self._series: dict[str, SeriesDefect] = {}
        for label in sorted(lists.get("defect", {})):
            pre = f"defect.{label}"
            sd = SeriesDefect(
                label,
                *_parse_series_label(label),  # S, L, J
                n_min=kvw.int_(f"{pre}.n_min"),
                mu0=kvw.float_(f"{pre}.mu0"),
                mu2=kvw.float_(f"{pre}.mu2", required=False),
                mu4=kvw.float_(f"{pre}.mu4", required=False),
            )
            if sd.n_min > self.rydberg_n_max:
                raise SpeciesDataError(f"{path}: {pre}: n_min > rydberg_n_max")
            if sd.mu0.is_integer() and sd.n_min <= sd.mu0 <= self.rydberg_n_max:
                val, lineno = kv[f"{pre}.mu0"]
                raise SpeciesDataError(
                    f"{path}:{lineno}: {pre}.mu0 = {val} equals n = {sd.mu0:.0f} "
                    "of its series, where mu(n) divides by n - mu0 = 0"
                )
            try:
                st_low = sd.n_min - sd.mu(sd.n_min)
            except OverflowError:  # a power of n - mu0 overflows
                st_low = math.nan
            if not math.isfinite(st_low):
                val, lineno = kv[f"{pre}.mu0"]
                raise SpeciesDataError(
                    f"{path}:{lineno}: {pre}: mu({sd.n_min}) overflows (mu0 = {val})"
                )
            # n* must stay positive everywhere; perturbed low members may dip
            # below L (e.g. Sr 4d), which the radial engine refuses to solve
            # but whose energies remain valid data
            if st_low <= 0.1:
                raise SpeciesDataError(
                    f"{path}: {pre}: n_eff({sd.n_min}) = {st_low:.3f} is not physical"
                )
            self._series[label] = sd
        if not self._series:
            raise SpeciesDataError(f"{path}: no defect.<series> entries")

        # the (series, n) of each clock role the file names
        clock = {"ground": (kvw.str_("ground.series"), kvw.int_("ground.n"))}
        if kvw.has("metastable.series") or kvw.has("metastable.n"):
            clock["metastable"] = (kvw.str_("metastable.series"), kvw.int_("metastable.n"))

        self.lowlying: dict[str, dict[tuple[str, int], float]] = {}
        for initial, idx in sorted(lists.get("lowlying", {}).items()):
            if initial not in self._series:
                raise SpeciesDataError(
                    f"{path}: lowlying.{initial}: unknown initial series"
                )
            dipoles = self.lowlying[initial] = {}
            for i in sorted(idx):
                pre = f"lowlying.{initial}.{i}"
                final, lineno = kvw._get(f"{pre}.final")
                dip = kvw.float_(f"{pre}.dipole_n32_au")
                fs, _, fn = final.partition(":")
                if fs not in self._series or not fn.isdigit():
                    raise SpeciesDataError(
                        f"{path}: {pre}.final = {final!r} "
                        "must be '<series>:<n>' for a declared series"
                    )
                if abs(self._series[fs].L - self._series[initial].L) != 1:
                    raise SpeciesDataError(
                        f"{path}: {pre}: {final!r} is not "
                        "dipole-coupled to the initial series"
                    )
                if dip <= 0:
                    raise SpeciesDataError(f"{path}: {pre}.dipole_n32_au must be > 0")
                if not math.isfinite(dip * dip):  # a channel's strength is D^2
                    val, dip_line = kvw.kv[f"{pre}.dipole_n32_au"]
                    raise SpeciesDataError(
                        f"{path}:{dip_line}: {pre}.dipole_n32_au = {val} "
                        "overflows squared"
                    )
                # a final no table reaches, or a second dipole of one final,
                # would load and never be used
                n_min, n_f = self._series[fs].n_min, int(fn)
                if not n_min <= n_f <= self.rydberg_n_max:
                    raise SpeciesDataError(
                        f"{path}:{lineno}: {pre}.final = {final!r} lies outside "
                        f"[{n_min}, {self.rydberg_n_max}] for {fs}"
                    )
                if (fs, n_f) in dipoles:
                    raise SpeciesDataError(
                        f"{path}:{lineno}: {pre}.final = {final!r} is listed "
                        f"twice for lowlying.{initial}"
                    )
                dipoles[fs, n_f] = dip

        self.clock_frequency_hz = (
            kvw.float_("clock.frequency_hz") if kvw.has("clock.frequency_hz") else None
        )
        self.clock_bbr_sensitivity_per_k = (
            kvw.float_("clock.bbr_sensitivity_per_K")
            if kvw.has("clock.bbr_sensitivity_per_K")
            else None
        )
        self.magic_bracket_nm = None
        if kvw.has("magic.bracket_nm_low") or kvw.has("magic.bracket_nm_high"):
            self.magic_bracket_nm = (
                kvw.float_("magic.bracket_nm_low"),
                kvw.float_("magic.bracket_nm_high"),
            )
            if not 0 < self.magic_bracket_nm[0] < self.magic_bracket_nm[1]:
                raise SpeciesDataError(f"{path}: bad magic bracket")

        for gs_label, gs_n in clock.values():
            if gs_label not in self._series:
                raise SpeciesDataError(f"{path}: unknown series {gs_label!r}")
            n_min = self._series[gs_label].n_min
            if not n_min <= gs_n <= self.rydberg_n_max:
                raise SpeciesDataError(
                    f"{path}: n = {gs_n} outside [{n_min}, {self.rydberg_n_max}] "
                    f"for {gs_label}"
                )

        # every state made so far, by (n, series)
        self._states: dict[tuple[int, str], RydbergState] = {}
        # one object per role, which every call of clock_state returns, and
        # each one's role by its content key (ground wins if both are one)
        self._clock_states = {role: self.state(n, s) for role, (s, n) in clock.items()}
        self._roles = {
            st._key: role for role, st in reversed(self._clock_states.items())
        }

        self.line_tables: dict[str, TransitionTable] = {}
        for name, prefix in _LINE_LISTS.items():
            if prefix not in lists.get("line", {}):
                continue
            if name == "lattice":  # a model of the J = 0 metastable state
                j = 0.0
            else:
                try:
                    j = self.clock_state(name).J
                except SpeciesDataError as exc:  # a list of no clock state
                    lineno = min(
                        ln for key, (_, ln) in kv.items() if key.startswith(f"{prefix}.")
                    )
                    raise SpeciesDataError(f"{path}:{lineno}: {prefix}: {exc}") from None
            self.line_tables[name] = _line_table(kvw, prefix, lists["line"][prefix], j)

    # -- states ------------------------------------------------------------

    def series_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self._series))

    def series_info(self, label: str) -> SeriesDefect:
        try:
            return self._series[label]
        except KeyError:
            raise SpeciesDataError(
                f"{self.name}: no such series {label!r} "
                f"(have {', '.join(sorted(self._series))})"
            ) from None

    def state(self, n: int, series: str) -> RydbergState:
        """The state (n, series), the one way to make a state: n must lie
        in [n_min of the series, rydberg_n_max], the one upper bound on n,
        so every radial table and mesh built from a state stays inside it.
        n must be an integer (a Python or numpy int), not a bool, float or
        str.  A state is one object per (n, series), memoised here with
        its n* and binding energy, so any n of one value gets it."""
        if type(n) is int:  # a bool or numpy int takes the checks first
            hit = self._states.get((n, series))
            if hit is not None:
                return hit
        sd = self.series_info(series)
        try:
            n_int = operator.index(n)
        except TypeError:
            n_int = None
        if n_int is None or isinstance(n, bool):
            raise SpeciesDataError(
                f"{self.name} {series}: n = {n!r} is not an integer"
            )
        n = n_int
        if not sd.n_min <= n <= self.rydberg_n_max:
            raise SpeciesDataError(
                f"{self.name} {series}: n = {n} outside valid range "
                f"[{sd.n_min}, {self.rydberg_n_max}]"
            )
        hit = self._states.get((n, series))
        if hit is None:
            n_eff = n - sd.mu(n)
            hit = RydbergState(
                species=self,
                n=n,
                series=series,
                _key=(self.sha256, n, series),
                defect=sd,
                n_eff=n_eff,
                binding_au=_binding_au(self.reduced_mass_factor, n_eff),
            )
            hit = self._states.setdefault((n, series), hit)
        return hit

    def clock_state(self, role: str) -> RydbergState:
        """The "ground" or "metastable" state the species file names, the
        same object on every call; another role is a ValueError."""
        if role not in ("ground", "metastable"):
            raise ValueError(f"clock role must be 'ground' or 'metastable', got {role!r}")
        state = self._clock_states.get(role)
        if state is None:
            raise SpeciesDataError(f"{self.name}: no {role} state defined")
        return state

    def metastable_state(self) -> RydbergState:
        return self.clock_state("metastable")

    def check_states(self, *states: RydbergState) -> None:
        """Raise ValueError unless every state comes from this species file
        (compared by content, so an edited copy is another species)."""
        for state in states:
            if state.species.sha256 != self.sha256:
                raise ValueError(
                    f"{state} is a state of another species file than "
                    f"this {self.name} (sha256 {state.species.sha256[:12]} "
                    f"vs {self.sha256[:12]})"
                )

    def state_role(self, state: RydbergState) -> str | None:
        """'ground' / 'metastable' if the state is one of the two, else None
        (looked up by content key, so a state of another file has none)."""
        return self._roles.get(state._key)


@functools.cache
def bundled_species_path(name: str) -> str:
    # looked up once per name: files() is most of a load_species call.
    # rydtherm.data is a namespace package, whose str() is
    # "MultiplexedPath('...')", not a directory, so the name is joined onto
    # the Traversable itself
    return str(importlib.resources.files("rydtherm.data").joinpath(f"{name}.species"))


# every Species parsed so far, by the sha256 of its file's content
_LOADED: dict[str, Species] = {}


def load_species(name_or_path: str) -> Species:
    """Load a species by bundled name ('sr', 'yb', 'hydrogen') or file path.

    A path has a directory separator or ends in ``.species`` (an edited
    copy named ``sr`` is ``./sr``); anything else names a bundled file.
    The file is read on every call, but parsed once per content: all loads
    of byte-identical files, under any name or path, return one shared
    Species, to be treated as read-only.  A file that fails to parse is not
    kept, so each load raises again.
    """
    if os.sep in name_or_path or name_or_path.endswith(".species"):
        path = name_or_path
    else:
        path = bundled_species_path(name_or_path.lower())
    if not os.path.exists(path):
        raise SpeciesDataError(f"no species data file at {path}")
    with open(path, "rb") as fh:
        content = fh.read()
    species = _LOADED.get(hashlib.sha256(content).hexdigest())
    if species is None:
        species = Species(path, content)
        species = _LOADED.setdefault(species.sha256, species)
    return species
