"""One-electron radial wavefunctions for quantum-defect states.

Numerov integration of the radial equation on the square-root mesh
x = sqrt(r) (u(r) = v(x) * x^(1/2)), which puts roughly constant points per
oscillation across the whole orbit.  With the reduced-mass factor mu the
transformed equation is

    v''(x) = -kfun(x) v(x),
    kfun(x) = -3/(4 x^2) + 8 mu + 8 mu E x^2 - 4 l(l+1)/x^2,

integrated inward from the outer classical region on a *global aligned*
grid x_j = j*h, so any two states share mesh nodes and matrix elements are
plain overlap sums:  integral u_a u_b r^p dr = 2h * trapz(v_a v_b x^(2p+2)).
The trapezoid rule is spectrally accurate here because the integrand's
derivatives vanish at both ends of the domain.

Conventions:
* energies E = -mu/(2 n*^2) hartree from the species quantum defects;
* quantum-defect series are cut at r_min = 0.05 l(l+1) + 1 bohr (the core
  region carries no meaning in a one-channel Coulomb approximation);
  zero-defect (hydrogenic) series integrate to r_min = 0.001 (l+1)^2 bohr
  so the regular solution is captured to oracle accuracy;
* r_max = 2 n*(n* + 15);
* states with n* <= l + 0.15 have no usable Coulomb-approximation solution
  (energy at/below the centrifugal barrier minimum) and raise
  RadialUnsolvableError; perturbed series bottoms (e.g. Sr 4d) are treated
  by callers via sum-rule completion instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special

from .species import RydbergState
from .wigner import legendre_moment, line_strength_factor

DEFAULT_MESH_STEP = 0.01

_trapz = getattr(np, "trapezoid", None) or np.trapz


class RadialUnsolvableError(ValueError):
    """State has no usable Coulomb-approximation radial solution."""


class MeshOverflowError(RadialUnsolvableError):
    """State's principal quantum number exceeds the species mesh budget."""


@dataclass(frozen=True)
class RadialSolution:
    """Normalized v(x) on the aligned mesh x_j = j*h, j_in <= j <= j_out."""

    j_in: int
    j_out: int
    h: float
    v: np.ndarray  # length j_out - j_in + 1
    l: int
    n_eff: float


def _numerov_inward(kf: np.ndarray, h: float) -> np.ndarray:
    """Integrate v'' = -kf v inward; seed with a tiny value at the outer end."""
    n = kf.shape[0]
    c = (1.0 + (h * h / 12.0) * kf).tolist()
    v = [0.0] * n
    v[n - 1] = 0.0
    v[n - 2] = 1e-12
    for j in range(n - 2, 0, -1):
        v[j - 1] = ((12.0 - 10.0 * c[j]) * v[j] - c[j + 1] * v[j + 1]) / c[j - 1]
    return np.asarray(v)


class RadialSolver:
    """Solves radial wavefunctions and matrix elements on one mesh; caches
    what is built on it (solutions, transition tables, downward channels)."""

    def __init__(self, h: float = DEFAULT_MESH_STEP):
        self.h = h
        self._cache: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def cached(self, key: tuple, build):
        """The value under ``key``; on a miss ``build()`` runs outside the
        lock, and the first value stored is the one every caller gets."""
        with self._lock:
            hit = self._cache.get(key)
        if hit is None:
            hit = build()
            with self._lock:
                hit = self._cache.setdefault(key, hit)
        return hit

    # -- wavefunctions -----------------------------------------------------

    def solve(self, state: RydbergState) -> RadialSolution:
        return self.cached(("solution", state._key), lambda: self._solve(state))

    def _solve(self, state: RydbergState) -> RadialSolution:
        sd = state.defect
        l = sd.L
        nst = state.n_eff
        if state.n > state.species.rydberg_n_max:
            raise MeshOverflowError(
                f"{state}: n = {state.n} exceeds the species mesh budget "
                f"(rydberg_n_max = {state.species.rydberg_n_max})"
            )
        if nst <= l + 0.15:
            raise RadialUnsolvableError(
                f"{state}: n_eff = {nst:.3f} too close to/below l = {l}; "
                "no Coulomb-approximation solution"
            )
        mu = state.species.reduced_mass_factor
        energy = -state.binding_au  # hartree, negative

        hydrogenic = sd.mu0 == 0.0 and sd.mu2 == 0.0 and sd.mu4 == 0.0
        if hydrogenic:
            r_min = 0.001 * (l + 1) ** 2
        else:
            r_min = 0.05 * l * (l + 1) + 1.0
        r_max = 2.0 * nst * (nst + 15.0)

        h = self.h
        j_in = max(1, math.ceil(math.sqrt(r_min) / h))
        j_out = math.floor(math.sqrt(r_max) / h)
        x = h * np.arange(j_in, j_out + 1)
        x2 = x * x
        kf = (
            -3.0 / (4.0 * x2)
            + 8.0 * mu
            + 8.0 * mu * energy * x2
            - 4.0 * l * (l + 1) / x2
        )
        v = _numerov_inward(kf, h)
        norm_sq = 2.0 * h * float(_trapz(v * v * x2))
        v = v / math.sqrt(norm_sq)
        return RadialSolution(j_in=j_in, j_out=j_out, h=h, v=v, l=l, n_eff=nst)

    # -- matrix elements ---------------------------------------------------

    def _pair_integral(self, a: RydbergState, b: RydbergState, weight_fn) -> float:
        sa, sb = self.solve(a), self.solve(b)
        j0 = max(sa.j_in, sb.j_in)
        j1 = min(sa.j_out, sb.j_out)
        va = sa.v[j0 - sa.j_in : j1 - sa.j_in + 1]
        vb = sb.v[j0 - sb.j_in : j1 - sb.j_in + 1]
        x = self.h * np.arange(j0, j1 + 1)
        return 2.0 * self.h * float(_trapz(va * vb * weight_fn(x)))

    def radial_integral(
        self, a: RydbergState, b: RydbergState, power: int = 1
    ) -> float:
        """<a| r^power |b> over the common mesh (u_a u_b r^p dr)."""
        return self._pair_integral(a, b, lambda x: x ** (2 * power + 2))

    def r2_expectation(self, state: RydbergState) -> float:
        return self.radial_integral(state, state, power=2)

    def j0_average(self, state: RydbergState, q_au: float) -> float:
        """<j0(q r)> over the state's radial density."""
        return self._pair_integral(
            state, state, lambda x: x * x * np.sinc(q_au * x * x / math.pi)
        )

    def bessel_average(
        self, state: RydbergState, order: int, q_au: float
    ) -> float:
        """<j_order(q r)> over the state's radial density."""
        if order == 0:
            return self.j0_average(state, q_au)
        return self._pair_integral(
            state,
            state,
            lambda x: x * x * special.spherical_jn(order, q_au * x * x),
        )

    def sin2_average(
        self, state: RydbergState, k_au: float, m_l: int | None = 0
    ) -> float:
        """<sin^2(k x_e)> of the electron about the core at a field node.

        The lattice axis is the quantization axis.  For ``m_l = None`` (or
        any s state) the density is treated as isotropic and the average is
        exactly (1 - <j0(2 k r)>)/2.  For an integer ``m_l`` the |Y_lm|^2
        anisotropy is kept: <cos 2kz> expands over even-order spherical
        Bessel moments weighted by the density's Legendre moments.
        """
        l = state.L
        if m_l is None or l == 0:
            return 0.5 * (1.0 - self.j0_average(state, 2.0 * k_au))
        cos_avg = 0.0
        for order in range(0, 2 * l + 1, 2):
            pl = legendre_moment(l, m_l, order)
            if pl == 0.0:
                continue
            sign = -1.0 if (order // 2) % 2 else 1.0
            cos_avg += (
                sign
                * (2 * order + 1)
                * pl
                * self.bessel_average(state, order, 2.0 * k_au)
            )
        return 0.5 * (1.0 - cos_avg)


# ---------------------------------------------------------------------------
# module-level entry points (shared default solver)

_DEFAULT_SOLVER: RadialSolver | None = None
_DEFAULT_LOCK = threading.Lock()


def default_solver() -> RadialSolver:
    """Process-wide shared solver."""
    global _DEFAULT_SOLVER
    with _DEFAULT_LOCK:
        if _DEFAULT_SOLVER is None:
            _DEFAULT_SOLVER = RadialSolver()
        return _DEFAULT_SOLVER


def solve_radial(
    state: RydbergState, solver: RadialSolver | None = None
) -> RadialSolution:
    """Normalized radial solution of a quantum-defect state."""
    return (solver or default_solver()).solve(state)


def dipole_matrix_element(
    a: RydbergState, b: RydbergState, solver: RadialSolver | None = None
) -> float:
    """Reduced dipole matrix element magnitude sqrt(S_ab), atomic units.

    S_ab is the line strength: the series-pair angular factor times the
    squared radial integral <a| r |b>.  Symmetric in (a, b).
    """
    if abs(a.L - b.L) != 1:
        raise ValueError(
            f"dipole-forbidden pair {a} <-> {b}: |delta L| = {abs(a.L - b.L)}"
        )
    ang = line_strength_factor(a.L, a.J, a.S, b.L, b.J)
    radial = (solver or default_solver()).radial_integral(a, b, power=1)
    return math.sqrt(ang) * abs(radial)


def sin2_matrix_element(
    state: RydbergState,
    k_au: float,
    m_l: int | None = 0,
    solver: RadialSolver | None = None,
) -> float:
    """<sin^2(k x_e)> for a lattice of wavenumber k (atomic units), in [0, 1].

    ``m_l`` selects the orbital alignment relative to the lattice axis;
    the default 0 matches the published position-independent lattice term
    for nd Rydberg states, ``None`` averages over orientations.
    """
    if k_au < 0:
        raise ValueError(f"wavenumber must be >= 0, got {k_au}")
    if k_au == 0.0:
        return 0.0
    return (solver or default_solver()).sin2_average(state, k_au, m_l)
