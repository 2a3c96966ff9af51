"""One-electron radial wavefunctions for quantum-defect states.

Numerov integration of the radial equation on the square-root mesh
x = sqrt(r) (u(r) = v(x) * x^(1/2)), which puts roughly constant points per
oscillation across the whole orbit.  With the reduced-mass factor mu the
transformed equation is

    v''(x) = -kfun(x) v(x),
    kfun(x) = -3/(4 x^2) + 8 mu + 8 mu E x^2 - 4 l(l+1)/x^2,

solved inward from the outer classical region on a *global aligned* grid
x_j = j*h, so any two states share mesh nodes and matrix elements are
plain overlap sums:  integral u_a u_b r^p dr = 2h * trapz(v_a v_b x^(2p+2)).
The trapezoid rule is spectrally accurate here because the integrand's
derivatives vanish at both ends of the domain.  The inward Numerov
recurrence is one banded triangular solve (LAPACK ``dtbtrs``), and the
weights x^k of every overlap sum are slices of one mesh stored on the
solver.  ``dtbtrs`` is taken from scipy's Fortran LAPACK extension, loaded
by itself: importing the ``scipy.linalg`` package around it would double
the start-up of ``import rydtherm`` (see _load_flapack).

Lattice orbit averages <j_L(q r)> weight the same overlap sum with the
spherical Bessel function of the ascending mesh argument z = q x^2,
evaluated by one numpy kernel in two regions split by a binary search:
below max(1, L) a Horner-form power series (where the closed forms lose
digits to cancellation), above it upward recurrence from
j0 = sin z / z and j1 = (j0 - cos z) / z (where the series would).
When the whole orbit lies in a moment region, Z = q r_top <= _MOMENT_Z
with r_top the state's outermost node, the series is summed over radial
moments instead of over the mesh:

    <j_L(q r)> = 2h Z^L sum_i c_i (-Z^2/2)^i m_(L+2i),
    m_k = sum' v_j^2 r_j (r_j / r_top)^k,

the same terms in another order.  The moments do not depend on q, so each
state builds them once (as many as orders 0..2L need) and every average
after that is a few dozen float operations.  Above _MOMENT_Z the mesh
kernel runs as described; the Sr and Yb magic lattices stay below it.

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

import functools
import math
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from .species import RydbergState
from .wigner import legendre_moment

DEFAULT_MESH_STEP = 0.01

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _load_flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, without importing
    the ``scipy.linalg`` package (on a 2-vCPU host, ~0.2 s of the 0.44 s
    ``import rydtherm`` took with it, and ~19 MB of resident memory, none
    of it LAPACK).

    The extension is loaded by the ``module_from_spec``/``exec_module``
    recipe and registered under its own name first, so a later
    ``import scipy.linalg`` reuses this module and ``scipy.linalg.lapack``
    re-exports the same ``dtbtrs`` (the package then has no ``_flapack``
    attribute; scipy reads it only by ``from`` imports).  Where scipy's
    files do not hold the extension (an editable install keeps it in a
    build directory) the ordinary import gives the same module.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        from scipy.linalg import _flapack

        return _flapack
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()


class RadialUnsolvableError(ValueError):
    """State has no usable Coulomb-approximation radial solution."""


@dataclass(frozen=True)
class RadialSolution:
    """Normalized v(x) on the aligned mesh x_j = j*h, j_in <= j <= j_out, with
    h the step of the solver that made it."""

    j_in: int
    j_out: int
    v: np.ndarray  # length j_out - j_in + 1


def _numerov_inward(kf: np.ndarray, h: float) -> np.ndarray:
    """Solve v'' = -kf v inward, seeded with a tiny value at the outer end.

    The inward recurrence c[j-1] v[j-1] = (12 - 10 c[j]) v[j] - c[j+1] v[j+1],
    c = 1 + h^2 kf / 12, with v[n-1] = 0 and v[n-2] = 1e-12, is one upper
    triangular system of bandwidth 2 in v[0..n-2], solved by back
    substitution in LAPACK.  It differs from a sequential loop over the
    recurrence only by the rounding of fused multiply-adds.  Raises
    RadialUnsolvableError when some pivot c[j] is exactly zero.
    """
    n = kf.shape[0]
    c = 1.0 + (h * h / 12.0) * kf
    ab = np.zeros((3, n - 1), order="F")
    ab[0, 2:] = c[2 : n - 1]
    ab[1, 1:] = 10.0 * c[1 : n - 1] - 12.0
    ab[2, :-1] = c[: n - 2]
    ab[2, -1] = 1.0
    b = np.zeros((n - 1, 1))
    b[-1, 0] = 1e-12
    x, info = lapack.dtbtrs(ab, b, uplo="U")
    if info > 0:
        raise RadialUnsolvableError(
            f"Numerov pivot 1 + h^2 kf/12 is zero at mesh index {info - 1}"
        )
    v = np.zeros(n)
    v[:-1] = x[:, 0]
    return v


# Below Z = q r_top = _MOMENT_Z an orbit average sums the power series over
# the state's cached radial moments instead of over the mesh
_MOMENT_Z = 4.0


@functools.lru_cache(maxsize=None)
def _series_coefs(order: int, z: float) -> tuple[float, ...]:
    """c_i = 1 / (i! (2i + 2L + 1)!!) of j_L(z) = z^L sum_i c_i (-z^2/2)^i,
    through the first term below 1e-17 at ``z``."""
    coefs = []
    den = math.prod(range(1, 2 * order + 2, 2))  # (2L + 1)!!
    i = 0
    while True:
        c = 1 / den
        coefs.append(c)
        if z**order * (0.5 * z * z) ** i * c < 1e-17:
            return tuple(coefs)
        i += 1
        den *= i * (2 * i + 2 * order + 1)


def _bessel_j(order: int, z: np.ndarray) -> np.ndarray:
    """Spherical Bessel function j_order(z) for ascending z >= 0.

    Below z = max(1, order): the power series in Horner form; from there
    on: upward recurrence j_{k+1} = (2k+1)/z j_k - j_{k-1} from the closed
    forms of j0 and j1, stable for z >= order.
    """
    split = int(np.searchsorted(z, max(1.0, order)))
    out = np.empty_like(z)
    if split:
        lo = z[:split]
        t = -0.5 * lo * lo
        coefs = _series_coefs(order, float(max(1, order)))
        acc = np.full_like(lo, coefs[-1])
        for c in coefs[-2::-1]:
            acc *= t
            acc += c
        if order:
            acc *= lo**order
        out[:split] = acc
    if split < z.shape[0]:
        hi = z[split:]
        j_prev = np.sin(hi) / hi
        if order == 0:
            out[split:] = j_prev
        else:
            j = (j_prev - np.cos(hi)) / hi
            for k in range(1, order):
                j_prev, j = j, (2 * k + 1) / hi * j - j_prev
            out[split:] = j
    return out


def _moment_series(order: int, z: float, m: tuple[float, ...]) -> float:
    """z^L sum_i c_i (-z^2/2)^i m_(L+2i): the series of ``_bessel_j`` summed
    over moments m_k = sum_j w_j rho_j^k, for z = q r_top and rho = r / r_top
    (so it is sum_j w_j j_L(q r_j)), with the terms needed at _MOMENT_Z."""
    coefs = _series_coefs(order, _MOMENT_Z)
    t = -0.5 * z * z
    acc = 0.0
    for i in range(len(coefs) - 1, -1, -1):
        acc = acc * t + coefs[i] * m[order + 2 * i]
    return z**order * acc


class _Mesh:
    """The aligned mesh x_j = j*h for j < len(x), and the powers x^k asked
    for so far.  Its x never changes: a longer mesh replaces it on the
    solver, so a caller slices the one mesh it read."""

    def __init__(self, h: float, size: int):
        self.x = h * np.arange(size)
        self._powers: dict[int, np.ndarray] = {}

    def power(self, k: int) -> np.ndarray:
        w = self._powers.get(k)
        if w is None:
            w = self._powers.setdefault(k, self.x**k)
        return w


class RadialSolver:
    """Solves radial wavefunctions and matrix elements on one mesh of step
    ``h``; caches what is built on it (solutions, transition tables,
    downward channels).

    Every function of the package works on the shared ``default_solver()``
    unless it takes a ``solver=`` and is given one: a fresh solver starts
    from empty caches (a cold benchmark round), and another ``h`` is for
    mesh-convergence checks.
    """

    def __init__(self, h: float = DEFAULT_MESH_STEP):
        self.h = h
        self._cache: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._mesh = _Mesh(h, 0)

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

    def _mesh_through(self, j1: int) -> _Mesh:
        """A stored mesh that reaches x_j1; a longer one replaces the stored
        mesh when needed.  Callers slice only the mesh returned here."""
        mesh = self._mesh
        if mesh.x.shape[0] <= j1:
            with self._lock:
                mesh = self._mesh
                if mesh.x.shape[0] <= j1:
                    mesh = _Mesh(self.h, max(j1 + 1, 2 * mesh.x.shape[0]))
                    self._mesh = mesh
        return mesh

    # -- wavefunctions -----------------------------------------------------

    def solve(self, state: RydbergState) -> RadialSolution:
        return self.cached(("solution", state._key), lambda: self._solve(state))

    def _solve(self, state: RydbergState) -> RadialSolution:
        sd = state.defect
        l = sd.L
        nst = state.n_eff
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
        mesh = self._mesh_through(j_out)
        x2 = mesh.power(2)[j_in : j_out + 1]
        kf = (
            -3.0 / (4.0 * x2)
            + 8.0 * mu
            + 8.0 * mu * energy * x2
            - 4.0 * l * (l + 1) / x2
        )
        v = _numerov_inward(kf, h)
        norm_sq = 2.0 * h * float(_trapz(v * v * x2))
        v = v / math.sqrt(norm_sq)
        return RadialSolution(j_in=j_in, j_out=j_out, v=v)

    # -- matrix elements ---------------------------------------------------

    def _pair_integral(self, a: RydbergState, b: RydbergState, weight) -> float:
        """2h * trapz(v_a v_b w) over the common nodes j0..j1, with
        w = weight(mesh, slice(j0, j1 + 1)); symmetric in (a, b) bit for bit."""
        sa, sb = self.solve(a), self.solve(b)
        j0 = max(sa.j_in, sb.j_in)
        j1 = min(sa.j_out, sb.j_out)
        va = sa.v[j0 - sa.j_in : j1 - sa.j_in + 1]
        vb = sb.v[j0 - sb.j_in : j1 - sb.j_in + 1]
        w = weight(self._mesh_through(j1), slice(j0, j1 + 1))
        f = va * vb
        ends = f[0] * w[0] + f[-1] * w[-1]
        return 2.0 * self.h * (float(np.dot(f, w)) - 0.5 * float(ends))

    def radial_integral(self, a: RydbergState, b: RydbergState) -> float:
        """<a| r |b> over the common mesh (u_a u_b r dr)."""
        return self._pair_integral(a, b, lambda mesh, nodes: mesh.power(4)[nodes])

    def _moments(self, state: RydbergState) -> tuple[float, tuple[float, ...]]:
        """(r_top, m) of the state: r_top is r at j_out, and
        m_k = sum' v_j^2 r_j (r_j / r_top)^k (trapezoid, end terms halved)
        for k = 0..K, as far as the series of orders 0..2L need at
        z = _MOMENT_Z.  Every power is <= 1, so none overflows."""

        def build() -> tuple[float, tuple[float, ...]]:
            sol = self.solve(state)
            r = self._mesh_through(sol.j_out).power(2)[sol.j_in : sol.j_out + 1]
            r_top = float(r[-1])
            rho = r / r_top
            p = sol.v * sol.v * r
            p[0] *= 0.5
            p[-1] *= 0.5
            top = max(
                order + 2 * len(_series_coefs(order, _MOMENT_Z)) - 2
                for order in range(2 * state.L + 1)
            )
            m = []
            for _ in range(top + 1):
                m.append(float(np.sum(p)))
                p *= rho
            return r_top, tuple(m)

        return self.cached(("moments", state._key), build)

    def _bessel_pair(self, state: RydbergState, order: int, q_au: float) -> float:
        if order < 0 or not 0.0 <= q_au < math.inf:
            raise ValueError(
                f"need order >= 0 and a finite q >= 0, got {order} and {q_au}"
            )
        r_top, m = self._moments(state)
        z = q_au * r_top
        if z <= _MOMENT_Z and order <= 2 * state.L:
            return 2.0 * self.h * _moment_series(order, z, m)
        return self._mesh_average(state, order, q_au)

    def _mesh_average(self, state: RydbergState, order: int, q_au: float) -> float:
        """<j_order(q r)> as one overlap sum weighted by ``_bessel_j``."""

        def weight(mesh: _Mesh, nodes: slice) -> np.ndarray:
            x2 = mesh.power(2)[nodes]
            return x2 * _bessel_j(order, q_au * x2)

        return self._pair_integral(state, state, weight)

    def j0_average(self, state: RydbergState, q_au: float) -> float:
        """<j0(q r)> over the state's radial density."""
        return self._bessel_pair(state, 0, q_au)

    def bessel_average(
        self, state: RydbergState, order: int, q_au: float
    ) -> float:
        """<j_order(q r)> over the state's radial density."""
        return self._bessel_pair(state, order, q_au)


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


def sin2_matrix_element(
    state: RydbergState, k_au: float, m_l: int | None = 0
) -> float:
    """<sin^2(k x_e)> of the electron about the core at a field node, for a
    lattice of wavenumber k (atomic units); in [0, 1].  The orbit averages
    come from ``default_solver()``.

    The lattice axis is the quantization axis.  ``m_l`` selects the orbital
    alignment relative to it: the default 0 matches the published
    position-independent lattice term for nd Rydberg states.  For
    ``m_l = None`` (or any s state) the density is treated as isotropic and
    the average is exactly (1 - <j0(2 k r)>)/2.  For an integer ``m_l`` the
    |Y_lm|^2 anisotropy is kept: <cos 2kz> expands over even-order
    spherical Bessel moments weighted by the density's Legendre moments.
    """
    if k_au < 0:
        raise ValueError(f"wavenumber must be >= 0, got {k_au}")
    if k_au == 0.0:
        return 0.0
    solver = default_solver()
    l = state.L
    if m_l is None or l == 0:
        return 0.5 * (1.0 - solver.j0_average(state, 2.0 * k_au))
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
            * solver.bessel_average(state, order, 2.0 * k_au)
        )
    return 0.5 * (1.0 - cos_avg)
