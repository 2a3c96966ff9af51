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
recurrence is one banded triangular solve (LAPACK ``dtbtrs``) whose rows
are divided by their pivots first, so the serial back substitution runs
on a unit diagonal with no division; the weights x^k of every overlap
sum are slices of one mesh stored on the solver.  So are the
state-independent terms of kfun, -3/(4 x^2) + 8 mu per reduced-mass
factor and 4 l(l+1)/x^2 per l: a solve adds them to its own 8 mu E x^2
in place, the same IEEE operations as the formula above.  The norm is
one pairwise sum of (v x)^2, less half its end terms, in the buffer kfun
held.  The stored v is allocated after the solve's temporaries are
released, so it reuses their heap space (normalised in place instead, it
raised a cold scan's peak RSS by ~3 MB).  ``dtbtrs`` is taken from
scipy's Fortran LAPACK extension, loaded by itself: importing the
``scipy.linalg`` package around it would double the start-up of
``import rydtherm`` (see _load_flapack).

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

A solution depends on the state only through its radial key (l, n*, the
reduced-mass factor, and whether the series has no defect), so a solver
builds solutions and radial moments once per radial key: series with
equal defects, such as Sr 3F2/3F3/3F4, share one solution per n.

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
  by callers via sum-rule completion instead;
* a mesh step with h sqrt(8 mu) > 0.3 rad of Numerov phase per step (fewer
  than 20 nodes per local oscillation) raises RadialUnsolvableError.
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

from .species import RydbergState, _binding_au
from .wigner import legendre_moment

DEFAULT_MESH_STEP = 0.01


def _load_flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, without importing
    the ``scipy.linalg`` package (on a 2-vCPU host, ~0.2 s of the 0.44 s
    ``import rydtherm`` took with it, and ~19 MB of resident memory, none
    of it LAPACK).

    The extension is loaded by the ``module_from_spec``/``exec_module``
    recipe.  It registers itself in ``sys.modules`` as it loads, and that
    entry is removed again: a later ``import scipy.linalg`` then loads its
    own module object of the extension, whose functions are the same
    objects as this module's (one ``dtbtrs``), and sets the package's
    ``_flapack`` attribute, which a ``sys.modules`` hit would leave unset.
    Where scipy's files do not hold the extension (an editable install
    keeps it in a build directory) the ordinary import gives the module.
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
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


lapack = _load_flapack()


def _radial_key(state: RydbergState) -> tuple:
    """Everything a solution depends on besides the mesh step: (l, n*, the
    reduced-mass factor, whether the series has no defect at all).  Series
    with equal defects give equal keys (Sr 3F2/3F3/3F4, Yb 1F3/3F2/3F3/3F4);
    n* is exact, so a defect that differs in its last digit does not."""
    sd = state.defect
    return (
        sd.L,
        state.n_eff,
        state.species.reduced_mass_factor,
        sd.mu0 == 0.0 and sd.mu2 == 0.0 and sd.mu4 == 0.0,
    )


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
    """Solve v'' = -kf v inward, seeded with a tiny value at the outer end;
    ``kf`` is overwritten with c = 1 + h^2 kf / 12.

    The inward recurrence c[j-1] v[j-1] = (12 - 10 c[j]) v[j] - c[j+1] v[j+1],
    with v[n-1] = 0 and v[n-2] = 1e-12, is one upper triangular system of
    bandwidth 2 in v[0..n-2].  Row j is divided by its pivot c[j] up front,
    in one vectorised pass, so the back substitution in LAPACK (``dtbtrs``
    with a unit diagonal) has no division on its serial chain.  It differs
    from a sequential loop over the recurrence only by rounding.  Raises
    RadialUnsolvableError when some pivot c[j] is exactly zero.
    """
    n = kf.shape[0]
    c = kf
    c *= h * h / 12.0
    c += 1.0
    if not c[: n - 2].all():
        j = int(np.flatnonzero(c[: n - 2] == 0.0)[0])
        raise RadialUnsolvableError(
            f"Numerov pivot 1 + h^2 kf/12 is zero at mesh index {j}"
        )
    # the band in LAPACK's upper storage, ab[2 + i - j, j] = A[i, j], rows
    # scaled to a unit diagonal that dtbtrs does not read (nor the corner
    # ab[0, :2], ab[1, 0] outside the matrix): the transpose of a C-order
    # buffer is F-contiguous, so f2py copies nothing
    ab = np.empty((n - 1, 3)).T
    np.divide(c[2 : n - 1], c[: n - 3], out=ab[0, 2:])
    row = c[1 : n - 1] * 10.0  # contiguous, then one strided copy
    row -= 12.0
    row /= c[: n - 2]
    ab[1, 1:] = row
    v = np.zeros(n)
    v[-2] = 1e-12
    # the right-hand side is v[:-1] itself, overwritten with the solution
    lapack.dtbtrs(ab, v[:-1, None], uplo="U", diag="U", overwrite_b=1)
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
    """The aligned mesh x_j = j*h for j < len(x), and the powers x^k and
    potential terms asked for so far.  Its x never changes: a longer mesh
    replaces it on the solver, so a caller slices the one mesh it read."""

    def __init__(self, h: float, size: int):
        self.x = h * np.arange(size)
        self._powers: dict[int, np.ndarray] = {}
        self._terms: dict[tuple, np.ndarray] = {}

    def power(self, k: int) -> np.ndarray:
        w = self._powers.get(k)
        if w is None:
            w = self._powers.setdefault(k, self.x**k)
        return w

    def potential_terms(self, mu: float, l: int) -> tuple[np.ndarray, np.ndarray]:
        """The state-independent terms of the Numerov coefficient,
        -3/(4 x^2) + 8 mu and 4 l(l+1)/x^2, on x_1, x_2, ... (x_0 = 0 would
        divide by zero), so element j - 1 belongs to x_j."""
        return (
            self._term(("mu", mu), lambda x2: -3.0 / (4.0 * x2) + 8.0 * mu),
            self._term(("l", l), lambda x2: 4.0 * l * (l + 1) / x2),
        )

    def _term(self, key: tuple, make) -> np.ndarray:
        w = self._terms.get(key)
        if w is None:
            w = self._terms.setdefault(key, make(self.power(2)[1:]))
        return w


class RadialSolver:
    """Solves radial wavefunctions and matrix elements on one mesh of step
    ``h``; caches what is built on it: solutions and radial moments, one
    per radial key (``_radial_key``: what a solve reads) and read per
    state, transition tables and downward channels, and the parts of the
    thermometry models that do not depend on T (the joined channel
    columns of ``bbr_shift_fsums``, the shift and slope at the top of
    ``invert_temperature``'s range with its inverse proxy of the shift,
    ``static_polarizability`` results).
    Other keys hold the states' content keys (file sha256, n, series), so
    tables stay per state (their angular factors depend on J), and any
    span in them is one that ``transitions.check_span`` admitted; a build
    that raises stores nothing.

    Every function of the package works on the shared ``default_solver()``
    unless it takes a ``solver=`` and is given one: a fresh solver starts
    from empty caches (a cold benchmark round), and another ``h`` is for
    mesh-convergence checks.
    """

    def __init__(self, h: float = DEFAULT_MESH_STEP):
        if not 0.0 < h < math.inf:
            raise ValueError(f"mesh step h must be finite and > 0, got {h!r}")
        self.h = h
        self._cache: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._mesh = _Mesh(h, 0)

    def cached(self, key: tuple, build):
        """The value under ``key``; on a miss ``build()`` runs outside the
        lock, and the first value stored is the one every caller gets."""
        hit = self._cache.get(key)  # one dict read: atomic without the lock
        if hit is None:
            hit = build()
            with self._lock:
                hit = self._cache.setdefault(key, hit)
        return hit

    def _mesh_through(self, j1: int) -> _Mesh:
        """A stored mesh that reaches x_j1; a longer one replaces the stored
        mesh when needed.  Callers slice only the mesh returned here, or
        the stored mesh within a solution of this solver, whose build
        called this method."""
        mesh = self._mesh
        if mesh.x.shape[0] <= j1:
            with self._lock:
                mesh = self._mesh
                if mesh.x.shape[0] <= j1:
                    mesh = _Mesh(self.h, max(j1 + 1, 2 * mesh.x.shape[0]))
                    self._mesh = mesh
        return mesh

    # -- wavefunctions -----------------------------------------------------

    def _by_radial_key(self, kind: str, state: RydbergState, build):
        """The state's ``kind`` value, read under the state's key; on a miss
        the one stored under its radial key (``_radial_key``), built by
        ``build(state, radial_key)`` if there is none, and then stored under
        the state's key too.  The radial key is formed only on a miss: a
        cold round reads ~13 solutions per build."""
        key = (kind, state._key)
        hit = self._cache.get(key)
        if hit is None:
            radial_key = _radial_key(state)
            hit = self.cached(
                (kind, "radial") + radial_key, lambda: build(state, radial_key)
            )
            with self._lock:
                hit = self._cache.setdefault(key, hit)
        return hit

    def solve(self, state: RydbergState) -> RadialSolution:
        """The state's solution, one object per radial key."""
        hit = self._cache.get(("solution", state._key))  # a pair reads two
        if hit is None:
            hit = self._by_radial_key("solution", state, self._solve)
        return hit

    def _solve(self, state: RydbergState, radial_key: tuple) -> RadialSolution:
        """The solution of ``radial_key``, which is all it reads; ``state``
        only names the state that asked in an error."""
        l, nst, mu, zero_defect = radial_key
        if nst <= l + 0.15:
            raise RadialUnsolvableError(
                f"{state}: n_eff = {nst:.3f} too close to/below l = {l}; "
                "no Coulomb-approximation solution"
            )
        energy = -_binding_au(mu, nst)  # hartree, negative

        if zero_defect:
            r_min = 0.001 * (l + 1) ** 2
        else:
            r_min = 0.05 * l * (l + 1) + 1.0
        r_max = 2.0 * nst * (nst + 15.0)

        h = self.h
        j_in = max(1, math.ceil(math.sqrt(r_min) / h))
        j_out = math.floor(math.sqrt(r_max) / h)
        if j_out - j_in < 2:  # Numerov needs three nodes
            raise RadialUnsolvableError(
                f"{state}: mesh step h = {h:g} leaves {max(0, j_out - j_in + 1)} "
                "nodes between the inner and outer edges; Numerov needs 3"
            )
        # every term of kfun but 8 mu is negative for a bound state, so
        # h sqrt(8 mu) bounds the phase per step; 0.3 rad is >= 20 nodes
        # per local oscillation
        phase = h * math.sqrt(8.0 * mu)
        if phase > 0.3:
            raise RadialUnsolvableError(
                f"{state}: mesh step h = {h:g} advances the Numerov phase by up "
                f"to {phase:.3g} rad per step; the limit is 0.3"
            )
        mesh = self._mesh_through(j_out)
        x2 = mesh.power(2)[j_in : j_out + 1]
        mu_term, l_term = mesh.potential_terms(mu, l)
        # kfun in one buffer, the same IEEE operations as the formula of the
        # module docstring evaluated left to right (the sum commutes)
        kf = x2 * (8.0 * mu * energy)
        kf += mu_term[j_in - 1 : j_out]
        kf -= l_term[j_in - 1 : j_out]
        v = _numerov_inward(kf, h)
        # trapz(v^2 x^2) with unit step: one pairwise sum of (v x)^2 in the
        # freed kf buffer, less half the end terms.  No BLAS call: in a
        # process that does not pin BLAS, np.dot over more than 10,000
        # elements starts a second OpenBLAS thread
        y = np.multiply(v, mesh.x[j_in : j_out + 1], out=kf)
        y *= y
        ends = y.item(0) + y.item(-1)
        norm_sq = 2.0 * h * (float(np.add.reduce(y)) - 0.5 * ends)
        # the stored v is allocated after the temporaries are released: it
        # then reuses their heap space instead of growing the heap
        del kf, y
        v = v / math.sqrt(norm_sq)
        return RadialSolution(j_in=j_in, j_out=j_out, v=v)

    # -- matrix elements ---------------------------------------------------

    def radial_integral(self, a: RydbergState, b: RydbergState) -> float:
        """<a| r |b> over the common mesh (u_a u_b r dr): 2h trapz(v_a v_b x^4)
        over the common nodes j0..j1, symmetric in (a, b) bit for bit."""
        sa, sb = self.solve(a), self.solve(b)
        ja, jb = sa.j_in, sb.j_in
        j0 = ja if ja > jb else jb
        j1 = sa.j_out if sa.j_out < sb.j_out else sb.j_out
        f = sa.v[j0 - ja : j1 - ja + 1] * sb.v[j0 - jb : j1 - jb + 1]
        # the stored mesh reaches both solutions' nodes (see _mesh_through)
        w = self._mesh.power(4)[j0 : j1 + 1]
        ends = f.item(0) * w.item(0) + f.item(-1) * w.item(-1)
        return 2.0 * self.h * (float(f.dot(w)) - 0.5 * ends)

    def _moments(self, state: RydbergState) -> tuple[float, tuple[float, ...]]:
        """(r_top, m) of the state, one per radial key: r_top is r at j_out,
        and m_k = sum' v_j^2 r_j (r_j / r_top)^k (trapezoid, end terms
        halved) for k = 0..K, as far as the series of orders 0..2L need at
        z = _MOMENT_Z.  Every power is <= 1, so none overflows."""
        return self._by_radial_key("moments", state, self._build_moments)

    def _build_moments(
        self, state: RydbergState, radial_key: tuple
    ) -> tuple[float, tuple[float, ...]]:
        sol = self.solve(state)
        r = self._mesh_through(sol.j_out).power(2)[sol.j_in : sol.j_out + 1]
        r_top = float(r[-1])
        rho = r / r_top
        p = sol.v * sol.v * r
        p[0] *= 0.5
        p[-1] *= 0.5
        top = max(
            order + 2 * len(_series_coefs(order, _MOMENT_Z)) - 2
            for order in range(2 * radial_key[0] + 1)
        )
        m = []
        for _ in range(top + 1):
            m.append(float(np.sum(p)))
            p *= rho
        return r_top, tuple(m)

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
        """<j_order(q r)> as one overlap sum, 2h trapz(v^2 x^2 j_order(q x^2))."""
        sol = self.solve(state)
        x2 = self._mesh_through(sol.j_out).power(2)[sol.j_in : sol.j_out + 1]
        f = sol.v * sol.v
        w = x2 * _bessel_j(order, q_au * x2)
        ends = f.item(0) * w.item(0) + f.item(-1) * w.item(-1)
        return 2.0 * self.h * (float(np.dot(f, w)) - 0.5 * ends)

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
