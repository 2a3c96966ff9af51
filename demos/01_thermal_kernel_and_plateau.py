"""
The universal thermal kernel and the free-electron plateau
==========================================================

Every blackbody-induced level shift in this package reduces to sums of a
single dimensionless kernel F(y), where y is a transition frequency in
units of the thermal frequency kT/hbar.  This script walks its landmarks:
the linear small-y regime, the minimum, the sign change, the slow 1/y
tail, and the plateau value the kernel produces for a free electron.
"""

import numpy as np

from rydtherm.bbr import (
    farley_wing,
    farley_wing_fast,
    farley_wing_zero,
    free_electron_sensitivity,
    free_electron_shift,
)

# %%
# Landmarks of the kernel
# -----------------------
# Small y (transition far below the thermal peak): F(y) -> -(pi^2/3) y,
# the quasi-static regime.  Large y (transition far above it): F decays
# like 1/y, the static-polarizability regime.  In between F dips to a
# minimum near y = 1.1 and crosses zero near y = 2.6.

print("small-y slope  F(y)/y at y = 1e-3 :", f"{farley_wing(1e-3) / 1e-3:+.6f}")
print("exact quasi-static slope  -pi^2/3 :", f"{-np.pi**2 / 3:+.6f}")

ys = np.geomspace(0.02, 40.0, 2000)
fs = np.array([farley_wing_fast(y) for y in ys])
i_min = int(np.argmin(fs))
print(f"minimum: F({ys[i_min]:.3f}) = {fs[i_min]:+.5f}")
print(f"zero crossing at y = {farley_wing_zero():.4f}")
print(f"tail: y * F(y) at y = 200 -> {200 * farley_wing_fast(200.0):+.5f}"
      f"  (2 pi^4/15 = {2 * np.pi**4 / 15:+.5f})")

# %%
# Two independent evaluation routes
# ---------------------------------
# ``farley_wing`` does pole-excised adaptive quadrature on the defining
# principal-value integral; ``farley_wing_fast`` is the production route
# (small-y limit + committed Chebyshev table + asymptotic tail).  They are
# kept separate so each can audit the other.

worst = max(abs(farley_wing(y) - farley_wing_fast(y)) for y in ys[::100])
print(f"\nroute disagreement over {len(ys[::100])} samples: {worst:.2e}")

# %%
# The free-electron plateau
# -------------------------
# A loosely bound electron, with all its oscillator strength at zero
# frequency, feels the quasi-static slope only.  Its shift has a closed
# form growing as T^2 -- the plateau every high Rydberg state approaches.

print("\n   T [K]   shift [Hz]   sensitivity [Hz/K]")
for t in (77.0, 195.0, 300.0, 400.0):
    print(f"  {t:6.0f}   {free_electron_shift(t):10.1f}"
          f"   {free_electron_sensitivity(t):12.2f}")
