"""
Magic lattices for metastable-to-Rydberg transitions
====================================================

An optical lattice that traps the metastable clock state also shakes a
Rydberg electron, whose response is essentially that of a free electron
-- but averaged over an orbit comparable to the lattice period.  At the
magic wavelength the two light shifts cancel.  This script reproduces
the magic-wavelength table for ytterbium, the strontium band, and shows
why the finite orbit size (the beyond-dipole effect) matters.
"""

from rydtherm import constants as kconst
from rydtherm.lattice import (
    pick_magic_root,
    solve_magic_wavelength,
    transition_wavelength,
    trap_depth,
)
from rydtherm.radial import sin2_matrix_element
from rydtherm.species import load_species

yb = load_species("Yb")
sr = load_species("Sr")

# %%
# The ytterbium table
# -------------------
# For each Rydberg n: the magic lattice wavelength, the common light
# shift per intensity at that wavelength, the trap depth at a reference
# intensity, and the two-photon drive wavelength for the transition.

print("  n    lambda_m [nm]   slope [kHz/(kW/cm^2)]   depth @10 kW/cm^2 [kHz]"
      "   drive lambda_i [nm]")
for n in (15, 20, 25, 30, 35, 40):
    st = yb.state(n, "3P0")
    root = pick_magic_root(solve_magic_wavelength(yb, st))
    print(f" {n:3d}   {root.wavelength_nm:10.1f}   {root.alpha_khz_per_kw_cm2:15.1f}"
          f"   {trap_depth(root, 10.0) / 1e3:18.0f}"
          f"   {transition_wavelength(st):14.1f}")

# %%
# The strontium band
# ------------------
# Strontium's metastable state is magic against its Rydberg d states in
# a narrow infrared band.

lam15 = pick_magic_root(solve_magic_wavelength(sr, sr.state(15, "3D1")))
lam40 = pick_magic_root(solve_magic_wavelength(sr, sr.state(40, "3D1")))
print(f"\nSr 3D1 magic band: {lam40.wavelength_nm:.1f} nm (n=40)"
      f" .. {lam15.wavelength_nm:.1f} nm (n=15)")

# %%
# Why the dipole approximation fails
# ----------------------------------
# A Rydberg orbit at n = 40 is a good fraction of a micron across, and
# the electron samples the lattice's intensity curvature.  Dropping the
# orbit average (pure dipole response) moves the magic root by tens of
# nanometers.

st40 = yb.state(40, "3P0")
full = pick_magic_root(solve_magic_wavelength(yb, st40))
dipole = pick_magic_root(solve_magic_wavelength(yb, st40, include_orbit_average=False))
print(f"\nn = 40 magic wavelength, full model   : {full.wavelength_nm:.1f} nm")
print(f"n = 40 magic wavelength, dipole only  : {dipole.wavelength_nm:.1f} nm")
print(f"beyond-dipole displacement            : "
      f"{dipole.wavelength_nm - full.wavelength_nm:+.1f} nm")

# %%
# The orbit-average matrix element itself
# ---------------------------------------
# <sin^2(k x)> interpolates between 0 (orbit small next to the lattice
# period: the atom sits at a node) and 1/2 (orbit huge: the electron
# sees the spatial average of the lattice).

st25 = sr.state(25, "3D1")
for spacing_um in (4.0, 1.0, 0.3):
    k = 3.141592653589793 / (spacing_um * 1e-6 / kconst.BOHR_M)
    print(f"<sin^2> at n=25, spacing {spacing_um:4.1f} um :"
          f" {sin2_matrix_element(st25, k):.4e}")
print(f"deep-modulation limit (k = 0.2 au)    : "
      f"{sin2_matrix_element(st25, 0.2):.4f}")
