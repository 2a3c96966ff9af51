"""
Rydberg blackbody thermometry, end to end
=========================================

Because high Rydberg states all ride the same free-electron plateau, a
metastable-to-Rydberg transition frequency is a thermometer: its offset
from the T = 0 value measures the blackbody environment at the atom,
with a sensitivity of order 16 Hz/K.  This script synthesizes
measurements, inverts them for temperature, separates a stray electric
field, and runs the full accuracy budget down to the clock.
"""

from rydtherm.bbr import bbr_shift_sum, free_electron_sensitivity
from rydtherm.polarizability import static_polarizability
from rydtherm.species import load_species
from rydtherm.thermometry import (
    ThermometryMeasurement,
    error_budget,
    invert_temperature,
    joint_solve_temperature_field,
    measurement_budget,
    transition_bbr_shift,
    vdw_shift_estimate,
)

sr = load_species("Sr")
st25 = sr.state(25, "3D1")
st30 = sr.state(30, "3D1")

# %%
# Sensitivity
# -----------
# The transition sensitivity is essentially the free-electron 16 Hz/K;
# the small correction is the Rydberg state's residual structure plus
# the metastable state's own thermal response.

_, sens = transition_bbr_shift(sr, st30, 300.0, derivative=True)
print(f"3P0 -> 30 3D1 sensitivity at 300 K: {sens:.2f} Hz/K")
for st in (st30, sr.metastable_state()):
    print(f"  {st} alone: {bbr_shift_sum(st, 300.0).slope_hz_per_k:+.4f} Hz/K")
print(f"  free electron: {free_electron_sensitivity(300.0):+.4f} Hz/K")

# %%
# Synthesize, then invert
# -----------------------
# Forward-model a measured offset at a known temperature, add nothing,
# and ask the inverter for the temperature back.  The safeguarded Newton
# solve lands within a millikelvin across the cryostat-to-oven range.

print("\n  true T [K]   recovered [K]   sigma [mK]")
for true_t in (77.0, 150.0, 300.0, 400.0):
    offset = transition_bbr_shift(sr, st30, true_t)
    sol = invert_temperature(ThermometryMeasurement(st30, offset, 0.16))
    print(f"  {true_t:9.1f}   {sol.temperature_k:12.6f}"
          f"   {sol.sigma_temperature_k * 1e3:9.2f}")

# %%
# Separating a stray electric field
# ---------------------------------
# A DC field shifts each Rydberg state by -(1/2) alpha E^2 with a
# strongly n-dependent alpha, while the thermal shift is nearly
# n-independent.  Two transitions at different n therefore disentangle
# (T, E) in one weighted least-squares solve.

T_TRUE, E_TRUE = 300.0, 5.0
meas = []
for st in (st25, st30):
    offset = transition_bbr_shift(sr, st, T_TRUE)
    offset -= 0.5 * static_polarizability(st).value_hz_m2_v2 * E_TRUE**2
    meas.append(ThermometryMeasurement(st, offset, 0.16))
joint = joint_solve_temperature_field(meas)
print(f"\njoint solve: T = {joint.temperature_k:.4f} K"
      f" +/- {joint.sigma_temperature_k * 1e3:.1f} mK,"
      f"  E = {joint.field_v_per_m:.4f} V/m"
      f" +/- {joint.sigma_field_v_per_m:.4f} V/m")

# %%
# The accuracy chain
# ------------------
# Work backwards from a target fractional accuracy on the transition:
# what line split does it demand, what temperature uncertainty does it
# deliver, and what does that temperature buy the clock's blackbody
# correction?  ``leverage`` is the ratio of the thermometer's fractional
# temperature signal to the clock's -- the whole point of the scheme.

eb = error_budget(st30, 1.7e-16, 300.0, linewidth_hz=3500.0)
print(f"\ntransition            : {eb.transition_id}")
print(f"frequency             : {eb.transition_frequency_hz:.4e} Hz")
print(f"target resolution     : {eb.target_resolution_hz:.3f} Hz"
      f"  ({eb.fractional_accuracy:.1e} fractional)")
print(f"line split required   : {eb.line_split_factor:.1e} of the"
      f" {eb.total_linewidth_hz:.0f} Hz line")
print(f"temperature sigma     : {eb.temperature_sigma_k * 1e3:.2f} mK")
print(f"clock BBR uncertainty : {eb.clock_fractional_uncertainty:.2e}")
print(f"leverage              : {eb.leverage:.0f}")

# %%
# How many shots?
# ---------------
# Projection-noise statistics for reaching the target resolution on a
# line of the given width, and the van der Waals crosstalk bound for a
# tweezer-array implementation.

shots = measurement_budget(1.0e4, 3500.0, 0.16)
print(f"\ncycles to 0.16 Hz with 1e4 atoms on a 3.5 kHz line: {shots}")
print(f"pair shift bound, n = 25 at 4 um spacing: "
      f"{vdw_shift_estimate(25, 4.0):.2f} Hz")
