"""The benchmark's workloads: seeded inputs, one timed item, and the checks.

A workload runs in rounds.  Every round runs the same items, in the same
order, so every run attempts whole rounds and the share of failed items
is the same in every run.  Each workload object is used in four steps:

* ``setup(rydtherm)``: species loads and the workload's own warm-up (timed
  as set-up);
* ``make_inputs(rng)``: the items of one round (not timed);
* ``new_round()`` and ``run_item(item, ctx)``: one timed item;
* ``check(items, rounds, rng)``: error messages for every output that
  disagrees with an independent reference or a property of the method.
"""

import csv
import math
import os
import random

import references as ref

ROOM_BAND_K = (290.0, 310.0)


def _rel(a, b):
    return abs(a - b) / abs(b)


class Workload:
    def __init__(self, out_dir):
        self.out_dir = out_dir

    def new_round(self):
        return None

    @staticmethod
    def summarize(out):
        return out


class ScanCold(Workload):
    """Fig.-3 sweep: BBR shift at 300 K of seeded (species, series, n).

    Each round shares one RadialSolver that starts empty, as ``rydtherm
    fig3`` does, so Numerov solves, pair integrals and table builds all do
    real work while the caches fill.
    """

    name = "scan_cold"
    SERIES = {
        "Sr": ("3S1", "3P0", "3P1", "3P2", "3D1", "3D2", "3D3"),
        "Yb": ("3S1", "3P0", "3P1", "3P2", "1S0", "1P1"),
    }
    # one seeded n per stratum keeps the mix of small and large n (whose
    # costs differ several-fold) the same from seed to seed
    N_STRATA = ((8, 18), (19, 29), (30, 40), (41, 50))
    TEMPERATURE_K = 300.0
    PLATEAU_N = 30
    PLATEAU_TOL = 0.05
    # Yb 1S0 approaches the plateau more slowly (measured 8.9% at n = 30,
    # 5.01% at n = 36, falling as n*^-2): 10% up to n = 36, 5% above
    SLOW_PLATEAU = {("Yb", "1S0"): (37, 0.10)}
    CROSS_CHECKS = 3
    CROSS_TOL = 1e-3

    def setup(self, rydtherm):
        self.R = rydtherm
        self.species = {name: rydtherm.load_species(name) for name in self.SERIES}
        self.solver = None

    def make_inputs(self, rng):
        items = []
        for sp, series_list in self.SERIES.items():
            for series in series_list:
                n_min = self.species[sp].series_info(series).n_min
                for lo, hi in self.N_STRATA:
                    items.append((sp, series, rng.randint(max(lo, n_min), hi)))
        return items

    def new_round(self):
        self.solver = self.R.RadialSolver()
        return self.solver

    def run_item(self, item, solver):
        sp, series, n = item
        state = self.species[sp].state(n, series)
        return self.R.bbr_shift_sum(state, self.TEMPERATURE_K, solver=solver)

    @staticmethod
    def summarize(res):
        return (res.shift_hz, res.channel_hz, res.tail_hz, res.converged)

    def check(self, items, rounds, rng):
        errors = []
        fe = ref.free_electron_shift_hz(self.TEMPERATURE_K)
        for outputs in rounds:
            for (sp, series, n), out in zip(items, outputs):
                label = f"{sp} {n} {series}"
                if isinstance(out, str):  # the item raised
                    errors.append(f"{label}: {out}")
                    continue
                shift, channel, tail, converged = out
                if not all(map(math.isfinite, (shift, channel, tail))):
                    errors.append(f"{label}: non-finite shift {out}")
                    continue
                if not converged:
                    errors.append(f"{label}: not converged")
                if shift != channel + tail:
                    errors.append(f"{label}: shift != channel + tail")
                n_band, tol = self.SLOW_PLATEAU.get((sp, series), (None, None))
                if n >= self.PLATEAU_N:
                    if n_band is None or n >= n_band:
                        tol = self.PLATEAU_TOL
                    if _rel(shift, fe) > tol:
                        errors.append(
                            f"{label}: {shift:.2f} Hz is {100 * _rel(shift, fe):.2f}% "
                            f"from the free-electron {fe:.2f} Hz (> {100 * tol:g}%)"
                        )
        # the principal-value frequency integral shares the channel table but
        # none of the Farley-Wing kernel code
        last = rounds[-1]
        for i in rng.sample(range(len(items)), self.CROSS_CHECKS):
            if isinstance(last[i], str):
                continue
            sp, series, n = items[i]
            state = self.species[sp].state(n, series)
            pv = self.R.bbr_shift_integral(
                state, self.TEMPERATURE_K, solver=self.solver
            ).shift_hz
            if _rel(last[i][0], pv) > self.CROSS_TOL:
                errors.append(
                    f"{sp} {n} {series}: channel sum {last[i][0]:.6f} Hz vs "
                    f"PV integral {pv:.6f} Hz"
                )
        return errors


class ThermoInvert(Workload):
    """Measured metastable -> Rydberg offsets inverted with warm tables.

    The inversion targets are a fixed bank drawn once from BANK_SEED: the
    present stopping rule makes the iteration count of one inversion jump
    between about 4 and 37 for neighbouring temperatures, so seeded targets
    would swing the cost of a run from seed to seed far beyond any useful
    bound.  The seed draws the order of the items, every measurement
    uncertainty, and the joint (T, E) items.
    """

    name = "thermo_invert"
    KINDS = (("Sr", "3D1"), ("Sr", "3S1"), ("Yb", "3P0"))
    N_RANGE = (25, 30)
    BANK_SEED = 20110715
    ROOM_KINDS = (0, 1, 2, 0)  # one room-temperature inversion per entry
    SPREAD_KINDS = (1, 2)  # one inversion spread over SPREAD_K per entry
    SPREAD_K = (50.0, 900.0)
    # true T in [997.5, 1000) K: the documented domain, but the inversion's
    # slope stencil steps past 1000 K and raises
    FAILING = ((("Sr", "3D1"), 30, 998.5), (("Yb", "3P0"), 25, 999.5))
    FAIL_MESSAGE = "outside supported range"
    FIELD_V_PER_M = (0.02, 0.08)
    SIGMA_HZ = (0.1, 0.3)
    ROUND_TRIP_K = 1e-3
    # sigma_T against sigma_nu over the free-electron slope.  For these
    # states the model slope was measured within 3.7% of the free-electron
    # slope at 259-900 K; at 50 K it is off by up to 32%, because the
    # nearest channels are not yet in the free-electron limit
    SIGMA_TOL = ((250.0, 0.05), (0.0, 0.35))

    def setup(self, rydtherm):
        self.R = rydtherm
        self.species = {sp: rydtherm.load_species(sp) for sp in ("Sr", "Yb")}
        self.solver = rydtherm.RadialSolver()
        lo, hi = self.N_RANGE
        for sp, series in self.KINDS:
            for n in range(lo, hi + 1):
                rydtherm.build_transition_table(
                    self.species[sp].state(n, series), solver=self.solver
                )

    def _state(self, kind, n):
        sp, series = kind
        return self.species[sp].state(n, series)

    def _measurement(self, state, t, sigma, field=0.0):
        """A synthetic measurement: the program's forward model at T and E."""
        offset = self.R.transition_bbr_shift(
            state.species, state, t, solver=self.solver
        )
        if field:
            alpha = self.R.static_polarizability(state, solver=self.solver)
            offset -= 0.5 * alpha.value_hz_m2_v2 * field * field
        return self.R.ThermometryMeasurement(state, offset, sigma)

    def make_inputs(self, rng):
        bank = random.Random(self.BANK_SEED)
        lo, hi = self.N_RANGE
        targets = [
            (self.KINDS[kind], bank.randint(lo, hi), bank.uniform(*ROOM_BAND_K), False)
            for kind in self.ROOM_KINDS
        ] + [
            (self.KINDS[kind], bank.randint(lo, hi), bank.uniform(*self.SPREAD_K), False)
            for kind in self.SPREAD_KINDS
        ] + [(kind, n, t, True) for kind, n, t in self.FAILING]
        out = []
        for kind, n, t, fail in targets:
            m = self._measurement(self._state(kind, n), t, rng.uniform(*self.SIGMA_HZ))
            out.append({"op": "invert", "t": t, "m": m, "fail": fail})
        # joint items: a Rydberg 3D1/3S1 pair of Sr and two 3P0 levels of Yb
        n_sr = (rng.randint(lo, hi), rng.randint(lo, hi))
        n_yb = rng.sample(range(lo, hi + 1), 2)
        for states in (
            (self._state(self.KINDS[0], n_sr[0]), self._state(self.KINDS[1], n_sr[1])),
            (self._state(self.KINDS[2], n_yb[0]), self._state(self.KINDS[2], n_yb[1])),
        ):
            t = rng.uniform(*ROOM_BAND_K)
            field = rng.uniform(*self.FIELD_V_PER_M)
            ms = [
                self._measurement(st, t, rng.uniform(*self.SIGMA_HZ), field)
                for st in states
            ]
            out.append({"op": "joint", "t": t, "field": field, "ms": ms, "fail": False})
        rng.shuffle(out)
        return out

    def new_round(self):
        return self.solver

    def run_item(self, item, solver):
        if item["op"] == "joint":
            return self.R.joint_solve_temperature_field(item["ms"], solver=solver)
        return self.R.invert_temperature(item["m"], solver=solver)

    @staticmethod
    def summarize(sol):
        return (
            sol.temperature_k,
            sol.sigma_temperature_k,
            sol.field_v_per_m,
            sol.sigma_field_v_per_m,
            sol.field_sq_clamped,
            sol.iterations,
        )

    def check(self, items, rounds, rng):
        errors = []
        for outputs in rounds:
            for item, out in zip(items, outputs):
                t_true = item["t"]
                if item["op"] == "joint":
                    label = "joint " + " + ".join(str(m.state) for m in item["ms"])
                else:
                    label = f"invert {item['m'].state} at {t_true:.4f} K"
                if isinstance(out, str):  # the item raised
                    if not (item["fail"] and self.FAIL_MESSAGE in out):
                        errors.append(f"{label}: {out}")
                    continue
                t, sigma_t, field, sigma_field, clamped, _ = out
                if item["op"] == "joint":
                    if abs(t - t_true) > sigma_t:
                        errors.append(f"{label}: T {t} vs {t_true} (sigma {sigma_t})")
                    if clamped or abs(field - item["field"]) > sigma_field:
                        errors.append(
                            f"{label}: E {field} vs {item['field']} (sigma {sigma_field})"
                        )
                    continue
                if abs(t - t_true) >= self.ROUND_TRIP_K:
                    errors.append(f"{label}: round trip gave {t} K")
                expect = item["m"].sigma_hz / ref.free_electron_slope_hz_per_k(t_true)
                tol = next(tol for t_min, tol in self.SIGMA_TOL if t_true >= t_min)
                if _rel(sigma_t, expect) > tol:
                    errors.append(
                        f"{label}: sigma_T {sigma_t:.6g} K vs free-electron "
                        f"{expect:.6g} K (> {100 * tol:g}%)"
                    )
        return errors


class MagicTable(Workload):
    """Table-1 magic-lattice solves driven through ``rydtherm magic``.

    Every magic residual re-integrates the Bessel orbit averages, so radial
    pair integrals, Legendre moments, the lattice layer and the CLI carry
    the time; the thermal kernel is never called.
    """

    name = "magic_table"
    # (species, Rydberg series, n strata); one seeded n per stratum.  A Sr
    # solve takes about twice as long as a Yb solve, so with equal counts
    # the median item would sit in the gap between the two groups and jump
    # from seed to seed; Sr has more strata so the median falls among them.
    SPECIES = (
        ("Yb", "3P0", ((15, 23), (24, 32), (33, 40))),
        ("Sr", "3D1", ((15, 19), (20, 24), (25, 29), (30, 34), (35, 40))),
    )
    K_RATIOS = ("1", "0.5")
    RESIDUAL_REL = 1e-6

    def setup(self, rydtherm):
        import rydtherm.cli

        self.R = rydtherm
        self.csv_path = os.path.join(self.out_dir, "magic.csv")
        self.species = {sp: rydtherm.load_species(sp) for sp, _, _ in self.SPECIES}
        self._magic("Yb", 15, "1")

    def _magic(self, sp, n, k_ratio):
        argv = ["magic", "--species", sp, "--n", str(n), "--k-ratio", k_ratio,
                "-o", self.csv_path]
        code = self.R.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rydtherm {' '.join(argv)} exited {code}")

    def make_inputs(self, rng):
        items = []
        for sp, _, strata in self.SPECIES:
            ns = [rng.randint(lo, hi) for lo, hi in strata]
            items += [(sp, n, k) for k in self.K_RATIOS for n in ns]
        return items

    def run_item(self, item, _ctx):
        self._magic(*item)
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            raise RuntimeError(f"{item}: expected one CSV row, got {len(rows)}")
        return rows[0]

    def check(self, items, rounds, rng):
        errors = []
        dipole, model = {}, {}
        for sp, series, strata in self.SPECIES:
            model[sp] = ref.read_species_lines(
                self.R.species.bundled_species_path(sp.lower())
            )
            state = self.species[sp].state(strata[0][0], series)
            roots = self.R.solve_magic_wavelength(
                self.species[sp], state, include_orbit_average=False
            )
            dipole[sp] = self.R.pick_magic_root(roots).wavelength_nm
        for outputs in rounds:
            lam = {}
            for (sp, n, k), row in zip(items, outputs):
                label = f"{sp} n={n} k_ratio={k}"
                if isinstance(row, str):
                    errors.append(f"{label}: {row}")
                    continue
                lam_m = float(row["lambda_m_nm"])
                alpha = float(row["alpha_khz_per_kw_cm2"])
                lam_i = float(row["lambda_i_nm"])
                lam[(sp, k, n)] = lam_m
                if int(row["n"]) != n or float(row["k_ratio"]) != float(k):
                    errors.append(f"{label}: row is for n={row['n']} k={row['k_ratio']}")
                # the magic condition alpha(omega) + (1 - 2<sin^2>)/omega^2 = 0,
                # with alpha evaluated here from the species file's line model
                w = ref.omega_au(lam_m)
                alpha_au = ref.metastable_alpha_au(model[sp], w)
                residual = alpha_au + (1.0 - 2.0 * float(row["sin2"])) / (w * w)
                for value in (residual, float(row["residual_au"])):
                    if abs(value) > self.RESIDUAL_REL / (w * w):
                        errors.append(f"{label}: magic residual {value:.3e} a.u.")
                # valid means alpha < 0: a repulsive lattice, reported as a
                # positive light-shift coefficient
                if row["valid"] != "true" or not alpha_au < 0.0 or not alpha > 0.0:
                    errors.append(f"{label}: root not valid (alpha {alpha_au} a.u.)")
                if k != "1":
                    continue
                if sp == "Yb":
                    for col, got, tol in ((0, lam_m, ref.TOL_LAMBDA_M),
                                          (1, alpha, ref.TOL_ALPHA),
                                          (2, lam_i, ref.TOL_LAMBDA_I)):
                        want = ref.interpolate(ref.YB_TABLE1, n, col)
                        if _rel(got, want) > tol:
                            errors.append(
                                f"{label}: Table 1 column {col}: {got:.4f} vs "
                                f"{want:.4f} (> {100 * tol:g}%)"
                            )
                else:
                    want = ref.interpolate(ref.SR_MAGIC_BAND, n)
                    if _rel(lam_m, want) > ref.TOL_LAMBDA_M:
                        errors.append(f"{label}: {lam_m:.3f} nm vs band {want:.3f} nm")
            for (sp, k, n), value in lam.items():
                later = [v for (s2, k2, n2), v in lam.items()
                         if s2 == sp and k2 == k and n2 > n]
                if any(v > value for v in later):
                    errors.append(f"{sp} k_ratio={k}: lambda_m rises after n={n}")
                if k == "1" and (sp, "0.5", n) in lam:
                    half = lam[(sp, "0.5", n)]
                    if not value < half < dipole[sp]:
                        errors.append(
                            f"{sp} n={n}: k_ratio 0.5 root {half:.4f} nm not between "
                            f"{value:.4f} nm and the point-dipole {dipole[sp]:.4f} nm"
                        )
        return errors


WORKLOADS = {w.name: w for w in (ScanCold, ThermoInvert, MagicTable)}
