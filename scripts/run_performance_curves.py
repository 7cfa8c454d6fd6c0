"""Forward-model characterization study.

Generates the standard performance set for the default device: capacitance
and force-per-V^2 curves over the travel range, equilibrium deflection vs
drive voltage for a few film stresses, pull-in voltage vs stress, and the
displacement resolution implied by the capacitance noise floor. Results land as
CSV files in --out, written by the CLI's CSV writer, plus a printed summary.

Usage: python3 scripts/run_performance_curves.py [--out results] [--points 201]
"""
import argparse
import os

import numpy as np

from paddle_lab import (Electrode, NoiseModel, build_model, capacitance_value,
                        force_per_v2_value, pull_in_voltage, resolvable_displacement,
                        solve_equilibrium, sweep_voltage)
from paddle_lab.cli import _write_csv

STRESSES = [0.0, 100e6, 200e6, 300e6]  # Pa
NOISE_FLOORS = [1e-17, 1e-16, 1e-15]  # F


def write_csv(out, name, header, *columns):
    path = os.path.join(out, name)
    _write_csv(path, header, *columns)
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results")
    ap.add_argument("--points", type=int, default=201)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    m = build_model()
    lo, hi = m.y_p_min, m.y_p_max
    print(f"travel range: [{lo * 1e6:+.2f}, {hi * 1e6:+.2f}] um at the paddle center")

    # transfer curves over 90% of the travel range
    y = np.linspace(0.9 * lo, 0.9 * hi, args.points)
    write_csv(args.out, "transfer_curves.csv",
              ["y_p_m", "C_top_F", "C_bottom_F", "f_top_N_per_V2", "f_bottom_N_per_V2"], y,
              *(kernel(y, m, e) for kernel in (capacitance_value, force_per_v2_value)
                for e in (Electrode.TOP, Electrode.BOTTOM)))

    # quasistatic deflection vs drive voltage, bottom electrode, per stress
    sweeps = []
    print("pull-in and rest deflection vs film stress (bottom electrode):")
    for sigma0 in STRESSES:
        ms = build_model(sigma0=sigma0)
        rest = solve_equilibrium(ms).y_p
        pi = pull_in_voltage(ms, Electrode.BOTTOM)
        sweeps.append(sweep_voltage(ms, Electrode.BOTTOM,
                                    np.linspace(0.0, 0.999 * pi.V_pull_in, 40)))
        print(f"  sigma0 = {sigma0 / 1e6:5.0f} MPa: rest y_p = {rest * 1e6:+7.3f} um, "
              f"V_PI = {pi.V_pull_in:8.4f} V, last stable y_p = "
              f"{pi.y_p_last_stable * 1e6:+7.3f} um")
    write_csv(args.out, "deflection_vs_voltage.csv", ["sigma0_Pa", "V_volt", "y_p_m", "C_top_F"],
              np.repeat(STRESSES, [s.V.size for s in sweeps]),
              *(np.concatenate([getattr(s, col) for s in sweeps]) for col in ("V", "y_p", "C_top")))

    # displacement resolution vs capacitance noise floor
    resolution = [resolvable_displacement(m, 0.0, NoiseModel(sigma_C=s)) for s in NOISE_FLOORS]
    for sigma_c, r in zip(NOISE_FLOORS, resolution):
        print(f"  sigma_C = {sigma_c:.0e} F -> resolvable displacement {r * 1e9:7.2f} nm")
    write_csv(args.out, "resolution_vs_noise.csv", ["sigma_C_F", "resolvable_displacement_m"],
              NOISE_FLOORS, resolution)


if __name__ == "__main__":
    main()
