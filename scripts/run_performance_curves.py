"""Forward-model characterization study.

Generates the standard performance set for the default device: capacitance
and force-per-V^2 curves over the travel range, equilibrium deflection vs
drive voltage for a few film stresses, pull-in voltage vs stress, and the
displacement resolution implied by the capacitance noise floor. Results land as
CSV files in --out plus a printed summary.

Usage: python3 scripts/run_performance_curves.py [--out results] [--points 201]
"""
import argparse
import csv
import os

import numpy as np

from paddle_lab import (Electrode, NoiseModel, build_model, capacitance_value,
                        force_per_v2_value, model_from_dict, model_to_dict,
                        pull_in_voltage, resolvable_displacement,
                        solve_equilibrium, sweep_voltage, touch_limits)

STRESSES = [0.0, 100e6, 200e6, 300e6]  # Pa


def with_sigma0(sigma0):
    return model_from_dict({**model_to_dict(build_model()), "sigma0": sigma0})


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results")
    ap.add_argument("--points", type=int, default=201)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    m = build_model()
    lo, hi = touch_limits(m.geom)
    print(f"travel range: [{lo * 1e6:+.2f}, {hi * 1e6:+.2f}] um at the paddle center")

    # transfer curves over 90% of the travel range
    y = np.linspace(0.9 * lo, 0.9 * hi, args.points)
    c_top = capacitance_value(y, m, Electrode.TOP)
    c_bot = capacitance_value(y, m, Electrode.BOTTOM)
    f_top = force_per_v2_value(y, m, Electrode.TOP)
    f_bot = force_per_v2_value(y, m, Electrode.BOTTOM)
    write_csv(os.path.join(args.out, "transfer_curves.csv"),
              ["y_p_m", "C_top_F", "C_bottom_F", "f_top_N_per_V2", "f_bottom_N_per_V2"],
              [[f"{v:.17e}" for v in row] for row in zip(y, c_top, c_bot, f_top, f_bot)])

    # quasistatic deflection vs drive voltage, bottom electrode, per stress
    rows = []
    print("pull-in and rest deflection vs film stress (bottom electrode):")
    for sigma0 in STRESSES:
        ms = with_sigma0(sigma0)
        rest = solve_equilibrium(ms).y_p
        pi = pull_in_voltage(ms, Electrode.BOTTOM)
        volts = np.linspace(0.0, 0.999 * pi.V_pull_in, 40)
        sweep = sweep_voltage(ms, Electrode.BOTTOM, volts)
        for v, y_p, c in zip(sweep.V.tolist(), sweep.y_p.tolist(), sweep.C_top.tolist()):
            rows.append([f"{sigma0:.17e}", f"{v:.17e}", f"{y_p:.17e}", f"{c:.17e}"])
        print(f"  sigma0 = {sigma0 / 1e6:5.0f} MPa: rest y_p = {rest * 1e6:+7.3f} um, "
              f"V_PI = {pi.V_pull_in:8.4f} V, last stable y_p = "
              f"{pi.y_p_last_stable * 1e6:+7.3f} um")
    write_csv(os.path.join(args.out, "deflection_vs_voltage.csv"),
              ["sigma0_Pa", "V_volt", "y_p_m", "C_top_F"], rows)

    # displacement resolution vs capacitance noise floor
    rows = []
    for sigma_c in (1e-17, 1e-16, 1e-15):
        r = resolvable_displacement(m, 0.0, NoiseModel(sigma_C=sigma_c))
        rows.append([f"{sigma_c:.17e}", f"{r:.17e}"])
        print(f"  sigma_C = {sigma_c:.0e} F -> resolvable displacement "
              f"{r * 1e9:7.2f} nm")
    write_csv(os.path.join(args.out, "resolution_vs_noise.csv"),
              ["sigma_C_F", "resolvable_displacement_m"], rows)


if __name__ == "__main__":
    main()
