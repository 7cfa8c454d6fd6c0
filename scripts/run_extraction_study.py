"""Monte Carlo study of stress extraction accuracy.

Simulates noisy C-V measurements of a device with known film stress, runs
the least-squares extraction against a template whose film parameters are
deliberately wrong, and reports the recovered-stress error statistics per
noise level. Writes one CSV row per trial plus a printed summary table.

Usage: python3 scripts/run_extraction_study.py [--out results] [--seeds 20]
"""
import argparse
import csv
import os

import numpy as np

from paddle_lab import (Electrode, NoiseModel, build_model, fit_film_parameters,
                        model_from_dict, model_to_dict, pull_in_voltage,
                        simulate_cv)

TRUE_SIGMA0 = 200e6      # Pa
TRUE_T_F = 250e-9        # m, template carries 200 nm so EFVF starts 25% off
NOISE_LEVELS = [0.0, 1e-17, 1e-16, 3e-16]  # F rms on each capacitance reading
N_VOLTAGES = 21


def make_truth():
    return model_from_dict({**model_to_dict(build_model()), "sigma0": TRUE_SIGMA0,
                            "t_F": TRUE_T_F})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results")
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    template = build_model()
    truth = make_truth()
    v_pi = pull_in_voltage(truth, Electrode.BOTTOM).V_pull_in
    voltages = np.linspace(0.0, 0.8 * v_pi, N_VOLTAGES)
    efvf_true = truth.film.E_F * truth.V_F
    print(f"truth: sigma0 = {TRUE_SIGMA0 / 1e6:.0f} MPa, E_F*V_F = {efvf_true:.4e} "
          f"Pa*m^3, pull-in {v_pi:.2f} V, {N_VOLTAGES} voltages to "
          f"{voltages[-1]:.1f} V")

    rows = []
    print(f"{'sigma_C [F]':>12} {'median err':>11} {'p90 err':>9} "
          f"{'max err':>9} {'conv':>5}")
    for sigma_c in NOISE_LEVELS:
        errs, conv = [], 0
        n_seeds = 1 if sigma_c == 0.0 else args.seeds
        for seed in range(n_seeds):
            noise = None if sigma_c == 0.0 else NoiseModel(sigma_C=sigma_c, seed=seed)
            data = simulate_cv(truth, Electrode.BOTTOM, voltages, noise)
            fit = fit_film_parameters(data, template)
            err = abs(fit.sigma0_hat - TRUE_SIGMA0) / TRUE_SIGMA0
            errs.append(err)
            conv += fit.converged
            rows.append([f"{sigma_c:.17e}", seed, f"{fit.sigma0_hat:.17e}",
                         f"{fit.EFVF_hat:.17e}", f"{err:.17e}",
                         fit.iterations, fit.converged])
        print(f"{sigma_c:>12.1e} {np.median(errs):>11.2e} "
              f"{np.percentile(errs, 90):>9.2e} {max(errs):>9.2e} "
              f"{conv:>3d}/{n_seeds}")

    path = os.path.join(args.out, "extraction_trials.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["sigma_C_F", "seed", "sigma0_hat_Pa", "EFVF_hat_Pa_m3",
                    "rel_error", "iterations", "converged"])
        w.writerows(rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
