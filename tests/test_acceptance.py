"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each criterion is a separate test so a verbose run shows one result line
per criterion; the helper additionally prints a [PASS]/[FAIL] summary with
the measured values (visible with -s or on failure).
"""
import csv
import json

import numpy as np

from paddle_lab import (Electrode, NoiseModel, build_model, calibrate,
                        capacitance_curve, capacitance_value,
                        fit_film_parameters, force_per_v2_value,
                        model_from_dict, model_to_dict,
                        parallel_plate_capacitance, pull_in_voltage,
                        resolvable_displacement, simulate_cv,
                        solve_equilibrium, touch_limits,
                        zero_voltage_equilibrium)
from paddle_lab.cli import main as cli_main

from oracles import has_stable_equilibrium, paddle_capacitance_quadrature

EPS0 = 8.85e-12


def _report(num: int, desc: str, ok: bool, measured: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({measured})")
    assert ok, f"criterion {num}: {desc}: {measured}"


def _model(sigma0=0.0, **extra):
    return model_from_dict({**model_to_dict(build_model()), "sigma0": sigma0, **extra})


def test_criterion_01_touch_limits():
    lo, hi = touch_limits(build_model().geom)
    ok = abs(hi - 61.53e-6) <= 0.01e-6 and abs(lo + 61.53e-6) <= 0.01e-6
    _report(1, "touch limits +-61.53 um within 0.01 um", ok,
            f"y_p limits [{lo:.6e}, {hi:.6e}] m")


def test_criterion_02_flat_capacitance_range():
    m = build_model()
    area = m.geom.w_p * m.geom.l_p
    c55 = parallel_plate_capacitance(area, 55e-6, m.constants.eps0)
    c110 = parallel_plate_capacitance(area, 110e-6, m.constants.eps0)
    c100 = capacitance_value(0.0, m, Electrode.TOP)
    gaps = np.linspace(55e-6, 110e-6, 56)
    cs = np.array([parallel_plate_capacitance(area, float(g), m.constants.eps0)
                   for g in gaps])
    ok = (abs(c55 - 4.0e-12) / 4.0e-12 <= 0.02
          and abs(c110 - 2.0e-12) / 2.0e-12 <= 0.02
          and np.all(np.diff(cs) < 0.0)
          and abs(c100 - 2.2125e-12) / 2.2125e-12 <= 1e-4)
    _report(2, "flat C spans ~4.0 -> 2.0 pF over 55-110 um, 2.2125 pF at 100 um",
            ok, f"C(55um)={c55:.4e}, C(110um)={c110:.4e}, C(100um)={c100:.6e} F")


def test_criterion_03_quadrature_equivalence():
    m = build_model()
    y = np.linspace(-55e-6, 55e-6, 1001)
    panels = 10**6
    x = np.linspace(0.0, m.geom.l_p, panels + 1)
    dx = m.geom.l_p / panels
    pref_c = m.constants.eps0 * m.geom.w_p
    # trapezoid weights over the whole grid: 1, and 1/2 at the two ends
    weights = np.ones(panels + 1)
    weights[[0, -1]] = 0.5
    # all poses at once, one block of x columns at a time: a 1001 x 2048 buffer
    # in place of 1001 x 1e6 gap matrices
    block = 2048
    buf = np.empty((len(y), block))
    worst = 0.0
    for electrode in (Electrode.TOP, Electrode.BOTTOM):
        closed_c = capacitance_curve(y, m, electrode)
        closed_f = force_per_v2_value(y, m, electrode)
        y_b = y / m.geom.center_ratio
        tilt = 2.0 * y_b / m.geom.l_b
        if electrode is Electrode.TOP:
            g0, slope, sign = m.geom.d_c - y_b, -tilt, 1.0
        else:
            g0, slope, sign = m.geom.d_e + y_b, tilt, -1.0
        sum_c = np.zeros_like(y)
        sum_f = np.zeros_like(y)
        for j in range(0, panels + 1, block):
            xs, w = x[j:j + block], weights[j:j + block]
            inv = buf[:, :len(xs)]
            np.multiply(slope[:, None], xs, out=inv)
            inv += g0[:, None]
            np.reciprocal(inv, out=inv)  # 1/gap
            sum_c += inv @ w
            inv *= inv  # 1/gap^2
            sum_f += inv @ w
        quad_c = pref_c * dx * sum_c
        quad_f = sign * 0.5 * pref_c * dx * sum_f
        worst = max(worst,
                    float(np.max(np.abs(closed_c - quad_c) / np.abs(quad_c))),
                    float(np.max(np.abs(closed_f - quad_f) / np.abs(quad_f))))
    # convergence order: halving the panel count quadruples the error
    ref = capacitance_value(40e-6, m, Electrode.TOP)
    errs = [abs(paddle_capacitance_quadrature(40e-6, m, Electrode.TOP, n) - ref) / ref
            for n in (100, 200, 400)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    order_ok = abs(r1 - 4.0) < 0.1 and abs(r2 - 4.0) < 0.1
    ok = worst <= 1e-9 and order_ok
    _report(3, "closed forms match 1e6-panel quadrature at 1e-9, O(panels^-2)",
            ok, f"worst rel err {worst:.3e}; error ratios {r1:.3f}, {r2:.3f}")


def test_criterion_04_flat_plate_force_limit():
    m = build_model()
    f = abs(float(force_per_v2_value(0.0, m, Electrode.BOTTOM)))
    target = m.constants.eps0 * m.geom.l_p**2 / (2.0 * m.geom.d_e**2)
    ok = abs(f - target) / target <= 1e-6 and abs(target - 1.10625e-8) < 1e-12
    _report(4, "flat-plate F/V^2 equals eps0*l_p^2/(2*d_e^2) = 1.1063e-8", ok,
            f"|F|/V^2 = {f:.6e} N/V^2")


def test_criterion_05_resolvability():
    m = build_model()
    dC = capacitance_value(50e-9, m, Electrode.TOP) - capacitance_value(0.0, m, Electrode.TOP)
    r = resolvable_displacement(m, 0.0, NoiseModel(sigma_C=1e-16))
    ok = abs(dC) > 1e-16 and r < 50e-9
    _report(5, "50 nm shift changes C by more than the 0.1 fF noise floor", ok,
            f"|dC| = {abs(dC):.3e} F, resolvable displacement {r:.3e} m")


def test_criterion_06_calibration():
    m = build_model()
    spacers = [25e-6, 50e-6, 75e-6, 100e-6, 125e-6]
    fit = calibrate(m, spacers, NoiseModel(sigma_C=0.0))
    target = m.constants.eps0 * m.geom.l_p**2
    clean_ok = (abs(fit.slope - target) / target <= 1e-3
                and abs(fit.intercept) < 1e-18
                and fit.r2 >= 1.0 - 1e-12)
    good = sum(calibrate(m, spacers, NoiseModel(sigma_C=1e-16, seed=s)).r2 >= 0.999
               for s in range(100))
    ok = clean_ok and good >= 95
    _report(6, "calibration: exact line noise-free, r2 >= 0.999 in >= 95/100 seeds",
            ok, f"slope {fit.slope:.6e} F*m, intercept {fit.intercept:.2e} F, "
                f"r2 {fit.r2}, noisy hits {good}/100")


def test_criterion_07_zero_voltage_equilibria():
    ys = {}
    worst = 0.0
    inside = True
    for sigma0 in (100e6, 200e6, 300e6):
        m = _model(sigma0)
        sol = solve_equilibrium(m)
        closed = zero_voltage_equilibrium(m)
        worst = max(worst, abs(sol.y_p - closed) / abs(closed))
        inside = inside and m.y_p_min < sol.y_p < m.y_p_max
        ys[sigma0] = sol.y_p
    r2 = ys[200e6] / ys[100e6]
    r3 = ys[300e6] / ys[100e6]
    ratios_ok = abs(r2 - 2.0) <= 2e-10 and abs(r3 - 3.0) <= 3e-10
    ok = worst <= 1e-10 and ratios_ok and inside
    _report(7, "V=0 equilibria match closed form at 1e-10, ratios 1:2:3", ok,
            f"worst rel err {worst:.2e}, ratios {r2:.12f}, {r3:.12f}")


def test_criterion_08_pull_in_consistency():
    m = _model(100e6)
    pi = pull_in_voltage(m, Electrode.BOTTOM)
    lattice = np.arange(pi.V_pull_in - 0.3, pi.V_pull_in + 0.31, 0.01)
    unstable = [float(v) for v in lattice
                if not has_stable_equilibrium(m, Electrode.BOTTOM, float(v))]
    scan_ok = bool(unstable) and abs(pi.V_pull_in - unstable[0]) <= 0.01
    flip_ok = (has_stable_equilibrium(m, Electrode.BOTTOM, pi.V_pull_in - 0.02)
               and not has_stable_equilibrium(m, Electrode.BOTTOM, pi.V_pull_in + 0.02))
    v_by_gap = [pull_in_voltage(_model(100e6, d_e=d), Electrode.BOTTOM).V_pull_in
                for d in (100e-6, 150e-6, 200e-6)]
    gap_ok = v_by_gap[0] < v_by_gap[1] < v_by_gap[2]
    ok = scan_ok and flip_ok and gap_ok
    _report(8, "pull-in bisection agrees with 0.01 V scan; flag flips; V_PI grows with d_e",
            ok, f"V_PI {pi.V_pull_in:.4f} V vs scan {unstable[0] if unstable else float('nan'):.2f} V; "
                f"d_e sweep {[f'{v:.1f}' for v in v_by_gap]}")


def test_criterion_09_extraction_round_trip():
    template = build_model()
    truth = _model(200e6)
    v_pi = pull_in_voltage(truth, Electrode.BOTTOM).V_pull_in
    voltages = np.linspace(0.0, 0.8 * v_pi, 21)

    clean = simulate_cv(truth, Electrode.BOTTOM, voltages)
    fit = fit_film_parameters(clean, template)
    clean_err = abs(fit.sigma0_hat - 200e6) / 200e6
    clean_ok = fit.converged and clean_err <= 1e-6

    errs = []
    for seed in range(20):
        noisy = simulate_cv(truth, Electrode.BOTTOM, voltages,
                            NoiseModel(sigma_C=1e-16, seed=seed))
        nfit = fit_film_parameters(noisy, template)
        errs.append(abs(nfit.sigma0_hat - 200e6) / 200e6)
    median = float(np.median(errs))
    ok = clean_ok and median <= 0.02
    _report(9, "extraction: noise-free 1e-6 round trip; noisy median error <= 2%",
            ok, f"clean rel err {clean_err:.2e}, noisy median {median:.4f} "
                f"(max {max(errs):.4f}) over 20 seeds")


def _run_cli(argv):
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


def _snapshot(directory):
    out = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith("_manifest.json"):
            data = json.loads(path.read_text())
            data.pop("timestamp")
            out[path.name] = json.dumps(data, sort_keys=True)
        else:
            out[path.name] = path.read_bytes()
    return out


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    cv_path = tmp_path / "cv.csv"
    truth = _model(150e6)
    ds = simulate_cv(truth, Electrode.BOTTOM, np.linspace(0.0, 150.0, 8))
    with open(cv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["V_volt", "C_F"])
        w.writerows([f"{v:.17e}", f"{c:.17e}"] for v, c in zip(ds.V.tolist(), ds.C.tolist()))

    commands = [
        ["design"],
        ["curves", "--which", "film-beam"],
        ["equilibrium", "--sigma0", "100e6", "--v", "0"],
        ["pullin", "--electrode", "bottom"],
        ["sweep", "--electrode", "bottom", "--sigma0", "100e6", "--v-max", "150",
         "--points", "7"],
        ["calibrate", "--sigma-c", "1e-16", "--seed", "5"],
        ["measure", "--n", "25", "--seed", "5"],
        ["extract", "--data", str(cv_path), "--electrode", "bottom"],
    ]
    deterministic = True
    for i, cmd in enumerate(commands):
        d1, d2 = tmp_path / f"r1_{i}", tmp_path / f"r2_{i}"
        rc1 = _run_cli(cmd + ["--out", str(d1)])
        rc2 = _run_cli(cmd + ["--out", str(d2)])
        if rc1 != 0 or rc2 != 0 or _snapshot(d1) != _snapshot(d2):
            deterministic = False
            break

    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{nope")
    rc_invalid = _run_cli(["design", "--config", str(bad_config),
                           "--out", str(tmp_path / "e2")])
    rc_unstable = _run_cli(["equilibrium", "--v", "500", "--electrode", "bottom",
                            "--out", str(tmp_path / "e3")])
    bad_data = tmp_path / "bad_cv.csv"
    bad_data.write_text("V_volt,C_F\n0.0,2.2125e-12\n400.0,2.1e-12\n800.0,2.0e-12\n")
    rc_noconv = _run_cli(["extract", "--data", str(bad_data), "--electrode", "bottom",
                          "--out", str(tmp_path / "e4")])
    codes_ok = (rc_invalid, rc_unstable, rc_noconv) == (2, 3, 4)
    ok = deterministic and codes_ok
    _report(10, "CLI byte-reproducible under fixed seed; exit codes 0/2/3/4", ok,
            f"deterministic={deterministic}, codes invalid={rc_invalid}, "
            f"unstable={rc_unstable}, nonconverged={rc_noconv}")
