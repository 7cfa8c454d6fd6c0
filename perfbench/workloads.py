"""The benchmark workloads: inputs from a seed, one timed task, its check.

Each workload builds its `tasks` distinct inputs from the seed during
set-up; `out_dir` is a scratch directory inside the checkout. `run(i)` is
the timed part of task i and calls only the public paddle_lab API;
`check(i, out)` verifies the output afterwards, untimed. A check raises
`CheckFailed` when an output is wrong; otherwise it returns the task's work
counts, read from the outputs. A fit that reports `converged=False` is not
a wrong output when the result matches the library's own fit of the same
data: it counts as `nonconverged`, not as a failure.

Every library function is looked up through its module at call time
(`pl.solve_equilibrium`), so the wrappers the traced run installs are the
ones called.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

import paddle_lab as pl
import paddle_lab.cli as pl_cli

TOP, BOTTOM = pl.Electrode.TOP, pl.Electrode.BOTTOM


class CheckFailed(Exception):
    """The program returned a wrong output."""


def _close(actual, expected, rtol, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape} != {expected.shape}")
    # tolerance relative to the largest expected value, so zero crossings pass
    if not np.allclose(actual, expected, rtol=0.0, atol=rtol * float(np.max(np.abs(expected)))):
        worst = float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)))
        raise CheckFailed(f"{what}: relative error {worst:.3e} > {rtol:.0e}")


class Forward:
    """pull_in_voltage, then a 40-point sweep to 0.999*V_PI.

    Mechanics and roots do almost all the work; extraction, instrument and
    cli never run.
    """

    name = "forward"
    tasks = 128
    SWEEP_POINTS = 40

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 1])
        # rest equilibrium is stable over this stress range on both electrodes
        self.models = [pl.build_model(sigma0=float(s))
                       for s in rng.uniform(-300e6, 300e6, self.tasks)]

    def label(self, i: int) -> str:
        return f"forward:{self._electrode(i).value}"

    @staticmethod
    def _electrode(i: int):
        return TOP if i % 2 == 0 else BOTTOM

    def run(self, i: int):
        model, electrode = self.models[i], self._electrode(i)
        pi = pl.pull_in_voltage(model, electrode)
        sweep = pl.sweep_voltage(model, electrode,
                                 np.linspace(0.0, 0.999 * pi.V_pull_in, self.SWEEP_POINTS))
        return pi, sweep

    def check(self, i: int, out) -> dict:
        pi, sweep = out
        if sweep.truncated_at is not None or len(sweep.records) != self.SWEEP_POINTS:
            raise CheckFailed(f"sweep to 0.999*V_PI truncated at {sweep.truncated_at!r} "
                              f"({len(sweep.records)} records)")
        V = 1.001 * pi.V_pull_in
        drive = (V, 0.0) if self._electrode(i) is TOP else (0.0, V)
        try:
            pl.solve_equilibrium(self.models[i], *drive)
        except pl.NoStableEquilibrium:
            return {"sweep_records": len(sweep.records)}
        raise CheckFailed(f"stable equilibrium at 1.001*V_PI = {V!r} V")

    def quality(self, prefix: int) -> dict:
        return {}


class Readout:
    """A seeded capacitance stream, inverted back to deflection, plus calibration.

    Instrument and the capacitance inversion in electrostatics do the work;
    the mechanics solver never runs.
    """

    name = "readout"
    tasks = 120
    SAMPLES = 200
    NOISE_F = (1e-17, 1e-16, 3e-16)
    SPACERS = (25e-6, 50e-6, 75e-6, 100e-6, 125e-6)

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.model = pl.build_model()
        # poses well inside the inversion bracket, so noisy readings stay invertible
        self.poses = rng.uniform(0.8 * self.model.y_p_min, 0.8 * self.model.y_p_max, self.tasks)

    @staticmethod
    def _electrode(i: int):
        return TOP if i % 2 == 0 else BOTTOM

    def label(self, i: int) -> str:
        return f"readout:{self._electrode(i).value}"

    def run(self, i: int):
        y_p, electrode = float(self.poses[i]), self._electrode(i)
        noise = pl.NoiseModel(sigma_C=self.NOISE_F[i % 3], dt=1e-3, seed=self.seed * 100_003 + i)
        C = pl.capacitance_value(y_p, self.model, electrode)
        samples = pl.measure_capacitance(C, noise, self.SAMPLES)
        series = pl.deflection_series(samples, self.model, electrode)
        cal = pl.calibrate(self.model, self.SPACERS, pl.NoiseModel(sigma_C=0.0))
        resolution = pl.resolvable_displacement(self.model, y_p, noise)
        return series, cal, resolution

    def check(self, i: int, out) -> dict:
        series, cal, resolution = out
        y_p = float(self.poses[i])
        if len(series) != self.SAMPLES:
            raise CheckFailed(f"{len(series)} deflection samples, expected {self.SAMPLES}")
        ys = np.array([y for _, y in series])
        sem = float(np.std(ys, ddof=1)) / np.sqrt(ys.size)
        if not abs(float(np.mean(ys)) - y_p) <= 5.0 * sem:
            raise CheckFailed(f"mean recovered y_p {np.mean(ys)!r} is more than 5 sigma "
                              f"({sem!r}) from the pose {y_p!r}")
        geom = self.model.geom
        _close(cal.slope, self.model.constants.eps0 * geom.w_p * geom.l_p, 1e-9,
               "noise-free calibration slope")
        if not (np.isfinite(resolution) and resolution > 0.0):
            raise CheckFailed(f"resolvable displacement {resolution!r}")
        return {"samples_inverted": len(series)}

    def quality(self, prefix: int) -> dict:
        return {}


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Cli:
    """In-process paddle_lab.cli.main calls cycling through every command.

    The only workload where the cli module's own work shows: argparse,
    full-precision CSV/JSON writing and, in `measure`, 1e4 sample objects.
    `extract` fits C-V files written during set-up; one in three of them is
    sampled up to 0.9999*V_PI, which keeps the known near-pull-in
    converged=False defect (exit code 4) in the nonconverged count.
    """

    name = "cli"
    # Thirteen kinds, so that the median task falls in the middle of one
    # kind (curves:capacitance, whose work does not depend on the seed) and
    # not on the edge between two, where the seed-dependent time of the
    # near-pull-in extracts would move it.
    CYCLE = ("design", "curves:capacitance", "curves:force", "curves:film-beam",
             "equilibrium", "pullin", "sweep", "calibrate", "measure:top", "measure:bottom",
             "extract:top", "extract:bottom", "extract:near")
    tasks = 20 * len(CYCLE)
    CURVE_POINTS = 2001
    MEASURE_N = 10_000
    SWEEP_POINTS = 51
    CV_VOLTAGES = 21
    CV_NOISE_F = 1e-17
    # fraction of V_PI each extract file is sampled up to
    CV_TOP = {"top": 0.8, "bottom": 0.8, "near": 0.9999}

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 4])
        default = pl.build_model()
        self.out_dir = out_dir
        self.params = []
        for k in range(self.tasks // len(self.CYCLE)):
            electrode = TOP if k % 2 == 0 else BOTTOM
            # |sigma0| <= 200 MPa keeps V_PI above 110 V, so --v <= 50 and
            # --v-max <= 60 stay below pull-in on either electrode
            p = {"sigma0": float(rng.uniform(-200e6, 200e6)), "electrode": electrode,
                 "v": float(rng.uniform(0.0, 50.0)), "v_max": float(rng.uniform(40.0, 60.0)),
                 "yp": float(rng.uniform(0.5 * default.y_p_min, 0.5 * default.y_p_max)),
                 "seed": int(rng.integers(0, 2**31))}
            for variant, top in self.CV_TOP.items():
                el = electrode if variant == "near" else pl.Electrode(variant)
                truth = pl.build_model(
                    sigma0=float(rng.choice([-1.0, 1.0]) * rng.uniform(50e6, 200e6)),
                    t_F=float(rng.uniform(150e-9, 250e-9)))
                v_pi = pl.pull_in_voltage(truth, el).V_pull_in
                data = pl.simulate_cv(truth, el, np.linspace(0.0, top * v_pi, self.CV_VOLTAGES),
                                      pl.NoiseModel(sigma_C=self.CV_NOISE_F, seed=p["seed"]))
                path = os.path.join(out_dir, f"cv-{k}-{variant}.csv")
                with open(path, "w", newline="") as fh:
                    w = csv.writer(fh, lineterminator="\n")
                    w.writerow(["V_volt", "C_F"])
                    w.writerows([[f"{r.V:.17e}", f"{r.C:.17e}"] for r in data.rows])
                p[f"cv_{variant}"] = (path, el, truth.film.sigma0)
            self.params.append(p)
        self._expected: dict[int, object] = {}
        self.sigma0_err: dict[int, float] = {}

    def label(self, i: int) -> str:
        return self.CYCLE[i % len(self.CYCLE)]

    def _argv(self, i: int) -> tuple[list[str], str]:
        kind = self.label(i)
        p = self.params[i // len(self.CYCLE)]
        out = os.path.join(self.out_dir, kind.replace(":", "-"))
        command, _, variant = kind.partition(":")
        el = ["--electrode", p["electrode"].value]
        sigma0 = [f"--sigma0={p['sigma0']!r}"]
        if command == "curves":
            argv = ["--which", variant, "--points", str(self.CURVE_POINTS)]
        elif command == "equilibrium":
            argv = [f"--v={p['v']!r}"] + el + sigma0
        elif command == "pullin":
            argv = el + sigma0
        elif command == "sweep":
            argv = [f"--v-max={p['v_max']!r}", "--points", str(self.SWEEP_POINTS)] + el + sigma0
        elif command == "calibrate":
            argv = ["--seed", str(p["seed"])]
        elif command == "measure":
            argv = [f"--yp={p['yp']!r}", "--n", str(self.MEASURE_N), "--seed", str(p["seed"]),
                    "--electrode", variant]
        elif command == "extract":
            path, electrode, _ = p[f"cv_{variant}"]
            argv = ["--data", path, "--electrode", electrode.value]
        else:
            argv = []
        return [command] + argv + ["--out", out], out

    def run(self, i: int):
        argv, _ = self._argv(i)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return pl_cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code

    def _expect(self, i: int, make):
        if i not in self._expected:
            self._expected[i] = make()
        return self._expected[i]

    def check(self, i: int, rc) -> dict:
        _, out = self._argv(i)
        kind = self.label(i)
        command, _, variant = kind.partition(":")
        p = self.params[i // len(self.CYCLE)]
        if command == "extract":
            return self._check_extract(i, rc, out, *p[f"cv_{variant}"])
        if rc != 0:
            raise CheckFailed(f"{kind} exited with {rc!r}")
        model = pl.build_model(sigma0=p["sigma0"])
        default = pl.build_model()
        el = p["electrode"]
        if command == "design":
            report = _read_json(os.path.join(out, "design_report.json"))
            _close([float(report["y_p_min_m"]), float(report["y_p_max_m"])],
                   [default.y_p_min, default.y_p_max], 1e-15, "design touch limits")
            _, rows = _read_csv(os.path.join(out, "design_profile.csv"))
            if len(rows) != 2 * 201:
                raise CheckFailed(f"design_profile.csv has {len(rows)} rows")
        elif command == "curves":
            name = {"capacitance": "curves_capacitance.csv", "force": "curves_force.csv",
                    "film-beam": "curves_film_beam.csv"}[variant]
            _, rows = _read_csv(os.path.join(out, name))
            data = np.array(rows, dtype=float)
            if variant == "film-beam":
                y = data[:self.CURVE_POINTS, 1]
                models = [pl.build_model(sigma0=s) for s in (100e6, 200e6, 300e6)]
                _close(data[:, 2], np.concatenate([pl.film_force(y, m) - y / pl.compliance(m)
                                                   for m in models]),
                       1e-12, "film-beam force")
            else:
                kernel = pl.capacitance_curve if variant == "capacitance" else pl.force_per_v2_value
                y = data[:, 0]
                _close(data[:, 1:], np.column_stack([kernel(y, default, TOP),
                                                     kernel(y, default, BOTTOM)]),
                       1e-12, f"{variant} curve")
        elif command == "equilibrium":
            res = _read_json(os.path.join(out, "equilibrium.json"))
            sol = self._expect(i, lambda: pl.solve_equilibrium(
                model, *((p["v"], 0.0) if el is TOP else (0.0, p["v"]))))
            _close(float(res["y_p_m"]), sol.y_p, 1e-12, "equilibrium y_p")
        elif command == "pullin":
            res = _read_json(os.path.join(out, "pullin.json"))
            pi = self._expect(i, lambda: pl.pull_in_voltage(model, el))
            _close(float(res["V_pull_in_V"]), pi.V_pull_in, 1e-9, "pull-in voltage")
        elif command == "sweep":
            _, rows = _read_csv(os.path.join(out, "sweep.csv"))
            sweep = self._expect(i, lambda: pl.sweep_voltage(
                model, el, np.linspace(0.0, p["v_max"], self.SWEEP_POINTS).tolist()))
            if sweep.truncated_at is not None or len(rows) != self.SWEEP_POINTS:
                raise CheckFailed(f"sweep below pull-in has {len(rows)} rows")
            _close(np.array(rows, dtype=float)[:, 1], [r.y_p for r in sweep.records], 1e-12,
                   "sweep y_p")
        elif command == "calibrate":
            fit = _read_json(os.path.join(out, "calibration_fit.json"))
            g = default.geom
            _close(float(fit["slope_F_m"]), default.constants.eps0 * g.w_p * g.l_p, 1e-9,
                   "noise-free calibration slope")
        elif command == "measure":
            _, rows = _read_csv(os.path.join(out, "measurement.csv"))
            expected = self._expect(i, lambda: [s.C_meas for s in pl.measure_capacitance(
                pl.capacitance_value(p["yp"], default, pl.Electrode(variant)),
                pl.NoiseModel(sigma_C=1e-16, dt=1e-2, seed=p["seed"]), self.MEASURE_N)])
            _close(np.array(rows, dtype=float)[:, 1], expected, 1e-15, "measured C")
        return {"bytes_written": _bytes_in(out)}

    def _check_extract(self, i, rc, out, path, electrode, sigma0) -> dict:
        res = _read_json(os.path.join(out, "extract_result.json"))
        self.sigma0_err[i] = abs(float(res["sigma0_hat_Pa"]) - sigma0) / abs(sigma0)
        fit = self._expect(i, lambda: pl.fit_film_parameters(
            pl.load_cv_csv(path, electrode), pl.build_model()))
        # exit 4 with the result written is how the cli reports a fit that did not converge
        if (rc, res["converged"]) not in ((0, True), (4, False)) or \
                res["converged"] is not fit.converged:
            raise CheckFailed(f"extract exited with {rc!r}, converged={res['converged']!r}; "
                              f"the library fit has converged={fit.converged!r}")
        _close(float(res["sigma0_hat_Pa"]), fit.sigma0_hat, 1e-9, "extracted sigma0")
        _close(float(res["iterations"]), fit.iterations, 0.0, "Gauss-Newton iterations")
        return {"bytes_written": _bytes_in(out), "gn_iterations": res["iterations"],
                "nonconverged": int(not fit.converged)}

    def quality(self, prefix: int) -> dict:
        errs = [e for i, e in self.sigma0_err.items() if i < prefix]
        return {"sigma0_err_p50": float(np.median(errs))}


def _bytes_in(directory) -> int:
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


WORKLOADS = {"forward": Forward, "readout": Readout, "cli": Cli}
