"""Inverse problem: recover film parameters from voltage-capacitance data.

The forward model depends on the film only through the residual stress
sigma0 and the stiffness-volume product E_F*V_F, so those two are the fit
parameters; E_F alone is not identifiable and the template's value is used
to express results. The fit is damped Gauss-Newton on the capacitance
residuals with a central-difference Jacobian.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .electrostatics import (Electrode, capacitance_value, force_per_v2_value,
                             invertible, yp_from_capacitance)
from .errors import (DegenerateData, InsufficientData, InvalidParameter,
                     NoStableEquilibrium, OutOfRange, TouchViolation)
from .instrument import MeasurementSample, NoiseModel
from .mechanics import (StableBranch, compliance, film_stiffness, sorted_voltages,
                        strain_coupling)
from .model import ValidatedModel, model_from_dict, model_to_dict

MAX_ITERATIONS = 100
REL_STEP_TOL = 1e-10
JACOBIAN_REL_STEP = 1e-3
MAX_HALVINGS = 20

# Parameter scale floors guarding finite-difference steps near zero.
SIGMA0_SCALE_FLOOR = 1e6  # Pa


@dataclass(frozen=True)
class CVRow:
    V: float
    C: float
    electrode: Electrode


def _check_row(V: float, C: float, prefix: str, i: int) -> None:
    """Raise InvalidParameter, named V or C, unless 0 <= V < inf and 0 < C < inf."""
    if not 0.0 <= V < math.inf:
        raise InvalidParameter("V", f"{prefix}row {i}: voltage must be finite and >= 0, got {V!r}")
    if not 0.0 < C < math.inf:
        raise InvalidParameter("C", f"{prefix}row {i}: capacitance must be finite and > 0, got {C!r}")


@dataclass(frozen=True)
class CVDataset:
    rows: tuple[CVRow, ...]

    def __post_init__(self):
        if len(self.rows) < 3:
            raise InsufficientData(f"need >= 3 rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            _check_row(row.V, row.C, "", i)

    @property
    def voltages(self) -> np.ndarray:
        return np.array([row.V for row in self.rows])

    @property
    def capacitances(self) -> np.ndarray:
        return np.array([row.C for row in self.rows])


@dataclass(frozen=True)
class FilmFitResult:
    sigma0_hat: float    # Pa
    EFVF_hat: float      # Pa*m^3
    rms_residual: float  # F
    iterations: int
    converged: bool


def simulate_cv(model: ValidatedModel, electrode: Electrode, V_list,
                noise: NoiseModel | None = None) -> CVDataset:
    """Forward-generated dataset: equilibrium capacitance at each voltage.

    The energized electrode is also the sensed one. Voltages past pull-in
    yield no row. Optional per-row Gaussian noise is seeded through the
    NoiseModel, keeping datasets reproducible.
    """
    voltages = sorted_voltages(V_list, nonempty=False)
    branch = StableBranch(model, electrode)
    electrode = branch.electrode
    y = branch.solve_leading(voltages)
    C = capacitance_value(y, model, electrode)
    if noise is not None and noise.sigma_C > 0.0:
        C = C + noise.draw(len(C))
    return CVDataset(rows=tuple(CVRow(V=v, C=c, electrode=electrode)
                                for v, c in zip(voltages.tolist(), C.tolist())))


def deflection_series(samples: list[MeasurementSample], model: ValidatedModel,
                      electrode: Electrode) -> list[tuple[float, float]]:
    """Convert timed capacitance readings to (t, y_p) by inverting C(y_p).

    The whole stream is inverted in one yp_from_capacitance call on an array.
    """
    t = [sample.t for sample in samples]
    C = np.array([sample.C_meas for sample in samples], dtype=float)
    try:
        y = yp_from_capacitance(C, model, electrode)
    except OutOfRange as exc:
        i = exc.row
        raise OutOfRange(f"sample {i} (t={t[i]!r}): {exc}", row=i) from exc
    return list(zip(t, y.tolist()))


def load_cv_csv(path, electrode: Electrode) -> CVDataset:
    """Read a `V_volt,C_F` CSV into a dataset.

    Blank lines are skipped. A row error names the file and the row, counted
    from 0 over the lines after the header, blank lines included.
    """
    electrode = Electrode(electrode)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidParameter("data", f"{path}: empty file") from None
        if header != ["V_volt", "C_F"]:
            raise InvalidParameter("data", f"{path}: expected header 'V_volt,C_F', got {','.join(header)!r}")
        prefix = f"{path}: "
        rows = []
        for i, rec in enumerate(reader):
            if not rec:
                continue
            if len(rec) != 2:
                raise InvalidParameter("data", f"{path}: row {i}: expected 2 fields, got {len(rec)}")
            try:
                v, c = float(rec[0]), float(rec[1])
            except ValueError:
                raise InvalidParameter("data", f"{path}: row {i}: non-numeric field in {rec!r}") from None
            _check_row(v, c, prefix, i)
            rows.append(CVRow(V=v, C=c, electrode=electrode))
    return CVDataset(rows=tuple(rows))


def _with_film(template: ValidatedModel, sigma0: float, EFVF: float) -> ValidatedModel:
    """Template model with the film replaced by (sigma0, E_F*V_F).

    E_F and A_F are kept from the template; the product is realized by
    adjusting t_F, which the forward model only sees through V_F.
    """
    film = template.film
    return model_from_dict({**model_to_dict(template), "sigma0": sigma0,
                            "t_F": EFVF / (film.E_F * film.A_F)})


def _residuals(theta, data: CVDataset, template: ValidatedModel):
    """Capacitance residual vector at theta, or None if the model fails there."""
    try:
        m = _with_film(template, float(theta[0]), float(theta[1]))
    except InvalidParameter:
        return None
    electrodes = [row.electrode for row in data.rows]
    V, C = data.voltages, data.capacitances
    res = np.empty(len(data.rows))
    for e in set(electrodes):
        rows = np.array([el is e for el in electrodes])
        try:
            y = StableBranch(m, e).solve(V[rows])
            res[rows] = capacitance_value(y, m, e) - C[rows]
        except (NoStableEquilibrium, TouchViolation, InvalidParameter):
            return None
    return res


def _initial_guess(data: CVDataset, template: ValidatedModel) -> np.ndarray:
    """Linear pre-fit of the force balance after inverting each C to y_p.

    At equilibrium p - k_f*y = y/compliance - f(y)*V^2 with p the prestress
    force a*sigma0*V_F and k_f the film stiffness EFVF*a^2; the right side
    uses only shared geometry, so (p, k_f) come from linear least squares.
    Each electrode's invertible rows are inverted in one array call; the
    other rows are skipped. If the stiffness estimate is unusable (fewer
    than two rows, no deflection spread, or k_f <= 0) the template's EFVF
    is kept and only p is re-estimated.
    """
    EFVF0 = template.film.E_F * template.V_F
    a = strain_coupling(template)
    inv_c = 1.0 / compliance(template)
    electrodes = [row.electrode for row in data.rows]
    V, C = data.voltages, data.capacitances
    y, f = np.full(len(C), np.nan), np.empty(len(C))
    for e in set(electrodes):
        rows = np.array([el is e for el in electrodes]) & invertible(C, template, e)
        y[rows] = yp_from_capacitance(C[rows], template, e)
        f[rows] = force_per_v2_value(y[rows], template, e)
    kept = ~np.isnan(y)
    if not kept.any():
        return np.array([template.film.sigma0, EFVF0])
    ys, V = y[kept], V[kept]
    bs = ys * inv_c - f[kept] * V * V
    y_scale = float(np.max(np.abs(ys)))
    p = k_f = float("nan")
    if len(ys) >= 2 and y_scale > 0.0 and np.ptp(ys) > 1e-6 * y_scale:
        design = np.column_stack([np.ones_like(ys), -ys / y_scale])
        coef, _, _, _ = np.linalg.lstsq(design, bs, rcond=None)
        p, k_f = float(coef[0]), float(coef[1]) / y_scale
    if not (np.isfinite(k_f) and k_f > 0.0):
        # fall back to the template's film stiffness, fit the offset alone
        k_f = film_stiffness(template)
        p = float(np.mean(bs + k_f * ys))
    EFVF_guess = k_f / (a * a)
    sigma0_guess = p * template.film.E_F / (a * EFVF_guess)
    if not (np.isfinite(sigma0_guess) and np.isfinite(EFVF_guess)):
        return np.array([template.film.sigma0, EFVF0])
    return np.array([sigma0_guess, EFVF_guess])


def fit_film_parameters(data: CVDataset, model_template: ValidatedModel) -> FilmFitResult:
    """Least-squares (sigma0, E_F*V_F) from C-V data, damped Gauss-Newton.

    Central-difference Jacobian with 1e-3 relative steps, step halving up
    to 20 times per iteration so the objective never increases, stopping
    when the relative step drops below 1e-10 or after 100 iterations. An
    exhausted line search whose finest attempted step was already below
    the tolerance counts as converged; non-convergence is reported in the
    flag, not raised.
    """
    if len({row.V for row in data.rows}) < 2:
        raise DegenerateData("all rows share one voltage; sigma0 and E_F*V_F "
                             "are not separately identifiable")
    EFVF_ref = model_template.film.E_F * model_template.V_F
    if EFVF_ref <= 0.0:
        raise InvalidParameter("model_template", "template film must have E_F*V_F > 0")

    def scales(theta):
        return np.array([max(abs(theta[0]), SIGMA0_SCALE_FLOOR),
                         max(abs(theta[1]), 1e-3 * EFVF_ref)])

    theta = _initial_guess(data, model_template)
    r = _residuals(theta, data, model_template)
    if r is None:
        return FilmFitResult(sigma0_hat=float(theta[0]), EFVF_hat=float(theta[1]),
                             rms_residual=float("inf"), iterations=0, converged=False)
    ssq = float(r @ r)
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        sc = scales(theta)
        J = np.empty((len(r), 2))
        bad_jacobian = False
        for j in range(2):
            h = JACOBIAN_REL_STEP * sc[j]
            hi = _residuals(theta + h * np.eye(2)[j], data, model_template)
            lo = _residuals(theta - h * np.eye(2)[j], data, model_template)
            if hi is None or lo is None:
                bad_jacobian = True
                break
            J[:, j] = (hi - lo) / (2.0 * h)
        if bad_jacobian:
            break

        g = J.T @ r
        try:
            delta = np.linalg.solve(J.T @ J, -g)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(J, -r, rcond=None)[0]
        rel_full = float(np.max(np.abs(delta) / sc))
        if rel_full < REL_STEP_TOL:
            converged = True
            break

        alpha = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            trial = theta + alpha * delta
            rt = _residuals(trial, data, model_template)
            if rt is not None:
                st = float(rt @ rt)
                if st < ssq:
                    theta, r, ssq = trial, rt, st
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            # nothing improves: converged if even the finest attempted step
            # was below tolerance, otherwise genuinely stuck
            converged = rel_full * 0.5**MAX_HALVINGS < REL_STEP_TOL
            break
        if rel_full * alpha < REL_STEP_TOL:
            converged = True
            break

    return FilmFitResult(sigma0_hat=float(theta[0]), EFVF_hat=float(theta[1]),
                         rms_residual=float(np.sqrt(ssq / len(r))),
                         iterations=iterations, converged=converged)
