"""Inverse problem: recover film parameters from voltage-capacitance data.

The forward model depends on the film only through the residual stress
sigma0 and the stiffness-volume product E_F*V_F, so those two are the fit
parameters; E_F alone is not identifiable and the template's value is used
to express results. The fit is damped Gauss-Newton on the capacitance
residuals with a central-difference Jacobian. Its data, a CVDataset, are
the columns V, C and electrode, which simulate_cv and load_cv_csv build.

Each fit prepares once what does not depend on theta = (sigma0, E_F*V_F):
per electrode, the row indices, the measured C and the voltages with V^2
and their force terms (_PreparedFit). A trial theta then costs one
validated model with the film replaced, and per electrode one closed-form
branch solve and one capacitance evaluation.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .electrostatics import (Electrode, capacitance_value, force_per_v2_value,
                             invertible, yp_from_capacitance)
from .errors import (DegenerateData, InsufficientData, InvalidParameter,
                     OutOfRange, TouchViolation)
from .instrument import MeasurementStream, NoiseModel, _columns, _read_only
from .mechanics import (StableBranch, _Drive, compliance, film_stiffness, sorted_voltages,
                        strain_coupling)
from .model import ValidatedModel

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


@dataclass(frozen=True, eq=False)  # == on array fields would raise
class CVDataset:
    """C-V data as columns: row i is voltage V[i] (V) and capacitance C[i] (F)
    sensed on electrode[i], a str array of 'top' or 'bottom' (an Electrode
    member counts as its name). Construction is the one check: 1-D columns
    of one length (_columns), at least 3 rows, and then the first bad row
    raises _check_row's error or InvalidParameter("electrode"). The columns
    are read-only, so no later write bypasses it."""

    V: np.ndarray
    C: np.ndarray
    electrode: np.ndarray

    def __post_init__(self):
        n = _columns(self, V=np.float64, C=np.float64, electrode=object)
        if n < 3:
            raise InsufficientData(f"need >= 3 rows, got {n}")
        V, C, names = self.V, self.C, self.electrode
        top, bottom = names == "top", names == "bottom"
        ok = (top | bottom) & (V >= 0.0) & (V < math.inf) & (C > 0.0) & (C < math.inf)
        if not ok.all():
            i = int(ok.argmin())
            _check_row(V[i].item(), C[i].item(), "", i)
            raise InvalidParameter("electrode", f"row {i}: must be 'top' or 'bottom', got {names[i]!r}")
        object.__setattr__(self, "electrode", _read_only(np.where(top, "top", "bottom")))

    @functools.cached_property
    def rows(self) -> tuple[CVRow, ...]:
        """The columns as one CVRow per row, built on first access.

        Kept only because the benchmark's `cli` set-up reads it. It gives the
        bits of the columns, as Python floats. The benchmark v2 item of
        ROADMAP.md moves that set-up onto the columns and deletes it, with
        CVRow.
        """
        return tuple(map(CVRow, self.V.tolist(), self.C.tolist(),
                         map(Electrode, self.electrode.tolist())))


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
    return CVDataset(voltages[:C.size], C, np.full(C.size, electrode.value))


def deflection_series(samples: MeasurementStream, model: ValidatedModel,
                      electrode: Electrode) -> list[tuple[float, float]]:
    """Convert a stream of timed capacitance readings to (t, y_p) by inverting C(y_p).

    The stream's C_meas column is inverted in one yp_from_capacitance call.
    The result is one (t, y_p) tuple of Python floats per reading, [] for
    an empty stream. A reading outside the attainable range raises
    OutOfRange naming the first such sample, its time and its index as
    `row`.
    """
    t = samples.t
    try:
        y = yp_from_capacitance(samples.C_meas, model, electrode)
    except OutOfRange as exc:
        i = exc.row
        raise OutOfRange(f"sample {i} (t={float(t[i])!r}): {exc}", row=i) from exc
    return list(zip(t.tolist(), y.tolist()))


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
        V, C = [], []
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
            V.append(v)
            C.append(c)
    return CVDataset(np.array(V), np.array(C), np.full(len(V), electrode.value))


class _PreparedFit:
    """Everything of one fit that does not depend on theta = (sigma0, E_F*V_F).

    Built once per fit: the data's V and C columns and, per electrode in
    order of first appearance, its row indices, its measured C and its
    voltages prepared for the branch solve (mechanics._Drive, which holds
    V^2 and the drive's force terms). _initial_guess reads the same groups.
    """

    def __init__(self, data: CVDataset, template: ValidatedModel):
        self.template = template
        self.V, self.C = data.V, data.C
        self.groups = []
        for name in dict.fromkeys(data.electrode.tolist()):
            e, rows = Electrode(name), np.flatnonzero(data.electrode == name)
            self.groups.append((e, rows, self.C[rows],
                                _Drive(StableBranch(template, e), self.V[rows])))

    def residuals(self, theta):
        """Capacitance residual vector at theta, or None if the model fails there.

        Only the film is derived per theta: the trial model replaces the
        template's film by (sigma0, E_F*V_F), keeping E_F and A_F and
        realizing the product through t_F, which the forward model only sees
        through V_F. Constructing it is the model's one validity check. Each
        electrode's prepared voltages are then solved on the trial film's
        branch, and the capacitance is evaluated on the template, whose
        geometry the film does not change.
        """
        template = self.template
        film = template.film
        try:
            m = ValidatedModel(template.constants, template.geom, template.substrate,
                               dataclasses.replace(film, sigma0=float(theta[0]),
                                                   t_F=float(theta[1]) / (film.E_F * film.A_F)))
        except InvalidParameter:
            return None
        res = np.empty(self.C.size)
        for e, rows, C, drive in self.groups:
            y, error = StableBranch(m, e)._roots(drive)
            if error is not None:
                return None
            try:
                res[rows] = capacitance_value(y, template, e) - C
            except TouchViolation:
                return None
        return res


def _initial_guess(fit: _PreparedFit) -> np.ndarray:
    """Linear pre-fit of the force balance after inverting each C to y_p.

    At equilibrium p - k_f*y = y/compliance - f(y)*V^2 with p the prestress
    force a*sigma0*V_F and k_f the film stiffness EFVF*a^2; the right side
    uses only shared geometry, so (p, k_f) come from linear least squares.
    Each electrode's invertible rows are inverted in one array call; the
    other rows are skipped. If the stiffness estimate is unusable (fewer
    than two rows, no deflection spread, or k_f <= 0) the template's EFVF
    is kept and only p is re-estimated.
    """
    template = fit.template
    EFVF0 = template.film.E_F * template.V_F
    a = strain_coupling(template)
    inv_c = 1.0 / compliance(template)
    y, f = np.full(fit.C.size, np.nan), np.empty(fit.C.size)
    for e, rows, C, _ in fit.groups:
        rows = rows[invertible(C, template, e)]
        y[rows] = yp_from_capacitance(fit.C[rows], template, e)
        f[rows] = force_per_v2_value(y[rows], template, e)
    kept = ~np.isnan(y)
    if not kept.any():
        return np.array([template.film.sigma0, EFVF0])
    ys, V = y[kept], fit.V[kept]
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

    The data are grouped by electrode and their voltages prepared for the
    branch solve once per fit (_PreparedFit); each residual vector then
    derives only the trial film, so every residual has the bits of one
    computed on a model rebuilt from scratch.
    """
    if data.V.min() == data.V.max():
        raise DegenerateData("all rows share one voltage; sigma0 and E_F*V_F "
                             "are not separately identifiable")
    EFVF_ref = model_template.film.E_F * model_template.V_F
    if EFVF_ref <= 0.0:
        raise InvalidParameter("model_template", "template film must have E_F*V_F > 0")

    def scales(theta):
        return np.array([max(abs(theta[0]), SIGMA0_SCALE_FLOOR),
                         max(abs(theta[1]), 1e-3 * EFVF_ref)])

    fit = _PreparedFit(data, model_template)
    theta = _initial_guess(fit)
    r = fit.residuals(theta)
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
            hi = fit.residuals(theta + h * np.eye(2)[j])
            lo = fit.residuals(theta - h * np.eye(2)[j])
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
            rt = fit.residuals(trial)
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
