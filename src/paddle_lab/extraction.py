"""Inverse problem: recover film parameters from voltage-capacitance data.

The force balance sees the film only as the pair (prestress, k) that
ValidatedModel forms, F(y_p) = k*(y0 - y_p) - c/(g0*g1) with y0 =
prestress/k the rest deflection and k the total stiffness. So the fit of
the residual stress sigma0 and the stiffness-volume product E_F*V_F runs in
theta = (y0, k), where J^T J is conditioned about 10 instead of 1e5 to 2e6
(Bates & Watts, J. R. Stat. Soc. B 42, 1980), and maps back by E_F*V_F =
(k - 1/compliance)/a^2 and sigma0 = y0*k*E_F*a/(k - 1/compliance), with a
the strain coupling and the template's E_F. It is damped Gauss-Newton on
the capacitance residuals with the exact Jacobian of the branch solve, and
reports standard errors by the delta method. Its data, a CVDataset, are
the columns V, C and electrode, which simulate_cv and load_cv_csv build.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .electrostatics import (Electrode, _capacitance_on_line, _gap_terms, _slope_on_line,
                             capacitance_value, force_per_v2_value, invertible,
                             yp_from_capacitance)
from .errors import DegenerateData, InsufficientData, InvalidParameter, OutOfRange
from .instrument import MeasurementStream, NoiseModel, _columns, _read_only
from .mechanics import StableBranch, _Drive, film_stiffness, sweep_voltage
from .model import ValidatedModel

MAX_ITERATIONS = 100
REL_STEP_TOL = 1e-10
MAX_HALVINGS = 20


@dataclass(frozen=True)
class CVRow:
    V: float
    C: float
    electrode: Electrode


def _check_row(V: float, C: float, prefix: str, i: int) -> None:
    """Raise InvalidParameter, named V or C, unless 0 <= V < inf, V*V < inf
    (mechanics._Drive's rule) and 0 < C < inf."""
    if not 0.0 <= V < math.inf:
        raise InvalidParameter("V", f"{prefix}row {i}: voltage must be finite and >= 0, got {V!r}")
    if not V * V < math.inf:
        raise InvalidParameter("V", f"{prefix}row {i}: voltage must have a finite square, got {V!r}")
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
        with np.errstate(over="ignore"):  # V*V < inf also refuses V = inf and NaN
            ok = (top | bottom) & (V >= 0.0) & (V * V < math.inf) & (C > 0.0) & (C < math.inf)
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
    sigma0_se: float     # Pa, standard error (delta method, see _error_bars)
    EFVF_se: float       # Pa*m^3, standard error
    corr: float          # correlation of the sigma0 and E_F*V_F estimates
    cond: float          # condition number of J^T J in (y0, k), columns scaled to unit norm


def simulate_cv(model: ValidatedModel, electrode: Electrode, V_list,
                noise: NoiseModel | None = None) -> CVDataset:
    """Forward-generated dataset: a voltage sweep read out as capacitance.

    sweep_voltage solves the equilibria, with its ordering, its truncation
    at pull-in and its errors, and each pose is read as the capacitance of
    the energized electrode, which is also the sensed one. Voltages past
    pull-in yield no row. Optional per-row Gaussian noise is seeded through
    the NoiseModel, keeping datasets reproducible.
    """
    electrode = Electrode(electrode)
    sweep = sweep_voltage(model, electrode, V_list)
    C = capacitance_value(sweep.y_p, model, electrode)
    if noise is not None and noise.sigma_C > 0.0:
        C = C + noise.draw(C.size)
    return CVDataset(sweep.V, C, np.full(C.size, electrode.value))


@dataclass(frozen=True, eq=False)
class DeflectionSeries:
    """deflection_series' result as columns: element i of t (s) and of y_p (m),
    1-D float64 arrays of one length (_columns), is the i-th reading's time
    and inverted deflection.

    len is the number of readings; iteration gives one (t, y_p) pair of
    Python floats per reading, with the bits of the columns. Series compare
    by identity; compare their columns for equal deflections.
    """

    t: np.ndarray
    y_p: np.ndarray

    def __post_init__(self):
        _columns(self, t=np.float64, y_p=np.float64)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        return zip(self.t.tolist(), self.y_p.tolist())


def deflection_series(samples: MeasurementStream, model: ValidatedModel,
                      electrode: Electrode) -> DeflectionSeries:
    """Convert a stream of timed capacitance readings to deflections by inverting C(y_p).

    The stream's C_meas column is inverted in one yp_from_capacitance call
    into the y_p column of a DeflectionSeries, whose t column is the
    stream's; an empty stream gives empty columns. A reading outside the
    attainable range raises OutOfRange naming the first such sample, its
    time and its index as `row`.
    """
    t = samples.t
    try:
        y = yp_from_capacitance(samples.C_meas, model, electrode)
    except OutOfRange as exc:
        i = exc.row
        raise OutOfRange(f"sample {i} (t={float(t[i])!r}): {exc}", row=i) from exc
    return DeflectionSeries(t, y)


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
    """Everything of one fit that does not depend on theta = (y0, k).

    Built once per fit: the data's V and C columns, the template's strain
    coupling a, beam stiffness 1/compliance and travel y_p_max - y_p_min
    (the scale of y0) and, per electrode in order of first appearance, its
    row indices, its measured C and its voltages prepared for the branch
    solve (mechanics._Drive). A trial theta builds no model: per electrode,
    it costs one branch solve and one capacitance evaluation, and an
    accepted one adds one capacitance slope for its Jacobian.
    """

    def __init__(self, data: CVDataset, template: ValidatedModel):
        self.template = template
        self.V, self.C = data.V, data.C
        self.a, self.inv_c = template.a, 1.0 / template.compliance
        self.travel = template.y_p_max - template.y_p_min
        self.groups = []
        for name in dict.fromkeys(data.electrode.tolist()):
            e, rows = Electrode(name), np.flatnonzero(data.electrode == name)
            self.groups.append((e, rows, self.C[rows],
                                _Drive(template, e, self.V[rows])))

    def residuals(self, theta):
        """(r, solved) at theta: the capacitance residuals and, per electrode,
        the trial branch and its rows' deflections, which jacobian reads.

        The film pair is (y0*k, k), solved on the template's geometry. None
        unless y0 is finite and 1/compliance <= k < inf (E_F*V_F >= 0, as a
        model's film requires), and where a row has no stable equilibrium.
        The branch keeps its poses inside the touch interval: no touch check.
        """
        y0, k = float(theta[0]), float(theta[1])
        if not (math.isfinite(y0) and self.inv_c <= k < math.inf):
            return None
        res, solved = np.empty(self.C.size), []
        for e, rows, C, drive in self.groups:
            branch = StableBranch(self.template, e, (y0 * k, k))
            y, error = branch._roots(drive)
            if error is not None:
                return None
            res[rows] = _capacitance_on_line(*_gap_terms(y, self.template, e), self.template) - C
            solved.append((branch, y))
        return res, solved

    def jacobian(self, solved) -> np.ndarray:
        """Exact d(residual)/d(y0, k) at the theta that residuals solved.

        With F = k*(y0 - y_p) - c/(g0*g1), dF/dy0 = k and dF/dk = y0 - y_p,
        so each row's dC/dtheta = C'(y_p)*(-dF/dtheta)/(dF/dy_p), with
        dF/dy_p from StableBranch._force_slope at the solved poses. No branch
        is solved again.
        """
        J = np.empty((self.C.size, 2))
        for (e, rows, _, drive), (branch, y) in zip(self.groups, solved):
            slope = _slope_on_line(*_gap_terms(y, self.template, e), self.template, e)
            dC_dF = slope / -branch._force_slope(drive, y)
            J[rows, 0] = dC_dF * branch.k
            J[rows, 1] = dC_dF * (branch.rest - y)
        return J

    def film(self, theta) -> tuple[float, float]:
        """(sigma0, E_F*V_F) of theta = (y0, k); sigma0 is NaN when k_f = k - 1/compliance is 0."""
        y0, k = float(theta[0]), float(theta[1])
        k_f = k - self.inv_c
        sigma0 = y0 * k * self.template.film.E_F * self.a / k_f if k_f > 0.0 else math.nan
        return sigma0, k_f / (self.a * self.a)


def _initial_guess(fit: _PreparedFit) -> np.ndarray:
    """Linear pre-fit of the force balance after inverting each C to y_p, as (y0, k).

    At equilibrium p - k_f*y = y/compliance - f(y)*V^2 with p the prestress
    force a*sigma0*V_F and k_f the film stiffness EFVF*a^2; the right side
    uses only shared geometry, so (p, k_f) come from linear least squares,
    and theta = (p/k, k) with k = k_f + 1/compliance. Each electrode's
    invertible rows are inverted in one array call; the other rows are
    skipped. If the stiffness estimate is unusable (fewer than two rows, no
    deflection spread, or k_f <= 0) the template's film stiffness is kept
    and only p is re-estimated. With no invertible row, or no finite
    estimate, the start is the template's own film.
    """
    template = fit.template
    inv_c = fit.inv_c
    y, f = np.full(fit.C.size, np.nan), np.empty(fit.C.size)
    for e, rows, C, _ in fit.groups:
        rows = rows[invertible(C, template, e)]
        y[rows] = yp_from_capacitance(fit.C[rows], template, e)
        f[rows] = force_per_v2_value(y[rows], template, e)
    kept = ~np.isnan(y)
    p = k_f = math.nan
    if kept.any():
        ys, V = y[kept], fit.V[kept]
        bs = ys * inv_c - f[kept] * V * V
        y_scale = float(np.max(np.abs(ys)))
        if len(ys) >= 2 and y_scale > 0.0 and np.ptp(ys) > 1e-6 * y_scale:
            design = np.column_stack([np.ones_like(ys), -ys / y_scale])
            coef, _, _, _ = np.linalg.lstsq(design, bs, rcond=None)
            p, k_f = float(coef[0]), float(coef[1]) / y_scale
        if not (np.isfinite(k_f) and k_f > 0.0):
            # fall back to the template's film stiffness, fit the offset alone
            k_f = film_stiffness(template)
            p = float(np.mean(bs + k_f * ys))
    k = k_f + inv_c
    if not (math.isfinite(p) and math.isfinite(k)):
        p, k = template.prestress, template.k
    return np.array([p / k, k])


def _error_bars(fit: _PreparedFit, theta, J: np.ndarray, ssq: float):
    """(se of sigma0, se of E_F*V_F, their correlation, scaled cond(J^T J)).

    The delta method: the covariance of theta = (y0, k) is s^2*(J^T J)^-1
    with s^2 = ssq/(n - 2), mapped to (sigma0, E_F*V_F) through the
    Jacobian G of fit.film. J^T J is inverted with its columns scaled to
    unit norm, and the condition number is that scaled matrix's. All four
    are NaN when J^T J is singular or k_f = 0.
    """
    y0, k = float(theta[0]), float(theta[1])
    k_f = k - fit.inv_c
    nan = (math.nan,) * 4
    if not k_f > 0.0:
        return nan
    JTJ = J.T @ J
    d = 1.0 / np.sqrt(np.diag(JTJ))
    scaled = JTJ * np.outer(d, d)
    try:
        inv = np.linalg.inv(scaled) * np.outer(d, d)
    except np.linalg.LinAlgError:
        return nan
    EFa = fit.template.film.E_F * fit.a
    G = np.array([[k * EFa / k_f, -y0 * EFa * fit.inv_c / (k_f * k_f)],
                  [0.0, 1.0 / (fit.a * fit.a)]])
    cov = G @ inv @ G.T  # covariance over s^2
    var = np.diag(cov)
    s2 = ssq / (J.shape[0] - 2)
    return (math.sqrt(s2 * var[0]), math.sqrt(s2 * var[1]),
            float(cov[0, 1] / math.sqrt(var[0] * var[1])), float(np.linalg.cond(scaled)))


def fit_film_parameters(data: CVDataset, model_template: ValidatedModel) -> FilmFitResult:
    """Least-squares (sigma0, E_F*V_F) from C-V data, damped Gauss-Newton in (y0, k).

    From the linear pre-fit (_initial_guess), each iteration solves for the
    step with the exact Jacobian of the accepted iterate, y0 scaled by the
    template's travel and k by itself, then halves it up to 20 times so the
    objective never increases. A step whose relative size is below 1e-10 is
    not tried: the fit stops there, converged, at the last accepted theta,
    whether that step is the full one or a halving of it. A line search
    that tries all 21 steps, every one above the tolerance, without lowering
    the objective stops the fit unconverged, as do 100 iterations.
    Non-convergence is reported in the flag, not raised. The
    error bars are those of the final theta (_error_bars), NaN when the
    residual is undefined at the start.
    """
    if data.V.min() == data.V.max():
        raise DegenerateData("all rows share one voltage; sigma0 and E_F*V_F "
                             "are not separately identifiable")
    if model_template.film.E_F * model_template.V_F <= 0.0:
        raise InvalidParameter("model_template", "template film must have E_F*V_F > 0")

    fit = _PreparedFit(data, model_template)
    theta = _initial_guess(fit)
    trial = fit.residuals(theta)
    if trial is None:
        sigma0, EFVF = fit.film(theta)
        return FilmFitResult(sigma0, EFVF, math.inf, 0, False, *(math.nan,) * 4)
    r, solved = trial
    ssq = float(r @ r)
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        scale = np.array([fit.travel, theta[1]])
        J = fit.jacobian(solved) * scale
        try:
            step = np.linalg.solve(J.T @ J, -(J.T @ r))
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        rel_full = float(np.max(np.abs(step)))
        delta = step * scale

        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            if rel_full * alpha < REL_STEP_TOL:
                # this step and every finer one are below tolerance: converged, theta kept
                converged = True
                break
            candidate = theta + alpha * delta
            trial = fit.residuals(candidate)
            if trial is not None:
                st = float(trial[0] @ trial[0])
                if st < ssq:
                    theta, (r, solved), ssq = candidate, trial, st
                    break
            alpha *= 0.5
        else:
            break  # no step down to 2**-MAX_HALVINGS lowers the objective: stuck
        if converged:
            break

    sigma0, EFVF = fit.film(theta)
    return FilmFitResult(sigma0, EFVF, float(np.sqrt(ssq / len(r))), iterations, converged,
                         *_error_bars(fit, theta, fit.jacobian(solved), ssq))
