"""Inverse problem: recover film parameters from voltage-capacitance data.

The force balance sees the film only as the pair (prestress, k) that
ValidatedModel forms, F(y_p) = k*(y0 - y_p) - c/(g0*g1) with y0 =
prestress/k the rest deflection and k the total stiffness. So the fit of
the residual stress sigma0 and the stiffness-volume product E_F*V_F runs in
theta = (y0, k), where J^T J is conditioned about 10 instead of 1e5 to 2e6
(Bates & Watts, J. R. Stat. Soc. B 42, 1980), and maps back by E_F*V_F =
(k - 1/compliance)/a^2 and sigma0 = y0*k*E_F*a/(k - 1/compliance), with a
the strain coupling and the template's E_F. It is damped Gauss-Newton on
the capacitance residuals with the exact Jacobian of the branch solve:
each trial theta forms both in one pass (_PreparedFit.residuals), and the
fit keeps the Jacobian of its accepted theta for the next step and for the
standard errors, which it reports by the delta method. Only the per-row
work runs on arrays: the 2-parameter algebra (the pre-fit line, each
step's 2x2 normal equations, the inverse and condition number of J^T J)
takes closed forms on Python floats, and every row sum is np.add.reduce
of the elementwise products (_dot), NumPy's pairwise order, so a
full-rank fit makes no BLAS or LAPACK call. Its data, a CVDataset, are
the columns V, C and electrode, which simulate_cv and load_cv_csv build.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .electrostatics import (_SERIES_U, _SLOPE_SERIES_U, Electrode,
                             _capacitance_terms, _gap_terms, _series_mask, _slope_terms,
                             capacitance_range, capacitance_value, force_per_v2_value,
                             invertible, yp_from_capacitance)
from .errors import DegenerateData, InsufficientData, InvalidParameter, OutOfRange
from .instrument import MeasurementStream, NoiseModel, _columns, _read_only
from .mechanics import StableBranch, _Drive, _sweep_poses, film_stiffness
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
    cond: float          # condition number of J^T J in (y0, k), columns scaled to unit norm:
                         # (1 + |rho|)/(1 - |rho|), rho the columns' correlation (_error_bars)


def simulate_cv(model: ValidatedModel, electrode: Electrode, V_list,
                noise: NoiseModel | None = None) -> CVDataset:
    """Forward-generated dataset: a voltage sweep read out as capacitance.

    sweep_voltage's solve gives the equilibria, with its ordering, its
    truncation at pull-in and its errors, but none of its force or C_top
    columns, and each pose is read as the capacitance of the energized
    electrode, which is also the sensed one. Voltages past
    pull-in yield no row. Optional per-row Gaussian noise is seeded through
    the NoiseModel, keeping datasets reproducible.
    """
    electrode = Electrode(electrode)
    V, y, _ = _sweep_poses(model, electrode, V_list)
    C = capacitance_value(y, model, electrode)
    if noise is not None and noise.sigma_C > 0.0:
        C = C + noise.draw(C.size)
    return CVDataset(V, C, np.full(C.size, electrode.value))


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
    from 0 over the lines after the header, blank lines included. The file
    is read as UTF-8 whatever the locale, a leading byte-order mark dropped.
    A file that is not CSV text (undecodable bytes, a field past the csv
    module's size limit) raises InvalidParameter("data") too.
    """
    electrode = Electrode(electrode)
    try:
        V, C = _read_cv_rows(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidParameter("data", f"{path}: not a CSV text file: {exc}") from None
    return CVDataset(np.array(V), np.array(C), np.full(len(V), electrode.value))


def _read_cv_rows(path) -> tuple[list, list]:
    """load_cv_csv's V and C lists, each row checked."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    return V, C


class _PreparedFit:
    """Everything of one fit that does not depend on theta = (y0, k).

    Built once per fit: the data's V and C columns, the template's strain
    coupling a, beam stiffness 1/compliance and travel y_p_max - y_p_min
    (the scale of y0) and, per electrode in order of first appearance, its
    row indices, its measured C and its voltages prepared for the branch
    solve (mechanics._Drive). A trial theta builds no model: per electrode,
    it costs one branch solve and one gap-line pass that gives the rows'
    residuals and their Jacobian (residuals).
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
        """(r, J) at theta: the capacitance residuals and their exact Jacobian
        d(r)/d(y0, k), or None where the residual is undefined.

        The film pair is (y0*k, k), solved on the template's geometry. None
        unless y0 is finite and 1/compliance <= k < inf (E_F*V_F >= 0, as a
        model's film requires), and where a row has no stable equilibrium.
        With F = k*(y0 - y_p) - c/(g0*g1), dF/dy0 = k and dF/dk = y0 - y_p,
        so each row's dC/dtheta = C'(y_p)*(-dF/dtheta)/(dF/dy_p), with
        dF/dy_p from StableBranch._force_slope at the solved poses. Per
        electrode, the branch is solved once, and one gap-line pass with one
        u = delta/g0 and one ln(1+u) at its poses gives both C and C', each
        helper with its own series mask, so they have capacitance_value's
        and capacitance_slope's bits. The branch keeps its poses inside the
        touch interval: no touch check.
        """
        y0, k = float(theta[0]), float(theta[1])
        if not (math.isfinite(y0) and self.inv_c <= k < math.inf):
            return None
        r, J = np.empty(self.C.size), np.empty((self.C.size, 2))
        c = self.template.eps0_area
        for e, rows, C, drive in self.groups:
            branch = StableBranch(self.template, e, (y0 * k, k))
            y, error = branch._roots(drive)
            if error is not None:
                return None
            g0, delta = _gap_terms(y, self.template, e)
            u = delta / g0
            log1p_u = np.log1p(u)
            r[rows] = _capacitance_terms(c, g0, delta, u, log1p_u,
                                         _series_mask(u, _SERIES_U)) - C
            slope = -branch.s * _slope_terms(c, branch.cr, branch.tilt, g0, u, log1p_u,
                                             _series_mask(u, _SLOPE_SERIES_U))
            dC_dF = slope / -branch._force_slope(drive, y)
            J[rows, 0] = dC_dF * branch.k
            J[rows, 1] = dC_dF * (branch.rest - y)
        return r, J

    def film(self, theta) -> tuple[float, float]:
        """(sigma0, E_F*V_F) of theta = (y0, k); sigma0 is NaN when k_f = k - 1/compliance is 0."""
        y0, k = float(theta[0]), float(theta[1])
        k_f = k - self.inv_c
        sigma0 = y0 * k * self.template.film.E_F * self.a / k_f if k_f > 0.0 else math.nan
        return sigma0, k_f / (self.a * self.a)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The row sum of a*b, in NumPy's pairwise order (np.add.reduce), not a BLAS kernel's."""
    return float(np.add.reduce(a * b))


def _normal(J: np.ndarray) -> tuple[float, float, float]:
    """J^T J of an (n, 2) J as its entries (J0.J0, J0.J1, J1.J1), J0 and J1 its columns."""
    J0, J1 = J[:, 0], J[:, 1]
    return _dot(J0, J0), _dot(J0, J1), _dot(J1, J1)


def _line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(intercept, slope) of the least-squares line y = intercept + slope*x, centred:
    slope = sum(dx*dy)/sum(dx*dx) with dx, dy the deviations from the means."""
    n = x.size
    x_mean, y_mean = float(np.add.reduce(x)) / n, float(np.add.reduce(y)) / n
    dx = x - x_mean
    slope = _dot(dx, y - y_mean) / _dot(dx, dx)
    return y_mean - slope * x_mean, slope


def _initial_guess(fit: _PreparedFit) -> tuple[float, float]:
    """Linear pre-fit of the force balance after inverting each C to y_p, as (y0, k).

    At equilibrium p - k_f*y = y/compliance - f(y)*V^2 with p the prestress
    force a*sigma0*V_F and k_f the film stiffness EFVF*a^2; the right side
    uses only shared geometry, so (p, k_f) come from a least-squares line in
    y (_line, closed form), and theta = (p/k, k) with k = k_f + 1/compliance.
    Each electrode's invertible rows are inverted in one array call; the
    other rows are skipped. If the stiffness estimate is unusable (fewer than
    two rows, a deflection spread max(y) - min(y) of at most 1e-6 max|y|, or
    k_f <= 0) the template's film stiffness is kept and only p is
    re-estimated. With no invertible row the data hold no deflection to
    start from: DegenerateData names each electrode's attainable range.
    """
    template = fit.template
    inv_c = fit.inv_c
    y, f = np.full(fit.C.size, np.nan), np.empty(fit.C.size)
    for e, rows, C, _ in fit.groups:
        rows = rows[invertible(C, template, e)]
        y[rows] = yp_from_capacitance(fit.C[rows], template, e)
        f[rows] = force_per_v2_value(y[rows], template, e)
    kept = ~np.isnan(y)
    if not kept.any():
        ranges = "; ".join(f"{e.value} {capacitance_range(template, e)!r}" for e, *_ in fit.groups)
        raise DegenerateData(f"no reading lies inside its electrode's attainable capacitance "
                             f"range (c_min, c_max), F: {ranges}")
    ys, V = y[kept], fit.V[kept]
    bs = ys * inv_c - f[kept] * V * V
    lo, hi = float(ys.min()), float(ys.max())
    y_scale = max(-lo, hi)
    k_f = math.nan
    if len(ys) >= 2 and y_scale > 0.0 and hi - lo > 1e-6 * y_scale:
        p, slope = _line(ys, bs)
        k_f = -slope
    if not (math.isfinite(k_f) and k_f > 0.0):
        # fall back to the template's film stiffness, fit the offset alone
        k_f = film_stiffness(template)
        p = float(np.mean(bs + k_f * ys))
    k = k_f + inv_c
    return p / k, k


def _step(J: np.ndarray, r: np.ndarray, s0: float, s1: float) -> tuple[float, float]:
    """The Gauss-Newton step for the residuals r with Jacobian J, in the
    coordinates theta/(s0, s1): the solution of (S J^T J S) x = -S J^T r,
    S = diag(s0, s1), by the 2x2 closed form. Where that determinant is not
    positive and finite (J^T J singular to rounding, or overflowing), the
    least-squares solution of (J S) x = -r on a finite J, and NaN on a J
    with a non-finite entry.
    """
    a, b, c = _normal(J)
    a, b, c = a * s0 * s0, b * s0 * s1, c * s1 * s1
    g0, g1 = -_dot(J[:, 0], r) * s0, -_dot(J[:, 1], r) * s1
    det = a * c - b * b
    if 0.0 < det < math.inf:
        return (c * g0 - b * g1) / det, (a * g1 - b * g0) / det
    if not np.isfinite(J).all():
        return math.nan, math.nan
    return tuple(np.linalg.lstsq(J * (s0, s1), -r, rcond=None)[0].tolist())


def _error_bars(fit: _PreparedFit, theta, J: np.ndarray, ssq: float):
    """(se of sigma0, se of E_F*V_F, their correlation, scaled cond(J^T J)).

    The delta method: the covariance of theta = (y0, k) is s^2*(J^T J)^-1
    with s^2 = ssq/(n - 2), mapped to (sigma0, E_F*V_F) through the
    Jacobian G of fit.film. J^T J = [[a, b], [b, c]] with its columns scaled
    to unit norm is [[1, rho], [rho, 1]], rho = b/sqrt(a*c), so its inverse
    and its condition number (1 + |rho|)/(1 - |rho|) take closed forms. All
    four are NaN when a*c is 0 or not finite (a zero or non-finite column),
    when |rho| rounds to 1 or more (J^T J singular), or when k_f = 0.
    """
    y0, k = float(theta[0]), float(theta[1])
    k_f = k - fit.inv_c
    nan = (math.nan,) * 4
    a, b, c = _normal(J)
    ac = a * c
    if not (k_f > 0.0 and 0.0 < ac < math.inf):
        return nan
    root = math.sqrt(ac)
    rho = b / root
    if not abs(rho) < 1.0:
        return nan
    q = (1.0 - rho) * (1.0 + rho)  # det(J^T J) = a*c*q
    i00, i01, i11 = 1.0 / (a * q), -rho / (root * q), 1.0 / (c * q)  # (J^T J)^-1
    EFa = fit.template.film.E_F * fit.a
    # G = [[g, h], [0, m]]; cov = G (J^T J)^-1 G^T over s^2
    g, h, m = k * EFa / k_f, -y0 * EFa * fit.inv_c / (k_f * k_f), 1.0 / (fit.a * fit.a)
    t0, t1 = g * i00 + h * i01, g * i01 + h * i11
    var0, cov01, var1 = t0 * g + t1 * h, t1 * m, m * i11 * m
    s2 = ssq / (J.shape[0] - 2)
    return (math.sqrt(s2 * var0), math.sqrt(s2 * var1), cov01 / math.sqrt(var0 * var1),
            (1.0 + abs(rho)) / (1.0 - abs(rho)))


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
    Non-convergence is reported in the flag, not raised. The error bars are
    those of the final theta, from the Jacobian its trial formed
    (_error_bars), NaN when the residual is undefined at the start.
    DegenerateData is raised when all rows share one voltage or when no
    reading is invertible on the template (_initial_guess).
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
        return FilmFitResult(*fit.film(theta), math.inf, 0, False, *(math.nan,) * 4)
    r, J = trial
    ssq = _dot(r, r)
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        s0, s1 = fit.travel, theta[1]
        step0, step1 = _step(J, r, s0, s1)
        rel_full = max(abs(step0), abs(step1))
        delta0, delta1 = step0 * s0, step1 * s1

        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            if rel_full * alpha < REL_STEP_TOL:
                # this step and every finer one are below tolerance: converged, theta kept
                converged = True
                break
            candidate = (theta[0] + alpha * delta0, theta[1] + alpha * delta1)
            trial = fit.residuals(candidate)
            if trial is not None:
                st = _dot(trial[0], trial[0])
                if st < ssq:
                    theta, (r, J), ssq = candidate, trial, st
                    break
            alpha *= 0.5
        else:
            break  # no step down to 2**-MAX_HALVINGS lowers the objective: stuck
        if converged:
            break

    return FilmFitResult(*fit.film(theta), math.sqrt(ssq / len(r)), iterations, converged,
                         *_error_bars(fit, theta, J, ssq))
