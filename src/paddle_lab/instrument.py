"""Virtual measurement electronics for the paddle capacitor.

In the bridge this models, two generators drive the unknown and a reference
capacitor 180 degrees out of phase; the summed currents null when
V1*C_paddle = V2*C_ref, so the normalized imbalance is the observable and
the whole lock-in chain collapses to that bilinear form. No function here
computes the bridge: a reading is the capacitance plus white Gaussian noise
in farads (NoiseModel), with a fixed seed making every stream reproducible.

A stream of readings is held as columns: measure_capacitance returns a
MeasurementStream of the sample times and readings as two read-only
float64 arrays, which builds a MeasurementSample only when the stream is
iterated. It forms both in place, dt times 1, 2, ..., n and C_true added to
the noise draws, which NoiseModel.draw scales in place: the bits of the
same expressions out of place. A spacer calibration stays on Python floats:
calibration_table's rows and calibration_fit's sums over their columns.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .electrostatics import Electrode, capacitance_slope, parallel_plate_capacitance
from .errors import DegenerateData, InsufficientData, InvalidParameter
from .model import ValidatedModel


@dataclass(frozen=True)
class NoiseModel:
    sigma_C: float = 1e-16  # capacitance noise std, F
    dt: float = 1e-2        # sample interval, s
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma_C < math.inf:
            raise InvalidParameter("sigma_C", f"must be finite and >= 0, got {self.sigma_C!r}")
        if not 0.0 < self.dt < math.inf:
            raise InvalidParameter("dt", f"must be finite and > 0, got {self.dt!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise InvalidParameter("seed", f"must be an integer >= 0, got {self.seed!r}")

    def draw(self, n: int) -> np.ndarray:
        """n noise values, sigma_C times standard normals from a fresh RNG seeded with seed.

        The one place seeded noise is drawn: a given (noise, n) always yields
        the same values and concurrent calls never share state. Noise-free
        (sigma_C = 0) draws are zeros and build no generator. Raises
        InvalidParameter("sigma_C") when a value would overflow the float
        range, which takes sigma_C > 1 (a normal draw is finite).
        """
        if self.sigma_C == 0.0:
            return np.zeros(n)
        z = np.random.default_rng(self.seed).standard_normal(n)
        if self.sigma_C > 1.0 and z.size:  # checked on Python floats: no NumPy overflow warning
            peak = float(np.abs(z).max())
            if not self.sigma_C * peak < math.inf:
                raise InvalidParameter("sigma_C", f"noise of std {self.sigma_C!r} overflows the "
                                                  f"float range: {n} draws reach {peak!r} std")
        z *= self.sigma_C  # in place, with the bits of sigma_C * z
        return z


_FLOAT64 = np.dtype(np.float64)  # the dtype of a float column, as _columns takes it


def _read_only(col: np.ndarray) -> np.ndarray:
    """col if read-only, else a read-only view of it (no copy; col keeps its flags)."""
    if col.flags.writeable:
        col = col.view()
        col.setflags(write=False)  # cheaper than setting flags.writeable, with the same effect
    return col


def _columns(obj, **dtypes) -> int:
    """Make each named field of the frozen dataclass obj a 1-D array of its dtype
    (an np.dtype, such as _FLOAT64), kept if it already is one, and read-only
    (_read_only), so no later write bypasses this check; all must have one
    length, which is returned. A field that is already an ndarray of its
    dtype skips np.asarray."""
    n = None
    for name, dtype in dtypes.items():
        col = getattr(obj, name)
        if type(col) is not np.ndarray or col.dtype is not dtype:
            try:
                col = np.asarray(col, dtype=dtype)
            except (TypeError, ValueError) as exc:
                raise InvalidParameter(name, f"must be a column of {dtype}: {exc}") from None
        if col.ndim != 1 or n not in (None, col.size):
            raise InvalidParameter(name, f"must be 1-D and as long as the other columns, "
                                         f"got shape {col.shape}")
        n = col.size
        object.__setattr__(obj, name, _read_only(col))
    return n


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    t: float       # s
    C_meas: float  # F


@dataclass(frozen=True, eq=False)
class MeasurementStream:
    """A stream of readings as columns: element i of t (s) and of C_meas (F),
    1-D float64 arrays of one length (_columns), is the i-th reading.

    len is the number of readings; iteration builds one MeasurementSample
    per reading, with the bits of the columns as Python floats. Streams
    compare by identity; compare their columns for equal readings.
    """

    t: np.ndarray
    C_meas: np.ndarray

    def __post_init__(self):
        _columns(self, t=_FLOAT64, C_meas=_FLOAT64)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        return map(MeasurementSample, self.t.tolist(), self.C_meas.tolist())


@dataclass(frozen=True)
class CalibrationFit:
    slope: float         # F*m, eps0*area for an ideal plate
    intercept: float     # F, zero unless stray capacitance is present
    r2: float
    implied_area: float  # m^2, slope/eps0


def measure_capacitance(C_true: float, noise: NoiseModel, n: int) -> MeasurementStream:
    """n noisy readings of a fixed capacitance at sample times t = dt, 2*dt, ...

    The readings are C_true plus noise.draw(n), so a given (noise, n)
    always yields the same stream. No MeasurementSample is built. Raises
    InvalidParameter("n" or "dt") when n or n*dt exceeds the float range.
    """
    if not 0.0 < C_true < math.inf:
        raise InvalidParameter("C_true", f"must be finite and > 0, got {C_true!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameter("n", f"must be an integer >= 1, got {n!r}")
    if n > sys.float_info.max:  # n*dt has no float to check
        raise InvalidParameter("n", f"must be at most {sys.float_info.max!r}, got {len(str(n))} digits")
    if not float(noise.dt) * int(n) < math.inf:  # Python floats: no NumPy overflow warning
        raise InvalidParameter("dt", f"the last sample time n*dt must be finite, "
                                     f"got dt={noise.dt!r} and n={n!r}")
    # in place, with the bits of dt * np.arange(1, n + 1) and C_true + noise.draw(n)
    t = np.arange(1.0, n + 1.0)
    t *= noise.dt
    C_meas = noise.draw(n)
    C_meas += C_true
    return MeasurementStream(t, C_meas)


def resolvable_displacement(model: ValidatedModel, at_y_p: float,
                            noise: NoiseModel) -> float:
    """Smallest deflection change distinguishable from one sample's noise.

    Computed as sigma_C over the exact local top-electrode capacitance
    slope (capacitance_slope).
    """
    return noise.sigma_C / abs(capacitance_slope(at_y_p, model, Electrode.TOP))


def calibration_table(model: ValidatedModel, spacers,
                      noise: NoiseModel) -> list[tuple[float, float, float]]:
    """(spacer, 1/spacer, measured C) rows for a flat paddle at each spacer gap.

    Spacer shims hold the undeflected paddle at a known parallel gap, so
    the ideal reading is eps0*area/spacer plus one noise draw per row.
    """
    spacers = sorted(float(s) for s in spacers)
    for s in spacers:
        if not 0.0 < s < math.inf:
            raise InvalidParameter("spacers",
                                   f"spacer thickness must be finite and > 0, got {s!r}")
    area, eps0 = model.geom.w_p * model.geom.l_p, model.constants.eps0
    return [(s, 1.0 / s, parallel_plate_capacitance(area, s, eps0) + dC)
            for s, dC in zip(spacers, noise.draw(len(spacers)).tolist())]


def calibration_fit(model: ValidatedModel, rows) -> CalibrationFit:
    """Least-squares line of C versus 1/spacer through calibration_table rows.

    The intercept is fitted rather than forced through the origin so a
    stray-capacitance offset would show up; for an ideal plate the slope
    is eps0*area, the intercept vanishes and r2 = 1. The line is the
    closed-form centered one, slope = sum(dx*dC)/sum(dx^2) with dx and dC
    the deviations from the means x_bar and C_bar and
    intercept = C_bar - slope*x_bar, every sum taken by math.fsum. Raises
    DegenerateData, naming the spacers, when the line leaves the float64
    range: sum(dx^2) not a normal float, or a sum or result not finite.
    """
    distinct = {row[0] for row in rows}
    if len(distinct) < 3:
        raise InsufficientData(
            f"calibration needs >= 3 distinct spacers, got {len(distinct)}")
    n = len(rows)
    _, x, C = zip(*rows)
    # fsum and ** raise OverflowError past the float range, and fsum ValueError on rows
    # holding both infinities; a spread that underflows to 0 divides by 0
    try:
        x_mean = math.fsum(x) / n
        C_mean = math.fsum(C) / n
        dx = [x_i - x_mean for x_i in x]
        dC = [C_i - C_mean for C_i in C]
        ss_x = math.fsum(map(operator.mul, dx, dx))
        slope = math.fsum(map(operator.mul, dx, dC)) / ss_x
        intercept = C_mean - slope * x_mean
        ss_res = math.fsum((C_i - (slope * x_i + intercept)) ** 2 for x_i, C_i in zip(x, C))
        ss_tot = math.fsum(map(operator.mul, dC, dC))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    except (OverflowError, ValueError, ZeroDivisionError):
        ss_x = ss_tot = slope = intercept = r2 = math.nan
    implied_area = slope / model.constants.eps0
    # the squared spread of 1/spacer must be a normal float: subnormal (underflowed) leaves the
    # slope few digits, inf (overflowed) makes it 0; an infinite ss_tot makes r2 1. Checked
    # before the clamp, which would turn a NaN r2 into 1.
    if not (sys.float_info.min <= ss_x < math.inf
            and all(map(math.isfinite, (ss_tot, slope, intercept, r2, implied_area)))):
        raise DegenerateData(f"spacers {sorted(distinct)!r}: the line of C versus 1/spacer "
                             f"leaves the float64 range (slope {slope!r}, intercept "
                             f"{intercept!r}, r2 {r2!r})")
    return CalibrationFit(slope=slope, intercept=intercept, r2=max(0.0, min(1.0, r2)),
                          implied_area=implied_area)


def calibrate(model: ValidatedModel, spacers, noise: NoiseModel) -> CalibrationFit:
    """The line of a spacer sweep: calibration_table, then _noisy_fit."""
    return _noisy_fit(model, spacers, noise, calibration_table(model, spacers, noise))


def _noisy_fit(model: ValidatedModel, spacers, noise: NoiseModel, rows) -> CalibrationFit:
    """calibration_fit of rows, the calibration_table of spacers under noise.

    A line that leaves the float64 range only under the noise, the
    noise-free rows of the same spacers giving one, raises
    InvalidParameter("sigma_C") in place of the DegenerateData.
    """
    try:
        return calibration_fit(model, rows)
    except DegenerateData as exc:
        if noise.sigma_C == 0.0:
            raise
        try:
            calibration_fit(model, calibration_table(model, spacers, NoiseModel(sigma_C=0.0)))
        except DegenerateData:
            raise exc from None
        raise InvalidParameter("sigma_C", f"noise of std {noise.sigma_C!r} takes the "
                                          f"calibration line out of the float64 range: "
                                          f"{exc}") from None
