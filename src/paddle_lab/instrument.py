"""Virtual measurement electronics for the paddle capacitor.

Two generators drive the unknown and a reference capacitor 180 degrees out
of phase; the summed currents null when V1*C_paddle = V2*C_ref, so the
normalized imbalance is the observable and the whole lock-in chain
collapses to that bilinear form. Readings pick up white Gaussian noise per
sample, with a fixed seed making every stream reproducible.

A stream of readings is held as columns: measure_capacitance returns a
MeasurementStream of the sample times and readings as two float64 arrays,
which builds a MeasurementSample only when the stream is iterated.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .electrostatics import Electrode, capacitance_slope, parallel_plate_capacitance
from .errors import InsufficientData, InvalidParameter
from .model import ValidatedModel


@dataclass(frozen=True)
class BridgeConfig:
    C_ref: float = 3e-12   # F
    V1: float = 1.0        # drive amplitude, V

    def __post_init__(self):
        if not 0.0 < self.C_ref < math.inf:
            raise InvalidParameter("C_ref", f"must be finite and > 0, got {self.C_ref!r}")
        if not 0.0 < self.V1 < math.inf:
            raise InvalidParameter("V1", f"must be finite and > 0, got {self.V1!r}")


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
        (sigma_C = 0) draws are zeros and build no generator.
        """
        if self.sigma_C == 0.0:
            return np.zeros(n)
        return self.sigma_C * np.random.default_rng(self.seed).standard_normal(n)


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    t: float       # s
    C_meas: float  # F


@dataclass(frozen=True, eq=False)
class MeasurementStream:
    """A stream of readings as columns: element i of t (s) and of C_meas (F),
    both float64 arrays, is the i-th reading.

    len is the number of readings; iteration builds one MeasurementSample
    per reading, with the bits of the columns as Python floats. Streams
    compare by identity; compare their columns for equal readings.
    """

    t: np.ndarray
    C_meas: np.ndarray

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


def bridge_output(C_paddle: float, cfg: BridgeConfig, V2: float) -> float:
    """Normalized bridge imbalance (V1*C_paddle - V2*C_ref) / (V1*C_ref).

    Evaluated as (V1*C_paddle/C_ref - V2) / V1, the same quantity with the
    division applied first; the nulling amplitude is computed by exactly
    this expression, so a balanced bridge reads identically zero instead
    of one rounding ulp.
    """
    return (cfg.V1 * C_paddle / cfg.C_ref - V2) / cfg.V1


def balance_bridge(C_paddle: float, cfg: BridgeConfig) -> float:
    """Second-generator amplitude that nulls the bridge: V2 = V1*C_paddle/C_ref."""
    return cfg.V1 * C_paddle / cfg.C_ref


def measure_capacitance(C_true: float, noise: NoiseModel, n: int) -> MeasurementStream:
    """n noisy readings of a fixed capacitance at sample times t = dt, 2*dt, ...

    The readings are C_true plus noise.draw(n), so a given (noise, n)
    always yields the same stream. No MeasurementSample is built.
    """
    if n < 1:
        raise InvalidParameter("n", f"need at least 1 sample, got {n!r}")
    return MeasurementStream(noise.dt * np.arange(1, n + 1), C_true + noise.draw(n))


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
    area = model.geom.w_p * model.geom.l_p
    rows = []
    for s, dC in zip(spacers, noise.draw(len(spacers))):
        C = parallel_plate_capacitance(area, s, model.constants.eps0) + dC
        rows.append((s, 1.0 / s, float(C)))
    return rows


def calibration_fit(model: ValidatedModel, rows) -> CalibrationFit:
    """Least-squares line of C versus 1/spacer through calibration_table rows.

    The intercept is fitted rather than forced through the origin so a
    stray-capacitance offset would show up; for an ideal plate the slope
    is eps0*area, the intercept vanishes and r2 = 1. The line is the
    closed-form centered one, slope = sum(dx*dC)/sum(dx^2) with dx and dC
    the deviations from the means x_bar and C_bar and
    intercept = C_bar - slope*x_bar, every sum taken by math.fsum.
    """
    distinct = {row[0] for row in rows}
    if len(distinct) < 3:
        raise InsufficientData(
            f"calibration needs >= 3 distinct spacers, got {len(distinct)}")
    n = len(rows)
    x_mean = math.fsum(row[1] for row in rows) / n
    C_mean = math.fsum(row[2] for row in rows) / n
    dx = [row[1] - x_mean for row in rows]
    dC = [row[2] - C_mean for row in rows]
    slope = math.fsum(map(operator.mul, dx, dC)) / math.fsum(map(operator.mul, dx, dx))
    intercept = C_mean - slope * x_mean
    ss_res = math.fsum((row[2] - (slope * row[1] + intercept)) ** 2 for row in rows)
    ss_tot = math.fsum(map(operator.mul, dC, dC))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return CalibrationFit(slope=slope, intercept=intercept, r2=max(0.0, min(1.0, r2)),
                          implied_area=slope / model.constants.eps0)


def calibrate(model: ValidatedModel, spacers, noise: NoiseModel) -> CalibrationFit:
    """The calibration_fit of a spacer sweep: calibration_table, then the line."""
    return calibration_fit(model, calibration_table(model, spacers, noise))
