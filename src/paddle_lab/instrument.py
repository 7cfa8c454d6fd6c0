"""Virtual measurement electronics for the paddle capacitor.

Two generators drive the unknown and a reference capacitor 180 degrees out
of phase; the summed currents null when V1*C_paddle = V2*C_ref, so the
normalized imbalance is the observable and the whole lock-in chain
collapses to that bilinear form. The drive frequency is carried along as
metadata only. Readings pick up white Gaussian noise per sample, with a
fixed seed making every stream reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrostatics import Electrode, capacitance_slope, parallel_plate_capacitance
from .errors import InsufficientData, InvalidParameter
from .model import ValidatedModel


@dataclass(frozen=True)
class BridgeConfig:
    C_ref: float = 3e-12   # F
    V1: float = 1.0        # drive amplitude, V
    f_drive: float = 1e5   # Hz, informational only

    def __post_init__(self):
        if self.C_ref <= 0.0:
            raise InvalidParameter("C_ref", f"must be > 0, got {self.C_ref!r}")
        if self.V1 <= 0.0:
            raise InvalidParameter("V1", f"must be > 0, got {self.V1!r}")


@dataclass(frozen=True)
class NoiseModel:
    sigma_C: float = 1e-16  # capacitance noise std, F
    dt: float = 1e-2        # sample interval, s
    seed: int = 0

    def __post_init__(self):
        if self.sigma_C < 0.0:
            raise InvalidParameter("sigma_C", f"must be >= 0, got {self.sigma_C!r}")
        if self.dt <= 0.0:
            raise InvalidParameter("dt", f"must be > 0, got {self.dt!r}")


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    t: float       # s
    C_meas: float  # F


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


def measure_stream(C_true: float, noise: NoiseModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample times t = dt, 2*dt, ... and n noisy readings of a fixed capacitance.

    The RNG is created here from noise.seed, so a given (noise, n) always
    yields the same stream and concurrent calls never share state.
    """
    if n < 1:
        raise InvalidParameter("n", f"need at least 1 sample, got {n!r}")
    rng = np.random.default_rng(noise.seed)
    values = C_true + noise.sigma_C * rng.standard_normal(n)
    return noise.dt * np.arange(1, n + 1), values


def measure_capacitance(C_true: float, noise: NoiseModel, n: int) -> list[MeasurementSample]:
    """measure_stream's readings as MeasurementSample objects, the same bits."""
    times, values = measure_stream(C_true, noise, n)
    return list(map(MeasurementSample, times.tolist(), values.tolist()))


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
        if s <= 0.0:
            raise InvalidParameter("spacers", f"spacer thickness must be > 0, got {s!r}")
    area = model.geom.w_p * model.geom.l_p
    rng = np.random.default_rng(noise.seed)
    draws = noise.sigma_C * rng.standard_normal(len(spacers))
    rows = []
    for s, dC in zip(spacers, draws):
        C = parallel_plate_capacitance(area, s, model.constants.eps0) + dC
        rows.append((s, 1.0 / s, float(C)))
    return rows


def calibration_fit(model: ValidatedModel, rows) -> CalibrationFit:
    """Least-squares line of C versus 1/spacer through calibration_table rows.

    The intercept is fitted rather than forced through the origin so a
    stray-capacitance offset would show up; for an ideal plate the slope
    is eps0*area, the intercept vanishes and r2 = 1.
    """
    distinct = {row[0] for row in rows}
    if len(distinct) < 3:
        raise InsufficientData(
            f"calibration needs >= 3 distinct spacers, got {len(distinct)}")
    inv_d = np.array([row[1] for row in rows])
    C = np.array([row[2] for row in rows])
    slope, intercept = np.polyfit(inv_d, C, 1)
    fitted = slope * inv_d + intercept
    ss_res = float(np.sum((C - fitted) ** 2))
    ss_tot = float(np.sum((C - C.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return CalibrationFit(slope=float(slope), intercept=float(intercept),
                          r2=max(0.0, min(1.0, r2)),
                          implied_area=float(slope) / model.constants.eps0)


def calibrate(model: ValidatedModel, spacers, noise: NoiseModel) -> CalibrationFit:
    """The calibration_fit of a spacer sweep: calibration_table, then the line."""
    return calibration_fit(model, calibration_table(model, spacers, noise))
