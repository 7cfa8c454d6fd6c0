"""Paddle-cantilever capacitive test system: forward model and analysis tools.

A square paddle on a constant-stress cantilever sits between two DC
electrodes and forms a capacitor with each. The package models the tilted
plate capacitance and electrostatic force, the beam/film force balance with
its equilibria and pull-in, noisy capacitance readings with spacer
calibration, and the inverse extraction of residual film stress from
voltage-capacitance sweeps.
"""

__version__ = "0.1.0"

from .electrostatics import (Electrode, capacitance_curve, capacitance_value,
                             force_per_v2_value, parallel_plate_capacitance,
                             yp_from_capacitance)
from .errors import (DegenerateData, InsufficientData, InvalidParameter,
                     NoStableEquilibrium, OutOfRange, PaddleLabError,
                     TouchViolation)
from .extraction import (CVDataset, DeflectionSeries, FilmFitResult,
                         deflection_series, fit_film_parameters, load_cv_csv,
                         simulate_cv)
from .instrument import (CalibrationFit, MeasurementSample, MeasurementStream,
                         NoiseModel, calibrate, calibration_fit,
                         calibration_table, measure_capacitance,
                         resolvable_displacement)
from .mechanics import (EquilibriumSolution, ForceBreakdown, PullInResult,
                        StressProfile, SweepRecord, SweepResult, compliance,
                        film_force, film_stiffness, pull_in_voltage,
                        solve_equilibrium, strain_coupling, stress_profile,
                        sweep_voltage, total_force, total_force_curve,
                        zero_voltage_equilibrium)
from .model import (FilmSpec, PaddleGeometry, PhysicalConstants,
                    SubstrateMaterial, ValidatedModel, build_model,
                    load_model_json, model_from_dict, model_to_dict,
                    touch_limits, yb_from_yp)

__all__ = [
    "__version__",
    # errors
    "PaddleLabError", "InvalidParameter", "TouchViolation", "OutOfRange",
    "NoStableEquilibrium", "InsufficientData", "DegenerateData",
    # model
    "PhysicalConstants", "PaddleGeometry", "SubstrateMaterial", "FilmSpec",
    "ValidatedModel", "build_model", "model_to_dict", "model_from_dict",
    "load_model_json", "touch_limits", "yb_from_yp",
    # electrostatics
    "Electrode", "parallel_plate_capacitance", "capacitance_value",
    "capacitance_curve", "force_per_v2_value", "yp_from_capacitance",
    # mechanics
    "StressProfile", "ForceBreakdown", "EquilibriumSolution", "SweepRecord",
    "SweepResult", "PullInResult", "stress_profile", "compliance",
    "strain_coupling", "film_force", "film_stiffness", "total_force",
    "total_force_curve", "zero_voltage_equilibrium", "solve_equilibrium",
    "pull_in_voltage", "sweep_voltage",
    # instrument
    "NoiseModel", "MeasurementSample", "MeasurementStream", "CalibrationFit",
    "measure_capacitance", "resolvable_displacement", "calibration_table",
    "calibration_fit", "calibrate",
    # extraction
    "CVDataset", "DeflectionSeries", "FilmFitResult",
    "simulate_cv", "deflection_series", "load_cv_csv", "fit_film_parameters",
]
