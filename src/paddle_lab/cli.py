"""Command-line surface: config loading, simulation commands, CSV/JSON emission.

The parser declares each flag on the commands that read it (only --config
and --out are on every command), gives it its type (finite floats, comma
lists of finite numbers, grids of at least 2 points) and requires what a
command cannot run without, so a bad flag exits 2 with argparse's message;
a manifest's seed is null for a command without --seed.

A command `cmd_<name>(args, model)` only computes. It returns its files in
write order, as {name: dict} for a JSON file and {name: (header, columns)}
for a CSV, its one-line message and its exit code. main alone does the I/O:
it loads the model and runs the command; only then does it create the
output directory (flag --out, overridden by the PADDLE_LAB_OUT environment
variable) and write the files, then a `<command>_manifest.json` whose
output_paths are their names. So a command that fails leaves no output
directory behind. Floats are serialized as FLOAT_FORMAT (`%.17e`, 18
significant digits, enough to round-trip every float64), so reruns with
identical flags and seed are byte-identical; the manifest timestamp is the
one deliberately non-reproducible field. A CSV file has one header line,
then comma-separated, unquoted fields and "\n" line endings; `plan` in
design_profile.csv is the only text column. Every CSV goes through
_write_csv, whose float fields are byte for byte `"%.17e" % x`: an array
kernel (floatfmt.format_e17) formats them and hands to `%` only nan, the
infinities, three-digit exponents (|x| < 1e-99 or >= 1e100) and values
within 2^-30 of a rounding tie. The kernel pads its fields with NUL
bytes; a column of one sign, all on its fast path, needs no pass to remove
them (a positive field's NUL sign slot is cut off or holds the separator,
a negative field has none), and only a block that still holds a NUL is
copied once more to remove them. Text fields may not contain NUL. JSON
floats go through fmt, the same format.

Reruns usually write over the files of the last run, so every output file
(CSV, JSON, manifest) goes through _write_output, which rewrites it in place
and then cuts it to its new length instead of truncating it on open: on
ext4 mounted with `discard`, rewriting an existing 0.5-200 kB file took
120-470 us through a truncating open and 11-19 us in place. The file left
behind is the one `open(path, "wb")` would leave (same bytes, same mode
for a new file, symlinks followed, hard links shared), except after a hard
crash mid-write, which can leave a stale tail of the old file after the
new bytes.

Exit codes: 0 success, 2 input/config error (also a missing input file or
a path of the wrong kind, such as --out naming a regular file), 3 no stable
equilibrium, 4 fit non-convergence (the result file is still written).
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .electrostatics import (Electrode, capacitance_value, force_per_v2_value)
from .errors import InvalidParameter, NoStableEquilibrium, PaddleLabError
from .extraction import fit_film_parameters, load_cv_csv
from .floatfmt import FIELD_WIDTH, FLOAT_FORMAT, format_e17
from .instrument import NoiseModel, _noisy_fit, calibration_table, measure_capacitance
from .mechanics import (compliance, drive_voltages, film_force, pull_in_voltage,
                        solve_equilibrium, stress_profile, sweep_voltage)
from .model import (ValidatedModel, _read_model_json, model_from_dict, model_to_dict,
                    yb_from_yp)

DEFAULT_SPACERS = "25e-6,50e-6,75e-6,100e-6,125e-6"
DEFAULT_SIGMA0_LIST = "100e6,200e6,300e6"
CURVE_GRID_FRACTION = 0.9
CURVE_GRID_POINTS = 201
# the most grid points (--points) or samples (measure --n) one command takes: each float
# column then holds at most 8 MB
MAX_COUNT = 1_000_000
DESIGN_REFERENCE_LOAD = 1e-3  # N
DESIGN_PROFILE_POINTS = 201
# float fields per format_e17 call: bounds the kernel's temporaries to a few
# hundred kB (8192 raised the cli benchmark's peak RSS by 0.5 MB); 1024 ran
# slower on 2e4-field files, 4096 no faster
CSV_BLOCK_VALUES = 2048
OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def _jsonify(obj):
    """Floats to full-precision strings, recursively; other scalars pass through."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_output(path: str, chunks) -> None:
    """Write an iterable of bytes-like chunks to path, in place, cut to length.

    The file is opened without O_TRUNC and, in a finally, truncated at the
    final position if it is a regular file longer than that (ftruncate on a
    character device such as /dev/null fails): a chunk that raises leaves
    exactly the chunks written before it, as with `open(path, "wb")`.
    """
    with open(os.open(path, OUTPUT_FLAGS, 0o666), "wb") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
                os.ftruncate(fh.fileno(), fh.tell())


def _write_json(path: str, obj) -> None:
    # ensure_ascii (the default) keeps the text ASCII
    _write_output(path, [(json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n").encode()])


def _write_csv(path: str, header: list[str], *columns) -> None:
    """Write equal-length columns (arrays or lists) under a one-line header.

    A column whose first entry is a str is written as is (UTF-8), unquoted,
    so its fields must hold no comma, quote, newline or NUL; every other
    column as FLOAT_FORMAT, byte for byte, by format_e17. Rows go out in
    blocks of about CSV_BLOCK_VALUES float fields: each block is one byte
    matrix (fields, separators, line ends), written through _write_output.
    The kernel's fields are NUL-padded: a positive one on its fast path
    has a NUL sign slot, a `%` one and a text field NULs at the end. A
    block of positive fast-path fields alone (FIELD_WIDTH wide, first byte
    NUL) and no text is the kernel's matrix, each sign slot holding the
    separator before its field. Otherwise the block is assembled column by
    column: a column of positive fast-path fields goes in without its first
    byte, one whose fields all have both ends set holds no NUL and goes in
    as is, and only a block that still holds a NUL (mixed signs, `%`
    fields, three-digit exponents, text of unequal width) has them removed,
    by bytes.replace. Columns of unequal length and text holding NUL raise
    ValueError before the file is opened.
    """
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns of unequal length: {[len(c) for c in columns]}")
    # per column: its encoded text as an (n, width) NUL-padded matrix, or None for floats
    texts = []
    for c in columns:
        if n and isinstance(c[0], str):
            if any("\0" in field for field in c):
                raise ValueError("text fields may not contain NUL")
            texts.append(np.array([field.encode() for field in c]).view(np.uint8).reshape(n, -1))
        else:
            texts.append(None)
    float_columns = [c for c, text in zip(columns, texts) if text is None]
    floats = np.empty((n, len(float_columns)))
    for j, c in enumerate(float_columns):
        floats[:, j] = c
    rows = max(1, CSV_BLOCK_VALUES // max(1, floats.shape[1]))
    only_floats = all(text is None for text in texts)

    def blocks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, n, rows):
            block = floats[start:start + rows]
            m = block.shape[0]
            fields = format_e17(block)
            if only_floats and not fields[:, 0].any():
                # every field positive on the fast path, so FIELD_WIDTH wide: its NUL
                # sign slot holds the separator before it, the first field's the line
                # end of the row before
                fields[:, 0] = ord(",")
                fields.reshape(m, -1)[:, 0] = ord("\n")
                yield fields.reshape(-1)[1:]
                yield b"\n"
                continue
            # width from fields: a block with no float column is its text rows alone
            formatted = iter(fields.reshape(m, block.shape[1], fields.shape[1])
                             .transpose(1, 0, 2))
            comma = np.full((m, 1), ord(","), dtype=np.uint8)
            parts, padded = [], False
            for text in texts:
                field = next(formatted) if text is None else text[start:start + m]
                if text is None and field.shape[1] == FIELD_WIDTH and not field[:, 0].any():
                    field = field[:, 1:]  # positive fast-path fields: NUL only in the sign slot
                elif not padded:
                    # NULs pad a field only at its ends, so one with both ends set holds none
                    padded = not (field[:, 0].all() and field[:, -1].all())
                parts += [field, comma]
            parts[-1] = np.full((m, 1), ord("\n"), dtype=np.uint8)
            chunk = np.concatenate(parts, axis=1)
            yield chunk.tobytes().replace(b"\0", b"") if padded else chunk

    _write_output(path, blocks())


def _finite_float(text: str) -> float:
    """argparse type of every float flag: argparse names the flag and exits 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    """argparse type of every comma-list flag: one or more finite numbers."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _count(text: str, least: int, unit: str) -> int:
    """An integer from least to MAX_COUNT, else argparse's error giving that range."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not least <= value <= MAX_COUNT:
        shown = value if abs(value) < 10**20 else f"{len(str(value))} digits"
        raise argparse.ArgumentTypeError(f"expected {least} to {MAX_COUNT} {unit}, got {shown}")
    return value


def _grid_points(text: str) -> int:
    """argparse type of --points: a grid needs 2 to MAX_COUNT points."""
    return _count(text, 2, "points")


def _sample_count(text: str) -> int:
    """argparse type of measure --n: 1 to MAX_COUNT samples."""
    return _count(text, 1, "samples")


@contextlib.contextmanager
def _flag_names(flag: str, *params: str):
    """Re-raise the library's InvalidParameter on one of params as one naming flag."""
    try:
        yield
    except InvalidParameter as exc:
        if exc.name not in params:
            raise
        raise InvalidParameter(flag, exc.reason) from None


def cmd_design(args, model: ValidatedModel):
    tri = stress_profile(DESIGN_REFERENCE_LOAD, model.geom, "triangular",
                         DESIGN_PROFILE_POINTS)
    rect = stress_profile(DESIGN_REFERENCE_LOAD, model.geom, "rectangular",
                          DESIGN_PROFILE_POINTS)
    files = {
        "design_profile.csv": (["plan", "x_m", "sigma_Pa"], [
            ["triangular"] * tri.x.size + ["rectangular"] * rect.x.size,
            np.concatenate([tri.x, rect.x]), np.concatenate([tri.sigma, rect.sigma])]),
        "design_report.json": {
            "y_p_min_m": model.y_p_min,
            "y_p_max_m": model.y_p_max,
            "compliance_m_per_N": compliance(model),
            "stiffness_N_per_m": 1.0 / compliance(model),
            "C_top_flat_F": capacitance_value(0.0, model, Electrode.TOP),
            "reference_load_N": DESIGN_REFERENCE_LOAD,
            "uniformity_triangular": tri.uniformity,
            "uniformity_rectangular": rect.uniformity,
        },
    }
    return files, (f"touch limits y_p in [{model.y_p_min:.4e}, {model.y_p_max:.4e}] m; "
                   f"triangular uniformity {tri.uniformity}"), 0


def _curve_grid(args, model: ValidatedModel) -> np.ndarray:
    lo = args.y_min if args.y_min is not None else CURVE_GRID_FRACTION * model.y_p_min
    hi = args.y_max if args.y_max is not None else CURVE_GRID_FRACTION * model.y_p_max
    if not model.y_p_min < lo < hi < model.y_p_max:
        raise PaddleLabError(
            f"grid [{lo!r}, {hi!r}] must lie strictly inside the touch window "
            f"({model.y_p_min:.4e}, {model.y_p_max:.4e})")
    return np.linspace(lo, hi, args.points)


CURVE_KERNELS = {"capacitance": (capacitance_value, ["C_top_F", "C_bottom_F"]),
                 "force": (force_per_v2_value, ["f_top_N_per_V2", "f_bottom_N_per_V2"])}


def cmd_curves(args, model: ValidatedModel):
    grid = _curve_grid(args, model)
    name = f"curves_{args.which.replace('-', '_')}.csv"
    if args.which in CURVE_KERNELS:
        kernel, header = CURVE_KERNELS[args.which]
        table = (["y_p_m"] + header, [grid, kernel(grid, model, Electrode.TOP),
                                      kernel(grid, model, Electrode.BOTTOM)])
    else:
        base = model_to_dict(model)
        forces = []
        for s0 in args.sigma0_list:
            m = model_from_dict({**base, "sigma0": s0})
            forces.append(film_force(grid, m) - grid / compliance(m))
        table = (["sigma0_Pa", "y_p_m", "F_N"], [np.repeat(args.sigma0_list, grid.size),
                                                 np.tile(grid, len(args.sigma0_list)),
                                                 np.concatenate(forces)])
    return {name: table}, f"wrote {name} ({args.which}, {args.points} grid points)", 0


# each is a SweepResult field plus a unit suffix; all but V_volt name EquilibriumSolution fields
SWEEP_HEADER = ["V_volt", "y_p_m", "C_top_F", "F_film_N", "F_beam_N",
                "F_elec_top_N", "F_elec_bottom_N", "F_total_N"]


def cmd_equilibrium(args, model: ValidatedModel):
    if args.v > 0.0 and args.electrode is None:
        raise PaddleLabError("--electrode is required when --v > 0")
    # NoStableEquilibrium says why (past pull-in, or pinned by film stress) and exits 3
    with _flag_names("--v", "V"):
        sol = solve_equilibrium(model, *drive_voltages(Electrode(args.electrode or "bottom"),
                                                       args.v))
    result = {
        "V_V": args.v,
        "electrode": args.electrode,
        "y_b_m": yb_from_yp(sol.y_p, model.geom),
        "stable": True,  # solve_equilibrium returns stable equilibria only
        "residual_N": sol.residual,
        **{key: getattr(sol, key.rsplit("_", 1)[0]) for key in SWEEP_HEADER[1:]},
    }
    return {"equilibrium.json": result}, f"y_p = {sol.y_p:.6e} m, C_top = {sol.C_top:.6e} F", 0


def cmd_pullin(args, model: ValidatedModel):
    pi = pull_in_voltage(model, Electrode(args.electrode))
    result = {"V_pull_in_V": pi.V_pull_in,
              "y_p_last_stable_m": pi.y_p_last_stable,
              "electrode": pi.electrode.value}
    return ({"pullin.json": result},
            f"pull-in at {pi.V_pull_in:.4f} V ({pi.electrode.value} electrode)", 0)


def cmd_sweep(args, model: ValidatedModel):
    # argparse gives exactly one of --v-list and --v-max
    voltages = args.v_list or np.linspace(0.0, args.v_max, args.points).tolist()
    with _flag_names("--v-list" if args.v_list else "--v-max", "V_list", "V"):
        result = sweep_voltage(model, Electrode(args.electrode), voltages)
    columns = [getattr(result, key.rsplit("_", 1)[0]) for key in SWEEP_HEADER]
    summary = {"rows": result.V.size,
               "requested": len(voltages),
               "truncated_at_V": result.truncated_at,
               "electrode": args.electrode}
    trunc = (f"truncated at {result.truncated_at} V"
             if result.truncated_at is not None else "no truncation")
    return ({"sweep.csv": (SWEEP_HEADER, columns), "sweep_summary.json": summary},
            f"{result.V.size} rows; {trunc}", 0)


def cmd_calibrate(args, model: ValidatedModel):
    noise = NoiseModel(sigma_C=args.sigma_c, seed=args.seed)
    with _flag_names("--sigma-c", "sigma_C"):
        rows = calibration_table(model, args.spacers, noise)
        fit = _noisy_fit(model, args.spacers, noise, rows)
    files = {"calibration.csv": (["spacer_m", "inv_spacer_per_m", "C_F"], list(zip(*rows))),
             "calibration_fit.json": {"slope_F_m": fit.slope, "intercept_F": fit.intercept,
                                      "r2": fit.r2, "implied_area_m2": fit.implied_area}}
    return files, f"slope = {fit.slope:.6e} F*m, r2 = {fit.r2:.6f}", 0


def cmd_measure(args, model: ValidatedModel):
    electrode = Electrode(args.electrode)
    C_true = capacitance_value(args.yp, model, electrode)
    noise = NoiseModel(sigma_C=args.sigma_c, dt=args.dt, seed=args.seed)
    with _flag_names("--sigma-c", "sigma_C"):
        stream = measure_capacitance(C_true, noise, args.n)
    return ({"measurement.csv": (["t_s", "C_meas_F"], [stream.t, stream.C_meas])},
            f"{args.n} samples of C = {C_true:.6e} F ({electrode.value} electrode)", 0)


def cmd_extract(args, model: ValidatedModel):
    fit = fit_film_parameters(load_cv_csv(args.data, Electrode(args.electrode)), model)
    files = {"extract_result.json": {"sigma0_hat_Pa": fit.sigma0_hat,
                                     "EFVF_hat_Pa_m3": fit.EFVF_hat,
                                     "rms_residual_F": fit.rms_residual,
                                     "iterations": fit.iterations,
                                     "converged": fit.converged,
                                     "sigma0_se_Pa": fit.sigma0_se,
                                     "EFVF_se_Pa_m3": fit.EFVF_se,
                                     "corr_sigma0_EFVF": fit.corr,
                                     "cond_JTJ_scaled": fit.cond}}
    if not fit.converged:
        return files, (f"warning: fit did not converge after {fit.iterations} iterations "
                       f"(result written)"), 4
    return files, f"sigma0 = {fit.sigma0_hat:.6e} Pa in {fit.iterations} iterations", 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use and shared.

    It holds no command functions: main looks `cmd_<command>` up in this
    module at call time, so a command rebound after the parser was built
    (a tracing wrapper, a test's monkeypatch) is the one that runs.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="model JSON path (defaults built in)")
    common.add_argument("--out", default=".", help="output directory (PADDLE_LAB_OUT overrides)")
    electrodes = ["top", "bottom"]

    parser = argparse.ArgumentParser(
        prog="paddle-lab",
        description="Paddle-cantilever capacitive test system: forward model, "
                    "noisy capacitance readout, and film-stress extraction.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", parents=[common],
                       help="stress-profile comparison and geometry report")

    p = sub.add_parser("curves", parents=[common], help="model curves over a y_p grid")
    p.add_argument("--which", choices=["capacitance", "force", "film-beam"],
                   default="capacitance")
    p.add_argument("--y-min", type=_finite_float, default=None, help="grid start, m")
    p.add_argument("--y-max", type=_finite_float, default=None, help="grid end, m")
    p.add_argument("--points", type=_grid_points, default=CURVE_GRID_POINTS)
    p.add_argument("--sigma0-list", type=_float_list, default=DEFAULT_SIGMA0_LIST,
                   help="comma list of film stresses, Pa (film-beam mode)")

    p = sub.add_parser("equilibrium", parents=[common], help="stable force balance")
    p.add_argument("--electrode", choices=electrodes, help="driven electrode (needed when --v > 0)")
    p.add_argument("--v", type=_finite_float, default=0.0, help="drive voltage, V")
    p.add_argument("--sigma0", type=_finite_float, default=None, help="override film stress, Pa")

    p = sub.add_parser("pullin", parents=[common], help="pull-in voltage")
    p.add_argument("--electrode", choices=electrodes, required=True, help="driven electrode")
    p.add_argument("--sigma0", type=_finite_float, default=None, help="override film stress, Pa")

    p = sub.add_parser("sweep", parents=[common], help="equilibrium sweep over voltage")
    p.add_argument("--electrode", choices=electrodes, required=True, help="driven electrode")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--v-max", type=_finite_float, default=None, help="sweep end, V")
    grid.add_argument("--v-list", type=_float_list, default=None,
                      help="explicit comma list of voltages, V")
    p.add_argument("--points", type=_grid_points, default=51)
    p.add_argument("--sigma0", type=_finite_float, default=None, help="override film stress, Pa")

    p = sub.add_parser("calibrate", parents=[common], help="spacer-sweep calibration")
    p.add_argument("--seed", type=int, default=0, help="RNG seed of the noise")
    p.add_argument("--spacers", type=_float_list, default=DEFAULT_SPACERS,
                   help="comma list of spacer gaps, m")
    p.add_argument("--sigma-c", type=_finite_float, default=0.0, help="capacitance noise std, F")

    p = sub.add_parser("measure", parents=[common], help="noisy capacitance stream")
    p.add_argument("--seed", type=int, default=0, help="RNG seed of the noise")
    p.add_argument("--electrode", choices=electrodes, default="top", help="sensed electrode")
    p.add_argument("--yp", type=_finite_float, default=0.0, help="paddle-center deflection, m")
    p.add_argument("--n", type=_sample_count, default=100, help="sample count")
    p.add_argument("--dt", type=_finite_float, default=1e-2, help="sample interval, s")
    p.add_argument("--sigma-c", type=_finite_float, default=1e-16, help="capacitance noise std, F")

    p = sub.add_parser("extract", parents=[common], help="fit film stress to a V_volt,C_F CSV")
    p.add_argument("--electrode", choices=electrodes, required=True, help="driven electrode")
    p.add_argument("--data", required=True, help="input CSV path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _read_model_json(args.config) if args.config else {}
        if getattr(args, "sigma0", None) is not None:
            params["sigma0"] = args.sigma0
        model = model_from_dict(params)
        files, message, code = globals()[f"cmd_{args.command}"](args, model)
        out = os.environ.get("PADDLE_LAB_OUT") or args.out
        os.makedirs(out, exist_ok=True)
        files[f"{args.command}_manifest.json"] = {
            "command": args.command,
            "config_path": args.config,
            "output_paths": list(files),
            "seed": getattr(args, "seed", None),
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "tool_version": __version__,
        }
        for name, content in files.items():
            path = os.path.join(out, name)
            if isinstance(content, dict):
                _write_json(path, content)
            else:
                header, columns = content
                _write_csv(path, header, *columns)
    except (PaddleLabError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NoStableEquilibrium) else 2
    print(message, file=sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
