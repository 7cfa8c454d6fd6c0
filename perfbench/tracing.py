"""Timing wrappers around paddle_lab's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
paddle_lab namespace that holds it, so calls made through names another
module pulled in with `from .x import y` (extraction.solve_equilibrium,
cli.pull_in_voltage, mechanics.bisect_root, ...) are traced too. No file of
the package changes.

Two kinds of wrapper:

* span functions record one span each (name, start, end, parent, task id,
  self time, whether it raised, items processed), kept in flat arrays and
  written out at the end;
* kernel functions, called thousands of times per task, are timed and
  counted the same way but aggregated per (task, name) instead of stored
  one by one, so memory stays bounded.

Self time is a span's duration minus the time of the wrapped calls made
inside it; it is computed when the span closes. The callable handed to
`bisect_root` is wrapped as a kernel named after the caller
(`mechanics.solve_equilibrium.bisect_eval`), which counts force and
capacitance evaluations and keeps their time with the caller's module.
"""
from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("model", "electrostatics", "mechanics", "roots", "instrument",
           "extraction", "cli")

SPAN_FUNCTIONS = {
    "model": ("model_from_dict", "load_model_json"),
    "electrostatics": ("yp_from_capacitance", "capacitance_curve"),
    "mechanics": ("solve_equilibrium", "pull_in_voltage", "sweep_voltage",
                  "total_force_curve", "stress_profile", "zero_voltage_equilibrium"),
    "roots": ("bisect_root",),
    "instrument": ("measure_capacitance", "calibrate", "calibration_table",
                   "resolvable_displacement"),
    "extraction": ("simulate_cv", "fit_film_parameters", "deflection_series",
                   "load_cv_csv"),
    "cli": ("main", "cmd_design", "cmd_curves", "cmd_equilibrium", "cmd_pullin",
            "cmd_sweep", "cmd_calibrate", "cmd_measure", "cmd_extract"),
}

KERNEL_FUNCTIONS = {
    "model": ("build_model", "model_to_dict", "yb_from_yp"),
    "electrostatics": ("capacitance_value", "force_per_v2_value",
                       "parallel_plate_capacitance"),
    "mechanics": ("total_force", "compliance", "film_force", "film_stiffness",
                  "strain_coupling"),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Items processed per call, stored with the span.
SIZE_OF = {
    "mechanics.total_force_curve": lambda a, k: int(np.size(_arg(a, k, 0, "y_p"))),
    "electrostatics.capacitance_curve": lambda a, k: int(np.size(_arg(a, k, 0, "y_p"))),
    "instrument.measure_capacitance": lambda a, k: int(_arg(a, k, 2, "n")),
    "extraction.deflection_series": lambda a, k: len(_arg(a, k, 0, "samples")),
}


class _Frame:
    __slots__ = ("row", "child")

    def __init__(self, row: int):
        self.row = row      # own span row, or the nearest enclosing one for kernels
        self.child = 0.0    # seconds spent in wrapped calls made inside this frame


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.on = False
        self.task = -1
        self.task_labels: list[str] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.raised = array("b")
        self.size = array("q")
        self.fit_results: dict[int, tuple[int, bool]] = {}  # row -> (iterations, converged)
        self.kernel = defaultdict(lambda: [0, 0.0])  # (task, name id) -> [calls, self s]
        self.stack = [_Frame(-1)]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ----------------------------------------------------------

    def open(self, nid: int, size: int = 0) -> _Frame:
        row = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1].row)
        self.task_of.append(self.task)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.self_s.append(0.0)
        self.raised.append(0)
        self.size.append(size)
        frame = _Frame(row)
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame, raised: bool) -> None:
        end = perf_counter()
        self.stack.pop()
        row = frame.row
        dur = end - self.start[row]
        self.end[row] = end
        self.self_s[row] = dur - frame.child
        self.raised[row] = raised
        self.stack[-1].child += dur

    def begin_task(self, task: int, label: str) -> _Frame:
        self.task = task
        if task == len(self.task_labels):
            self.task_labels.append(label)
        return self.open(self.name_id("bench.task"))

    # -- wrappers -------------------------------------------------------

    def span_wrapper(self, qualname: str, fn):
        nid = self.name_id(qualname)
        size_of = SIZE_OF.get(qualname)
        keep_result = qualname == "extraction.fit_film_parameters"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer.open(nid, size_of(args, kwargs) if size_of else 0)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                tracer.close(frame, raised)
            if keep_result:
                tracer.fit_results[frame.row] = (result.iterations, result.converged)
            return result

        return wrapper

    def kernel_wrapper(self, qualname: str, fn):
        nid = self.name_id(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = _Frame(stack[-1].row)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1].child += dur
                entry = tracer.kernel[(tracer.task, nid)]
                entry[0] += 1
                entry[1] += dur - frame.child

        return wrapper

    def bisect_wrapper(self, fn):
        span = self.span_wrapper("roots.bisect_root", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(func, *args, **kwargs):
            if tracer.on:
                caller = tracer.names[tracer.name[tracer.stack[-1].row]]
                func = tracer.kernel_wrapper(f"{caller}.bisect_eval", func)
            return span(func, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every paddle_lab namespace."""
        import importlib

        import paddle_lab
        namespaces = [paddle_lab] + [importlib.import_module(f"paddle_lab.{m}")
                                     for m in MODULES]
        for kinds, make in ((SPAN_FUNCTIONS, self.span_wrapper),
                            (KERNEL_FUNCTIONS, self.kernel_wrapper)):
            for module, funcs in kinds.items():
                home = importlib.import_module(f"paddle_lab.{module}")
                for func in funcs:
                    original = getattr(home, func)
                    if func == "bisect_root":
                        wrapped = self.bisect_wrapper(original)
                    else:
                        wrapped = make(f"{module}.{func}", original)
                    for ns in namespaces:
                        if getattr(ns, func, None) is original:
                            setattr(ns, func, wrapped)

    # -- output ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every stored span and the kernel aggregates to an .npz file."""
        keys = sorted(self.kernel)
        np.savez(path, names=np.array(self.names), task_labels=np.array(self.task_labels),
                 name=np.asarray(self.name), parent=np.asarray(self.parent),
                 task=np.asarray(self.task_of), start=np.asarray(self.start),
                 end=np.asarray(self.end), self_s=np.asarray(self.self_s),
                 raised=np.asarray(self.raised), size=np.asarray(self.size),
                 kernel_task=np.array([k[0] for k in keys], dtype=np.int64),
                 kernel_name=np.array([k[1] for k in keys], dtype=np.int64),
                 kernel_calls=np.array([self.kernel[k][0] for k in keys], dtype=np.int64),
                 kernel_self_s=np.array([self.kernel[k][1] for k in keys]))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _median(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else 0.0


CLI_COMMANDS = ("design", "curves", "equilibrium", "pullin", "sweep", "calibrate",
                "measure", "extract")


def layer_metrics(tr: Tracer, n_tasks: int, prefix: int) -> dict[str, float]:
    """Per-module metrics of one traced run.

    Counts and ratios come from the first `prefix` tasks only, so they
    repeat exactly for a given seed; times use every traced task. `self_ms`
    is self time per task, in ms.
    """
    name = np.asarray(tr.name)
    parent = np.asarray(tr.parent)
    task = np.asarray(tr.task_of)
    dur = np.asarray(tr.end) - np.asarray(tr.start)
    self_s = np.asarray(tr.self_s)
    raised = np.asarray(tr.raised, dtype=bool)
    size = np.asarray(tr.size)
    in_prefix = task < prefix
    names = tr.names
    module_of_name = np.array([n.split(".")[0] for n in names])

    def nid(qualname):
        return tr._ids.get(qualname, -1)

    def rows(qualname, prefix_only=False):
        mask = name == nid(qualname)
        return mask & in_prefix if prefix_only else mask

    def has_ancestor(qualname):
        target = nid(qualname)
        found = np.zeros(name.size, dtype=bool)
        p = parent.copy()
        while True:
            live = p >= 0
            if not live.any():
                return found
            found[live] |= name[p[live]] == target
            p[live] = parent[p[live]]

    def kernel_calls(pred):
        return sum(c for (t, k), (c, _) in tr.kernel.items() if t < prefix and pred(names[k]))

    def self_ms_per_task(pred):
        span = self_s[np.isin(name, [i for i, n in enumerate(names) if pred(n)])].sum()
        kern = sum(s for (_, k), (_, s) in tr.kernel.items() if pred(names[k]))
        return 1e3 * _ratio(span + kern, n_tasks)

    m: dict[str, float] = {}
    pull_in = rows("mechanics.pull_in_voltage")
    solve = rows("mechanics.solve_equilibrium")
    solve_p = solve & in_prefix
    m["mechanics.pull_in_voltage.ms_p50"] = 1e3 * _median(dur[pull_in])
    m["mechanics.pull_in_voltage.solves_per_call"] = _ratio(
        (solve_p & has_ancestor("mechanics.pull_in_voltage")).sum(), (pull_in & in_prefix).sum())
    m["mechanics.solve_equilibrium.refused_ratio"] = _ratio((solve_p & raised).sum(), solve_p.sum())
    m["mechanics.solve_equilibrium.calls"] = int(solve_p.sum())
    m["mechanics.solve_equilibrium.us_p50"] = 1e6 * _median(dur[solve])
    m["mechanics.solve_equilibrium.self_ms"] = self_ms_per_task(
        lambda n: n == "mechanics.solve_equilibrium")
    scan_points = int(size[rows("mechanics.total_force_curve", True)].sum())
    m["mechanics.solve_equilibrium.force_evals_per_call"] = _ratio(
        kernel_calls(lambda n: n == "mechanics.solve_equilibrium.bisect_eval") + scan_points,
        solve_p.sum())
    m["mechanics.total_force_curve.points"] = scan_points

    bisect_p = rows("roots.bisect_root", True)
    m["roots.bisect_root.calls"] = int(bisect_p.sum())
    m["roots.bisect_root.evals_per_call"] = _ratio(
        kernel_calls(lambda n: n.endswith(".bisect_eval")), bisect_p.sum())
    m["roots.bisect_root.self_ms"] = self_ms_per_task(lambda n: n == "roots.bisect_root")

    fit = rows("extraction.fit_film_parameters")
    fit_p = fit & in_prefix
    n_fit = fit_p.sum()
    fit_rows = [int(r) for r in np.nonzero(fit_p)[0]]
    m["extraction.fit_film_parameters.ms_p50"] = 1e3 * _median(dur[fit])
    m["extraction.fit_film_parameters.iterations_per_fit"] = _ratio(
        sum(tr.fit_results[r][0] for r in fit_rows), n_fit)
    m["extraction.fit_film_parameters.solves_per_fit"] = _ratio(
        (solve_p & has_ancestor("extraction.fit_film_parameters")).sum(), n_fit)
    m["extraction.fit_film_parameters.model_builds_per_fit"] = _ratio(
        (rows("model.model_from_dict", True)
         & has_ancestor("extraction.fit_film_parameters")).sum(), n_fit)
    m["extraction.fit_film_parameters.nonconverged_ratio"] = _ratio(
        sum(not tr.fit_results[r][1] for r in fit_rows), n_fit)
    m["extraction.fit_film_parameters.self_ms"] = self_ms_per_task(
        lambda n: n == "extraction.fit_film_parameters")
    m["model.model_from_dict.calls"] = int(rows("model.model_from_dict", True).sum())
    m["model.model_from_dict.self_ms"] = self_ms_per_task(lambda n: n == "model.model_from_dict")

    inv = rows("electrostatics.yp_from_capacitance")
    m["electrostatics.yp_from_capacitance.calls"] = int((inv & in_prefix).sum())
    m["electrostatics.yp_from_capacitance.us_p50"] = 1e6 * _median(dur[inv])
    m["electrostatics.capacitance_value.calls"] = kernel_calls(
        lambda n: n == "electrostatics.capacitance_value")
    m["electrostatics.force_per_v2_value.calls"] = kernel_calls(
        lambda n: n == "electrostatics.force_per_v2_value")
    m["electrostatics.capacitance_curve.points"] = int(
        size[rows("electrostatics.capacitance_curve", True)].sum())
    series = rows("extraction.deflection_series")
    m["extraction.deflection_series.us_per_sample"] = 1e6 * _median(
        dur[series & (size > 0)] / size[series & (size > 0)])
    m["extraction.deflection_series.inversions_per_sample"] = _ratio(
        (inv & in_prefix & has_ancestor("extraction.deflection_series")).sum(),
        size[series & in_prefix].sum())
    measure = rows("instrument.measure_capacitance")
    m["instrument.measure_capacitance.ns_per_sample"] = 1e9 * _median(
        dur[measure & (size > 0)] / size[measure & (size > 0)])
    m["instrument.calibrate.us_p50"] = 1e6 * _median(dur[rows("instrument.calibrate")])

    # a cli command's self time: its main() span minus the library spans below it
    main = rows("cli.main")
    in_cli = module_of_name[name] == "cli"
    cli_self = np.bincount(task[in_cli], weights=self_s[in_cli], minlength=n_tasks)
    commands = np.array([label.split(":")[0] for label in tr.task_labels[:n_tasks]])
    for cmd in CLI_COMMANDS:
        tasks = np.nonzero(commands == cmd)[0] if main.any() else np.array([], dtype=int)
        m[f"cli.{cmd}.ms"] = 1e3 * _median(dur[main & np.isin(task, tasks)])
        m[f"cli.{cmd}.self_ms"] = 1e3 * _median(cli_self[tasks])

    for module in MODULES:
        m[f"{module}.self_ms"] = self_ms_per_task(lambda n, mod=module: n.split(".")[0] == mod)
    return m
