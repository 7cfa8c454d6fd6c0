"""Write the CLI data files of a fixed command list (manifests dropped), or diff two such sets.

Usage: PYTHONPATH=src python3 scripts/diff_cli_outputs.py --write DIR | --compare DIR_A DIR_B
Extract fits C-V files rounded to 12 digits, so trees differing in the last bits of C fit the
same data. The alt-* commands run on one non-default model (--config model-alt.json, ALT_MODEL),
so a derived constant that swaps d_c with d_e or w_p with l_p changes their files. --write also
runs the two study scripts with their default flags, into study-performance/ and
study-extraction/, so the tree holds every data file the repo writes.
--compare prints one row per file that differs in its bytes: (bytes) with the lines
that differ, then (header) if the column names differ and (rows A/B) if the row counts do; a
file in one tree only gets one (only in A) or (only in B) row. Then, per column of A (matched
in B by name, else by position) and over the rows both files have, it prints changed rows and
max ulp and absolute differences, and the max absolute difference over the column's max
|value| in either tree (rel |diff|), which stays meaningful for columns that cross zero, where
ulp counts across a sign change are not.
"""
import argparse
import csv
import glob
import itertools
import json
import operator
import os
import pathlib
import runpy
import sys

import numpy as np

from paddle_lab import NoiseModel, build_model, pull_in_voltage, simulate_cv
from paddle_lab.cli import main
from paddle_lab.electrostatics import capacitance_range


# unequal gaps, a rectangular paddle, a narrower beam root and a stressed film
ALT_MODEL = {"d_e": 80e-6, "w_p": 4e-3, "b_root": 3e-3, "l_b": 2.5e-3, "t_F": 300e-9,
             "E_F": 120e9, "sigma0": 120e6}


def commands():
    for s, e in itertools.product(("0", "100e6", "-200e6", "250e6"), ("top", "bottom")):
        yield f"pullin-{e}-{s}", f"pullin --electrode {e} --sigma0={s}"
        yield f"sweep-{e}-{s}", f"sweep --v-max 200 --electrode {e} --sigma0={s}"
        yield f"equilibrium-{e}-{s}", f"equilibrium --v 90 --electrode {e} --sigma0={s}"
    for s in ("0", "100e6", "-200e6", "250e6"):  # undriven: the grounded electrodes' signed zeros
        yield f"equilibrium-rest-{s}", f"equilibrium --v 0 --sigma0={s}"
    # a -0.0 film stress puts rest at -0.0: the undriven pose keeps that zero's sign
    yield "sweep-signed-zero-rest", "sweep --electrode top --v-list 0,50 --sigma0=-0.0"
    yield "equilibrium-signed-zero-rest", "equilibrium --v 0 --sigma0=-0.0"
    for e in ("top", "bottom"):  # unsorted, repeated and past pull-in: sorted, truncated
        yield f"sweep-list-{e}", f"sweep --electrode {e} --v-list 150,0,300,50,50 --sigma0=100e6"
    # film stress pins the paddle at 0 V: exits 3 and writes nothing
    yield "sweep-pinned", "sweep --electrode bottom --v-max 300 --points 7 --sigma0 8e8"
    for which, n in itertools.product(("capacitance", "force", "film-beam"), ("201", "2001")):
        yield f"curves-{which}-{n}", f"curves --which {which} --points {n}"
    yield "curves-film-beam-list", "curves --which film-beam --sigma0-list=-150e6,0,250e6"
    yield "design", "design"
    yield "calibrate", "calibrate --sigma-c 1e-15 --seed 3"
    yield "calibrate-noise-free", "calibrate"
    for e, yp in itertools.product(("top", "bottom"), ("-4e-5", "0", "3e-5")):
        yield f"measure-{e}-{yp}", f"measure --electrode {e} --yp={yp} --seed 5"
    yield "measure-default-electrode", "measure --yp=3e-5 --seed 5"
    # (name, truth sigma0, electrode, sampled up to this fraction of V_PI, noise in F,
    # rows); flat's first five readings lie within |u| < 3e-3 of the flat pose, where
    # the slope takes its series, and the bottom drive carries the paddle across it;
    # rejecting's line search turns down trials whose residual is defined (6 in its
    # 4 iterations, the last 4 after its last accepted one), so the error bars read
    # the Jacobian of an earlier trial than the last; long's 300 rows take the fit's
    # row sums (np.add.reduce) past NumPy's pairwise block of 128
    for name, sigma0, e, top, sigma_C, n in (("top", 150e6, "top", 0.8, 1e-17, 21),
                                             ("bottom", 150e6, "bottom", 0.8, 1e-17, 21),
                                             ("near", 150e6, "bottom", 0.9999, 1e-17, 21),
                                             ("near-top", 150e6, "top", 0.9999, 1e-17, 21),
                                             ("compressive", -150e6, "top", 0.9, 1e-17, 21),
                                             ("noisy", 150e6, "top", 0.8, 1e-15, 21),
                                             ("flat", 1e6, "bottom", 0.8, 1e-17, 21),
                                             ("rejecting", 150e6, "bottom", 0.95, 3e-15, 21),
                                             ("long", 150e6, "top", 0.9, 1e-16, 300)):
        truth = build_model(sigma0=sigma0, t_F=220e-9)
        V = np.linspace(0.0, top * pull_in_voltage(truth, e).V_pull_in, n)
        data = simulate_cv(truth, e, V, NoiseModel(sigma_C=sigma_C, seed=11))
        with open(f"cv-{name}.csv", "w") as fh:
            fh.write("V_volt,C_F\n" + "".join(f"{v:.12e},{c:.12e}\n"
                                               for v, c in zip(data.V.tolist(), data.C.tolist())))
        yield f"extract-{name}", f"extract --electrode {e} --data cv-{name}.csv"
    # C at twice the largest that inverts: no reading inverts, so extract exits 2
    # and writes nothing
    c_max = capacitance_range(build_model(), "bottom")[1]
    with open("cv-unreachable.csv", "w") as fh:
        fh.write("V_volt,C_F\n" + "".join(f"{v:.12e},{2.0 * c_max:.12e}\n"
                                           for v in (0.0, 10.0, 20.0, 30.0)))
    yield "extract-unreachable", "extract --electrode bottom --data cv-unreachable.csv"
    with open("model-alt.json", "w") as fh:
        json.dump(ALT_MODEL, fh)
    alt = "--config model-alt.json"
    for e in ("top", "bottom"):
        yield f"alt-pullin-{e}", f"pullin --electrode {e} {alt}"
        yield f"alt-sweep-{e}", f"sweep --v-max 200 --electrode {e} {alt}"
        yield f"alt-equilibrium-{e}", f"equilibrium --v 90 --electrode {e} {alt}"
    for which in ("capacitance", "force"):
        yield f"alt-curves-{which}", f"curves --which {which} {alt}"
    yield "alt-design", f"design {alt}"


# (output directory, study script), each run with its default flags
SCRIPTS = os.path.dirname(os.path.abspath(__file__))
STUDIES = (("study-performance", os.path.join(SCRIPTS, "run_performance_curves.py")),
           ("study-extraction", os.path.join(SCRIPTS, "run_extraction_study.py")))


def table(path):
    """(header, rows of fields) of a CSV file, (keys, [values]) of a JSON object."""
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            obj = json.load(fh)
            return list(obj), [[str(v) for v in obj.values()]]
        header, *rows = csv.reader(fh)
    return header, rows


def count(k, n):
    return f"{k:>5}/{n:<5}"


def compare(a, b):
    print(f"{'file':<48} {'column':<16} {'changed':>11} {'max ulp':>8} {'max |diff|':>10} "
          f"{'rel |diff|':>10}")

    def row(name, col, changed="", num=f"{'-':>8} {'-':>10} {'-':>10}"):
        print(f"{name:<48} {col:<16} {changed:>11} {num}")

    in_a, in_b = ({os.path.relpath(p, d) for p in glob.glob(os.path.join(d, "*", "*"))}
                  for d in (a, b))
    for name in sorted(in_a | in_b):
        if not (name in in_a and name in in_b):
            row(name, "(only in A)" if name in in_a else "(only in B)")
            continue
        path_a, path_b = (os.path.join(d, name) for d in (a, b))
        lines_a, lines_b = (pathlib.Path(p).read_bytes().splitlines(keepends=True)
                            for p in (path_a, path_b))
        if lines_a == lines_b:
            continue
        differ = sum(map(operator.ne, lines_a, lines_b)) + abs(len(lines_a) - len(lines_b))
        row(name, "(bytes)", count(differ, max(len(lines_a), len(lines_b))))
        (head_a, rows_a), (head_b, rows_b) = table(path_a), table(path_b)
        if head_a != head_b:
            row(name, "(header)")
        if len(rows_a) != len(rows_b):
            row(name, "(rows A/B)", count(len(rows_a), len(rows_b)))
        # columns by name (a JSON file may gain keys), or by position where B renamed
        # one, over the rows both files have
        columns_b = list(zip(*rows_b))
        by_name = dict(zip(head_b, columns_b))
        for i, (col, fields) in enumerate(zip(head_a, zip(*rows_a))):
            other = by_name.get(col, columns_b[i] if i < len(columns_b) else ())
            changed = [(x, y) for x, y in zip(fields, other) if x != y]
            if not changed:
                continue
            try:
                x, y = np.array(changed, dtype=float).T
                i, j = (np.where(v < 0, -(v & 0x7FFFFFFFFFFFFFFF), v)
                        for v in (x.view(np.int64), y.view(np.int64)))
                diff = np.abs(x - y).max()
                scale = np.abs(np.array(fields + other, dtype=float)).max()
                row(name, col, count(len(changed), min(len(fields), len(other))),
                    f"{np.abs(i - j).max():>8d} {diff:>10.2e} {diff / scale:>10.2e}")
            except ValueError:  # text fields
                row(name, col, count(len(changed), min(len(fields), len(other))))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", metavar="DIR")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.write:
        os.makedirs(args.write)
        os.chdir(args.write)
        for name, argv in commands():
            main(argv.split() + ["--out", name])
        for name, script in STUDIES:
            sys.argv = [script, "--out", name]
            runpy.run_path(script, run_name="__main__")
        for f in glob.glob(os.path.join("*", "*_manifest.json")):
            os.remove(f)
