"""Write the CLI data files of a fixed command list (manifests dropped), or diff two such sets.

Usage: PYTHONPATH=src python3 scripts/diff_cli_outputs.py --write DIR | --compare DIR_A DIR_B
Extract fits C-V files rounded to 12 digits, so trees differing in the last bits of C fit the
same data. --compare prints one row per file that differs in its bytes: (bytes) with the lines
that differ, then (header) if the column names differ and (rows A/B) if the row counts do; a
file in one tree only gets one (only in A) or (only in B) row. Then, per column and over the
rows both files have, it prints changed rows and max ulp and absolute differences, and the max
absolute difference over the column's max |value| in either tree (rel |diff|), which stays
meaningful for columns that cross zero, where ulp counts across a sign change are not.
"""
import argparse
import csv
import glob
import itertools
import json
import operator
import os
import pathlib

import numpy as np

from paddle_lab import NoiseModel, build_model, pull_in_voltage, simulate_cv
from paddle_lab.cli import main


def commands():
    for s, e in itertools.product(("0", "100e6", "-200e6", "250e6"), ("top", "bottom")):
        yield f"pullin-{e}-{s}", f"pullin --electrode {e} --sigma0={s}"
        yield f"sweep-{e}-{s}", f"sweep --v-max 200 --electrode {e} --sigma0={s}"
        yield f"equilibrium-{e}-{s}", f"equilibrium --v 90 --electrode {e} --sigma0={s}"
    for which, n in itertools.product(("capacitance", "force", "film-beam"), ("201", "2001")):
        yield f"curves-{which}-{n}", f"curves --which {which} --points {n}"
    yield "design", "design"
    yield "calibrate", "calibrate --sigma-c 1e-15 --seed 3"
    yield "calibrate-noise-free", "calibrate"
    for e, yp in itertools.product(("top", "bottom"), ("-4e-5", "0", "3e-5")):
        yield f"measure-{e}-{yp}", f"measure --electrode {e} --yp={yp} --seed 5"
    # (name, truth sigma0, electrode, sampled up to this fraction of V_PI, noise in F)
    for name, sigma0, e, top, sigma_C in (("top", 150e6, "top", 0.8, 1e-17),
                                          ("bottom", 150e6, "bottom", 0.8, 1e-17),
                                          ("near", 150e6, "bottom", 0.9999, 1e-17),
                                          ("near-top", 150e6, "top", 0.9999, 1e-17),
                                          ("compressive", -150e6, "top", 0.9, 1e-17),
                                          ("noisy", 150e6, "top", 0.8, 1e-15)):
        truth = build_model(sigma0=sigma0, t_F=220e-9)
        V = np.linspace(0.0, top * pull_in_voltage(truth, e).V_pull_in, 21)
        rows = simulate_cv(truth, e, V, NoiseModel(sigma_C=sigma_C, seed=11)).rows
        with open(f"cv-{name}.csv", "w") as fh:
            fh.write("V_volt,C_F\n" + "".join(f"{r.V:.12e},{r.C:.12e}\n" for r in rows))
        yield f"extract-{name}", f"extract --electrode {e} --data cv-{name}.csv"


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
        # columns by position, over the rows both files have
        for col, fields, other in zip(head_a, zip(*rows_a), zip(*rows_b)):
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
        for f in glob.glob(os.path.join("*", "*_manifest.json")):
            os.remove(f)
