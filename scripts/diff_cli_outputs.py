"""Write the CLI data files of a fixed command list (manifests dropped), or diff two such sets.

Usage: PYTHONPATH=src python3 scripts/diff_cli_outputs.py --write DIR | --compare DIR_A DIR_B
Extract fits C-V files rounded to 12 digits, so trees differing in the last bits of C fit the
same data. --compare prints changed rows and max ulp and absolute differences per column, and
the max absolute difference over the column's max |value| in either tree (rel |diff|), which
stays meaningful for columns that cross zero, where ulp counts across a sign change are not.
"""
import argparse
import csv
import glob
import itertools
import json
import os

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
    for e, yp in itertools.product(("top", "bottom"), ("-4e-5", "0", "3e-5")):
        yield f"measure-{e}-{yp}", f"measure --electrode {e} --yp={yp} --seed 5"
    truth = build_model(sigma0=150e6, t_F=220e-9)
    for name, e, top in (("top", "top", 0.8), ("bottom", "bottom", 0.8), ("near", "bottom", 0.9999)):
        V = np.linspace(0.0, top * pull_in_voltage(truth, e).V_pull_in, 21)
        rows = simulate_cv(truth, e, V, NoiseModel(sigma_C=1e-17, seed=11)).rows
        with open(f"cv-{name}.csv", "w") as fh:
            fh.write("V_volt,C_F\n" + "".join(f"{r.V:.12e},{r.C:.12e}\n" for r in rows))
        yield f"extract-{name}", f"extract --electrode {e} --data cv-{name}.csv"


def columns(path):
    """{column: fields} of a CSV file, {key: [value]} of a JSON object."""
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            return {k: [str(v)] for k, v in json.load(fh).items()}
        header, *rows = csv.reader(fh)
    return dict(zip(header, zip(*rows)))


def compare(a, b):
    print(f"{'file':<48} {'column':<16} {'changed':>11} {'max ulp':>8} {'max |diff|':>10} "
          f"{'rel |diff|':>10}")
    for name in sorted(os.path.relpath(p, a) for p in glob.glob(os.path.join(a, "*", "*"))):
        other = columns(os.path.join(b, name))
        for col, fields in columns(os.path.join(a, name)).items():
            changed = [(x, y) for x, y in zip(fields, other[col]) if x != y]
            if not changed:
                continue
            try:
                x, y = np.array(changed, dtype=float).T
                i, j = (np.where(v < 0, -(v & 0x7FFFFFFFFFFFFFFF), v)
                        for v in (x.view(np.int64), y.view(np.int64)))
                diff = np.abs(x - y).max()
                scale = np.abs(np.array([fields, other[col]], dtype=float)).max()
                num = f"{np.abs(i - j).max():>8d} {diff:>10.2e} {diff / scale:>10.2e}"
            except ValueError:  # text fields
                num = f"{'-':>8} {'-':>10} {'-':>10}"
            print(f"{name:<48} {col:<16} {len(changed):>5}/{len(fields):<5} {num}")


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
