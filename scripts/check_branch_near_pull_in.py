"""Check that stable-branch poses move monotonically toward y_PI up to pull-in.

Usage: PYTHONPATH=src python3 scripts/check_branch_near_pull_in.py --stresses N --seed S

Draws N film stresses uniformly from +-400 MPa on the default model and, on
each electrode, sweeps the four voltages 0.99*V_PI, V_PI*(1 - 1e-15),
nextafter(V_PI, 0) and V_PI (sweep_voltage, which truncates at or past
pull-in). Within rounding of V_PI the stable and unstable roots merge, and
each accepted pose must lie no farther from the pull-in displacement y_PI
than the pose before it. Prints one summary line and exits 1 if any branch
moves away from y_PI, listing the first few with the size of the jump in
branch lengths |y_PI - rest|.
"""
import argparse
import math
import sys

import numpy as np

from paddle_lab import (Electrode, NoStableEquilibrium, build_model, pull_in_voltage,
                        sweep_voltage, zero_voltage_equilibrium)

SIGMA0_MAX = 400e6  # Pa, the stresses are drawn from [-SIGMA0_MAX, SIGMA0_MAX)
SHOWN = 5           # branches listed on failure


def away_from_pull_in(sigma0: float, electrode: Electrode):
    """(jump, V, y_p) where the branch's poses move away from y_PI, else None.

    jump is the largest step away from y_PI in branch lengths; a film
    stress that pins the paddle has no branch and gives None.
    """
    model = build_model(sigma0=sigma0)
    try:
        pi = pull_in_voltage(model, electrode)
    except NoStableEquilibrium:
        return None
    v_pi = pi.V_pull_in
    result = sweep_voltage(model, electrode,
                           [0.99 * v_pi, v_pi * (1.0 - 1e-15), math.nextafter(v_pi, 0.0), v_pi])
    distance = np.abs(pi.y_p_last_stable - result.y_p)
    steps = np.diff(distance)
    if not np.any(steps > 0.0):
        return None
    length = abs(pi.y_p_last_stable - zero_voltage_equilibrium(model))
    return float(steps.max()) / length, result.V.tolist(), result.y_p.tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stresses", type=int, default=1000, help="film stresses to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    bad = []
    for sigma0 in rng.uniform(-SIGMA0_MAX, SIGMA0_MAX, args.stresses).tolist():
        for electrode in Electrode:
            found = away_from_pull_in(sigma0, electrode)
            if found is not None:
                bad.append((sigma0, electrode, *found))
    print(f"{2 * args.stresses} branches, {len(bad)} move away from y_PI")
    for sigma0, electrode, jump, V, y in bad[:SHOWN]:
        print(f"    sigma0 = {sigma0!r} Pa on {electrode.value}: {jump:.3g} branch lengths, "
              f"V = {V!r}, y_p = {y!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
