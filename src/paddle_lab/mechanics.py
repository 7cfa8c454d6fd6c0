"""Beam mechanics, force balance, equilibrium and pull-in analysis.

Force components acting on the paddle center (all signed, + toward the top
electrode):

    film   F = E_F * V_F * a * (eps_F0 - a*y_p),  a = t_b / (l_b*(l_b+l_p))
    beam   F = -y_p / compliance,  compliance = 6*l_b*(l_b+l_p) / (E*K*t_b^3)
    elec   F = -s * eps0*w_p*l_p * V^2 / (2*g0*g1)  per electrode

on each electrode's gap line (g0, g1, s: electrostatics.gap_coefficients).
Tensile residual stress (sigma0 > 0) lifts the paddle; the two DC
electrodes only attract. Equilibria are zeros of the total force; a zero
is stable when the force gradient there is restoring (dF/dy_p < 0).

With one electrode driven, equilibria and pull-in are found along the
deflection (StableBranch), both in closed form: pull-in as the root of a
quadratic, the equilibria of a whole voltage array as the stable roots of
one cubic, clipped to the branch and not polished. Whether a voltage has
a stable root is monotone in V^2, so the largest voltage of a drive below
pull-in decides the whole drive, and only a drive that reaches pull-in or
a pinned branch is refused voltage by voltage. A model holds each
electrode's branch once it is first asked for (_branch), so pull-in and
the cubic's constants are formed once per (model, electrode) and every
later pull_in_voltage, sweep_voltage and single-electrode solve_equilibrium
on that model reuses them. Their C_top and force columns, a sweep's arrays
or one equilibrium's floats, come from one gap-line pass on the driven
electrode (_branch_columns), unchecked since the branch keeps its poses
inside the touch interval, with the bits total_force and capacitance_value
give. On a sweep's arrays every constant, the held branch's cubic and the
model's gap-line, force, capacitance, film and beam constants, is a
read-only 0-d float64 array of the float it stands in for
(electrostatics._frozen): the same bits at less cost per NumPy call. A
sweep's drive reads its extremes from the ends of its sorted V. Every
equilibrium is one driven electrode's, or none's: solve_equilibrium
refuses a drive on both. The scan-and-bisect solver the
branch is checked against lives with the tests (tests/oracles.py), as an
independent reference.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .electrostatics import (GAP_SIGN, Electrode, _array_constants, _capacitance_on_line,
                             _force_per_v2_on_line, _frozen, _gap_terms, force_per_v2_value,
                             gap_coefficients)
from .errors import InvalidParameter, NoStableEquilibrium
from .model import PaddleGeometry, ValidatedModel

# Relative margin keeping the stable branch (and the tests' equilibrium scan)
# strictly inside the touch interval.
SCAN_MARGIN = 1e-6

# -0.0, the factor of a grounded electrode's force column on arrays (_branch_columns)
_MINUS_ZERO, = _frozen(-0.0)

# s of each electrode's gap line as a 0-d array, the sign of an array _Drive's c
_SIGN = dict(zip(GAP_SIGN, _frozen(*GAP_SIGN.values())))

# the literals of StableBranch._stable_root: floats, and 0-d arrays for a held branch's arrays
_ROOT_LITERALS = (math.pi / 3.0, 3.0, 2.0, 4.0, 0.0)
_ROOT_LITERAL_ARRAYS = _frozen(*_ROOT_LITERALS)


@dataclass(frozen=True)
class StressProfile:
    """Surface bending stress sampled along the beam."""

    x: np.ndarray        # distance from the load point, m
    sigma: np.ndarray    # bending stress, Pa
    uniformity: float    # max/min stress magnitude over the span (1 for zero load)


@dataclass(frozen=True)
class ForceBreakdown:
    """total_force's result, kept with it and with SweepResult.records for the benchmark."""

    F_film: float
    F_beam: float
    F_elec_top: float
    F_elec_bottom: float
    F_total: float


@dataclass(frozen=True)
class EquilibriumSolution:
    y_p: float
    C_top: float
    F_film: float
    F_beam: float
    F_elec_top: float
    F_elec_bottom: float
    F_total: float
    residual: float  # total force recomputed at y_p in plain arithmetic, _force_closure's bits


@dataclass(frozen=True)
class SweepRecord:
    V: float
    y_p: float
    C_top: float
    breakdown: ForceBreakdown


@dataclass(frozen=True, eq=False)  # == on array fields would raise
class SweepResult:
    """Equilibria of a voltage sweep as columns: element i of every array
    belongs to the i-th solved voltage, ascending in V."""

    V: np.ndarray
    y_p: np.ndarray
    C_top: np.ndarray
    F_film: np.ndarray
    F_beam: np.ndarray
    F_elec_top: np.ndarray
    F_elec_bottom: np.ndarray
    F_total: np.ndarray
    truncated_at: float | None  # first requested voltage at or past pull-in, if any

    @functools.cached_property
    def records(self) -> list[SweepRecord]:
        """The columns as one SweepRecord per row, built on first access.

        Kept only because the benchmark's checks read it. It gives the bits
        of the columns, as Python floats. The benchmark v2 item of
        ROADMAP.md moves those checks onto the columns and deletes it, with
        SweepRecord.
        """
        return [SweepRecord(V=v, y_p=y, C_top=c, breakdown=ForceBreakdown(*terms))
                for v, y, c, *terms in zip(
                    self.V.tolist(), self.y_p.tolist(), self.C_top.tolist(),
                    self.F_film.tolist(), self.F_beam.tolist(), self.F_elec_top.tolist(),
                    self.F_elec_bottom.tolist(), self.F_total.tolist())]


@dataclass(frozen=True)
class PullInResult:
    V_pull_in: float
    y_p_last_stable: float  # pull-in displacement y_PI, the last stable deflection
    electrode: Electrode


def stress_profile(P: float, geom: PaddleGeometry, plan: str, n: int) -> StressProfile:
    """Sampled stress along the beam for a tip load P.

    plan "triangular" tapers the width linearly to zero at the load point,
    which makes the surface stress uniform; "rectangular" keeps the root
    width everywhere, giving stress proportional to x. The span
    [l_b/10, l_b] stays clear of the load point, where the rectangular
    profile's max/min ratio would diverge.
    """
    if plan not in ("triangular", "rectangular"):
        raise InvalidParameter("plan", f"must be 'triangular' or 'rectangular', got {plan!r}")
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidParameter("n", f"must be an integer >= 2, got {n!r}")
    x = np.linspace(geom.l_b / 10.0, geom.l_b, n)
    if plan == "triangular":
        # width b(x) = b_root * x / l_b cancels the moment's x dependence
        sigma = np.full(n, 6.0 * P * geom.l_b / (geom.b_root * geom.t_b**2))
    else:
        sigma = 6.0 * P * x / (geom.b_root * geom.t_b**2)
    mags = np.abs(sigma)
    uniformity = 1.0 if mags.min() == 0.0 else float(mags.max() / mags.min())
    return StressProfile(x=x, sigma=sigma, uniformity=uniformity)


def compliance(model: ValidatedModel) -> float:
    """Paddle-center deflection per unit load, m/N."""
    return model.compliance


def strain_coupling(model: ValidatedModel) -> float:
    """Film strain change per unit paddle-center deflection, 1/m."""
    return model.a


def film_force(y_p, model: ValidatedModel):
    """Upward force from film stress at deflection y_p (elementwise on arrays)."""
    k = _array_constants(model) if isinstance(y_p, np.ndarray) else model
    return k.EFVFa * (k.eps_F0 - k.a * y_p)


def film_stiffness(model: ValidatedModel) -> float:
    """-dF_film/dy_p = E_F * V_F * a^2, N/m."""
    return model.EFVFa * model.a


def total_force(y_p: float, V_top: float, V_bottom: float,
                model: ValidatedModel) -> ForceBreakdown:
    """All force components and their sum at one paddle pose.

    No solve calls it (_branch_columns gives its bits); it is kept because
    perfbench/tracing.py wraps it, and the tests check those columns against it.
    """
    return ForceBreakdown(*_breakdown(
        y_p, model, force_per_v2_value(y_p, model, Electrode.TOP) * V_top * V_top,
        force_per_v2_value(y_p, model, Electrode.BOTTOM) * V_bottom * V_bottom))


def _breakdown(y_p, model: ValidatedModel, F_t, F_e) -> tuple:
    """ForceBreakdown's fields at y_p, in its order, given each electrode's force
    f*V*V: the one place the mechanical terms and their sum F_total are formed."""
    F_f = film_force(y_p, model)
    F_b = y_p / (_array_constants(model).minus_compliance if isinstance(y_p, np.ndarray)
                 else -model.compliance)
    return F_f, F_b, F_t, F_e, F_f + F_b + F_t + F_e


def _branch_columns(y_p, V, model: ValidatedModel, driven: Electrode) -> tuple:
    """(C_top, F_film, F_beam, F_elec_top, F_elec_bottom, F_total) at stable-branch
    poses y_p (floats or arrays) under V on `driven`, a checked electrode name,
    with the bits of total_force and capacitance_value.

    One unchecked gap-line pass on the driven electrode gives its force F and,
    with top driven, C_top. The grounded electrode's f*0*0 has the sign
    opposite to F's (f_top > 0 > f_bottom), so it is -0.0*F.
    """
    line = _gap_terms(y_p, model, driven)
    F = _force_per_v2_on_line(*line, model, driven) * V * V
    grounded = (_MINUS_ZERO if isinstance(y_p, np.ndarray) else -0.0) * F
    if driven == Electrode.TOP:
        F_t, F_e, top_line = F, grounded, line
    else:
        F_t, F_e, top_line = grounded, F, _gap_terms(y_p, model, Electrode.TOP)
    return (_capacitance_on_line(*top_line, model), *_breakdown(y_p, model, F_t, F_e))


class _Drive:
    """Voltages V on one electrode, checked and prepared for solving on any film.

    The one place a drive voltage is checked, InvalidParameter("V") unless
    every V is finite and >= 0 with a finite square (read on V's extremes lo
    and hi as Python floats: no NumPy overflow warning), and turned into a
    _force_sum term. A lone V is both extremes; a V sorted ascending hands
    over its first and last elements as `ends`, which fail the check where
    its min and max do (the sort puts NaN and inf last, -inf first); any
    other array is reduced. A refusal names V's min or max either way.
    Holds the extremes, V^2, half*V^2 and c = s*half*V^2, an array's with
    half and s as 0-d arrays (_array_constants, _SIGN), with the largest V's
    c as a float (c_hi) and the term (none where c_hi, and so every c, is
    0). Where V^2 is 0 (unforced) is formed only when read. Any film's
    StableBranch on the same geometry and electrode solves it with _roots.
    """

    __slots__ = ("V", "lo", "hi", "v2", "half_v2", "c", "c_hi", "terms")

    def __init__(self, model: ValidatedModel, electrode: Electrode, V, ends=None):
        V = np.asarray(V, dtype=float)
        lo, hi = _extremes(V) if ends is None else ends
        if not (0.0 <= lo and hi * hi < math.inf):  # NaN fails both
            lo, hi = _extremes(V)
            raise InvalidParameter(
                "V", f"drive voltages must be finite and >= 0, with a finite square "
                     f"(force is even in V), got {hi if 0.0 <= lo else lo!r}")
        rest, s = gap_coefficients(model, electrode)[:2]
        self.V, self.lo, self.hi = V, lo, hi
        self.v2 = V * V
        k, sign = (_array_constants(model), _SIGN[electrode]) if V.ndim else (model, s)
        self.half_v2 = k.half_eps0_area * self.v2
        self.c = sign * self.half_v2
        # c is monotone in V^2: the largest V's c has its element's bits, and
        # is 0 only where every c is
        self.c_hi = s * (model.half_eps0_area * (hi * hi))
        # a lone V's term holds c as a Python float: the scan oracle's bisection steps on floats
        self.terms = ((rest, s, self.c if V.ndim else self.c_hi),) if self.c_hi != 0.0 else ()

    @property
    def unforced(self):
        """Where V^2 is 0 (V = 0, or a V whose square underflows): rows at rest."""
        return self.v2 == 0.0


def _extremes(V: np.ndarray) -> tuple[float, float]:
    """(min, max) of V as Python floats, the max at least 0: a lone V is both, unreduced."""
    return ((float(V),) * 2 if not V.ndim else
            (float(V.min(initial=math.inf)), float(V.max(initial=0.0))))


def _force_closure(model: ValidatedModel, V_top: float, V_bottom: float):
    """Total force F(y_p) under a drive on each electrode, in plain arithmetic,
    on a float or an array.

    For total_force_curve, which perfbench/tracing.py times, and for the
    tests' scan oracle (tests/oracles.py); a solve takes the same sum on its
    one drive (StableBranch._force). Each electrode's term comes from its
    _Drive, which also checks the voltage. A drive voltage may be an array
    too, which broadcasts against y_p. Poses are not checked against the
    touch limits: callers stay inside the scan interval.
    """
    top, bottom = _Drive(model, Electrode.TOP, V_top), _Drive(model, Electrode.BOTTOM, V_bottom)
    return _force_sum(model.prestress, model.k, model.center_ratio, model.tilt,
                      top.terms + bottom.terms)


def _force_sum(prestress, k_lin, cr, tilt, terms):
    """F(y_p) = prestress - k_lin*y_p - sum of c/(g0*g1) over the driven electrodes.

    The one sum of the force terms. terms holds (rest, s, c) of each driven
    electrode's gap line, with c = s*half*V^2 (a float or an array).
    """

    def force(y_p):
        y_b = y_p / cr
        out = prestress - k_lin * y_p
        for rest, s, c in terms:  # _gap_terms' arithmetic
            g0 = rest - y_b if s < 0.0 else rest + y_b
            out -= c / (g0 * (g0 + (s * tilt) * y_b))
        return out

    return force


def total_force_curve(y_p, V_top: float, V_bottom: float,
                      model: ValidatedModel) -> np.ndarray:
    """Total force on an array of deflections inside the touch interval (V checked by _Drive).

    Kept because perfbench/tracing.py times it; the benchmark v2 item of
    ROADMAP.md moves its tests onto _force_closure and deletes it.
    """
    return _force_closure(model, V_top, V_bottom)(np.asarray(y_p, dtype=float))


def zero_voltage_equilibrium(model: ValidatedModel) -> float:
    """Closed-form rest deflection: prestress force over total stiffness."""
    return model.prestress / model.k


def drive_voltages(electrode: Electrode, V: float) -> tuple[float, float]:
    """(V_top, V_bottom) with V on `electrode` and the other one grounded."""
    return (V, 0.0) if electrode == Electrode.TOP else (0.0, V)


def _scan_bounds(model: ValidatedModel) -> tuple[float, float]:
    """The open touch interval, shrunk by SCAN_MARGIN at each end."""
    return model.y_p_min * (1.0 - SCAN_MARGIN), model.y_p_max * (1.0 - SCAN_MARGIN)


class _Pinned(NoStableEquilibrium):
    """Film stress pins the paddle against an electrode (StableBranch._pinned_error)."""


class StableBranch:
    """Stable equilibria of one driven electrode, parametrized by deflection.

    With V on one electrode the force balance F_mech(y_p) + f_e(y_p)*V^2 = 0
    gives the drive explicitly: V^2(y_p) = -F_mech(y_p)/f_e(y_p). From the
    rest deflection toward the driven electrode V^2 rises to one maximum,
    the pull-in point (y_PI, V_PI^2): V^2 is the mechanical force times the
    two edge gaps, all linear in y_p and positive there, so it is
    log-concave. This is the displacement-iteration pull-in extraction of
    Bochobza-Degani, Elata & Nemirovsky (J. MEMS 11(5), 2002).

    Below V_PI the total force changes sign exactly once between the
    rest-side end of the scan interval and y_PI, at the stable root. The
    force balance is a cubic in the deflection, so the stable roots of a
    whole voltage array come from one closed-form solve (_stable_root). At
    V = 0 the equilibrium is the rest deflection. Film stress that puts rest
    past a touch limit or on the driven end of the scan interval pins the
    paddle, and _roots refuses each V that does not pull it free.

    The film enters as film = (prestress, k), the model's pair
    unless given. The constructor computes the branch's constants once: the
    gap line to the driven electrode with its edge slopes b0 and b1, half =
    eps0*w_p*l_p/2, the rest deflection prestress/k and the pull-in point
    (y_pi, v2_pi). The cubic's constants are formed on the first solve, so a
    branch that never solves never forms them. One branch serves any number
    of voltages, and _roots is its one solve, of a _Drive on the same
    geometry and electrode, which any film's branch can solve. A model holds
    the branch of its own film on each electrode (_branch), which every
    sweep, pull-in and single solve on it reads; the stress fit prepares
    each electrode's drive once and solves it on its template with a new
    branch for each trial film's pair, which no model holds.
    """

    def __init__(self, model: ValidatedModel, electrode: Electrode, film=None):
        self.model = model
        self.electrode = Electrode(electrode)
        self.lo, self.hi = _scan_bounds(model)
        self.gap, self.s, self.cr, self.tilt = gap_coefficients(model, self.electrode)
        self.b0 = self.s / self.cr
        self.b1 = (1.0 + self.tilt) * self.b0
        self.half = model.half_eps0_area
        self.prestress, self.k = (model.prestress, model.k) if film is None else film
        self.rest = self.prestress / self.k  # zero_voltage_equilibrium
        # the two edge gaps at rest
        self.G0, self.G1 = self.gap + self.b0 * self.rest, self.gap + self.b1 * self.rest
        self.start = min(max(self.rest, self.lo), self.hi)  # clamped rest deflection
        toward_top = self.electrode is Electrode.TOP
        # rest-side end of the scan interval, the end at the driven electrode,
        # and whether a force F lacks a restoring force's sign at the rest-side end
        self.far, self.end = (self.lo, self.hi) if toward_top else (self.hi, self.lo)
        self.not_restoring = operator.le if toward_top else operator.ge  # F <= 0, F >= 0
        self.pinned = self.start != self.rest or self.start == self.end  # see _roots
        self.y_pi, self.v2_pi = self.pull_in()
        self._cubic = None  # _stable_root's constants, formed on the first solve
        self.held = False  # whether a model holds this branch (_branch)
        self._cubic_arrays = None  # a held branch's _cubic as 0-d arrays, on its first array solve
        self.pull_in_result = None  # pull_in_voltage's PullInResult, formed on its first call

    def _force(self, terms):
        """The total force F(y_p) (_force_sum) of this film under a drive's terms."""
        return _force_sum(self.prestress, self.k, self.cr, self.tilt, terms)

    def pull_in(self) -> tuple[float, float]:
        """(y_PI, V_PI^2): the maximum of V^2(y_p) from rest to the driven electrode.

        With z = y_p - rest, V^2 is proportional to z*(G0 + b0*z)*(G1 + b1*z),
        the two edge gaps being linear in z, so y_PI - rest is the root of
        3*b0*b1*z^2 + 2*(b0*G1 + b1*G0)*z + G0*G1 nearest 0, taken in the
        form that does not cancel (the discriminant is positive). Never
        raises: y_PI is clamped into [start, end], so on a pinned branch it
        can lie on an end, with V_PI^2 <= 0 on the driven one, where _roots
        refuses every V as pinned.
        """
        b0, b1, G0, G1 = self.b0, self.b1, self.G0, self.G1
        a, b, c = 3.0 * b0 * b1, 2.0 * (b0 * G1 + b1 * G0), G0 * G1
        z = -2.0 * c / (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        y = min(max(self.rest + z, min(self.start, self.end)), max(self.start, self.end))
        # V^2 = -F_mech/f_e with f_e = -s*half/(g0*g1), as in _force_sum, whose
        # F_mech and g0*g1 at y_PI are kept for _roots' test of a whole drive
        g0, delta = _gap_terms(y, self.model, self.electrode)
        self.mech_pi, self.gaps_pi = self.prestress - self.k * y, g0 * (g0 + delta)
        return y, self.s * self.mech_pi * g0 * (g0 + delta) / self.half

    def _pinned_error(self, V: float) -> _Pinned:
        """The error for V on a pinned branch. It names the touch limit the rest
        lies past or, for a rest within SCAN_MARGIN inside it, the scan bound."""
        rest, model = self.rest, self.model
        side, bound, limit, past = (("top", self.hi, model.y_p_max, rest >= model.y_p_max)
                                    if rest >= self.hi else
                                    ("bottom", self.lo, model.y_p_min, rest <= model.y_p_min))
        where = (f"lies past the touch limit {limit:.6e} m" if past else
                 f"lies at or past the scan bound {bound:.6e} m, {SCAN_MARGIN:g} "
                 f"inside the touch limit {limit:.6e} m")
        msg = (f"film stress pins the paddle against the {side} electrode: rest "
               f"y_p = {rest:.6e} m {where}")
        if V > 0.0:
            msg += f"; {V!r} V on the {self.electrode.value} electrode does not pull it free"
        return _Pinned(msg)

    def _stable_root(self, drive: _Drive):
        """Stable root of the branch cubic at drive's squared voltages, in [far, y_PI].

        With z = y_p - rest and w = s*z the balance k*z*(G0 + b0*z)*(G1 +
        b1*z) + s*half*V^2 = 0 reads w*(w + r0)*(w + r1) + e = 0, where
        r0 > r1 > 0 are the distances from rest to the root-edge and
        far-edge touch points and e >= 0 grows with V^2. Below V_PI it has
        three real roots: the stable one in (w_PI, 0], the unstable one past
        w_PI and one below -r0. That far root is simple at every V, so it
        comes from the trigonometric form without cancelling; deflating it
        leaves a quadratic whose smaller root, taken in the form that does
        not cancel, is the stable one (W. Kahan, To Solve a Real Cubic
        Equation, 1986). The quadratic w^2 + beta*w - mu takes mu = e/w_far
        and beta = -(r0*r1 + mu)/w_far from the roots' products, which does
        not cancel, where the roots' sum r0 + r1 + w_far would lose the bits
        of r1 since w_far is near -r0. The root is clipped into [far, y_PI]
        and not polished: within rounding of V_PI the force's slope is
        rounding noise, and a Newton step on it could leave the branch. The
        force at the root stays within a few eps times |prestress| + k*|y_p|.

        The constants of the film and geometry (the scale of e, q0, m's
        products, r0*r1, the interval [far, y_PI], rest and whether x at V = 0
        is at most 1, which rounding can break at tilts near 1e-9) are formed
        on the first call and kept: the same operations give the same bits. A
        held branch (_branch) solving an array also keeps them, and the
        literals, as 0-d arrays (_frozen), which give an array operation the
        float's bits at less cost; a lone V and a fit's trial branches, which
        each solve once, read the floats.
        """
        cubic = self._cubic
        if cubic is None:
            cr, tilt = self.cr, self.tilt
            r0 = self.G0 * cr
            r1 = self.G1 * cr / (1.0 + tilt)
            # depressed cubic t^3 - 3*m^2*t + q0 + e, t = w + (r0 + r1)/3
            m = math.sqrt((r0 - r1) ** 2 + r0 * r1) / 3.0
            q0 = (r0 + r1) * (2.0 * r0 - r1) * (r0 - 2.0 * r1) / 27.0
            lo, hi = min(self.far, self.y_pi), max(self.far, self.y_pi)
            cubic = self._cubic = (cr * cr / (self.k * (1.0 + tilt)), q0, -2.0 * m**3,
                                   -2.0 * m, (r0 + r1) / 3.0, r0 * r1, lo, hi, self.rest,
                                   q0 / (-2.0 * m**3) <= 1.0)
        e_scale, q0, minus_2m3 = cubic[:3]
        # x falls as e rises from 0: it lies in [-1, 1] when x at 0 and at the
        # largest V (half*V^2 = |c_hi|) do, and then the clip changes no bits
        clip = not (cubic[-1] and (q0 + abs(drive.c_hi) * e_scale) / minus_2m3 >= -1.0)
        literals = _ROOT_LITERALS
        if self.held and drive.V.ndim:
            if self._cubic_arrays is None:
                self._cubic_arrays = _frozen(*cubic[:-1])
            cubic, literals = self._cubic_arrays, _ROOT_LITERAL_ARRAYS
        e_scale, q0, minus_2m3, minus_2m, shift, r0r1, lo, hi, rest = cubic[:9]
        third_pi, three, two, four, zero = literals
        e = drive.half_v2 * e_scale
        x = (q0 + e) / minus_2m3
        if clip:  # np.minimum(np.maximum(...)) gives np.clip's bits at half its call cost
            x = np.minimum(np.maximum(x, -1.0), 1.0)
        w_far = minus_2m * np.cos(third_pi - np.arccos(x) / three) - shift
        mu = e / w_far  # w^2 + beta*w - mu holds the other two roots
        beta = -(r0r1 + mu) / w_far
        w = two * mu / (beta + np.sqrt(np.maximum(beta * beta + four * mu, zero)))
        return np.minimum(np.maximum(rest - w if self.s < 0.0 else rest + w, lo), hi)

    def _force_slope(self, drive: _Drive, y):
        """dF/dy_p of this film's total force under drive, at deflections y.

        The implicit derivative of an equilibrium on the film: with F =
        k*(rest - y_p) - c/(g0*g1), dy_p/dtheta = -(dF/dtheta)/(dF/dy_p),
        which is how the stress fit takes its exact Jacobian. The square is a
        product: an array's ** 2 is one too, while a float's goes through
        pow, which can differ in the last bit, so a float keeps an array
        element's bits.
        """
        b0, b1 = self.b0, self.b1
        g0, g1 = self.gap + b0 * y, self.gap + b1 * y
        g = g0 * g1
        return drive.c * (b0 * g1 + b1 * g0) / (g * g) - self.k

    def _roots(self, drive: _Drive):
        """(y_p, error): the stable y_p at each of drive's V, NaN where none
        exists, and the error for the first such V in array order (or None).

        One closed-form solve for all voltages (_stable_root); a float gets
        the bits of an array's element. The rule is per V: where V^2 is 0
        the pose is the rest deflection (start), and elsewhere V is stable
        where V^2 < V_PI^2 and the force at y_PI does not yet restore
        (within rounding of V_PI it can keep the rest-side sign). A pinned
        branch refuses V as pinned where it is pinned against its driven
        electrode, where V^2 is 0, or where the force at the rest-side end
        does not yet restore; that V's error is _pinned_error(V), any
        other's names V_PI.

        On an unpinned branch the drive's largest V decides every row. The
        force at y_PI is F = F_mech - c/(g0*g1), with F_mech and g0*g1 > 0
        fixed by the film (pull_in keeps them) and c = s*(half*V^2), so
        both tests are monotone in V^2 even under rounding, each operation
        being monotone. When the largest V passes, every V is solved with
        no per-row mask. The cubic's root where V^2 is 0 is rest, which is
        start there, up to the sign of a zero (a -0.0 rest on top gives
        +0.0), so only for a rest of +-0 are those rows set to start; where
        every V^2 is 0 no cubic is solved. Otherwise the rule runs row by row.
        """
        if (not self.pinned and drive.hi * drive.hi < self.v2_pi
                and self.not_restoring(self.mech_pi - drive.c_hi / self.gaps_pi, 0.0)):
            if drive.hi * drive.hi == 0.0:
                return np.full(drive.V.shape, self.start), None
            y = self._stable_root(drive)
            if self.rest == 0.0 and drive.lo * drive.lo == 0.0:
                y = np.where(drive.unforced, self.start, y)
            return y, None
        force = self._force(drive.terms)
        unforced = drive.unforced
        solved, driven = unforced, ~unforced
        if self.pinned:
            pinned = unforced | (self.start == self.end
                                 or self.not_restoring(force(self.far), 0.0))
            solved, driven = np.zeros(pinned.shape, dtype=bool), ~pinned
        y = np.where(solved, self.start, np.nan)
        if np.count_nonzero(driven):
            stable = driven & (drive.v2 < self.v2_pi) & self.not_restoring(force(self.y_pi), 0.0)
            if np.count_nonzero(stable):
                y = np.where(stable, self._stable_root(drive), y)
                solved = solved | stable
        if np.count_nonzero(solved) == solved.size:
            return y, None
        i = int(np.argmin(solved))
        v = float(drive.V.flat[i])
        if self.pinned and pinned.flat[i]:
            return y, self._pinned_error(v)
        return y, NoStableEquilibrium(
            f"no stable equilibrium at V = {v!r} V on the {self.electrode.value} "
            f"electrode; pull-in voltage is {math.sqrt(self.v2_pi):.4f} V")


def _branch(model: ValidatedModel, electrode: Electrode) -> StableBranch:
    """The model's StableBranch on electrode, built on first use and held by the model."""
    try:
        branch = model._branches.get(electrode)  # a str Electrode's value finds its member
    except TypeError:  # an unhashable name
        Electrode(electrode)  # raises InvalidParameter
    if branch is None:
        branch = StableBranch(model, electrode)
        branch.held = True
        model._branches[branch.electrode] = branch
    return branch


def solve_equilibrium(model: ValidatedModel, V_top: float = 0.0,
                      V_bottom: float = 0.0) -> EquilibriumSolution:
    """Stable force balance with V_top or V_bottom driven, the other at 0 V.

    One closed-form solve on the model's stable branch of the driven
    electrode (bottom when both are 0), with a sweep's _branch_columns on
    floats; the residual is the branch's force under the same _Drive, with
    _force_closure's bits. Raises InvalidParameter("V") for a refused drive
    and for a drive on both electrodes, which the paddle is not run with,
    NoStableEquilibrium at or past pull-in and when film stress pins the
    paddle against an electrode.
    """
    if V_top != 0.0 and V_bottom != 0.0:
        raise InvalidParameter("V", f"drive one electrode and ground the other, got "
                                    f"V_top={V_top!r} and V_bottom={V_bottom!r}")
    driven, V = (Electrode.TOP, V_top) if V_top != 0.0 else (Electrode.BOTTOM, V_bottom)
    branch, drive = _branch(model, driven), _Drive(model, driven, V)
    y, error = branch._roots(drive)
    if error is not None:
        raise error
    y = float(y)
    return EquilibriumSolution(y, *_branch_columns(y, V, model, driven),
                               branch._force(drive.terms)(y))


def pull_in_voltage(model: ValidatedModel, electrode: Electrode) -> PullInResult:
    """Pull-in of one driven electrode: the maximum of V(y_p) on its stable branch.

    V(y_p) = sqrt(-F_mech(y_p)/f_e(y_p)) is the drive that balances
    deflection y_p. Its maximum along the branch from rest toward the
    electrode is V_PI, in closed form (StableBranch.pull_in()); no stable
    equilibrium exists at V >= V_PI. y_p_last_stable is the pull-in
    displacement y_PI where the maximum is reached. The model's branch
    (_branch) holds the result, so every call on one model and electrode
    returns the same frozen PullInResult. Raises NoStableEquilibrium when
    film stress pins the paddle at rest.
    """
    branch = _branch(model, electrode)
    if branch.pull_in_result is None:
        if branch.pinned:
            raise branch._pinned_error(0.0)
        branch.pull_in_result = PullInResult(
            V_pull_in=math.sqrt(branch.v2_pi), y_p_last_stable=branch.y_pi,
            electrode=branch.electrode)
    return branch.pull_in_result


def sweep_voltage(model: ValidatedModel, electrode: Electrode,
                  V_list) -> SweepResult:
    """Equilibrium columns (SweepResult) for each voltage below pull-in, ascending.

    Voltages past pull-in give no row; the first such voltage is reported
    in truncated_at (truncation is data, not an error). The model's stable
    branch (_branch) solves every voltage in one closed-form call, and
    _branch_columns forms the columns: the electrode at 0 V gets the signed
    zero that f*0*0 gives (-0.0 for bottom, +0.0 for top). Raises
    NoStableEquilibrium when film stress pins the paddle at the lowest
    voltage, InvalidParameter("V_list") unless V_list is a nonempty 1-D
    list, and the drive's InvalidParameter("V") unless every voltage is
    finite and >= 0 with a finite square.
    """
    V, y, truncated_at = _sweep_poses(model, electrode, V_list)
    return SweepResult(V, y, *_branch_columns(y, V, model, electrode), truncated_at)


def _sweep_poses(model: ValidatedModel, electrode: Electrode, V_list):
    """(V, y_p, truncated_at) of sweep_voltage, with its checks and errors: the
    solved voltages ascending and their poses, without the other columns."""
    V = np.array(V_list, dtype=float)  # a copy, sorted in place below
    if V.ndim != 1:
        raise InvalidParameter("V_list", f"must be a 1-D list of voltages, got shape {V.shape}")
    if not V.size:
        raise InvalidParameter("V_list", "must be nonempty")
    V.sort(kind="stable")
    branch = _branch(model, electrode)
    y, error = branch._roots(_Drive(model, branch.electrode, V, (V.item(0), V.item(-1))))
    if error is None:
        return V, y, None
    if isinstance(error, _Pinned):
        raise error
    n = int(np.flatnonzero(np.isnan(y))[0])  # first refused V
    return V[:n], y[:n], V.item(n)
