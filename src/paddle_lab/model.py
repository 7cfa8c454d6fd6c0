"""Physical parameters, sign conventions, and paddle kinematics.

Single source of truth for every symbol used by the other modules. All
quantities are SI base units. Sign convention: deflection y is positive
toward the top (capacitor) electrode; tensile film stress deflects the
paddle upward; the bottom (deflection) electrode pulls downward.

The paddle is a rigid plate of length l_p (along the beam axis) and width
w_p hinged to the tip of a triangular beam of length l_b. Under a tip
deflection y_b the plate tilts with slope 2*y_b/l_b, so the plate center
moves by y_p = y_b*(1 + l_p/l_b) and the far edge by y_b*(1 + 2*l_p/l_b).

ValidatedModel is the one model type; its constructor resolves the derived
defaults and checks every parameter. build_model (keyword overrides of the
defaults) and model_from_dict (a flat dict, as read from a JSON model file)
build it; model_to_dict is the inverse. A parameter is varied through the
flat dict or build_model.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

from .errors import InvalidParameter

@dataclass(frozen=True)
class PhysicalConstants:
    eps0: float = 8.85e-12  # vacuum permittivity, F/m


@dataclass(frozen=True)
class PaddleGeometry:
    """Beam + paddle + electrode-gap geometry, meters.

    w_p defaults to l_p (square paddle), b_root to l_p (triangular beam
    whose root spans the paddle width), and d_e to d_c (symmetric gaps).
    """

    l_b: float = 3e-3       # beam length
    l_p: float = 5e-3       # paddle length along the beam axis
    w_p: float | None = None    # paddle width, default l_p
    t_b: float = 40e-6      # beam thickness
    b_root: float | None = None  # beam width at the root, default l_p
    d_c: float = 100e-6     # flat-paddle gap to the top (capacitor) electrode
    d_e: float | None = None    # flat-paddle gap to the bottom electrode, default d_c

    def __post_init__(self):
        if self.w_p is None:
            object.__setattr__(self, "w_p", self.l_p)
        if self.b_root is None:
            object.__setattr__(self, "b_root", self.l_p)
        if self.d_e is None:
            object.__setattr__(self, "d_e", self.d_c)

    @property
    def center_ratio(self) -> float:
        """y_p / y_b for the rigid tilting plate."""
        return 1.0 + self.l_p / self.l_b

    @property
    def edge_ratio(self) -> float:
        """y_edge / y_b for the rigid tilting plate."""
        return 1.0 + 2.0 * self.l_p / self.l_b


@dataclass(frozen=True)
class SubstrateMaterial:
    E_biaxial: float = 180e9  # substrate biaxial modulus, Pa
    K: float = 0.3            # dimensionless beam geometric factor


@dataclass(frozen=True)
class FilmSpec:
    """Deposited film: modulus, thickness, strained area, residual stress.

    A_F defaults to half the beam's root width times its length (the full
    triangular beam face); ValidatedModel resolves the default, since it
    needs the geometry.
    """

    E_F: float = 70e9        # film modulus, Pa
    t_F: float = 200e-9      # film thickness, m
    A_F: float | None = None  # strained film area, m^2
    sigma0: float = 0.0      # residual (initial) film stress, Pa


# Keys accepted in a JSON model file (the parts' fields, in order); omitted keys take the defaults.
MODEL_JSON_KEYS = tuple(f.name for part in (PhysicalConstants, PaddleGeometry,
                                            SubstrateMaterial, FilmSpec)
                        for f in dataclasses.fields(part))


@dataclass(frozen=True)
class ValidatedModel:
    """The package's one model type: every parameter resolved and checked.

    The constructor resolves the A_F default and checks every field (each
    must be finite, then lie in its range). It then forms the derived
    constants, the init=False fields, which mechanics and electrostatics
    read. Each one a kernel divides by or squares must be a normal positive
    float (sys.float_info.min <= v < inf), and the rest deflection finite.
    InvalidParameter names the field that drives the first check to fail:

        b_root*t_b**2 (stress_profile)  t_b           {"t_b": 1e-300}
        E_biaxial*K*t_b**3              E_biaxial     {"E_biaxial": 1e300, "K": 1e300}
        6*l_b*(l_b + l_p)               l_b           {"l_b": 1e300}
        compliance, under/overflow      E_biaxial/l_b {"E_biaxial": 1e300, "l_b": 1e-160}
        a                               l_b           {"l_b": 1e152}
        k                               *, else l_b   {"E_F": 1e300, "t_F": 1e300}
        half_eps0_area, under/overflow  least/greatest of eps0, w_p, l_p: {"w_p": 1e-300}
        tilt                            l_p           {"l_b": 1e-200, "l_p": 1e120}
        k*d**3, and over eps0_area      *, else d     {"d_e": 2.3e-108}, {"t_F": 1e300}
        ((d_c + d_e)*center_ratio)**3   l_p, else **  {"l_b": 1e-100, "l_p": 1e120}
        prestress/k, finite             sigma0        {"sigma0": 1e300, "E_F": 1e-300}

    * t_F where the film's part of k is the larger. ** the larger gap where center_ratio is
    not the larger factor or the cube underflows. The last but one is the scale of the stable
    branch's cubic (mechanics.StableBranch), whose roots lie up to (d_c + d_e)*center_ratio
    apart. build_model and model_from_dict build one; to vary a parameter, go through the flat
    dict: model_from_dict({**model_to_dict(m), key: value}). Its parameters and derived
    constants never change after construction, and it is safe to share across workers. It
    also holds each electrode's StableBranch once one is built (mechanics._branch) and its
    capacitance range once one is formed (electrostatics.capacitance_range), which ==, hash
    and repr leave out.
    """

    constants: PhysicalConstants
    geom: PaddleGeometry
    substrate: SubstrateMaterial
    film: FilmSpec
    compliance: float = field(init=False)  # 6*l_b*(l_b + l_p)/(E_biaxial*K*t_b**3), m/N
    a: float = field(init=False)           # strain coupling t_b/(l_b*(l_b + l_p)), 1/m
    V_F: float = field(init=False)         # film volume t_F*A_F, m^3
    eps_F0: float = field(init=False)      # initial film strain sigma0/E_F
    EFVFa: float = field(init=False)       # E_F*V_F*a, N
    prestress: float = field(init=False)   # film force at y_p = 0, EFVFa*eps_F0, N
    k: float = field(init=False)           # total stiffness EFVFa*a + 1/compliance, N/m
    eps0_area: float = field(init=False)   # eps0*w_p*l_p, F*m
    half_eps0_area: float = field(init=False)  # eps0*w_p*l_p/2, F*m
    tilt: float = field(init=False)        # gap change root to far edge per y_b, 2*l_p/l_b
    center_ratio: float = field(init=False)  # y_p/y_b, 1 + l_p/l_b (finite where tilt is)
    y_p_min: float = field(init=False)     # touch limits (touch_limits)
    y_p_max: float = field(init=False)
    _branches: dict = field(init=False, compare=False, repr=False)  # electrode -> StableBranch
    _ranges: dict = field(init=False, compare=False, repr=False)  # electrode -> (c_min, c_max)

    def __post_init__(self):
        g, substrate, film = self.geom, self.substrate, self.film
        if film.A_F is None:
            film = dataclasses.replace(film, A_F=0.5 * g.b_root * g.l_b)
            object.__setattr__(self, "film", film)
        params = model_to_dict(self)
        for name, value in params.items():
            if not math.isfinite(value):
                raise InvalidParameter(name, f"must be finite, got {value!r}")
            if name == "t_F" and value < 0.0:
                raise InvalidParameter(name, f"must be >= 0, got {value!r}")
            if name not in ("t_F", "sigma0") and value <= 0.0:
                raise InvalidParameter(name, f"must be > 0, got {value!r}")
        if not g.t_b < g.d_c:
            raise InvalidParameter("t_b", f"plate must be thin relative to the gap (t_b={g.t_b} >= d_c={g.d_c})")
        _normal("t_b", "the beam section b_root*t_b**2", lambda: g.b_root * g.t_b**2)
        rigidity = _normal("E_biaxial", "the beam rigidity E_biaxial*K*t_b**3",
                           lambda: substrate.E_biaxial * substrate.K * g.t_b**3)
        numerator = _normal("l_b", "the compliance numerator 6*l_b*(l_b + l_p)",
                            lambda: 6.0 * g.l_b * (g.l_b + g.l_p))
        compliance = _normal("E_biaxial" if numerator < rigidity else "l_b",
                             "the compliance 6*l_b*(l_b + l_p)/(E_biaxial*K*t_b**3)",
                             lambda: numerator / rigidity)
        a = _normal("l_b", "the strain coupling t_b/(l_b*(l_b + l_p))",
                    lambda: g.t_b / (g.l_b * (g.l_b + g.l_p)))
        V_F, eps_F0 = film.t_F * film.A_F, film.sigma0 / film.E_F
        EFVFa = film.E_F * V_F * a
        prestress = EFVFa * eps_F0
        film_name = "t_F" if EFVFa * a > 1.0 / compliance else None
        k = _normal(film_name or "l_b", "the stiffness E_F*V_F*a**2 + 1/compliance",
                    lambda: EFVFa * a + 1.0 / compliance)
        eps0_area = self.constants.eps0 * g.w_p * g.l_p
        area_name = (min if eps0_area < 1.0 else max)(("l_p", "w_p", "eps0"), key=params.get)
        half_eps0_area = _normal(area_name, "the electrostatic scale eps0*w_p*l_p/2",
                                 lambda: 0.5 * eps0_area)
        tilt = _normal("l_p", "the tilt 2*l_p/l_b", lambda: 2.0 * g.l_p / g.l_b)
        for name, d in (("d_c", g.d_c), ("d_e", g.d_e)):  # V_PI**2 ~ k*d**3/(eps0*w_p*l_p)
            for what, over in ((f"k*{name}**3", 1.0), (f"k*{name}**3/(eps0*w_p*l_p)", eps0_area)):
                _normal(film_name or name, f"the pull-in scale {what}", lambda: k * d**3 / over)
        # the branch cubic's roots lie up to the span times center_ratio apart (StableBranch)
        span, ratio = g.d_c + g.d_e, g.center_ratio
        wide = max(("d_c", "d_e"), key=params.get)
        _normal("l_p" if ratio >= span and span * ratio >= 1.0 else wide,
                "the branch cubic's scale ((d_c + d_e)*center_ratio)**3", lambda: (span * ratio) ** 3)
        if not math.isfinite(prestress / k):
            raise InvalidParameter("sigma0", f"the rest deflection E_F*V_F*a*eps_F0/k must be "
                                             f"finite, got {prestress / k!r}")
        y_p_min, y_p_max = touch_limits(g)
        for name, value in dict(compliance=compliance, a=a, V_F=V_F, eps_F0=eps_F0, EFVFa=EFVFa,
                                prestress=prestress, k=k, eps0_area=eps0_area,
                                half_eps0_area=half_eps0_area, tilt=tilt,
                                center_ratio=g.center_ratio,
                                y_p_min=y_p_min, y_p_max=y_p_max, _branches={},
                                _ranges={}).items():
            object.__setattr__(self, name, value)


def _normal(name: str, what: str, value) -> float:
    """value() unless it is not a normal positive float (** overflow counts as inf)."""
    try:
        value = value()
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise InvalidParameter(name, f"{what} must be a normal positive float, got {value!r}")
    return value


def build_model(**overrides) -> ValidatedModel:
    """Build a model from flat keyword overrides of the defaults.

    Accepts exactly the JSON-file keys (eps0, l_b, ..., sigma0) and hands
    each part its own; ValidatedModel resolves and checks the result.
    """
    unknown = set(overrides) - set(MODEL_JSON_KEYS)
    if unknown:
        raise InvalidParameter(sorted(unknown)[0], "unknown model parameter")

    def part(cls):
        return cls(**{k: v for k, v in overrides.items() if k in cls.__dataclass_fields__})

    return ValidatedModel(part(PhysicalConstants), part(PaddleGeometry),
                          part(SubstrateMaterial), part(FilmSpec))


def model_to_dict(model: ValidatedModel) -> dict:
    """Flat JSON-ready dict: the parts' fields, which are MODEL_JSON_KEYS in order."""
    # getattr, not vars(): materializing a part's __dict__ slows every later read on it
    return {name: getattr(part, name)
            for part in (model.constants, model.geom, model.substrate, model.film)
            for name in part.__dataclass_fields__}


def model_from_dict(data: dict) -> ValidatedModel:
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidParameter(key, f"must be a number, got {value!r}")
    return build_model(**data)


def load_model_json(path) -> ValidatedModel:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter("config", f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameter("config", "model file must contain a JSON object")
    return model_from_dict(data)


# --- kinematics ---

def yb_from_yp(y_p: float, geom: PaddleGeometry) -> float:
    """Beam-tip deflection for a given paddle-center deflection."""
    return y_p / geom.center_ratio


def touch_limits(geom: PaddleGeometry) -> tuple[float, float]:
    """(y_p_min, y_p_max) at which the paddle's far edge meets an electrode."""
    lever = geom.center_ratio / geom.edge_ratio
    return -geom.d_e * lever, geom.d_c * lever

