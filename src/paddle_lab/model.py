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

    The constructor resolves the A_F default, checks every field (each must
    be finite, then lie in its range; InvalidParameter names the first that
    does not), checks that the beam's section and rigidity products neither
    underflow to 0 nor overflow, and computes the touch limits. build_model
    and model_from_dict build one from flat keywords or a dict; to vary a
    parameter, go through the flat dict: model_from_dict({**model_to_dict(m),
    key: value}).
    Immutable after construction; safe to share across workers.
    """

    constants: PhysicalConstants
    geom: PaddleGeometry
    substrate: SubstrateMaterial
    film: FilmSpec
    y_p_min: float = field(init=False)
    y_p_max: float = field(init=False)

    def __post_init__(self):
        g, substrate, film = self.geom, self.substrate, self.film
        if film.A_F is None:
            film = dataclasses.replace(film, A_F=0.5 * g.b_root * g.l_b)
            object.__setattr__(self, "film", film)
        for name, value in {**vars(self.constants), **vars(g), **vars(substrate),
                            **vars(film)}.items():
            if not math.isfinite(value):
                raise InvalidParameter(name, f"must be finite, got {value!r}")
        _require_positive("eps0", self.constants.eps0)
        for name, value in vars(g).items():
            _require_positive(name, value)
        if not g.t_b < g.d_c:
            raise InvalidParameter("t_b", f"plate must be thin relative to the gap (t_b={g.t_b} >= d_c={g.d_c})")
        _require_positive("E_biaxial", substrate.E_biaxial)
        _require_positive("K", substrate.K)
        # the divisors of mechanics.stress_profile and mechanics.compliance
        _require_in_range("t_b", "the beam section b_root*t_b**2", lambda: g.b_root * g.t_b**2)
        _require_in_range("E_biaxial", "the beam rigidity E_biaxial*K*t_b**3",
                          lambda: substrate.E_biaxial * substrate.K * g.t_b**3)
        _require_positive("E_F", film.E_F)
        if film.t_F < 0.0:
            raise InvalidParameter("t_F", f"must be >= 0, got {film.t_F!r}")
        _require_positive("A_F", film.A_F)
        y_p_min, y_p_max = touch_limits(g)
        object.__setattr__(self, "y_p_min", y_p_min)
        object.__setattr__(self, "y_p_max", y_p_max)

    @property
    def eps_F0(self) -> float:
        """Initial film strain sigma0 / E_F."""
        return self.film.sigma0 / self.film.E_F

    @property
    def V_F(self) -> float:
        """Film volume t_F * A_F, m^3."""
        return self.film.t_F * self.film.A_F


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise InvalidParameter(name, f"must be > 0, got {value!r}")


def _require_in_range(name: str, what: str, product) -> None:
    """product() of positive factors must neither underflow to 0 nor overflow (** raises)."""
    try:
        value = product()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise InvalidParameter(name, f"{what} must be > 0 and finite, got {value!r}")


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
    return {**vars(model.constants), **vars(model.geom), **vars(model.substrate),
            **vars(model.film)}


def model_from_dict(data: dict) -> ValidatedModel:
    for key, value in data.items():
        if key not in MODEL_JSON_KEYS:
            raise InvalidParameter(key, "unknown model key")
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

