import json
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st
from paddle_lab import (Electrode, FilmSpec, InvalidParameter, NoStableEquilibrium,
                        PaddleGeometry, PhysicalConstants, SubstrateMaterial,
                        ValidatedModel, build_model, load_model_json, model_from_dict,
                        model_to_dict, pull_in_voltage, sweep_voltage, touch_limits,
                        yb_from_yp)
from paddle_lab.electrostatics import gap_coefficients
from paddle_lab.model import MODEL_JSON_KEYS


def test_default_geometry_resolution(default_model):
    g = default_model.geom
    assert g.w_p == g.l_p
    assert g.b_root == g.l_p
    assert g.d_e == g.d_c
    assert g.center_ratio == pytest.approx(1.0 + 5.0 / 3.0, rel=1e-15)
    assert g.edge_ratio == pytest.approx(1.0 + 10.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("config", [{}, {"l_b": 1e-3, "l_p": 30e-3}, {"l_b": 8e-3, "l_p": 1e-3}])
def test_center_ratio_is_formed_once(config):
    # the kernels read the stored y_p/y_b, which has the bits of the property
    m = build_model(**config)
    assert type(m.center_ratio) is float
    assert m.center_ratio.hex() == m.geom.center_ratio.hex()
    assert gap_coefficients(m, Electrode.TOP)[2] is m.center_ratio


def test_film_defaults_resolve(default_model):
    f = default_model.film
    # half the root width times beam length: triangular plan fully covered
    assert f.A_F == pytest.approx(0.5 * 5e-3 * 3e-3, rel=1e-15)
    assert default_model.V_F == pytest.approx(f.t_F * f.A_F, rel=1e-15)
    assert default_model.eps_F0 == 0.0


def test_touch_limits_value(default_model):
    lo, hi = touch_limits(default_model.geom)
    assert hi == pytest.approx(8e-4 / 13.0, rel=1e-14)
    assert lo == pytest.approx(-8e-4 / 13.0, rel=1e-14)
    assert default_model.y_p_min == lo and default_model.y_p_max == hi


def test_kinematic_round_trip(default_model):
    g = default_model.geom
    for y_p in (-5e-5, -1e-6, 0.0, 2e-5, 6e-5):
        assert yb_from_yp(y_p, g) * g.center_ratio == pytest.approx(y_p, abs=1e-20)


def test_build_model_rejects_unknown_key():
    with pytest.raises(InvalidParameter):
        build_model(notakey=1.0)


@pytest.mark.parametrize("key,value", [
    ("l_b", 0.0), ("l_p", -1e-3), ("t_b", 0.0), ("d_c", -1e-6),
    ("E_biaxial", 0.0), ("K", 0.0), ("E_F", -1.0), ("t_F", -1e-9),
])
def test_build_model_rejects_nonpositive(key, value):
    with pytest.raises(InvalidParameter):
        build_model(**{key: value})


@pytest.mark.parametrize("key", MODEL_JSON_KEYS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="10**400"),
                                   pytest.param(-10**400, id="-10**400")])
def test_non_finite_parameters_rejected(key, value):
    # an int past the float range is refused by key too, not raised as OverflowError
    for make in (lambda: build_model(**{key: value}),
                 lambda: model_from_dict({key: value})):
        with pytest.raises(InvalidParameter) as info:
            make()
        assert info.value.name == key
        assert "finite" in info.value.reason


def test_derived_film_area_must_be_finite():
    # every override is finite, but the A_F default 0.5*b_root*l_b overflows
    with pytest.raises(InvalidParameter) as info:
        build_model(b_root=1e200, l_b=1e200, l_p=1e200, d_c=1e200, t_b=1e-6)
    assert info.value.name == "A_F"
    assert "finite" in info.value.reason


@pytest.mark.parametrize("overrides,name,what", [
    ({"t_b": 1e-300}, "t_b", "b_root*t_b**2 must be a normal positive float, got 0.0"),
    ({"t_b": 1e200, "d_c": 1e201}, "t_b",
     "b_root*t_b**2 must be a normal positive float, got inf"),
    ({"E_biaxial": 1e-300, "K": 1e-20}, "E_biaxial",
     "E_biaxial*K*t_b**3 must be a normal positive float, got 0.0"),
    ({"E_biaxial": 1e300, "K": 1e300}, "E_biaxial",
     "E_biaxial*K*t_b**3 must be a normal positive float, got inf"),
], ids=["section-underflow", "section-overflow", "rigidity-underflow", "rigidity-overflow"])
def test_beam_products_must_stay_in_range(overrides, name, what):
    # every field is finite and positive, but stress_profile divides by b_root*t_b**2 and
    # compliance by E_biaxial*K*t_b**3: 0 was a ZeroDivisionError there, t_b**2 past the
    # float range an OverflowError
    with pytest.raises(InvalidParameter) as info:
        build_model(**overrides)
    assert info.value.name == name
    assert info.value.reason.endswith(what)


@pytest.mark.parametrize("overrides,name,what,inside", [
    ({"l_b": 1e300}, "l_b", "6*l_b*(l_b + l_p) must be a normal positive float, got inf",
     {"l_b": 1e100}),
    ({"d_c": 1e300}, "d_c", "k*d_c**3 must be a normal positive float, got inf", {"d_c": 1e50}),
    ({"d_c": 1e100}, "d_c", "k*d_c**3/(eps0*w_p*l_p) must be a normal positive float, got inf",
     {"d_c": 1e50}),
    ({"d_e": 1e300}, "d_e", "k*d_e**3 must be a normal positive float, got inf", {"d_e": 1e50}),
    ({"d_e": 2.3e-108}, "d_e", "k*d_e**3 must be a normal positive float, got 2.4e-322",
     {"d_e": 1e-100}),
    ({"E_biaxial": 1e300, "l_b": 1e-160}, "E_biaxial",
     "/(E_biaxial*K*t_b**3) must be a normal positive float, got 0.0", {"E_biaxial": 1e200}),
    ({"l_b": 1e153}, "l_b", "/(E_biaxial*K*t_b**3) must be a normal positive float, got inf",
     {"l_b": 1e100}),
    ({"l_b": 1e152}, "l_b", "t_b/(l_b*(l_b + l_p)) must be a normal positive float, got 4e-309",
     {"l_b": 1e100}),
    ({"E_F": 1e300, "t_F": 1e300}, "t_F",
     "E_F*V_F*a**2 + 1/compliance must be a normal positive float, got inf",
     {"E_F": 1e300, "t_F": 1e-10}),
    ({"E_biaxial": 1e9, "l_b": 1.8e151}, "l_b",
     "E_F*V_F*a**2 + 1/compliance must be a normal positive float, got 9.876543209876544e-309",
     {"E_biaxial": 1e9, "l_b": 1e60}),
    ({"w_p": 1e-300}, "w_p", "eps0*w_p*l_p/2 must be a normal positive float, got 2.2125e-314",
     {"w_p": 1e-200}),
    ({"eps0": 1e-300, "l_p": 1e-5}, "eps0",
     "eps0*w_p*l_p/2 must be a normal positive float, got 5e-311", {"eps0": 1e-290, "l_p": 1e-5}),
    ({"w_p": 1e300, "eps0": 1e20}, "w_p",
     "eps0*w_p*l_p/2 must be a normal positive float, got inf", {"w_p": 1e100, "eps0": 1e20}),
    ({"l_b": 1e-200, "l_p": 1e120}, "l_p", "2*l_p/l_b must be a normal positive float, got inf",
     {"l_b": 1e-40, "l_p": 1e60}),
    ({"l_b": 1e-100, "l_p": 1e120}, "l_p",
     "((d_c + d_e)*center_ratio)**3 must be a normal positive float, got inf",
     {"l_b": 1e-50, "l_p": 1e50}),
    ({"t_F": 1e300}, "t_F", "k*d_c**3/(eps0*w_p*l_p) must be a normal positive float, got inf",
     {"t_F": 1e290}),
    ({"sigma0": 1e300, "E_F": 1e-300}, "sigma0", "E_F*V_F*a*eps_F0/k must be finite, got inf",
     {"sigma0": 1e8, "E_F": 1e-300}),
], ids=["compliance-overflow", "gap-cube-overflow", "pull-in-scale-overflow", "bottom-gap",
        "gap-cube-underflow", "stiff-beam-compliance", "long-beam-compliance", "strain-coupling",
        "film-stiffness", "beam-stiffness", "area-width", "area-eps0", "area-overflow", "tilt",
        "branch-cubic", "film-pull-in-scale", "rest-deflection"])
def test_pull_in_products_must_stay_in_range(overrides, name, what, inside):
    # every field is finite and positive, but a derived constant leaves the normal floats:
    # 1/compliance was 0 (a ZeroDivisionError in StableBranch), or the pull-in arithmetic
    # overflowed to a NaN or infinite V_PI or underflowed to 0, or the branch cubic of a
    # sweep overflowed; each case is a documented example (ValidatedModel, README)
    with pytest.raises(InvalidParameter) as info:
        build_model(**overrides)
    assert info.value.name == name
    assert info.value.reason.endswith(what)
    # inside the range, both pull-in voltages are finite and positive, and both sweep
    model = build_model(**inside)
    for electrode in Electrode:
        V = pull_in_voltage(model, electrode).V_pull_in
        assert 0.0 < V < math.inf
        _sweeps_to_half_pull_in(model, electrode, V)


def _sweeps_to_half_pull_in(model, electrode, V_pull_in):
    """A sweep to V_PI/2 solves every voltage to a finite deflection."""
    sweep = sweep_voltage(model, electrode, [0.0, 0.25 * V_pull_in, 0.5 * V_pull_in])
    assert sweep.truncated_at is None
    assert all(math.isfinite(y) for y in sweep.y_p.tolist())


# 10**U(-310, 308): subnormal to near the float maximum; sigma0 of either sign
_DECADES = st.floats(min_value=-310.0, max_value=308.0).map(lambda e: 10.0 ** e)
_SIGNED = st.tuples(_DECADES, st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])
_CONFIGS = st.lists(st.sampled_from(MODEL_JSON_KEYS), min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _SIGNED if k == "sigma0" else _DECADES for k in keys}))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(config=_CONFIGS)
@example(config={"t_F": 1e300})  # was "pull-in at inf V"
@example(config={"l_p": 1e-300})  # was a ZeroDivisionError in the constructor
@example(config={"l_b": 1e-200, "l_p": 1e120, "w_p": 1e-3, "b_root": 1e-3})  # was nan V
@example(config={"E_F": 1e300, "t_F": 1e300})  # was "rest y_p = nan"
@example(config={"l_b": 1e-100, "l_p": 1e120})  # was an OverflowError in a sweep
def test_accepted_models_give_finite_pull_in(config):
    # a config is refused naming a model key, or both pull-in voltages are finite and
    # positive and a sweep to half of each solves, or their NoStableEquilibrium message
    # prints no nan or inf
    try:
        model = build_model(**config)
    except InvalidParameter as exc:
        assert exc.name in MODEL_JSON_KEYS
        return
    for electrode in Electrode:
        try:
            V = pull_in_voltage(model, electrode).V_pull_in
        except NoStableEquilibrium as exc:
            assert not re.search(r"\b(nan|inf)\b", str(exc)), str(exc)
        else:
            assert 0.0 < V < math.inf
            _sweeps_to_half_pull_in(model, electrode, V)


def test_constructor_checks_itself():
    # built directly, without build_model: the same checks and defaults apply
    with pytest.raises(InvalidParameter) as info:
        ValidatedModel(PhysicalConstants(), PaddleGeometry(l_b=-1.0), SubstrateMaterial(),
                       FilmSpec())
    assert info.value.name == "l_b"
    assert info.value.reason == "must be > 0, got -1.0"
    direct = ValidatedModel(PhysicalConstants(), PaddleGeometry(), SubstrateMaterial(), FilmSpec())
    assert direct == build_model()
    assert direct.V_F == build_model().V_F


def test_thickness_must_fit_in_gap():
    with pytest.raises(InvalidParameter):
        build_model(t_b=2e-4)  # thicker than the 100 um gap


def test_dict_round_trip(default_model):
    d = model_to_dict(default_model)
    assert list(d) == list(MODEL_JSON_KEYS)
    again = model_from_dict(d)
    assert model_to_dict(again) == d


def test_dict_rejects_bool_and_string():
    d = model_to_dict(build_model())
    d["l_b"] = True
    with pytest.raises(InvalidParameter):
        model_from_dict(d)
    d2 = model_to_dict(build_model())
    d2["l_b"] = "3e-3"
    with pytest.raises(InvalidParameter):
        model_from_dict(d2)


def test_load_model_json(tmp_path):
    d = model_to_dict(build_model())
    d["sigma0"] = 1.5e8
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    m = load_model_json(path)
    assert m.film.sigma0 == 1.5e8
    assert m.eps_F0 == pytest.approx(1.5e8 / 70e9, rel=1e-15)


def test_load_model_json_malformed(tmp_path):
    # text that is not JSON, and bytes that are not text, are refused as the config
    path = tmp_path / "bad.json"
    for content in (b"{not json", bytes(range(256)) * 4):
        path.write_bytes(content)
        with pytest.raises(InvalidParameter) as info:
            load_model_json(path)
        assert info.value.name == "config"


def test_partial_json_uses_defaults(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"sigma0": 2e8}))
    m = load_model_json(path)
    assert m.film.sigma0 == 2e8
    assert m.geom.l_b == 3e-3


def test_eps_f0_sign_convention(with_sigma0):
    # tensile stress = positive initial strain
    assert with_sigma0(1e8).eps_F0 > 0
    assert with_sigma0(-1e8).eps_F0 < 0
    assert math.isclose(with_sigma0(7e8).eps_F0, 0.01, rel_tol=1e-12)
