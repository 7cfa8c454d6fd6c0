import json
import math

import pytest
from paddle_lab import (FilmSpec, InvalidParameter, PaddleGeometry,
                        PhysicalConstants, SubstrateMaterial, ValidatedModel,
                        build_model, load_model_json, model_from_dict,
                        model_to_dict, touch_limits, yb_from_yp)
from paddle_lab.model import MODEL_JSON_KEYS


def test_default_geometry_resolution(default_model):
    g = default_model.geom
    assert g.w_p == g.l_p
    assert g.b_root == g.l_p
    assert g.d_e == g.d_c
    assert g.center_ratio == pytest.approx(1.0 + 5.0 / 3.0, rel=1e-15)
    assert g.edge_ratio == pytest.approx(1.0 + 10.0 / 3.0, rel=1e-15)


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
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(key, value):
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
    ({"t_b": 1e-300}, "t_b", "b_root*t_b**2 must be > 0 and finite, got 0.0"),
    ({"t_b": 1e200, "d_c": 1e201}, "t_b", "b_root*t_b**2 must be > 0 and finite, got inf"),
    ({"E_biaxial": 1e-300, "K": 1e-20}, "E_biaxial", "E_biaxial*K*t_b**3 must be > 0 and finite, "
                                                     "got 0.0"),
    ({"E_biaxial": 1e300, "K": 1e300}, "E_biaxial", "E_biaxial*K*t_b**3 must be > 0 and finite, "
                                                    "got inf"),
], ids=["section-underflow", "section-overflow", "rigidity-underflow", "rigidity-overflow"])
def test_beam_products_must_stay_in_range(overrides, name, what):
    # every field is finite and positive, but stress_profile divides by b_root*t_b**2 and
    # compliance by E_biaxial*K*t_b**3: 0 was a ZeroDivisionError there, t_b**2 past the
    # float range an OverflowError
    with pytest.raises(InvalidParameter) as info:
        build_model(**overrides)
    assert info.value.name == name
    assert info.value.reason.endswith(what)


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
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParameter):
        load_model_json(path)


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
