import json
import math
from pathlib import Path

import pytest

from hoedeform import cli
from hoedeform.deformation import induce_forward, induce_inverse
from hoedeform.errors import ConfigError
from hoedeform.fieldio import field_from_dict, field_to_dict, load_field, save_field
from hoedeform.geometry import Vec3
from hoedeform.recording import CartesianGrid, PolarGrid, record
from hoedeform.surfaces import Projection, SurfaceProfile
from hoedeform.waves import Wave, Wavelength

LAM = Wavelength(500.0)
W0 = Wave.plane(Vec3(0, 0, 1), LAM)
W65 = Wave.plane(Vec3(math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))), LAM)


def _assert_identical(a, b):
    assert a.wavelength_nm == b.wavelength_nm
    assert a.grid == b.grid
    assert a.carrier.descriptor() == b.carrier.descriptor()
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert (sa.s, sa.phi) == (sb.s, sb.phi)
        assert sa.position == sb.position
        assert sa.coords == sb.coords
        assert sa.magnitude == sb.magnitude


@pytest.mark.parametrize("carrier,grid", [
    (SurfaceProfile.planar(10.0), PolarGrid(4, 8)),
    (SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(3, 6)),
    (SurfaceProfile.planar(10.0), CartesianGrid(4, 4, 7.0)),
])
def test_save_load_round_trip_bit_exact(tmp_path, carrier, grid):
    field = record(W0, W65, carrier, grid)
    path = tmp_path / "field.json"
    save_field(field, path)
    back = load_field(path)
    _assert_identical(field, back)


@pytest.mark.parametrize("induce", [
    lambda f: induce_forward(f, SurfaceProfile.sphere_cap(50.0, 10.0), Projection.from_center_z(300.0)),
    lambda f: induce_inverse(f, Projection.from_center_z(300.0)),
], ids=["induced", "induced_inverse"])
def test_induced_field_round_trip(tmp_path, induce):
    field = record(Wave.diverging(Vec3(-30, 0, -40), LAM), Wave.converging(Vec3(0, 0, 80), LAM),
                   SurfaceProfile.planar(10.0), PolarGrid(4, 8))
    induced = induce(field)
    path = tmp_path / "induced.json"
    save_field(induced, path)
    _assert_identical(induced, load_field(path))


def test_loaded_azimuth_is_wrapped(tmp_path):
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
    doc = field_to_dict(field)
    phi = doc["samples"][4]["phi"]  # 3*pi/2 on the inner ring
    doc["samples"][4]["phi"] = phi - 2 * math.pi
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    back = load_field(path)
    assert 0.0 <= back.phi[4] < 2 * math.pi
    assert abs(back.phi[4] - phi) < 1e-15


def test_unknown_header_key_rejected():
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
    doc = field_to_dict(field)
    doc["extra"] = 1
    with pytest.raises(ConfigError):
        field_from_dict(doc)


def test_unknown_sample_key_rejected():
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
    doc = field_to_dict(field)
    doc["samples"][0]["kg"] = [1, 2, 3]
    with pytest.raises(ConfigError):
        field_from_dict(doc)


def test_bad_format_tag_rejected():
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
    doc = field_to_dict(field)
    doc["format"] = "something-else"
    with pytest.raises(ConfigError):
        field_from_dict(doc)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_field(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_field(bad)


def test_custom_carrier_not_reloadable(tmp_path):
    prof = SurfaceProfile.custom_convex(lambda s: s * s / 40.0, 10.0)
    field = record(W0, W65, prof, PolarGrid(2, 4))
    path = tmp_path / "custom.json"
    save_field(field, path)
    with pytest.raises(ConfigError):
        load_field(path)


DEFORM_CONFIG = {
    "wavelength": {"lambda_nm": 500.0},
    "deformation": {"target_profile": {"kind": "sphere_cap", "radius_mm": 50.0, "domain_radius_mm": 10.0}},
}


@pytest.mark.parametrize("tamper", [
    lambda d: d["samples"][0]["pos"].__setitem__(2, 5.0),
    lambda d: d.__setitem__("samples", 5),
    lambda d: d["samples"].__setitem__(1, 5),
    lambda d: d.__setitem__("wavelength_nm", "x"),
    lambda d: d.__setitem__("wavelength_nm", -5),
    lambda d: d.__setitem__("wavelength_nm", float("inf")),
    lambda d: d.__setitem__("grid", [1]),
    lambda d: d.__setitem__("grid", {"kind": "induced", "projection": "orthogonal", "source_grid": [1]}),
    lambda d: d.__setitem__("grid", {"kind": "induced", "projection": "sideways", "source_grid": d["grid"]}),
    lambda d: d["samples"][1].__setitem__("s", True),  # sample 1 sits at s = 1.0, phi = 0
    lambda d: d["samples"][2].__setitem__("g", [True, 0.0, 0.0]),
    lambda d: d["carrier"].__setitem__("domain_radius_mm", "10"),
], ids=["pos_off_carrier", "samples_not_list", "sample_not_object", "wavelength_string", "wavelength_negative",
        "wavelength_inf", "grid_list", "source_grid_list", "bad_projection", "s_bool", "g_bool",
        "carrier_radius_string"])
def test_tampered_document_rejected(tmp_path, capsys, tamper):
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(2, 4, s_max=2.0))
    path = tmp_path / "field.json"
    save_field(field, path)
    doc = json.loads(path.read_text())
    tamper(doc)
    with pytest.raises(ConfigError):
        field_from_dict(doc)
    # the CLI maps the same document to exit 2 and a one-line JSON error
    path.write_text(json.dumps(doc))
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(DEFORM_CONFIG))
    capsys.readouterr()
    code = cli.main(["deform", "--config", str(cfg), "--out", str(tmp_path / "o"), "--field", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and json.loads(err)["error"]["type"] == "ConfigError"


REFERENCE_FIELDS = sorted((Path(__file__).resolve().parent / "reference").glob("*/field*.json"))


@pytest.mark.parametrize("path", REFERENCE_FIELDS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_reference_field_save_load_save_byte_identical(tmp_path, path):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    save_field(load_field(path), once)
    save_field(load_field(once), twice)
    assert once.read_bytes() == path.read_bytes()
    assert twice.read_bytes() == once.read_bytes()


@pytest.mark.parametrize("carrier,grid", [
    (SurfaceProfile.planar(10.0), PolarGrid(3, 5)),
    (SurfaceProfile.sphere_cap(50.0, 10.0), CartesianGrid(4, 4, 7.0)),
    (SurfaceProfile.planar(10.0), PolarGrid(1, 1, include_vertex=False)),
], ids=["polar", "cartesian", "one_sample"])
def test_save_field_writes_json_dump_bytes(tmp_path, carrier, grid):
    field = record(Wave.diverging(Vec3(-30, 0, -40), LAM), Wave.converging(Vec3(0, 0, 80), LAM), carrier, grid)
    path = tmp_path / "field.json"
    save_field(field, path)
    assert path.read_text() == json.dumps(field_to_dict(field), indent=1) + "\n"


@pytest.mark.parametrize("value", [True, "1.0", float("inf"), float("nan"), 10 ** 400],
                         ids=["bool", "string", "inf", "nan", "int_beyond_float"])
@pytest.mark.parametrize("key, item", [("s", None), ("phi", None), ("pos", 0), ("pos", 2), ("g", 1)])
def test_sample_value_rejected_through_cli(tmp_path, capsys, key, item, value):
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(2, 4, s_max=2.0))
    doc = field_to_dict(field)
    sample = doc["samples"][3]
    if item is None:
        sample[key] = value
    else:
        sample[key][item] = value
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))  # inf and nan as the JSON extensions Infinity and NaN
    with pytest.raises(ConfigError, match=r"^field\.samples(\[3\]|: sample 3 )"):
        load_field(path)
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(DEFORM_CONFIG))
    capsys.readouterr()
    code = cli.main(["deform", "--config", str(cfg), "--out", str(tmp_path / "o"), "--field", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and json.loads(err)["error"]["type"] == "ConfigError"
