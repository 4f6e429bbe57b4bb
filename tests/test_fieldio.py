import copy
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak

from hoedeform import cli, fieldio, scene
from hoedeform.deformation import induce_forward, induce_inverse
from hoedeform.errors import ConfigError
from hoedeform.fieldio import field_from_dict, field_to_dict, load_field, save_field
from hoedeform.numtext import float_tokens
from hoedeform.geometry import Vec3
from hoedeform.recording import CHUNK_ROWS, CartesianGrid, GratingVectorField, PolarGrid, record
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


def _combiner(carrier, grid):
    return record(Wave.diverging(Vec3(-30, 0, -40), LAM), Wave.converging(Vec3(0, 0, 80), LAM), carrier, grid)


def _first_rows(field, n):
    """The field of the first ``n`` samples of ``field``."""
    return GratingVectorField(field.carrier, field.s[:n], field.phi[:n], field.pos[:n], field.g[:n], field.grid,
                              field.wavelength_nm)


def _with_g(field, rows):
    """``field`` with its frame coordinates replaced by ``rows``, repeated down the samples."""
    g = np.resize(np.array(rows, dtype=float), field.g.shape)
    return GratingVectorField(field.carrier, field.s, field.phi, field.pos, g, field.grid, field.wavelength_nm)


# frame coordinates the number kernel writes itself, and ones it leaves to CPython's repr
EXACT_ROWS = [[0.0, -0.0, 1.0], [10.0, 100.0, 1e22], [-1e15, 0.5, -2.0], [1e16, 1e17, 1e-5]]
REFUSED_ROWS = [[1e300, 5e-324, -1e-310], [1e23, 9007199254740993.0, 1.7976931348623157e308],
                [2.2250738585072009e-308, -1e-281, 1e281]]


def _refused_mid_block():
    """A field with one value the kernel refuses in the middle of a block of values."""
    field = _combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(33, 32))
    g = field.g.copy()
    g[700, 1] = -1e-310
    return GratingVectorField(field.carrier, field.s, field.phi, field.pos, g, field.grid, field.wavelength_nm)


# row counts around the chunks of the text writers
CHUNK_COUNTS = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1)


@pytest.mark.parametrize("make", [
    lambda: _combiner(SurfaceProfile.planar(10.0), PolarGrid(3, 5)),
    lambda: _combiner(SurfaceProfile.sphere_cap(50.0, 10.0), CartesianGrid(4, 4, 7.0)),
    lambda: _combiner(SurfaceProfile.planar(10.0), PolarGrid(1, 1, include_vertex=False)),
    *(lambda n=n: _first_rows(_combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(33, 32)), n)
      for n in CHUNK_COUNTS),
    lambda: _with_g(_combiner(SurfaceProfile.planar(10.0), PolarGrid(3, 5)), EXACT_ROWS),
    lambda: _with_g(_combiner(SurfaceProfile.planar(10.0), PolarGrid(3, 5)), REFUSED_ROWS),
    _refused_mid_block,
], ids=["polar", "cartesian", "one_sample", *(f"rows_{n}" for n in CHUNK_COUNTS), "zeros_and_powers_of_ten",
        "refused_values", "refused_value_mid_block"])
def test_save_field_writes_json_dump_bytes(tmp_path, make):
    field = make()
    path = tmp_path / "field.json"
    save_field(field, path)
    assert path.read_text() == json.dumps(field_to_dict(field), indent=1) + "\n"


def test_save_field_holds_less_than_the_file(tmp_path):
    field = _combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(100, 100))
    assert len(field) == 10_001
    path = tmp_path / "field.json"
    peak = traced_peak(lambda: save_field(field, path))
    assert peak < path.stat().st_size, f"save_field peaked at {peak} bytes for a {path.stat().st_size} byte file"


def test_load_field_holds_less_than_two_and_a_half_files(tmp_path):
    path = tmp_path / "field.json"
    save_field(_combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(100, 100)), path)
    peak = traced_peak(lambda: load_field(path))
    assert peak < 2.5 * path.stat().st_size, f"load_field peaked at {peak} bytes for a {path.stat().st_size} byte file"


def test_load_text_holds_less_than_four_files(tmp_path):
    """The text parser holds the text, the parsed document and the sample
    columns at once: 3.47 files at 10 001 samples."""
    path = tmp_path / "field.json"
    save_field(_combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(100, 100)), path)
    peak = traced_peak(lambda: fieldio._load_text(path))
    assert peak < 4 * path.stat().st_size, f"_load_text peaked at {peak} bytes for a {path.stat().st_size} byte file"


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


def _deform_through_cli(tmp_path, capsys, path):
    """Exit code and stderr of ``deform --field path``, run through cli.main."""
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(DEFORM_CONFIG))
    capsys.readouterr()
    code = cli.main(["deform", "--config", str(cfg), "--out", str(tmp_path / "o"), "--field", str(path)])
    return code, capsys.readouterr().err


def _field_doc():
    """The document of an 801-sample field, so that sample 600 follows good ones."""
    return field_to_dict(record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(25, 32)))


def _edited(*edits):
    """The text of the 801-sample document after ``edits``, each a function of the document."""
    def text():
        doc = _field_doc()
        for edit in edits:
            edit(doc)
        return json.dumps(doc)  # inf and nan as the JSON extensions Infinity and NaN
    return text


def _set(index, key, value, item=None):
    def edit(doc):
        if item is None:
            doc["samples"][index][key] = value
        else:
            doc["samples"][index][key][item] = value
    return edit


def _duplicate_samples(first, second):
    """A document whose samples key comes twice: ``first`` then ``second`` edits the list of each."""
    def text():
        docs = [_field_doc(), _field_doc()]
        first(docs[0])
        second(docs[1])
        return json.dumps(docs[0])[:-1] + ', "samples": ' + json.dumps(docs[1]["samples"]) + "}"
    return text


def _keep(doc):
    pass


def _sample_as(key):
    def edit(doc):
        doc[key] = copy.deepcopy(doc["samples"][0])
    return edit


def _as_ints(doc):
    """The vertex sample written with int coordinates."""
    doc["samples"][0].update(s=0, phi=0, pos=[0, 0, 0])


# Each document's exit code and message (<path> stands for the file) from
# `deform --field`, as the reader gave them when it built every sample
# object of the document before checking any.
FIELD_FILE_CASES = {
    "g_not_a_triple_at_600": (_edited(_set(600, "g", [1.0, 2.0])), 2,
                              "field.samples[600]: 's' and 'phi' must be numbers, 'pos' and 'g' lists of 3 numbers"),
    "sample_600_a_list": (_edited(lambda d: d["samples"].__setitem__(600, [1.0])), 2,
                          "field.samples[600]: expected an object with keys ['g', 'phi', 'pos', 's'], got list"),
    "bad_keys_after_bad_types": (_edited(_set(600, "s", True), _set(700, "kg", 1.0)), 2,
                                 "field.samples[700]: expected an object with keys ['g', 'phi', 'pos', 's'], "
                                 "got ['g', 'kg', 'phi', 'pos', 's']"),
    "int_beyond_float_in_g_at_600": (_edited(_set(600, "g", 10 ** 400, 1)), 2,
                                     "field.samples[600].g: int too large to convert to float"),
    "s_column_before_g_column": (_edited(_set(600, "g", 10 ** 400, 1), _set(700, "s", -10 ** 400)), 2,
                                 "field.samples[700].s: int too large to convert to float"),
    "nan_phi_at_600": (_edited(_set(600, "phi", float("nan"))), 2,
                       "field.samples: sample 600 (s=7.6, phi=nan): footprint, position and coordinates must be "
                       "finite"),
    "infinity_in_pos_at_600": (_edited(_set(600, "pos", float("inf"), 1)), 2,
                               "field.samples: sample 600 (s=7.6, phi=4.516039439535327): footprint, position and "
                               "coordinates must be finite"),
    "duplicate_samples_key_second_bad": (_duplicate_samples(_keep, _set(600, "g", [1.0])), 2,
                                         "field.samples[600]: 's' and 'phi' must be numbers, 'pos' and 'g' lists "
                                         "of 3 numbers"),
    "duplicate_samples_key_first_bad": (_duplicate_samples(_set(600, "g", [1.0]), _keep), 0, None),
    "sample_as_carrier": (_edited(_sample_as("carrier")), 2,
                          "field.carrier: profile descriptor must be an object with a 'kind'"),
    "sample_in_a_sample": (_edited(lambda d: d["samples"][600].__setitem__("pos", copy.deepcopy(d["samples"][0]))),
                           2, "field.samples[600]: 's' and 'phi' must be numbers, 'pos' and 'g' lists of 3 numbers"),
    "document_a_sample": (lambda: json.dumps(_field_doc()["samples"][0]), 2,
                          "field: unknown keys ['g', 'phi', 'pos', 's']"),
    "header_error_before_samples": (_edited(_set(600, "g", [1.0]), lambda d: d.__setitem__("wavelength_nm", -5)),
                                    2, "field.wavelength_nm: must be > 0, got -5.0"),
    "int_coordinates": (_edited(_as_ints), 0, None),
    "keys_reordered": (_edited(lambda d: d["samples"].__setitem__(5, dict(reversed(d["samples"][5].items())))),
                       0, None),
}


@pytest.mark.parametrize("case", sorted(FIELD_FILE_CASES))
def test_field_file_error_parity(tmp_path, capsys, case):
    text, code, message = FIELD_FILE_CASES[case]
    path = tmp_path / "field.json"
    path.write_text(text())
    got = _deform_through_cli(tmp_path, capsys, path)
    expected = "" if message is None else json.dumps({"error": {"type": "ConfigError", "message": message}}) + "\n"
    assert got == (code, expected)


@pytest.mark.parametrize("case", sorted(FIELD_FILE_CASES))
def test_load_field_equals_the_plain_parse(tmp_path, case):
    path = tmp_path / "field.json"
    path.write_text(FIELD_FILE_CASES[case][0]())
    outcomes = []
    for load in (load_field, lambda p: field_from_dict(json.loads(p.read_text()))):
        try:
            field = load(path)
            outcomes.append((field.s.tolist(), field.phi.tolist(), field.pos.tolist(), field.g.tolist(), field.grid))
        except ConfigError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


class _Pairs(list):
    """A JSON object as its (key, value) pairs, duplicate keys kept."""


def _indented(text):
    """The document ``text`` laid out as ``json.dumps(doc, indent=1)`` lays it
    out, duplicate keys kept, and ended by "\\n" as ``save_field`` ends a file."""
    def dump(value, level):
        pad = "\n" + " " * (level + 1)
        if isinstance(value, _Pairs):
            items = [json.dumps(k) + ": " + dump(v, level + 1) for k, v in value]
        elif isinstance(value, list):
            items = [dump(v, level + 1) for v in value]
        else:
            return json.dumps(value)
        brackets = "{}" if isinstance(value, _Pairs) else "[]"
        return brackets if not items else brackets[0] + ",".join(pad + item for item in items) + "\n" + " " * level \
            + brackets[1]
    return dump(json.loads(text, object_pairs_hook=_Pairs), 0) + "\n"


def test_indented_documents_are_save_field_bytes(tmp_path):
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(3, 5))
    path = tmp_path / "field.json"
    save_field(field, path)
    assert _indented(json.dumps(field_to_dict(field))) == path.read_text()


def _saved_bytes():
    """The 801-sample document of ``_field_doc`` as save_field writes it."""
    return (json.dumps(_field_doc(), indent=1) + "\n").encode("ascii")


def _replace(old, new, count=1):
    return lambda data: data.replace(old, new, count)


def _last_number_as(token):
    """The file with the last number, the last sample's g[2], spelled ``token``."""
    def edit(data):
        head, _, tail = data.rpartition(b"\n    ")
        return head + b"\n    " + token + tail[tail.index(b"\n"):]
    return edit


# Byte edits of a saved field file: number spellings the block reader
# must read as json.loads does, and edits that leave save_field's layout
# and send the file to the text parser; the result must not change
FIELD_BYTE_EDITS = {
    "int_minus_zero": _replace(b'[\n    0.0,', b'[\n    -0,'),
    "int_five": _replace(b'    0.0,\n    0.0\n   ],', b'    0.0,\n    5\n   ],'),
    "upper_e": _replace(b'[\n    0.0,', b'[\n    0E5,'),
    "exponent_007": _replace(b'[\n    0.0,', b'[\n    0e007,'),
    "extra_space": _replace(b'"s": 0.4', b'"s":  0.4'),
    "crlf": _replace(b"\n", b"\r\n", -1),
    "utf8_bom": lambda data: b"\xef\xbb\xbf" + data,
    "utf16": lambda data: data.decode("ascii").encode("utf-16"),
    "byte_after_the_end": lambda data: data + b"x",
    "space_after_the_end": lambda data: data + b" ",
    "no_final_newline": lambda data: data[:-1],
    "samples_in_a_header_string": _replace(b'"kind": "polar"', b'"kind": "polar \\"samples\\": ["'),
    "samples_key_in_a_nested_object": _replace(b'\n "grid": {\n', b'\n "grid": {\n  "samples": [],\n'),
    "last_number_eee": _last_number_as(b"eee"),
    "last_number_1eee": _last_number_as(b"1eee"),
}

FIELD_FAST_CASES = {
    **{f"indented_{case}": (lambda text=text: _indented(text()).encode("utf-8"))
       for case, (text, _, _) in FIELD_FILE_CASES.items()},
    **{f"edit_{name}": (lambda edit=edit: edit(_saved_bytes())) for name, edit in FIELD_BYTE_EDITS.items()},
}


def _outcome(load, path):
    """The arrays of the field ``load`` reads from ``path``, or its error message."""
    try:
        field = load(path)
    except ConfigError as exc:
        return str(exc)
    return [a.tobytes() for a in (field.s, field.phi, field.pos, field.g)] + [field.grid]


@pytest.mark.parametrize("case", sorted(FIELD_FAST_CASES))
def test_field_fast_path_parity(tmp_path, capsys, monkeypatch, case):
    """Documents in save_field's layout and byte edits of it read as the
    text parser alone reads them: same arrays, bit for bit, same messages
    and exit codes through ``deform --field``."""
    path = tmp_path / "field.json"
    path.write_bytes(FIELD_FAST_CASES[case]())
    got, got_cli = _outcome(load_field, path), _deform_through_cli(tmp_path, capsys, path)
    monkeypatch.setattr(fieldio, "_load_saved", lambda p: None)
    assert got == _outcome(load_field, path)
    assert got_cli == _deform_through_cli(tmp_path, capsys, path)
    if not isinstance(got, str):
        assert got == _outcome(lambda p: field_from_dict(json.loads(p.read_text(encoding="utf-8"))), path)


def test_field_fast_path_takes_the_layout_and_json_floats(tmp_path):
    """The files save_field writes, and float spellings such as 1E5, are
    read without the text parser; int tokens and other layouts are not."""
    path = tmp_path / "field.json"
    for case, fast in [("indented_keys_reordered", False), ("indented_int_coordinates", False),
                       ("indented_nan_phi_at_600", False), ("edit_upper_e", True), ("edit_exponent_007", True),
                       ("edit_no_final_newline", False), ("edit_int_minus_zero", False), ("edit_crlf", False)]:
        path.write_bytes(FIELD_FAST_CASES[case]())
        assert (fieldio._load_saved(path) is not None) == fast, case
    path.write_bytes(_saved_bytes())
    assert fieldio._load_saved(path) is not None


def _bent_files(tmp_path):
    """A bent field of 49 samples and its rays.csv with evanescent rows, as
    the writers write them; both have numbers in exponent notation."""
    field = induce_forward(record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(6, 8)),
                           SurfaceProfile.sphere_cap(50.0, 10.0), Projection.orthogonal())
    trace = scene.trace_field(field, W0, efficiency=lambda f, probe: 0.5 + 0.25 * np.cos(f.phi))
    save_field(field, tmp_path / "field.json")
    scene.write_rays_csv(trace, tmp_path / "rays.csv")
    return tmp_path / "field.json", tmp_path / "rays.csv", len(field)


def _block_rows(monkeypatch, module, name, row_end):
    """The number of rows, each ended by ``row_end``, of every block that
    ``module.name`` reads, recorded as it runs."""
    rows = []
    read = getattr(module, name)

    def record_rows(block):
        rows.append(block.count(row_end))
        return read(block)

    monkeypatch.setattr(module, name, record_rows)
    return rows


@pytest.mark.parametrize("per_block", [1.0, 1.5, 2.0])
def test_blocks_of_a_few_samples_or_rows(tmp_path, monkeypatch, per_block):
    """With READ_BLOCK_BYTES cut to the bytes of ``per_block`` samples or
    rows, but a field's first read still holding its header, the block
    readers take the files one to three samples or rows a block, and read
    the arrays of the text readers bit for bit."""
    field_path, rays_path, n = _bent_files(tmp_path)
    data = field_path.read_bytes()
    header = data.index(fieldio._SAMPLES_LINE) + len(fieldio._SAMPLES_LINE)
    monkeypatch.setattr(fieldio, "READ_BLOCK_BYTES", max(header, int(per_block * (len(data) - header) / n)))
    samples = _block_rows(monkeypatch, fieldio, "_saved_samples", fieldio._SAMPLE_TEXT[-1])
    fast = fieldio._load_saved(field_path)
    assert fast is not None
    assert _outcome(lambda p: fast, field_path) == _outcome(fieldio._load_text, field_path)
    assert len(samples) > n // 4 and 1 <= min(samples) and max(samples) <= 3
    rays_bytes = rays_path.read_bytes()
    monkeypatch.setattr(scene, "READ_BLOCK_BYTES", int(per_block * len(rays_bytes) / (n + 1)))
    rows = _block_rows(monkeypatch, scene, "_plain_rows", b"\n")
    rays, want = scene._read_plain(rays_path), scene._read_text(rays_path)
    assert rays is not None
    assert [a.tobytes() for a in (rays.origins, rays.directions, rays.weights)] == \
        [a.tobytes() for a in (want.origins, want.directions, want.weights)]
    assert len(rows) > n // 4 and 1 <= min(rows) and max(rows) <= 3


def _refuse(*args):
    raise AssertionError("a plain file left the number kernel")


def test_plain_files_never_fall_back(tmp_path, monkeypatch):
    """The reference outputs, and a 16 001-sample field and its rays.csv as
    the writers write them, are read by the block readers: no file goes to
    the text parsers, and the only tokens that go to float are those in
    exponent notation, which the number kernel leaves to it."""
    for module, name in [(fieldio, "_load_text"), (scene, "_read_text")]:
        monkeypatch.setattr(module, name, _refuse)
    to_float = []

    def exponents_only(text, starts, ends):
        tokens = [text[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
        assert all(b"e" in t for t in tokens), "a plain token left the number kernel"
        to_float.extend(tokens)
        return float_tokens(text, starts, ends)

    for module in (fieldio, scene):
        monkeypatch.setattr(module, "float_tokens", exponents_only)
    field = _combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(100, 160))
    assert len(field) == 16_001
    save_field(field, tmp_path / "field.json")
    scene.write_rays_csv(scene.trace_field(field, W0), tmp_path / "rays.csv")
    reference = Path(__file__).resolve().parent / "reference"
    fields = [*REFERENCE_FIELDS, tmp_path / "field.json"]
    rays = [*sorted(reference.glob("*/rays.csv")), tmp_path / "rays.csv"]
    assert len(fields) == 9 and len(rays) == 5
    for path in fields:
        load_field(path)
    for path in rays:
        scene.read_rays_csv(path)
    assert to_float  # the reference outputs hold numbers in exponent notation


def test_a_tie_in_a_field_file_reads_as_float(tmp_path, monkeypatch):
    """An exact tie between two adjacent doubles as a g value of a file in
    save_field's layout: the block reader takes the file and reads the tie
    as float does, rounded to even, not as the double just below it."""
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
    path = tmp_path / "field.json"
    save_field(field, path)
    data = path.read_bytes()
    at = data.index(b'"g": [\n    ') + len(b'"g": [\n    ')
    path.write_bytes(data[:at] + b"791063134009679.9375" + data[data.index(b",", at):])
    monkeypatch.setattr(fieldio, "_load_text", _refuse)
    g = load_field(path).g
    assert g[0, 0] == float("791063134009679.9375") == 791063134009680.0
    assert g[0, 1:].tobytes() == field.g[0, 1:].tobytes() and g[1:].tobytes() == field.g[1:].tobytes()


def _read_through_a_pipe(pipe, data, read):
    """What ``read`` returns for a new named pipe ``pipe`` that a thread
    writes ``data`` to once; a pipe opened again after it has been read
    waits for a writer that has gone, which fails the test."""
    os.mkfifo(pipe)

    def write():
        try:
            with open(pipe, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # a reader that stops at an error closes the pipe early
            pass

    def run():
        try:
            got.append(read(pipe))
        except Exception as exc:  # raised again below
            got.append(exc)

    got = []
    writer, reader = threading.Thread(target=write, daemon=True), threading.Thread(target=run, daemon=True)
    writer.start()
    reader.start()
    reader.join(10)
    if reader.is_alive():
        os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))  # an end of file for the second open
        reader.join(10)
        pytest.fail("the pipe was opened again after it was read")
    writer.join(10)
    if isinstance(got[0], Exception):
        raise got[0]
    return got[0]


def _write_rays(field, path):
    scene.write_rays_csv(scene.trace_field(field, W0), path)


@pytest.mark.parametrize("write", [save_field, _write_rays], ids=["field", "rays"])
def test_a_write_over_an_existing_file_leaves_only_its_bytes(tmp_path, write):
    """A writer that writes over an existing file, longer or shorter than what
    it writes, leaves the bytes it writes to a new file; a named pipe gets
    them too."""
    fields = [_combiner(SurfaceProfile.sphere_cap(50.0, 10.0), grid) for grid in (PolarGrid(12, 16), PolarGrid(3, 4))]
    path, fresh = tmp_path / "out", tmp_path / "fresh"
    for field in (*fields, fields[0]):
        write(field, fresh)
        want = fresh.read_bytes()
        fresh.unlink()
        write(field, path)
        assert path.read_bytes() == want
    if hasattr(os, "mkfifo"):
        os.mkfifo(tmp_path / "pipe")
        got = []
        reader = threading.Thread(target=lambda: got.append((tmp_path / "pipe").read_bytes()))
        reader.start()
        write(fields[0], tmp_path / "pipe")
        reader.join(timeout=10)
        assert not reader.is_alive() and got == [want]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_inputs_read_once_read_as_files(tmp_path):
    """A field file or rays.csv that can be read only once reads as the same
    bytes in a regular file: the text readers get all of it, whether or not
    the block readers would take the file."""
    field = _combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(25, 32))
    save_field(field, tmp_path / "field.json")
    scene.write_rays_csv(scene.trace_field(field, W0), tmp_path / "rays.csv")
    saved, rays = (tmp_path / "field.json").read_bytes(), (tmp_path / "rays.csv").read_bytes()
    path = tmp_path / "file"
    def load(p):
        return _outcome(load_field, p)

    cases = [(saved, load), (json.dumps(json.loads(saved)).encode("ascii"), load),
             (rays, scene.read_rays_csv), (rays.replace(b"\n", b"\r\n"), scene.read_rays_csv)]
    for i, (data, read) in enumerate(cases):
        assert len(data) > 64 * 1024  # more than a pipe holds, so the writer waits for the reader
        path.write_bytes(data)
        assert _read_through_a_pipe(tmp_path / f"pipe{i}", data, read) == read(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_that_is_not_utf8_fails_as_the_file_does(tmp_path, capsys):
    """A rays.csv with a byte that is not UTF-8 two thirds in fails through a
    named pipe with the error of the same bytes in a regular file, which
    names the byte's offset in the file, and ``scan --rays`` on the pipe
    exits 2: the text reader counts the offset without opening the pipe again."""
    field = _combiner(SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(60, 64))
    scene.write_rays_csv(scene.trace_field(field, W0), tmp_path / "rays.csv")
    data = (tmp_path / "rays.csv").read_bytes()
    at = data.index(b"\n", 2 * len(data) // 3) + 3
    data = data[:at] + b"\xff" + data[at:]
    assert len(data) > 600_000
    path = tmp_path / "file"
    path.write_bytes(data)

    def error(p):
        with pytest.raises(ConfigError) as exc:
            scene.read_rays_csv(p)
        return str(exc.value).replace(str(p), "<path>")

    want = error(path)
    assert want == f"rays file <path> cannot be read: 'utf-8' codec can't decode byte 0xff in position {at}: " \
                   "invalid start byte"
    assert _read_through_a_pipe(tmp_path / "pipe0", data, error) == want
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"wavelength": {"lambda_nm": 500.0}, "analysis": {"detector_z_mm": [50.0]}}))
    capsys.readouterr()
    pipe = tmp_path / "pipe1"
    code = _read_through_a_pipe(pipe, data, lambda p: cli.main(["scan", "--config", str(cfg), "--out",
                                                                    str(tmp_path / "out"), "--rays", str(p)]))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == want.replace("<path>", str(pipe))
