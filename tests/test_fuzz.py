"""Input boundary fuzzing: a mutated config, field or rays file never escapes as a traceback.

Hypothesis replaces, deletes or adds one value anywhere in a valid document
(one cell or row of a rays.csv) and runs the CLI in-process on it. Every outcome must be exit 0, 2 (config
or input error) or 3 (numeric error), with errors as one JSON line on
stderr. Integers stay small so a mutated grid or scan size cannot make a run
slow.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hoedeform import cli
from hoedeform.config import parse_scene_config
from hoedeform.deformation import induce_forward
from hoedeform.fieldio import field_to_dict
from hoedeform.recording import record
from hoedeform.scene import trace_field

from test_config_cli import base_config
from test_scene import rays_file_lines

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)
FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _mutate(data, doc):
    """One mutation of ``doc``: replace a value, delete a key or add a key."""
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(JSON_VALUES, label="value")
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]), label="action")
    if isinstance(parent, dict) and action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict) and action == "add":
        parent[data.draw(st.text(max_size=4), label="key")] = value
    else:
        parent[path[-1]] = value
    return doc


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1 and "error" in json.loads(err.getvalue())


@FUZZ
@given(st.data())
def test_mutated_config(data):
    doc = _mutate(data, base_config())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scene.json"
        cfg.write_text(json.dumps(doc))
        _run_cli(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])


_SCENE = parse_scene_config(base_config())
_RECORDING = _SCENE.recording
FIELD_DOC = field_to_dict(record(_RECORDING.w1, _RECORDING.w2, _RECORDING.carrier, _RECORDING.grid))


@FUZZ
@given(st.data())
def test_mutated_field_file(data):
    doc = _mutate(data, json.loads(json.dumps(FIELD_DOC)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, field = Path(tmp) / "scene.json", Path(tmp) / "field.json"
        cfg.write_text(json.dumps(base_config()))
        field.write_text(json.dumps(doc))
        _run_cli(["deform", "--config", str(cfg), "--out", str(Path(tmp) / "out"), "--field", str(field)])


# the traced rows of the scene plus one evanescent row (no direction)
RAYS_LINES = rays_file_lines(trace_field(
    induce_forward(record(_RECORDING.w1, _RECORDING.w2, _RECORDING.carrier, _RECORDING.grid),
                   _SCENE.deformation.target_profile, _SCENE.deformation.projection),
    _SCENE.probe)) + ["5,0,5,0,0.25,,,,evanescent,0"]
CELL_VALUES = (st.sampled_from(["", "nan", "-inf", "2.0", "-0", "1e400", "propagating", "evanescent", "pass_through"])
               | st.floats().map(repr) | st.text(max_size=4))


@FUZZ
@given(st.data())
def test_mutated_rays_file(data):
    lines = list(RAYS_LINES)
    row = data.draw(st.integers(0, len(lines) - 1), label="row")
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1), label="column")
    action = data.draw(st.sampled_from(["replace", "delete_cell", "add_cell", "delete_row"]), label="action")
    if action == "delete_cell":
        del cells[col]
    elif action != "delete_row":
        if action == "add_cell":
            cells.insert(col, "")
        cells[col] = data.draw(CELL_VALUES, label="value")
    lines[row] = ",".join(cells)
    if action == "delete_row":
        del lines[row]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, rays = Path(tmp) / "scene.json", Path(tmp) / "rays.csv"
        cfg.write_text(json.dumps(base_config()))
        rays.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _run_cli(["scan", "--config", str(cfg), "--out", str(Path(tmp) / "out"), "--rays", str(rays)])
