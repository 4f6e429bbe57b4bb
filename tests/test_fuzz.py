"""Input boundary fuzzing: a mutated config or field file never escapes as a traceback.

Hypothesis replaces, deletes or adds one value anywhere in a valid document
and runs the CLI in-process on it. Every outcome must be exit 0, 2 (config
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
from hoedeform.fieldio import field_to_dict
from hoedeform.recording import record

from test_config_cli import base_config

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


_RECORDING = parse_scene_config(base_config()).recording
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
