import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hoedeform.config import load_scene_config, parse_grid, parse_scene_config
from hoedeform.errors import ConfigError
from hoedeform.recording import CartesianGrid, PolarGrid

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG_DIR = SRC / "hoedeform" / "configs"


def base_config():
    # steep probe wave diffracting toward the axis: the deformed trace
    # converges, so a focal scan has an interior minimum
    return {
        "wavelength": {"lambda_nm": 500.0},
        "recording": {
            "w1": {"kind": "plane", "dir": [math.sin(1.1), 0.0, math.cos(1.1)]},
            "w2": {"kind": "plane", "dir": [0.0, 0.0, 1.0]},
            "carrier": {"kind": "planar", "domain_radius_mm": 10.0},
            "grid": {"kind": "polar", "n_s": 3, "n_phi": 6},
        },
        "deformation": {
            "target_profile": {"kind": "sphere_cap", "radius_mm": 50.0, "domain_radius_mm": 10.0},
            "projection": "orthogonal",
        },
        "probe": {"kind": "plane", "dir": [math.sin(1.1), 0.0, math.cos(1.1)]},
        "analysis": {"detector_z_mm": [50.0], "focal_scan": {"z_min": 20.0, "z_max": 120.0, "n": 11}},
    }


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hoedeform.cli", *args],
        capture_output=True, text=True, env=env,
    )


class TestConfigParsing:
    def test_full_config_parses(self):
        cfg = parse_scene_config(base_config())
        assert cfg.wavelength.lambda_nm == 500.0
        assert cfg.recording.grid.n_s == 3
        assert cfg.deformation.projection.is_orthogonal
        assert cfg.analysis.focal_scan.n_planes == 11

    def test_waves_inherit_top_level_wavelength(self):
        cfg = parse_scene_config(base_config())
        assert cfg.recording.w1.wavelength.lambda_nm == 500.0
        assert cfg.probe.wavelength.lambda_nm == 500.0

    def test_wave_can_override_wavelength(self):
        doc = base_config()
        doc["probe"]["lambda_nm"] = 532.0
        cfg = parse_scene_config(doc)
        assert cfg.probe.wavelength.lambda_nm == 532.0

    def test_projection_defaults_to_orthogonal(self):
        doc = base_config()
        del doc["deformation"]["projection"]
        assert parse_scene_config(doc).deformation.projection.is_orthogonal

    def test_central_projection(self):
        doc = base_config()
        doc["deformation"]["projection"] = {"center_z_mm": 250.0}
        cfg = parse_scene_config(doc)
        assert cfg.deformation.projection.center.z == 250.0

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update({"unknown_section": {}}),
        lambda d: d["recording"].update({"w3": {}}),
        lambda d: d["recording"]["w1"].update({"direction": [0, 0, 1]}),
        lambda d: d["recording"]["carrier"].update({"radius_mm": 1.0}),
        lambda d: d["recording"]["grid"].update({"spacing": 0.1}),
        lambda d: d["deformation"].update({"factor": 2.0}),
        lambda d: d["analysis"].update({"spot_metric": "rms"}),
        lambda d: d["analysis"]["focal_scan"].update({"step": 1.0}),
    ])
    def test_unknown_keys_rejected(self, mutate):
        doc = base_config()
        mutate(doc)
        with pytest.raises(ConfigError):
            parse_scene_config(doc)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("wavelength"),
        lambda d: d["recording"].pop("grid"),
        lambda d: d["deformation"].pop("target_profile"),
    ])
    def test_missing_required_keys_rejected(self, mutate):
        doc = base_config()
        mutate(doc)
        with pytest.raises(ConfigError):
            parse_scene_config(doc)

    @pytest.mark.parametrize("mutate", [
        lambda d: d["wavelength"].update({"lambda_nm": -1.0}),
        lambda d: d["recording"]["w1"].update({"kind": "gaussian"}),
        lambda d: d["recording"]["w1"].update({"dir": [0.0, 0.0]}),
        lambda d: d["recording"]["carrier"].update({"kind": "freeform"}),
        lambda d: d["recording"]["grid"].update({"n_s": True}),
        lambda d: d["deformation"].update({"rescale": -0.5}),
        lambda d: d["analysis"]["focal_scan"].update({"n": 2}),
        lambda d: d["deformation"].update({"projection": {"center_z_mm": -5.0}}),
        # JSON 1e400 reads as inf; non-finite numbers are config errors at parse time
        lambda d: d["analysis"].update({"detector_z_mm": [1e400]}),
        lambda d: d["analysis"]["focal_scan"].update({"z_max": 1e400}),
        lambda d: d["deformation"].update({"rescale": 1e400}),
        # a wave's own wavelength is checked like the top-level one
        lambda d: d["probe"].update({"lambda_nm": -1.0}),
        lambda d: d["probe"].update({"lambda_nm": 0.0}),
        # k = 2*pi/lambda overflows to inf
        lambda d: d["wavelength"].update({"lambda_nm": 1e-320}),
        # polar rings beyond the 10 mm carrier
        lambda d: d["recording"]["grid"].update({"s_max_mm": 20.0}),
    ])
    def test_invalid_values_rejected(self, mutate, tmp_path):
        doc = base_config()
        mutate(doc)
        with pytest.raises(ConfigError):
            parse_scene_config(doc)
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = cli_main("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.count("\n") == 1 and json.loads(err)["error"]["type"] == "ConfigError"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scene_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("grid", [
        PolarGrid(3, 6),  # descriptor carries "s_max_mm": null
        PolarGrid(2, 4, s_max=5.0, include_vertex=False),
        CartesianGrid(4, 5, 7.0),
    ])
    def test_grid_descriptor_round_trip(self, grid):
        assert parse_grid(grid.descriptor(), "grid") == grid


def evanescent_config():
    # the geometry of test_scene._mixed_rays_lines probed by a converging wave: about half of the
    # samples are evanescent, and the propagating rays focus near z = 3.4 mm
    doc = base_config()
    doc["recording"]["w1"]["dir"] = [0.0, 0.0, 1.0]
    doc["recording"]["w2"]["dir"] = [math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))]
    doc["recording"]["grid"] = {"kind": "polar", "n_s": 5, "n_phi": 8}
    doc["probe"] = {"kind": "spherical_converging", "target_mm": [0.0, 0.0, 10.0]}
    doc["analysis"] = {"detector_z_mm": [5.0, 10.0], "focal_scan": {"z_min": 2.0, "z_max": 30.0, "n": 41}}
    return doc


def cli_main(*argv):
    """Exit code, stdout and stderr of ``cli.main(argv)`` run in-process."""
    from hoedeform import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


STEPWISE_SCENES = {
    "base": base_config,
    "evanescent": evanescent_config,
    **{name: (lambda name=name: json.loads((CONFIG_DIR / f"{name}.json").read_text()))
       for name in ("plane_wave_planar", "plane_wave_curved_recorded", "plane_wave_deformed", "combiner_deformed")},
}


class TestCliFlows:
    @pytest.mark.parametrize("scene", sorted(STEPWISE_SCENES))
    def test_stepwise_verbs_match_run(self, tmp_path, scene):
        # scan reads rays.csv back while run analyses the rays of its trace: both reach analyze_stage
        doc = STEPWISE_SCENES[scene]()
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(doc))
        out_run = tmp_path / "all_at_once"
        out_step = tmp_path / "stepwise"
        code, summary, err = cli_main("run", "--config", str(cfg), "--out", str(out_run))
        assert code == 0, err
        verbs = ["record"] + ["deform"] * ("deformation" in doc) + ["trace", "scan"]
        for verb in verbs:
            assert cli_main(verb, "--config", str(cfg), "--out", str(out_step))[0] == 0, verb
        names = sorted(p.name for p in out_run.iterdir())
        assert names == sorted(p.name for p in out_step.iterdir())
        scanned = {"spots.csv", "scan.json"} if "focal_scan" in doc["analysis"] else set()
        assert {"rays.csv", "hits.csv"} | scanned <= set(names)
        for name in names:
            assert (out_run / name).read_bytes() == (out_step / name).read_bytes(), name
        if scene == "evanescent":
            counts = json.loads(summary)["counts"]
            assert counts["evanescent"] > 0 and counts["propagating"] > 0

    def test_invert_then_deform_recovers_target(self, tmp_path):
        cfg_path = CONFIG_DIR / "combiner_invert.json"
        out = tmp_path / "out"
        assert run_cli("record", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        assert run_cli("invert", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        assert run_cli(
            "deform", "--config", str(cfg_path), "--out", str(out),
            "--field", str(out / "field_planar.json"),
        ).returncode == 0
        from hoedeform.fieldio import load_field
        target = load_field(out / "field.json")
        again = load_field(out / "field_deformed.json")
        for a, b in zip(target.samples, again.samples):
            assert (a.position - b.position).norm() < 1e-10
            assert a.coords == b.coords

    def test_seed_flag_accepted(self, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(base_config()))
        res = run_cli("record", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "7")
        assert res.returncode == 0

    def test_basic_mode_flag(self, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(base_config()))
        res = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--mode", "basic")
        assert res.returncode == 0


class TestCliExitCodes:
    def test_config_error_exits_2(self, tmp_path):
        doc = base_config()
        doc["recording"]["grid"]["step"] = 1.0  # unknown key
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(doc))
        res = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"]["type"] == "ConfigError"

    def test_missing_config_exits_2(self, tmp_path):
        res = run_cli("run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o"))
        assert res.returncode == 2

    def test_pipeline_error_exits_3(self, tmp_path):
        # plane footprints beyond the rim preimage: forward projection fails
        doc = base_config()
        doc["recording"]["carrier"]["domain_radius_mm"] = 30.0
        doc["deformation"]["projection"] = {"center_z_mm": 100.0}
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(doc))
        res = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert err["error"]["type"] == "NoIntersection"
        assert "sample" in err["error"]["message"]

    @pytest.mark.parametrize("verb", ["run", "deform"])
    def test_bending_a_curved_field_exits_2(self, tmp_path, verb):
        cfg = str(CONFIG_DIR / "combiner_invert.json")  # records on a sphere cap
        out = str(tmp_path / "o")
        if verb == "deform":
            assert cli_main("record", "--config", cfg, "--out", out)[0] == 0
        code, stdout, err = cli_main(verb, "--config", cfg, "--out", out)
        assert code == 2 and stdout == ""
        error = json.loads(err)["error"]
        assert err.count("\n") == 1 and error["type"] == "ConfigError"
        assert "sphere_cap carrier" in error["message"] and "invert" in error["message"]

    def test_scan_without_rays_exits_2(self, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(base_config()))
        res = run_cli("scan", "--config", str(cfg), "--out", str(tmp_path / "empty"))
        assert res.returncode == 2


    @pytest.mark.parametrize("bad", ["non_utf8", "directory"])
    @pytest.mark.parametrize("verb, flag", [("run", "--config"), ("deform", "--field"), ("scan", "--rays")])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, verb, flag, bad):
        from hoedeform import cli

        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(base_config()))
        if bad == "directory":
            target = tmp_path / "a_directory"
            target.mkdir()
        else:
            target = tmp_path / "latin1.txt"
            target.write_bytes(b"\xff")
        args = ["--config", str(target)] if flag == "--config" else ["--config", str(cfg), flag, str(target)]
        capsys.readouterr()
        code = cli.main([verb, *args, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and json.loads(err)["error"]["type"] == "ConfigError"

    # 200 000 levels overflow the JSON decoder's recursion limit; 900 decode and fail the document checks
    @pytest.mark.parametrize("depth", [200_000, 900], ids=["deep", "shallow"])
    @pytest.mark.parametrize("verb, flag, shallow", [
        ("run", "--config", "config root must be a JSON object"),
        ("trace", "--field", "field: expected an object, got list"),
    ], ids=["config", "field"])
    def test_deeply_nested_json_exits_2(self, tmp_path, depth, verb, flag, shallow):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * depth + "]" * depth)
        args = ["--config", str(nested)] if flag == "--config" else [
            "--config", str(CONFIG_DIR / "combiner_deformed.json"), flag, str(nested)]
        res = run_cli(verb, *args, "--out", str(tmp_path / "o"))
        message = shallow if depth == 900 else (f"{flag[2:]} file {nested} is not valid JSON: maximum recursion "
                                                f"depth exceeded while decoding a JSON array from a unicode string")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == json.dumps({"error": {"type": "ConfigError", "message": message}}) + "\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--out", "o"],
        ["run", "--config", "scene.json", "--out", "o", "--seed", "abc"],
        [],
        ["run", "--config", "scene.json", "--out", "o", "--mode", "bogus"],
    ], ids=["missing_config", "seed_not_int", "no_verb", "unknown_mode"])
    def test_usage_error_is_one_json_object(self, argv):
        code, out, err = cli_main(*argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"]["type"] == "ConfigError"

    def test_help_exits_0(self, capsys):
        from hoedeform import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--help"])
        assert exc.value.code == 0 and "--config" in capsys.readouterr().out

    # 10**17 samples or planes need 711 PiB: the allocation fails at once, before any memory is touched
    @pytest.mark.parametrize("key_path, value", [
        (("recording", "grid", "n_s"), 10 ** 17),
        (("recording", "grid"), {"kind": "cartesian", "n_x": 10 ** 17, "n_y": 3, "half_width_mm": 5.0}),
        (("analysis", "focal_scan", "n"), 10 ** 17),
    ], ids=["polar_n_s", "cartesian_n_x", "focal_scan_n"])
    def test_oversized_allocation_exits_3(self, tmp_path, key_path, value):
        doc = base_config()
        parent = doc
        for key in key_path[:-1]:
            parent = parent[key]
        parent[key_path[-1]] = value
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = cli_main("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"]["type"] == "MemoryError"


class TestThreadEnv:
    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(base_config()))
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert run_cli("run", "--config", str(cfg), "--out", str(out1),
                       env_extra={"HOE_THREADS": "1"}).returncode == 0
        assert run_cli("run", "--config", str(cfg), "--out", str(out4),
                       env_extra={"HOE_THREADS": "4"}).returncode == 0
        for name in ("field.json", "field_deformed.json", "rays.csv", "spots.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes(), name

    @pytest.mark.parametrize("verb", ["record", "scan", "run"])
    def test_invalid_thread_count_is_config_error(self, tmp_path, verb):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(base_config()))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)).returncode == 0
        res = run_cli(verb, "--config", str(cfg), "--out", str(out), env_extra={"HOE_THREADS": "many"})
        assert res.returncode == 2
        assert "HOE_THREADS" in json.loads(res.stderr)["error"]["message"]


def test_runtime_does_not_import_scipy():
    # scipy is a test-only dependency (a slow reference for the projection)
    code = "import sys, hoedeform, hoedeform.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestShippedConfigs:
    @pytest.mark.parametrize("name", [
        "plane_wave_planar.json",
        "plane_wave_curved_recorded.json",
        "plane_wave_deformed.json",
        "combiner_deformed.json",
        "combiner_invert.json",
    ])
    def test_config_parses(self, name):
        cfg = load_scene_config(CONFIG_DIR / name)
        assert cfg.wavelength.lambda_nm == 500.0

    def test_planar_scene_emits_parallel_rays(self, tmp_path):
        from hoedeform.scene import read_rays_csv
        out = tmp_path / "out"
        res = run_cli("run", "--config", str(CONFIG_DIR / "plane_wave_planar.json"), "--out", str(out))
        assert res.returncode == 0
        rays = read_rays_csv(out / "rays.csv")
        ref, *rest = (ray.direction for ray in rays)
        for d in rest:
            assert math.atan2(d.cross(ref).norm(), d.dot(ref)) < 1e-9

    def test_deformed_scene_reports_astigmatic_focus(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli("run", "--config", str(CONFIG_DIR / "plane_wave_deformed.json"), "--out", str(out))
        assert res.returncode == 0
        scan = json.loads((out / "scan.json").read_text())
        assert scan["bracketed_x"] and scan["bracketed_y"]
        assert scan["z_min_rms_x_mm"] != scan["z_min_rms_y_mm"]
        assert scan["astigmatism_mm"] > 3.0 * scan["plane_spacing_mm"]

    def test_combiner_scene_focus_moves_toward_element(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli("run", "--config", str(CONFIG_DIR / "combiner_deformed.json"), "--out", str(out))
        assert res.returncode == 0
        scan = json.loads((out / "scan.json").read_text())
        assert scan["z_min_rms_total_mm"] < 80.0  # design focus of the target wave
        assert scan["astigmatism_mm"] > 3.0 * scan["plane_spacing_mm"]
