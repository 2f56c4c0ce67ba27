import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cablerecon import cli, explore, fitting, imgproc, pipeline, scenarios, worldsim, yamlio
from cablerecon.cloudproc import load_ply
from cablerecon.geom import ReconParams
from conftest import qvga_template

# scenario keys that may be left out: each has a default
OPTIONAL = {"seed", "pressure_noise_sigma", "occluders", "up_hint"}

# values that no scenario key accepts, at any depth: a list is never 3 long
# (a triple) nor empty (no cables, no occluders), and its items are numbers
INVALID_EVERYWHERE = st.one_of(
    st.text(alphabet="ab1.-: ", max_size=6),
    st.none(),
    st.booleans(),
    st.dictionaries(st.sampled_from(["min", "max", "radius", "point"]), st.just(1.0), max_size=2),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5).filter(lambda v: len(v) != 3),
)


def _key_paths(node, path=()):
    """The path (keys and list indices) to every value below `node`."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _key_paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestGenScene:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.yaml"
        b = tmp_path / "b.yaml"
        assert cli.main(["gen-scene", "cs1_occluded", "--seed", "7", "--out", str(a)]) == 0
        assert cli.main(["gen-scene", "cs1_occluded", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_is_one_error_line_and_no_file(self, tmp_path, capsys):
        out = tmp_path / "x.yaml"
        assert cli.main(["gen-scene", "cs1_plain", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, not -1\n"
        assert not out.exists()

    def test_unknown_template_fails_naming_the_valid_ones(self, tmp_path, capsys):
        assert cli.main(["gen-scene", "nosuch", "--out", str(tmp_path / "x.yaml")]) == 1
        err = capsys.readouterr().err
        assert "cs1_plain" in err and "cs2_occluded" in err


class TestRun:
    def test_complete_templates_exit_zero(self, template_runs):
        for tpl, result in template_runs.items():
            assert result.exit_status == pipeline.EXIT_COMPLETE, tpl

    def test_no_tactile_is_partial(self, no_tactile_run):
        assert no_tactile_run.exit_status == pipeline.EXIT_PARTIAL
        assert all(c["final_endpoints"] > 2 for c in no_tactile_run.manifest["cables"])

    @pytest.mark.parametrize(
        "template, extra, state",
        [("cs2_plain", [], "complete"), ("cs1_occluded", ["--no-tactile"], "partial")],
    )
    def test_run_prints_one_line_per_manifest_cable(
        self, tmp_path, scenario_files, capsys, template, extra, state
    ):
        out = tmp_path / "out"
        cli.main(["run", str(scenario_files[template]), "--out", str(out), *extra])
        cables = json.loads((out / "manifest.json").read_text())["cables"]
        assert cables and all(c["complete"] == (state == "complete") for c in cables)
        assert capsys.readouterr().out.splitlines() == [
            f"{c['directory']}: {state}, {c['final_segments']} segment(s), "
            f"{c['tactile_points']} tactile points, {c['probes_used']} probes"
            for c in cables
        ] + [str(out)]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: a run into an existing --out certifies the files "
        "an earlier run left there",
    )
    def test_a_second_run_into_one_out_certifies_none_of_the_first_runs_files(
        self, tmp_path, scenario_files
    ):
        out = tmp_path / "out"
        assert cli.main(["run", str(scenario_files["cs2_plain"]), "--out", str(out)]) == 0
        assert cli.main(["run", str(scenario_files["cs1_plain"]), "--out", str(out)]) == 0
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        stale = [k for k in artifacts if k.startswith("cable_01/")]
        assert stale == [] and "images/mask_cable_01.pgm" not in artifacts

    def test_cli_run_and_seed_precedence(self, tmp_path, scenario_files, monkeypatch):
        monkeypatch.setenv("DLO_SEED", "123")
        out = tmp_path / "envseed"
        code = cli.main(
            ["run", str(scenario_files["cs1_plain"]), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 123
        # --seed wins over the environment
        out2 = tmp_path / "argseed"
        cli.main(
            ["run", str(scenario_files["cs1_plain"]), "--out", str(out2), "--seed", "5"]
        )
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["seed"] == 5

    def test_params_file_sets_the_clustering_keys(self, tmp_path, scenario_files):
        params = tmp_path / "params.yaml"
        params.write_text("t_p: 0.009\ntheta_deg: 30\n")
        out = tmp_path / "out"
        scenario = str(scenario_files["cs1_plain"])
        code = cli.main(["run", scenario, "--out", str(out), "--params", str(params)])
        assert code == pipeline.EXIT_COMPLETE
        recorded = json.loads((out / "manifest.json").read_text())["params"]
        assert recorded["t_p"] == 0.009
        assert recorded["theta_deg"] == 30.0 and type(recorded["theta_deg"]) is float
        assert recorded["d_m"] == 0.02
        assert set(recorded) == {f.name for f in dataclasses.fields(ReconParams)}

    def test_run_directory_is_self_describing(self, template_runs):
        run_dir = template_runs["cs1_occluded"].out_dir
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert (run_dir / manifest["scenario"]).exists()
        for rel, digest in manifest["artifacts"].items():
            assert (run_dir / rel).exists()
        assert len(manifest["plane"]) == 4

    def test_canonical_artifacts_present(self, template_runs):
        cable_dir = template_runs["cs2_occluded"].out_dir / "cable_00"
        for name in pipeline.CANONICAL_CLOUDS:
            suffix = ".csv" if name == "P_sorted" else ".ply"
            assert (cable_dir / f"{name}{suffix}").exists()
        assert (cable_dir / "P_dense.ply").exists()
        assert (cable_dir / "trace.csv").exists()

    def test_cs2_plain_yields_one_spline_per_cable(self, template_runs):
        run = template_runs["cs2_plain"]
        assert len(run.manifest["cables"]) == 2
        for cable in run.manifest["cables"]:
            cable_dir = run.out_dir / cable["directory"]
            splines = sorted(cable_dir.glob("spline_seg*.yaml"))
            assert len(splines) == 1
            assert cable["final_endpoints"] == 2
            # near-closed loops terminate their walks at the adjacent
            # opposite endpoint, adding only a couple of contact points
            assert cable["tactile_points"] <= 4

    def test_interpolated_cloud_sits_at_cable_height(self, template_runs):
        # the exported model is lifted one radius off the fitted plane
        run = template_runs["cs2_plain"]
        manifest = run.manifest
        plane = np.asarray(manifest["plane"])
        cloud = load_ply(run.out_dir / "cable_00" / "P_interpolated.ply")
        heights = cloud @ plane[:3] + plane[3]
        radius = manifest["cables"][0]["radius"]
        assert np.allclose(heights, radius, atol=2e-4)


def manifest_text(plane=(0.0, 0.0, 1.0, 0.0), artifacts=None, **cable):
    """A finished run's manifest with one cable, holding `plane`, `artifacts` and `cable`'s
    values."""
    keys = {"directory": "cable_00", "color": [30.0, 30.0, 30.0], "final_segments": 1,
            "final_endpoints": 2, "probes_used": 0}
    return json.dumps({"cables": [{**keys, **cable}], "artifacts": artifacts or {},
                       "plane": list(plane)})


# a valid spline file: the polyline from the origin to (1, 0, 0)
SPLINE = "degree: 1\nknots: [0, 0, 1, 1]\ncontrol_points: [[0, 0, 0], [1, 0, 0]]\n"


def ply_text(*rows):
    """An ASCII PLY file whose vertices are `rows`, each the text of one x y z line."""
    header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}", "property float x",
              "property float y", "property float z", "end_header"]
    return "\n".join(header + list(rows)) + "\n"


class TestCleanErrors:
    def _run(self, scenario, tmp_path, *extra):
        return cli.main(["run", str(scenario), "--out", str(tmp_path / "out"), *extra])

    @pytest.mark.parametrize(
        "body, named",
        [
            ("d_min: 0.02\nno_such_knob: 3\n", "no_such_knob"),
            ("t_h: abc\n", "t_h"),
            ("d_m: .nan\n", "d_m"),
            ("voxel_origin: [1]\n", "voxel_origin"),
            ("- d_min: 0.02\n", "must be a mapping"),
            # derived from d_m and theta_deg, or a module constant: not a key
            ("r_search: 0.05\n", "r_search"),
            ("alpha_max_deg: 60\n", "alpha_max_deg"),
            ("probe_budget: 10000\n", "probe_budget"),
            ("min_cluster_size: 30\n", "min_cluster_size"),
            ("cut_threshold: 60.0\n", "cut_threshold"),
            ("max_rotation_attempts: 12\n", "max_rotation_attempts"),
            ("hover_height: 0.03\n", "hover_height"),
            ("spatial_weight: 0.7\n", "spatial_weight"),
            ("eps_contact: 0.1\n", "eps_contact"),
            ("theta_deg: 17\n", "theta_deg must divide 360 evenly"),
        ],
        ids=[
            "unknown_key", "text_t_h", "nan_d_m", "short_origin", "list_document",
            "r_search", "alpha_max_deg", "probe_budget", "min_cluster_size", "cut_threshold",
            "max_rotation_attempts", "hover_height", "spatial_weight", "eps_contact",
            "theta_not_dividing_360",
        ],
    )
    def test_bad_params_file_is_one_error_line(
        self, tmp_path, scenario_files, capsys, body, named
    ):
        params = tmp_path / "params.yaml"
        params.write_text(body)
        code = self._run(scenario_files["cs1_plain"], tmp_path, "--params", str(params))
        assert code == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err and "d_min" not in err
        assert not (tmp_path / "out").exists()

    def test_scenario_params_that_are_not_a_mapping_are_one_error_line(self, tmp_path, capsys):
        doc = scenarios.make_template("cs1_plain", seed=1)
        doc["params"] = [1, 2]
        path = tmp_path / "listed.yaml"
        scenarios.save_scenario(path, doc)
        assert self._run(path, tmp_path) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: scenario params must be a mapping, not [1, 2]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "drop",
        [("plane",), ("camera",), ("cables",), ("plane", "normal"), ("camera", "fx")],
    )
    def test_scenario_missing_a_required_key_is_one_error_line(
        self, tmp_path, capsys, drop
    ):
        doc = scenarios.make_template("cs1_plain", seed=1)
        parent = doc
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        path = tmp_path / "broken.yaml"
        scenarios.save_scenario(path, doc)
        assert self._run(path, tmp_path) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(drop[-1]) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[1, 2]\n", "must be a mapping, not [1, 2]"),
            ("plane: {}\n", "is missing key 'schema_version'"),
            ("schema_version: true\n", "schema_version must be an integer > 0, not True"),
        ],
        ids=["list_document", "no_schema_version", "bool_schema_version"],
    )
    def test_scenario_document_is_read_by_the_rules(self, tmp_path, capsys, body, message):
        path = tmp_path / "scenario.yaml"
        path.write_text(body)
        assert self._run(path, tmp_path) == pipeline.EXIT_ERROR
        assert capsys.readouterr().err == f"error: scenario {path} {message}\n"
        assert not (tmp_path / "out").exists()

    def test_cable_missing_its_radius_is_one_error_line(self, tmp_path, capsys):
        doc = scenarios.make_template("cs2_plain", seed=1)
        del doc["cables"][1]["radius"]
        path = tmp_path / "broken.yaml"
        scenarios.save_scenario(path, doc)
        assert self._run(path, tmp_path) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert "cable 1" in err and "'radius'" in err


    @pytest.mark.parametrize("broken", ["scenario", "params"])
    def test_broken_yaml_is_one_error_line(self, tmp_path, scenario_files, capsys, broken):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 1\nd_min: [1\n")
        if broken == "scenario":
            code = self._run(bad, tmp_path)
        else:
            code = self._run(scenario_files["cs1_plain"], tmp_path, "--params", str(bad))
        assert code == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid YAML in {bad}, line 3, column 1: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda d: d["occluders"][0].update(min=d["occluders"][0]["min"][:2]), "0 min"),
            (lambda d: d["occluders"][0].update(max=[0.1, "a", 0.2]), "0 max"),
            (lambda d: d["occluders"][0].update(max=[0.1, float("inf"), 0.2]), "0 max"),
            (lambda d: d["occluders"][0].pop("max"), "'max'"),
            (lambda d: d.update(occluders={"min": [0, 0, 0]}), "occluders must be a list"),
            (lambda d: d["cables"][0].update(radius=[1]), "cable 0 radius"),
            (lambda d: d["cables"][0].update(radius=0), "cable 0 radius"),
            (lambda d: d["cables"][0].update(radius=float("nan")), "cable 0 radius"),
            (lambda d: d.update(pressure_noise_sigma=-1), "pressure_noise_sigma"),
            (lambda d: d.update(pressure_noise_sigma="low"), "pressure_noise_sigma"),
            (lambda d: d["camera"].update(width=320.5), "camera width"),
            (lambda d: d["camera"].update(width=-5), "camera width"),
            (lambda d: d["camera"].update(height=True), "camera height"),
            (lambda d: d["camera"].update(height=0), "camera height"),
            (lambda d: d.update(cables=5), "cables must be a list"),
            (lambda d: d.update(cables={"a": 1}), "cables must be a list"),
            (lambda d: d["cables"][0].update(color=[1, 2]), "cable 0 color"),
            (lambda d: d["cables"][0].update(color="red"), "cable 0 color"),
            (lambda d: d["cables"][0].update(color=[40, 80, 300]), "cable 0 color"),
            (lambda d: d["cables"][0].update(color=[-1, 0, 0]), "cable 0 color"),
            (lambda d: d["cables"][0].update(control_points=d["cables"][0]["control_points"][:3]),
             "cable 0 control_points"),
            (lambda d: d["cables"][0]["control_points"][1].pop(), "cable 0 control_points"),
            (lambda d: d["cables"][0].update(control_points=7), "cable 0 control_points"),
            (lambda d: d["camera"].update(fx=0), "camera fx"),
            (lambda d: d["camera"].update(fy=-600.0), "camera fy"),
            (lambda d: d.update(seed="x"), "seed"),
            (lambda d: d.update(seed=1.5), "seed"),
            (lambda d: d.update(seed=-1), "seed"),
            (lambda d: d["plane"].update(normal=[0, 0, 0]), "plane normal"),
            (lambda d: d["plane"].update(point=[0, 0]), "plane point"),
            (lambda d: d["camera"].update(look_at=d["camera"]["position"]), "camera look_at"),
            (lambda d: d["camera"].update(cx="abc"), "camera cx"),
            (lambda d: d["camera"].update(cy=float("nan")), "camera cy"),
            (lambda d: d["camera"].update(up_hint=[1, 2]), "camera up_hint"),
            (lambda d: d["camera"].update(
                up_hint=np.subtract(d["camera"]["look_at"], d["camera"]["position"]).tolist()),
             "camera up_hint"),
        ],
        ids=[
            "short_min", "text_max", "inf_max", "no_max", "occluders_mapping", "list_radius",
            "zero_radius", "nan_radius", "negative_sigma", "text_sigma", "fractional_width",
            "negative_width", "bool_height", "zero_height", "int_cables", "mapping_cables",
            "short_color", "text_color", "color_above_255", "negative_color",
            "three_control_points", "short_control_point",
            "int_control_points", "zero_fx", "negative_fy", "text_seed", "fractional_seed",
            "negative_seed", "zero_normal", "short_plane_point", "look_at_position", "text_cx",
            "nan_cy", "short_up_hint", "up_hint_along_view",
        ],
    )
    def test_scenario_value_out_of_range_is_one_error_line(
        self, tmp_path, capsys, mutate, named
    ):
        doc = scenarios.make_template("cs1_occluded", seed=1)
        mutate(doc)
        path = tmp_path / "mutated.yaml"
        scenarios.save_scenario(path, doc)
        assert self._run(path, tmp_path) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario {path}") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "env, extra, named",
        [
            (None, ("--seed", "-1"), "error: --seed must be an integer >= 0, not -1"),
            ("-1", (), "error: DLO_SEED must be an integer >= 0, not -1"),
            ("abc", (), "error: DLO_SEED must be an integer >= 0, not 'abc'"),
            ("1.5", (), "error: DLO_SEED must be an integer >= 0, not '1.5'"),
        ],
        ids=["negative_flag", "negative_env", "text_env", "fractional_env"],
    )
    def test_bad_seed_override_is_one_error_line(
        self, tmp_path, scenario_files, capsys, monkeypatch, env, extra, named
    ):
        monkeypatch.delenv("DLO_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("DLO_SEED", env)
        assert self._run(scenario_files["cs1_plain"], tmp_path, *extra) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.startswith(named) and "scenario" not in err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_any_broken_scenario_is_one_error_line(self, data):
        doc = scenarios.make_template(data.draw(st.sampled_from(scenarios.TEMPLATES)), seed=1)
        paths = list(_key_paths(doc))
        if data.draw(st.booleans(), label="delete"):
            required = [p for p in paths if isinstance(p[-1], str) and p[-1] not in OPTIONAL]
            path = data.draw(st.sampled_from(required), label="path")
            del _at(doc, path[:-1])[path[-1]]
        else:
            path = data.draw(st.sampled_from(paths), label="path")
            _at(doc, path[:-1])[path[-1]] = data.draw(INVALID_EVERYWHERE, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out = Path(tmp) / "broken.yaml", Path(tmp) / "out"
            scenarios.save_scenario(scenario, doc)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(scenario), "--out", str(out)])
            assert code == pipeline.EXIT_ERROR
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
            assert "Traceback" not in err.getvalue()
            assert not out.exists()

    def test_eval_with_a_broken_reference_is_one_error_line(
        self, template_runs, tmp_path, capsys
    ):
        bad = tmp_path / "reference.yaml"
        bad.write_text("schema_version: 1\nplane: {point: [0, 0, 0]\n")
        report = tmp_path / "report.yaml"
        run_dir = str(template_runs["cs1_plain"].out_dir)
        assert cli.main(["eval", run_dir, str(bad), "--out", str(report)]) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid YAML in {bad}, line ") and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("empty", ["reference_scenario", "reference_run", "run_scenario"])
    def test_eval_against_no_cable_is_one_error_line(
        self, template_runs, scenario_files, tmp_path, capsys, empty
    ):
        run = shutil.copytree(template_runs["cs1_plain"].out_dir, tmp_path / "run")
        reference = shutil.copy(scenario_files["cs1_plain"], tmp_path / "reference.yaml")
        if empty == "reference_run":
            reference = named = shutil.copytree(run, tmp_path / "reference")
            manifest = json.loads((reference / "manifest.json").read_text())
            (reference / "manifest.json").write_text(json.dumps({**manifest, "cables": []}))
        else:
            named = reference if empty == "reference_scenario" else run / "scenario.yaml"
            scenarios.save_scenario(named, {**scenarios.load_scenario(named)[0], "cables": []})
        report = tmp_path / "report.yaml"
        assert cli.main(["eval", str(run), str(reference), "--out", str(report)]) == pipeline.EXIT_ERROR
        assert capsys.readouterr().err == f"error: {named}: no cable to compare against\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "command, damaged, text, named",
        [
            ("eval", "manifest.json", "{}", "manifest.json is missing key 'cables'"),
            ("plot", "manifest.json", "[]", "manifest.json must be a mapping, not []"),
            ("plot", "manifest.json", "{", "manifest.json: Expecting property name"),
            ("eval", "manifest.json", '{"cables": [], "artifacts": {}, "plane": null}',
             "manifest.json plane must be 4 finite numbers, not None"),
            ("plot", "manifest.json", '{"cables": [{}], "artifacts": {}, "plane": []}',
             "manifest.json cable 0 is missing key 'directory'"),
            ("eval", "cable_00/spline_seg00.yaml", "degree: 3\n",
             "cable_00/spline_seg00.yaml is missing key 'knots'"),
            ("eval", "cable_00/spline_seg00.yaml", "[3]\n",
             "cable_00/spline_seg00.yaml must be a mapping, not [3]"),
            ("eval", "cable_00/spline_seg00.yaml",
             "degree: 1\nknots: [0, 0, 1, 1]\ncontrol_points: [[0, 0, 0], [1, 0, 0]]\n"
             "sampling_count: [5]\n",
             "cable_00/spline_seg00.yaml sampling_count must be an integer >= 2, not [5]"),
            ("eval", "cable_00/P_interpolated.ply", "ply\nelement vertex x\nend_header\n",
             "cable_00/P_interpolated.ply: invalid literal for int()"),
            ("eval", "timing.txt", "abc\n",
             "timing.txt: could not convert string to float: 'abc'"),
            ("eval", "timing.txt", "nan\n", "timing.txt must be a finite number >= 0, not nan"),
            ("eval", "timing.txt", "inf\n", "timing.txt must be a finite number >= 0, not inf"),
            ("eval", "timing.txt", "-1\n", "timing.txt must be a finite number >= 0, not -1.0"),
            ("plot", "cable_00/P_sorted.csv", "segment_id,order_index,x,y,z\n0,0,1\n",
             "cable_00/P_sorted.csv: not one or more rows of segment_id,order_index,x,y,z"),
            ("plot", "cable_00/P_sorted.csv", "segment_id,order_index,x,y,z\n0,0,a,b,c\n",
             "cable_00/P_sorted.csv: could not convert string to float: 'a'"),
            ("plot", "cable_00/P_sorted.csv", "segment_id,order_index,x,y,z\n",
             "cable_00/P_sorted.csv: not one or more rows of segment_id,order_index,x,y,z"),
            ("plot", "cable_00/P_sorted.csv",
             "segment_id,order_index,x,y,z\n0,0,1,2,3\n0,1,nan,0,0\n",
             "cable_00/P_sorted.csv: point cloud contains non-finite values"),
            ("plot", "cable_00/P_sorted.csv",
             "segment_id,order_index,x,y,z\n0,0,1,2,3\n0,1,0,inf,0\n",
             "cable_00/P_sorted.csv: point cloud contains non-finite values"),
            ("eval", "cable_00/P_interpolated.ply", ply_text("1 2 3", "nan 0 0"),
             "cable_00/P_interpolated.ply: point cloud contains non-finite values"),
            ("eval", "cable_00/P_interpolated.ply", ply_text("1 2 3", "0 0 -inf"),
             "cable_00/P_interpolated.ply: point cloud contains non-finite values"),
            ("eval", "cable_00/P_dense.ply", ply_text("1 2 3", "0 nan 0"),
             "cable_00/P_dense.ply: point cloud contains non-finite values"),
            ("eval", "cable_00/P_dense.ply", ply_text("1 2 3", "inf 0 0"),
             "cable_00/P_dense.ply: point cloud contains non-finite values"),
            ("plot", "manifest.json", manifest_text(directory="../run/cable_00"),
             "manifest.json cable 0 directory must be one path component, not '../run/cable_00'"),
            ("eval", "manifest.json", manifest_text(directory="../run/cable_00"),
             "manifest.json cable 0 directory must be one path component, not '../run/cable_00'"),
            ("plot", "manifest.json", manifest_text(directory="cable\x0000"),
             "manifest.json cable 0 directory must be one path component, not 'cable\\x0000'"),
            ("plot", "manifest.json", manifest_text(plane=[1, 2]),
             "manifest.json plane must be 4 finite numbers, not [1, 2]"),
            ("eval", "manifest.json", manifest_text(color=[]),
             "manifest.json cable 0 color must be 3 finite numbers, not []"),
            ("eval", "manifest.json", manifest_text(color=["x", 1, 2]),
             "manifest.json cable 0 color must be 3 finite numbers, not ['x', 1, 2]"),
            ("plot", "manifest.json", manifest_text(plane=[0, 0, 0, 1]),
             "manifest.json plane normal must be 3 finite numbers, not all 0, not [0, 0, 0]"),
            ("eval", "manifest.json", manifest_text(artifacts={"cable_00/spline_seg../../x": "0"}),
             "manifest.json artifacts key must be a relative path, "
             "not 'cable_00/spline_seg../../x'"),
            ("eval", "manifest.json", manifest_text(artifacts={"/tmp/spline_seg00.yaml": "0"}),
             "manifest.json artifacts key must be a relative path, not '/tmp/spline_seg00.yaml'"),
            ("eval", "manifest.json", manifest_text(artifacts={"cable_00//spline_seg00.yaml": "0"}),
             "manifest.json artifacts key must be a relative path, "
             "not 'cable_00//spline_seg00.yaml'"),
            ("eval", "manifest.json", manifest_text(artifacts={"./cable_00/spline_seg00.yaml": "0"}),
             "manifest.json artifacts key must be a relative path, "
             "not './cable_00/spline_seg00.yaml'"),
            ("eval", "manifest.json", manifest_text(final_segments=-3),
             "manifest.json cable 0 final_segments must be an integer >= 0, not -3"),
            ("eval", "manifest.json", manifest_text(final_endpoints=2.0),
             "manifest.json cable 0 final_endpoints must be an integer >= 0, not 2.0"),
            ("eval", "manifest.json", manifest_text(probes_used=True),
             "manifest.json cable 0 probes_used must be an integer >= 0, not True"),
            ("eval", "manifest.json", '{"failure": "x"}',
             "manifest.json failure must be a mapping, not 'x'"),
            ("eval", "cable_00/spline_seg00.yaml", SPLINE.replace("degree: 1", "degree: true"),
             "cable_00/spline_seg00.yaml degree must be an integer > 0, not True"),
            ("eval", "cable_00/spline_seg00.yaml", SPLINE.replace("degree: 1", "degree: -1"),
             "cable_00/spline_seg00.yaml degree must be an integer > 0, not -1"),
            ("eval", "cable_00/spline_seg00.yaml", SPLINE.replace("[0, 0, 1, 1]", "[a, 0, 1, 1]"),
             "cable_00/spline_seg00.yaml knots must be a list of finite numbers, not ['a', 0, 1, 1]"),
            ("eval", "cable_00/spline_seg00.yaml",
             SPLINE.replace("[[0, 0, 0], [1, 0, 0]]", "[[0, 0], [1, 0]]"),
             "cable_00/spline_seg00.yaml control_points must be a list of points of 3 finite "
             "numbers, not [[...], [...]]"),
            ("eval", "cable_00/spline_seg00.yaml", SPLINE.replace("[0, 0, 1, 1]", "[0, 1, 1]"),
             "cable_00/spline_seg00.yaml: knot count must equal control points + degree + 1"),
            ("eval", "cable_00/spline_seg00.yaml", SPLINE.replace("[0, 0, 1, 1]", "[0, 0, 1, 0.5]"),
             "cable_00/spline_seg00.yaml: knots must be nondecreasing"),
            ("eval", "cable_00/spline_seg00.yaml", SPLINE.replace("[0, 0, 1, 1]", "[0, 0.5, 1, 1]"),
             "cable_00/spline_seg00.yaml: end knots must be clamped to multiplicity degree+1"),
            ("eval", "cable_00/spline_seg00.yaml", SPLINE.replace("[0, 0, 1, 1]", "[1, 1, 1, 1]"),
             "cable_00/spline_seg00.yaml: parameter domain must not be empty"),
            ("eval", "cable_00/spline_seg00.yaml",
             SPLINE.replace("degree: 1", "degree: 2").replace("[0, 0, 1, 1]", "[0, 0, 0, 1, 1]"),
             "cable_00/spline_seg00.yaml: need at least degree+1 control points"),
        ],
        ids=["eval_empty_manifest", "plot_list_manifest", "plot_truncated_manifest",
             "eval_null_plane", "plot_cable_without_directory", "eval_spline_without_knots",
             "eval_list_spline", "eval_list_sampling_count", "eval_text_vertex_count",
             "eval_text_timing", "eval_nan_timing", "eval_inf_timing", "eval_negative_timing",
             "plot_three_field_sorted_row", "plot_text_sorted_coordinate",
             "plot_sorted_header_only", "plot_nan_sorted_coordinate", "plot_inf_sorted_coordinate",
             "eval_nan_interpolated_point", "eval_inf_interpolated_point",
             "eval_nan_dense_point", "eval_inf_dense_point", "plot_directory_outside_the_run",
             "eval_directory_outside_the_run", "plot_directory_with_nul", "plot_two_number_plane",
             "eval_empty_color", "eval_text_color", "plot_zero_normal_plane",
             "eval_spline_key_outside_the_cable", "eval_absolute_artifact",
             "eval_artifact_with_empty_component", "eval_artifact_with_dot_component",
             "eval_negative_segments", "eval_fractional_endpoints", "eval_bool_probes",
             "eval_text_failure", "eval_bool_degree", "eval_negative_degree", "eval_text_knot",
             "eval_two_number_control_points", "eval_short_knots", "eval_decreasing_knots",
             "eval_unclamped_knots", "eval_empty_domain", "eval_too_few_control_points"],
    )
    def test_damaged_run_directory_is_one_error_line(
        self, template_runs, tmp_path, capsys, command, damaged, text, named
    ):
        run = tmp_path / "run"
        shutil.copytree(template_runs["cs1_plain"].out_dir, run)
        (run / damaged).write_text(text)
        args = [command, str(run)] + ([str(run), "--out", str(tmp_path / "r.yaml")]
                                      if command == "eval" else [])
        assert cli.main(args) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{run}/{named}" in err


def certified_files(run_dir):
    """The manifest's artifact map, checked against every file on disk."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    on_disk = {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in run_dir.rglob("*")
        if p.is_file() and p.name not in ("manifest.json", "timing.txt")
    }
    assert manifest["artifacts"] == on_disk
    return manifest


class TestFailureManifest:
    def test_stage_error_leaves_a_manifest(self, tmp_path, capsys):
        doc = scenarios.make_template("cs1_plain", seed=1)
        doc["cables"] = []
        path = tmp_path / "empty.yaml"
        scenarios.save_scenario(path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: mask has no foreground pixels\n"
        manifest = certified_files(out)
        assert "scenario.yaml" in manifest["artifacts"]
        assert "images/color.ppm" in manifest["artifacts"]
        assert manifest["exit_status"] == pipeline.EXIT_ERROR
        assert manifest["failure"] == {
            "cable": None,
            "error": "EmptyInputError",
            "message": "mask has no foreground pixels",
        }
        assert manifest["cables"] == [] and len(manifest["plane"]) == 4
        for command in (["eval", str(out), str(path)], ["plot", str(out)]):
            assert cli.main(command) == pipeline.EXIT_ERROR
            assert "the run failed (EmptyInputError)" in capsys.readouterr().err

    def test_exhausted_probe_budget_leaves_a_manifest(
        self, tmp_path, scenario_files, capsys, monkeypatch
    ):
        monkeypatch.setattr(explore, "PROBE_BUDGET", 20)
        out = tmp_path / "out"
        code = cli.main(["run", str(scenario_files["cs1_occluded"]), "--out", str(out)])
        assert code == pipeline.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err == "error: probe budget exhausted: all 20 probes used\n"
        manifest = certified_files(out)
        assert manifest["exit_status"] == pipeline.EXIT_BUDGET
        assert manifest["failure"]["cable"] == "cable_00"
        assert manifest["failure"]["error"] == "ProbeBudgetError"
        assert manifest["cables"] == []
        assert any(rel.startswith("cable_00/") for rel in manifest["artifacts"])

    def test_a_fine_delta_z_exhausts_the_budget_before_descending(self, tmp_path):
        # the unprobed steps above `top` cost no budget, so at 1e-300 m a
        # step that leaves the height as it is would descend forever
        scenario, params, out = tmp_path / "plain.yaml", tmp_path / "params.yaml", tmp_path / "out"
        scenarios.save_scenario(scenario, qvga_template("cs1_plain", 1))
        params.write_text("delta_z: 1.0e-300\n")
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "cablerecon.cli", "run", str(scenario), "--out", str(out),
             "--params", str(params)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - start < 10
        assert done.returncode == pipeline.EXIT_BUDGET
        assert done.stderr.startswith("error: probe budget exhausted: delta_z 1e-300 m takes")
        assert done.stderr.count("\n") == 1
        manifest = certified_files(out)
        assert manifest["exit_status"] == pipeline.EXIT_BUDGET
        assert manifest["failure"]["cable"] == "cable_00"
        assert manifest["failure"]["error"] == "ProbeBudgetError"

    @pytest.mark.parametrize(
        "value, status", [("1e-3", pipeline.EXIT_COMPLETE), ("1e-300", pipeline.EXIT_BUDGET)]
    )
    def test_a_float_with_no_dot_and_no_exponent_sign_is_a_float(self, tmp_path, value, status):
        # YAML 1.1 reads 1e-3 as a string, which the params check refuses (exit 1)
        scenario, params, out = tmp_path / "plain.yaml", tmp_path / "params.yaml", tmp_path / "out"
        scenarios.save_scenario(scenario, qvga_template("cs1_plain", 1))
        params.write_text(f"delta_z: {value}\n")
        code = cli.main(["run", str(scenario), "--out", str(out), "--params", str(params)])
        assert code == status
        assert certified_files(out)["params"]["delta_z"] == float(value)

    def test_a_tiny_voxel_size_is_one_error_line_and_leaves_a_manifest(
        self, tmp_path, capsys
    ):
        # bin indices past int64 once warned, put every point in one voxel and exited 2
        scenario, params, out = tmp_path / "plain.yaml", tmp_path / "params.yaml", tmp_path / "out"
        scenarios.save_scenario(scenario, qvga_template("cs1_plain", 1))
        params.write_text("d_m: 1.0e-300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", str(scenario), "--out", str(out), "--params", str(params)])
        assert code == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: voxel size 1e-300 is too small: its bin indices overflow int64\n"
        manifest = certified_files(out)
        assert manifest["exit_status"] == pipeline.EXIT_ERROR
        assert manifest["failure"]["cable"] == "cable_00"
        assert manifest["failure"]["error"] == "ValueError"

    def test_memory_error_is_one_error_line_and_leaves_a_manifest(
        self, tmp_path, scenario_files, capsys, monkeypatch
    ):
        # what np.zeros raises for a 10^6 x 10^6 frame, without allocating it
        message = ("Unable to allocate 931. GiB for an array with shape (1000000, 1000000) "
                   "and data type bool")

        def render(scene):
            raise MemoryError(message)

        monkeypatch.setattr(worldsim, "render", render)
        out = tmp_path / "out"
        code = cli.main(["run", str(scenario_files["cs1_plain"]), "--out", str(out)])
        assert code == pipeline.EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = certified_files(out)
        assert manifest["exit_status"] == pipeline.EXIT_ERROR
        assert manifest["failure"] == {"cable": None, "error": "MemoryError", "message": message}

    def test_no_kept_cluster_leaves_a_manifest(
        self, tmp_path, scenario_files, capsys, monkeypatch
    ):
        # every pixel cluster is smaller than MIN_CLUSTER_SIZE, so no cable is left
        monkeypatch.setattr(imgproc, "MIN_CLUSTER_SIZE", 100000)
        out = tmp_path / "out"
        code = cli.main(["run", str(scenario_files["cs1_plain"]), "--out", str(out)])
        assert code == pipeline.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: no pixel cluster reaches MIN_CLUSTER_SIZE pixels\n"
        manifest = certified_files(out)
        assert manifest["exit_status"] == pipeline.EXIT_ERROR
        assert manifest["failure"]["cable"] is None
        assert manifest["failure"]["error"] == "EmptyInputError"
        assert manifest["cables"] == []

    def test_successful_run_has_no_failure_record(self, tmp_path, scenario_files):
        result = pipeline.run_pipeline(scenario_files["cs1_plain"], tmp_path / "out")
        manifest = certified_files(result.out_dir)
        assert "failure" not in manifest and manifest["exit_status"] == pipeline.EXIT_COMPLETE


class TestEval:
    def test_self_evaluation_is_tight(self, template_runs, tmp_path):
        run_dir = template_runs["cs1_plain"].out_dir
        report = pipeline.evaluate_run(run_dir, run_dir, tmp_path / "r.yaml")
        # source is the interpolated model, target the dense visual cloud,
        # so the self-comparison is small but not exactly zero
        assert report["cables"][0]["icp_rmse"] < 1.5e-3

    def test_report_scores_the_truth_side(self, template_runs, scenario_files, tmp_path):
        report = pipeline.evaluate_run(
            template_runs["cs2_occluded"].out_dir, scenario_files["cs2_plain"], tmp_path / "r.yaml"
        )
        assert yamlio.load_yaml(tmp_path / "r.yaml") == report
        for row in report["cables"]:
            assert 0.9 < row["coverage"] <= 1.0
            assert 0.0 < row["gap_max_mm"] < 20.0
            assert len(row["end_error_mm"]) == 2 and min(row["end_error_mm"]) >= 0.0

    def test_cli_eval_against_reference_run(self, template_runs, tmp_path, capsys):
        code = cli.main(
            [
                "eval",
                str(template_runs["cs1_occluded"].out_dir),
                str(template_runs["cs1_plain"].out_dir),
                "--out",
                str(tmp_path / "report.yaml"),
            ]
        )
        assert code == 0
        assert "icp_rmse" in capsys.readouterr().out
        assert (tmp_path / "report.yaml").exists()

    def test_eval_accepts_a_scenario_as_reference(self, template_runs, scenario_files, tmp_path):
        report = pipeline.evaluate_run(
            template_runs["cs2_occluded"].out_dir,
            scenario_files["cs2_plain"],
            tmp_path / "r.yaml",
        )
        assert len(report["cables"]) == 2
        for row in report["cables"]:
            assert row["icp_rmse"] < 0.008

    def test_eval_reads_only_the_certified_splines(self, template_runs, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(template_runs["cs1_plain"].out_dir, run)
        before = pipeline.evaluate_run(run, run, tmp_path / "before.yaml")
        # a stray spline 5 cm off the cable, which the manifest does not certify
        curve = fitting.load_spline(run / "cable_00" / "spline_seg00.yaml")
        stray = curve.translated(np.array([0.0, 0.0, 0.05]))
        fitting.save_spline(run / "cable_00" / "spline_seg07.yaml", stray)
        assert pipeline.evaluate_run(run, run, tmp_path / "after.yaml") == before

    def test_missing_artifacts_error(self, tmp_path):
        with pytest.raises(OSError):
            pipeline.evaluate_run(tmp_path / "nope", tmp_path / "nope2")


# sha256 of the {path: sha256} map of the SVGs plot_run writes for cs1_occluded, seed 7
PLOT_SVGS_SHA256 = "22c9d367039144e32920d2ba4da83d3d2768982d67ba48e70ba31604bdbfa781"


class TestPlot:
    def test_svg_bytes_match_the_pinned_digest(self, template_runs):
        run_dir = template_runs["cs1_occluded"].out_dir
        written = pipeline.plot_run(run_dir)
        digests = {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in written}
        assert len(digests) == 7
        digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
        assert digest == PLOT_SVGS_SHA256

    def test_seven_svgs_per_cable_with_endpoint_markers(self, template_runs):
        run_dir = template_runs["cs1_occluded"].out_dir
        written = pipeline.plot_run(run_dir)
        per_cable = [p for p in written if p.parent.name == "cable_00"]
        assert len(per_cable) == 7

        sorted_csv = (run_dir / "cable_00" / "P_sorted.csv").read_text().splitlines()
        segment_ids = {line.split(",")[0] for line in sorted_csv[1:] if line}
        endpoint_count = 2 * len(segment_ids)
        svg = (run_dir / "cable_00" / "P_sorted.svg").read_text()
        assert svg.count('stroke="red"') == endpoint_count

    def test_empty_tactile_plot_still_renders(self, no_tactile_run):
        written = pipeline.plot_run(no_tactile_run.out_dir)
        tactile_svg = next(p for p in written if p.name == "P_tactile.svg")
        text = tactile_svg.read_text()
        assert "<svg" in text and "<line" in text
