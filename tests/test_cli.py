import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rayvis
from rayvis import optim, render
from rayvis.cli import main
from rayvis.imgio import read_ppm, write_ppm
from rayvis.render import usable_cpus
from rayvis.scenefile import dump_scene
from rayvis.scenes import two_spheres


@pytest.fixture(scope="module")
def small_scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    scene = two_spheres(n_cameras=6, width=24, height=24)
    path.write_text(dump_scene(scene), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def synth_dir(small_scene_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", str(small_scene_file), str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def maps_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("maps")
    assert main(["init", str(synth_dir), str(out), "--sigma-init", "0.01"]) == 0
    return out


def tree_bytes(root, skip=("manifest.json",)):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


class TestSynth:
    def test_outputs_per_view(self, synth_dir):
        assert len(list((synth_dir / "images").glob("view_*.ppm"))) == 6
        assert len(list((synth_dir / "depth").glob("view_*.nrdf"))) == 6
        assert (synth_dir / "cameras.json").exists()
        assert (synth_dir / "manifest.json").exists()

    def test_bundled_scene_produces_sixteen_views(self, tmp_path):
        bundled = Path(__file__).parent.parent / "scenes" / "two_spheres.json"
        out = tmp_path / "bundled"
        assert main(["synth", str(bundled), str(out)]) == 0
        assert len(list((out / "images").glob("view_*.ppm"))) == 16
        assert len(list((out / "depth").glob("view_*.nrdf"))) == 16

    def test_rerun_byte_identical(self, small_scene_file, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", str(small_scene_file), str(again)]) == 0
        assert tree_bytes(synth_dir) == tree_bytes(again)

    def test_malformed_scene_exits_2_with_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"background": [0,0,0], "near": 1, "far": 2, '
                       '"cameras": [], "primitives": [], "wobble": 3}')
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert "wobble" in capsys.readouterr().err

    def test_manifest_replayable(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert "config" in manifest and "outputs" in manifest


class TestInit:
    def test_maps_written_and_loadable(self, maps_dir):
        from rayvis.raydist import DistributionMap

        files = sorted(maps_dir.glob("view_*.nray"))
        assert len(files) == 6
        for path in files:
            dmap = DistributionMap.load(path)
            assert dmap.n_components == 2
            assert dmap.height == 24 and dmap.width == 24

    def test_decoded_means_match_depths(self, synth_dir, maps_dir):
        from rayvis.imgio import read_depth_map
        from rayvis.raydist import DistributionMap, decode_arrays

        depth = read_depth_map(synth_dir / "depth" / "view_0002.nrdf")
        dmap = DistributionMap.load(maps_dir / "view_0002.nray")
        mu, _, _ = decode_arrays(dmap.params, depth.near, depth.far)
        # maps are stored as f32, so allow that rounding on top of 1e-6 span
        assert np.max(np.abs(mu[..., 0] - depth.values)) < 1e-4 * (depth.far - depth.near)

    def test_noisy_init_reproducible(self, synth_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--noise", "0.02", "--seed", "7"]
        assert main(["init", str(synth_dir), str(a), *args]) == 0
        assert main(["init", str(synth_dir), str(b), *args]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_single_component_valid(self, synth_dir, tmp_path):
        out = tmp_path / "nl1"
        assert main(["init", str(synth_dir), str(out), "--components", "1"]) == 0
        from rayvis.raydist import DistributionMap

        assert DistributionMap.load(out / "view_0000.nray").n_components == 1

    def test_missing_depth_dir(self, tmp_path):
        assert main(["init", str(tmp_path), str(tmp_path / "out")]) == 2


class TestRender:
    def test_render_with_psnr(self, synth_dir, maps_dir, tmp_path, capsys):
        out = tmp_path / "render" / "view_0000.ppm"
        code = main([
            "render", "--data", str(synth_dir), "--maps", str(maps_dir),
            "--view", "0", "--out", str(out),
            "--gt", str(synth_dir / "images" / "view_0000.ppm"),
            "--k-coarse", "48", "--nw", "4",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "psnr" in captured
        assert float(captured.split("psnr")[1].split()[0]) > 18.0
        assert out.exists()
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["config"]["threads"] == usable_cpus()

    def test_modes_and_flags(self, synth_dir, maps_dir, tmp_path):
        out = tmp_path / "c2f.ppm"
        code = main([
            "render", "--data", str(synth_dir), "--maps", str(maps_dir),
            "--view", "1", "--out", str(out), "--mode", "c2f",
            "--k-coarse", "24", "--k-fine", "6", "--nw", "3", "--sh-degree", "1",
        ])
        assert code == 0
        image = read_ppm(out)
        assert image.shape == (24, 24, 3)

    def test_rerun_byte_identical(self, synth_dir, maps_dir, tmp_path):
        outs = []
        for name in ("one.ppm", "two.ppm"):
            out = tmp_path / name
            assert main([
                "render", "--data", str(synth_dir), "--maps", str(maps_dir),
                "--view", "2", "--out", str(out), "--k-coarse", "32", "--nw", "4",
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_match_serial(self, synth_dir, maps_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(render, "_MIN_STREAM_SAMPLES", 1)    # split these small chunks
        images = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}.ppm"
            assert main([
                "render", "--data", str(synth_dir), "--maps", str(maps_dir),
                "--view", "0", "--out", str(out), "--k-coarse", "32",
                "--nw", "4", "--threads", threads,
            ]) == 0
            images.append(out.read_bytes())
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            assert manifest["config"]["threads"] == int(threads)
        assert images[0] == images[1]

    def test_unknown_flag_usage_error(self, synth_dir, maps_dir, tmp_path):
        code = main([
            "render", "--data", str(synth_dir), "--maps", str(maps_dir),
            "--view", "0", "--out", str(tmp_path / "x.ppm"), "--frobnicate",
        ])
        assert code == 1

    def test_bad_view_exits_2(self, synth_dir, maps_dir, tmp_path):
        code = main([
            "render", "--data", str(synth_dir), "--maps", str(maps_dir),
            "--view", "99", "--out", str(tmp_path / "x.ppm"),
        ])
        assert code == 2


class TestOptimize:
    def test_zero_steps_identity(self, synth_dir, maps_dir, tmp_path):
        out = tmp_path / "opt0"
        code = main([
            "optimize", "--data", str(synth_dir), "--init", str(maps_dir),
            "--out", str(out), "--steps", "0", "--nw", "3", "--k", "16",
            "--eval-interval", "0",
        ])
        assert code == 0
        for path in sorted(maps_dir.glob("view_*.nray")):
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_deterministic_and_resumable(self, synth_dir, maps_dir, tmp_path):
        common = [
            "--data", str(synth_dir), "--init", str(maps_dir),
            "--batch", "32", "--k", "16", "--nw", "3", "--seed", "9",
            "--sh-degree", "1", "--eval-views", "0", "--eval-interval", "4",
        ]
        full = tmp_path / "full"
        assert main(["optimize", *common, "--out", str(full), "--steps", "8"]) == 0
        rerun = tmp_path / "rerun"
        assert main(["optimize", *common, "--out", str(rerun), "--steps", "8"]) == 0
        assert tree_bytes(full, skip=("manifest.json", "state.npz")) == tree_bytes(
            rerun, skip=("manifest.json", "state.npz")
        )
        # interrupt at step 4, then resume to 8
        resumed = tmp_path / "resumed"
        assert main(["optimize", *common, "--out", str(resumed), "--steps", "4"]) == 0
        assert main(["optimize", *common, "--out", str(resumed), "--steps", "8",
                     "--resume"]) == 0
        for path in sorted(full.glob("view_*.nray")):
            assert (resumed / path.name).read_bytes() == path.read_bytes()

    def test_metrics_csv_schema(self, synth_dir, maps_dir, tmp_path):
        out = tmp_path / "metrics_run"
        assert main([
            "optimize", "--data", str(synth_dir), "--init", str(maps_dir),
            "--out", str(out), "--steps", "4", "--batch", "16", "--k", "12",
            "--nw", "3", "--sh-degree", "1", "--eval-views", "0",
            "--eval-interval", "2",
        ]) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "step,render_loss,consist_loss,depth_loss,psnr"
        assert len(lines) == 3
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 5
            int(parts[0])
            [float(p) for p in parts[1:]]

    def test_corrupt_checkpoint_refused(self, synth_dir, maps_dir, tmp_path):
        out = tmp_path / "corrupt"
        out.mkdir()
        (out / "state.npz").write_bytes(b"not a checkpoint")
        code = main([
            "optimize", "--data", str(synth_dir), "--init", str(maps_dir),
            "--out", str(out), "--steps", "2", "--nw", "3", "--resume",
        ])
        assert code == 2


class TestNumericalFailure:
    def test_non_finite_loss_exits_3_and_keeps_checkpoint(self, synth_dir, maps_dir,
                                                          tmp_path, capsys, monkeypatch):
        out = tmp_path / "diverge"
        common = ["optimize", "--data", str(synth_dir), "--init", str(maps_dir),
                  "--out", str(out), "--batch", "16", "--k", "8", "--nw", "3",
                  "--sh-degree", "1", "--eval-interval", "0", "--checkpoint-interval", "1"]
        assert main([*common, "--steps", "2"]) == 0
        before = (out / "state.npz").read_bytes()
        monkeypatch.setattr(optim, "render_loss",
                            lambda rendered, gt: (float("nan"), np.zeros_like(rendered)))
        capsys.readouterr()
        assert main([*common, "--steps", "4", "--resume"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "non-finite loss" in err
        assert (out / "state.npz").read_bytes() == before


def _truncate_image(data_dir):
    path = data_dir / "images" / "view_0001.ppm"
    path.write_bytes(path.read_bytes()[:100])


def _nan_depth(data_dir):
    path = data_dir / "depth" / "view_0002.nrdf"
    blob = bytearray(path.read_bytes())
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))


def _run_cli(*args):
    src = str(Path(rayvis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rayvis.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _edit_camera(data_dir, edit):
    path = data_dir / "cameras.json"
    meta = json.loads(path.read_text())
    edit(meta["cameras"][1])
    path.write_text(json.dumps(meta))


class TestInputFaults:
    """Corrupt input files exit 2 with a message, never with a traceback."""

    @pytest.mark.parametrize("fault, names", [
        (_truncate_image, ["view_0001.ppm"]),
        (lambda d: _edit_camera(d, lambda cam: cam.pop("fx")), ["cameras.json", "'fx'"]),
        (lambda d: _edit_camera(d, lambda cam: cam.update(rotation=[1.0, 0.0, 0.0])),
         ["cameras.json", "'rotation'"]),
    ], ids=["truncated_ppm", "camera_missing_key", "camera_wrong_shape"])
    def test_render_exits_2_without_traceback(self, fault, names, synth_dir, maps_dir,
                                              tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        fault(data)
        proc = _run_cli("render", "--data", str(data), "--maps", str(maps_dir),
                        "--view", "0", "--out", str(tmp_path / "x.ppm"),
                        "--k-coarse", "8", "--nw", "3")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert all(name in proc.stderr for name in names)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_render_bad_threads_exits_2_without_traceback(self, threads, synth_dir, maps_dir,
                                                          tmp_path):
        out = tmp_path / "x.ppm"
        proc = _run_cli("render", "--data", str(synth_dir), "--maps", str(maps_dir),
                        "--view", "0", "--out", str(out), "--k-coarse", "8", "--nw", "3",
                        "--threads", threads)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and "threads" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--batch", "-5", "batch_size"), ("--batch", "0", "batch_size"),
        ("--lr", "-1", "learning_rate")])
    def test_optimize_bad_setting_exits_2_without_traceback(self, flag, value, field,
                                                            synth_dir, maps_dir, tmp_path):
        out = tmp_path / "opt"
        proc = _run_cli("optimize", "--data", str(synth_dir), "--init", str(maps_dir),
                        "--out", str(out), "--steps", "1", "--eval-interval", "0",
                        "--nw", "3", "--k", "8", flag, value)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and field in proc.stderr
        assert not out.exists()

    def test_init_nan_depth_exits_2_without_traceback(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        _nan_depth(data)
        proc = _run_cli("init", str(data), str(tmp_path / "maps"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "view_0002.nrdf" in proc.stderr and "non-finite" in proc.stderr


class TestEval:
    def test_identical_dirs_capped(self, synth_dir, tmp_path, capsys):
        code = main(["eval", str(synth_dir / "images"), str(synth_dir / "images")])
        assert code == 0
        out = capsys.readouterr().out
        assert "99.0000" in out and "mean" in out

    def test_known_mse_pair(self, tmp_path, capsys):
        # byte value 51 is exact in PPM: MSE (51/255)^2 = 0.04 -> 13.9794 dB
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        write_ppm(a_dir / "view_0000.ppm", np.zeros((8, 8, 3)))
        write_ppm(b_dir / "view_0000.ppm", np.full((8, 8, 3), 51 / 255))
        assert main(["eval", str(a_dir), str(b_dir)]) == 0
        assert "13.9794" in capsys.readouterr().out

    def test_csv_output(self, synth_dir, tmp_path):
        csv = tmp_path / "psnr.csv"
        assert main(["eval", str(synth_dir / "images"), str(synth_dir / "images"),
                     "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "view,psnr_db"
        assert lines[-1].startswith("mean,")

    def test_missing_counterpart_lists_names(self, synth_dir, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        for path in list((synth_dir / "images").glob("*.ppm"))[:2]:
            (partial / path.name).write_bytes(path.read_bytes())
        code = main(["eval", str(synth_dir / "images"), str(partial)])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing" in err


class TestBench:
    def test_report_counters_reproducible(self, synth_dir, maps_dir, capsys):
        args = [
            "bench", "--data", str(synth_dir), "--maps", str(maps_dir),
            "--view", "0", "--k-uniform", "48", "--k-coarse", "16",
            "--k-fine", "4", "--nw", "4", "--kr", "32",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        def counts(text):
            return [
                tok for line in text.splitlines() for tok in line.split()
                if "=" in tok and not tok.startswith("wall_clock")
                and not tok.startswith("speedup")
            ]

        assert counts(first) == counts(second)
        assert first.count(f": threads={usable_cpus()} ") == 2
        assert "density_oracle_evals_per_query=32" in first
        assert "cdf_evals_per_query=1" in first
