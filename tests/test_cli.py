import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rayvis
from rayvis import cli, optim
from rayvis.cli import build_parser, main
from rayvis.imgio import encode_ppm, read_float_image, read_ppm, write_depth_map, write_ppm
from rayvis.raydist import DistributionMap
from rayvis.render import usable_cpus
from rayvis.scene import DepthMap
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

    def test_encoded_with_the_cameras_range(self, synth_dir, maps_dir):
        """``init`` encodes with the cameras file's (near, far), the range every
        reader decodes with, not the depth header's f32-rounded copy of it.
        Decoded with that range, the first means of the hit pixels then miss
        the depths only by the maps' f32 storage: half an f32 ulp of each raw
        mean times d mu / d raw. The header's range would add its rounding,
        up to 1e-7 here, even where a raw mean is stored exactly."""
        from rayvis.imgio import read_depth_map
        from rayvis.raydist import decode_arrays, sigmoid

        meta = json.loads((synth_dir / "cameras.json").read_text())
        near, far = meta["near"], meta["far"]
        for view in range(6):
            depth = read_depth_map(synth_dir / "depth" / f"view_{view:04d}.nrdf")
            assert (depth.near, depth.far) != (near, far)    # the header is f32
            params = DistributionMap.load(maps_dir / f"view_{view:04d}.nray").params
            raw = params[..., 0, 0]
            mu = decode_arrays(params, near, far)[0][..., 0]
            hit = depth.values < depth.far
            slope = (far - near) * sigmoid(raw) * (1.0 - sigmoid(raw))
            storage = slope * np.spacing(np.abs(raw).astype(np.float32)) / 2
            assert hit.sum() > 50
            assert np.all(np.abs(mu - depth.values)[hit] <= storage[hit] + 1e-12)

    def test_noisy_init_reproducible(self, synth_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--noise", "0.02", "--seed", "7"]
        assert main(["init", str(synth_dir), str(a), *args]) == 0
        assert main(["init", str(synth_dir), str(b), *args]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_neighbouring_seeds_uncorrelated(self, synth_dir, tmp_path):
        """View i draws its noise from (seed, i), so the noise of ``--seed 7``
        on view 1 is not the noise of ``--seed 8`` on view 0, as it was when
        view i was seeded with seed + i."""
        from rayvis.imgio import read_depth_map
        from rayvis.raydist import decode_arrays

        noise, hits = [], []
        for seed, view in ((7, 1), (8, 0)):
            out = tmp_path / str(seed)
            assert main(["init", str(synth_dir), str(out), "--noise", "0.02",
                         "--seed", str(seed)]) == 0
            depth = read_depth_map(synth_dir / "depth" / f"view_{view:04d}.nrdf")
            params = DistributionMap.load(out / f"view_{view:04d}.nray").params
            noise.append(decode_arrays(params, depth.near, depth.far)[0][..., 0] - depth.values)
            hits.append(depth.values < depth.far)
        both = hits[0] & hits[1]
        assert both.sum() > 50
        assert abs(np.corrcoef(noise[0][both], noise[1][both])[0, 1]) < 0.5

    def test_negative_seed_refused_before_any_map(self, synth_dir, tmp_path, capsys):
        """``--seed -1`` exits 2 even when the first view is not view 0."""
        data, out = tmp_path / "data", tmp_path / "maps"
        shutil.copytree(synth_dir, data)
        (data / "depth" / "view_0000.nrdf").unlink()
        assert main(["init", str(data), str(out), "--noise", "0.02", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not list(out.rglob("*.nray"))

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

    def test_float_out_holds_the_rendered_image(self, synth_dir, maps_dir, tmp_path,
                                                monkeypatch):
        """``--float-out`` writes the rendered image as NRIF, to f32 precision;
        the PPM holds the same image in 8 bits."""
        rendered = []

        def keep(*args, render_image=cli.render_image):
            rendered.append(render_image(*args))
            return rendered[-1]

        monkeypatch.setattr(cli, "render_image", keep)
        out, nrif = tmp_path / "x.ppm", tmp_path / "x.nrif"
        assert main(["render", "--data", str(synth_dir), "--maps", str(maps_dir), "--view", "0",
                     "--out", str(out), "--float-out", str(nrif), "--k-coarse", "16",
                     "--nw", "3"]) == 0
        assert np.array_equal(read_float_image(nrif), rendered[0].astype(np.float32))
        assert out.read_bytes() == encode_ppm(rendered[0])
        assert str(nrif) in json.loads((tmp_path / "manifest.json").read_text())["outputs"]

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

    def test_threads_match_serial(self, synth_dir, maps_dir, tmp_path):
        """Five chunks of at most 128 rays, on 1 and on 4 streams."""
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
        assert main(["optimize", *common, "--out", str(rerun), "--steps", "8",
                     "--threads", "2"]) == 0
        assert json.loads((full / "manifest.json").read_text())["config"]["threads"] == (
            usable_cpus())
        assert json.loads((rerun / "manifest.json").read_text())["config"]["threads"] == 2
        assert tree_bytes(full, skip=("manifest.json", "state.npz")) == tree_bytes(
            rerun, skip=("manifest.json", "state.npz")
        )
        # interrupt at step 4, then resume to 8
        resumed = tmp_path / "resumed"
        assert main(["optimize", *common, "--out", str(resumed), "--steps", "4"]) == 0
        assert main(["optimize", *common, "--out", str(resumed), "--steps", "8",
                     "--resume"]) == 0
        # the resumed directory is the uninterrupted one, metrics rows included
        assert tree_bytes(full, skip=("manifest.json",)) == tree_bytes(
            resumed, skip=("manifest.json",))
        assert len((resumed / "metrics.csv").read_text().splitlines()) == 3

    def test_resume_at_the_target_runs_nothing(self, synth_dir, maps_dir, tmp_path, capsys):
        """``--resume --steps 1`` from a step-2 checkpoint runs no step and
        says so, and ``state.npz`` stays at step 2."""
        out = tmp_path / "run"
        common = ["optimize", "--data", str(synth_dir), "--init", str(maps_dir),
                  "--out", str(out), "--batch", "16", "--k", "8", "--nw", "3",
                  "--sh-degree", "1", "--eval-interval", "0"]
        capsys.readouterr()
        assert main([*common, "--steps", "2"]) == 0
        assert "for 2 steps, to step 2 ->" in capsys.readouterr().out
        assert main([*common, "--steps", "1", "--resume"]) == 0
        assert "for 0 steps, to step 2 ->" in capsys.readouterr().out
        with np.load(out / "state.npz") as blob:
            assert int(blob["step"]) == 2

    def test_resume_refuses_other_settings(self, synth_dir, maps_dir, tmp_path, capsys):
        """A checkpoint resumes only under the settings that wrote it, the
        step count and the thread count aside: another batch, ``--k`` and
        seed exit 2 naming the first field that differs and write nothing,
        while another thread count resumes to the bytes of a straight run."""
        common = ["optimize", "--data", str(synth_dir), "--init", str(maps_dir),
                  "--nw", "3", "--sh-degree", "1", "--eval-interval", "0"]
        first = ["--batch", "64", "--k", "16", "--seed", "0"]
        out = tmp_path / "run"
        assert main([*common, *first, "--out", str(out), "--steps", "2", "--threads", "1"]) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        assert main([*common, "--out", str(out), "--steps", "4", "--batch", "128", "--k", "24",
                     "--seed", "5", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "batch_size=64" in err and "batch_size=128" in err
        assert tree_bytes(out) == before
        assert main([*common, *first, "--out", str(out), "--steps", "3", "--threads", "2",
                     "--resume"]) == 0
        straight = tmp_path / "straight"
        assert main([*common, *first, "--out", str(straight), "--steps", "3"]) == 0
        assert tree_bytes(out) == tree_bytes(straight)

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


def _run_python(*args):
    src = str(Path(rayvis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _run_cli(*args):
    return _run_python("-m", "rayvis.cli", *args)


def test_cli_import_loads_no_scipy():
    """NumPy is the only runtime dependency: SciPy serves the tests alone."""
    proc = _run_python("-c", "import sys, rayvis.cli; "
                       "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    assert proc.returncode == 0, proc.stderr


def _keep(stop):
    """Fault: keep only ``blob[:stop]`` of the file."""
    return lambda path: path.write_bytes(path.read_bytes()[:stop])


def _halve(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _bad_magic(path):
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


def _nan_at(offset):
    """Fault: overwrite the f32 at byte ``offset`` with NaN."""
    def fault(path):
        blob = bytearray(path.read_bytes())
        pos = offset % len(blob)  # a negative offset counts from the end
        blob[pos:pos + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
    return fault


def _edit_json(edit):
    def fault(path):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
    return fault


def _edit_state(edit):
    def fault(path):
        with np.load(path) as blob:
            arrays = dict(blob)
        edit(arrays)
        with open(path, "wb") as f:
            np.savez(f, **arrays)
    return fault


def _zero_component_map(path):
    """An NRAY header for a 24x24 map with no mixture components, and no payload."""
    path.write_bytes(b"NRAY" + np.array([1, 1, 24, 24, 0], dtype="<u4").tobytes())


_COMMANDS = {
    "render": lambda d: ["render", "--data", d / "data", "--maps", d / "maps", "--view", "0",
                         "--out", d / "x.ppm", "--k-coarse", "8", "--nw", "3"],
    "init": lambda d: ["init", d / "data", d / "new_maps"],
    "optimize": lambda d, out="run": ["optimize", "--data", d / "data", "--init", d / "maps",
                                      "--out", d / out, "--steps", "2", "--batch", "16",
                                      "--k", "8", "--nw", "3", "--sh-degree", "1",
                                      "--eval-interval", "0"],
    "resume": lambda d: [*_COMMANDS["optimize"](d, "opt"), "--resume"],
    "synth": lambda d: ["synth", d / "scene.json", d / "synth"],
}
# what a command of ``_COMMANDS`` writes, and so must not create when it refuses
_OUTPUTS = {"init": "new_maps", "render": "x.ppm", "optimize": "run", "synth": "synth"}

_PPM, _NRDF = "data/images/view_0001.ppm", "data/depth/view_0002.nrdf"
_NRAY, _CAMS = "maps/view_0001.nray", "data/cameras.json"
_STATE, _SCENE = "opt/state.npz", "scene.json"

# (file, fault, command reading the file, words the message must hold)
_FAULTS = {
    "ppm-truncated": (_PPM, _keep(100), "render", []),
    "ppm-bad_magic": (_PPM, lambda p: p.write_bytes(b"P5" + p.read_bytes()[2:]), "render", []),
    "ppm-wrong_size": (_PPM, lambda p: p.write_bytes(p.read_bytes() + b"\0"), "render", []),
    "ppm-wrong_shape": (_PPM, lambda p: write_ppm(p, np.zeros((12, 12, 3))), "render", []),
    "nrdf-truncated": (_NRDF, _keep(10), "init", []),
    "nrdf-bad_magic": (_NRDF, _bad_magic, "init", []),
    "nrdf-wrong_size": (_NRDF, _keep(-4), "init", []),
    "nrdf-nan": (_NRDF, _nan_at(-4), "init", ["non-finite"]),
    "nrdf-nan_header": (_NRDF, _nan_at(12), "init", ["non-finite"]),
    "nrdf-wrong_shape": (_NRDF, lambda p: write_depth_map(
        p, DepthMap(np.full((12, 12), 2.0), 1.0, 5.0, 4.0)), "optimize", []),
    "nrdf-missing": (_NRDF, lambda p: p.unlink(), "optimize", []),
    "nray-truncated": (_NRAY, _keep(10), "render", []),
    "nray-bad_magic": (_NRAY, _bad_magic, "render", []),
    "nray-wrong_size": (_NRAY, _keep(-4), "render", []),
    "nray-nan": (_NRAY, _nan_at(-4), "render", ["non-finite"]),
    "nray-wrong_shape": (_NRAY, lambda p: DistributionMap(1, np.zeros((12, 12, 3, 2))).save(p),
                         "render", []),
    "nray-zero_components": (_NRAY, _zero_component_map, "render", []),
    "nray-other_view": (
        _NRAY, lambda p: DistributionMap(2, DistributionMap.load(p).params).save(p), "render",
        ["view 2"]),
    "cameras.json-truncated": (_CAMS, _halve, "render", []),
    "cameras.json-missing_key": (
        _CAMS, _edit_json(lambda m: m["cameras"][1].pop("fx")), "render", ["'fx'"]),
    "cameras.json-nan": (
        _CAMS, _edit_json(lambda m: m["cameras"][1].update(fx=np.nan)), "render", ["'fx'"]),
    "cameras.json-wrong_shape": (
        _CAMS, _edit_json(lambda m: m["cameras"][1].update(rotation=[1.0, 0.0, 0.0])),
        "render", ["'rotation'"]),
    "cameras.json-fractional_width": (
        _CAMS, _edit_json(lambda m: m["cameras"][1].update(width=24.9)), "render", ["width"]),
    "cameras.json-fractional_index": (
        _CAMS, _edit_json(lambda m: m["cameras"][1].update(index=1.5)), "render", ["'index'"]),
    "cameras.json-duplicate_index": (
        _CAMS, _edit_json(lambda m: m["cameras"][2].update(index=m["cameras"][1]["index"])),
        "render", ["cameras[2]", "'index'"]),
    "cameras.json-swapped_range": (
        _CAMS, _edit_json(lambda m: m.update(near=m["far"], far=m["near"])), "render",
        ["far must be finite", "not 1.2"]),
    "cameras.json-swapped_range_optimize": (
        _CAMS, _edit_json(lambda m: m.update(near=m["far"], far=m["near"])), "optimize",
        ["far must be finite", "not 1.2"]),
    "cameras.json-negative_near": (
        _CAMS, _edit_json(lambda m: m.update(near=-3.0)), "optimize", ["near", "not -3.0"]),
    "cameras.json-background": (
        _CAMS, _edit_json(lambda m: m.update(background=[5, -1, 0.5])), "render",
        ["background must be an RGB triple", "not [5, -1, 0.5]"]),
    "state.npz-truncated": (_STATE, _halve, "resume", []),
    "state.npz-bad_magic": (_STATE, _bad_magic, "resume", []),
    "state.npz-nan": (_STATE, _edit_state(lambda a: a["params_1"].fill(np.nan)), "resume",
                      ["non-finite"]),
    "state.npz-negative_step": (
        _STATE, _edit_state(lambda a: a.update(step=np.array(-1))), "resume", ["step"]),
    "state.npz-fractional_step": (
        _STATE, _edit_state(lambda a: a.update(step=np.array(0.5))), "resume", ["step"]),
    "state.npz-metrics_after_step": (
        _STATE, _edit_state(lambda a: a.update(metrics=np.array([[2.0, 1.0, 1.0, 1.0, 20.0]]))),
        "resume", ["metrics"]),
    "state.npz-no_settings": (
        _STATE, _edit_state(lambda a: a.pop("settings")), "resume", ["settings"]),
    "state.npz-removed_setting": (    # a checkpoint of a version with consist_variant
        _STATE, _edit_state(lambda a: a.update(settings=np.array(json.dumps(
            {**json.loads(str(a["settings"])), "consist_variant": "binary"})))),
        "resume", ["consist_variant='binary'"]),
    "state.npz-wrong_shape": (
        _STATE, _edit_state(lambda a: a.update(params_1=np.zeros((2, 2, 3, 2)))), "resume",
        ["params_1"]),
    "scene.json-truncated": (_SCENE, _halve, "synth", []),
    "scene.json-nan": (_SCENE, _edit_json(lambda s: s["cameras"][0].update(fx=np.nan)),
                       "synth", ["'fx'"]),
    "scene.json-nan_center": (
        _SCENE, _edit_json(lambda s: s["primitives"][0].update(center=[0.0, np.nan, 0.0])),
        "synth", ["'center'"]),
    "scene.json-nan_albedo": (
        _SCENE, _edit_json(lambda s: s["primitives"][0]["material"].update(
            albedo=[np.nan, 0.5, 0.5])), "synth", ["albedo"]),
    "scene.json-wrong_shape": (
        _SCENE, _edit_json(lambda s: s["cameras"][0].update(translation=[0.0, 1.0])),
        "synth", ["'translation'"]),
    "scene.json-fractional_width": (
        _SCENE, _edit_json(lambda s: s["cameras"][0].update(width=24.9)), "synth", ["width"]),
    "scene.json-huge_width": (     # refused before its 10**14 pixels are allocated
        _SCENE, _edit_json(lambda s: s["cameras"][0].update(width=10**7, height=10**7)),
        "synth", ["width", "8192"]),
    "scene.json-swapped_range": (
        _SCENE, _edit_json(lambda s: s.update(near=s["far"], far=s["near"])), "synth",
        ["far must be finite", "not 1.2"]),
    "scene.json-list_shape": (
        _SCENE, _edit_json(lambda s: s["primitives"][0].update(shape=["sphere"])),
        "synth", ["'shape'"]),
    "scene.json-string_cell": (
        _SCENE, _edit_json(lambda s: s["primitives"][0]["material"].update(checker_cell="big")),
        "synth", ["'checker_cell'"]),
}


# each command with small settings, writing under ``out``
_SETTING_COMMANDS = {
    "init": lambda data, maps, out: ["init", data, out, "--noise", "0.02"],
    "render": lambda data, maps, out: ["render", "--data", data, "--maps", maps, "--view", "0",
                                       "--out", out / "x.ppm", "--k-coarse", "8", "--nw", "3"],
    "optimize": lambda data, maps, out: ["optimize", "--data", data, "--init", maps,
                                         "--out", out, "--steps", "1", "--eval-interval", "0",
                                         "--nw", "3", "--k", "8"],
    "bench": lambda data, maps, out: ["bench", "--data", data, "--maps", maps, "--view", "0",
                                      "--k-uniform", "8", "--k-coarse", "4", "--k-fine", "2",
                                      "--nw", "3", "--out", out / "report.txt"],
}

# (command, option, bad value, words the message must hold, exit code) for
# the settings that test_optimize_bad_setting_exits_2_without_traceback does
# not cover; a value the option's type or choices refuse is a usage error
_BAD_SETTINGS = [
    ("init", "--seed", "-1", ["seed"], 2),
    ("init", "--noise", "-1", ["noise"], 2),
    ("init", "--noise", "nan", ["noise"], 2),
    ("init", "--noise", "inf", ["noise"], 2),
    ("init", "--sigma-init", "nan", ["sigma_init"], 2),
    ("init", "--sigma-init", "inf", ["sigma_init"], 2),
    ("init", "--components", "-1", ["n_components"], 2),
    ("init", "--components", "0", ["n_components"], 2),
    ("init", "--components", "17", ["n_components"], 2),
    ("optimize", "--checkpoint-interval", "-1", ["checkpoint_interval"], 2),
    ("optimize", "--eval-views", "nan", ["--eval-views"], 1),
    ("optimize", "--eval-views", "1.5", ["--eval-views"], 1),
    ("optimize", "--eval-views", "a", ["--eval-views"], 1),
    ("optimize", "--sampling-mode", "fast", ["--sampling-mode"], 1),
    ("optimize", "--consist-flow", "both", ["--consist-flow"], 1),
    ("render", "--mode", "fast", ["--mode"], 1),
    ("render", "--k-fine", "-1", ["k_fine"], 2),
    ("render", "--k-coarse", "8193", ["k_coarse"], 2),
    ("render", "--k-fine", "8193", ["k_fine"], 2),
    ("render", "--sh-degree", "4", ["sh_degree"], 2),
    ("bench", "--kr", "-1", ["kr"], 2),
    ("bench", "--kr", "0", ["kr"], 2),
    ("bench", "--kr", "8193", ["kr"], 2),
    ("bench", "--k-coarse", "8193", ["k_coarse"], 2),
    ("bench", "--k-fine", "8189", ["k_coarse + k_fine"], 2),
    ("bench", "--nw", "0", ["n_working"], 2),
    ("bench", "--k-uniform", "1", ["k_coarse"], 2),
    ("bench", "--k-uniform", "8193", ["k_coarse"], 2),
    ("bench", "--threads", "1.5", ["--threads"], 1),
]


def _refused(capsys, argv, out, code, words):
    """``main(argv)`` exits ``code`` with a message holding ``words``, without a
    traceback and without creating ``out``."""
    capsys.readouterr()
    assert main([str(arg) for arg in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and all(word in err for word in words), err
    assert not out.exists()


@pytest.fixture(scope="module")
def checkpoint_dir(synth_dir, maps_dir, tmp_path_factory):
    """The output of a one-step optimization, with its state.npz."""
    out = tmp_path_factory.mktemp("checkpoint")
    assert main(["optimize", "--data", str(synth_dir), "--init", str(maps_dir), "--out", str(out),
                 "--steps", "1", "--batch", "16", "--k", "8", "--nw", "3", "--sh-degree", "1",
                 "--eval-interval", "0"]) == 0
    assert not list(out.glob("*.tmp"))
    return out


class TestInputFaults:
    """Corrupt input files exit 2 with a message, never with a traceback."""

    @pytest.mark.parametrize("case", list(_FAULTS))
    def test_fault_exits_2_naming_the_file(self, case, small_scene_file, synth_dir, maps_dir,
                                           checkpoint_dir, tmp_path):
        shutil.copytree(synth_dir, tmp_path / "data")
        shutil.copytree(maps_dir, tmp_path / "maps")
        shutil.copytree(checkpoint_dir, tmp_path / "opt")
        shutil.copy(small_scene_file, tmp_path / "scene.json")
        target, fault, command, words = _FAULTS[case]
        fault(tmp_path / target)
        proc = _run_cli(*map(str, _COMMANDS[command](tmp_path)))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert all(word in proc.stderr for word in [Path(target).name, *words]), proc.stderr
        assert command not in _OUTPUTS or not (tmp_path / _OUTPUTS[command]).exists()

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
        ("--lr", "-1", "learning_rate"), ("--k", "1", "k_samples"), ("--nw", "0", "n_working"),
        ("--sh-degree", "7", "sh_degree"), ("--k-fine", "-1", "k_fine"),
        ("--steps", "-3", "steps"), ("--threads", "0", "threads"), ("--seed", "-1", "seed"),
        ("--k", "8193", "k_samples"), ("--k-fine", "8193", "k_fine"),
        ("--lambda-render", "nan", "lambda_render"), ("--lambda-consist", "nan", "lambda_consist"),
        ("--lambda-depth", "nan", "lambda_depth"), ("--lambda-depth", "inf", "lambda_depth"),
        ("--eval-interval", "-1", "eval_interval")])
    def test_optimize_bad_setting_exits_2_without_traceback(self, flag, value, field,
                                                            synth_dir, maps_dir, tmp_path,
                                                            capsys):
        out = tmp_path / "out"
        _refused(capsys, [*_SETTING_COMMANDS["optimize"](synth_dir, maps_dir, out), flag, value],
                 out, 2, [field])
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, words, code", _BAD_SETTINGS,
                             ids=[f"{c}-{f}-{v}" for c, f, v, _, _ in _BAD_SETTINGS])
    def test_bad_setting_refused_without_traceback(self, command, flag, value, words, code,
                                                   synth_dir, maps_dir, tmp_path, capsys):
        out = tmp_path / "out"
        _refused(capsys, [*_SETTING_COMMANDS[command](synth_dir, maps_dir, out), flag, value],
                 out, code, words)

    @pytest.mark.parametrize("command, flags", [
        ("render", ["--bilinear-params"]), ("optimize", ["--consist-variant", "categorical"]),
        ("optimize", ["--consist-flow", "symmetric"])],
        ids=["render-bilinear-params", "optimize-consist-variant", "optimize-consist-flow"])
    def test_removed_option_is_a_usage_error(self, command, flags, synth_dir, maps_dir,
                                             tmp_path, capsys):
        """Options that selected a non-default lookup or consistency loss, both
        since removed, are unknown options."""
        out = tmp_path / "out"
        _refused(capsys, [*_SETTING_COMMANDS[command](synth_dir, maps_dir, out), *flags],
                 out, 1, ["unrecognized arguments: " + " ".join(flags)])


@pytest.mark.parametrize("command, owner, name", [
    ("init", optim, "init_from_depth"), ("render", cli, "render_image"),
    ("optimize", optim, "optimize_scene"), ("bench", cli, "render_image")])
def test_out_of_memory_exits_2_naming_the_command(command, owner, name, synth_dir, maps_dir,
                                                  tmp_path, capsys, monkeypatch):
    """A MemoryError that escapes a command, as NumPy raises for an array the
    host will not allocate, exits 2 with a message naming the command."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(owner, name, refuse)
    out = tmp_path / "out"
    _refused(capsys, _SETTING_COMMANDS[command](synth_dir, maps_dir, out), out, 2,
             [f"error: {command}: out of memory", "7.28 TiB"])


def _strict_json(text):
    """``text`` parsed as JSON that holds no NaN or infinity."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


# each command with small settings, writing its manifest into ``out``; and
# resolved config fields the manifest must record
_MANIFEST_RUNS = {
    "synth": (lambda scene, data, maps, out: ["synth", scene, out], {}),
    "init": (lambda scene, data, maps, out: ["init", data, out, "--noise", "0.01"],
             {"noise": 0.01, "seed": 0}),
    "render": (lambda scene, data, maps, out: [*_SETTING_COMMANDS["render"](data, maps, out),
                                               "--mode", "c2f", "--k-fine", "4"],
               {"mode": "coarse_to_fine", "n_working": 3, "sh_degree": 3}),
    "optimize": (lambda scene, data, maps, out: [*_SETTING_COMMANDS["optimize"](data, maps, out),
                                                 "--batch", "16", "--sh-degree", "1"],
                 {"batch_size": 16, "sampling_mode": "uniform", "seed": 0}),
    "eval": (lambda scene, data, maps, out: ["eval", data / "images", data / "images",
                                             "--csv", out / "psnr.csv"], {}),
    "bench": (lambda scene, data, maps, out: [*_SETTING_COMMANDS["bench"](data, maps, out),
                                              "--sh-degree", "1"],
              {"sh_degree": 1, "n_working": 3}),
}


@pytest.mark.parametrize("command", list(_MANIFEST_RUNS))
def test_manifest_records_every_option(command, small_scene_file, synth_dir, maps_dir,
                                       tmp_path):
    """Every option the command's parser defines is in the manifest, the
    resolved config fields among them, and the manifest is strict JSON."""
    out = tmp_path / "out"
    argv, resolved = _MANIFEST_RUNS[command]
    assert main([str(arg) for arg in argv(small_scene_file, synth_dir, maps_dir, out)]) == 0
    manifest = _strict_json((out / "manifest.json").read_text())
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in subcommands.choices[command]._actions} - {"help"}
    assert manifest["command"] == command
    assert dests <= set(manifest["config"]), dests - set(manifest["config"])
    assert {key: manifest["config"][key] for key in resolved} == resolved
    if "seed" in resolved:
        assert manifest["seed"] == resolved["seed"]


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
