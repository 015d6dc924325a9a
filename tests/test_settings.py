"""Every scalar setting the library takes has one check, ``errors.bounded``.

The sweep passes each setting a fraction (if it is a whole number), NaN,
±inf and one value past each bound. Each is refused with ``InputError`` (or
its subclass ``ConfigurationError``) naming the setting, before any array
is allocated and before any output directory exists. The values at and
inside the bounds are accepted, a whole number stored as ``int(value)``
and a real as a float.
"""

import json
import tracemalloc
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

import numpy as np
import pytest

from rayvis import cli
from rayvis.camera import MAX_SIZE, PinholeCamera, look_at_camera
from rayvis.errors import ConfigurationError, InputError, bounded
from rayvis.optim import (
    OptimState,
    SceneData,
    TrainConfig,
    init_from_depth,
    load_checkpoint,
    optimize_scene,
    save_checkpoint,
)
from rayvis.raydist import SIGMA_MIN_FRACTION, DistributionMap, RawRayParams, decode, grad_cdf
from rayvis.render import (
    MAX_SAMPLES,
    RenderConfig,
    RenderView,
    select_working_views,
)
from rayvis.scene import (
    DepthMap,
    Material,
    PlanePatch,
    Sphere,
    SyntheticScene,
    perturb_depth,
    render_ground_truth,
)
from rayvis.scenefile import camera_to_json
from rayvis.shcolor import SHBasis, SHRegularizer, WeightedColorSample

BIG = 2**64 + 1      # a whole number a float cannot hold
# 128 KB of depths: a refused call must not allocate a copy of them, let alone a map
DEPTH = DepthMap(np.full((128, 128), 3.0), 1.0, 5.0, 4.0)
CAMERA = dict(width=24, height=24, fx=10.0, fy=10.0, cx=12.0, cy=12.0)


@dataclass
class Setting:
    """How to pass a setting a value, the word its refusal names, its bounds
    (``above``: ``low`` itself is refused), values to accept, and how to read
    the stored value back from what the call returns (None: not stored)."""

    call: Callable
    word: str
    low: float
    high: float = np.inf
    whole: bool = False
    above: bool = False
    good: tuple = ()
    read: Optional[Callable] = None

    def bad(self):
        values = [np.nan, np.inf, -np.inf]
        if self.low > -np.inf:
            values.append(self.low if self.above else
                          self.low - 1 if self.whole else np.nextafter(self.low, -np.inf))
        if self.high < np.inf:
            values.append(self.high + 1 if self.whole else np.nextafter(self.high, np.inf))
        if self.whole:
            values.append(self.low + 0.5)
        return values


def _render(name, low, high=np.inf, good=()):
    return Setting(lambda v, ctx: RenderConfig(**{name: v}), name, low, high, whole=True,
                   good=good, read=attrgetter(name))


def _train_render(name, field, low, high=np.inf, good=()):
    """A render setting of ``TrainConfig``: checked and stored by its render config."""
    return Setting(lambda v, ctx: TrainConfig(**{name: v}), name, low, high, whole=True,
                   good=good, read=lambda config: getattr(config.render_config(), field))


def _train(name, low, whole=False, above=False, good=()):
    return Setting(lambda v, ctx: TrainConfig(**{name: v}), name, low, whole=whole,
                   above=above, good=good, read=attrgetter(name))


def _camera(name, low, high=np.inf, whole=False, above=False, good=()):
    return Setting(lambda v, ctx: PinholeCamera(**{**CAMERA, name: v}), name, low, high,
                   whole=whole, above=above, good=good, read=attrgetter(name))


def _material(name, low, high=np.inf, above=False, good=()):
    return Setting(lambda v, ctx: Material((0.5, 0.5, 0.5), (0.1, 0.1, 0.1), **{name: v}),
                   name, low, high, above=above, good=good, read=attrgetter(name))


SETTINGS = {
    "RenderConfig.k_coarse": _render("k_coarse", 2, MAX_SAMPLES, good=(2.0, MAX_SAMPLES)),
    "RenderConfig.k_fine": _render("k_fine", 0, MAX_SAMPLES, good=(0.0, MAX_SAMPLES)),
    "RenderConfig.n_working": _render("n_working", 1, good=(1.0, BIG)),
    "RenderConfig.threads": _render("threads", 1, good=(1.0, BIG)),
    "RenderConfig.sh_degree": _render("sh_degree", 0, 3, good=(0.0, 3)),
    "RenderConfig.background": Setting(
        lambda v, ctx: RenderConfig(background=(0.5, v, 0.5)), "background", 0, 1,
        good=(0, 0.42, 1), read=lambda config: config.background[1]),
    "TrainConfig.lambda_render": _train("lambda_render", 0, good=(0, 0.7)),
    "TrainConfig.lambda_consist": _train("lambda_consist", 0, good=(0, 0.25)),
    "TrainConfig.lambda_depth": _train("lambda_depth", 0, good=(0, 0.1)),
    "TrainConfig.learning_rate": _train("learning_rate", 0, above=True, good=(1e-300, 2e-3)),
    "TrainConfig.batch_size": _train("batch_size", 1, whole=True, good=(1.0, BIG)),
    "TrainConfig.steps": _train("steps", 0, whole=True, good=(0.0, BIG)),
    "TrainConfig.seed": _train("seed", 0, whole=True, good=(0.0, BIG)),
    "TrainConfig.eval_interval": _train("eval_interval", 0, whole=True, good=(0.0, BIG)),
    "TrainConfig.k_samples": _train_render("k_samples", "k_coarse", 2, MAX_SAMPLES,
                                           good=(2.0, MAX_SAMPLES)),
    "TrainConfig.k_fine": _train_render("k_fine", "k_fine", 0, MAX_SAMPLES, good=(0.0, 3)),
    "TrainConfig.n_working": _train_render("n_working", "n_working", 1, good=(1.0, BIG)),
    "TrainConfig.sh_degree": _train_render("sh_degree", "sh_degree", 0, 3, good=(0.0, 3)),
    "TrainConfig.threads": _train_render("threads", "threads", 1, good=(1.0, BIG)),
    "TrainConfig.background": Setting(
        lambda v, ctx: TrainConfig(background=(0.5, v, 0.5)), "background", 0, 1,
        good=(0, 0.42, 1), read=lambda config: config.render_config().background[1]),
    "init_from_depth.sigma_init": Setting(
        lambda v, ctx: init_from_depth(DEPTH, v, 2), "sigma_init", SIGMA_MIN_FRACTION,
        above=True, good=(0.005, 1)),
    "init_from_depth.n_components": Setting(
        lambda v, ctx: init_from_depth(DEPTH, 0.01, v), "n_components", 1, 16, whole=True,
        good=(1.0, 16), read=attrgetter("n_components")),
    "optimize_scene.checkpoint_interval": Setting(
        lambda v, ctx: ctx.optimize(v), "checkpoint_interval", 0, whole=True, good=(0.0, BIG)),
    "load_checkpoint.step": Setting(
        lambda v, ctx: ctx.resume(v), "step", 0, whole=True, good=(0, 7),
        read=attrgetter("step")),
    "PinholeCamera.width": _camera("width", 1, MAX_SIZE, whole=True, good=(1.0, MAX_SIZE)),
    "PinholeCamera.height": _camera("height", 1, MAX_SIZE, whole=True, good=(1.0, MAX_SIZE)),
    "PinholeCamera.fx": _camera("fx", 0, above=True, good=(1e-300, 10)),
    "PinholeCamera.fy": _camera("fy", 0, above=True, good=(1e-300, 10)),
    "PinholeCamera.cx": _camera("cx", -np.inf, good=(-5.0, 0, 12.5)),
    "PinholeCamera.cy": _camera("cy", -np.inf, good=(-5.0, 0, 12.5)),
    "SHBasis.degree": Setting(lambda v, ctx: SHBasis(v), "degree", 0, 3, whole=True,
                              good=(0.0, 3), read=attrgetter("degree")),
    "SHRegularizer.degree_penalties": Setting(
        lambda v, ctx: SHRegularizer((0.0, v)), "degree_penalties", 0, good=(0, 0.01),
        read=lambda reg: reg.degree_penalties[1]),
    "WeightedColorSample.weight": Setting(
        lambda v, ctx: WeightedColorSample((0, 0, 1), (0.5, 0.5, 0.5), v), "weight", 0,
        good=(0, 0.5), read=attrgetter("weight")),
    "Material.albedo": Setting(
        lambda v, ctx: Material((0.5, v, 0.5)), "albedo", 0, 1, good=(0, 0.42, 1),
        read=lambda material: material.albedo.tolist()[1]),
    "Material.checker_color": Setting(
        lambda v, ctx: Material((0.5, 0.5, 0.5), (0.5, v, 0.5)), "checker color", 0, 1,
        good=(0, 0.42, 1), read=lambda material: material.checker_color.tolist()[1]),
    "Material.checker_cell": _material("checker_cell", 0, above=True, good=(0.25, 2)),
    "Material.specular_strength": _material("specular_strength", 0, 1, good=(0, 0.5, 1)),
    "Material.shininess": _material("shininess", 0, above=True, good=(1, 32.0)),
    "Sphere.radius": Setting(
        lambda v, ctx: Sphere((0, 0, 0), v, Material((0.5, 0.5, 0.5))), "radius", 0,
        above=True, good=(0.5, 2), read=attrgetter("radius")),
    "PlanePatch.half_extent": Setting(
        lambda v, ctx: PlanePatch((0, 0, 0), (0, 1, 0), v, Material((0.5, 0.5, 0.5))),
        "half_extent", 0, above=True, good=(0.5, 2), read=attrgetter("half_extent")),
    "SyntheticScene.near": Setting(
        lambda v, ctx: SyntheticScene([], (0, 0, 0), ctx.cameras, v, 50.0), "near", 0,
        above=True, good=(0.5, 49), read=attrgetter("near")),
    "SyntheticScene.far": Setting(
        lambda v, ctx: SyntheticScene([], (0, 0, 0), ctx.cameras, 1.0, v), "far", 1.0,
        above=True, good=(1.5, 50), read=attrgetter("far")),
    "SyntheticScene.background": Setting(
        lambda v, ctx: SyntheticScene([], (0.5, v, 0.5), ctx.cameras, 1.0, 50.0), "background",
        0, 1, good=(0, 0.42, 1), read=lambda scene: scene.background.tolist()[1]),
    "perturb_depth.noise_sigma": Setting(
        lambda v, ctx: perturb_depth(DEPTH, v, 0), "noise sigma", 0, good=(0, 0.02)),
    "perturb_depth.seed": Setting(
        lambda v, ctx: perturb_depth(DEPTH, 0.02, (7, v)), "noise seed", 0, whole=True,
        good=(0.0, BIG)),
    "select_working_views.n_working": Setting(
        lambda v, ctx: select_working_views(ctx.views[1:], ctx.views[0].camera, v, 1.0, 5.0),
        "n_working", 1, 2, whole=True, good=(1.0, 2)),
    "select_working_views.near": Setting(
        lambda v, ctx: select_working_views(ctx.views[1:], ctx.views[0].camera, 2, v, 5.0),
        "near", 0, above=True, good=(0.5, 4.9), read=attrgetter("near")),
    "select_working_views.far": Setting(
        lambda v, ctx: select_working_views(ctx.views[1:], ctx.views[0].camera, 2, 1.0, v),
        "far", 1.0, above=True, good=(1.5, 9), read=attrgetter("far")),
    "decode.near": Setting(
        lambda v, ctx: decode(RawRayParams([0.0], [0.0], [0.0]), (v, 5.0)), "near", 0,
        above=True, good=(0.5, 4.9)),
    "decode.far": Setting(
        lambda v, ctx: decode(RawRayParams([0.0], [0.0], [0.0]), (1.0, v)), "far", 1.0,
        above=True, good=(1.5, 9)),
    "grad_cdf.near": Setting(
        lambda v, ctx: grad_cdf(RawRayParams([0.0], [0.0], [0.0]), 2.0, (v, 5.0)), "near", 0,
        above=True, good=(0.5, 4.9)),
    "grad_cdf.far": Setting(
        lambda v, ctx: grad_cdf(RawRayParams([0.0], [0.0], [0.0]), 2.0, (1.0, v)), "far", 1.0,
        above=True, good=(1.5, 9)),
}


def _ring_cameras(n, size=8):
    angles = 2 * np.pi * np.arange(n) / n
    return [look_at_camera(size, size, size, size, size / 2, size / 2,
                           (3 * np.cos(a), 0.5, 3 * np.sin(a)), (0, 0, 0)) for a in angles]


@pytest.fixture(scope="module")
def scene_parts():
    """Three 8x8 views of a sphere: cameras, images, depth-initialized maps."""
    cameras = _ring_cameras(3)
    scene = SyntheticScene([Sphere((0, 0, 0), 0.8, Material((0.7, 0.4, 0.3)))],
                           (0.2, 0.2, 0.2), cameras, 1.0, 5.0)
    truth = [render_ground_truth(scene, camera) for camera in cameras]
    views = [RenderView(i, camera, init_from_depth(depth, 0.01, 2, view=i), image)
             for i, (camera, (image, depth)) in enumerate(zip(cameras, truth))]
    return cameras, views


class Context:
    """What the calls of the sweep need: views, and a run directory under
    ``tmp_path`` that a refused call must not create."""

    def __init__(self, scene_parts, tmp_path):
        self.cameras, self.views = scene_parts
        self.out = tmp_path / "run"
        self.data = SceneData(
            cameras=dict(enumerate(self.cameras)),
            images={v.index: v.image for v in self.views},
            maps={v.index: DistributionMap(v.index, v.dmap.params.copy()) for v in self.views},
            depths=None, near=1.0, far=5.0)
        self.config = TrainConfig(steps=0, batch_size=8, k_samples=8, n_working=2,
                                  sh_degree=1, eval_interval=0, threads=1)
        self.saved = tmp_path / "saved"

    def optimize(self, interval):
        return optimize_scene(self.data, self.config, out_dir=self.out,
                              checkpoint_interval=interval)

    def resume(self, step):
        """Load a checkpoint whose step is ``step`` and whose maps differ from
        the data's; returns the state it restored."""
        shifted = SceneData(self.data.cameras, self.data.images,
                            {i: DistributionMap(i, m.params + 1.0)
                             for i, m in self.data.maps.items()},
                            None, 1.0, 5.0)
        save_checkpoint(self.saved, shifted, OptimState(), self.config)
        with np.load(self.saved / "state.npz") as blob:
            arrays = dict(blob)
        arrays["step"] = np.array(step)
        with open(self.saved / "state.npz", "wb") as f:
            np.savez(f, **arrays)
        state = OptimState()
        load_checkpoint(self.saved, self.data, state, self.config)
        return state


@pytest.fixture
def ctx(scene_parts, tmp_path):
    return Context(scene_parts, tmp_path)


_BAD = [(name, value) for name, setting in SETTINGS.items() for value in setting.bad()]
_GOOD = [(name, value) for name, setting in SETTINGS.items() for value in setting.good]


@pytest.mark.parametrize("name, value", _BAD, ids=[f"{n}={v!r}" for n, v in _BAD])
def test_refused_naming_the_setting_before_any_allocation(ctx, name, value):
    setting = SETTINGS[name]
    before = {i: m.params.copy() for i, m in ctx.data.maps.items()}
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as info:
            setting.call(value, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert setting.word in str(info.value) and "must be" in str(info.value)
    assert not ctx.out.exists()
    assert all(np.array_equal(ctx.data.maps[i].params, p) for i, p in before.items())
    if name != "load_checkpoint.step":     # reading the checkpoint loads its arrays first
        assert peak < 32_000, peak


@pytest.mark.parametrize("name, value", _GOOD, ids=[f"{n}={v!r}" for n, v in _GOOD])
def test_accepted_and_stored(ctx, name, value):
    setting = SETTINGS[name]
    result = setting.call(value, ctx)
    if setting.read is not None:
        stored = setting.read(result)
        assert stored == value and type(stored) is (int if setting.whole else float)


@pytest.mark.parametrize("call", [
    lambda ctx: TrainConfig(steps=2.5), lambda ctx: TrainConfig(batch_size=2.5),
    lambda ctx: TrainConfig(seed=1.5), lambda ctx: init_from_depth(DEPTH, 0.01, 2.5),
    lambda ctx: ctx.optimize(0.5),
], ids=["steps", "batch_size", "seed", "n_components", "checkpoint_interval"])
def test_fractions_once_accepted_are_refused(ctx, call):
    """These passed their checks once: the first four then failed with a bare
    TypeError, and a checkpoint interval of 0.5 wrote a checkpoint every step."""
    with pytest.raises(InputError, match="must be a whole number"):
        call(ctx)
    assert not ctx.out.exists()


def test_large_whole_numbers_keep_every_bit():
    assert TrainConfig(seed=BIG).seed == BIG
    assert TrainConfig(seed=float(2**60)).seed == 2**60
    assert bounded("seed", np.int64(2**62 + 1), 0, whole=True) == 2**62 + 1


@pytest.mark.parametrize("value", ["3", None, [3], 2**1100])
def test_non_numbers_refused(value):
    with pytest.raises(ConfigurationError, match=r"^count must be finite, in \[0, inf\), not "):
        bounded("count", value, 0)


@pytest.mark.parametrize("make", [
    RenderConfig, TrainConfig,
    lambda background: SyntheticScene([], background, _ring_cameras(2), 1.0, 5.0),
], ids=["RenderConfig", "TrainConfig", "SyntheticScene"])
@pytest.mark.parametrize("background", [(0.5, 0.5), (0, 0, 0, 0), [[0, 0, 0]], "abc", 5, None])
def test_background_not_an_rgb_triple_refused(make, background):
    with pytest.raises(InputError, match=r"^background must be an RGB triple of finite values"):
        make(background=background)


def test_message_names_the_bounds():
    with pytest.raises(ConfigurationError,
                       match=r"^k must be a whole number, in \[1, 16\], not 17$"):
        bounded("k", 17, 1, 16, whole=True)
    with pytest.raises(InputError, match=r"^w must be finite, in \(0, inf\), not 0$"):
        bounded("w", 0, 0, above=True, error=InputError)
    with pytest.raises(ConfigurationError, match=r"^x must be finite, in \(-inf, inf\), not nan$"):
        bounded("x", np.nan, -np.inf)


@pytest.mark.parametrize("index", [1.5, np.nan, np.inf, -np.inf])
def test_cameras_file_index_refused(scene_parts, tmp_path, index):
    cameras, _ = scene_parts
    entries = [{"index": i, **camera_to_json(c)} for i, c in enumerate(cameras)]
    entries[1]["index"] = index
    (tmp_path / "cameras.json").write_text(json.dumps(
        {"near": 1.0, "far": 5.0, "background": [0, 0, 0], "cameras": entries}))
    with pytest.raises(InputError, match=r"cameras\[1\]: 'index'"):
        cli._load_cameras(tmp_path)
