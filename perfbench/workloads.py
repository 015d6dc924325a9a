"""Workloads of the rayvis benchmark, all built from the bundled two-sphere ring.

Each workload has a set-up (scene file to the first timed call), a size
derived from the run length, and a phase that runs a fixed list of
operations through the library's public functions and checks every output.
A run is one untraced phase; a traced run adds a second, traced phase on
the same inputs, whose outputs must equal the first bit for bit.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from rayvis import optim, render, scene, scenefile  # noqa: E402
from rayvis.optim import SceneData, TrainConfig  # noqa: E402
from rayvis.render import RenderConfig, RenderView  # noqa: E402

import tracing  # noqa: E402

SCENE_FILE = ROOT / "scenes" / "two_spheres.json"
OUT_DIR = BENCH_DIR / "out"
N_VIEWS, SIZE, NEAR, FAR = 16, 64, 1.2, 5.4
SETUP_REPEATS = 15
SIGMA_INIT, N_COMPONENTS = 0.01, 2
PSNR_FLOOR = 25.0
HOLDOUT = (0, 8)
MIN_TRAIN_STEPS = 100   # ten samples beyond the 90th percentile


@dataclasses.dataclass
class Phase:
    """Outcome of one phase: its tracer, per-operation outputs and checks."""

    tracer: tracing.Tracer
    outputs: list
    ok: list
    psnr_db: float
    timed_s: float
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.ok)


def _ring():
    ring = scenefile.load_scene(SCENE_FILE)
    cams = ring.cameras
    if (len(cams) != N_VIEWS or any((c.width, c.height) != (SIZE, SIZE) for c in cams)
            or (ring.near, ring.far) != (NEAR, FAR)):
        raise ValueError(f"{SCENE_FILE} is not the {N_VIEWS}-view {SIZE}x{SIZE} ring")
    truth = [scene.render_ground_truth(ring, cam) for cam in cams]
    return ring, [img for img, _ in truth], [depth for _, depth in truth]


class RenderWorkload:
    """Held-out ring views rendered with ``render_image``.

    The seed picks one half of the ring (even or odd views, which have
    near-equal mean difficulty) and the order; a run renders whole passes
    over those eight views, each excluded from its own working set.
    """

    def __init__(self, nominal_s, **sampling):
        self.nominal_s = nominal_s
        self.sampling = sampling
        self.k_fine = sampling.get("k_fine", 0)
        self.rays_per_op = SIZE * SIZE

    def n_ops(self, seconds: float) -> int:
        half = N_VIEWS // 2
        return half * max(1, round(seconds / (self.nominal_s * half)))

    def setup(self, seed: int):
        ring, images, depths = _ring()
        views = [
            RenderView(i, cam, optim.init_from_depth(depths[i], SIGMA_INIT, N_COMPONENTS, view=i),
                       images[i])
            for i, cam in enumerate(ring.cameras)
        ]
        rng = np.random.default_rng(seed)
        order = [int(v) for v in rng.permutation(range(int(rng.integers(2)), N_VIEWS, 2))]
        config = RenderConfig(n_working=8, sh_degree=3, background=tuple(ring.background),
                              **self.sampling)
        return dict(ring=ring, images=images, views=views, order=order, config=config)

    def prepare(self, inputs):
        pass

    def run(self, inputs, n_ops: int, tracer: tracing.Tracer) -> Phase:
        ring, order = inputs["ring"], inputs["order"]
        outputs, ok, values = [], [], []
        for i in range(n_ops):
            q = order[i % len(order)]
            try:
                with tracer.operation("op", i) as op:
                    working = render.select_working_views(
                        inputs["views"], ring.cameras[q], 8, ring.near, ring.far, query_index=q)
                    image = render.render_image(working, inputs["config"])
                value = render.psnr(image, inputs["images"][q])
                good = (bool(np.all(np.isfinite(image))) and image.min() >= 0.0
                        and image.max() <= 1.0 and value >= PSNR_FLOOR)
            except Exception:
                traceback.print_exc()
                image, value, good = None, float("nan"), False
            outputs.append((q, image, op["counts"]))
            ok.append(good)
            values.append(value)
        good_values = [v for v, g in zip(values, ok) if g]
        timed = sum(t for t, g in zip(tracer.latencies(), ok) if g)
        return Phase(tracer, outputs, ok,
                     statistics.fmean(good_values) if good_values else float("nan"), timed,
                     {"views": [q for q, _, _ in outputs], "psnr_per_op": values})

    @staticmethod
    def same_outputs(a: Phase, b: Phase) -> list:
        """Per operation: does ``b`` give the same view, image and counts as ``a``."""
        return [qa == qb and ia is not None and ib is not None and np.array_equal(ia, ib)
                and ca == cb
                for (qa, ia, ca), (qb, ib, cb) in zip(a.outputs, b.outputs)]


class TrainWorkload:
    """``optimize_scene`` on 14 reference views from perturbed depth.

    The seed sets ``TrainConfig.seed`` and the depth perturbation seeds.
    One operation is one ``train_step``; the timed section is the whole
    ``optimize_scene`` call, which ends with one ``save_checkpoint``.
    """

    nominal_s = 0.285
    k_fine = 0

    def __init__(self):
        self.rays_per_op = TrainConfig().batch_size

    def n_ops(self, seconds: float) -> int:
        return max(MIN_TRAIN_STEPS, round(seconds / self.nominal_s))

    def setup(self, seed: int):
        ring, images, depths = _ring()
        refs = [i for i in range(N_VIEWS) if i not in HOLDOUT]
        noise_seeds = np.random.default_rng(seed).integers(2**31, size=N_VIEWS)
        noisy = {i: scene.perturb_depth(depths[i], 0.02, int(noise_seeds[i])) for i in refs}
        maps = {i: optim.init_from_depth(noisy[i], SIGMA_INIT, N_COMPONENTS, view=i)
                for i in refs}
        data = SceneData(
            cameras=dict(enumerate(ring.cameras)),
            images={i: images[i] for i in refs},
            maps=maps, depths=noisy, near=ring.near, far=ring.far,
        )
        config = TrainConfig(
            seed=seed, batch_size=512, k_samples=48, sh_degree=2, learning_rate=2e-3,
            lambda_render=1.0, lambda_consist=0.25, lambda_depth=0.1,
            sampling_mode="uniform", background=tuple(ring.background), eval_interval=0,
        )
        holdout = {i: (ring.cameras[i], images[i]) for i in HOLDOUT}
        return dict(data=data, config=config, holdout=holdout)

    def prepare(self, inputs):
        """Held-out PSNR of the initial maps, the floor for the trained ones."""
        inputs["initial_psnr_db"] = optim.evaluate_holdout(
            inputs["data"], inputs["holdout"], inputs["config"], k_eval=64)

    def run(self, inputs, n_ops: int, tracer: tracing.Tracer) -> Phase:
        data = copy.deepcopy(inputs["data"])
        config = dataclasses.replace(inputs["config"], steps=n_ops)
        step = optim.train_step

        def timed_step(data, config, state, rng):
            with tracer.operation("op", state.step):
                return step(data, config, state, rng)

        OUT_DIR.mkdir(exist_ok=True)
        optim.train_step = timed_step
        history, state, timed, ckpt_bytes = [], None, float("nan"), 0
        try:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as out:
                start = perf_counter()
                state, history = optim.optimize_scene(data, config, out_dir=out)
                timed = perf_counter() - start
                ckpt_bytes = sum(p.stat().st_size for p in Path(out).iterdir()
                                 if p.name != "metrics.csv")
        except Exception:
            traceback.print_exc()
        finally:
            optim.train_step = step

        losses = [(r.render_loss, r.consistency_loss, r.depth_loss, r.total)
                  for r, _ in history]
        ok = [all(math.isfinite(x) for x in row) for row in losses]
        ok += [False] * (n_ops - len(losses))
        final = float("nan")
        if state is not None:
            arrays = [m.params for m in data.maps.values()]
            arrays += list(state.m.values()) + list(state.v.values())
            try:
                final = optim.evaluate_holdout(data, inputs["holdout"], config, k_eval=64)
            except Exception:
                traceback.print_exc()
            ok.append(all(bool(np.all(np.isfinite(a))) for a in arrays)
                      and final >= inputs["initial_psnr_db"])
        else:
            ok.append(False)
        maps = {i: m.params for i, m in data.maps.items()}
        return Phase(tracer, [losses, maps, final], ok, final, timed,
                     {"initial_psnr_db": inputs["initial_psnr_db"],
                      "checkpoint_bytes": ckpt_bytes})

    @staticmethod
    def same_outputs(a: Phase, b: Phase) -> list:
        """Per step: the same losses; then the same final maps and held-out PSNR."""
        (la, ma, fa), (lb, mb, fb) = a.outputs, b.outputs
        flags = [x == y for x, y in zip(la, lb)]
        flags += [False] * (len(b.ok) - 1 - len(flags))
        flags.append(fa == fb and ma.keys() == mb.keys()
                     and all(np.array_equal(ma[i], mb[i]) for i in ma))
        return flags


WORKLOADS = {
    "render_uniform": RenderWorkload(4.3, mode="uniform", k_coarse=128),
    "render_c2f": RenderWorkload(0.8, mode="coarse_to_fine", k_coarse=32, k_fine=8),
    "train": TrainWorkload(),
}


def run_workload(name: str, seed: int, n_ops: int, trace: bool) -> dict:
    """Set up several times, then run one untraced and, if asked, one traced phase."""
    work = WORKLOADS[name]
    setup = tracing.Tracer()
    if trace:
        setup.install()
    try:
        for k in range(SETUP_REPEATS):
            with setup.operation("setup", k):
                inputs = work.setup(seed)
    finally:
        setup.uninstall()
    work.prepare(inputs)
    if trace:   # two phases share the run: half the operations each
        n_ops = max(1, n_ops // 2)
    phases = [work.run(inputs, n_ops, tracing.Tracer())]
    if trace:
        traced = tracing.Tracer()
        traced.install()
        try:
            phases.append(work.run(inputs, n_ops, traced))
        finally:
            traced.uninstall()
        same = work.same_outputs(phases[0], phases[1])
        phases[1].ok = [ok and s for ok, s in zip(phases[1].ok, same)]
    return dict(work=work, setup=setup, phases=phases)
