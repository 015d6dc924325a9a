"""Pinned reference outputs of rendering and training, and the script that
writes them.

A 6-camera 32 x 32 two-sphere ring, its maps initialized from depth maps
with 2% noise and their raw parameters perturbed by N(0, 0.1), so that no
two components are alike. Views 1 and 4 are rendered at 16 x 16, each from
the other views' maps, uniform at k=64 and coarse-to-fine at 32 + 8, with
the counters of each render. One ``train_step`` (150 rays at k=128, so
three chunks, 2 working views, every loss on) gives each map's gradient as
Adam would get it; no Adam step is taken. ``tests/test_reference_outputs.py``
compares the library's outputs against the committed file.

Regenerate the file only when a change is meant to move these outputs, and
say why in CHANGES.md::

    PYTHONPATH=src python tests/reference_outputs.py
"""

from dataclasses import astuple
from pathlib import Path

import numpy as np

from rayvis import optim
from rayvis.counters import counters
from rayvis.optim import OptimState, SceneData, TrainConfig, init_from_depth, train_step
from rayvis.render import RenderConfig, render_image, select_working_views
from rayvis.scene import perturb_depth, render_ground_truth
from rayvis.scenes import two_spheres

PATH = Path(__file__).with_name("reference_outputs.npz")
VIEWS = (1, 4)
MODES = {"uniform": dict(mode="uniform", k_coarse=64),
         "c2f": dict(mode="coarse_to_fine", k_coarse=32, k_fine=8)}


def ring_data():
    """The ring's training data and its background color."""
    ring = two_spheres(n_cameras=6, width=32, height=32)
    rng = np.random.default_rng(8)
    images, depths, maps = {}, {}, {}
    for i, cam in enumerate(ring.cameras):
        images[i], depths[i] = render_ground_truth(ring, cam)
        maps[i] = init_from_depth(perturb_depth(depths[i], 0.02, (8, i)), 0.01, 2, view=i)
        maps[i].params += rng.normal(0.0, 0.1, size=maps[i].params.shape)
    return (SceneData(dict(enumerate(ring.cameras)), images, maps, depths, ring.near, ring.far),
            tuple(ring.background))


def renders(data: SceneData, background) -> dict:
    """``{mode}_{view}`` images and ``{mode}_{view}_counters``, the counter
    values in ``CounterSnapshot`` field order."""
    small = two_spheres(n_cameras=6, width=16, height=16)
    out = {}
    for view in VIEWS:
        views = [v for v in data.render_views() if v.index != view]
        working = select_working_views(views, small.cameras[view], 4, data.near, data.far,
                                       query_index=view)
        for mode, settings in MODES.items():
            counters.reset()
            out[f"{mode}_{view}"] = render_image(
                working, RenderConfig(background=background, threads=2, **settings))
            out[f"{mode}_{view}_counters"] = np.array(astuple(counters.snapshot()))
    return out


def step_gradients(data: SceneData, background) -> dict:
    """``grad_{view}``: the gradient each map's Adam update gets from one
    step, for the maps that get one. The maps are left as they were."""
    grads = {}

    def capture(state, key, p, g, lr, t):
        grads[key] = g
        return None, None, None, True

    config = TrainConfig(batch_size=150, k_samples=128, n_working=2, seed=1, threads=2,
                         background=background)
    saved = optim._adam_update, optim._commit
    optim._adam_update, optim._commit = capture, lambda *args: None
    try:
        train_step(data, config, OptimState(), np.random.default_rng(config.seed))
    finally:
        optim._adam_update, optim._commit = saved
    return {f"grad_{key}": g for key, g in grads.items() if g is not None}


def build() -> dict:
    data, background = ring_data()
    return {**renders(data, background), **step_gradients(data, background)}


if __name__ == "__main__":
    np.savez_compressed(PATH, **build())
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes)")
