"""In-memory call spans around the public functions of each rayvis module.

A ``Tracer`` rebinds each traced function at the names its callers look it
up by, records one span per call (name, start, end, parent span, operation)
and restores the originals on ``uninstall``. Operations are the units the
benchmark times: one image, one training step or one set-up. Counter
snapshots are taken around each operation.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter

from rayvis import camera, optim, raydist, render, scene, scenefile
from rayvis.counters import counters

COUNTER_FIELDS = ("cdf_evals", "density_evals", "sh_fits", "color_samples")


def _rows(y, *args, **kwargs):
    return y.shape[0]


# span name -> (the (owner, attribute) pairs its callers look it up by,
#               optional size function recorded with each span)
TARGETS = {
    "render.render_rays": ([(render, "render_rays"), (optim, "render_rays")], None),
    "render.render_rays_backward": ([(optim, "render_rays_backward")], None),
    "render.select_working_views": (
        [(render, "select_working_views"), (optim, "select_working_views")], None),
    "shcolor.sh_fit_batched": ([(render, "sh_fit_batched")], _rows),
    "shcolor.sh_basis_values": ([(render, "sh_basis_values")], None),
    "raydist.decode_arrays": (
        [(render, "decode_arrays"), (optim, "decode_arrays"), (raydist, "decode_arrays")], None),
    "raydist.mixture_cdf_param_grads": ([(optim, "mixture_cdf_param_grads")], None),
    "raydist.decode_backward": ([(optim, "decode_backward")], None),
    "optim.train_step": ([(optim, "train_step")], None),
    "optim.own_hit_probs": ([(optim, "own_hit_probs")], None),
    "optim.own_hit_probs_backward": ([(optim, "own_hit_probs_backward")], None),
    "optim.consistency_loss": ([(optim, "consistency_loss")], None),
    "optim.depth_loss": ([(optim, "depth_loss")], None),
    "optim.adam_step": ([(optim, "adam_step")], None),
    "optim.save_checkpoint": ([(optim, "save_checkpoint")], None),
    "optim.evaluate_holdout": ([(optim, "evaluate_holdout")], None),
    "optim.optimize_scene": ([(optim, "optimize_scene")], None),
    "optim.init_from_depth": ([(optim, "init_from_depth")], None),
    "camera.rays_for_pixels": ([(camera.PinholeCamera, "rays_for_pixels")], None),
    "scenefile.load_scene": ([(scenefile, "load_scene")], None),
    "scene.render_ground_truth": ([(scene, "render_ground_truth")], None),
    "scene.perturb_depth": ([(scene, "perturb_depth")], None),
}

# spans reported by self time per operation; the rest by duration per call
SELF_TIMED = (
    "render.render_rays", "render.render_rays_backward", "render.select_working_views",
    "shcolor.sh_fit_batched", "shcolor.sh_basis_values",
    "raydist.decode_arrays", "raydist.mixture_cdf_param_grads", "raydist.decode_backward",
    "optim.train_step", "optim.own_hit_probs", "optim.own_hit_probs_backward",
    "optim.consistency_loss", "optim.depth_loss", "optim.adam_step",
    "camera.rays_for_pixels",
)
SETUP_TIMED = (
    "scenefile.load_scene", "scene.render_ground_truth", "scene.perturb_depth",
    "optim.init_from_depth",
)
CALL_TIMED = ("optim.save_checkpoint", "optim.evaluate_holdout")


class Tracer:
    """Spans and operations of one phase of a run, kept in memory."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent span, operation, size]
        self.ops = []      # {"kind", "id", "start", "end", "counts"}
        self._stack = []
        self._op = None
        self._saved = []

    @contextmanager
    def operation(self, kind: str, op_id):
        before = counters.snapshot()
        op = {"kind": kind, "id": op_id, "start": perf_counter()}
        outer, self._op = self._op, len(self.ops)
        self.ops.append(op)
        try:
            yield op
        finally:
            op["end"] = perf_counter()
            after = counters.snapshot()
            op["counts"] = {f: getattr(after, f) - getattr(before, f) for f in COUNTER_FIELDS}
            self._op = outer

    def wrap(self, name: str, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op,
                    size(*args, **kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        for name, (sites, size) in TARGETS.items():
            for owner, attr in sites:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, size))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def latencies(self, kind: str = "op"):
        return [op["end"] - op["start"] for op in self.ops if op["kind"] == kind]

    def dump(self):
        return {
            "spans": [dict(zip(("name", "start", "end", "parent", "op", "size"), s))
                      for s in self.spans],
            "ops": self.ops,
        }


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(setup: Tracer, phase: Tracer, rays_per_op: int, k_fine: int):
    """Per-layer metrics of a traced phase and the set-ups that fed it.

    Self times and call counts are per operation (median over operations);
    ray-normalized counts are totals over all operations. Returns
    ``{name: (value, unit)}``.
    """
    ops = [i for i, op in enumerate(phase.ops) if op["kind"] == "op"]
    per_op = {i: {} for i in ops}
    for span, own in zip(phase.spans, self_times(phase.spans)):
        name, start, end, _, op, size = span
        if op in per_op:
            acc = per_op[op].setdefault(name, [0.0, 0, 0])
            acc[0] += own
            acc[1] += 1
            acc[2] += size

    def per_op_median(name, field):
        return statistics.median(per_op[i].get(name, [0.0, 0, 0])[field] for i in ops)

    out = {f"{name}.self_s": (per_op_median(name, 0), "s") for name in SELF_TIMED}
    out["shcolor.sh_fit_batched.rows"] = (per_op_median("shcolor.sh_fit_batched", 2), "count")
    out["raydist.decode_arrays.calls"] = (per_op_median("raydist.decode_arrays", 1), "count")

    totals = {f: sum(phase.ops[i]["counts"][f] for i in ops) for f in COUNTER_FIELDS}
    rays = rays_per_op * len(ops)
    out["render.cdf_evals_per_ray"] = (totals["cdf_evals"] / rays, "count")
    out["render.color_samples_per_ray"] = (totals["color_samples"] / rays, "count")
    out["render.sh_fits_per_ray"] = (totals["sh_fits"] / rays, "count")
    out["render.active_frac"] = (totals["sh_fits"] / max(totals["color_samples"], 1), "fraction")
    out["render.fine_kept_frac"] = (
        totals["color_samples"] / (rays * k_fine) if k_fine else 0.0, "fraction")

    for name in CALL_TIMED:
        calls = [end - start for n, start, end, *_ in phase.spans if n == name]
        out[f"{name}.s"] = (statistics.median(calls) if calls else 0.0, "s")

    setups = [i for i, op in enumerate(setup.ops) if op["kind"] == "setup"]
    for name in SETUP_TIMED:
        total = {i: 0.0 for i in setups}
        for n, start, end, _, op, _ in setup.spans:
            if n == name and op in total:
                total[op] += end - start
        out[f"{name}.s"] = (statistics.median(total.values()), "s")

    covered = {i: sum(v[0] for v in per_op[i].values()) for i in ops}
    out["trace.uncovered_frac"] = (statistics.median(
        1.0 - covered[i] / (phase.ops[i]["end"] - phase.ops[i]["start"]) for i in ops
    ), "fraction")
    return out
