"""Command-line pipeline: synth, init, render, optimize, eval, bench.

Directory conventions: a data directory (from ``synth``) holds
``images/view_NNNN.ppm``, ``depth/view_NNNN.nrdf`` and ``cameras.json``;
map directories hold ``view_NNNN.nray``. Every command that writes files
also writes a ``manifest.json`` next to them, enough to replay the run: it
holds every parsed option, overridden by the fields of the configs the
command built, as resolved.

An option that sets a ``TrainConfig`` or ``RenderConfig`` field stores its
value under the field's name and has no default of its own, so the config
holds the only default and the only check of each setting.

Exit codes: 0 success, 1 usage error, 2 input/IO error (running out of memory
included), 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

import rayvis
from rayvis import imgio, optim, scenefile
from rayvis.counters import counters
from rayvis.errors import ConfigurationError, InputError, NumericalError, RayvisError
from rayvis.raydist import (
    DensityProfile,
    DistributionMap,
    decode,
    density_visibility_oracle,
    visibility,
)
from rayvis.render import (
    MAX_SAMPLES,
    RenderConfig,
    RenderView,
    psnr,
    render_image,
    select_working_views,
)
from rayvis.scene import perturb_depth, render_ground_truth


def _sampling_mode(text):
    """``uniform`` or ``c2f``, spelled as the configs spell the sampling modes."""
    modes = {"uniform": "uniform", "c2f": "coarse_to_fine"}
    if text not in modes:
        raise argparse.ArgumentTypeError(
            f"invalid choice: '{text}' (choose from 'uniform', 'c2f')")
    return modes[text]


def _view_list(text):
    """Comma-separated view indices; empty entries are skipped."""
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of view indices: "
                                         f"'{text}'") from None


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors, and that leaves an
    option without a default of its own unset, so a config's default holds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _config(cls, args, **fixed):
    """``cls`` built from the parsed options named after its fields, and ``fixed``."""
    given = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**given, **fixed})


def _write_manifest(directory, args, inputs, outputs, start, *configs):
    """Write ``manifest.json``: every parsed option, overridden by the fields of
    ``configs`` as resolved, with the package version and the seconds since
    ``start``."""
    config = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    for resolved in configs:
        config.update(asdict(resolved))
    manifest = {
        "command": args.command,
        "version": rayvis.__version__,
        "seed": config.get("seed"),
        "config": config,
        "inputs": [str(path) for path in inputs],
        "outputs": [str(path) for path in outputs],
        "duration_seconds": time.perf_counter() - start,
    }
    blob = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False).encode("utf-8")
    imgio.atomic_write_bytes(Path(directory) / "manifest.json", blob)


def _load_cameras(data_dir) -> tuple:
    path = Path(data_dir) / "cameras.json"
    if not path.exists():
        raise InputError(f"missing cameras file: {path}")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    for key, shape in (("near", ()), ("far", ()), ("background", (3,))):
        scenefile.json_array(meta, key, path, shape)
    if not isinstance(meta.get("cameras"), list):
        raise InputError(f"{path}: missing or malformed 'cameras'")
    cameras = {}
    for i, entry in enumerate(meta["cameras"]):
        where = f"{path} cameras[{i}]"
        camera = scenefile.camera_from_json(entry, where, extra={"index"})
        index = scenefile.json_array(entry, "index", where)
        if not index.is_integer():
            raise InputError(f"{where}: 'index' must be a whole number, not {index}")
        index = int(index)
        if index in cameras:
            raise InputError(f"{where}: 'index' {index} repeats an earlier entry")
        cameras[index] = camera
    return cameras, meta


def _check_size(path, shape, camera):
    """Refuse a per-view file whose pixel grid is not its camera's."""
    if tuple(shape[:2]) != (camera.height, camera.width):
        raise InputError(f"{path}: {shape[0]}x{shape[1]} pixels, but its camera has "
                         f"{camera.height}x{camera.width}")


def _load_render_views(data_dir, cameras, maps_dir, exclude=()) -> list:
    images = imgio.scan_views(Path(data_dir) / "images", "ppm")
    maps = imgio.scan_views(maps_dir, "nray")
    views = []
    for idx, map_path in sorted(maps.items()):
        if idx in exclude:
            continue
        if idx not in cameras:
            raise InputError(f"map {map_path} has no camera entry")
        if idx not in images:
            raise InputError(f"no image for view {idx} in {data_dir}")
        dmap = DistributionMap.load(map_path)
        image = imgio.read_ppm(images[idx])
        _check_size(map_path, dmap.params.shape, cameras[idx])
        _check_size(images[idx], image.shape, cameras[idx])
        views.append(RenderView(idx, cameras[idx], dmap, image))
    if not views:
        raise InputError(f"no usable views found in {maps_dir}")
    return views


def cmd_synth(args) -> int:
    start = time.perf_counter()
    scene = scenefile.load_scene(args.scene)
    out = Path(args.out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "depth").mkdir(parents=True, exist_ok=True)
    cam_entries = []
    outputs = []
    for idx, camera in enumerate(scene.cameras):
        image, depth = render_ground_truth(scene, camera)
        img_path = out / "images" / imgio.view_name(idx, "ppm")
        dep_path = out / "depth" / imgio.view_name(idx, "nrdf")
        imgio.write_ppm(img_path, image)
        imgio.write_depth_map(dep_path, depth)
        outputs += [img_path, dep_path]
        cam_entries.append({"index": idx, **scenefile.camera_to_json(camera)})
    meta = {
        "near": scene.near,
        "far": scene.far,
        "scene_scale": scene.scene_scale,
        "background": scene.background.tolist(),
        "cameras": cam_entries,
    }
    imgio.atomic_write_bytes(
        out / "cameras.json", json.dumps(meta, indent=2).encode("utf-8")
    )
    _write_manifest(out, args, [args.scene], outputs + [out / "cameras.json"], start)
    print(f"wrote {len(cam_entries)} views to {out}")
    return 0


def cmd_init(args) -> int:
    start = time.perf_counter()
    if args.seed < 0:
        raise InputError(f"noise seed must be nonnegative, not {args.seed}")
    depths = imgio.scan_views(Path(args.data_dir) / "depth", "nrdf")
    if not depths:
        raise InputError(f"no depth maps under {args.data_dir}/depth")
    # encode with the depth range that every reader decodes with: the
    # cameras file's, not the depth header's f32-rounded copy of it
    _, meta = _load_cameras(args.data_dir)
    near, far = float(meta["near"]), float(meta["far"])
    out = Path(args.out_dir)
    outputs = []
    for idx, path in sorted(depths.items()):
        depth = replace(imgio.read_depth_map(path), near=near, far=far)
        depth = perturb_depth(depth, args.noise, (args.seed, idx))
        dmap = optim.init_from_depth(depth, args.sigma_init, args.components, view=idx)
        # only now: a refused setting leaves no output directory
        out.mkdir(parents=True, exist_ok=True)
        map_path = out / imgio.view_name(idx, "nray")
        dmap.save(map_path)
        outputs.append(map_path)
    _write_manifest(out, args, [*depths.values(), Path(args.data_dir) / "cameras.json"],
                    outputs, start)
    print(f"initialized {len(outputs)} maps in {out}")
    return 0


def _query_working_set(args, cap: bool):
    """The working set of query view ``args.view``, the render config of the
    options with the cameras file's background, and the cameras file's
    metadata. With ``cap`` a larger ``n_working`` is lowered to the views
    available, in the config too; without it, ``select_working_views``
    refuses it."""
    cameras, meta = _load_cameras(args.data_dir)
    config = _config(RenderConfig, args, background=tuple(meta["background"]))
    if args.view not in cameras:
        raise InputError(f"no camera with index {args.view}")
    views = _load_render_views(args.data_dir, cameras, args.maps_dir, exclude=(args.view,))
    if cap:
        config = replace(config, n_working=min(config.n_working, len(views)))
    working = select_working_views(
        views, cameras[args.view], config.n_working, meta["near"], meta["far"],
        query_index=args.view,
    )
    return working, config, meta


def cmd_render(args) -> int:
    start = time.perf_counter()
    working, config, _ = _query_working_set(args, cap=False)
    image = render_image(working, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    imgio.write_ppm(out, image)
    outputs = [out]
    if args.float_out:
        imgio.write_float_image(args.float_out, image)
        outputs.append(args.float_out)
    if args.gt:
        value = psnr(image, imgio.read_ppm(args.gt))
        print(f"psnr {value:.4f}")
    _write_manifest(out.parent, args, [args.data_dir, args.maps_dir], outputs, start, config)
    print(f"rendered view {args.view} -> {out}")
    return 0


def cmd_optimize(args) -> int:
    start = time.perf_counter()
    cameras, meta = _load_cameras(args.data_dir)
    config = _config(optim.TrainConfig, args, background=tuple(meta["background"]))
    views = _load_render_views(args.data_dir, cameras, args.init_dir, exclude=args.eval_views)
    if len(views) < 2:
        raise InputError("optimization needs at least two initialized views")
    depth_paths = imgio.scan_views(Path(args.data_dir) / "depth", "nrdf")
    deps = {}
    for view in views:
        if view.index in depth_paths:
            deps[view.index] = imgio.read_depth_map(depth_paths[view.index])
            _check_size(depth_paths[view.index], deps[view.index].values.shape, view.camera)
    data = optim.SceneData(
        cameras=cameras,
        images={view.index: view.image for view in views},
        maps={view.index: view.dmap for view in views},
        depths=deps if deps else None,
        near=meta["near"],
        far=meta["far"],
    )
    images = imgio.scan_views(Path(args.data_dir) / "images", "ppm")
    holdout = {}
    for idx in args.eval_views:
        if idx not in cameras or idx not in images:
            raise InputError(f"eval view {idx} not present in the data directory")
        holdout[idx] = (cameras[idx], imgio.read_ppm(images[idx]))
        _check_size(images[idx], holdout[idx][1].shape, cameras[idx])

    # optimize_scene's checkpoints create the directory, after its checks
    out = Path(args.out_dir)
    state = config.optim_state()
    start_step = 0
    if args.resume:
        start_step = optim.load_checkpoint(out, data, state)
        print(f"resuming from step {start_step}")
    state, _ = optim.optimize_scene(
        data,
        config,
        holdout=holdout,
        out_dir=out,
        state=state,
        start_step=start_step,
        checkpoint_interval=args.checkpoint_interval,
    )
    _write_manifest(out, args, [args.data_dir, args.init_dir],
                    [out / imgio.view_name(i, "nray") for i in sorted(data.maps)], start, config)
    print(f"optimized {len(data.maps)} maps for {config.steps} steps -> {out}")
    return 0


def cmd_eval(args) -> int:
    start = time.perf_counter()
    rendered = imgio.scan_views(args.rendered_dir, "ppm")
    truth = imgio.scan_views(args.gt_dir, "ppm")
    if not rendered:
        raise InputError(f"no rendered views in {args.rendered_dir}")
    missing = sorted(set(rendered) - set(truth))
    if missing:
        raise InputError(
            "missing ground-truth counterparts for views: "
            + ", ".join(str(m) for m in missing)
        )
    rows = []
    for idx, path in sorted(rendered.items()):
        value = psnr(imgio.read_ppm(path), imgio.read_ppm(truth[idx]))
        rows.append((idx, value))
    mean = float(np.mean([v for _, v in rows]))
    print(f"{'view':>6} {'psnr_db':>10}")
    for idx, value in rows:
        print(f"{idx:>6} {value:>10.4f}")
    print(f"{'mean':>6} {mean:>10.4f}")
    if args.csv:
        lines = ["view,psnr_db"] + [f"{i},{v:.6f}" for i, v in rows]
        lines.append(f"mean,{mean:.6f}")
        csv_path = Path(args.csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        imgio.atomic_write_bytes(csv_path, ("\n".join(lines) + "\n").encode("utf-8"))
        _write_manifest(csv_path.parent, args, [args.rendered_dir, args.gt_dir], [csv_path],
                        start)
    return 0


def cmd_bench(args) -> int:
    start = time.perf_counter()
    if not 1 <= args.kr <= MAX_SAMPLES:
        raise ConfigurationError(f"kr must be in [1, {MAX_SAMPLES}], not {args.kr}")
    working, config, meta = _query_working_set(args, cap=True)
    report = []

    def run(label, config):
        counters.reset()
        t0 = time.perf_counter()
        image = render_image(working, config)
        dt = time.perf_counter() - t0
        snap = counters.snapshot()
        n_px = image.shape[0] * image.shape[1]
        report.append(
            f"{label}: threads={config.threads} wall_clock_s={dt:.3f} "
            f"cdf_evals={snap.cdf_evals} sh_fits={snap.sh_fits} "
            f"color_samples={snap.color_samples} "
            f"cdf_per_pixel={snap.cdf_evals / n_px:.1f} "
            f"sh_fits_per_pixel={snap.sh_fits / n_px:.2f}"
        )
        return image, dt, snap

    # the uniform run takes --k-uniform samples; both runs share every other option
    c2f_cfg = replace(config, mode="coarse_to_fine")
    img_u, time_u, snap_u = run(f"uniform k={args.k_uniform}",
                                replace(config, k_coarse=args.k_uniform, mode="uniform"))
    img_c, time_c, snap_c = run(f"coarse_to_fine k={args.k_coarse}+{args.k_fine}", c2f_cfg)
    report.append(
        f"mode_agreement_psnr_db={psnr(img_u, img_c):.3f} "
        f"sh_fit_ratio={snap_u.sh_fits / max(snap_c.sh_fits, 1):.2f} "
        f"speedup={time_u / max(time_c, 1e-9):.2f}"
    )

    # density-based visibility oracle: one query costs one density
    # evaluation per segment, against a single CDF evaluation
    knots = np.linspace(meta["near"], meta["far"], args.kr + 1)
    profile = DensityProfile(knots, np.full(args.kr, 0.5))
    counters.reset()
    density_visibility_oracle(profile, meta["far"])
    d_evals = counters.snapshot().density_evals
    counters.reset()
    dist = decode(working.views[0].dmap.raw_at(0, 0), (meta["near"], meta["far"]))
    visibility(dist, 0.5 * (meta["near"] + meta["far"]))
    c_evals = counters.snapshot().cdf_evals
    report.append(
        f"density_oracle_evals_per_query={d_evals} (k_r={args.kr}) "
        f"vs cdf_evals_per_query={c_evals}"
    )
    text = "\n".join(report)
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        imgio.atomic_write_bytes(out, (text + "\n").encode("utf-8"))
        _write_manifest(out.parent, args, [args.data_dir, args.maps_dir], [out], start, c2f_cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rayvis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # options of render, optimize and bench; the last three set config fields
    shared = _Parser(add_help=False)
    shared.add_argument("--data", required=True, dest="data_dir")
    shared.add_argument("--nw", type=int, dest="n_working")
    shared.add_argument("--sh-degree", type=int)
    shared.add_argument("--threads", type=int, help="threads (default: every usable CPU)")
    query = _Parser(add_help=False)
    query.add_argument("--maps", required=True, dest="maps_dir")
    query.add_argument("--view", type=int, required=True)

    p = sub.add_parser("synth", help="render ground-truth data from a scene file")
    p.add_argument("scene", help="scene description (JSON)")
    p.add_argument("out_dir", help="output data directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init", help="initialize distribution maps from depth maps")
    p.add_argument("data_dir", help="data directory from synth")
    p.add_argument("out_dir", help="output map directory")
    p.add_argument("--sigma-init", type=float, default=0.005)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0,
                   help="depth noise as a fraction of scene scale")
    p.add_argument("--seed", type=int, default=0, help="view i's noise stream is (seed, i)")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("render", parents=[shared, query],
                       help="render a query view from maps and images")
    p.add_argument("--out", required=True)
    p.add_argument("--gt", default=None, help="ground-truth PPM for PSNR")
    p.add_argument("--float-out", default=None)
    p.add_argument("--mode", type=_sampling_mode, metavar="{uniform,c2f}")
    p.add_argument("--k-coarse", type=int)
    p.add_argument("--k-fine", type=int)
    p.add_argument("--bilinear-params", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("optimize", parents=[shared], help="optimize distribution maps on a scene")
    p.add_argument("--init", required=True, dest="init_dir")
    p.add_argument("--out", required=True, dest="out_dir")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--lambda-render", type=float)
    p.add_argument("--lambda-consist", type=float)
    p.add_argument("--lambda-depth", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int, dest="k_samples")
    p.add_argument("--k-fine", type=int)
    p.add_argument("--sampling-mode", type=_sampling_mode, metavar="{uniform,c2f}")
    p.add_argument("--eval-views", type=_view_list, default=[],
                   help="comma-separated held-out view indices")
    p.add_argument("--eval-interval", type=int)
    p.add_argument("--consist-variant", choices=["binary", "categorical"])
    p.add_argument("--consist-flow", choices=["stop_h", "symmetric"])
    p.add_argument("--resume", action="store_true", default=False)
    p.add_argument("--checkpoint-interval", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eval", help="PSNR table between two image directories")
    p.add_argument("rendered_dir")
    p.add_argument("gt_dir")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[shared, query],
                       help="counter and timing report for both render modes")
    p.add_argument("--k-uniform", type=int, default=128)
    p.add_argument("--k-coarse", type=int, default=32)
    p.add_argument("--k-fine", type=int, default=8)
    p.add_argument("--kr", type=int, default=32)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RayvisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
