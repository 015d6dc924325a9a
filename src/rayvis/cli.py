"""Command-line pipeline: synth, init, render, optimize, eval, bench.

Directory conventions: a data directory (from ``synth``) holds
``images/view_NNNN.ppm``, ``depth/view_NNNN.nrdf`` and ``cameras.json``;
map directories hold ``view_NNNN.nray``. Every command that writes files
also writes a ``manifest.json`` next to them with the fully resolved
configuration, enough to replay the run.

Exit codes: 0 success, 1 usage error, 2 input/IO error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import rayvis
from rayvis import imgio, optim, scenefile
from rayvis.counters import counters
from rayvis.errors import InputError, NumericalError, RayvisError
from rayvis.raydist import (
    DensityProfile,
    DistributionMap,
    decode,
    density_visibility_oracle,
    visibility,
)
from rayvis.render import (
    RenderConfig,
    RenderView,
    psnr,
    render_image,
    select_working_views,
)
from rayvis.scene import perturb_depth, render_ground_truth


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@dataclass
class RunManifest:
    command: str
    version: str
    seed: int | None
    config: dict
    inputs: list
    outputs: list
    duration_seconds: float


def _write_manifest(directory, command, seed, config, inputs, outputs, start):
    """Write ``manifest.json``, with the package version and the seconds since ``start``."""
    manifest = RunManifest(command, rayvis.__version__, seed, config, inputs, outputs,
                           time.perf_counter() - start)
    blob = json.dumps(asdict(manifest), indent=2, sort_keys=True).encode("utf-8")
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
        cameras[int(scenefile.json_array(entry, "index", where))] = camera
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
        outputs += [str(img_path), str(dep_path)]
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
    _write_manifest(out, "synth", None, {"scene": str(args.scene)}, [str(args.scene)],
                    outputs + [str(out / "cameras.json")], start)
    print(f"wrote {len(cam_entries)} views to {out}")
    return 0


def cmd_init(args) -> int:
    start = time.perf_counter()
    depths = imgio.scan_views(Path(args.data_dir) / "depth", "nrdf")
    if not depths:
        raise InputError(f"no depth maps under {args.data_dir}/depth")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for idx, path in sorted(depths.items()):
        depth = imgio.read_depth_map(path)
        if args.noise > 0:
            depth = perturb_depth(depth, args.noise, args.seed + idx)
        dmap = optim.init_from_depth(depth, args.sigma_init, args.components, view=idx)
        map_path = out / imgio.view_name(idx, "nray")
        dmap.save(map_path)
        outputs.append(str(map_path))
    config = {
        "sigma_init": args.sigma_init,
        "components": args.components,
        "noise": args.noise,
        "data_dir": str(args.data_dir),
    }
    _write_manifest(out, "init", args.seed, config, [str(p) for p in depths.values()],
                    outputs, start)
    print(f"initialized {len(outputs)} maps in {out}")
    return 0


def _threads(args) -> dict:
    """``--threads N`` as a RenderConfig keyword; without it the library default."""
    return {} if args.threads is None else {"threads": args.threads}


def _render_config(args, background) -> RenderConfig:
    mode = {"uniform": "uniform", "c2f": "coarse_to_fine"}[args.mode]
    return RenderConfig(
        k_coarse=args.k_coarse,
        k_fine=args.k_fine,
        mode=mode,
        n_working=args.nw,
        background=tuple(background),
        sh_degree=args.sh_degree,
        bilinear_params=args.bilinear_params,
        **_threads(args),
    )


def _query_working_set(args, cap: bool):
    """The working set of query view ``args.view`` with ``args.nw`` views, and
    the cameras file's metadata. With ``cap`` a larger request is lowered to
    the views available; without it, ``select_working_views`` refuses it."""
    cameras, meta = _load_cameras(args.data_dir)
    if args.view not in cameras:
        raise InputError(f"no camera with index {args.view}")
    views = _load_render_views(args.data_dir, cameras, args.maps_dir, exclude=(args.view,))
    nw = min(args.nw, len(views)) if cap else args.nw
    working = select_working_views(
        views, cameras[args.view], nw, meta["near"], meta["far"], query_index=args.view
    )
    return working, meta


def cmd_render(args) -> int:
    start = time.perf_counter()
    working, meta = _query_working_set(args, cap=False)
    config = _render_config(args, meta["background"])
    image = render_image(working, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    imgio.write_ppm(out, image)
    outputs = [str(out)]
    if args.float_out:
        imgio.write_float_image(args.float_out, image)
        outputs.append(str(args.float_out))
    if args.gt:
        value = psnr(image, imgio.read_ppm(args.gt))
        print(f"psnr {value:.4f}")
    settings = {key: getattr(args, key) for key in (
        "view", "mode", "k_coarse", "k_fine", "nw", "sh_degree", "bilinear_params")}
    settings.update(threads=config.threads, maps_dir=str(args.maps_dir),
                    data_dir=str(args.data_dir))
    _write_manifest(out.parent, "render", None, settings,
                    [str(args.data_dir), str(args.maps_dir)], outputs, start)
    print(f"rendered view {args.view} -> {out}")
    return 0


def _parse_view_list(text: str) -> list:
    if not text:
        return []
    return [int(tok) for tok in text.split(",") if tok != ""]


def cmd_optimize(args) -> int:
    start = time.perf_counter()
    cameras, meta = _load_cameras(args.data_dir)
    config = optim.TrainConfig(
        lambda_render=args.lambda_render,
        lambda_consist=args.lambda_consist,
        lambda_depth=args.lambda_depth,
        batch_size=args.batch,
        steps=args.steps,
        seed=args.seed,
        n_working=args.nw,
        k_samples=args.k,
        k_fine=args.k_fine,
        learning_rate=args.lr,
        sh_degree=args.sh_degree,
        background=tuple(meta["background"]),
        sampling_mode={"uniform": "uniform", "c2f": "coarse_to_fine"}[args.sampling_mode],
        eval_interval=args.eval_interval,
        consist_variant=args.consist_variant,
        consist_flow=args.consist_flow,
    )
    eval_views = _parse_view_list(args.eval_views)
    views = _load_render_views(args.data_dir, cameras, args.init_dir, exclude=eval_views)
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
    for idx in eval_views:
        if idx not in cameras or idx not in images:
            raise InputError(f"eval view {idx} not present in the data directory")
        holdout[idx] = (cameras[idx], imgio.read_ppm(images[idx]))
        _check_size(images[idx], holdout[idx][1].shape, cameras[idx])

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    cfg_dict = asdict(config)
    cfg_dict["eval_views"] = eval_views
    cfg_dict["init_dir"] = str(args.init_dir)
    cfg_dict["data_dir"] = str(args.data_dir)
    _write_manifest(out, "optimize", args.seed, cfg_dict,
                    [str(args.data_dir), str(args.init_dir)],
                    [str(out / imgio.view_name(i, "nray")) for i in sorted(data.maps)], start)
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
        _write_manifest(csv_path.parent, "eval", None,
                        {"rendered": str(args.rendered_dir), "gt": str(args.gt_dir)},
                        [str(args.rendered_dir), str(args.gt_dir)], [str(csv_path)], start)
    return 0


def cmd_bench(args) -> int:
    start = time.perf_counter()
    working, meta = _query_working_set(args, cap=True)
    nw = working.n_views
    background = tuple(meta["background"])
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

    uniform_cfg = RenderConfig(
        k_coarse=args.k_uniform, mode="uniform", n_working=nw,
        background=background, sh_degree=args.sh_degree, **_threads(args),
    )
    c2f_cfg = RenderConfig(
        k_coarse=args.k_coarse, k_fine=args.k_fine, mode="coarse_to_fine",
        n_working=nw, background=background, sh_degree=args.sh_degree,
        **_threads(args),
    )
    img_u, time_u, snap_u = run(f"uniform k={args.k_uniform}", uniform_cfg)
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
        settings = {"view": args.view, "k_uniform": args.k_uniform, "k_coarse": args.k_coarse,
                    "k_fine": args.k_fine, "nw": nw, "kr": args.kr,
                    "threads": uniform_cfg.threads}
        _write_manifest(out.parent, "bench", None, settings,
                        [str(args.data_dir), str(args.maps_dir)], [str(out)], start)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rayvis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="render ground-truth data from a scene file")
    p.add_argument("scene", help="scene description (JSON)")
    p.add_argument("out_dir", help="output data directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init", help="initialize distribution maps from depth maps")
    p.add_argument("data_dir", help="data directory from synth")
    p.add_argument("out_dir", help="output map directory")
    p.add_argument("--sigma-init", type=float, default=0.005, dest="sigma_init")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0,
                   help="depth noise as a fraction of scene scale")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("render", help="render a query view from maps and images")
    p.add_argument("--data", required=True, dest="data_dir")
    p.add_argument("--maps", required=True, dest="maps_dir")
    p.add_argument("--view", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gt", default=None, help="ground-truth PPM for PSNR")
    p.add_argument("--float-out", default=None, dest="float_out")
    p.add_argument("--mode", choices=["uniform", "c2f"], default="uniform")
    p.add_argument("--k-coarse", type=int, default=64, dest="k_coarse")
    p.add_argument("--k-fine", type=int, default=64, dest="k_fine")
    p.add_argument("--nw", type=int, default=8)
    p.add_argument("--sh-degree", type=int, default=3, dest="sh_degree")
    p.add_argument("--bilinear-params", action="store_true", dest="bilinear_params")
    p.add_argument("--threads", type=int, default=None,
                   help="rendering threads (default: every usable CPU)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("optimize", help="optimize distribution maps on a scene")
    p.add_argument("--data", required=True, dest="data_dir")
    p.add_argument("--init", required=True, dest="init_dir")
    p.add_argument("--out", required=True, dest="out_dir")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--lambda-render", type=float, default=1.0, dest="lambda_render")
    p.add_argument("--lambda-consist", type=float, default=0.25, dest="lambda_consist")
    p.add_argument("--lambda-depth", type=float, default=0.1, dest="lambda_depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--k-fine", type=int, default=16, dest="k_fine")
    p.add_argument("--sampling-mode", choices=["uniform", "c2f"],
                   default="uniform", dest="sampling_mode")
    p.add_argument("--nw", type=int, default=8)
    p.add_argument("--sh-degree", type=int, default=3, dest="sh_degree")
    p.add_argument("--eval-views", default="", dest="eval_views",
                   help="comma-separated held-out view indices")
    p.add_argument("--eval-interval", type=int, default=500, dest="eval_interval")
    p.add_argument("--consist-variant", choices=["binary", "categorical"],
                   default="binary", dest="consist_variant")
    p.add_argument("--consist-flow", choices=["stop_h", "symmetric"],
                   default="stop_h", dest="consist_flow")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--checkpoint-interval", type=int, default=None,
                   dest="checkpoint_interval")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eval", help="PSNR table between two image directories")
    p.add_argument("rendered_dir")
    p.add_argument("gt_dir")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="counter and timing report for both render modes")
    p.add_argument("--data", required=True, dest="data_dir")
    p.add_argument("--maps", required=True, dest="maps_dir")
    p.add_argument("--view", type=int, required=True)
    p.add_argument("--k-uniform", type=int, default=128, dest="k_uniform")
    p.add_argument("--k-coarse", type=int, default=32, dest="k_coarse")
    p.add_argument("--k-fine", type=int, default=8, dest="k_fine")
    p.add_argument("--nw", type=int, default=8)
    p.add_argument("--sh-degree", type=int, default=3, dest="sh_degree")
    p.add_argument("--kr", type=int, default=32)
    p.add_argument("--threads", type=int, default=None,
                   help="rendering threads (default: every usable CPU)")
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


if __name__ == "__main__":
    sys.exit(main())
