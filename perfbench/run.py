"""Run one workload of the rayvis benchmark and print its metrics.

    python3 perfbench/run.py --workload render_uniform --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the machine block, goes to
``perfbench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if ((index / "level").read_text().strip() == str(level)
                    and (index / "type").read_text().strip() != "Instruction"):
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "seed": seed,
    }


def end_to_end(result: dict):
    """End-to-end metrics of the untraced phase, plus what is only reported."""
    work, phase = result["work"], result["phases"][0]
    lat = [t for t, ok in zip(phase.tracer.latencies(), phase.ok) if ok]
    metrics = {
        "setup_s": (statistics.median(result["setup"].latencies("setup")), "s"),
        "rays_per_s": (work.rays_per_op * len(lat) / phase.timed_s, "rays/s"),
        "latency_s_p50": (statistics.median(lat), "s"),
        "psnr_db": (phase.psnr_db, "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"latency_samples": len(lat), "latencies_s": lat}
    if len(lat) >= 100:     # at least ten samples beyond the 90th percentile
        extra["latency_s_p90"] = statistics.quantiles(lat, n=10)[-1]
    return metrics, extra


def per_layer(result: dict):
    import tracing

    work, (untraced, traced) = result["work"], result["phases"]
    metrics = tracing.layer_metrics(result["setup"], traced.tracer, work.rays_per_op,
                                    work.k_fine)
    metrics["optim.save_checkpoint.bytes"] = (traced.extra.get("checkpoint_bytes", 0), "B")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.tracer.latencies())
        / statistics.median(untraced.tracer.latencies()) - 1.0, "fraction")
    return metrics, {}


def run_one(args, workloads) -> int:
    work = workloads.WORKLOADS[args.workload]
    n_ops = work.n_ops(args.seconds)
    result = workloads.run_workload(args.workload, args.seed, n_ops, bool(args.trace))
    metrics, extra = (per_layer if args.trace else end_to_end)(result)
    phases = result["phases"]
    attempted = sum(len(p.ok) for p in phases)
    failed = sum(p.failed for p in phases)
    if not all(isinstance(v, (int, float)) and v == v for v, _ in metrics.values()):
        print(f"run.py: {args.workload} produced no usable measurement "
              f"({failed} of {attempted} operations failed)", file=sys.stderr)
        return 1

    info = machine(args.seed)
    extra.update(error_rate=failed / attempted, **phases[-1].extra)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"workload": args.workload, "seconds": args.seconds, "operations": n_ops,
            "machine": info, "metrics": {k: {"value": v, "unit": u}
                                         for k, (v, u) in metrics.items()},
            "reported": extra, "attempted": attempted, "failed": failed}
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1, default=str) + "\n")
    if args.trace:
        spans = {"setup": result["setup"].dump(), "traced": phases[1].tracer.dump()}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans, default=str) + "\n")

    print("machine " + json.dumps(info))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  {name:<40} {value:.6g}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="render_uniform, render_c2f, train or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        import workloads
    except ImportError as exc:
        print(f"run.py: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not workloads.SCENE_FILE.is_file():
        print(f"run.py: missing scene file {workloads.SCENE_FILE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
