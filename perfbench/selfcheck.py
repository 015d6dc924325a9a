"""Self-checks of the benchmark: exact counts repeat and tracing changes no output.

    python3 -m pytest -q perfbench/selfcheck.py

Each workload runs twice with the same seed and a few operations, traced.
A traced run has an untraced and a traced phase on the same inputs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

SEED = 3
OPS = {"render_uniform": 2, "render_c2f": 4, "train": 6}
EXACT = ("_per_ray", ".rows", ".calls")


def exact_counts(result):
    work, phase = result["work"], result["phases"][1]
    metrics = workloads.tracing.layer_metrics(result["setup"], phase.tracer, work.rays_per_op,
                                              work.k_fine)
    return {k: v for k, (v, _) in metrics.items() if k.endswith(EXACT)}


@pytest.mark.parametrize("name", sorted(OPS))
def test_repeatable_and_unchanged_by_tracing(name):
    first = workloads.run_workload(name, SEED, OPS[name], trace=True)
    second = workloads.run_workload(name, SEED, OPS[name], trace=True)
    work, (untraced, traced) = first["work"], first["phases"]
    assert untraced.failed == 0 and traced.failed == 0
    assert all(work.same_outputs(untraced, traced))
    assert all(work.same_outputs(traced, second["phases"][1]))
    assert exact_counts(first) == exact_counts(second)
    assert exact_counts(first)["render.cdf_evals_per_ray"] > 0


def test_refuses_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    root = bench.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "render_c2f", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
