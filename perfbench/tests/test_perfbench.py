"""Tests of the benchmark harness: probes, workloads at tiny sizes, CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
MANIFEST = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

import probes  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "design-flow": dict(n_search=48, n_search_test=32, search_epochs=2,
                        n_train=32, n_test=32, train_epochs=1, noise_runs=1,
                        min_test_acc=0.0, min_robust_acc=0.0),
    "campaign-sharded": dict(n_seeds=2),
    "chip-serve": dict(n_requests=512),
}

# Layers each workload must exercise, and layers it must leave alone.
EXERCISED = {
    "design-flow": ["autograd.backward_calls", "autograd.fused_calls",
                    "autograd.fused_forward_calls", "nn.conv2d_calls",
                    "nn.im2col_bytes", "optim.steps", "ptc.build_calls",
                    "ptc.trials", "core.supermesh_sample_s", "core.spl_s",
                    "core.noise_grid_s", "onn.evaluate_s", "data.synth_s"],
    "campaign-sharded": ["campaign.expand_calls", "campaign.cells_expanded",
                         "campaign.cells_run", "campaign.cell_s",
                         "service.claim_s", "service.complete_s",
                         "service.finalize_s", "service.transitions"],
    "chip-serve": ["autograd.backward_calls", "autograd.fused_calls",
                   "optim.steps", "ptc.build_calls", "ptc.cache_hits",
                   "hardware.execute_calls", "hardware.fidelity_s",
                   "hardware.recalibrations", "hardware.calib_measurements"],
}
FLAT = {
    "design-flow": ["campaign.cells_run", "service.transitions",
                    "hardware.execute_calls"],
    "campaign-sharded": ["autograd.backward_calls", "nn.conv2d_calls",
                         "hardware.execute_calls"],
    "chip-serve": ["nn.conv2d_calls", "campaign.cells_run",
                   "service.transitions"],
}


def _binding(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def test_probes_restore_every_original(tmp_path):
    p = probes.Probes(probes.Recorder(), tmp_path)
    p.install()
    try:
        patched = list(p._saved)
        assert len(patched) > len(probes.PROBES)
        for owner, attr, original in patched:
            assert _binding(owner, attr) is not original, (owner, attr)
    finally:
        p.uninstall()
    for owner, attr, original in patched:
        assert _binding(owner, attr) is original, (owner, attr)
    assert not p._saved


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_end_to_end_metrics(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.0, trace=False,
                           work_dir=tmp_path, sizes=TINY[name])
    assert result["failed"] == 0, result["checks"]
    assert result["units"] == workloads.WORKLOADS[name].min_units
    metrics = result["metrics"]
    # Every workload reports every end-to-end metric; run.py adds setup_s.
    assert sorted([*metrics, "setup_s"]) == sorted(
        m["name"] for m in MANIFEST["end_to_end"])
    assert metrics["ok_ratio"] == 1.0
    assert all(v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_unit_matches_untraced(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.0, trace=True,
                           work_dir=tmp_path, sizes=TINY[name])
    assert result["failed"] == 0, result["checks"]
    *untraced, traced = result["outputs"]
    assert len(untraced) == workloads.TRACED_UNIT
    assert all(json.dumps(traced, sort_keys=True)
               == json.dumps(u, sort_keys=True) for u in untraced)
    layers = result["layers"]
    assert sorted(layers) == sorted(m["name"] for m in MANIFEST["per_layer"])
    assert all(layers[key] > 0 for key in EXERCISED[name]), layers
    assert all(layers[key] == 0 for key in FLAT[name]), layers


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "chip-serve", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
