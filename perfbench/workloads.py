"""The benchmark's three workloads and the harness that times them.

Each workload is built once (its set-up), then runs whole *units* of
work until the time budget is spent: one pass of the design flow, one
sharded campaign, or one serving session of 4,096 requests.  A unit
reports the wall time of each of its phases, a JSON-native output that
must repeat exactly at one seed, and how many operations it attempted
and how many failed.

Why these three (see README.md for the full table):

* ``design-flow`` is what a user of the paper's method waits for:
  search, retrain inside VGG-8, Monte-Carlo phase-noise check.  Its
  time goes to conv lowering, ``Tensor.backward`` and the complex64
  trial lane.
* ``campaign-sharded`` has nearly free cells, so its time is campaign
  expansion plus queue and worker overhead, with no autograd or conv.
* ``chip-serve`` is the only user of the hardware layer: small-tensor
  autograd and fused mesh kernels, no conv.  It is the contrast to
  ``design-flow`` for any change to ``nn``.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from probes import Probes, Recorder

# -- one unit of work --------------------------------------------------


@dataclass
class Unit:
    """What one unit of work reports to the harness."""

    phases: Dict[str, float]   # phase -> wall seconds
    output: object             # JSON-native, identical across repeats
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)


class Clock:
    """Times named phases; the recorder, if any, listens only inside."""

    def __init__(self, recorder: Optional[Recorder] = None):
        self.recorder = recorder
        self.phases: Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        if self.recorder is not None:
            self.recorder.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (self.phases.get(name, 0.0)
                                 + time.perf_counter() - t0)
            if self.recorder is not None:
                self.recorder.enabled = False


def _digest(obj) -> str:
    from repro.utils.serialization import json_digest

    return json_digest(obj)


# -- design-flow -------------------------------------------------------


class DesignFlow:
    """ADEPT search (K=16, Table 1 ADEPT-a2 AMF window, MNIST proxy),
    VGG-8 retrain of the found topology (FashionMNIST proxy, paper
    Table 3), then the Fig. 4 phase-noise grid on the trained model.

    The seed draws the datasets; the search, the weight init and the
    noise draws use the fixed :attr:`ALGO_SEED`, as a user would.
    Accuracies at this budget vary by 10-20% between datasets, too much
    for a bounded metric, so they are guarded by floors instead: well
    above chance (10%), well below what any seed reached in tuning.
    """

    name = "design-flow"
    min_units = 2               # the repeat is the determinism check
    WINDOW_KUM2 = (672.0, 840.0)
    NOISE_STDS = (0.02, 0.04, 0.06, 0.08, 0.10)
    WIDTH = 0.125               # VGG-8 channel multiplier
    ALGO_SEED = 0

    def __init__(self, seed: int, work_dir: Path, n_search: int = 192,
                 n_search_test: int = 128, search_epochs: int = 12,
                 n_train: int = 256, n_test: int = 256, train_epochs: int = 5,
                 noise_runs: int = 2,
                 min_test_acc: float = 0.4, min_robust_acc: float = 0.15):
        from repro.data import train_test_split

        self.min_test_acc = min_test_acc
        self.min_robust_acc = min_robust_acc
        self.search_epochs = search_epochs
        self.train_epochs = train_epochs
        self.noise_runs = noise_runs
        self.mnist = train_test_split("mnist", n_search, n_search_test,
                                      seed=seed)
        self.fmnist = train_test_split("fmnist", n_train, n_test, seed=seed)

    def unit(self, clock: Clock) -> Unit:
        from repro.core import ADEPTConfig, ADEPTSearch
        from repro.core.variation import noise_robustness_curve
        from repro.onn import TrainConfig, build_model, evaluate, train
        from repro.photonics import AMF
        from repro.utils.rng import spawn_rng, stable_seed

        lo, hi = self.WINDOW_KUM2
        epochs = self.search_epochs
        cfg = ADEPTConfig(
            k=16, pdk=AMF, f_min=lo * 1e3, f_max=hi * 1e3, epochs=epochs,
            warmup_epochs=max(1, epochs // 4), spl_epoch=max(1, epochs // 2),
            lr=5e-3, batch_size=16, proxy_channels=6, seed=self.ALGO_SEED,
        )
        with clock.phase("search"):
            topo = ADEPTSearch(cfg, *self.mnist).run().topology
        footprint = topo.footprint(AMF).in_paper_units()

        train_set, test_set = self.fmnist
        with clock.phase("train"):
            rng = spawn_rng(stable_seed("perfbench-vgg8", self.ALGO_SEED))
            model = build_model(
                "vgg8", topo, k=16, in_channels=train_set.images.shape[1],
                image_size=train_set.images.shape[2], width_mult=self.WIDTH,
                rng=rng)
            train(model, train_set, None, rng=rng, config=TrainConfig(
                epochs=self.train_epochs, batch_size=32, lr=1e-2))
            acc = evaluate(model, test_set)
        with clock.phase("robustness"):
            curve = noise_robustness_curve(
                model, test_set, noise_stds=self.NOISE_STDS,
                n_runs=self.noise_runs, seed=self.ALGO_SEED)

        failed = int(not lo <= footprint <= hi)
        failed += int(not acc >= self.min_test_acc)
        failed += int(not curve[-1].mean_acc >= self.min_robust_acc)
        return Unit(
            phases=clock.phases,
            output={
                "topology": topo.to_json(),
                "footprint_kum2": footprint,
                "test_acc": acc,
                "curve": [[p.noise_std, p.mean_acc, p.std_acc] for p in curve],
            },
            attempted=3, failed=failed,
        )

    def final_checks(self, units: List[Unit]) -> Dict[str, bool]:
        return {}

    def quality(self, units: List[Unit]) -> dict:
        first = units[0].output
        return {"train_acc_pct": 100.0 * first["test_acc"],
                "robust_acc_pct": 100.0 * first["curve"][-1][1]}


# -- campaign-sharded --------------------------------------------------


class CampaignSharded:
    """A ``power`` campaign (design x seeds) on a 2-worker service pool."""

    name = "campaign-sharded"
    min_units = 1
    N_WORKERS = 2

    def __init__(self, seed: int, work_dir: Path, n_seeds: int = 200):
        from repro.campaign import CampaignSpec

        self.work_dir = Path(work_dir)
        self.spec = CampaignSpec(
            name=f"perfbench-power-{seed}", kind="power",
            axes={"design": ["mzi", "fft", "adept"],
                  "seed": [seed * 1000 + i for i in range(n_seeds)]},
            base={"k": 8, "pdk": "amf", "window_kum2": [240.0, 300.0]},
            artifacts=[],
        )
        self.n_cells = 3 * n_seeds
        self._n_runs = 0

    def unit(self, clock: Clock) -> Unit:
        from repro.campaign import run_campaign
        from repro.service.queue import JobQueue

        root = self.work_dir / f"campaign-{self._n_runs}"
        self._n_runs += 1
        try:
            with clock.phase("campaign"):
                run = run_campaign(self.spec, root=root,
                                   n_workers=self.N_WORKERS, timeout=150.0)
            queue = JobQueue(root / "queue.sqlite")
            try:
                history = queue.history()
            finally:
                queue.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        payload = run.to_dict()
        done = sum(1 for r in run.results
                   if math.isfinite(r.get("total_power_mw", math.nan)))
        return Unit(
            phases=clock.phases, output=_digest(payload),
            attempted=self.n_cells, failed=self.n_cells - done,
            extra=_queue_figures(history),
        )

    def final_checks(self, units: List[Unit]) -> Dict[str, bool]:
        from repro.campaign import run_campaign

        inline = _digest(run_campaign(self.spec).to_dict())
        return {"sharded_equals_inline": units[0].output == inline}


def _queue_figures(history: List[dict]) -> dict:
    created, claimed = {}, {}
    for row in history:
        if row["entity"] != "shard":
            continue
        key = (row["job_id"], row["idx"])
        if row["from_state"] is None:
            created[key] = row["at"]
        elif row["to_state"] == "running" and key not in claimed:
            claimed[key] = row["at"]
    waits = [claimed[k] - created[k] for k in claimed if k in created]
    return {
        "transitions": len(history),
        "retries": sum(r["reason"] == "retry" for r in history),
        "lease_expiries": sum(r["reason"] == "lease-expired" for r in history),
        "shard_wait_ms_p50": 1e3 * statistics.median(waits) if waits else 0.0,
    }


# -- chip-serve --------------------------------------------------------


class ChipServe:
    """A drifting K=8 virtual chip behind the streaming server, with
    the ``chip serve`` CLI's virtual costs and recalibration policy.
    One closed-loop client sends waves of 8 and waits for each.

    The chip is one fixed part (:attr:`CHIP_SEED`); the seed draws the
    requests.  Drift, and so the recalibration schedule, depends only
    on the chip and the batch sizes, so every seed costs the same.
    """

    name = "chip-serve"
    min_units = 2               # the repeat is the determinism check
    K = 8
    N_BLOCKS = 8
    MAX_BATCH = 16
    WAVE = 8
    CHIP_SEED = 0
    MIN_FIDELITY = 0.98         # mean tracked fidelity of a session

    def __init__(self, seed: int, work_dir: Path, n_requests: int = 4096):
        from repro.core.topology import random_topology
        from repro.utils.rng import spawn_rng, stable_seed

        rng = spawn_rng(stable_seed("perfbench-chip-inputs", seed))
        self.inputs = [rng.normal(size=self.K) for _ in range(n_requests)]
        self.topology = random_topology(
            self.K, self.N_BLOCKS, 0,
            rng=spawn_rng(stable_seed("perfbench-chip-topology",
                                      self.CHIP_SEED)))
        self._next = self._session()

    def _session(self):
        """A freshly built, calibrated chip and its server."""
        from repro.hardware import (InlineRecalibrator, RollingMonitor,
                                    SimulatedChip, StreamingServer)
        from repro.photonics import DriftSpec

        chip = SimulatedChip(
            self.topology, drift=DriftSpec(phase_walk_std=0.02),
            seed=self.CHIP_SEED, max_batch=self.MAX_BATCH,
            batch_overhead_s=0.5, sample_time_s=0.05)
        target = SimulatedChip(self.topology,
                               seed=self.CHIP_SEED).transfer_matrix()
        recal = InlineRecalibrator(steps=150, seed=self.CHIP_SEED)
        recal(chip, target)
        return StreamingServer(
            chip, target=target,
            monitor=RollingMonitor(window=8, trigger_below=0.985),
            recalibrate=recal, max_batch=self.MAX_BATCH)

    def unit(self, clock: Clock) -> Unit:
        import numpy as np

        server, self._next = self._next, None
        waves_ms: List[float] = []
        results: list = []

        async def client():
            server.start()
            try:
                for lo in range(0, len(self.inputs), self.WAVE):
                    t0 = time.perf_counter()
                    results.extend(await asyncio.gather(
                        *(server.submit(x)
                          for x in self.inputs[lo:lo + self.WAVE]),
                        return_exceptions=True))
                    waves_ms.append(1e3 * (time.perf_counter() - t0))
            finally:
                await server.stop()

        with clock.phase("serve"):
            asyncio.run(client())
        self._next = self._session()

        ok = [r for r in results
              if isinstance(r, np.ndarray) and r.shape == (self.K,)
              and bool(np.all(np.isfinite(r)))]
        report = server.report()
        applied = sum(1 for r in report["recalibrations"] if r["applied"])
        fidelity = statistics.fmean(report["fidelity_trace"])
        failed = (len(self.inputs) - len(ok) + int(applied == 0)
                  + int(not fidelity >= self.MIN_FIDELITY))
        return Unit(
            phases=clock.phases,
            output={"report": _digest(report),
                    "detections": _digest([float(v) for r in ok for v in r])},
            attempted=len(self.inputs) + 2, failed=failed,
            extra={"waves_ms": waves_ms, "fidelity_mean": fidelity},
        )

    def final_checks(self, units: List[Unit]) -> Dict[str, bool]:
        return {}

    def quality(self, units: List[Unit]) -> dict:
        return {"fidelity_mean": units[0].extra["fidelity_mean"]}


WORKLOADS = {w.name: w for w in (DesignFlow, CampaignSharded, ChipServe)}


def unit_seconds(units: List[Unit]) -> float:
    """Wall time of the run's fastest unit: what its user waits.

    The fastest, not the median: on a shared 2-vCPU host, interpreter
    speed drops by up to 1.7x for tens of seconds at a time, often for
    most of a run, and that moved ten-run spreads of the median
    chip-serve session to 0.29-0.32, past the widest bound allowed.
    The fastest session's spread was 0.09.
    """
    return min(sum(u.phases.values()) for u in units)


TAIL_BEYOND = 10


def tail(sorted_values: List[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    return sorted_values[max(0, len(sorted_values) - TAIL_BEYOND - 1)]


# -- the harness -------------------------------------------------------


def _median_phase(units: List[Unit], phase: str) -> float:
    return statistics.median(u.phases.get(phase, 0.0) for u in units)


def peak_rss_mb() -> float:
    """High-water resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: A traced run times this many warm-up units untraced, then one traced.
TRACED_UNIT = 2


def setup(name: str, seed: int, work_dir: Path, sizes: Optional[dict] = None):
    return WORKLOADS[name](seed, work_dir, **(sizes or {}))


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        sizes: Optional[dict] = None) -> dict:
    """Set up one workload, run its units, check them; return a result.

    Untraced, units repeat until ``seconds`` would be exceeded (at least
    the workload's ``min_units``).  Traced, exactly three units run: two
    without probes, the third with them, so the result also carries the
    probes' overhead against a warm untraced unit and a
    traced-vs-untraced output check.
    """
    work_dir = Path(work_dir)
    spans_dir = work_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    probes = Probes(recorder, spans_dir)
    if trace:
        probes.install()
        recorder.enabled = True
    try:
        workload = setup(name, seed, work_dir, sizes)
    finally:
        recorder.enabled = False
        if trace:
            probes.uninstall()
    ready = time.monotonic()

    units: List[Unit] = []
    walls: List[float] = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(units) == TRACED_UNIT
        if traced:
            probes.install()
        try:
            u0 = time.perf_counter()
            units.append(workload.unit(Clock(recorder if traced else None)))
            walls.append(time.perf_counter() - u0)
        finally:
            if traced:
                recorder.merge_dir(spans_dir)
                probes.uninstall()
        if trace:
            if len(units) > TRACED_UNIT:
                break
        elif (len(units) >= workload.min_units and time.perf_counter() - t0
              + statistics.median(walls) > seconds):
            break

    checks = {"repeats_identical":
              all(u.output == units[0].output for u in units[1:])}
    checks.update(workload.final_checks(units))
    attempted = sum(u.attempted for u in units) + len(checks)
    failed = sum(u.failed for u in units) + sum(not ok for ok in checks.values())
    result = {
        "ready_monotonic": ready,
        "units": len(units),
        "unit_samples_s": [sum(u.phases.values()) for u in units],
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "quality": getattr(workload, "quality", lambda units: {})(units),
        "outputs": [u.output for u in units],
    }
    if trace:
        result["layers"] = layer_metrics(recorder, units, walls)
    else:
        result["metrics"] = {
            "unit_s": unit_seconds(units),
            "peak_rss_mb": peak_rss_mb(),
            "ok_ratio": 1.0 - failed / attempted,
        }
    return result


def layer_metrics(rec: Recorder, units: List[Unit], walls: List[float]) -> dict:
    """Per-layer figures of set-up plus the traced (last) unit.

    Phase times and the wave tail come from the untraced units instead,
    so the probes' overhead is not in them.
    """
    s, c = rec.seconds, rec.counts
    hits, misses = c["ptc.cache_hits"], c["ptc.cache_misses"]
    cells_run = c["campaign.cell"]
    service = units[-1].extra if "transitions" in units[-1].extra else {}
    untraced = units[:-1]
    waves = sorted(w for u in untraced for w in u.extra.get("waves_ms", ()))
    return {
        "phase.search_s": _median_phase(untraced, "search"),
        "phase.train_s": _median_phase(untraced, "train"),
        "phase.robustness_s": _median_phase(untraced, "robustness"),
        "serve.wave_ms_tail": tail(waves) if waves else 0.0,
        "autograd.backward_s": s["autograd.backward"],
        "autograd.backward_calls": c["autograd.backward"],
        "autograd.fused_s": s["autograd.fused"],
        "autograd.fused_calls": c["autograd.fused"],
        "autograd.fused_forward_s": s["autograd.fused_forward"],
        "autograd.fused_forward_calls": c["autograd.fused_forward"],
        "nn.conv2d_s": s["nn.conv2d"],
        "nn.conv2d_calls": c["nn.conv2d"],
        "nn.im2col_bytes": c["nn.im2col_bytes"],
        "optim.step_s": s["optim.step"],
        "optim.steps": c["optim.step"],
        "ptc.build_s": s["ptc.build"],
        "ptc.build_calls": c["ptc.build"],
        "ptc.build_trials_s": s["ptc.build_trials"],
        "ptc.trials": c["ptc.trials"],
        "ptc.cache_hits": hits,
        "ptc.cache_misses": misses,
        "ptc.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.supermesh_sample_s": s["core.supermesh_sample"],
        "core.spl_s": s["core.spl"],
        "core.penalty_s": s["core.penalty"],
        "core.noise_grid_s": s["core.noise_grid"],
        "onn.evaluate_s": s["onn.evaluate"],
        "data.synth_s": s["data.synth"],
        "campaign.expand_s": s["campaign.expand"],
        "campaign.expand_calls": c["campaign.expand"],
        "campaign.cells_expanded": c["campaign.cells_expanded"],
        "campaign.cells_run": cells_run,
        "campaign.expand_per_cell": (c["campaign.cells_expanded"] / cells_run
                                     if cells_run else 0.0),
        "campaign.cell_s": s["campaign.cell"],
        "service.claim_s": s["service.claim"],
        "service.complete_s": s["service.complete"],
        "service.finalize_s": s["service.finalize"],
        "service.shard_wait_ms_p50": service.get("shard_wait_ms_p50", 0.0),
        "service.transitions": service.get("transitions", 0),
        "service.retries": service.get("retries", 0),
        "service.lease_expiries": service.get("lease_expiries", 0),
        "hardware.execute_s": s["hardware.execute"],
        "hardware.execute_calls": c["hardware.execute"],
        "hardware.batch_size_mean": (c["hardware.samples"]
                                     / c["hardware.execute"]
                                     if c["hardware.execute"] else 0.0),
        "hardware.fidelity_s": s["hardware.fidelity"],
        "hardware.recal_s": s["hardware.recal"],
        "hardware.recalibrations": c["hardware.recal"],
        "hardware.calib_measurements": c["hardware.calib_measurements"],
        # Against the warm untraced unit just before, not the cold first.
        "trace.overhead_pct": 100.0 * (walls[-1] / walls[-2] - 1.0),
    }


# -- the workload interpreter ------------------------------------------


def fingerprint(seed: int) -> dict:
    """The machine and library versions a result was measured on."""
    import os
    import platform

    import numpy
    import scipy

    from repro.autograd.backend import default_backend

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "exec_backend": default_backend().name,
        "seed": seed,
    }


def main(argv=None) -> int:
    import argparse
    import json

    p = argparse.ArgumentParser(description="run one perfbench workload")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    args.work_dir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        setup(args.workload, args.seed, args.work_dir)
        print(json.dumps({"ready_monotonic": time.monotonic()}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.work_dir)
    del result["outputs"]
    result["fingerprint"] = fingerprint(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
