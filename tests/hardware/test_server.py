"""Streaming server: micro-batching, the closed drift/recalibration
loop, byte-identical replay of a full serving scenario, and bounded
failure under injected faults."""

import asyncio

import numpy as np
import pytest

from repro.core.topology import random_topology
from repro.hardware import (
    InlineRecalibrator,
    ProgramValidationError,
    RollingMonitor,
    ServiceRecalibrator,
    SimulatedChip,
    StreamingServer,
)
from repro.photonics import DriftSpec
from repro.utils.rng import spawn_rng, stable_seed
from repro.utils.serialization import canonical_json_dumps


def make_topo():
    return random_topology(6, 3, 0, rng=np.random.default_rng(0))


def make_inputs(n, k=6, seed=0):
    rng = spawn_rng(stable_seed("server-test-inputs", seed))
    return [rng.normal(size=k) for _ in range(n)]


def static_chip(**kwargs):
    kwargs.setdefault("seed", 1)
    kwargs.setdefault("max_batch", 8)
    return SimulatedChip(make_topo(), **kwargs)


class TestMicroBatching:
    def test_queued_requests_share_chip_calls(self):
        chip = static_chip()
        server = StreamingServer(chip)
        server.serve_sync(make_inputs(20))
        assert server.batch_sizes == [8, 8, 4]
        assert chip.n_batches == 3
        assert server.n_requests == 20

    def test_wave_size_bounds_micro_batches(self):
        server = StreamingServer(static_chip())
        server.serve_sync(make_inputs(9), wave_size=3)
        assert server.batch_sizes == [3, 3, 3]

    def test_results_match_unbatched_execution(self):
        chip = static_chip()
        inputs = make_inputs(13)
        results = StreamingServer(chip).serve_sync(inputs)
        reference = static_chip()
        for x, got in zip(inputs, results):
            assert got == pytest.approx(
                reference.execute(x)[0], abs=1e-12)

    def test_batching_amortizes_virtual_time(self):
        batched = static_chip(batch_overhead_s=1.0)
        single = static_chip(batch_overhead_s=1.0)
        inputs = make_inputs(16)
        StreamingServer(batched, max_batch=8).serve_sync(inputs)
        StreamingServer(single, max_batch=1).serve_sync(inputs)
        assert single.virtual_time_s > 2 * batched.virtual_time_s

    def test_empty_workload(self):
        server = StreamingServer(static_chip())
        assert server.serve_sync([]) == []
        assert server.n_batches == 0

    def test_invalid_input_propagates_to_caller(self):
        server = StreamingServer(static_chip())
        with pytest.raises(ProgramValidationError):
            server.serve_sync([np.ones(5)])

    def test_submit_requires_started_server(self):
        import asyncio

        async def bad():
            await StreamingServer(static_chip()).submit(np.ones(6))

        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(bad())

    def test_max_batch_clamped_to_chip_capability(self):
        server = StreamingServer(static_chip(max_batch=4), max_batch=64)
        assert server.max_batch == 4


def run_drift_scenario(recalibrate, n_requests=160, seed=9):
    """One full serving scenario on a drifting chip.

    The chip ages with traffic; the monitor watches rolling fidelity;
    ``recalibrate`` closes the loop.  Returns the serving report plus
    the freshly-calibrated baseline fidelity.
    """
    topo = make_topo()
    chip = SimulatedChip(topo, drift=DriftSpec(phase_walk_std=0.04),
                         seed=seed, batch_overhead_s=1.0,
                         sample_time_s=0.05, max_batch=8)
    target = SimulatedChip(topo, seed=seed).transfer_matrix()
    if recalibrate is not None:
        recalibrate(chip, target)
    baseline = chip.fidelity_to(target)
    monitor = RollingMonitor(window=4, trigger_below=0.99,
                             rearm_above=0.995, min_samples=4)
    server = StreamingServer(chip, target=target, monitor=monitor,
                             recalibrate=recalibrate, max_batch=8)
    server.serve_sync(make_inputs(n_requests, seed=seed), wave_size=16)
    report = server.report()
    report["baseline_fidelity"] = float(baseline)
    return report


class TestDriftRecalibrationLoop:
    def test_loop_detects_and_recovers(self):
        report = run_drift_scenario(InlineRecalibrator(steps=200, lr=0.05))
        trace = report["fidelity_trace"]
        recals = report["recalibrations"]
        # Drift degraded the rolling window enough to trigger at least
        # once, and every recalibration restored the chip to within 1%
        # of the freshly-calibrated baseline.
        assert len(recals) >= 1
        assert min(trace) < 0.99
        for r in recals:
            assert r["applied"]
            assert r["final_error"] < r["initial_error"]
            assert (r["fidelity_after"]
                    >= report["baseline_fidelity"] - 0.01)

    def test_unmonitored_drift_keeps_degrading(self):
        # Same scenario with the loop open: no recovery.
        report = run_drift_scenario(None)
        trace = report["fidelity_trace"]
        assert not report["recalibrations"] or not any(
            r["applied"] for r in report["recalibrations"])
        with_loop = run_drift_scenario(
            InlineRecalibrator(steps=200, lr=0.05))
        assert trace[-1] < with_loop["fidelity_trace"][-1]

    def test_scenario_replay_is_byte_identical(self):
        a = run_drift_scenario(InlineRecalibrator(steps=150, lr=0.05))
        b = run_drift_scenario(InlineRecalibrator(steps=150, lr=0.05))
        assert canonical_json_dumps(a) == canonical_json_dumps(b)

    def test_hysteresis_prevents_trigger_thrash(self):
        # With recalibration disabled the window stays degraded;
        # hysteresis must not re-fire on every batch.
        report = run_drift_scenario(None, n_requests=240)
        monitor = report["monitor"]
        assert monitor["n_triggers"] >= 1
        # Triggers cannot outnumber recoveries + 1; with no recovery
        # path, each trigger needs the mean to climb back over the
        # rearm threshold first, which open-loop drift rarely does.
        assert monitor["n_triggers"] < report["n_batches"] // 4


class TestServiceRecalibration:
    def test_queue_routed_recalibration_matches_inline(self, tmp_path):
        from repro.service import DesignService

        svc = DesignService(tmp_path / "svc")
        try:
            service_report = run_drift_scenario(
                ServiceRecalibrator(svc, steps=150, lr=0.05))
            inline_report = run_drift_scenario(
                InlineRecalibrator(steps=150, lr=0.05))
            # The pure recalibrate job computes the same phases the
            # inline path does, so the entire serving trajectory
            # matches float-for-float.
            assert (service_report["fidelity_trace"]
                    == inline_report["fidelity_trace"])
            assert (service_report["batch_sizes"]
                    == inline_report["batch_sizes"])
            applied = [r for r in service_report["recalibrations"]
                       if r["applied"]]
            assert applied
            for r in applied:
                assert r["job_id"] in {j["id"] for j in svc.jobs()}
                assert svc.status(r["job_id"])["status"] == "done"
        finally:
            svc.close()


def failing_scenario(recalibrate=None):
    """A fast-drifting K=8 chip whose monitor fires after two batches."""
    rng = np.random.default_rng(0)
    topo = random_topology(8, 4, 0, rng=rng)
    chip = SimulatedChip(topo, drift=DriftSpec(phase_walk_std=0.3),
                         seed=1, max_batch=8)
    target = SimulatedChip(topo, seed=1).transfer_matrix()
    server = StreamingServer(
        chip, target=target,
        monitor=RollingMonitor(window=2, trigger_below=0.999),
        recalibrate=recalibrate, max_batch=8)
    return server, [rng.normal(size=8) for _ in range(64)]


def serve_within(server, inputs, timeout=10.0, wave_size=8):
    return asyncio.run(asyncio.wait_for(
        server.serve(inputs, wave_size=wave_size), timeout))


class TestBoundedFailure:
    """A failing dependency is recorded and served through; every
    request resolves and the server can be started again."""

    def test_raising_recalibrator_is_recorded_and_served_through(self, fault):
        recal = fault(InlineRecalibrator(steps=5), 1, times=None)
        server, inputs = failing_scenario(recal)
        results = serve_within(server, inputs)
        assert len(results) == 64 and server.n_requests == 64
        failed = server.recalibrations
        assert failed and recal.calls == len(failed)
        for r in failed:
            assert r == {"batch_index": r["batch_index"], "applied": False,
                         "error": "RuntimeError: injected fault"}
        # The monitor resets after each failure, so a retry needs a full
        # window (two batches) of fresh scores.
        indices = [r["batch_index"] for r in failed]
        assert all(b - a >= 2 for a, b in zip(indices, indices[1:]))

    def test_recalibrator_recovers_after_one_failure(self, fault):
        recal = fault(InlineRecalibrator(steps=5), 1)
        server, inputs = failing_scenario(recal)
        serve_within(server, inputs)
        first, *rest = server.recalibrations
        assert not first["applied"] and "error" in first
        assert rest and all(r["applied"] for r in rest)

    def test_execute_raising_fails_only_its_batch(self, fault):
        server, inputs = failing_scenario()
        server.chip.execute = fault(server.chip.execute, 3)

        async def client():
            server.start()
            try:
                return await asyncio.gather(
                    *(server.submit(x) for x in inputs),
                    return_exceptions=True)
            finally:
                await server.stop()

        results = asyncio.run(asyncio.wait_for(client(), 10.0))
        errors = [i for i, r in enumerate(results)
                  if isinstance(r, RuntimeError)]
        assert errors == list(range(16, 24))
        assert server.n_requests == 56 and server._batcher_task is None

    def test_second_serve_after_a_failure(self, fault):
        server, inputs = failing_scenario()
        server.chip.execute = fault(server.chip.execute, 2)
        with pytest.raises(RuntimeError, match="injected fault"):
            serve_within(server, inputs)
        assert server._batcher_task is None and server._queue is None
        results = serve_within(server, inputs)
        assert len(results) == 64

    @pytest.mark.parametrize("wave_size", [None, 8])
    def test_dead_batcher_fails_queued_and_later_requests(self, fault,
                                                          wave_size):
        server, inputs = failing_scenario(InlineRecalibrator(steps=5))
        server.chip.fidelity_to = fault(server.chip.fidelity_to, 1)
        with pytest.raises(RuntimeError, match="injected fault"):
            serve_within(server, inputs, wave_size=wave_size)
        assert server._batcher_task is None
        server.chip.fidelity_to = server.chip.fidelity_to.fn
        assert len(serve_within(server, inputs)) == 64

    def test_cancelled_caller_does_not_stop_the_batcher(self):
        server, inputs = failing_scenario()

        async def client():
            server.start()
            try:
                doomed = asyncio.ensure_future(server.submit(inputs[0]))
                await asyncio.sleep(0)
                doomed.cancel()
                return await asyncio.gather(
                    *(server.submit(x) for x in inputs[1:9]))
            finally:
                await server.stop()

        assert len(asyncio.run(asyncio.wait_for(client(), 10.0))) == 8

    def test_cancelled_batcher_cancels_queued_requests(self):
        server, inputs = failing_scenario()

        async def client():
            server.start()
            await asyncio.sleep(0)  # the batcher waits on an empty queue
            calls = [asyncio.ensure_future(server.submit(x))
                     for x in inputs[:3]]
            await asyncio.sleep(0)  # all three are queued, none batched
            server._batcher_task.cancel()
            results = await asyncio.gather(*calls, return_exceptions=True)
            with pytest.raises(asyncio.CancelledError):
                await server.stop()
            return results

        results = asyncio.run(asyncio.wait_for(client(), 10.0))
        assert all(isinstance(r, asyncio.CancelledError) for r in results)
        assert server._batcher_task is None
