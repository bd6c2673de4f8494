"""Async streaming-inference server over an accelerator backend.

:class:`StreamingServer` accepts single-sample inference requests,
micro-batches whatever is waiting in its queue (up to the chip's
``max_batch``), executes one chip call per micro-batch, and fans the
detections back out to the awaiting callers.  Batching is what makes
a photonic accelerator worth serving: the per-call overhead
(``batch_overhead_s``) amortizes over the batch, so throughput scales
with occupancy (pinned by ``benchmarks/test_perf_streaming.py``).

After every micro-batch the server scores the chip against the served
target and feeds a :class:`~repro.hardware.monitor.RollingMonitor`;
when the rolling window crosses its threshold the server runs its
recalibrator (inline, or through the PR 7 job queue — see
:mod:`repro.hardware.recalibration`), reprograms the chip, and resets
the window.  This is the closed loop the paper's static noise analysis
stops short of: serve -> drift -> detect -> recalibrate -> keep
serving.

Failures stay local.  A recalibrator that raises is recorded as a
``recalibrations`` entry with ``applied: False`` and an ``error``
string, the window resets (so a retry waits for a full window of
fresh scores), and serving goes on with the stale calibration.  A
failed chip call fails only the requests of its micro-batch; if the
batcher itself dies, every request still queued is failed with its
exception, and :meth:`StreamingServer.stop` always resets the server.

Determinism: the server is single-threaded asyncio.  For a fixed
workload driven by :meth:`serve` / :meth:`serve_sync`, every request is
enqueued before the batcher drains, so the micro-batch decomposition —
and therefore the virtual-time trajectory, the drift evolution, and
the entire report — is a pure function of (chip seed, workload,
thresholds).  Pinned byte-identical by ``tests/hardware/test_server.py``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Sequence

import numpy as np

from .base import AcceleratorBackend
from .monitor import RollingMonitor

__all__ = ["StreamingServer"]

_STOP = object()


class StreamingServer:
    """Micro-batching inference server with online recalibration.

    Parameters
    ----------
    chip: the :class:`AcceleratorBackend` to serve.
    target: the K x K transfer the chip is supposed to realize; used
        to score fidelity after each micro-batch.  ``None`` disables
        monitoring (plain batching server).
    monitor: trigger policy; defaults to a fresh
        :class:`RollingMonitor` when a target is given.
    recalibrate: callable ``(chip, target) -> dict`` invoked on
        trigger (e.g. :class:`~repro.hardware.recalibration.
        InlineRecalibrator`).  ``None`` records triggers without
        acting — useful to measure uncompensated drift.
    max_batch: micro-batch ceiling; clamped to the chip capability.
    """

    def __init__(
        self,
        chip: AcceleratorBackend,
        target: Optional[np.ndarray] = None,
        monitor: Optional[RollingMonitor] = None,
        recalibrate: Optional[Callable] = None,
        max_batch: Optional[int] = None,
    ):
        self.chip = chip
        caps = chip.capabilities()
        self.max_batch = (caps.max_batch if max_batch is None
                          else min(int(max_batch), caps.max_batch))
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        self.target = None if target is None else np.asarray(target)
        if monitor is None and self.target is not None:
            monitor = RollingMonitor()
        self.monitor = monitor
        self.recalibrate = recalibrate
        self._queue: Optional[asyncio.Queue] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self.n_requests = 0
        self.n_batches = 0
        self.batch_sizes: List[int] = []
        self.fidelity_trace: List[float] = []
        self.recalibrations: List[dict] = []

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the batcher inside a running event loop."""
        if self._batcher_task is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue()
        self._batcher_task = asyncio.get_running_loop().create_task(
            self._batcher())

    async def stop(self) -> None:
        """Drain outstanding requests, then stop the batcher.  The
        server is reset even when the batcher died, so it can be
        started again."""
        if self._batcher_task is None:
            return
        try:
            self._queue.put_nowait(_STOP)
            await self._batcher_task
        finally:
            self._batcher_task = None
            self._queue = None

    # -- request path ---------------------------------------------------
    async def submit(self, x: np.ndarray) -> np.ndarray:
        """One inference request: a (K,) input -> its (K,) detections.

        Requests queued together ride the same chip call.
        """
        if self._queue is None:
            raise RuntimeError("server not started; call start() first")
        if self._batcher_task.done():
            task = self._batcher_task
            raise RuntimeError("server batcher has stopped; call stop()") from (
                None if task.cancelled() else task.exception())
        fut = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((np.asarray(x), fut))
        return await fut

    async def _batcher(self) -> None:
        try:
            await self._drain()
        except BaseException as exc:
            # Whatever stopped the batcher, no queued caller waits forever.
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is _STOP or item[1].done():
                    continue
                if isinstance(exc, asyncio.CancelledError):
                    item[1].cancel()
                else:
                    item[1].set_exception(exc)
            raise

    async def _drain(self) -> None:
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _STOP:
                return
            pending = [item]
            while len(pending) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    stopping = True
                    break
                pending.append(nxt)
            self._execute_batch(pending)

    def _execute_batch(self, pending: list) -> None:
        xs = np.stack([x for x, _ in pending])
        try:
            detections = self.chip.execute(xs)
        except Exception as exc:
            for _, fut in pending:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for (_, fut), det in zip(pending, detections):
            if not fut.done():  # a cancelled caller is skipped
                fut.set_result(det)
        self.n_requests += len(pending)
        self.n_batches += 1
        self.batch_sizes.append(len(pending))
        self._after_batch()

    def _after_batch(self) -> None:
        if self.monitor is None or self.target is None:
            return
        score = self.chip.fidelity_to(self.target)
        self.fidelity_trace.append(float(score))
        if not self.monitor.record(score):
            return
        if self.recalibrate is None:
            self.recalibrations.append(
                {"batch_index": self.n_batches - 1, "applied": False})
            return
        batch_index = self.n_batches - 1
        try:
            entry = dict(self.recalibrate(self.chip, self.target))
        except Exception as exc:
            # Keep serving on the stale calibration; the reset below
            # defers the next attempt by a full window of fresh scores.
            entry = {"batch_index": batch_index, "applied": False,
                     "error": f"{type(exc).__name__}: {exc}"}
        else:
            entry["batch_index"] = batch_index
            entry["applied"] = True
            entry["fidelity_after"] = float(
                self.chip.fidelity_to(self.target))
        self.recalibrations.append(entry)
        # Scores in the window describe the pre-reprogram chip.
        self.monitor.reset()

    # -- fixed workloads ------------------------------------------------
    async def serve(self, inputs: Sequence[np.ndarray],
                    wave_size: Optional[int] = None) -> List[np.ndarray]:
        """Serve a fixed workload; returns detections in input order.

        All requests of a wave are enqueued before the batcher runs
        (single-threaded asyncio), so the micro-batch decomposition is
        deterministic: consecutive chunks of ``max_batch``.
        ``wave_size`` splits the workload into arrival waves — each
        wave completes before the next is enqueued, modelling bursty
        traffic (and bounding the micro-batch size from above).
        """
        if wave_size is not None and int(wave_size) < 1:
            raise ValueError(f"wave_size must be >= 1, got {wave_size}")
        if not len(inputs):
            return []
        owns_loop = self._batcher_task is None
        if owns_loop:
            self.start()
        try:
            results: List[np.ndarray] = []
            wave = len(inputs) if wave_size is None else int(wave_size)
            for lo in range(0, len(inputs), wave):
                chunk = inputs[lo:lo + wave]
                results.extend(await asyncio.gather(
                    *(self.submit(x) for x in chunk)))
            return results
        finally:
            if owns_loop:
                await self.stop()

    def serve_sync(self, inputs: Sequence[np.ndarray],
                   wave_size: Optional[int] = None) -> List[np.ndarray]:
        """:meth:`serve` from synchronous code (CLI, tests, benchmarks)."""
        return asyncio.run(self.serve(inputs, wave_size=wave_size))

    # -- reporting ------------------------------------------------------
    def report(self) -> dict:
        """JSON-native serving report (stats, monitor state, chip
        clock, recalibration trace) — canonical-JSON stable for
        fixed-seed workloads."""
        out = {
            "n_requests": self.n_requests,
            "n_batches": self.n_batches,
            "batch_sizes": list(self.batch_sizes),
            "max_batch": self.max_batch,
            "fidelity_trace": [float(f) for f in self.fidelity_trace],
            "recalibrations": [dict(r) for r in self.recalibrations],
            "monitor": None if self.monitor is None
            else self.monitor.snapshot(),
        }
        virtual_t = getattr(self.chip, "virtual_time_s", None)
        if virtual_t is not None:
            out["virtual_time_s"] = float(virtual_t)
        return out
