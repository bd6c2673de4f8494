"""Per-layer timing probes, installed from outside the program.

A :class:`Probes` object wraps the public entry points of each layer of
``repro`` (autograd, nn, optim, ptc, core, onn, data, campaign, service,
hardware) with a timer and a call counter, and puts every original
callable back on :meth:`Probes.uninstall`.  Nothing under ``src/`` is
edited: module functions are re-bound in every ``repro`` module that
imported them, and methods are replaced on each class that defines
them.

Times are inclusive.  A layer entered again from inside itself (an
``evaluate`` that calls ``evaluate_population``, a subclass ``step``
that calls its base) is timed and counted once, at the outermost call.

The recorder only accumulates while :attr:`Recorder.enabled` is set, so
the workload harness can keep untimed preparation out of the figures.
Forked service workers inherit the wrappers; each writes its own
figures to ``<spans_dir>/worker-<pid>.json`` when its worker loop ends,
and :meth:`Recorder.merge_dir` folds them back in.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, List, Optional, Tuple

__all__ = ["Probes", "Recorder"]


class Recorder:
    """Accumulated seconds and counts per layer key."""

    def __init__(self) -> None:
        self.enabled = False
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()
        self._depth.clear()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def to_dict(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    def merge_dir(self, spans_dir: Path) -> int:
        """Fold every worker file in ``spans_dir`` in; returns how many."""
        files = sorted(Path(spans_dir).glob("worker-*.json"))
        for f in files:
            payload = json.loads(f.read_text())
            for key, s in payload["seconds"].items():
                self.seconds[key] += s
            for key, n in payload["counts"].items():
                self.counts[key] += n
        return len(files)


# -- what each probe counts besides time and calls ---------------------


def _im2col_bytes(rec, args, kwargs, out):
    # conv2d(x, weight, bias=None, stride=1, padding=0): the im2col
    # buffer is (N, OH, OW, C, kh, kw) in the input's dtype.
    x, weight = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    _, _, kh, kw = weight.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    itemsize = getattr(x, "data", x).dtype.itemsize
    rec.add("nn.im2col_bytes", n * oh * ow * c * kh * kw * itemsize)


def _pair(v) -> Tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _trials(rec, args, kwargs, out):
    rec.add("ptc.trials", int(out.shape[0]))


def _cache_outcome(rec, args, kwargs, out):
    rec.add("ptc.cache_misses" if out is None else "ptc.cache_hits")


def _cells_expanded(rec, args, kwargs, out):
    rec.add("campaign.cells_expanded", len(out))


def _batch_samples(rec, args, kwargs, out):
    rec.add("hardware.samples", int(out.shape[0]))


def _calib_measurements(rec, args, kwargs, out):
    rec.add("hardware.calib_measurements", int(out["n_measurements"]))


# -- the probe table ---------------------------------------------------

#: (layer key, module, qualified attribute, extra counter).  A dotted
#: attribute ``Class.method`` wraps the method on ``Class`` and on every
#: subclass that overrides it.
PROBES: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward", None),
    ("autograd.fused", "repro.autograd.fused", "phase_column_cascade", None),
    ("autograd.fused", "repro.autograd.fused", "matmul_chain", None),
    ("autograd.fused_forward", "repro.autograd.backend",
     "ExecutionBackend.phase_column_cascade_forward", None),
    ("autograd.fused_forward", "repro.autograd.backend",
     "ExecutionBackend.matmul_chain_forward", None),
    ("nn.conv2d", "repro.nn.functional", "conv2d", _im2col_bytes),
    ("optim.step", "repro.optim.optimizer", "Optimizer.step", None),
    ("ptc.build", "repro.ptc.unitary", "UnitaryFactory.build", None),
    ("ptc.build_trials", "repro.ptc.unitary", "UnitaryFactory.build_trials",
     _trials),
    ("ptc.cache_get", "repro.ptc.cache", "UnitaryBuildCache.get",
     _cache_outcome),
    ("core.supermesh_sample", "repro.core.supermesh", "SuperMeshSpace.sample",
     None),
    ("core.spl", "repro.core.supermesh", "SuperMeshSpace.legalize_permutations",
     None),
    ("core.penalty", "repro.core.footprint_penalty", "footprint_penalty", None),
    ("core.noise_grid", "repro.core.variation", "evaluate_noise_grid", None),
    ("onn.evaluate", "repro.onn.trainer", "evaluate", None),
    ("onn.evaluate", "repro.onn.trainer", "evaluate_population", None),
    ("data.synth", "repro.data.synthetic", "train_test_split", None),
    ("campaign.expand", "repro.campaign.spec", "expand", _cells_expanded),
    ("service.claim", "repro.service.queue", "JobQueue.claim_shard", None),
    ("service.complete", "repro.service.queue", "JobQueue.complete_shard", None),
    ("service.finalize", "repro.service.queue", "JobQueue.finalize_job", None),
    ("hardware.execute", "repro.hardware.simulated", "SimulatedChip.execute",
     _batch_samples),
    ("hardware.fidelity", "repro.hardware.simulated",
     "SimulatedChip.fidelity_to", None),
    ("hardware.recal", "repro.hardware.recalibration",
     "InlineRecalibrator.__call__", _calib_measurements),
]


def _timed(fn: Callable, key: str, rec: Recorder,
           extra: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or rec._depth[key]:
            return fn(*args, **kwargs)
        rec._depth[key] += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec._depth[key] -= 1
            rec.seconds[key] += time.perf_counter() - t0
            rec.counts[key] += 1
        if extra is not None:
            extra(rec, args, kwargs, out)
        return out

    return wrapper


def _overriding_classes(base: type, name: str) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if name in cls.__dict__ and cls not in out:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Probes:
    """Install / uninstall the probe table around a :class:`Recorder`.

    ``spans_dir`` is where forked service workers write their figures.
    """

    def __init__(self, recorder: Recorder, spans_dir: Path):
        self.recorder = recorder
        self.spans_dir = Path(spans_dir)
        #: ``(owner, attribute, original)`` for every replaced binding.
        self._saved: List[Tuple[object, str, object]] = []
        self._owner_pid = os.getpid()

    def install(self) -> "Probes":
        if self._saved:
            raise RuntimeError("probes already installed")
        # Import every module first: one imported later would bind a
        # wrapper that uninstall() cannot see.
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for key, module, attr, extra in PROBES:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                for cls in _overriding_classes(getattr(mod, cls_name), meth):
                    self._patch(cls, meth,
                                _timed(cls.__dict__[meth], key,
                                       self.recorder, extra))
            else:
                self._rebind(getattr(mod, attr),
                             _timed(getattr(mod, attr), key,
                                    self.recorder, extra))
        self._install_cell_runners()
        self._install_worker_loop()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved = []

    # -- patching primitives --------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def _rebind(self, original, new) -> None:
        """Replace ``original`` in every loaded ``repro`` module."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def _install_cell_runners(self) -> None:
        # CellRunner is a frozen dataclass held in the runner registry:
        # swap registry entries for copies whose ``run`` is timed.
        from repro.campaign import runners

        runners.available_runners()  # load the builtin kinds first
        for kind, runner in list(runners._REGISTRY.items()):
            timed = _timed(runner.run, "campaign.cell", self.recorder, None)
            self._patch(runners._REGISTRY, kind,
                        dataclasses.replace(runner, run=timed))

    def _install_worker_loop(self) -> None:
        from repro.service import workers

        original = workers.worker_loop
        rec, owner_pid, spans_dir = self.recorder, self._owner_pid, self.spans_dir

        @functools.wraps(original)
        def worker_loop(*args, **kwargs):
            if os.getpid() == owner_pid:
                return original(*args, **kwargs)
            # A forked pool worker: start from zero (the fork copied the
            # parent's figures) and leave this process's figures behind.
            rec.reset()
            try:
                return original(*args, **kwargs)
            finally:
                rec.dump(spans_dir / f"worker-{os.getpid()}.json")

        self._rebind(original, worker_loop)
