"""Shared fixtures for the design-service test suites.

The job kinds registered here are deterministic by construction (all
randomness seeded via :func:`repro.utils.rng.stable_seed`) and cheap,
so the queue/worker machinery — not the science — dominates test
time.  Registration happens at import time in the parent process;
fork-started worker processes inherit the registry.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.service import DesignService, JobType, register_job_type
from repro.utils.rng import stable_seed

SUM_KIND = "svc-sum"
ECHO_KIND = "svc-echo"
BOOM_KIND = "svc-boom"
FLAKY_KIND = "svc-flaky"
NAN_KIND = "svc-nan"


def _sum_expand(params):
    return [{"i": i} for i in range(int(params.get("n_shards", 4)))]


def _sum_run_shard(params, shard):
    if params.get("sleep"):
        time.sleep(float(params["sleep"]))
    rng = np.random.default_rng(
        stable_seed("svc-sum", params.get("seed", 0), shard["i"])
    )
    return {"i": shard["i"], "value": float(rng.normal(size=64).sum())}


def _sum_aggregate(params, results):
    values = [r["value"] for r in results]
    return {"values": values, "total": float(sum(values))}


def _echo_expand(params):
    return [{"idx": 0}]


def _boom_run_shard(params, shard):
    raise RuntimeError(f"boom on shard {shard}")


def _flaky_run_shard(params, shard):
    # Fails once per shard, then succeeds: the retry-path probe.  The
    # marker file stands in for external transient state.
    marker = Path(params["marker_dir"]) / f"attempted-{shard['i']}"
    if not marker.exists():
        marker.write_text("1")
        raise RuntimeError("transient failure, retry me")
    return {"i": shard["i"], "value": shard["i"] * 10}


register_job_type(JobType(
    kind=SUM_KIND,
    expand=_sum_expand,
    run_shard=_sum_run_shard,
    aggregate=_sum_aggregate,
    description="deterministic seeded sums (tests)",
))

register_job_type(JobType(
    kind=ECHO_KIND,
    expand=_echo_expand,
    run_shard=lambda params, shard: {"params": params},
    aggregate=lambda params, results: results[0],
    description="echoes its params back (tests)",
))

register_job_type(JobType(
    kind=BOOM_KIND,
    expand=_sum_expand,
    run_shard=_boom_run_shard,
    aggregate=_sum_aggregate,
    description="always fails (tests)",
))

register_job_type(JobType(
    kind=FLAKY_KIND,
    expand=_sum_expand,
    run_shard=_flaky_run_shard,
    aggregate=lambda params, results: {"values": [r["value"] for r in results]},
    description="fails each shard once then succeeds (tests)",
))

register_job_type(JobType(
    kind=NAN_KIND,
    expand=_sum_expand,
    run_shard=lambda params, shard: {"i": shard["i"], "value": float("nan")},
    aggregate=_sum_aggregate,
    description="returns a result JSON cannot encode (tests)",
))


@pytest.fixture()
def service(tmp_path):
    svc = DesignService(tmp_path / "svc")
    yield svc
    svc.close()
