"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library API so every major workflow is
reachable without writing Python:

* ``info`` — registered PDKs, paper footprint windows, version;
* ``search`` — run an ADEPT search, save the topology JSON;
* ``evaluate`` — train/evaluate a saved topology (or a baseline mesh)
  on a synthetic dataset;
* ``export`` — topology JSON -> netlist JSON + ASCII schematic +
  floorplan estimate;
* ``robustness`` — phase-noise robustness sweep of a saved topology;
* ``baseline-search`` — random / evolutionary search in the same
  space (ablation);
* ``submit`` / ``status`` / ``serve`` — the concurrent design
  service (:mod:`repro.service`): enqueue jobs into a persistent
  queue rooted at a directory, inspect them, and drain them with a
  sharded multiprocess worker pool;
* ``campaign run`` / ``campaign status`` / ``campaign report`` — the
  declarative campaign engine (:mod:`repro.campaign`): execute a
  checked-in campaign config (inline or service-sharded), inspect a
  sharded campaign's queue progress, and render the artifacts of a
  finished campaign without recomputing (see ``docs/CAMPAIGNS.md``
  and ``examples/campaigns/``);
* ``chip serve`` / ``chip bench`` — the hardware-abstraction layer
  (:mod:`repro.hardware`): run a streaming-inference scenario on a
  drifting virtual chip with online recalibration, or measure the
  micro-batching throughput gain;
* ``lint`` — the project invariant checker (:mod:`repro.lint`):
  AST-based rules encoding the repo's hard-won correctness
  conventions (see ``docs/LINTS.md``); exits 0 on a clean tree, 1
  when findings remain, 2 on usage errors.

Every command accepts ``--seed`` and prints a deterministic report to
stdout; artifacts land where ``--out`` points.  Failures exit
non-zero: argparse errors exit 2, any command error prints
``error: ...`` to stderr and exits 1 (regression-tested via
subprocess in ``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADEPT photonic tensor-core design automation (DAC 2022 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="show PDKs and paper footprint windows")
    p_info.set_defaults(func=cmd_info)

    p_search = sub.add_parser("search", help="run an ADEPT topology search")
    p_search.add_argument("--k", type=int, default=8, help="PTC size K")
    p_search.add_argument("--pdk", default="amf", help="foundry PDK name")
    p_search.add_argument("--f-min", type=float, required=True,
                          help="min footprint (1000 um^2, paper units)")
    p_search.add_argument("--f-max", type=float, required=True,
                          help="max footprint (1000 um^2, paper units)")
    p_search.add_argument("--epochs", type=int, default=8)
    p_search.add_argument("--n-train", type=int, default=384)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", type=Path, default=Path("topology.json"))
    p_search.set_defaults(func=cmd_search)

    p_eval = sub.add_parser("evaluate", help="train + evaluate a design")
    p_eval.add_argument("design", help="topology JSON path, or 'mzi' / 'fft'")
    p_eval.add_argument("--k", type=int, default=None,
                        help="PTC size (required for mzi/fft)")
    p_eval.add_argument("--dataset", default="mnist",
                        choices=["mnist", "fmnist", "svhn", "cifar10"])
    p_eval.add_argument("--model", default="cnn2",
                        choices=["cnn2", "lenet5", "vgg8"])
    p_eval.add_argument("--epochs", type=int, default=6)
    p_eval.add_argument("--noise-std", type=float, default=0.0,
                        help="variation-aware training noise")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_evaluate)

    p_export = sub.add_parser("export", help="netlist/floorplan/schematic export")
    p_export.add_argument("design", type=Path, help="topology JSON path")
    p_export.add_argument("--pdk", default="amf")
    p_export.add_argument("--out", type=Path, default=None,
                          help="netlist JSON output path")
    p_export.add_argument("--max-columns", type=int, default=24,
                          help="schematic truncation width")
    p_export.add_argument("--svg", type=Path, default=None,
                          help="also write an SVG floorplan here")
    p_export.set_defaults(func=cmd_export)

    p_rob = sub.add_parser("robustness", help="phase-noise robustness sweep")
    p_rob.add_argument("design", type=Path, help="topology JSON path")
    p_rob.add_argument("--sigmas", type=float, nargs="+",
                       default=[0.02, 0.04, 0.06, 0.08, 0.10])
    p_rob.add_argument("--n-trials", type=int, default=5)
    p_rob.add_argument("--seed", type=int, default=0)
    p_rob.set_defaults(func=cmd_robustness)

    p_base = sub.add_parser("baseline-search",
                            help="random / evolutionary search ablation")
    p_base.add_argument("--method", choices=["random", "evolutionary"],
                        default="random")
    p_base.add_argument("--k", type=int, default=8)
    p_base.add_argument("--pdk", default="amf")
    p_base.add_argument("--f-min", type=float, required=True,
                        help="min footprint (1000 um^2)")
    p_base.add_argument("--f-max", type=float, required=True,
                        help="max footprint (1000 um^2)")
    p_base.add_argument("--budget", type=int, default=12,
                        help="candidate evaluations")
    p_base.add_argument("--seed", type=int, default=0)
    p_base.add_argument("--out", type=Path, default=None)
    p_base.set_defaults(func=cmd_baseline_search)

    p_submit = sub.add_parser(
        "submit", help="enqueue a job in a design-service root")
    p_submit.add_argument("kind", help="job kind (see `repro status --kinds`)")
    p_submit.add_argument("--root", type=Path, required=True,
                          help="service root directory (queue + artifacts)")
    p_submit.add_argument("--params", default=None,
                          help="job params as a JSON object string")
    p_submit.add_argument("--params-file", type=Path, default=None,
                          help="job params from a JSON file")
    p_submit.add_argument("--design", type=Path, default=None,
                          help="topology JSON to use as the job's design")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until done and print the result JSON")
    p_submit.add_argument("--timeout", type=float, default=3600.0,
                          help="--wait timeout in seconds")
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="inspect design-service jobs")
    p_status.add_argument("job_id", nargs="?", default=None,
                          help="job id; omit to list all jobs")
    p_status.add_argument("--root", type=Path, default=None,
                          help="service root directory")
    p_status.add_argument("--kinds", action="store_true",
                          help="list available job kinds and exit")
    p_status.add_argument("--result", action="store_true",
                          help="also print the finished job's result JSON")
    p_status.set_defaults(func=cmd_status)

    p_serve = sub.add_parser(
        "serve", help="run design-service workers against a root")
    p_serve.add_argument("--root", type=Path, required=True,
                         help="service root directory")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker processes (0 = in-process worker)")
    p_serve.add_argument("--until-idle", action="store_true",
                         help="exit once the queue is drained (default: "
                              "keep serving)")
    p_serve.add_argument("--lease", type=float, default=30.0,
                         help="shard lease seconds (crash-recovery latency)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="shard attempts before permanent failure")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="with --until-idle: max seconds to drain")
    p_serve.set_defaults(func=cmd_serve)

    p_camp = sub.add_parser(
        "campaign", help="declarative experiment campaigns")
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_camp_run = camp_sub.add_parser(
        "run", help="execute a campaign config (inline or sharded)")
    p_camp_run.add_argument("spec", type=Path,
                            help="campaign spec JSON "
                                 "(see examples/campaigns/)")
    p_camp_run.add_argument("--out", type=Path, default=None,
                            help="write artifacts (CSV/markdown/plot) here")
    p_camp_run.add_argument("--root", type=Path, default=None,
                            help="shard through a design-service root "
                                 "(kill-safe, resumable)")
    p_camp_run.add_argument("--workers", type=int, default=0,
                            help="worker processes with --root "
                                 "(0 = in-process worker)")
    p_camp_run.add_argument("--cache-dir", type=Path, default=None,
                            help="unitary-cache directory for inline runs")
    p_camp_run.add_argument("--timeout", type=float, default=None,
                            help="with --root: max seconds to drain")
    p_camp_run.set_defaults(func=cmd_campaign_run)

    p_camp_status = camp_sub.add_parser(
        "status", help="progress of a service-sharded campaign")
    p_camp_status.add_argument("spec", type=Path, help="campaign spec JSON")
    p_camp_status.add_argument("--root", type=Path, required=True,
                               help="design-service root directory")
    p_camp_status.set_defaults(func=cmd_campaign_status)

    p_camp_report = camp_sub.add_parser(
        "report", help="render artifacts of a finished sharded campaign")
    p_camp_report.add_argument("spec", type=Path, help="campaign spec JSON")
    p_camp_report.add_argument("--root", type=Path, required=True,
                               help="design-service root directory")
    p_camp_report.add_argument("--out", type=Path, default=None,
                               help="write artifacts here (default: print)")
    p_camp_report.set_defaults(func=cmd_campaign_report)

    p_chip = sub.add_parser(
        "chip", help="virtual-chip streaming inference (hardware layer)")
    chip_sub = p_chip.add_subparsers(dest="chip_command", required=True)

    def add_chip_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--design", type=Path, default=None,
                       help="topology JSON (default: random mesh)")
        p.add_argument("--k", type=int, default=8, help="mesh size")
        p.add_argument("--blocks", type=int, default=4,
                       help="random-mesh block count (no --design)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-batch", type=int, default=16,
                       help="chip micro-batch ceiling")
        p.add_argument("--requests", type=int, default=192,
                       help="inference requests to serve")

    p_chip_serve = chip_sub.add_parser(
        "serve", help="serve a drifting chip with online recalibration")
    add_chip_args(p_chip_serve)
    p_chip_serve.add_argument("--drift-std", type=float, default=0.02,
                              help="phase random walk, rad/sqrt(s)")
    p_chip_serve.add_argument("--gamma-drift", type=float, default=0.0,
                              help="thermal-crosstalk buildup amplitude")
    p_chip_serve.add_argument("--batch-overhead", type=float, default=0.5,
                              help="virtual seconds per chip call")
    p_chip_serve.add_argument("--sample-time", type=float, default=0.05,
                              help="virtual seconds per sample")
    p_chip_serve.add_argument("--window", type=int, default=8,
                              help="rolling fidelity window")
    p_chip_serve.add_argument("--trigger-below", type=float, default=0.985,
                              help="recalibrate when mean fidelity drops "
                                   "below this")
    p_chip_serve.add_argument("--rearm-above", type=float, default=None,
                              help="re-arm threshold (default: halfway "
                                   "between trigger and 1)")
    p_chip_serve.add_argument("--calib-steps", type=int, default=150,
                              help="adjoint steps per (re)calibration")
    p_chip_serve.add_argument("--service-root", type=Path, default=None,
                              help="route recalibration jobs through this "
                                   "design-service root")
    p_chip_serve.add_argument("--out", type=Path, default=None,
                              help="write the full serving report JSON here")
    p_chip_serve.set_defaults(func=cmd_chip_serve)

    p_chip_bench = chip_sub.add_parser(
        "bench", help="micro-batching throughput vs one-at-a-time")
    add_chip_args(p_chip_bench)
    p_chip_bench.set_defaults(func=cmd_chip_bench)

    p_lint = sub.add_parser(
        "lint", help="project invariant checks (AST static analysis)")
    p_lint.add_argument("paths", nargs="*", type=Path,
                        default=[Path("src/repro")],
                        help="files/directories to lint "
                             "(default: src/repro)")
    p_lint.add_argument("--format", choices=["text", "json"],
                        default="text", dest="format",
                        help="finding output format")
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all; see --list-rules)")
    p_lint.add_argument("--baseline", type=Path, nargs="?",
                        const=Path("lint-baseline.json"), default=None,
                        help="suppress findings grandfathered in this "
                             "baseline file (default path when the flag "
                             "is given bare: lint-baseline.json)")
    p_lint.add_argument("--write-baseline", type=Path, default=None,
                        help="write current findings as a baseline "
                             "and exit 0")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    p_lint.set_defaults(func=cmd_lint)

    return parser


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

# Each command imports the layers it uses, so a command pays only for
# its own imports (``info`` loads no search, training or layout code).

def cmd_info(args: argparse.Namespace) -> int:
    from .photonics.pdk import (
        TABLE1_WINDOWS,
        TABLE2_WINDOWS,
        available_pdks,
        get_pdk,
    )

    print(f"repro {__version__} — ADEPT (DAC 2022) reproduction")
    print("\nregistered PDKs (device areas in um^2):")
    for name in available_pdks():
        pdk = get_pdk(name)
        print(f"  {pdk.name:<5} PS={pdk.ps_area:<8.0f} DC={pdk.dc_area:<8.0f} "
              f"CR={pdk.cr_area:<8.0f}")
    print("\npaper footprint windows (1000 um^2):")
    for k, windows in TABLE1_WINDOWS.items():
        pretty = ", ".join(f"[{a:.0f}, {b:.0f}]" for a, b in windows)
        print(f"  Table 1 (AMF) K={k:<3} {pretty}")
    pretty = ", ".join(f"[{a:.0f}, {b:.0f}]" for a, b in TABLE2_WINDOWS)
    print(f"  Table 2 (AIM) K=16  {pretty}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from .core import ADEPTConfig, search_ptc
    from .photonics import get_pdk

    pdk = get_pdk(args.pdk)
    cfg = ADEPTConfig(
        k=args.k,
        pdk=pdk,
        f_min=args.f_min * 1000.0,
        f_max=args.f_max * 1000.0,
        epochs=args.epochs,
        warmup_epochs=max(1, args.epochs // 6),
        spl_epoch=max(2, (2 * args.epochs) // 3),
        n_train=args.n_train,
        n_test=max(64, args.n_train // 2),
        seed=args.seed,
    )
    print(f"searching K={args.k} on {pdk.name}, window "
          f"[{args.f_min:.0f}, {args.f_max:.0f}]k um^2, {args.epochs} epochs ...")
    result = search_ptc(cfg)
    topo = result.topology
    topo.save(args.out)
    print(topo.summary(pdk))
    print(f"saved -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .core import PTCTopology
    from .experiments.common import ExperimentScale, train_eval_mesh

    scale = ExperimentScale()
    scale.retrain_epochs = args.epochs
    scale.seed = args.seed
    if args.design in ("mzi", "fft"):
        if args.k is None:
            print("error: --k is required for baseline meshes", file=sys.stderr)
            return 2
        mesh = "mzi" if args.design == "mzi" else "butterfly"
        k = args.k
        label = args.design
    else:
        topo = PTCTopology.load(args.design)
        mesh = topo
        k = topo.k
        label = topo.name
    acc, _ = train_eval_mesh(mesh, k, scale, dataset=args.dataset,
                             model_name=args.model, noise_std=args.noise_std,
                             seed=args.seed)
    print(f"{label}: {args.model} on {args.dataset} -> {acc:.2f}% "
          f"({args.epochs} epochs, seed {args.seed})")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .core import PTCTopology
    from .layout import build_netlist, place, render_topology
    from .photonics import get_pdk

    topo = PTCTopology.load(args.design)
    pdk = get_pdk(args.pdk)
    netlist = build_netlist(topo)
    out = args.out or args.design.with_suffix(".netlist.json")
    netlist.save(out)
    n_ps, n_dc, n_cr = netlist.device_counts()
    print(f"{topo.summary(pdk)}")
    print(f"netlist: {len(netlist.devices)} devices "
          f"(PS={n_ps}, DC={n_dc}, CR={n_cr}), "
          f"{netlist.n_columns} columns, optical depth {netlist.optical_depth()}")
    print(place(netlist, pdk).summary())
    from .photonics.power import estimate_power

    print(estimate_power(topo, pdk).summary())
    print(f"netlist saved -> {out}")
    if args.svg is not None:
        from .layout import floorplan_svg

        args.svg.write_text(floorplan_svg(netlist, pdk, title=topo.name))
        print(f"floorplan SVG saved -> {args.svg}")
    print()
    print(render_topology(topo, max_columns=args.max_columns))
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    import numpy as np

    from .core import PTCTopology
    from .photonics.nonideality import (
        NonidealitySpec,
        unitary_fidelity_under_noise,
    )

    topo = PTCTopology.load(args.design)
    print(f"phase-noise robustness of {topo.name!r} (K={topo.k}, "
          f"{topo.n_blocks} blocks; mean unitary fidelity, "
          f"{args.n_trials} trials)")
    print(f"  {'sigma':>6}  {'fidelity':>9}  {'std':>8}")
    for sigma in args.sigmas:
        mean, std = unitary_fidelity_under_noise(
            topo, NonidealitySpec(phase_noise_std=float(sigma)),
            n_trials=args.n_trials, rng=np.random.default_rng(args.seed))
        print(f"  {sigma:6.3f}  {mean:9.4f}  {std:8.4f}")
    return 0


def cmd_baseline_search(args: argparse.Namespace) -> int:
    from .core import EvolutionarySearch, RandomSearch, make_expressivity_evaluator
    from .photonics import get_pdk

    pdk = get_pdk(args.pdk)
    f_min, f_max = args.f_min * 1000.0, args.f_max * 1000.0
    evaluate = make_expressivity_evaluator(steps=120, seed=args.seed)
    if args.method == "random":
        search = RandomSearch(args.k, pdk, f_min, f_max, evaluate=evaluate,
                              seed=args.seed)
        result = search.run(n_samples=args.budget)
    else:
        population = max(2, min(6, args.budget // 3))
        search = EvolutionarySearch(args.k, pdk, f_min, f_max,
                                    evaluate=evaluate, population=population,
                                    seed=args.seed)
        generations = max(1, (args.budget - population) // population)
        result = search.run(generations=generations,
                            children_per_gen=population)
    print(f"{args.method} search: {result.n_evaluated} candidates, "
          f"best score {result.score:.4f}")
    print(result.topology.summary(pdk))
    if args.out:
        result.topology.save(args.out)
        print(f"saved -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# design-service commands
# ----------------------------------------------------------------------

def _load_job_params(args: argparse.Namespace) -> dict:
    import json

    if args.params is not None and args.params_file is not None:
        raise ValueError("pass --params or --params-file, not both")
    if args.params_file is not None:
        params = json.loads(args.params_file.read_text())
    elif args.params is not None:
        params = json.loads(args.params)
    else:
        params = {}
    if not isinstance(params, dict):
        raise ValueError("job params must be a JSON object")
    if args.design is not None:
        from .core import PTCTopology
        from .service.handlers import topology_param

        topo = PTCTopology.load(args.design)
        key = "topology" if args.kind == "export" else "mesh"
        params.setdefault(key, topology_param(topo))
    return params


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service import DesignService

    params = _load_job_params(args)
    svc = DesignService(args.root)
    try:
        job_id = svc.submit(args.kind, params)
        status = svc.status(job_id)
        print(f"submitted {args.kind} job {job_id} "
              f"({status['n_shards']} shards) -> {args.root}")
        if args.wait:
            result = svc.wait(job_id, timeout=args.timeout)
            print(json.dumps(result, indent=2, sort_keys=True))
    finally:
        svc.close()
    return 0


def _format_job_row(s: dict) -> str:
    done = s["shards"].get("done", 0)
    return (f"  {s['id']}  {s['kind']:<16} {s['status']:<8} "
            f"{done}/{s['n_shards']} shards")


def cmd_status(args: argparse.Namespace) -> int:
    import json

    from .service import DesignService, available_job_kinds, get_job_type

    if args.kinds:
        print("available job kinds:")
        for kind in available_job_kinds():
            print(f"  {kind:<16} {get_job_type(kind).description}")
        return 0
    if args.root is None:
        raise ValueError("--root is required (or use --kinds)")
    svc = DesignService(args.root)
    try:
        if args.job_id is None:
            jobs = svc.jobs()
            if not jobs:
                print(f"no jobs in {args.root}")
                return 0
            print(f"{len(jobs)} job(s) in {args.root}:")
            for s in jobs:
                print(_format_job_row(s))
            return 0
        s = svc.status(args.job_id)
        print(_format_job_row(s))
        if s["error"]:
            print(f"  error: {s['error']}")
        if args.result:
            print(json.dumps(svc.result(args.job_id), indent=2,
                             sort_keys=True))
        return 0 if s["status"] != "failed" else 1
    finally:
        svc.close()


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import DesignService

    svc = DesignService(args.root)
    try:
        n_jobs = svc.queue.unfinished()
        mode = "until idle" if args.until_idle else "forever"
        print(f"serving {args.root} with {args.workers} worker(s) {mode}; "
              f"{n_jobs} unfinished job(s)")
        svc.run(
            n_workers=args.workers,
            timeout=args.timeout,
            lease_seconds=args.lease,
            max_attempts=args.max_attempts,
            until_idle=bool(args.until_idle),
        )
    finally:
        svc.close()
    if args.until_idle:
        print("queue drained")
    return 0


# ----------------------------------------------------------------------
# campaign commands
# ----------------------------------------------------------------------

def _load_campaign_spec(path: Path):
    from .campaign import CampaignSpec

    return CampaignSpec.load(path).validate()


def _campaign_job_id(spec) -> str:
    from .campaign import campaign_job_params
    from .service import JobSpec

    return JobSpec(kind="campaign", params=campaign_job_params(spec)).job_id


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import (
        aggregate,
        expand,
        report_markdown,
        run_campaign,
        write_artifacts,
    )

    spec = _load_campaign_spec(args.spec)
    n_cells = len(expand(spec))
    where = (f"service root {args.root} ({args.workers} worker(s))"
             if args.root is not None else "inline")
    print(f"campaign {spec.name} ({spec.kind}, id {spec.campaign_id}): "
          f"{n_cells} cell(s), {where}")
    run = run_campaign(spec, n_workers=args.workers, root=args.root,
                       cache_dir=args.cache_dir, timeout=args.timeout)
    print(report_markdown(aggregate(run)))
    if args.out is not None:
        paths = write_artifacts(run, args.out)
        print(f"artifacts saved -> {args.out} ({len(paths)} file(s))")
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from .service import DesignService

    spec = _load_campaign_spec(args.spec)
    job_id = _campaign_job_id(spec)
    svc = DesignService(args.root)
    try:
        try:
            s = svc.status(job_id)
        except KeyError:
            raise ValueError(
                f"campaign {spec.name} (job {job_id}) has not been "
                f"submitted to {args.root}; run `repro campaign run "
                f"{args.spec} --root {args.root}` first"
            )
    finally:
        svc.close()
    done = s["shards"].get("done", 0)
    print(f"campaign {spec.name} ({spec.kind}, id {spec.campaign_id})")
    print(f"  job {s['id']}  {s['status']:<8} {done}/{s['n_shards']} cells")
    if s["error"]:
        print(f"  error: {s['error']}")
    return 0 if s["status"] != "failed" else 1


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import (
        aggregate,
        report_markdown,
        run_from_job_result,
        write_artifacts,
    )
    from .service import DesignService

    spec = _load_campaign_spec(args.spec)
    job_id = _campaign_job_id(spec)
    svc = DesignService(args.root)
    try:
        try:
            result = svc.result(job_id)
        except KeyError:
            raise ValueError(
                f"campaign {spec.name} (job {job_id}) has not been "
                f"submitted to {args.root}"
            )
    finally:
        svc.close()
    run = run_from_job_result(spec, result)
    if args.out is not None:
        paths = write_artifacts(run, args.out)
        print(f"artifacts saved -> {args.out} ({len(paths)} file(s))")
    else:
        print(report_markdown(aggregate(run)))
    return 0


# ----------------------------------------------------------------------
# hardware-layer commands
# ----------------------------------------------------------------------

def _build_chip(args: argparse.Namespace, drift=None, **chip_kwargs):
    """Shared ``chip`` plumbing: topology -> (SimulatedChip, target).

    The target is the transfer of an ideal (drift- and error-free)
    twin at the same seed — what the chip is supposed to realize.
    """
    from .core.topology import PTCTopology, random_topology
    from .hardware import SimulatedChip
    from .utils.rng import spawn_rng, stable_seed

    if args.design is not None:
        topo = PTCTopology.load(args.design)
    else:
        topo = random_topology(
            args.k, args.blocks, 0,
            rng=spawn_rng(stable_seed("chip-cli-topology", args.seed)))
    chip = SimulatedChip(topo, drift=drift, seed=args.seed,
                         max_batch=args.max_batch, **chip_kwargs)
    ideal = SimulatedChip(topo, seed=args.seed)
    return chip, ideal.transfer_matrix()


def _chip_inputs(args: argparse.Namespace, k: int):
    from .utils.rng import spawn_rng, stable_seed

    rng = spawn_rng(stable_seed("chip-cli-inputs", args.seed))
    return [rng.normal(size=k) for _ in range(args.requests)]


def cmd_chip_serve(args: argparse.Namespace) -> int:
    from .hardware import (
        InlineRecalibrator,
        RollingMonitor,
        ServiceRecalibrator,
        StreamingServer,
    )
    from .photonics import DriftSpec
    from .utils.serialization import canonical_json_dumps

    drift = DriftSpec(phase_walk_std=args.drift_std,
                      crosstalk_gamma_drift=args.gamma_drift)
    chip, target = _build_chip(
        args, drift=drift, batch_overhead_s=args.batch_overhead,
        sample_time_s=args.sample_time)
    if args.service_root is not None:
        from .service import DesignService

        recal = ServiceRecalibrator(DesignService(args.service_root),
                                    steps=args.calib_steps,
                                    seed=args.seed)
    else:
        recal = InlineRecalibrator(steps=args.calib_steps, seed=args.seed)
    first = recal(chip, target)
    baseline = chip.fidelity_to(target)
    print(f"calibrated: error {first['initial_error']:.4f} -> "
          f"{first['final_error']:.4f}, fidelity {baseline:.4f}")
    monitor = RollingMonitor(window=args.window,
                             trigger_below=args.trigger_below,
                             rearm_above=args.rearm_above)
    server = StreamingServer(chip, target=target, monitor=monitor,
                             recalibrate=recal, max_batch=args.max_batch)
    caps = chip.capabilities()
    server.serve_sync(_chip_inputs(args, caps.k))
    report = server.report()
    report["baseline_fidelity"] = float(baseline)
    print(f"served {report['n_requests']} requests in "
          f"{report['n_batches']} micro-batches, "
          f"{report['virtual_time_s']:.2f}s virtual time")
    n_applied = sum(1 for r in report["recalibrations"] if r["applied"])
    print(f"recalibrations: {n_applied} "
          f"(monitor triggers: {report['monitor']['n_triggers']})")
    if report["fidelity_trace"]:
        print(f"fidelity: first {report['fidelity_trace'][0]:.4f}, "
              f"min {min(report['fidelity_trace']):.4f}, "
              f"last {report['fidelity_trace'][-1]:.4f}")
    if args.out is not None:
        args.out.write_text(canonical_json_dumps(report))
        print(f"report saved -> {args.out}")
    return 0


def cmd_chip_bench(args: argparse.Namespace) -> int:
    from .hardware import StreamingServer

    if args.requests < 1:
        raise ValueError(f"--requests must be >= 1, got {args.requests}")
    results = {}
    for label, max_batch in (("one-at-a-time", 1),
                             ("micro-batched", args.max_batch)):
        chip, target = _build_chip(args)
        chip.program(chip.programmed_phases)  # count the program cost once
        server = StreamingServer(chip, max_batch=max_batch)
        server.serve_sync(_chip_inputs(args, chip.capabilities().k))
        results[label] = server
        print(f"{label:<14} max_batch={max_batch:<3} "
              f"{server.n_batches:>4} chip call(s), "
              f"{chip.virtual_time_s:.2f}s virtual")
    speedup = (results["one-at-a-time"].chip.virtual_time_s
               / results["micro-batched"].chip.virtual_time_s)
    print(f"micro-batching virtual-time speedup: {speedup:.2f}x")
    return 0


# ----------------------------------------------------------------------
# static-analysis command
# ----------------------------------------------------------------------

def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .lint import (
        apply_baseline,
        available_rules,
        get_rule,
        iter_python_files,
        lint_files,
        load_baseline,
        write_baseline,
    )

    if args.list_rules:
        print("registered lint rules:")
        for rule in available_rules():
            print(f"  {rule.id}  {rule.name:<22} {rule.description}")
        return 0

    rules = None
    if args.rules is not None:
        rules = [get_rule(rid.strip())
                 for rid in args.rules.split(",") if rid.strip()]
        if not rules:
            raise ValueError("--rules got an empty rule list")

    files = iter_python_files(args.paths)
    findings = lint_files(files, rules=rules)

    if args.write_baseline is not None:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} finding(s) -> {args.write_baseline}")
        return 0

    grandfathered = 0
    if args.baseline is not None:
        findings, grandfathered = apply_baseline(
            findings, load_baseline(args.baseline))

    if args.format == "json":
        print(json.dumps(
            {
                "version": 1,
                "n_files": len(files),
                "n_findings": len(findings),
                "grandfathered": grandfathered,
                "findings": [f.to_dict() for f in findings],
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        for f in findings:
            print(f.render())
        suffix = (f" ({grandfathered} grandfathered by baseline)"
                  if grandfathered else "")
        print(f"{len(findings)} finding(s) in {len(files)} file(s){suffix}")
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and dispatch; never lets a failure escape as exit 0.

    Command errors print ``error: ...`` to stderr and return 1
    (argparse usage errors exit 2 on their own); a command returning
    ``None`` counts as success.  ``tests/test_cli.py`` pins these
    contracts via subprocess.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # str(KeyError) wraps the message in quotes; unwrap for output.
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1
    return 0 if rc is None else int(rc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
