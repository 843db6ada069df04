"""Command-line interface: ``python -m repro <command>``.

Gives the library a downstream-usable front end:

* ``images`` — list the guest catalogue with the paper's footprints;
* ``tinyx-build`` — run the Tinyx pipeline for an application;
* ``unikernel-build`` — link Mini-OS unikernels and print their sizes;
* ``usecase`` — run one of the §7 use cases;
* ``syscalls`` — print the Fig 1 dataset;
* ``lint`` — run the determinism linter over Python sources;
* ``races`` — lock-order & sim-race analysis: deadlock cycles, lock
  leaks, yield-spanning stale read-modify-writes, baseline drift, and
  an optional runtime happens-before witness;
* ``bench-trend`` — wall-clock deltas between two BENCH_*.json sets;
* ``bench-gate`` — engine microbench vs the committed perf baseline;
* ``chaos`` — sweep a recovery-enabled scenario spec (e.g. one using the
  ``chaos@1`` fault component) over a seed set, every run audited
  after recovery, and delta-debug each failing seed's fault schedule
  down to a one-seed sweep manifest that ``run --replay`` verifies;
* ``run`` — the one way to run a scenario: execute a declarative
  scenario spec (YAML/JSON, single-host or cluster mode) from the
  scenario standard library across a seed set, in parallel, producing a
  replayable sweep manifest; ``--replay`` re-runs a manifest (or a JSON
  list of them, such as chaos reproducers) and verifies its digest;
* ``components`` — list the stdlib component catalogue.

One seed of a single-host VM spec runs in this process, on a simulator
the CLI passes ``run_scenario``, and also prints its per-guest
create/boot table.  Three observer flags watch that run: ``--sanitize``
(two runs under the runtime sanitizers and the invariant audit, their
replay digests compared), ``--trace FILE`` (per-phase attribution, span
summary, Chrome/Perfetto export) and ``--metrics`` (the scraped
registry, also the manifest's ``metrics`` key, outside its digest).
With an observer flag, a seed set, a cluster spec or a container/process
guest exits 2 naming ``seeds``, ``mode`` or ``guest``.  Flag conventions
are shared across ``run``/``chaos`` (see :mod:`repro.cli_flags`):
``--seeds A..B`` for a seed set, ``--out`` for the JSON artifact.
"""

from __future__ import annotations

import argparse
import io
import sys
import typing

from .cli_flags import seed_set
from .core.metrics import mean, median, percentile, sample_indices
from .data import counts_by_year
from .guests import CATALOG


def _cmd_images(_args) -> int:
    print("%-20s %-10s %10s %10s %8s" % ("name", "kind", "kernel",
                                         "memory", "vifs"))
    for name in sorted(CATALOG):
        image = CATALOG[name]
        print("%-20s %-10s %8.1fMB %8.1fMB %8d"
              % (name, image.kind.value, image.kernel_size_kb / 1024.0,
                 image.memory_kb / 1024.0, image.vifs))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _cmd_tinyx_build(args) -> int:
    from .tinyx import DEFAULT_TRIM_CANDIDATES, TinyxBuilder
    build = TinyxBuilder().build(
        args.app, platform=args.platform,
        trim_candidates=DEFAULT_TRIM_CANDIDATES if args.trim else None)
    print("packages: %s" % ", ".join(build.packages))
    print("initramfs: %.1f MB" % (build.initramfs_kb / 1024.0))
    print("kernel: %.1f MB" % (build.kernel_kb / 1024.0))
    if build.trim_report:
        print("trim: %d options removed in %d rebuilds"
              % (len(build.trim_report.removed),
                 build.trim_report.builds))
    print("image: %.1f MB, %.0f MB RAM"
          % (build.image.kernel_size_kb / 1024.0,
             build.image.memory_kb / 1024.0))
    return 0


def _cmd_usecase(args) -> int:
    from .core import usecases
    if args.name == "firewalls":
        result = usecases.run_personal_firewalls(boot_fleet=args.scale)
        for point in result.points:
            print("%5d users: %5.2f Gb/s, %5.1f Mb/s each, +%5.1f ms"
                  % (point.clients, point.total_gbps,
                     point.per_client_mbps, point.rtt_ms))
    elif args.name == "jit":
        result = usecases.run_jit_service(25.0, clients=args.scale)
        print("median %.1f ms, p90 %.1f ms, %d retried"
              % (median(result.rtts), percentile(result.rtts, 90),
                 result.retried))
    elif args.name == "tls":
        result = usecases.run_tls_termination()
        for kind, points in result.series.items():
            print("%-12s %8.0f req/s at saturation"
                  % (kind, points[-1].requests_per_s))
    elif args.name == "compute":
        result = usecases.run_compute_service("lightvm",
                                              requests=args.scale)
        print("create mean %.2f ms; completion %0.2f s -> %0.2f s"
              % (mean(result.create_ms),
                 result.service_ms[0] / 1000.0,
                 result.service_ms[-1] / 1000.0))
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.name)
    return 0


def _cmd_unikernel_build(args) -> int:
    from .unikernel import APPLICATIONS, build, size_report
    if args.app == "all":
        names = sorted(APPLICATIONS)
    else:
        names = [args.app]
    builds = [build(name) for name in names]
    print(size_report(builds))
    if len(builds) == 1:
        result = builds[0].link_result
        print("\nlink map:")
        for obj in result.objects:
            print("  %-18s %5d KB" % (obj.name, obj.size_kb))
    return 0


def _cmd_syscalls(_args) -> int:
    for year, count in counts_by_year():
        print("%d  %d" % (year, count))
    return 0


def _cmd_lint(args) -> int:
    import pathlib
    import sys

    from .analysis import format_findings, lint_paths
    paths = args.paths
    if not paths:
        # Default to the installed package itself.
        paths = [pathlib.Path(__file__).resolve().parent]
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        print("repro lint: error: no such file or directory: %s"
              % ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    print(format_findings(findings, args.format))
    return 1 if findings else 0


def _cmd_races(args) -> int:
    import json
    import pathlib
    import sys

    from .analysis import (analyze_paths, format_findings, load_baseline,
                           run_shard_witness, save_baseline)
    paths = args.paths
    if not paths:
        paths = [pathlib.Path(__file__).resolve().parent]
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        print("repro races: error: no such file or directory: %s"
              % ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    report = analyze_paths(paths)

    drift: typing.List[str] = []
    if args.baseline:
        baseline_path = pathlib.Path(args.baseline)
        if baseline_path.exists():
            drift = report.graph.diff_baseline(load_baseline(baseline_path))
        else:
            drift = ["baseline %s does not exist (run with "
                     "--update-baseline to create it)" % baseline_path]
    if args.update_baseline:
        save_baseline(report, args.update_baseline)
        drift = []

    witness = None
    discrepancies: typing.List[str] = []
    if args.witness:
        witness = run_shard_witness(workers=args.witness_workers)
        discrepancies = witness.validate_static(report.graph)

    if args.format == "json":
        payload = report.to_json()
        payload["baseline_drift"] = drift
        if witness is not None:
            payload["witness"] = witness.report()
            payload["witness_discrepancies"] = discrepancies
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "github":
        print(format_findings(report.findings, "github"))
        for message in drift:
            print("::error title=lock-order-drift::%s" % message)
        for message in discrepancies:
            print("::error title=witness-discrepancy::%s" % message)
    else:
        print(report.render())
        for message in drift:
            print("lock-order drift: %s" % message)
        if witness is not None:
            print(witness.render())
            for message in discrepancies:
                print("witness discrepancy: %s" % message)
    return 1 if (report.findings or drift or discrepancies) else 0


def _cmd_bench_trend(args) -> int:
    from .analysis import BenchResultError, bench_trend, load_results
    try:
        old = load_results(args.old)
        new = load_results(args.new)
    except BenchResultError as exc:
        print("repro bench-trend: error: %s" % exc, file=sys.stderr)
        return 2
    print(bench_trend(old, new))
    return 0


def _cmd_bench_gate(args) -> int:
    import json
    import pathlib

    from .analysis import (BenchResultError, bench_gate, figure_gate,
                           load_results)
    result_path = pathlib.Path(args.result)
    baseline_path = pathlib.Path(args.baseline)
    if not baseline_path.is_file():
        print("repro bench-gate: error: no such file: %s" % baseline_path,
              file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())

    passed = True
    if result_path.is_file():
        engine_ok, report = bench_gate(json.loads(result_path.read_text()),
                                       baseline)
        print(report)
        passed = passed and engine_ok
    elif args.figures is None:
        print("repro bench-gate: error: no such file: %s" % result_path,
              file=sys.stderr)
        return 2
    else:
        # Figure-only invocation (e.g. the bench-smoke CI job, which
        # produces BENCH_fig*.json but not the engine microbench).
        print("bench-gate: no %s; skipping the engine check" % result_path)

    if args.figures is not None:
        try:
            results = load_results(args.figures)
        except BenchResultError as exc:
            print("repro bench-gate: error: %s" % exc, file=sys.stderr)
            return 2
        figures_ok, report = figure_gate(results, baseline)
        print(report)
        passed = passed and figures_ok
    return 0 if passed else 1


def _load_spec(command: str, path: str):
    """The spec at ``path``, or ``None`` once the error is printed."""
    from .stdlib import ComponentError, SpecError, load_spec
    try:
        return load_spec(path)
    except FileNotFoundError:
        print("repro %s: error: no such file: %s" % (command, path),
              file=sys.stderr)
    except (SpecError, ComponentError) as exc:
        print("repro %s: error: %s: %s" % (command, path, exc),
              file=sys.stderr)
    return None


def _cmd_chaos(args) -> int:
    import json

    from .recovery import campaign
    from .stdlib import SpecError

    spec = _load_spec("chaos", args.spec)
    if spec is None:
        return 2
    try:
        manifest, reproducers = campaign.run_campaign(spec, args.seeds)
    except SpecError as exc:
        print("repro chaos: error: %s: %s" % (args.spec, exc),
              file=sys.stderr)
        return 2
    for record in manifest["runs"]:
        print("seed %d: %d violation(s), digest %s"
              % (record["seed"], len(record["violations"]),
                 record["digest"][:12]))
    for reproducer in reproducers:
        faults = reproducer["resolved"]["components"]["faults"]
        print("seed %d reproducer, rules %s"
              % (reproducer["seeds"][0], json.dumps(faults.get("rules"))))
        for violation in reproducer["runs"][0]["violations"]:
            print("  violation: %s" % violation)
    print()
    print("chaos: %d seed(s), %d failure(s)"
          % (len(manifest["runs"]), len(reproducers)))
    if args.out and reproducers:
        with open(args.out, "w") as handle:
            json.dump(reproducers, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %d reproducer(s) to %s (repro run --replay %s)"
              % (len(reproducers), args.out, args.out))
    return 1 if reproducers else 0


def _print_trace(spec, tracer, path: str, out) -> None:
    """The span tracer's report, and its Perfetto file at ``path``."""
    from .trace import (phase_attribution, render_attribution,
                        render_span_summary, write_chrome_trace)
    blocks = ["traced %d x %s under %s: %d spans on %d tracks"
              % (spec.guests, spec.guest.image, spec.host.variant,
                 len(tracer.spans), len(tracer.track_names))]
    totals = phase_attribution(tracer)
    if totals:
        blocks.append(render_attribution(totals, count=spec.guests))
    blocks.append(render_span_summary(tracer))
    blocks.append("wrote %d trace events to %s (load in Perfetto or "
                  "chrome://tracing)" % (write_chrome_trace(tracer, path),
                                         path))
    print("\n" + "\n\n".join(blocks), file=out)


def _run_in_process(args, spec, seed: int, out):
    """Run one seed of a single-host VM spec here, observers attached,
    and print their reports to ``out``: ``(first run's result,
    --metrics registry dict or None, clean)``.  Trace and metrics are
    taken from the first run before any drain; ``--sanitize`` runs the
    seed twice in this process, so state leaking from one run into the
    next shows.  A cluster spec or a non-VM guest is a SpecTypeError."""
    import contextlib

    from .analysis import Sanitizer
    from .sim import Simulator
    from .stdlib import run_scenario
    from .trace import MetricsRegistry, Tracer, collect_host_metrics

    first, metrics, digests, violation_total = None, None, [], 0
    for run_index in range(2 if args.sanitize else 1):
        sim = Simulator()
        sanitizer = Sanitizer().attach(sim) if args.sanitize else None
        tracer = None
        if run_index == 0 and (args.trace or args.metrics):
            tracer = Tracer(metrics=MetricsRegistry(sim=sim)).attach(sim)
        with (sanitizer.watch_rng() if sanitizer is not None
              else contextlib.nullcontext()):
            result = run_scenario(spec, seed, keep_host=True, sim=sim)
            if tracer is not None and args.trace:
                _print_trace(spec, tracer, args.trace, out)
            if tracer is not None and args.metrics:
                registry = collect_host_metrics(result.host, tracer.metrics)
                metrics = registry.as_dict()
                if not args.json:
                    print(file=out)
                    print(registry.render(), file=out)
            if run_index == 0:
                first = result
            if sanitizer is None:
                return first, metrics, True
            # Drain in-flight teardowns before auditing.
            sim.run(until=sim.now + 500.0)
        violations = sanitizer.check() + (
            result.violations if result.violations is not None
            else result.host.check_invariants())
        violation_total += len(violations)
        if not digests:
            print(file=out)
        digests.append(result.digest)
        print("run %d: %d events, %d failed create(s), digest %s"
              % (run_index + 1, result.events,
                 result.stats["create_failed"], result.digest), file=out)
        for violation in violations:
            print("  violation: %s" % violation, file=out)
    identical = len(set(digests)) == 1
    print("sanitizers: %s" % ("clean" if not violation_total
                              else "%d violation(s)" % violation_total),
          file=out)
    print("replay: %s" % ("IDENTICAL" if identical else "DIVERGED"),
          file=out)
    return first, metrics, identical and not violation_total


def _print_guest_table(result) -> None:
    """Ten sampled guests' create/boot times, then the create spread."""
    creates = result.series["create_ms"]
    boots = result.series["boot_ms"]
    if not creates:
        return
    print()
    print("%-8s %12s %12s" % ("n", "create(ms)", "boot(ms)"))
    for index in sample_indices(len(creates), min(10, len(creates))):
        print("%-8d %12.2f %12.2f" % (index + 1, creates[index],
                                      boots[index]))
    print("create: mean=%.2f median=%.2f p90=%.2f"
          % (mean(creates), median(creates), percentile(creates, 90)))


def _cmd_run(args) -> int:
    import json
    import time  # noqa: RPR002 -- wall-clock only annotates the CLI report; it is read outside the simulated timeline

    from .pool import clamp
    from .stdlib import (ComponentError, SpecError, SweepError,
                         replay_manifest, run_sweep, sweep_manifest,
                         workers_on_hosts, write_bench_json)

    observed = bool(args.sanitize or args.trace or args.metrics)
    if args.replay:
        if observed:
            args.parser_error("repro run --replay takes no observer flag "
                              "(--sanitize, --trace, --metrics)")
        try:
            with open(args.replay) as handle:
                payload = json.load(handle)
            # A chaos --out file is a list of one-seed manifests.
            manifests = payload if isinstance(payload, list) else [payload]
            if not manifests:
                raise SweepError("an empty list holds no manifest",
                                 field="manifest")
            results = [replay_manifest(manifest, workers=args.workers)
                       for manifest in manifests]
        except (OSError, json.JSONDecodeError, SpecError, ComponentError,
                SweepError) as exc:
            print("repro run: error: %s: %s" % (args.replay, exc),
                  file=sys.stderr)
            return 2
        for same, result in results:
            print("scenario %s: %d seed(s), manifest digest %s — %s"
                  % (result["scenario"], len(result["runs"]),
                     result["manifest_digest"][:12],
                     "reproduced" if same else "DIVERGED from record"))
        return 0 if all(same for same, _ in results) else 1

    if args.spec is None:
        args.parser_error("repro run needs a scenario spec file "
                          "(or --replay FILE)")
    spec = _load_spec("run", args.spec)
    if spec is None:
        return 2

    seeds = args.seeds if args.seeds is not None else [args.seed]
    if observed and len(seeds) > 1:
        print("repro run: error: %s: field 'seeds': an observed run takes "
              "one seed, got %d" % (args.spec, len(seeds)), file=sys.stderr)
        return 2
    on_hosts = workers_on_hosts(spec, seeds, args.workers)
    in_process = len(seeds) == 1 and (observed or (
        spec.mode == "host" and spec.guest.runtime == "vm"))
    result, clean, reports = None, True, io.StringIO()
    start = time.perf_counter()  # noqa: RPR002 -- wall-clock annotates the CLI report only, outside the timeline
    if in_process:
        try:
            result, metrics, clean = _run_in_process(args, spec,
                                                     seeds[0], reports)
        except SpecError as exc:
            print("repro run: error: %s: %s" % (args.spec, exc),
                  file=sys.stderr)
            return 2
        manifest = sweep_manifest(spec, [result.record()])
        if metrics is not None:
            manifest["metrics"] = metrics
    else:
        manifest = run_sweep(spec, seeds, workers=args.workers)
    wall_s = time.perf_counter() - start  # noqa: RPR002 -- same wall-clock annotation as above

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.bench_out:
        write_bench_json(manifest, args.bench_out, wall_s=wall_s)

    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        # Stdout holds only the manifest; the observers report on stderr.
        sys.stderr.write(reports.getvalue())
        return 0 if clean else 1
    print("scenario %s (mode %s): %d seed(s), %d worker(s) on %s, "
          "%.2f s wall"
          % (manifest["scenario"], manifest["mode"],
             len(manifest["runs"]),
             clamp(args.workers, spec.hosts if on_hosts else len(seeds)),
             "hosts" if on_hosts else "seeds", wall_s))
    for record in manifest["runs"]:
        audit = ("" if "violations" not in record else
                 "  %d violation(s)" % len(record["violations"]))
        print("  seed %-4d %7d event(s) %10.1f ms  digest %s%s"
              % (record["seed"], record["events"], record["sim_ms"],
                 record["digest"][:12], audit))
    for key in sorted(manifest["stats"]):
        print("  %-24s %12.2f" % (key, manifest["stats"][key]))
    print("  spec digest     %s" % manifest["spec_digest"])
    print("  manifest digest %s" % manifest["manifest_digest"])
    if args.out:
        print("  wrote sweep manifest to %s" % args.out)
    if args.bench_out:
        print("  wrote BENCH-style JSON to %s" % args.bench_out)
    if result is not None:
        _print_guest_table(result)
    sys.stdout.write(reports.getvalue())
    return 0 if clean else 1


def _cmd_components(args) -> int:
    from .stdlib import catalogue
    print("%-10s %-22s %s" % ("kind", "ref", "parameters"))
    for component in catalogue():
        if args.kind and component.kind != args.kind:
            continue
        params = component.params()
        rendered = ", ".join("%s=%r" % (key, params[key])
                             for key in sorted(params))
        print("%-10s %-22s %s" % (component.kind, component.ref(),
                                  rendered))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LightVM (SOSP 2017) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("images", help="list the guest image catalogue") \
        .set_defaults(fn=_cmd_images)

    tinyx = sub.add_parser("tinyx-build", help="build a Tinyx image")
    tinyx.add_argument("app")
    tinyx.add_argument("--platform", choices=("xen", "kvm"),
                       default="xen")
    tinyx.add_argument("--no-trim", dest="trim", action="store_false")
    tinyx.set_defaults(fn=_cmd_tinyx_build)

    unikernel = sub.add_parser("unikernel-build",
                               help="link a Mini-OS unikernel")
    unikernel.add_argument("app", nargs="?", default="all")
    unikernel.set_defaults(fn=_cmd_unikernel_build)

    usecase = sub.add_parser("usecase", help="run a §7 use case")
    usecase.add_argument("name", choices=("firewalls", "jit", "tls",
                                          "compute"))
    usecase.add_argument("--scale", type=int, default=100)
    usecase.set_defaults(fn=_cmd_usecase)

    sub.add_parser("syscalls", help="print the Fig 1 dataset") \
        .set_defaults(fn=_cmd_syscalls)

    lint = sub.add_parser(
        "lint", help="run the determinism linter (RPR rules)")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--format", choices=("text", "json", "github"),
                      default="text",
                      help="report format (github = workflow annotations)")
    lint.set_defaults(fn=_cmd_lint)

    races = sub.add_parser(
        "races",
        help="lock-order & sim-race analysis (RPR101-103) with optional "
             "runtime witness cross-validation")
    races.add_argument("paths", nargs="*",
                       help="files/directories to analyze (default: the "
                            "installed repro package)")
    races.add_argument("--format", choices=("text", "json", "github"),
                       default="text",
                       help="report format (github = workflow annotations)")
    races.add_argument("--baseline",
                       help="lock-order baseline JSON to diff against "
                            "(drift fails the run)")
    races.add_argument("--update-baseline",
                       help="write the current lock-order graph to this "
                            "path and skip the drift check")
    races.add_argument("--witness", action="store_true",
                       help="run a sharded boot storm under the "
                            "RaceWitness and cross-validate observed "
                            "lock orders against the static graph")
    races.add_argument("--witness-workers", type=_positive_int, default=4,
                       help="XenStore shard count for the witness "
                            "workload (default 4)")
    races.set_defaults(fn=_cmd_races)

    bench_trend = sub.add_parser(
        "bench-trend",
        help="wall-clock deltas between two BENCH_*.json result sets")
    bench_trend.add_argument("old", help="directory (or file) with the "
                                         "older BENCH_*.json results")
    bench_trend.add_argument("new", help="directory (or file) with the "
                                         "newer BENCH_*.json results")
    bench_trend.set_defaults(fn=_cmd_bench_trend)

    bench_gate = sub.add_parser(
        "bench-gate",
        help="check the engine microbench against the committed baseline")
    bench_gate.add_argument("--result", default="BENCH_engine.json",
                            help="BENCH_engine.json from a --json bench "
                                 "run (default: ./BENCH_engine.json)")
    bench_gate.add_argument("--baseline",
                            default="benchmarks/baseline_engine.json",
                            help="committed baseline JSON")
    bench_gate.add_argument("--figures", default=None, metavar="DIR",
                            help="also check the baseline's figure-level "
                                 "requirements against the BENCH_*.json "
                                 "results in DIR (skips the engine check "
                                 "if --result is absent)")
    bench_gate.set_defaults(fn=_cmd_bench_gate)

    chaos = sub.add_parser(
        "chaos", help="sweep a recovery-enabled scenario spec, shrinking "
                      "each failing seed to a replayable manifest")
    chaos.add_argument("spec",
                       help="host-mode scenario spec (.yaml/.yml/.json) "
                            "whose fault profile has recovery on, e.g. "
                            "examples/chaos_storm.yaml")
    chaos.add_argument("--seeds", type=seed_set, default="0..15",
                       metavar="A..B",
                       help="seed set to sweep ('0..15' or '0,3,9'; "
                            "default 0..15)")
    chaos.add_argument("--out", metavar="FILE",
                       help="write the shrunk reproducers (a JSON list of "
                            "one-seed sweep manifests) to FILE")
    chaos.set_defaults(fn=_cmd_chaos)

    run = sub.add_parser(
        "run", help="execute a declarative scenario spec (YAML/JSON, "
                    "host or cluster mode) across a seed set; emits a "
                    "replayable sweep manifest")
    run.add_argument("spec", nargs="?", default=None,
                     help="scenario spec file (.yaml/.yml/.json)")
    run.add_argument("--seed", type=int, default=0,
                     help="single seed to run (default 0)")
    run.add_argument("--seeds", type=seed_set, default=None,
                     metavar="A..B",
                     help="run a whole seed set ('0..31' or '0,3,9'; "
                          "overrides --seed)")
    run.add_argument("--workers", type=_positive_int, default=1,
                     help="OS processes (default 1): one per seed, or, "
                          "for a cluster spec run under one seed, one "
                          "per group of hosts on the procs backend; the "
                          "manifest is worker-count invariant")
    run.add_argument("--json", action="store_true",
                     help="print the sweep manifest JSON")
    run.add_argument("--out", metavar="FILE",
                     help="write the sweep manifest JSON to FILE")
    run.add_argument("--bench-out", metavar="FILE",
                     help="write BENCH-style JSON (bench-trend/"
                          "bench-gate compatible) to FILE")
    run.add_argument("--replay", metavar="FILE",
                     help="re-run a sweep manifest and verify its "
                          "digest instead of reading a spec")
    observe = run.add_argument_group(
        "observers", "watch one seed of a single-host VM spec")
    observe.add_argument("--sanitize", action="store_true",
                         help="run it twice under the sanitizers and the "
                              "invariant audit; exit 1 on any finding")
    observe.add_argument("--trace", metavar="FILE",
                         help="print its phase attribution and spans, and "
                              "write a Perfetto trace_event file")
    observe.add_argument("--metrics", action="store_true",
                         help="print its metrics registry (--json: the "
                              "manifest's 'metrics' key)")
    run.set_defaults(fn=_cmd_run)

    components = sub.add_parser(
        "components", help="list the scenario stdlib component "
                           "catalogue")
    components.add_argument("--kind", default=None,
                            choices=("host", "guest", "traffic",
                                     "faults", "placement", "topology"),
                            help="restrict the listing to one kind")
    components.set_defaults(fn=_cmd_components)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parser_error = parser.error  # clean exits for runtime lookups
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
