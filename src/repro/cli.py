"""Command-line interface: ``python -m repro <command>``.

Gives the library a downstream-usable front end:

* ``images`` — list the guest catalogue with the paper's footprints;
* ``create`` — run a boot storm under any toolstack variant;
* ``checkpoint`` — save/restore round-trip timings;
* ``tinyx-build`` — run the Tinyx pipeline for an application;
* ``usecase`` — run one of the §7 use cases;
* ``syscalls`` — print the Fig 1 dataset;
* ``lint`` — run the determinism linter over Python sources;
* ``races`` — lock-order & sim-race analysis: deadlock cycles, lock
  leaks, yield-spanning stale read-modify-writes, baseline drift, and
  an optional runtime happens-before witness;
* ``bench-trend`` — wall-clock deltas between two BENCH_*.json sets;
* ``bench-gate`` — engine microbench vs the committed perf baseline;
* ``sanitize`` — dual-run replay-digest check with runtime sanitizers;
* ``trace`` — boot storm under the span tracer: per-phase attribution,
  span summary, optional Chrome/Perfetto ``trace_event`` export;
* ``metrics`` — boot storm, then print the scraped metrics registry;
* ``chaos`` — N seeded fault campaigns against a scenario, invariants
  audited after every recovery, failing schedules delta-debugged down to
  minimal replayable JSON reproducers;
* ``run`` — the one way to run a scenario: execute a declarative
  scenario spec (YAML/JSON, single-host or cluster mode) from the
  scenario standard library across a seed set, in parallel, producing a
  replayable sweep manifest;
* ``components`` — list the stdlib component catalogue.

Flag conventions are shared across ``run``/``chaos`` (see
:mod:`repro.cli_flags`): ``--seed N`` for one seed, ``--seeds A..B`` for
a set, ``--workers`` for parallelism, ``--json``/``--replay`` for
machine-readable output and bit-for-bit replay.
"""

from __future__ import annotations

import argparse
import sys
import typing

from .cli_flags import contiguous_range, seed_set
from .core import Host, VARIANTS
from .core.metrics import mean, median, percentile, sample_indices
from .data import counts_by_year
from .guests import CATALOG, lookup


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


def _lookup_or_exit(parser_error, name: str):
    try:
        return lookup(name)
    except KeyError as exc:
        parser_error(str(exc).strip('"'))


def _cmd_create(args) -> int:
    image = _lookup_or_exit(args.parser_error, args.image)
    host = Host(variant=args.variant, seed=args.seed,
                pool_target=args.count + 32,
                shell_memory_kb=image.memory_kb)
    host.warmup(20.0 * (args.count + 32))
    creates, boots = [], []
    for _ in range(args.count):
        record = host.create_vm(image)
        creates.append(record.create_ms)
        boots.append(record.boot_ms)
    print("booted %d x %s under %s" % (args.count, args.image,
                                       args.variant))
    print("%-8s %12s %12s" % ("n", "create(ms)", "boot(ms)"))
    for index in sample_indices(args.count, min(10, args.count)):
        print("%-8d %12.2f %12.2f" % (index + 1, creates[index],
                                      boots[index]))
    print("create: mean=%.2f median=%.2f p90=%.2f"
          % (mean(creates), median(creates), percentile(creates, 90)))
    if args.stats:
        from .core.stats import snapshot
        print()
        print(snapshot(host).render())
    if args.plot:
        from .core.asciiplot import render
        print()
        print(render(list(range(1, args.count + 1)),
                     {"create": creates, "boot": boots},
                     logy=True,
                     title="%s on %s" % (args.image, args.variant)))
    return 0


def _cmd_faults(args) -> int:
    from .faults import FaultPlan
    plan = FaultPlan.uniform(args.rate, points=args.points, seed=args.seed)
    host = Host(variant=args.variant, seed=args.seed,
                pool_target=args.count + 32,
                shell_memory_kb=_lookup_or_exit(args.parser_error,
                                                args.image).memory_kb,
                fault_plan=plan)
    image = lookup(args.image)
    host.warmup(20.0 * (args.count + 32))
    creates, failures = [], 0
    for _ in range(args.count):
        try:
            record = host.create_vm(image)
        except Exception:
            failures += 1
            continue
        creates.append(record.create_ms)
    host.sim.run(until=host.sim.now + 100.0)
    print("fault storm: %d x %s under %s at rate %.3f (%s)"
          % (args.count, args.image, args.variant, args.rate, args.points))
    if creates:
        print("create: mean=%.2f median=%.2f p99=%.2f ms (%d ok, %d failed)"
              % (mean(creates), median(creates), percentile(creates, 99),
                 len(creates), failures))
    else:
        print("no creation survived (%d failed)" % failures)
    print("%-24s %12s %10s" % ("fault point", "occurrences", "injected"))
    for point, counters in sorted(host.fault_metrics().items()):
        print("%-24s %12d %10d" % (point, counters["occurrences"],
                                   counters["injected"]))
    violations = host.check_invariants()
    print("invariants: %s" % ("clean" if not violations
                              else "%d violation(s)" % len(violations)))
    for violation in violations:
        print("  " + violation)
    return 1 if violations else 0


def _cmd_checkpoint(args) -> int:
    image = _lookup_or_exit(args.parser_error, args.image)
    host = Host(variant=args.variant, seed=args.seed)
    host.warmup(500)
    config = host.config_for(image)
    record = host.create_vm(config)
    domain = record.domain
    saves, restores = [], []
    for _ in range(args.cycles):
        t0 = host.sim.now
        saved = host.save_vm(domain, config)
        saves.append(host.sim.now - t0)
        t0 = host.sim.now
        domain = host.restore_vm(saved)
        restores.append(host.sim.now - t0)
    print("%d checkpoint cycles of %s under %s" % (args.cycles,
                                                   args.image,
                                                   args.variant))
    print("save:    mean %.1f ms" % mean(saves))
    print("restore: mean %.1f ms" % mean(restores))
    return 0


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


def _cmd_sanitize(args) -> int:
    from .analysis import EventTrace, Sanitizer
    from .faults import FaultPlan
    from .sim import Simulator

    image = _lookup_or_exit(args.parser_error, args.image)
    plan = (FaultPlan.uniform(args.rate, points=args.points,
                              seed=args.seed)
            if args.rate > 0.0 else None)
    digests, violation_total = [], 0
    for run in range(args.runs):
        sim = Simulator()
        trace = EventTrace().attach(sim)
        sanitizer = Sanitizer().attach(sim)
        with sanitizer.watch_rng():
            host = Host(variant=args.variant, seed=args.seed, sim=sim,
                        pool_target=args.count + 32,
                        shell_memory_kb=image.memory_kb,
                        fault_plan=plan)
            host.warmup(20.0 * (args.count + 32))
            failures = 0
            for _ in range(args.count):
                try:
                    host.create_vm(image)
                except Exception:
                    failures += 1
            # Drain in-flight teardowns before auditing.
            sim.run(until=sim.now + 500.0)
        violations = sanitizer.check() + host.check_invariants()
        violation_total += len(violations)
        digests.append(trace.digest())
        print("run %d: %d events, %d failed create(s), digest %s"
              % (run + 1, trace.events, failures, trace.digest()))
        for violation in violations:
            print("  violation: %s" % violation)
    identical = len(set(digests)) == 1
    print("sanitizers: %s" % ("clean" if not violation_total
                              else "%d violation(s)" % violation_total))
    print("replay: %s" % ("IDENTICAL" if identical else "DIVERGED"))
    return 0 if identical and not violation_total else 1


def _traced_storm(args):
    """Run a boot storm with a tracer + metrics registry attached;
    returns (host, tracer, registry)."""
    from .sim import Simulator
    from .trace import MetricsRegistry, Tracer

    image = _lookup_or_exit(args.parser_error, args.image)
    sim = Simulator()
    registry = MetricsRegistry(sim=sim)
    tracer = Tracer(metrics=registry).attach(sim)
    host = Host(variant=args.variant, seed=args.seed, sim=sim,
                pool_target=args.count + 32,
                shell_memory_kb=image.memory_kb)
    host.warmup(20.0 * (args.count + 32))
    for _ in range(args.count):
        host.create_vm(image)
    return host, tracer, registry


def _cmd_trace(args) -> int:
    from .trace import (phase_attribution, render_attribution,
                        render_span_summary, write_chrome_trace)

    host, tracer, _registry = _traced_storm(args)
    print("traced %d x %s under %s: %d spans on %d tracks"
          % (args.count, args.image, args.variant, len(tracer.spans),
             len(tracer.track_names)))
    totals = phase_attribution(tracer)
    if totals:
        print()
        print(render_attribution(totals, count=args.count))
    print()
    print(render_span_summary(tracer))
    if args.out:
        events = write_chrome_trace(tracer, args.out)
        print()
        print("wrote %d trace events to %s "
              "(load in Perfetto or chrome://tracing)" % (events, args.out))
    return 0


def _cmd_metrics(args) -> int:
    import json

    from .trace import collect_host_metrics

    host, _tracer, registry = _traced_storm(args)
    collect_host_metrics(host, registry)
    if args.json:
        print(json.dumps(registry.as_dict(), indent=2, sort_keys=True))
    else:
        print(registry.render())
    return 0


def _cmd_chaos(args) -> int:
    import json

    from .recovery import campaign

    if args.replay:
        with open(args.replay) as handle:
            data = json.load(handle)
        documents = data if isinstance(data, list) else [data]
        reproduced = True
        for document in documents:
            result = campaign.replay(document)
            same = (result.violations == document.get("violations")
                    and result.digest == document.get("digest"))
            reproduced = reproduced and same
            print("seed %d: %d violation(s), digest %s — %s"
                  % (result.seed, len(result.violations),
                     result.digest[:12],
                     "reproduced" if same else "DIVERGED from record"))
            for violation in result.violations:
                print("  violation: %s" % violation)
        return 0 if reproduced else 1

    _lookup_or_exit(args.parser_error, args.image)
    span = contiguous_range(args.seeds)
    if span is None:
        args.parser_error(
            "argument --seeds: chaos campaigns need a contiguous range "
            "(run i replays seed base+i), got %s"
            % ",".join(str(seed) for seed in args.seeds))
    base_seed, count = span
    report = campaign.run_campaign(
        seeds=count, base_seed=base_seed, scenario=args.scenario,
        variant=args.variant, image=args.image, count=args.count,
        queue_cap=args.queue_cap, reap=not args.no_reap,
        do_shrink=not args.no_shrink, max_rules=args.rules,
        max_occurrence=args.occurrences, log=print)
    print()
    print("campaign: %d seeded run(s), %d failure(s)%s"
          % (len(report.runs), len(report.failures),
             "" if report.ok else " — reproducers shrunk"))
    if args.out and report.failures:
        with open(args.out, "w") as handle:
            json.dump(report.failures, handle, indent=2, sort_keys=True)
        print("wrote %d reproducer(s) to %s"
              % (len(report.failures), args.out))
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    import json
    import time  # noqa: RPR002 -- wall-clock only annotates the CLI report; it is read outside the simulated timeline

    from .stdlib import (ComponentError, SpecError, SweepError, load_spec,
                         replay_manifest, run_sweep, workers_on_hosts,
                         write_bench_json)

    if args.replay:
        try:
            with open(args.replay) as handle:
                payload = json.load(handle)
            same, result = replay_manifest(payload, workers=args.workers)
        except (OSError, json.JSONDecodeError, SpecError, ComponentError,
                SweepError) as exc:
            print("repro run: error: %s: %s" % (args.replay, exc),
                  file=sys.stderr)
            return 2
        print("scenario %s: %d seed(s), manifest digest %s — %s"
              % (result["scenario"], len(result["runs"]),
                 result["manifest_digest"][:12],
                 "reproduced" if same else "DIVERGED from record"))
        return 0 if same else 1

    if args.spec is None:
        args.parser_error("repro run needs a scenario spec file "
                          "(or --replay FILE)")
    try:
        spec = load_spec(args.spec)
    except FileNotFoundError:
        print("repro run: error: no such file: %s" % args.spec,
              file=sys.stderr)
        return 2
    except (SpecError, ComponentError) as exc:
        print("repro run: error: %s: %s" % (args.spec, exc),
              file=sys.stderr)
        return 2

    seeds = args.seeds if args.seeds is not None else [args.seed]
    on_hosts = workers_on_hosts(spec, seeds, args.workers)
    start = time.perf_counter()  # noqa: RPR002 -- wall-clock annotates the CLI report only, outside the timeline
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
        return 0
    print("scenario %s (mode %s): %d seed(s), %d worker(s) on %s, "
          "%.2f s wall"
          % (manifest["scenario"], manifest["mode"],
             len(manifest["runs"]),
             min(args.workers, spec.hosts if on_hosts else len(seeds)),
             "hosts" if on_hosts else "seeds", wall_s))
    for record in manifest["runs"]:
        print("  seed %-4d %7d event(s) %10.1f ms  digest %s"
              % (record["seed"], record["events"], record["sim_ms"],
                 record["digest"][:12]))
    for key in sorted(manifest["stats"]):
        print("  %-24s %12.2f" % (key, manifest["stats"][key]))
    print("  spec digest     %s" % manifest["spec_digest"])
    print("  manifest digest %s" % manifest["manifest_digest"])
    if args.out:
        print("  wrote sweep manifest to %s" % args.out)
    if args.bench_out:
        print("  wrote BENCH-style JSON to %s" % args.bench_out)
    return 0


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

    create = sub.add_parser("create", help="run a boot storm")
    create.add_argument("--variant", choices=VARIANTS, default="lightvm")
    create.add_argument("--image", default="daytime")
    create.add_argument("--count", type=_positive_int, default=10)
    create.add_argument("--seed", type=int, default=0)
    create.add_argument("--plot", action="store_true",
                        help="render an ASCII chart of the series")
    create.add_argument("--stats", action="store_true",
                        help="print a host-wide stats snapshot at the end")
    create.set_defaults(fn=_cmd_create)

    faults = sub.add_parser(
        "faults", help="run a boot storm under injected faults")
    faults.add_argument("--variant", choices=VARIANTS, default="lightvm")
    faults.add_argument("--image", default="daytime")
    faults.add_argument("--count", type=_positive_int, default=10)
    faults.add_argument("--rate", type=float, default=0.02,
                        help="per-occurrence fault probability")
    faults.add_argument("--points", default="*",
                        help="fault-point pattern, e.g. 'xenstore.*'")
    faults.add_argument("--seed", type=int, default=0)
    faults.set_defaults(fn=_cmd_faults)

    checkpoint = sub.add_parser("checkpoint",
                                help="save/restore round trips")
    checkpoint.add_argument("--variant", choices=VARIANTS,
                            default="lightvm")
    checkpoint.add_argument("--image", default="daytime")
    checkpoint.add_argument("--cycles", type=_positive_int, default=3)
    checkpoint.add_argument("--seed", type=int, default=0)
    checkpoint.set_defaults(fn=_cmd_checkpoint)

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

    sanitize = sub.add_parser(
        "sanitize",
        help="dual-run replay-digest check with runtime sanitizers")
    sanitize.add_argument("--variant", choices=VARIANTS,
                          default="lightvm")
    sanitize.add_argument("--image", default="daytime")
    sanitize.add_argument("--count", type=_positive_int, default=10)
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument("--rate", type=float, default=0.0,
                          help="uniform fault-injection probability "
                               "(0 disables the FaultPlan)")
    sanitize.add_argument("--points", default="*",
                          help="fault-point pattern, e.g. 'xenstore.*'")
    sanitize.add_argument("--runs", type=_positive_int, default=2,
                          help="independent runs to digest and compare")
    sanitize.set_defaults(fn=_cmd_sanitize)

    trace = sub.add_parser(
        "trace", help="boot storm under the span tracer "
                      "(phase attribution + Perfetto export)")
    trace.add_argument("--variant", choices=VARIANTS, default="lightvm")
    trace.add_argument("--image", default="daytime")
    trace.add_argument("--count", type=_positive_int, default=10)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", metavar="FILE",
                       help="write a Chrome/Perfetto trace_event JSON "
                            "file")
    trace.set_defaults(fn=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="boot storm, then print the metrics registry")
    metrics.add_argument("--variant", choices=VARIANTS,
                         default="lightvm")
    metrics.add_argument("--image", default="daytime")
    metrics.add_argument("--count", type=_positive_int, default=10)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--json", action="store_true",
                         help="emit the registry as JSON")
    metrics.set_defaults(fn=_cmd_metrics)

    chaos = sub.add_parser(
        "chaos", help="seeded fault campaigns with shrinking reproducers")
    chaos.add_argument("--variant", choices=VARIANTS, default="chaos+xs")
    chaos.add_argument("--image", default="daytime")
    chaos.add_argument("--scenario", choices=("boot-storm", "churn"),
                       default="boot-storm")
    chaos.add_argument("--seeds", type=seed_set, default="0..15",
                       metavar="A..B",
                       help="contiguous seed range to campaign over "
                            "(default 0..15)")
    chaos.add_argument("--count", type=_positive_int, default=8,
                       help="guests each scenario run creates")
    chaos.add_argument("--rules", type=_positive_int, default=3,
                       help="max fault rules per generated schedule")
    chaos.add_argument("--occurrences", type=_positive_int, default=40,
                       help="max occurrence number a rule may target")
    chaos.add_argument("--queue-cap", type=_positive_int, default=None,
                       help="daemon admission-queue depth (enables "
                            "load shedding)")
    chaos.add_argument("--no-reap", action="store_true",
                       help="skip the recovery pass (self-test: crashed "
                            "schedules must then fail the audit)")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="report failing schedules without ddmin")
    chaos.add_argument("--out", metavar="FILE",
                       help="write failing reproducers as JSON")
    chaos.add_argument("--replay", metavar="FILE",
                       help="re-run reproducer JSON instead of a campaign")
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
