"""Command-line interface: ``python -m repro <command>``.

Small utilities around the flow, useful for poking at the reproduction
without writing a script:

``demo``      run the closed-loop auto-exposure system and print per-frame
              convergence (the headline scenario).
``synth``     synthesize the ExpoCU (OSSS flow), print the synthesis
              report and optionally write Verilog.
``flows``     run both flows and print the §12 comparison + Fig. 12 table.
``resolve``   print the Fig. 7 procedural intermediate of the paper's
              SyncRegister example.
``effort``    print the E8 effort-metric table.
``lint``      run the standalone OSSS analyzer (fail-slow diagnostics;
              text, JSON or SARIF output).
``analyze``   run the netlist structural analysis (SCOAP testability,
              fault collapsing, OSS5xx observability lints) on the
              optimized gates, memoized through the design library.
``inject``    run a seeded fault-injection campaign on the ExpoCU
              (RTL or netlist flow, optional TMR/parity hardening);
              supervised workers, per-fault deadlines and a crash-safe
              journal (``--resume``) keep long campaigns restartable.
``dse``       multi-objective design-space exploration over the bundled
              ExpoCU spaces (factorial or evolutionary search, memoized
              per point through the design library), emitting a
              ``repro-dse/v1`` report with the exact Pareto front and
              MCDM ranking.
``profile``   profile a bundled workload (flows, synthesis or a fault
              campaign) and emit a ``repro-trace/v1`` span report.
``build``     run the ExpoCU flows through the design library
              (content-addressed cache): warm rebuilds skip unchanged
              stages.
``cache``     design-library maintenance: ``stats``, ``gc``, ``verify``.
``serve``     long-lived job server (JSON over HTTP on a TCP port or
              Unix socket): clients submit build/analyze/inject/dse
              jobs, identical concurrent submissions coalesce onto one
              computation, and results are byte-identical to the
              one-shot commands above.
``submit``    thin client for ``serve``: submit a job, stream/await
              its result.

``synth``/``flows``/``inject`` also accept ``--profile <out.json>`` to
write the same span report for their own run.

Usage errors (a bad flag or value, an unloadable ``--design``), file
system errors on user-supplied paths (:class:`OSError`) and uncaught
flow errors (:class:`~repro.synth.SynthesisError`,
:class:`~repro.netlist.NetlistError`, :class:`~repro.store.StoreError`,
:class:`~repro.fault.CampaignError`) print as one-line
``repro: error: ...`` diagnostics with exit code 2 instead of
tracebacks.  ``repro inject`` additionally exits 1 when the golden
self-check fails and 3 when any fault was quarantined by its
``--fault-timeout`` deadline (the report under-covers the fault list).
"""

from __future__ import annotations

import argparse
import importlib
import sys


class UsageError(Exception):
    """A command-line value the parser's types cannot rule out."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``repro: error:`` line."""

    def error(self, message: str):
        self.exit(2, f"repro: error: {message} "
                     f"(see '{self.prog} --help')\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _default_design():
    from repro.serve.jobs import default_design

    return default_design()


def _load_design(spec: str):
    """Build a design from a ``pkg.module:callable`` factory spec."""
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise UsageError(
            f"--design must look like 'pkg.module:factory', got {spec!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise UsageError(f"cannot import {module_name!r}: {exc}") from exc
    factory = getattr(module, attr, None)
    if factory is None:
        raise UsageError(f"{module_name!r} has no attribute {attr!r}")
    return factory() if callable(factory) else factory


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.expocu import CameraModel, ExpoCU
    from repro.hdl import Clock, Module, NS, Signal, Simulator
    from repro.types import Bit
    from repro.types.spec import bit

    top = Module("system")
    top.clk = Clock("clk", 15 * NS)
    top.rst = Signal("rst", bit(), Bit(1))
    top.cam = CameraModel("cam", top.clk, top.rst, width=16, height=16,
                          scene_mean=args.scene_mean)
    top.dut = ExpoCU[16, 16]("expocu", top.clk, top.rst)
    for port in ("pix", "pix_valid", "line_strobe", "frame_strobe"):
        top.dut.port(port).bind(top.cam.port(port))
    top.cam.port("scl").bind(top.dut.port("scl"))
    top.cam.port("sda_master").bind(top.dut.port("sda_out"))
    top.cam.port("sda_oe").bind(top.dut.port("sda_oe"))
    top.dut.port("sda_in").bind(top.cam.port("sda_in"))
    sim = Simulator(top)
    sim.run(10 * 15 * NS)
    top.rst.write(0)
    print("frame | mean  | exposure | gain")
    for frame in range(args.frames):
        sim.run(700 * 15 * NS)
        print(f"{frame:5d} | {top.cam.mean_pixel():5.1f} | "
              f"{top.cam.exposure:8d} | {top.cam.gain:4d}")
    return 0


def _print_warnings(diagnostics) -> int:
    """Print warning diagnostics; returns how many there were."""
    warnings = [d for d in diagnostics if d.severity == "warning"]
    for diag in warnings:
        print(diag.render())
    return len(warnings)


def _write_profile(tracer, path: str | None) -> None:
    """Write *tracer* to *path* (validated) and say where it went."""
    if not path:
        return
    tracer.write(path)
    print(f"profile trace written to {path}")


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.analyze import diagnostics_from_lint_report
    from repro.obs import NULL_TRACER, Tracer
    from repro.rtl.lint import lint_module
    from repro.synth import synthesize
    from repro.synth.report import design_report

    tracer = Tracer("synth") if args.profile else NULL_TRACER
    module = _default_design()
    with tracer.span("synthesize"):
        rtl = synthesize(module, observe_children=False)
    print(design_report(module, rtl))
    with tracer.span("lint"):
        lint_report = lint_module(rtl)
    warnings = _print_warnings(
        diagnostics_from_lint_report(lint_report, "osss")
    )
    if args.verilog:
        from repro.rtl.verilog import to_verilog

        with tracer.span("verilog"), \
                open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(to_verilog(rtl))
        print(f"\nbehavioral Verilog written to {args.verilog}")
    if args.netlist:
        from repro.netlist import map_module, optimize
        from repro.netlist.verilog import (
            netlist_stats_comment,
            to_structural_verilog,
        )

        with tracer.span("techmap"):
            circuit = map_module(rtl)
        with tracer.span("opt"):
            optimize(circuit)
        with open(args.netlist, "w", encoding="utf-8") as handle:
            handle.write(netlist_stats_comment(circuit))
            handle.write(to_structural_verilog(circuit))
        print(f"structural netlist written to {args.netlist}")
    _write_profile(tracer, args.profile)
    if warnings and args.strict:
        print(f"strict mode: {warnings} lint warning(s)")
        return 1
    return 0


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro.baseline import expocu_rtl
    from repro.eval import (
        flow_comparison,
        module_inventory,
        run_osss_flow,
        run_vhdl_flow,
    )

    from repro.obs import NULL_TRACER, Tracer

    tracer = Tracer("flows") if args.profile else NULL_TRACER
    osss = run_osss_flow(_default_design(), "osss", tracer=tracer)
    vhdl = run_vhdl_flow(expocu_rtl(), "vhdl", tracer=tracer)
    print(flow_comparison(osss, vhdl))
    print()
    print(module_inventory(osss))
    warnings = _print_warnings(osss.diagnostics + vhdl.diagnostics)
    _write_profile(tracer, args.profile)
    if warnings and args.strict:
        print(f"strict mode: {warnings} lint warning(s)")
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analyze import analyze_design
    from repro.analyze.emit import RENDERERS

    design = (_load_design(args.design) if args.design
              else _default_design())
    diagnostics = analyze_design(
        design, design_lints=not args.no_design_lints
    )
    rendered = RENDERERS[args.format](diagnostics)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"{args.format} report written to {args.output}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = len(diagnostics) - errors
    if errors:
        return 1
    if warnings and args.strict:
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.eval import run_netlist_analysis
    from repro.store import ArtifactStore, serialize_testability

    design = (_load_design(args.design) if args.design
              else _default_design())
    store = None
    if not args.no_cache:
        store = ArtifactStore(args.cache_dir)
        if args.cold:
            store.clear()
    circuit, analysis = run_netlist_analysis(design, store=store)
    counter_totals = store.counter_totals() if store is not None else None
    if args.format == "json":
        doc = serialize_testability(analysis, circuit)
        rendered = json.dumps(doc, indent=2) + "\n"
    else:
        summary = analysis.summary()
        lines = [
            f"netlist analysis: {summary['design']}",
            f"  nets: {summary['nets']}, "
            f"equivalent fault sites merged: "
            f"{summary['equivalent_fault_sites_merged']} "
            f"(in {summary['equivalence_classes']} classes), "
            f"dominance-droppable: {summary['dominance_droppable']}",
            f"  worst finite observability: "
            f"{summary['max_finite_observability']}",
        ]
        for diagnostic in analysis.diagnostics:
            lines.append(diagnostic.render())
        rendered = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"{args.format} report written to {args.output}")
    else:
        print(rendered, end="")
    if counter_totals is not None:
        print(f"cache: {counter_totals['hit']} hit(s), "
              f"{counter_totals['miss']} miss(es), "
              f"{counter_totals['store']} store(s)", file=sys.stderr)
    if args.strict and analysis.diagnostics:
        return 1
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    import os

    from repro.fault import expocu_campaign
    from repro.obs import NULL_TRACER, Tracer

    tag = f"fault_{args.flow}_{args.hardening}_seed{args.seed}"
    if args.backend != "event":
        tag += f"_{args.backend}"
    journal = args.journal
    if journal is None and args.resume:
        # --resume without an explicit journal: the campaign's default
        # journal next to the design library, keyed by the same tag as
        # the default report.
        from repro.store import ArtifactStore

        journal = str(ArtifactStore(args.cache_dir).journal_path(tag))
    tracer = Tracer("inject") if args.profile else NULL_TRACER
    result = expocu_campaign(
        flow=args.flow,
        faults=args.faults,
        seed=args.seed,
        hardening=args.hardening,
        jobs=args.jobs,
        backend=args.backend,
        collapse=args.collapse,
        tracer=tracer,
        fault_timeout=args.fault_timeout,
        max_retries=args.max_retries,
        journal=journal,
        resume=args.resume,
    )
    output = args.output
    if output is None and os.path.isdir("benchmarks/results"):
        output = os.path.join("benchmarks", "results", f"{tag}.json")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
    if args.format == "json":
        print(result.to_json(), end="")
    else:
        from repro.eval import format_table

        print(format_table(result.summary_rows()))
        print(f"\ngolden run: selfcheck={result.golden_selfcheck}, "
              f"done={result.golden_done} "
              f"(drained {result.golden_drain_cycles} cycles)")
        if result.collapse is not None:
            stats = result.collapse
            print(f"collapse: simulated {stats['simulated']} of "
                  f"{stats['unique']} unique faults "
                  f"(equivalence-merged {stats['equivalence_merged']}, "
                  f"quiescence-pruned {stats['quiescence_pruned']})")
        exec_stats = result.exec_stats or {}
        eventful = {key: exec_stats[key]
                    for key in ("journal_hits", "respawns", "crashes",
                                "crash_requeues", "timeouts",
                                "timeout_retries", "quarantined",
                                "hung_kills", "fallback")
                    if exec_stats.get(key)}
        if eventful:
            detail = ", ".join(f"{key}={value}"
                               for key, value in eventful.items())
            print(f"resilience: {detail}")
        if result.errors:
            print(f"quarantined: {len(result.errors)} fault(s) exceeded "
                  "the --fault-timeout deadline and were excluded from "
                  "the record stream")
        if output:
            print(f"campaign report written to {output}")
    _write_profile(tracer, args.profile)
    if result.golden_selfcheck != "masked":
        print("error: golden replay diverged from the golden run")
        return 1
    if result.errors:
        return 3
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import DseResult
    from repro.obs import NULL_TRACER, Tracer
    from repro.serve.jobs import make_spec, run_job
    from repro.store import ArtifactStore

    store = None
    if not args.no_cache:
        store = ArtifactStore(args.cache_dir)
        if args.cold:
            store.clear()
    tracer = Tracer("dse") if args.profile else NULL_TRACER
    # Same execution path as 'repro serve' dse jobs (byte-diffable).
    payload = run_job(
        make_spec("dse", {
            "space": args.space, "side": args.side,
            "strategy": args.strategy, "fraction": args.fraction,
            "population": args.population,
            "generations": args.generations, "seed": args.seed,
            "faults": args.faults, "campaign_seed": args.campaign_seed,
            "backend": args.backend,
        }),
        store=store, tracer=tracer)
    result = DseResult(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
    if args.format == "json":
        print(result.to_json(), end="")
    else:
        print(result.summary(), end="")
        if args.output:
            print(f"dse report written to {args.output}")
    if store is not None:
        counts = store.counter_totals()
        print(f"cache: {counts['hit']} hit(s), {counts['miss']} miss(es), "
              f"{counts['store']} store(s)", file=sys.stderr)
    _write_profile(tracer, args.profile)
    if result.doc["failures"] and not result.doc["points"]:
        print("error: every design point failed", file=sys.stderr)
        return 1
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    from repro.expocu import SyncRegister
    from repro.synth.codegen import resolve_class_text

    print(resolve_class_text(SyncRegister[args.regsize, args.resetvalue]))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.eval import format_table
    from repro.obs import Tracer, validate_trace

    tracer = Tracer(args.target)
    if args.target == "flows":
        from repro.baseline import expocu_rtl
        from repro.eval import run_osss_flow, run_vhdl_flow

        run_osss_flow(_default_design(), "osss", tracer=tracer)
        run_vhdl_flow(expocu_rtl(), "vhdl", tracer=tracer)
    elif args.target == "synth":
        from repro.synth import synthesize

        with tracer.span("synthesize"):
            synthesize(_default_design(), observe_children=False)
    else:  # campaign
        from repro.fault import expocu_campaign

        expocu_campaign(flow=args.flow, faults=args.faults, seed=args.seed,
                        jobs=args.jobs, backend=args.backend, tracer=tracer)
    validate_trace(tracer.as_dict())
    if args.format == "json":
        print(tracer.to_json(), end="")
    else:
        print(format_table(tracer.summary_rows()))
        print(f"\ntotal: {tracer.total_seconds():.4f}s")
    _write_profile(tracer, args.output)
    return 0


def _cmd_effort(args: argparse.Namespace) -> int:
    from repro.eval import format_table, i2c_effort_comparison

    rows = [record.as_dict()
            for record in i2c_effort_comparison().values()]
    print(format_table(rows))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    import json

    from repro.obs import NULL_TRACER, Tracer
    from repro.serve.jobs import make_spec, run_job
    from repro.store import ArtifactStore

    store = None
    if not args.no_cache:
        store = ArtifactStore(args.cache_dir)
        if args.cold:
            store.clear()
    tracer = Tracer("build") if args.profile else NULL_TRACER
    # The same execution path 'repro serve' uses for build jobs — the
    # serve tests diff server results against this command's output.
    payload = run_job(make_spec("build", {"flow": args.flow}),
                      store=store, tracer=tracer)
    if args.json:
        # Summaries only: this output is byte-comparable across cold,
        # warm and cache-disabled runs (counters go to stderr).
        print(json.dumps(payload, indent=2))
    else:
        from repro.eval import format_table

        print(format_table(payload["flows"]))
    if store is not None:
        counts = store.counter_totals()
        line = (f"cache: {counts['hit']} hit(s), {counts['miss']} miss(es), "
                f"{counts['store']} store(s)")
        if counts["corrupt"]:
            line += f", {counts['corrupt']} corrupt entr(ies) recomputed"
        print(line, file=sys.stderr)
    _write_profile(tracer, args.profile)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import run_server

    return run_server(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        cache_dir=None if args.no_cache else args.cache_dir,
        workers=args.workers,
        job_timeout=args.job_timeout,
        grace_s=args.grace,
        verbose=args.verbose,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError

    if not args.socket and not args.port:
        print("repro: error: submit needs --socket PATH or --port N",
              file=sys.stderr)
        return 2
    try:
        params = json.loads(args.params)
    except ValueError as exc:
        print(f"repro: error: --params is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    client = ServeClient(socket_path=args.socket, host=args.host,
                         port=args.port)
    try:
        job = client.submit(args.kind, params, force=args.force)
        if args.no_wait:
            print(json.dumps({"job": job}, indent=2))
            return 0
        text = client.result_text(job["id"], timeout_s=args.timeout)
    except ServeError as exc:
        print(f"repro: error: server refused: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    # The rendered result already ends in a newline and is
    # byte-identical to the matching one-shot command's JSON output.
    print(text, end="")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.cache_command == "stats":
        print(json.dumps(store.stats(), indent=2))
        return 0
    if args.cache_command == "gc":
        max_age = (args.max_age_days * 86400.0
                   if args.max_age_days is not None else None)
        report = store.gc(max_age)
        print(json.dumps(report, indent=2))
        return 0
    # verify
    report = store.verify(repair=args.repair)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = _Parser(
        prog="repro",
        description="PyOSSS — OSSS methodology reproduction (DATE 2004)",
    )
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="closed-loop auto-exposure demo")
    demo.add_argument("--frames", type=int, default=10)
    demo.add_argument("--scene-mean", type=int, default=100)
    demo.set_defaults(func=_cmd_demo)

    synth = sub.add_parser("synth", help="synthesize the ExpoCU")
    synth.add_argument("--verilog", help="write behavioral Verilog here")
    synth.add_argument("--netlist", help="write structural netlist here")
    synth.add_argument("--strict", action="store_true",
                       help="exit non-zero on lint warnings")
    synth.add_argument("--profile", metavar="OUT.json",
                       help="write a repro-trace/v1 span report here")
    synth.set_defaults(func=_cmd_synth)

    flows = sub.add_parser("flows", help="both flows, §12 comparison")
    flows.add_argument("--strict", action="store_true",
                       help="exit non-zero on lint warnings")
    flows.add_argument("--profile", metavar="OUT.json",
                       help="write a repro-trace/v1 span report here")
    flows.set_defaults(func=_cmd_flows)

    lint = sub.add_parser(
        "lint", help="static analysis (fail-slow OSSS analyzer)"
    )
    lint.add_argument(
        "--design", metavar="PKG.MOD:FACTORY",
        help="design factory to analyze (default: the ExpoCU top)",
    )
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="output format")
    lint.add_argument("--output", help="write the report here")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings too")
    lint.add_argument("--no-design-lints", action="store_true",
                      help="skip the RTL4xx design lints")
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="netlist structural analysis (testability, collapsing, lints)",
    )
    analyze.add_argument(
        "--design", metavar="PKG.MOD:FACTORY",
        help="design factory to analyze (default: the ExpoCU top)",
    )
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="text summary or the repro-testability/v1 "
                         "JSON report")
    analyze.add_argument("--output", help="write the report here")
    analyze.add_argument("--strict", action="store_true",
                         help="exit non-zero when any OSS5xx lint fires")
    analyze.add_argument("--cache-dir", default=".repro-cache",
                         help="design-library directory (shared with "
                         "'repro build')")
    analyze.add_argument("--cold", action="store_true",
                         help="clear the cache first")
    analyze.add_argument("--no-cache", action="store_true",
                         help="run without the design library")
    analyze.set_defaults(func=_cmd_analyze)

    inject = sub.add_parser(
        "inject", help="fault-injection campaign on the ExpoCU"
    )
    inject.add_argument("--flow", choices=("rtl", "netlist"), default="rtl",
                        help="inject into RTL registers or netlist nets")
    inject.add_argument("--faults", type=int, default=50,
                        help="number of seeded faults to inject")
    inject.add_argument("--seed", type=int, default=1,
                        help="campaign seed (stimulus and fault list)")
    inject.add_argument("--hardening",
                        choices=("none", "tmr", "parity", "tmr+parity"),
                        default="none",
                        help="netlist hardening applied before injection")
    inject.add_argument("--jobs", type=int, default=1,
                        help="worker processes sharding the fault list "
                        "(the report stays byte-identical to --jobs 1)")
    inject.add_argument("--backend",
                        choices=("event", "compiled", "bitparallel"),
                        default="event",
                        help="gate evaluator: interpreted event-driven, "
                        "code-generated straight-line, or lane-packed "
                        "bit-parallel (netlist flow)")
    inject.add_argument("--collapse", action="store_true",
                        help="statically collapse the fault list "
                        "(equivalence + quiescence pruning; netlist flow, "
                        "report stays byte-identical)")
    inject.add_argument("--fault-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per fault replay; a "
                        "fault overrunning it is retried, then "
                        "quarantined (exit code 3)")
    inject.add_argument("--max-retries", type=int, default=1,
                        help="retries for a timed-out fault before "
                        "quarantine (default: 1)")
    inject.add_argument("--journal", metavar="PATH",
                        help="crash-safe campaign journal (JSONL); every "
                        "classified fault is durably appended")
    inject.add_argument("--resume", action="store_true",
                        help="resume from the journal: already-simulated "
                        "faults are restored, the report is byte-identical "
                        "to an uninterrupted run (default journal lives "
                        "under --cache-dir)")
    inject.add_argument("--cache-dir", default=".repro-cache",
                        help="design-library root the default --resume "
                        "journal lives next to")
    inject.add_argument("--format", choices=("text", "json"),
                        default="text", help="stdout format")
    inject.add_argument("--output", help="write the JSON report here "
                        "(default: benchmarks/results/ when present)")
    inject.add_argument("--profile", metavar="OUT.json",
                        help="write a repro-trace/v1 span report here")
    inject.set_defaults(func=_cmd_inject)

    dse = sub.add_parser(
        "dse",
        help="multi-objective design-space exploration on the ExpoCU",
    )
    dse.add_argument("--space", choices=("tiny", "full"), default="tiny",
                     help="bundled ExpoCU space: tiny (4 points) or "
                     "full (24 points)")
    dse.add_argument("--side", type=int, default=4,
                     help="frame side length of the explored ExpoCU "
                     "specializations (default: 4)")
    dse.add_argument("--strategy",
                     choices=("factorial", "evolutionary"),
                     default="factorial", help="search strategy")
    dse.add_argument("--fraction", type=int, default=1,
                     help="factorial: keep 1/N of the full design "
                     "(index-sum fractional design)")
    dse.add_argument("--population", type=int, default=8,
                     help="evolutionary: population size")
    dse.add_argument("--generations", type=int, default=6,
                     help="evolutionary: number of generations")
    dse.add_argument("--seed", type=int, default=1,
                     help="evolutionary: search seed")
    dse.add_argument("--faults", type=int, default=24,
                     help="seeded faults injected per design point")
    dse.add_argument("--campaign-seed", type=int, default=2004,
                     help="campaign seed (stimulus and fault list)")
    dse.add_argument("--backend",
                     choices=("event", "compiled", "bitparallel"),
                     default="bitparallel",
                     help="gate evaluator backend (reports are "
                     "byte-identical across backends)")
    dse.add_argument("--cache-dir", default=".repro-cache",
                     help="design-library directory (shared with "
                     "'repro build')")
    dse.add_argument("--cold", action="store_true",
                     help="clear the cache first")
    dse.add_argument("--no-cache", action="store_true",
                     help="run without the design library")
    dse.add_argument("--format", choices=("text", "json"),
                     default="text", help="stdout format")
    dse.add_argument("--output", help="write the repro-dse/v1 report here")
    dse.add_argument("--profile", metavar="OUT.json",
                     help="write a repro-trace/v1 span report here")
    dse.set_defaults(func=_cmd_dse)

    profile = sub.add_parser(
        "profile", help="profile a bundled workload (repro-trace/v1)"
    )
    profile.add_argument("--target", choices=("flows", "synth", "campaign"),
                         default="flows",
                         help="workload to run under the profiler")
    profile.add_argument("--flow", choices=("rtl", "netlist"), default="rtl",
                         help="campaign target: flow to inject into")
    profile.add_argument("--faults", type=int, default=10,
                         help="campaign target: number of seeded faults")
    profile.add_argument("--seed", type=int, default=1,
                         help="campaign target: campaign seed")
    profile.add_argument("--jobs", type=int, default=1,
                         help="campaign target: worker processes")
    profile.add_argument("--backend",
                         choices=("event", "compiled", "bitparallel"),
                         default="event",
                         help="campaign target: gate evaluator backend")
    profile.add_argument("--format", choices=("text", "json"),
                         default="text", help="stdout format")
    profile.add_argument("--output", metavar="OUT.json",
                         help="write the validated trace document here")
    profile.set_defaults(func=_cmd_profile)

    resolve = sub.add_parser("resolve",
                             help="Fig. 7 intermediate of SyncRegister")
    resolve.add_argument("--regsize", type=_positive_int, default=4)
    resolve.add_argument("--resetvalue", type=int, default=0)
    resolve.set_defaults(func=_cmd_resolve)

    effort = sub.add_parser("effort", help="E8 effort metrics")
    effort.set_defaults(func=_cmd_effort)

    build = sub.add_parser(
        "build", help="run the ExpoCU flows through the design library"
    )
    build.add_argument("--flow", choices=("osss", "vhdl", "both"),
                       default="both", help="which flow(s) to build")
    build.add_argument("--cache-dir", default=".repro-cache",
                       help="design-library root (default: .repro-cache)")
    build.add_argument("--cold", action="store_true",
                       help="clear the cache first (forced full rebuild)")
    build.add_argument("--no-cache", action="store_true",
                       help="bypass the design library entirely")
    build.add_argument("--json", action="store_true",
                       help="print flow summaries as JSON (cache counters "
                       "go to stderr, so output is run-comparable)")
    build.add_argument("--profile", metavar="OUT.json",
                       help="write a repro-trace/v1 span report here")
    build.set_defaults(func=_cmd_build)

    serve = sub.add_parser(
        "serve",
        help="long-lived job server over the design library",
    )
    serve_target = serve.add_mutually_exclusive_group(required=True)
    serve_target.add_argument("--socket", metavar="PATH",
                              help="listen on a Unix domain socket")
    serve_target.add_argument("--port", type=int, default=0,
                              help="listen on TCP (with --host)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default: 127.0.0.1)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="design-library root shared by all jobs")
    serve.add_argument("--no-cache", action="store_true",
                       help="run jobs without the design library")
    serve.add_argument("--workers", type=int, default=2,
                       help="supervised worker processes (>= 2; fewer "
                       "runs jobs on an in-process thread)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline per job")
    serve.add_argument("--grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="shutdown grace period for in-flight jobs "
                       "(default: 10)")
    serve.add_argument("--verbose", action="store_true",
                       help="log requests to stderr")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a job to a running 'repro serve'"
    )
    submit.add_argument("kind",
                        choices=("build", "analyze", "inject", "dse"),
                        help="job kind")
    submit.add_argument("--socket", metavar="PATH",
                        help="server's Unix domain socket")
    submit.add_argument("--port", type=int, default=0,
                        help="server's TCP port (with --host)")
    submit.add_argument("--host", default="127.0.0.1",
                        help="server's TCP host (default: 127.0.0.1)")
    submit.add_argument("--params", default="{}", metavar="JSON",
                        help="job parameters as a JSON object "
                        "(defaults mirror the one-shot command)")
    submit.add_argument("--force", action="store_true",
                        help="bypass request coalescing: always run a "
                        "fresh job even if an identical one is active")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job document and return instead "
                        "of waiting for the result")
    submit.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="how long to wait for the result "
                        "(default: 600)")
    submit.set_defaults(func=_cmd_submit)

    cache = sub.add_parser(
        "cache", help="design-library maintenance (stats / gc / verify)"
    )
    cache.add_argument("--cache-dir", default=".repro-cache",
                       help="design-library root (default: .repro-cache)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry/object counts and size")
    cache_gc = cache_sub.add_parser(
        "gc", help="drop dangling pointers and unreferenced objects"
    )
    cache_gc.add_argument("--max-age-days", type=float, default=None,
                          help="also expire entries older than this")
    cache_verify = cache_sub.add_parser(
        "verify", help="rehash all objects, resolve all entries"
    )
    cache_verify.add_argument("--repair", action="store_true",
                              help="remove damaged objects/entries so the "
                              "next build recomputes them")
    cache.set_defaults(func=_cmd_cache)
    return parser


def _flag_conflict(args: argparse.Namespace) -> str | None:
    """A flag combination the per-flag ``choices`` cannot rule out."""
    if (args.func not in (_cmd_inject, _cmd_profile)
            or getattr(args, "target", "campaign") != "campaign"):
        return None
    from repro.fault.scenarios import injector_option_error

    return injector_option_error(args.flow, getattr(args, "hardening",
                                                    "none"), args.backend)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.dse import DseError
    from repro.fault import CampaignError
    from repro.netlist import NetlistError
    from repro.serve.jobs import JobError
    from repro.store import StoreError
    from repro.synth import SynthesisError

    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _flag_conflict(args)
    if problem is not None:
        print(f"repro: error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (SynthesisError, NetlistError, StoreError, CampaignError,
            DseError, JobError, UsageError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
