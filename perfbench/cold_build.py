"""Workload ``cold-build``: the designer's path of the paper's Fig. 6.

One op is a cold ``build`` job (flow=both: OSSS and VHDL) into an
empty store, followed by a warm rebuild from that store.  About three
quarters of the cold time is ``netlist.opt``; the store is written and
read back, so both directions of the store layer are used.  No fault
simulation and no serving: this is the no-change workload for
simulator and campaign work.  The op has no seeded input; the seed
only names the run.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from common import (
    EXPECTED, OUT, HostSpeed, Result, Spans, keep_going, median,
)

#: The build job every op runs.
PARAMS = {"flow": "both"}

#: What the set-up of one op needs in a fresh interpreter.
SETUP_CODE = ("import repro.serve.jobs as jobs, repro.eval, repro.baseline, "
              "repro.store; jobs.default_design()")


def expected_text() -> str:
    return (EXPECTED / "build_both.json").read_text()


def _fresh_dir(work: Path, k: int) -> Path:
    path = work / f"store{k}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def store_signature(cold_store, warm_store) -> dict:
    """Per-stage store counters of both halves and the stored files.

    Pointer files are named by stage key and object files by content
    digest, so two builds that run, key or serialize any stage
    differently have different signatures.
    """
    def counters(store) -> dict:
        return {event: dict(sorted(counter.items()))
                for event, counter in store.counters.items()}

    root = cold_store.root
    files = sorted(str(path.relative_to(root))
                   for top in (cold_store.stages_dir, cold_store.objects_dir)
                   for path in top.rglob("*.json"))
    return {"cold": counters(cold_store), "warm": counters(warm_store),
            "files": files}


def run_op(work: Path, k: int, expected: str
           ) -> tuple[float, float, float, bool, dict]:
    """One cold build plus warm rebuild.

    Returns the clock readings at its start, between the halves and at
    its end, whether the output passed its check, and the store
    signature.
    """
    from repro.serve.jobs import make_spec, render_result, run_job
    from repro.store import ArtifactStore

    root = _fresh_dir(work, k)
    spec = make_spec("build", PARAMS)
    start = time.perf_counter()
    cold_store = ArtifactStore(root)
    cold = render_result("build", run_job(spec, store=cold_store))
    mid = time.perf_counter()
    warm_store = ArtifactStore(root)
    warm = render_result("build", run_job(spec, store=warm_store))
    end = time.perf_counter()
    counts = warm_store.counter_totals()
    signature = store_signature(cold_store, warm_store)
    shutil.rmtree(root, ignore_errors=True)
    ok = cold == expected and warm == cold and counts["miss"] == 0
    return start, mid, end, ok, signature


def timed(result: Result, seconds: float, work: Path,
          speed: HostSpeed) -> None:
    """Run ops back to back for about *seconds*, probing the host's
    speed; every op is checked."""
    expected = expected_text()
    clocks: list[tuple[float, float, float]] = []
    took: list[float] = []
    start = time.perf_counter()
    with speed.probing():
        while keep_going(start, seconds, took):
            op_start, mid, end, ok, _ = run_op(work, len(clocks), expected)
            result.op(ok, f"cold-build op {len(clocks)}: output differs "
                          "from perfbench/expected/build_both.json or "
                          "warm != cold")
            clocks.append((op_start, mid, end))
            took.append(end - op_start)
    n = len(clocks)
    ops = [speed.op_seconds(a, c) for a, _, c in clocks]
    result.metric("latency_p50_s", median(ops), "s", samples=n)
    result.metric("latency_tail_s", median(ops), "s", samples=n)
    result.metric("throughput_per_s", 1 / median(ops), "1/s", samples=n)
    # Printed and recorded only: the two halves of an op, scaled by the
    # whole op's probes, and the op in wall seconds.
    result.metric("build_cold_s", median(
        [speed.busy(a, b) * speed.probed_speed(a, c) for a, b, c in clocks]),
        "s", samples=n)
    result.metric("build_warm_s", median(
        [speed.busy(b, c) * speed.probed_speed(a, c) for a, b, c in clocks]),
        "s", samples=n)
    result.metric("op_wall_s", median([c - a for a, _, c in clocks]), "s",
                  samples=n)


# ----------------------------------------------------------------------
# traced run: the same two builds, layer by layer
# ----------------------------------------------------------------------
def _traced_store_class(spans: Spans):
    """An :class:`ArtifactStore` whose public I/O calls open spans."""
    from repro.store import ArtifactStore

    class TracedStore(ArtifactStore):
        def probe(self, stage, key):
            with spans.span("store.load"):
                return super().probe(stage, key)

        def get_object(self, digest):
            with spans.span("store.load"):
                return super().get_object(digest)

        def store(self, stage, key, doc):
            with spans.span("store.write"):
                return super().store(stage, key, doc)

    return TracedStore


def _traced_flows(spans: Spans, store) -> tuple[list[dict], dict]:
    """Both flows of ``build --flow both``, one public call per span.

    Returns the two flow summaries and the optimizer's cell counts.

    Mirrors the stage graph of :func:`repro.eval.run_osss_flow` and
    :func:`repro.eval.run_vhdl_flow` through the program's own
    :class:`repro.store.StageRunner`; the summaries are checked
    against the same expected file as the timed ops, and the store
    signature against that of the job's own run (see :func:`traced`).
    """
    from repro.analyze import analyze_design, diagnostics_from_lint_report
    from repro.baseline import expocu_rtl, ip_library
    from repro.eval import FlowResult
    from repro.netlist.linker import link
    from repro.netlist.opt import optimize
    from repro.netlist.pnr import place
    from repro.netlist.sta import analyze
    from repro.netlist.techmap import map_module
    from repro.rtl.lint import lint_module
    from repro.serve.jobs import default_design
    from repro.store import (
        StageRunner, deserialize_circuit, deserialize_diagnostics,
        deserialize_placement, deserialize_rtl, deserialize_timing,
        digest_doc, fingerprint_circuit, fingerprint_design,
        fingerprint_rtl, serialize_circuit, serialize_diagnostics,
        serialize_placement, serialize_rtl, serialize_timing,
    )
    from repro.synth.modulegen import synthesize

    runner = StageRunner(store)
    counts = {"opt_cells_in": 0, "opt_cells_out": 0}

    def stage(name, parts, layer, fn, dump, load, lazy=False):
        return runner.run(
            name, parts,
            compute=lambda: spans.call(layer, fn),
            dump=lambda value: spans.call("store.serialize", dump, value),
            load=lambda doc: spans.call("store.deserialize", load, doc),
            lazy=lazy)

    def optimized(pre):
        circuit = pre.value()
        counts["opt_cells_in"] += len(circuit.cells)
        spans.call("netlist.opt", optimize, circuit)
        counts["opt_cells_out"] += len(circuit.cells)
        return circuit

    def back_end(name, rtl, pre, diagnostics):
        opt = runner.run(
            "opt", (pre.digest,), compute=lambda: optimized(pre),
            dump=lambda c: spans.call("store.serialize", serialize_circuit, c),
            load=lambda d: spans.call("store.deserialize",
                                      deserialize_circuit, d))
        circuit = opt.value()
        timing = stage("sta", (opt.digest,), "netlist.sta",
                       lambda: analyze(circuit),
                       lambda t: serialize_timing(t, circuit),
                       lambda d: deserialize_timing(d, circuit)).value()
        pnr = stage("pnr", (opt.digest,), "netlist.pnr",
                    lambda: place(circuit), serialize_placement,
                    lambda d: deserialize_placement(d, circuit))
        placement = pnr.value()
        routed = stage("sta_routed", (opt.digest, pnr.digest), "netlist.sta",
                       lambda: analyze(circuit, placement.wire_delays()),
                       lambda t: serialize_timing(t, circuit),
                       lambda d: deserialize_timing(d, circuit)).value()
        return FlowResult(name, rtl, circuit, timing, placement, routed,
                          diagnostics).summary()

    with spans.span("flow:osss"):
        module = spans.call("design.elaborate", default_design)
        design_fp = spans.call("store.fingerprint", fingerprint_design, module)
        diagnostics = stage("analyze", (design_fp,), "analyze.design",
                            lambda: analyze_design(module),
                            serialize_diagnostics,
                            deserialize_diagnostics).value()
        synth = stage("synthesize", (design_fp,), "synth.synthesize",
                      lambda: synthesize(module, observe_children=False),
                      serialize_rtl, deserialize_rtl)
        rtl = synth.value()
        diagnostics = diagnostics + stage(
            "lint", (synth.digest, "osss"), "rtl.lint",
            lambda: diagnostics_from_lint_report(lint_module(rtl), "osss"),
            serialize_diagnostics, deserialize_diagnostics).value()
        techmap = stage("techmap", (synth.digest,), "netlist.techmap",
                        lambda: map_module(rtl), serialize_circuit,
                        deserialize_circuit, lazy=True)
        osss = back_end("osss", rtl, techmap, diagnostics)

    with spans.span("flow:vhdl"):
        rtl = spans.call("design.elaborate", expocu_rtl)
        rtl_fp = spans.call("store.fingerprint", fingerprint_rtl, rtl)
        diagnostics = stage(
            "lint", (rtl_fp, "vhdl"), "rtl.lint",
            lambda: diagnostics_from_lint_report(lint_module(rtl), "vhdl"),
            serialize_diagnostics, deserialize_diagnostics).value()
        techmap = stage("techmap", (rtl_fp,), "netlist.techmap",
                        lambda: map_module(rtl), serialize_circuit,
                        deserialize_circuit, lazy=True)
        library = spans.call("design.elaborate", ip_library)

        def link_parts():
            with spans.span("store.fingerprint"):
                return (techmap.digest, digest_doc(
                    [[ip, fingerprint_circuit(library[ip])]
                     for ip in sorted(library)]))

        def linked():
            circuit = techmap.value()
            spans.call("netlist.link", link, circuit, library)
            return circuit

        linked_outcome = runner.run(
            "link", link_parts, compute=linked,
            dump=lambda c: spans.call("store.serialize", serialize_circuit, c),
            load=lambda d: spans.call("store.deserialize",
                                      deserialize_circuit, d),
            lazy=True)
        vhdl = back_end("vhdl", rtl, linked_outcome, diagnostics)
    return [osss, vhdl], counts


def _traced_op(spans: Spans, work: Path, k: int, expected: str
               ) -> tuple[int, int, dict, bool, dict]:
    """Traced cold build then warm rebuild.

    Returns the two root spans, the exact counts, whether the output
    passed its check, and the store signature.
    """
    from repro.serve.jobs import render_result

    traced_store = _traced_store_class(spans)
    root = _fresh_dir(work, k)
    with spans.span("op:cold", request=f"op{k}") as cold_root:
        store = traced_store(root)
        cold, counts = _traced_flows(spans, store)
    counts["bytes_written"] = store.stats()["bytes"]
    counts["cold_misses"] = store.counter_totals()["miss"]
    with spans.span("op:warm", request=f"op{k}") as warm_root:
        warm_store = traced_store(root)
        warm, _ = _traced_flows(spans, warm_store)
    totals = warm_store.counter_totals()
    counts["hits"] = totals["hit"]
    counts["misses"] = totals["miss"]
    signature = store_signature(store, warm_store)
    shutil.rmtree(root, ignore_errors=True)
    ok = render_result("build", {"flows": cold}) == expected and warm == cold
    return cold_root, warm_root, counts, ok, signature


def _signature_diff(job: dict, traced: dict) -> str:
    """The parts of two store signatures that differ, for the report."""
    parts = []
    for half in ("cold", "warm"):
        for event, counter in job[half].items():
            if counter != traced[half][event]:
                parts.append(f"{half} {event} job={counter} "
                             f"traced={traced[half][event]}")
    files = set(job["files"]) ^ set(traced["files"])
    if files:
        parts.append(f"stored files only in one: {sorted(files)}")
    return "; ".join(parts)


#: Per-layer span names reported as self time, and their metric names.
LAYERS = {
    "design.elaborate": "design.elaborate_s",
    "analyze.design": "analyze.design_s",
    "synth.synthesize": "synth.synthesize_s",
    "rtl.lint": "rtl.lint_s",
    "netlist.techmap": "netlist.techmap_s",
    "netlist.link": "netlist.link_s",
    "netlist.opt": "netlist.opt_s",
    "netlist.sta": "netlist.sta_s",
    "netlist.pnr": "netlist.pnr_s",
    "store.fingerprint": "store.fingerprint_s",
    "store.serialize": "store.serialize_s",
    "store.write": "store.write_s",
    "store.load": "store.load_s",
    "store.deserialize": "store.deserialize_s",
}


def traced(result: Result, spans: Spans, work: Path) -> None:
    """Untraced and traced ops in turn, two of each.

    The exact counts of the two traced ops must repeat; the tracing
    overhead is the difference of the two kinds' medians.  The traced
    op re-drives the flows stage by stage, so its store signature
    (per-stage hits, misses and writes, and the stored files) must
    equal the job's: a stage the program adds, renames, re-keys or
    computes differently, and the traced op does not follow, fails.
    """
    expected = expected_text()
    untraced = []
    ops = []
    for k in range(2):
        start, _, end, ok, job_signature = run_op(work, 0, expected)
        result.op(ok, f"untraced cold-build op {k}: output differs")
        untraced.append(end - start)
        cold_root, warm_root, counts, ok, signature = _traced_op(
            spans, work, k + 1, expected)
        result.op(ok, f"traced cold-build op {k}: output differs")
        result.check(signature == job_signature,
                     f"traced cold-build op {k} drifted from the build "
                     f"job: {_signature_diff(job_signature, signature)}")
        ops.append((cold_root, warm_root, counts))
    exact = [counts for _, _, counts in ops]
    result.check(exact[0] == exact[1],
                 f"cold-build exact counts differ between runs: {exact}")
    per_op: dict[str, list[float]] = {name: [] for name in LAYERS.values()}
    for cold_root, warm_root, _ in ops:
        cold = spans.self_times(cold_root)
        warm = spans.self_times(warm_root)
        for layer, name in LAYERS.items():
            per_op[name].append(cold.get(layer, 0.0) + warm.get(layer, 0.0))
    for name, values in per_op.items():
        result.metric(name, median(values), "s", samples=len(values))
    counts = exact[0]
    result.metric("netlist.opt_cells_in", counts["opt_cells_in"], "count")
    result.metric("netlist.opt_cells_out", counts["opt_cells_out"], "count")
    result.metric("store.bytes_written", counts["bytes_written"], "bytes")
    result.metric("store.hits", counts["hits"], "count")
    result.metric("store.misses", counts["misses"], "count")
    result.check(counts["hits"] > 0 and counts["misses"] == 0
                 and counts["cold_misses"] == counts["hits"],
                 f"warm half was not served from the store: {counts}")
    uncovered = [spans.uncovered_share(root, LAYERS)
                 for cold_root, warm_root, _ in ops
                 for root in (cold_root, warm_root)]
    traced_op = median([spans.duration(c) + spans.duration(w)
                        for c, w, _ in ops])
    result.metric("trace.uncovered_share", max(uncovered), "ratio")
    result.metric("trace.overhead_s", traced_op - median(untraced), "s")
    result.check(max(uncovered) < 0.5,
                 f"cold-build spans cover too little: {uncovered}")


def work_dir(seed: int) -> Path:
    return OUT / f"work-cold-build-{seed}"
