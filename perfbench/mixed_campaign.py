"""Workload ``mixed-campaign``: one bit-parallel fault campaign per op.

One op is one ``inject`` job: netlist flow, ``bitparallel`` backend,
``jobs=1``, no store.  Its fault list is ``generate_fault_list``'s
default gate mix (SEU, stuck-at-0, stuck-at-1 and flip drawn in equal
shares), 128 faults long, drawn for a campaign seed whose list holds
exactly 64 stuck-ats: one full 64-lane batch.  Most of the time is
replay, and most of replay is the 64 transients simulated one at a
time; ``netlist.opt`` appears only inside injector build.  The store
and the serve pool are never touched: this is the no-change workload
for store and serve work.

The workload seed picks the campaign seed (which draws the stimulus
and the fault list) from the pool in ``expected/campaigns.json``: the
campaign seeds whose expected reports are committed.  Pool members were chosen so every op
does the same simulation work (see ``make_expected.py``): the seed
varies which faults are simulated, not how many cycles that takes.
"""

from __future__ import annotations

import hashlib
import json
import time

from common import (
    EXPECTED, BenchError, HostSpeed, Result, Spans, keep_going, median,
)

#: Fault-list length: with 64 stuck-ats, one full lane batch.
FAULTS = 128

#: Committed expected reports (event-backend oracle) and the pool.
EXPECTED_FILE = EXPECTED / "campaigns.json"

SETUP_CODE = ("import repro.serve.jobs as jobs, repro.fault, "
              "repro.netlist.sim")


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def campaign_seed(seed: int, expected: dict) -> int:
    pool = expected["pool"]
    return pool[seed % len(pool)]


def params(cseed: int, backend: str = "bitparallel") -> dict:
    return {"flow": "netlist", "faults": FAULTS, "seed": cseed,
            "backend": backend}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_report(cseed: int) -> str:
    """The campaign report as the event backend (the oracle) renders it."""
    from repro.serve.jobs import make_spec, render_result, run_job

    spec = make_spec("inject", params(cseed, backend="event"))
    return render_result("inject", run_job(spec))


def expected_digest(cseed: int, expected: dict) -> str:
    """The committed oracle digest of a pool seed's report."""
    entry = expected["reports"].get(str(cseed))
    if entry is None:
        raise BenchError(f"campaign seed {cseed} is in the pool but has no "
                         f"committed expected report in {EXPECTED_FILE}")
    return entry["sha256"]


def run_op(cseed: int, want: str) -> tuple[float, float, int, bool]:
    """One inject job; returns the clock readings at its start and end,
    the faults classified and whether the report passed its check."""
    from repro.serve.jobs import make_spec, render_result, run_job

    spec = make_spec("inject", params(cseed))
    start = time.perf_counter()
    payload = run_job(spec)
    text = render_result("inject", payload)
    end = time.perf_counter()
    return start, end, payload["injected"], digest(text) == want


def timed(result: Result, seconds: float, seed: int,
          speed: HostSpeed) -> None:
    """Inject jobs back to back for about *seconds*, probing the host's
    speed; every report is checked."""
    expected = load_expected()
    cseed = campaign_seed(seed, expected)
    want = expected_digest(cseed, expected)
    result.note(f"campaign seed {cseed} (pool entry {seed} mod "
                f"{len(expected['pool'])})")
    clocks: list[tuple[float, float]] = []
    took: list[float] = []
    start = time.perf_counter()
    with speed.probing():
        while keep_going(start, seconds, took):
            op_start, op_end, injected, ok = run_op(cseed, want)
            result.op(ok and injected == FAULTS,
                      f"mixed-campaign op {len(clocks)}: report differs "
                      f"from the event-backend oracle (seed {cseed})")
            clocks.append((op_start, op_end))
            took.append(op_end - op_start)
    n = len(clocks)
    times = [speed.op_seconds(a, b) for a, b in clocks]
    # Per job, then the median job: robust to one slow op in a run.
    faults_per_s = median([FAULTS / elapsed for elapsed in times])
    result.metric("latency_p50_s", median(times), "s", samples=n)
    result.metric("latency_tail_s", median(times), "s", samples=n)
    result.metric("throughput_per_s", faults_per_s, "1/s", samples=n)
    result.metric("faults_per_s", faults_per_s, "1/s", samples=n)
    result.metric("op_wall_s", median([b - a for a, b in clocks]), "s",
                  samples=n)


# ----------------------------------------------------------------------
# traced run: injector build and replay, split by fault kind
# ----------------------------------------------------------------------
STUCK = ("sa0", "sa1")


def _traced_op(spans: Spans, cseed: int, k: int) -> tuple[dict, dict, str]:
    """The inject job's work through the fault layer's public functions.

    Builds the injector as :func:`repro.fault.expocu_injector` does,
    then runs :func:`repro.fault.run_campaign` three times: on an empty
    list (golden only), on the stuck-ats and on the transients.  The
    merged report must equal the oracle's, and the circuit (returned
    as ``circuit_sha256`` in the counts) that of ``expocu_injector``.
    """
    from dataclasses import replace

    from repro.expocu import ExpoCU
    from repro.fault import (
        FaultableGateSimulator, GateFaultInjector, expocu_stimulus,
        generate_fault_list, run_campaign,
    )
    from repro.fault.scenarios import expocu_config
    from repro.hdl import NS, Clock, Signal
    from repro.netlist.opt import optimize
    from repro.netlist.techmap import map_module
    from repro.store import fingerprint_circuit
    from repro.synth.modulegen import synthesize
    from repro.types import Bit
    from repro.types.spec import bit

    counts: dict = {}
    with spans.span("op:inject", request=f"op{k}") as root:
        with spans.span("fault.build_injector") as build:
            dut = spans.call(
                "design.elaborate",
                lambda: ExpoCU[8, 8, 128, 2]("expocu", Clock("clk", 10 * NS),
                                             Signal("rst", bit(), Bit(1))))
            rtl = spans.call("synth.synthesize", synthesize, dut,
                             observe_children=False)
            circuit = spans.call("netlist.techmap", map_module, rtl)
            counts["opt_cells_in"] = len(circuit.cells)
            spans.call("netlist.opt", optimize, circuit)
            counts["opt_cells_out"] = len(circuit.cells)
            injector = spans.call(
                "netlist.sim_build",
                lambda: GateFaultInjector(
                    FaultableGateSimulator(circuit, backend="bitparallel")))
        stimulus = expocu_stimulus(cseed, frames=1, side=8)
        faults = generate_fault_list(injector, FAULTS, len(stimulus), cseed)
        stuck = [f for f in faults if f.kind in STUCK]
        transient = [f for f in faults if f.kind not in STUCK]
        config = expocu_config("none")

        # Each sub-campaign starts from the freshly built state, as the
        # job's single campaign does: state left by the previous
        # sub-campaign survives the reset cycles and would shift
        # first-divergence cycles.
        fresh = injector.snapshot()

        def campaign(subset):
            injector.restore(fresh)
            return run_campaign(injector, stimulus, subset, config,
                                design="ExpoCU[8,8]", hardening="none",
                                seed=cseed)

        steps = [injector.sim.stats()["steps"]]
        with spans.span("fault.golden") as golden:
            campaign([])
        steps.append(injector.sim.stats()["steps"])
        with spans.span("fault.replay_stuck") as replay_stuck:
            stuck_result = campaign(stuck)
        steps.append(injector.sim.stats()["steps"])
        with spans.span("fault.replay_transient") as replay_transient:
            transient_result = campaign(transient)
        steps.append(injector.sim.stats()["steps"])
    stuck_records = iter(stuck_result.records)
    transient_records = iter(transient_result.records)
    records = [next(stuck_records) if f.kind in STUCK
               else next(transient_records) for f in faults]
    merged = replace(stuck_result, records=records)
    stats = injector.sim.stats()
    counts.update(
        sim_steps=stats["steps"], sim_settle_passes=stats["settle_passes"],
        simulated=len(stuck_result.records) + len(transient_result.records),
        stuck=len(stuck), transient=len(transient), **merged.outcomes)
    # Simulated cycles per phase, net of each sub-campaign's golden run
    # (a lane step counts once for all its lanes).
    golden_steps = steps[1] - steps[0]
    counts["stuck_steps"] = steps[2] - steps[1] - golden_steps
    counts["transient_steps"] = steps[3] - steps[2] - golden_steps
    counts["circuit_sha256"] = fingerprint_circuit(injector.sim.circuit)
    spans_of = {"build": build, "golden": golden, "stuck": replay_stuck,
                "transient": replay_transient, "root": root}
    return spans_of, counts, merged.to_json()


#: Span names reported as self time, and their metric names.
LAYERS = {
    "design.elaborate": "design.elaborate_s",
    "synth.synthesize": "synth.synthesize_s",
    "netlist.techmap": "netlist.techmap_s",
    "netlist.opt": "netlist.opt_s",
    "netlist.sim_build": "netlist.sim_build_s",
    "fault.golden": None,
    "fault.replay_stuck": None,
    "fault.replay_transient": None,
}


def traced(result: Result, spans: Spans, seed: int) -> None:
    """Untraced jobs and traced ops in turn, two of each.

    The exact counts of the two traced ops must repeat, and the traced
    op's circuit must be the one the job's own injector simulates: the
    traced op rebuilds the injector from its parts, so a change to
    :func:`repro.fault.expocu_injector` it does not follow fails here.
    """
    from repro.fault import expocu_injector
    from repro.store import fingerprint_circuit

    expected = load_expected()
    cseed = campaign_seed(seed, expected)
    want = expected_digest(cseed, expected)
    untraced = []
    ops = []
    for k in range(2):
        start, end, _, ok = run_op(cseed, want)
        result.op(ok, f"untraced mixed-campaign op {k}: report differs "
                      f"(seed {cseed})")
        untraced.append(end - start)
        roots, counts, text = _traced_op(spans, cseed, k)
        result.op(digest(text) == want,
                  f"traced mixed-campaign op {k}: merged report differs "
                  f"from the event-backend oracle (seed {cseed})")
        ops.append((roots, counts))
    exact = [counts for _, counts in ops]
    result.check(exact[0] == exact[1],
                 f"mixed-campaign exact counts differ between runs: {exact}")
    job_circuit = expocu_injector("netlist", "none", 8, "bitparallel"
                                  ).sim.circuit
    same = exact[0]["circuit_sha256"] == fingerprint_circuit(job_circuit)
    result.check(same and exact[0]["opt_cells_out"] == len(job_circuit.cells),
                 "traced mixed-campaign op drifted from expocu_injector: "
                 f"optimized cells traced={exact[0]['opt_cells_out']} "
                 f"job={len(job_circuit.cells)}, circuit digests "
                 f"{'equal' if same else 'differ'}")

    def per_op(fn) -> float:
        return median([fn(roots) for roots, _ in ops])

    dur = spans.duration
    golden = per_op(lambda r: dur(r["golden"]))
    stuck = per_op(lambda r: dur(r["stuck"]) - dur(r["golden"]))
    transient = per_op(lambda r: dur(r["transient"]) - dur(r["golden"]))
    counts = exact[0]
    result.metric("fault.build_injector_s", per_op(lambda r: dur(r["build"])),
                  "s", samples=len(ops))
    for layer, name in LAYERS.items():
        if name is not None:
            result.metric(name, per_op(
                lambda r: spans.self_times(r["root"]).get(layer, 0.0)),
                "s", samples=len(ops))
    result.metric("fault.golden_s", golden, "s", samples=len(ops))
    result.metric("fault.replay_stuck_s", stuck, "s", samples=len(ops))
    result.metric("fault.replay_transient_s", transient, "s",
                  samples=len(ops))
    result.metric("fault.stuck_per_s", counts["stuck"] / stuck, "1/s")
    result.metric("fault.transient_per_s", counts["transient"] / transient,
                  "1/s")
    result.metric("netlist.opt_cells_in", counts["opt_cells_in"], "count")
    result.metric("netlist.opt_cells_out", counts["opt_cells_out"], "count")
    result.metric("netlist.sim_steps", counts["sim_steps"], "count")
    result.metric("netlist.sim_settle_passes", counts["sim_settle_passes"],
                  "count")
    result.metric("fault.simulated", counts["simulated"], "count")
    for outcome in ("masked", "sdc", "detected", "hang"):
        result.metric(f"fault.{outcome}", counts[outcome], "count")
    uncovered = [spans.uncovered_share(roots["root"], LAYERS)
                 for roots, _ in ops]
    result.metric("trace.uncovered_share", max(uncovered), "ratio")
    # The split runs the golden pass three times where the job runs it
    # once; the two extra passes are not tracing overhead.
    result.metric("trace.overhead_s",
                  per_op(lambda r: dur(r["root"])) - 2 * golden
                  - median(untraced),
                  "s")
    result.check(max(uncovered) < 0.5,
                 f"mixed-campaign spans cover too little: {uncovered}")
