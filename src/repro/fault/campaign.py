"""Fault-injection campaigns: fault lists, golden runs, classification.

A campaign replays one deterministic stimulus once fault-free (the
*golden run*, checkpointed at every injection cycle) and then once per
fault, restoring the checkpoint at the fault's cycle, injecting, and
comparing the observed outputs against the golden trace.  Every fault is
classified into exactly one outcome:

``masked``    no observed output ever diverged and the run completed;
``sdc``       silent data corruption — outputs diverged, nothing fired;
``detected``  a designated detection signal rose where the golden run's
              was low — during the stimulus *or* the post-stimulus
              drain — or the simulator itself raised on the fault;
``hang``      the done-signal never reached its quiescent value within
              the drain budget (cycle-budget watchdog).

Precedence when several apply: ``hang`` > ``detected`` > ``sdc``.  The
taxonomy and the checkpoint-replay structure follow simulation-based
fault injection practice (DAVOS); determinism is end-to-end — the same
seed yields byte-identical reports.

Scaling: the fault list is deduplicated before replay (identical faults
are simulated once and their record shared), and ``run_campaign(...,
jobs=N, injector_factory=...)`` shards the unique faults across *N*
worker processes.  Each worker rebuilds the injector and its golden
checkpoints from the seeded scenario, so the merged report is
byte-identical to the sequential run (guarded by a cross-worker golden
consistency check).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.exec.deadline import DeadlineExceeded
from repro.exec.journal import CampaignJournal, fault_key
from repro.exec.pool import (
    MetaMismatchError,
    PoolError,
    SupervisedPool,
    TaskPickleError,
)
from repro.obs.profiler import NULL_TRACER, Tracer
from repro.store.common import digest_doc
from repro.store.serialize import (
    deserialize_fault_record,
    serialize_fault_record,
)

#: The closed outcome taxonomy, in report order.
OUTCOMES = ("masked", "sdc", "detected", "hang")

#: Fault kinds per flow (SEU everywhere; net faults are gate-level).
RTL_KINDS = ("seu",)
GATE_KINDS = ("seu", "sa0", "sa1", "flip")


class CampaignError(RuntimeError):
    """The campaign could not run to completion as configured.

    Raised for execution-infrastructure failures — an injector factory
    that does not pickle under the active start method, worker golden
    runs that disagree, or a journal that belongs to a different
    campaign.  Classification outcomes (including quarantined faults)
    are never errors; they are reported in the result.
    """


@dataclass(frozen=True)
class Fault:
    """One injection: *kind* at *target*, bit *bit*, before cycle *cycle*."""

    kind: str    # "seu" | "sa0" | "sa1" | "flip"
    target: str  # register name (rtl) or net name (netlist)
    bit: int     # bit index within the register; 0 for single nets
    cycle: int   # stimulus index at whose boundary the fault appears

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "target": self.target,
                "bit": self.bit, "cycle": self.cycle}


@dataclass
class FaultRecord:
    """A fault plus its classified outcome."""

    fault: Fault
    outcome: str
    first_divergence: int | None = None
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        record = self.fault.as_dict()
        record["outcome"] = self.outcome
        record["first_divergence"] = self.first_divergence
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class CampaignConfig:
    """What the campaign drives, observes and classifies against.

    Parameters
    ----------
    reset_name / reset_cycles:
        The reset input and how many cycles it is held before the
        stimulus starts (the golden snapshot is taken after release).
    observed:
        Output names compared against the golden trace; ``None`` means
        every output.
    detect_signals:
        Outputs that signal *detection* (parity errors, ack errors...):
        a 1 where the golden run had 0 classifies the fault as detected.
        Monitored during the stimulus and during the drain phase (a
        detector may first fire after the last stimulus cycle).
    done_signal / done_value:
        Quiescence test for hang detection: after the stimulus the design
        gets up to *drain_budget* extra cycles of *idle_input* to bring
        this output to this value.  ``None`` disables hang detection.
    """

    reset_name: str = "reset"
    reset_cycles: int = 2
    observed: Sequence[str] | None = None
    detect_signals: Sequence[str] = ()
    done_signal: str | None = None
    done_value: int = 0
    drain_budget: int = 2000
    idle_input: Mapping[str, int] = field(default_factory=dict)


@dataclass
class CampaignResult:
    """Everything one campaign produced, JSON-serializable."""

    design: str
    flow: str
    hardening: str
    seed: int
    cycles: int
    observed: list[str]
    detect_signals: list[str]
    golden_selfcheck: str
    golden_done: bool
    golden_drain_cycles: int
    records: list[FaultRecord]
    #: Static-analysis extras from ``run_campaign(collapse=True)``.
    #: Deliberately NOT part of :meth:`as_dict`: the serialized report
    #: must stay byte-identical to the uncollapsed oracle's.
    collapse: dict[str, int] | None = None
    net_scores: dict[str, float] | None = None
    #: Faults quarantined by the execution layer (wall-clock deadline
    #: exhausted after retries).  Serialized as an ``"errors"`` section
    #: only when non-empty, so clean runs stay byte-identical.
    errors: list[dict[str, Any]] = field(default_factory=list)
    #: Resilience counters (respawns, requeues, timeouts, journal hits)
    #: from the execution layer; NOT part of :meth:`as_dict`.
    exec_stats: dict[str, int] | None = None

    @property
    def outcomes(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.records:
            counts[record.outcome] += 1
        return counts

    def outcome_rates(self) -> dict[str, float]:
        """Outcome shares over the faults actually simulated.

        The denominator is ``len(self.records)`` — the faults that were
        classified — *not* the full fault-list length: quarantined
        faults (the ``errors`` section) were never classified, so
        counting them in the denominator would understate every rate.
        Totals always reconcile: ``len(records) + len(errors)`` equals
        the injected fault-list length.  All zeros when nothing was
        simulated.
        """
        total = len(self.records)
        if not total:
            return {outcome: 0.0 for outcome in OUTCOMES}
        counts = self.outcomes
        return {outcome: counts[outcome] / total for outcome in OUTCOMES}

    def objectives(self, drain_budget: int | None = None) -> dict[str, Any]:
        """Robustness/cost objectives for design-space exploration.

        ``sdc_rate`` / ``detected_rate`` are the outcome shares;
        ``sim_cycles`` is a deterministic campaign-cost proxy counted in
        simulated cycles, not wall time, so it is identical across
        backends and job counts: the golden run (stimulus plus its drain)
        plus, per classified fault, the re-simulated tail from the
        injection cycle and the drain phase (a hang consumes the full
        *drain_budget*; anything else drains like the golden run).
        """
        rates = self.outcome_rates()
        drain = self.golden_drain_cycles
        hang_drain = drain if drain_budget is None else drain_budget
        sim_cycles = self.cycles + drain
        for record in self.records:
            sim_cycles += self.cycles - record.fault.cycle
            sim_cycles += hang_drain if record.outcome == "hang" else drain
        return {
            "sdc_rate": round(rates["sdc"], 9),
            "detected_rate": round(rates["detected"], 9),
            "sim_cycles": sim_cycles,
        }

    def as_dict(self) -> dict[str, Any]:
        doc = {
            "schema": "repro-fault-campaign/v1",
            "design": self.design,
            "flow": self.flow,
            "hardening": self.hardening,
            "seed": self.seed,
            "cycles": self.cycles,
            "observed": list(self.observed),
            "detect_signals": list(self.detect_signals),
            "golden": {
                "selfcheck": self.golden_selfcheck,
                "done": self.golden_done,
                "drain_cycles": self.golden_drain_cycles,
            },
            "injected": len(self.records),
            "outcomes": self.outcomes,
            "faults": [record.as_dict() for record in self.records],
        }
        if self.errors:
            doc["errors"] = self.errors
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def sdc_ranking(self, limit: int | None = None) -> list[tuple[str, float]]:
        """SDC-prone nets ranked by SCOAP observability, best first.

        Targets whose stuck-at/flip faults classified as silent data
        corruption, ordered by ascending observability score (a low CO
        means the net's value reaches the outputs easily, so its
        corruption is the most likely to slip through undetected).
        Needs the ``net_scores`` attached by ``collapse=True`` runs;
        returns ``[]`` otherwise.
        """
        if self.net_scores is None:
            return []
        prone: dict[str, float] = {}
        for record in self.records:
            if record.outcome != "sdc":
                continue
            score = self.net_scores.get(record.fault.target)
            if score is not None:
                prone[record.fault.target] = score
        ranked = sorted(prone.items(), key=lambda item: (item[1], item[0]))
        return ranked[:limit] if limit is not None else ranked

    def summary_rows(self) -> list[dict[str, Any]]:
        """One table row (for ``repro.eval.format_table``)."""
        counts = self.outcomes
        return [{
            "design": self.design, "flow": self.flow,
            "hardening": self.hardening, "faults": len(self.records),
            **counts,
        }]

    def __repr__(self) -> str:
        counts = self.outcomes
        body = ", ".join(f"{k}={v}" for k, v in counts.items())
        return (f"CampaignResult({self.design!r}, {self.flow}, "
                f"{self.hardening}, {body})")


def collapse_fault(fault: Fault,
                   cmap: Mapping[tuple[str, str], tuple[str, str]]) -> Fault:
    """The class representative of *fault* under an equivalence map.

    Equivalence is structural, so canonicalization preserves the
    injection cycle and bit; faults outside any class map to themselves.
    """
    rep = cmap.get((fault.target, fault.kind))
    if rep is None:
        return fault
    return Fault(rep[1], rep[0], fault.bit, fault.cycle)


def generate_fault_list(injector, n: int, cycles: int, seed: int,
                        kinds: Sequence[str] | None = None,
                        collapse: bool = False) -> list[Fault]:
    """Seeded, deterministic fault list: target × cycle × bit.

    Targets are drawn from the injector's deterministic enumerations;
    injection cycles are uniform over ``[1, cycles)`` so every fault has
    at least one post-reset cycle before it and one stimulus cycle after.

    With ``collapse=True`` every stuck-at fault is replaced by its
    structural equivalence-class representative
    (:meth:`fault_collapse_map`), shrinking the list a campaign has to
    simulate while covering the same fault classes.  Note the sampled
    *sites* change under collapsing; to keep a report byte-identical to
    the uncollapsed oracle, leave the list alone and pass
    ``collapse=True`` to :func:`run_campaign` instead.
    """
    if kinds is None:
        kinds = RTL_KINDS if injector.flow == "rtl" else GATE_KINDS
    seu = injector.seu_targets()
    nets = injector.net_targets()
    kinds = tuple(k for k in kinds
                  if k == "seu" and seu or k != "seu" and nets)
    if n > 0 and not kinds:
        raise ValueError("no fault targets available for the chosen kinds")
    rng = random.Random(seed)
    faults: list[Fault] = []
    for _ in range(n):
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "seu":
            target, width = seu[rng.randrange(len(seu))]
            bit = rng.randrange(width)
        else:
            target, bit = nets[rng.randrange(len(nets))], 0
        # A one-cycle stimulus leaves no post-reset cycle to draw from:
        # inject at cycle 0 instead of sampling cycle 1, which
        # run_campaign would reject as outside the stimulus.
        cycle = rng.randrange(1, cycles) if cycles > 1 else 0
        faults.append(Fault(kind, target, bit, cycle))
    if collapse:
        cmap = injector.fault_collapse_map()
        if cmap:
            faults = [collapse_fault(fault, cmap) for fault in faults]
    return faults


def stuck_at_universe(injector, cycle: int = 1) -> list[Fault]:
    """The classical full stuck-at fault list: sa0/sa1 on every net.

    One injection cycle for the whole list (stuck-at faults are
    permanent; *cycle* chooses how much of the stimulus they overlap).
    This is the universe fault collapsing is measured against.
    """
    return [Fault(kind, target, 0, cycle)
            for target in injector.net_targets()
            for kind in ("sa0", "sa1")]


def _observed_names(outputs: Mapping[str, int],
                    config: CampaignConfig) -> list[str]:
    if config.observed is not None:
        return list(config.observed)
    return sorted(outputs)


def _drain(injector, config: CampaignConfig,
           detect_reference: list[dict[str, int]] | None = None,
           ) -> tuple[bool, int, list[dict[str, int]], bool]:
    """Step idle input until the done-signal quiesces.

    Returns ``(done, cycles, detect_trace, detected)``: the per-cycle
    detect-signal samples (the golden run's trace becomes the reference
    for fault replays) and, when *detect_reference* is given, whether a
    detect signal rose where the reference had 0 — the drain-phase half
    of the ``detected`` classification.  A fault drain outlasting the
    reference is compared against the reference's final cycle.
    """
    if config.done_signal is None:
        return True, 0, [], False
    idle = {config.reset_name: 0, **dict(config.idle_input)}
    trace: list[dict[str, int]] = []
    detected = False
    done = False
    cycles = 0
    while cycles < config.drain_budget + 1:
        outputs = injector.step(idle)
        if config.detect_signals:
            sample = {sig: outputs.get(sig) or 0
                      for sig in config.detect_signals}
            trace.append(sample)
            if detect_reference is not None and not detected:
                k = min(cycles, len(detect_reference) - 1)
                reference = detect_reference[k] if k >= 0 else {}
                detected = any(
                    sample[sig] and not reference.get(sig)
                    for sig in config.detect_signals
                )
        cycles += 1
        if outputs.get(config.done_signal) == config.done_value:
            done = True
            break
    return done, cycles, trace, detected


@dataclass
class _GoldenRun:
    """Everything a fault replay compares against."""

    snapshots: dict[int, tuple]
    trace: list[dict[str, int]]
    done: bool
    drain_cycles: int
    detect_trace: list[dict[str, int]]
    observed: list[str]
    selfcheck: str


def _golden_run(injector, stimulus: Sequence[Mapping[str, int]],
                config: CampaignConfig, snap_cycles: set[int]) -> _GoldenRun:
    """Reset, golden run with checkpoints, drain, and the self-check."""
    for _ in range(config.reset_cycles):
        injector.step({config.reset_name: 1})
    base = injector.snapshot()
    snapshots: dict[int, tuple] = {}
    trace: list[dict[str, int]] = []
    for cycle, entry in enumerate(stimulus):
        if cycle in snap_cycles:
            snapshots[cycle] = injector.snapshot()
        trace.append(injector.step(entry))
    done, drain_cycles, detect_trace, _ = _drain(injector, config)
    observed = _observed_names(trace[0], config)

    # Golden self-check: restore+replay must reproduce the trace.
    injector.restore(base)
    selfcheck = "masked"
    for cycle, entry in enumerate(stimulus):
        outputs = injector.step(entry)
        if any(outputs.get(k) != trace[cycle].get(k) for k in observed):
            selfcheck = "sdc"
            break
    return _GoldenRun(snapshots, trace, done, drain_cycles, detect_trace,
                      observed, selfcheck)


def _classify(injector, fault: Fault,
              stimulus: Sequence[Mapping[str, int]], golden: _GoldenRun,
              config: CampaignConfig) -> FaultRecord:
    """Restore the fault's checkpoint, inject, replay the tail, classify."""
    injector.restore(golden.snapshots[fault.cycle])
    first_divergence: int | None = None
    detected = False
    detail = ""
    hang = False
    try:
        injector.inject(fault)
        for cycle in range(fault.cycle, len(stimulus)):
            outputs = injector.step(stimulus[cycle])
            reference = golden.trace[cycle]
            if first_divergence is None and any(
                outputs.get(k) != reference.get(k) for k in golden.observed
            ):
                first_divergence = cycle
            if not detected and any(
                outputs.get(k) and not reference.get(k)
                for k in config.detect_signals
            ):
                detected = True
        if golden.done:
            done, _, _, drain_detected = _drain(
                injector, config, golden.detect_trace
            )
            hang = not done
            detected = detected or drain_detected
    except DeadlineExceeded:
        # A wall-clock deadline is an execution-infrastructure event,
        # not a simulator detection — let the supervisor retry or
        # quarantine instead of misfiling the fault as "detected".
        raise
    except Exception as exc:  # simulator flagged the fault itself
        detected = True
        detail = f"{type(exc).__name__}: {exc}"
    finally:
        injector.clear_faults()
    if hang:
        outcome = "hang"
    elif detected:
        outcome = "detected"
    elif first_divergence is not None:
        outcome = "sdc"
    else:
        outcome = "masked"
    return FaultRecord(fault, outcome, first_divergence, detail)


def _classify_batch(injector, faults: Sequence[Fault],
                    stimulus: Sequence[Mapping[str, int]],
                    golden: _GoldenRun,
                    config: CampaignConfig) -> list[FaultRecord]:
    """Classify up to ``lane_capacity`` stuck-at faults in one replay.

    Bit-parallel (PPSFP) counterpart of :func:`_classify`: the replay
    restores the earliest checkpoint of the batch, widens the simulator
    to one lane per fault, and activates each lane's stuck-at clamp at
    that fault's own injection cycle — a lane before its cycle tracks
    the golden run exactly (the golden self-check guarantees replay
    determinism), so it accumulates no spurious divergence.  Divergence,
    detect-signal rises and done-signal quiescence are reduced to lane
    bitmasks per cycle, mirroring the scalar classifier's sampling
    points (outputs observed pre-commit; drain detection sampled on the
    cycle quiescence is reached) so each lane's record is byte-identical
    to its scalar classification.  Faults must be pre-validated with
    ``injector.resolve_stuck`` — a lane fault can then never raise, so
    the scalar classifier's exception-means-detected path has no batch
    counterpart.
    """
    n = len(faults)
    base = min(fault.cycle for fault in faults)
    by_cycle: dict[int, list[tuple[int, Fault]]] = {}
    for lane, fault in enumerate(faults):
        by_cycle.setdefault(fault.cycle, []).append((lane, fault))
    all_lanes = (1 << n) - 1
    first_divergence: list[int | None] = [None] * n
    diff_seen = 0
    detected = 0
    hang = 0
    injector.restore(golden.snapshots[base])
    try:
        injector.begin_lanes(n)
        for cycle in range(base, len(stimulus)):
            for lane, fault in by_cycle.get(cycle, ()):
                injector.force_lane(fault, lane)
            injector.step_lanes(stimulus[cycle])
            reference = golden.trace[cycle]
            diff = injector.lanes_output_diff(reference, golden.observed)
            fresh = diff & ~diff_seen
            while fresh:
                lane = (fresh & -fresh).bit_length() - 1
                first_divergence[lane] = cycle
                fresh &= fresh - 1
            diff_seen |= diff
            if config.detect_signals:
                detected |= injector.lanes_detect_rise(
                    reference, config.detect_signals
                )
            injector.commit_lanes()
        # No done-signal means the scalar drain declares quiescence
        # immediately (no drain steps, no hang) — mirror that here.
        if golden.done and config.done_signal is not None:
            idle = {config.reset_name: 0, **dict(config.idle_input)}
            detect_trace = golden.detect_trace
            active = all_lanes
            cycles = 0
            # Brent-style periodicity shortcut for hang lanes: the
            # drain input is constant, so once the full wide state
            # repeats with unchanged active/detected masks (and the
            # detect reference clamped to its final entry), no active
            # lane can ever quiesce or newly detect — the classification
            # is already exactly what exhausting the budget would
            # produce.  One stored snapshot, refreshed at power-of-two
            # cycle counts, detects any period within the budget.
            snapshot: list[int] | None = None
            snap_active = snap_detected = 0
            next_snap = 1
            while cycles < config.drain_budget + 1:
                injector.step_lanes(idle)
                if config.detect_signals:
                    k = min(cycles, len(detect_trace) - 1)
                    reference = detect_trace[k] if k >= 0 else {}
                    detected |= injector.lanes_detect_rise(
                        reference, config.detect_signals
                    ) & active
                done = injector.lanes_done(config.done_signal,
                                           config.done_value)
                injector.commit_lanes()
                cycles += 1
                active &= ~done
                if not active:
                    break
                if cycles >= len(detect_trace) - 1:
                    if (snapshot is not None and active == snap_active
                            and detected == snap_detected
                            and injector.lane_state_matches(snapshot)):
                        break
                    if cycles >= next_snap:
                        snapshot = injector.lane_state_snapshot()
                        snap_active, snap_detected = active, detected
                        next_snap *= 2
            hang = active
    finally:
        injector.end_lanes()
        injector.clear_faults()
    records = []
    for lane, fault in enumerate(faults):
        bit = 1 << lane
        if hang & bit:
            outcome = "hang"
        elif detected & bit:
            outcome = "detected"
        elif first_divergence[lane] is not None:
            outcome = "sdc"
        else:
            outcome = "masked"
        records.append(FaultRecord(fault, outcome, first_divergence[lane]))
    return records


def _lane_batches(injector, sim_faults: Sequence[Fault],
                  pending: Sequence[int]) -> tuple[list[list[int]],
                                                   list[int]]:
    """Split *pending* fault indices into lane batches and a scalar rest.

    Only permanent stuck-at faults pack into lanes; transients (seu,
    flip) are one-shot events whose healing is inherently scalar, and
    faults whose target does not resolve must go through the scalar
    classifier to reproduce its exception-means-detected record.
    Batchable faults are sorted target-major (then bit, kind, cycle)
    before chunking at the injector's lane capacity: faults on the same
    or structurally nearby nets tend to classify alike, so in
    particular the hang-prone ones cluster into the same batch — one
    batch pays the full drain budget instead of every batch carrying a
    straggler lane.
    """
    batchable: list[int] = []
    rest: list[int] = []
    for k in pending:
        fault = sim_faults[k]
        if fault.kind in ("sa0", "sa1"):
            try:
                injector.resolve_stuck(fault)
            except Exception:
                rest.append(k)
            else:
                batchable.append(k)
        else:
            rest.append(k)
    batchable.sort(key=lambda k: (sim_faults[k].target, sim_faults[k].bit,
                                  sim_faults[k].kind, sim_faults[k].cycle))
    capacity = injector.lane_capacity
    batches = [batchable[i:i + capacity]
               for i in range(0, len(batchable), capacity)]
    return batches, rest


def _golden_meta(injector, golden: _GoldenRun) -> dict[str, Any]:
    """The injector-independent golden facts every shard must agree on."""
    return {
        "flow": injector.flow,
        "design": getattr(injector, "design", injector.flow),
        "observed": list(golden.observed),
        "selfcheck": golden.selfcheck,
        "done": golden.done,
        "drain_cycles": golden.drain_cycles,
    }


def _sim_stats(injector) -> dict[str, Any] | None:
    """The injector's simulator work counters, when it exposes them."""
    sim = getattr(injector, "sim", None)
    stats = getattr(sim, "stats", None)
    return stats() if callable(stats) else None


def _outcome_tally(records: Sequence[FaultRecord]) -> dict[str, int]:
    counts = {outcome: 0 for outcome in OUTCOMES}
    for record in records:
        counts[record.outcome] += 1
    return counts


class _CampaignSession:
    """Campaign state for one executor of the supervised pool.

    Built once per worker process (injector + checkpointed golden run),
    then classifies one task per ``run`` call: a scalar fault, or a
    tuple of stuck-at faults replayed as one lane batch.  ``meta`` is
    the cross-worker consistency contract: every worker must reproduce
    the identical golden run or the campaign refuses to merge shards.
    Module-level so ``functools.partial`` over it pickles under every
    multiprocessing start method.

    With a *tracer* (the in-process ``jobs=1`` session only) the golden
    run and every task get their own span under the caller's open span.
    """

    def __init__(self, injector_factory, stimulus, snap_cycles, config,
                 tracer: Tracer | None = None):
        self.tracer = tracer or NULL_TRACER
        self.injector = injector_factory()
        self.stimulus = stimulus
        self.config = config
        with self.tracer.span("golden") as golden_span:
            self.golden = _golden_run(self.injector, stimulus,
                                      config, set(snap_cycles))
        golden_span.annotate(selfcheck=self.golden.selfcheck,
                             done=self.golden.done,
                             drain_cycles=self.golden.drain_cycles)
        self.meta = _golden_meta(self.injector, self.golden)

    def run(self, task: Fault | tuple) -> FaultRecord | list[FaultRecord]:
        if isinstance(task, tuple):  # lane batch → one record per fault
            label = f"lanes[{len(task)}]@{min(f.cycle for f in task)}"
            with self.tracer.span(label) as batch_span:
                try:
                    records = _classify_batch(self.injector, list(task),
                                              self.stimulus, self.golden,
                                              self.config)
                except Exception:
                    # A lane-parallel surprise must never cost the batch
                    # its classification: fall back to the scalar oracle.
                    self.injector.clear_faults()
                    records = [_classify(self.injector, fault,
                                         self.stimulus, self.golden,
                                         self.config)
                               for fault in task]
            batch_span.annotate(faults=len(task),
                                outcomes=_outcome_tally(records))
            return records
        label = f"{task.kind}:{task.target}[{task.bit}]@{task.cycle}"
        with self.tracer.span(label) as fault_span:
            try:
                record = _classify(self.injector, task, self.stimulus,
                                   self.golden, self.config)
            except DeadlineExceeded:
                fault_span.annotate(outcome="timed_out")
                raise
        fault_span.annotate(outcome=record.outcome)
        return record

    def stats(self) -> dict[str, Any] | None:
        return _sim_stats(self.injector)


def _campaign_fingerprint(design: str, hardening: str, seed: int,
                          stimulus: Sequence[Mapping[str, int]],
                          config: CampaignConfig,
                          faults: Sequence[Fault]) -> str:
    """Digest of everything that determines a campaign's report.

    Binds a journal to one exact campaign: any change to the stimulus,
    fault list or configuration yields a different fingerprint, so
    stale journals are discarded instead of replayed into the wrong
    report.  Collapse mode is deliberately *not* part of the digest:
    collapse is classification-preserving, so a record journaled by a
    plain run is byte-for-byte the record a collapsed run would emit
    (and vice versa) — one journal serves both modes of the same
    campaign.  Mappings are serialized as sorted item lists to stay
    independent of dict insertion order.
    """
    return digest_doc({
        "design": design,
        "hardening": hardening,
        "seed": seed,
        "stimulus": [sorted(entry.items()) for entry in stimulus],
        "config": {
            "reset_name": config.reset_name,
            "reset_cycles": config.reset_cycles,
            "observed": (None if config.observed is None
                         else list(config.observed)),
            "detect_signals": list(config.detect_signals),
            "done_signal": config.done_signal,
            "done_value": config.done_value,
            "drain_budget": config.drain_budget,
            "idle_input": sorted(config.idle_input.items()),
        },
        "faults": [fault.as_dict() for fault in faults],
    })


@dataclass
class _CampaignPlan:
    """What a campaign simulates once every shortcut has been taken."""

    unique: list[Fault]            # deduplicated fault list
    index_of: dict[Fault, int]     # fault -> its index in ``unique``
    canonical: list[Fault]         # each unique fault's representative
    masked: list[bool]             # unique fault proven masked statically
    sim_faults: list[Fault]        # representatives that need records
    sim_index: dict[Fault, int]    # representative -> its sim index
    sim_records: list[FaultRecord | None]  # journal-restored or fresh
    pending: list[int]             # sim indices left to simulate
    journal_hits: int
    injector: Any
    jobs: int
    tasks: list[Any]               # a scalar fault or a lane-batch tuple
    task_map: list[list[int]]      # task -> the sim indices it classifies
    lane_batches: int
    collapse: dict[str, int] | None
    net_scores: dict[str, float] | None


def _plan_campaign(injector, injector_factory, stimulus, faults, config, *,
                   jobs: int, collapse: bool, lanes: bool,
                   jrnl: CampaignJournal | None,
                   tracer: Tracer) -> _CampaignPlan:
    """Plan: dedupe, collapse, journal preload and lane batching."""
    # Identical faults replay identically (determinism guarantee), so
    # simulate each unique fault once and share its record.
    unique: list[Fault] = []
    index_of: dict[Fault, int] = {}
    for fault in faults:
        if fault not in index_of:
            index_of[fault] = len(unique)
            unique.append(fault)

    # Static pre-campaign reduction (collapse=True): canonicalize each
    # fault to its equivalence-class representative and prove stuck-at
    # faults masked from one instrumented golden pass; only what
    # survives is simulated.
    canonical = unique
    masked_flags = [False] * len(unique)
    collapse_stats: dict[str, int] | None = None
    net_scores: dict[str, float] | None = None
    if collapse:
        if injector is None:
            injector = injector_factory()
        cmap = injector.fault_collapse_map()
        canonical = [collapse_fault(fault, cmap) for fault in unique]
        from repro.fault.profile import quiescence_profile

        with tracer.span("quiescence-profile") as profile_span:
            profile = quiescence_profile(injector, stimulus, config)
        profile_span.annotate(targets=len(profile.quiet),
                              sample_points=profile.sample_points)
        masked_flags = [profile.masks(fault) for fault in canonical]
        if getattr(injector, "flow", None) == "netlist":
            from repro.analyze.netlist import scoap_analysis

            testability = scoap_analysis(injector.sim.circuit)
            net_scores = {
                name: testability.co[net.uid]
                for name, net in injector.addressable_nets().items()
            }
    sim_faults: list[Fault] = []
    sim_index: dict[Fault, int] = {}
    for fault, masked in zip(canonical, masked_flags):
        if masked or fault in sim_index:
            continue
        sim_index[fault] = len(sim_faults)
        sim_faults.append(fault)
    if collapse:
        collapse_stats = {
            "faults": len(faults),
            "unique": len(unique),
            "equivalence_merged": len(unique) - len(set(canonical)),
            "quiescence_pruned": sum(masked_flags),
            "simulated": len(sim_faults),
        }

    # Checkpoint/resume: restore already-journaled records, simulate
    # only what remains.
    sim_records: list[FaultRecord | None] = [None] * len(sim_faults)
    journal_hits = 0
    if jrnl is not None:
        canonical_entries: dict[str, dict[str, Any]] = {}
        if collapse and jrnl.entries:
            # A journal written by a plain run keys its records by
            # the original fault ids; index every entry under its
            # equivalence-class representative too, so a collapsed
            # resume can reuse a member's record for the class it
            # now simulates.  Classification is class-invariant —
            # the property collapse's byte-identity rests on — so
            # any member's record stands in for the representative.
            for doc in jrnl.entries.values():
                entry_fault = Fault(
                    doc["fault"]["kind"], doc["fault"]["target"],
                    int(doc["fault"]["bit"]), int(doc["fault"]["cycle"]),
                )
                rep_key = fault_key(
                    collapse_fault(entry_fault, cmap).as_dict()
                )
                canonical_entries.setdefault(rep_key, doc)
        for k, fault in enumerate(sim_faults):
            key = fault_key(fault.as_dict())
            doc = jrnl.entries.get(key)
            if doc is None:
                doc = canonical_entries.get(key)
            if doc is not None:
                record = deserialize_fault_record(doc)
                if record.fault != fault:
                    record = FaultRecord(fault, record.outcome,
                                         record.first_divergence,
                                         record.detail)
                sim_records[k] = record
                journal_hits += 1
    pending = [k for k, record in enumerate(sim_records) if record is None]
    jobs = max(1, min(int(jobs), max(1, len(pending))))

    # Bit-parallel lane packing (PPSFP): after collapse has
    # canonicalized the list, pack permanent stuck-at faults into
    # lanes so one replay classifies up to ``lane_capacity`` of them.
    # Per-fault wall-clock deadlines keep their scalar quarantine
    # semantics, so batching steps aside when *lanes* is off (a
    # *fault_timeout* is set); with ``jobs > 1`` the parent needs an
    # *injector* (not just the factory) to plan the batches — without
    # one every fault stays scalar.
    if pending and jobs == 1 and injector is None:
        injector = injector_factory()
    batches: list[list[int]] = []
    scalar_pending = list(pending)
    if pending and lanes and getattr(injector, "lane_capacity", 0) > 1:
        batches, scalar_pending = _lane_batches(injector, sim_faults,
                                                pending)
    # A task is one scalar fault or one lane batch (a tuple of faults
    # classified in a single bit-parallel replay); task_map resolves
    # each task back to its sim indices.
    tasks: list[Any] = [tuple(sim_faults[k] for k in batch)
                        for batch in batches]
    tasks += [sim_faults[k] for k in scalar_pending]
    task_map = [list(batch) for batch in batches]
    task_map += [[k] for k in scalar_pending]
    return _CampaignPlan(
        unique, index_of, canonical, masked_flags, sim_faults, sim_index,
        sim_records, pending, journal_hits, injector, jobs, tasks,
        task_map, len(batches), collapse_stats, net_scores,
    )


def _execute_campaign(plan: _CampaignPlan, stimulus, config, *,
                      injector_factory, fault_timeout: float | None,
                      max_retries: int, start_method: str | None,
                      jrnl: CampaignJournal | None, tracer: Tracer,
                      campaign_span) -> tuple[dict[str, Any],
                                              dict[int, dict[str, str]],
                                              dict[str, int]]:
    """Execute: every planned task through one :meth:`SupervisedPool.run`.

    ``jobs=1`` runs on the pool's in-process executor with a session
    over the caller's injector, traced per task under ``replay``;
    ``jobs > 1`` shards over worker processes under ``shards``.  A full
    resume from a journal that already holds the golden metadata
    simulates nothing.  Returns the golden metadata, the quarantined
    tasks' failures by sim index, and the execution counters.
    """
    journal_meta = jrnl.meta if jrnl is not None else None
    exec_stats: dict[str, int] = {
        "jobs": plan.jobs,
        "simulated": len(plan.pending),
        "journal_hits": plan.journal_hits,
        "timeouts": 0,
        "timeout_retries": 0,
        "quarantined": 0,
        "lane_batches": plan.lane_batches,
    }
    if not plan.pending and journal_meta is not None:
        return journal_meta, {}, exec_stats

    def check_meta(fresh_meta: Mapping[str, Any]) -> None:
        if journal_meta is not None and dict(fresh_meta) != journal_meta:
            raise CampaignError(
                "the journal's golden-run metadata does not match this "
                "campaign's golden run; refusing to resume into a "
                "different report"
            )
        if jrnl is not None:
            jrnl.set_meta(fresh_meta)

    def on_result(i: int, result: Any) -> None:
        records = result if isinstance(result, list) else [result]
        for k, record in zip(plan.task_map[i], records):
            plan.sim_records[k] = record
            if jrnl is not None:
                jrnl.append_record(serialize_fault_record(record))

    snap_cycles = tuple(sorted(
        {plan.sim_faults[k].cycle for k in plan.pending} | {0}
    ))
    if plan.jobs == 1:
        injector = plan.injector or injector_factory()
        session = _CampaignSession(lambda: injector, stimulus, snap_cycles,
                                   config, tracer)
        factory = lambda: session  # in-process only: never pickled
    else:
        session = None
        factory = functools.partial(_CampaignSession, injector_factory,
                                    stimulus, snap_cycles, config)
    pool = SupervisedPool(factory, plan.jobs, task_timeout=fault_timeout,
                          max_retries=max_retries, start_method=start_method,
                          tracer=tracer if session is None else None)
    with tracer.span("replay" if session is not None else "shards") as span:
        try:
            outcome = pool.run(plan.tasks, on_result=on_result,
                               on_meta=check_meta)
        except TaskPickleError as exc:
            raise CampaignError(
                "run_campaign(jobs>1) needs an injector_factory that "
                f"pickles under the active start method: {exc}"
            ) from exc
        except MetaMismatchError as exc:
            raise CampaignError(
                "parallel campaign shards disagree on the golden run; "
                "the injector factory is not deterministic across "
                "processes"
            ) from exc
        except PoolError as exc:
            raise CampaignError(str(exc)) from exc
    replayed = [plan.sim_records[k] for k in plan.pending
                if plan.sim_records[k] is not None]
    span.annotate(faults=len(plan.pending),
                  outcomes=_outcome_tally(replayed))
    if span.dur:
        span.annotate(faults_per_s=round(len(plan.pending) / span.dur, 2))
    if session is not None:
        stats = session.stats()
        if stats is not None:
            campaign_span.annotate(sim_stats=stats)
    exec_stats.update(pool.stats)
    failures = {k: failure for i, failure in outcome.failures.items()
                for k in plan.task_map[i]}
    return outcome.meta, failures, exec_stats


def _assemble_campaign(plan: _CampaignPlan, faults: Sequence[Fault],
                       failures: Mapping[int, dict[str, str]],
                       jrnl: CampaignJournal | None, campaign_span,
                       ) -> tuple[list[FaultRecord], list[dict[str, Any]]]:
    """Assemble: expand collapsed records, restore order, list errors."""
    # Expand representative records back over the unique list: a
    # synthesized masked record for pruned faults, the shared record
    # object where the fault was its own representative, and a rewrap
    # carrying the original fault otherwise.  Quarantined
    # representatives stay ``None`` and surface in the errors section.
    unique_records: list[FaultRecord | None] = []
    for fault, rep, masked in zip(plan.unique, plan.canonical, plan.masked):
        if masked:
            unique_records.append(FaultRecord(fault, "masked"))
            continue
        record = plan.sim_records[plan.sim_index[rep]]
        if record is None or rep == fault:
            unique_records.append(record)
        else:
            unique_records.append(FaultRecord(
                fault, record.outcome, record.first_divergence,
                record.detail,
            ))
    if plan.collapse is not None:
        if jrnl is not None:
            # Journal the expanded records too — not just the
            # representatives — so a later resume of the same campaign
            # (collapsed or plain) finds every fault under its own key.
            # append_record dedups by key, so representatives are not
            # re-written.
            for record in unique_records:
                if record is not None:
                    jrnl.append_record(serialize_fault_record(record))
        campaign_span.annotate(
            collapse=plan.collapse,
            expanded_records=sum(
                1 for record in unique_records if record is not None
            ),
        )

    records: list[FaultRecord] = []
    errors: list[dict[str, Any]] = []
    for fault in faults:
        u = plan.index_of[fault]
        record = unique_records[u]
        if record is None:
            failure = failures.get(
                plan.sim_index[plan.canonical[u]],
                {"error": "timed_out", "detail": ""},
            )
            errors.append({"fault": fault.as_dict(),
                           "error": failure["error"],
                           "detail": failure["detail"]})
        else:
            records.append(record)
    return records, errors


def run_campaign(
    injector,
    stimulus: Sequence[Mapping[str, int]],
    faults: Sequence[Fault],
    config: CampaignConfig | None = None,
    *,
    design: str = "",
    hardening: str = "none",
    seed: int = 0,
    jobs: int = 1,
    injector_factory: Callable[[], Any] | None = None,
    collapse: bool = False,
    tracer: Tracer | None = None,
    fault_timeout: float | None = None,
    max_retries: int = 1,
    journal: str | None = None,
    resume: bool = False,
    start_method: str | None = None,
) -> CampaignResult:
    """Golden run + per-fault replay + classification (see module doc).

    Every campaign runs its deduplicated fault list through one
    :class:`~repro.exec.pool.SupervisedPool`.  With ``jobs > 1`` the
    pool's worker processes each rebuild the injector through
    *injector_factory* (a picklable zero-argument callable), and
    *injector* may then be ``None``.  The merged report is
    byte-identical to the ``jobs=1`` run, and it stays byte-identical
    when workers crash mid-campaign: the dead worker's in-flight fault
    is re-queued onto a respawned worker.  When workers cannot start,
    or the respawn budget runs out (a one-line warning), the remaining
    faults run in-process.

    *fault_timeout* puts a wall-clock deadline (seconds) on each fault
    replay, complementing the cycle budget: a fault that overruns is
    retried up to *max_retries* times (on a fresh worker when
    parallel), then quarantined into the result's ``errors`` section —
    never misclassified, never able to stall the campaign.

    *journal* names a crash-safe append-only checkpoint file
    (``repro-journal/v1``); with ``resume=True`` faults already
    recorded by a previous (possibly killed) run of the *same*
    campaign are restored instead of re-simulated, and the final
    report is byte-identical to an uninterrupted run.  The journal is
    fingerprint-bound: any change to the campaign starts fresh.

    With ``collapse=True`` (gate flow) the static netlist analysis cuts
    the simulated set in two ways before any replay happens: each fault
    is canonicalized to its structural equivalence-class representative
    (:mod:`repro.analyze.netlist`), and stuck-at faults proven masked by
    one instrumented golden pass (:mod:`repro.fault.profile`) have their
    records synthesized outright.  Both reductions are
    classification-preserving, so the result — including the serialized
    report — is byte-identical to the uncollapsed run; the extra
    ``collapse`` stats and per-net ``net_scores`` ride on the result
    object only.  At RTL level ``collapse=True`` is a no-op.

    With a :class:`~repro.obs.profiler.Tracer`, the campaign records a
    ``campaign`` root span with a ``golden`` child, one span per unique
    fault replay or lane batch (``jobs=1``) or one rollup span per
    worker (``jobs > 1``), plus faults/sec throughput, per-outcome
    tallies, the simulator's work counters and the resilience counters
    (respawns, re-queues, timeouts, journal hits — also on the
    result's ``exec_stats``) as span metadata.
    """
    tracer = tracer or NULL_TRACER
    config = config or CampaignConfig()
    stimulus = [{config.reset_name: 0, **dict(entry)} for entry in stimulus]
    if not stimulus:
        raise ValueError("campaign needs a non-empty stimulus")
    for fault in faults:
        if not 0 <= fault.cycle < len(stimulus):
            raise ValueError(
                f"fault cycle {fault.cycle} outside the "
                f"{len(stimulus)}-cycle stimulus"
            )
    if jobs > 1 and injector_factory is None:
        raise ValueError(
            "run_campaign(jobs>1) needs a picklable injector_factory so "
            "worker processes can rebuild the injector"
        )
    if resume and journal is None:
        raise ValueError(
            "run_campaign(resume=True) needs a journal path to resume from"
        )

    # The journal stays open for the whole run so every fresh record
    # is durable the moment it is classified.
    jrnl: CampaignJournal | None = None
    try:
        if journal is not None:
            fingerprint = _campaign_fingerprint(design, hardening, seed,
                                                stimulus, config, faults)
            jrnl = CampaignJournal(journal, fingerprint).open(resume=resume)
        plan = _plan_campaign(injector, injector_factory, stimulus, faults,
                              config, jobs=jobs, collapse=collapse,
                              lanes=fault_timeout is None, jrnl=jrnl,
                              tracer=tracer)
        campaign_ctx = tracer.span("campaign", hardening=hardening,
                                   seed=seed, faults=len(faults),
                                   unique_faults=len(plan.unique),
                                   simulated=len(plan.sim_faults),
                                   jobs=plan.jobs, cycles=len(stimulus))
        with campaign_ctx as campaign_span:
            meta, failures, exec_stats = _execute_campaign(
                plan, stimulus, config, injector_factory=injector_factory,
                fault_timeout=fault_timeout,
                max_retries=max_retries,
                start_method=start_method, jrnl=jrnl, tracer=tracer,
                campaign_span=campaign_span,
            )
            records, errors = _assemble_campaign(plan, faults, failures,
                                                 jrnl, campaign_span)
            campaign_span.annotate(design=design or meta["design"],
                                   flow=meta["flow"],
                                   resilience=dict(exec_stats))
    finally:
        if jrnl is not None:
            jrnl.close()

    return CampaignResult(
        design=design or meta["design"],
        flow=meta["flow"],
        hardening=hardening,
        seed=seed,
        cycles=len(stimulus),
        observed=meta["observed"],
        detect_signals=list(config.detect_signals),
        golden_selfcheck=meta["selfcheck"],
        golden_done=meta["done"],
        golden_drain_cycles=meta["drain_cycles"],
        records=records,
        collapse=plan.collapse,
        net_scores=plan.net_scores,
        errors=errors,
        exec_stats=exec_stats,
    )
