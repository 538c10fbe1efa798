"""Bit-parallel (PPSFP) campaign correctness: byte-identical reports.

The lane-packed ``backend="bitparallel"`` evaluator classifies up to 64
gate faults of every kind per replay.  These tests pin its end-to-end
guarantee on seeded random circuits: however the campaign is run —
sequentially, collapsed, sharded over worker processes, or resumed from
a journal — the serialized report must be byte-for-byte the one the
scalar oracles produce.  Alongside ride the lane corner cases of
transient flips and SEUs, and the boundary-condition regressions the
bit-parallel work flushed out: transients injected on the final
stimulus cycle and one-cycle fault lists.
"""

import functools
import json
import random

import pytest

from repro.fault import (
    CampaignConfig,
    Fault,
    FaultableGateSimulator,
    GateFaultInjector,
    generate_fault_list,
    run_campaign,
    stuck_at_universe,
)
from repro.fault.campaign import _classify, _classify_batch, _golden_run
from repro.netlist import map_module, optimize
from tests.fault.test_campaign import latching_module
from tests.fault.test_collapse_property import (
    CYCLES,
    _collapse_circuit,
    _config,
    _stimulus,
)

BACKENDS = ("event", "compiled", "bitparallel")


def _make_injector(seed: int, backend: str = "bitparallel"):
    """Module-level (hence picklable) factory for worker processes."""
    return GateFaultInjector(
        FaultableGateSimulator(_collapse_circuit(seed), backend=backend)
    )


def _stuck_list(injector, seed: int) -> list[Fault]:
    # Stuck-at heavy so batches actually fill: the full single-cycle
    # universe plus seeded multi-cycle sa0/sa1 spread over the stimulus.
    return (stuck_at_universe(injector, cycle=1)
            + generate_fault_list(injector, 30, CYCLES, seed,
                                  kinds=("sa0", "sa1")))


def _mixed_list(injector, seed: int) -> list[Fault]:
    # All four gate kinds, packed side by side into the same batches.
    return (stuck_at_universe(injector, cycle=1)
            + generate_fault_list(injector, 30, CYCLES, seed))


class TestBitparallelByteIdentity:
    @pytest.mark.parametrize("seed", (0, 3, 11))
    def test_matches_compiled_oracle(self, seed):
        faults = _stuck_list(_make_injector(seed), seed)
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(),
                              seed=seed)
        wide = run_campaign(_make_injector(seed), _stimulus(seed), faults,
                            _config(), seed=seed)
        assert wide.to_json() == oracle.to_json()
        assert wide.exec_stats["lane_batches"] > 0

    @pytest.mark.parametrize("seed", (0, 11))
    def test_mixed_kinds_pack_into_lanes(self, seed):
        faults = _mixed_list(_make_injector(seed), seed)
        assert {fault.kind for fault in faults} == {"seu", "sa0", "sa1",
                                                    "flip"}
        reports = {
            backend: run_campaign(_make_injector(seed, backend),
                                  _stimulus(seed), faults, _config(),
                                  seed=seed)
            for backend in BACKENDS
        }
        wide = reports["bitparallel"]
        assert wide.to_json() == reports["event"].to_json()
        assert wide.to_json() == reports["compiled"].to_json()
        # Every target resolves, so nothing replays on the scalar path.
        assert wide.exec_stats["lane_faults"] == wide.exec_stats["simulated"]
        assert reports["compiled"].exec_stats["lane_faults"] == 0

    def test_collapse_and_jobs_compose(self):
        seed = 3
        factory = functools.partial(_make_injector, seed)
        faults = _stuck_list(factory(), seed)
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(),
                              seed=seed)
        collapsed = run_campaign(factory(), _stimulus(seed), faults,
                                 _config(), seed=seed, collapse=True)
        sharded = run_campaign(None, _stimulus(seed), faults, _config(),
                               seed=seed, jobs=2, injector_factory=factory)
        both = run_campaign(None, _stimulus(seed), faults, _config(),
                            seed=seed, jobs=2, collapse=True,
                            injector_factory=factory)
        assert collapsed.to_json() == oracle.to_json()
        assert sharded.to_json() == oracle.to_json()
        assert both.to_json() == oracle.to_json()
        assert collapsed.collapse["simulated"] < collapsed.collapse["unique"]

    def test_journal_resume_byte_identical(self, tmp_path):
        seed = 0
        faults = _stuck_list(_make_injector(seed), seed)
        oracle = run_campaign(_make_injector(seed, "compiled"),
                              _stimulus(seed), faults, _config(),
                              seed=seed)
        journal = tmp_path / "campaign.jsonl"
        first = run_campaign(_make_injector(seed), _stimulus(seed), faults,
                             _config(), seed=seed, journal=str(journal))
        resumed = run_campaign(_make_injector(seed), _stimulus(seed),
                               faults, _config(), seed=seed,
                               journal=str(journal), resume=True)
        assert first.to_json() == oracle.to_json()
        assert resumed.to_json() == oracle.to_json()
        assert resumed.exec_stats["simulated"] == 0
        assert (resumed.exec_stats["journal_hits"]
                == first.exec_stats["simulated"])


def _gate_latcher(backend: str) -> GateFaultInjector:
    circuit = map_module(latching_module())
    optimize(circuit)
    return GateFaultInjector(FaultableGateSimulator(circuit,
                                                    backend=backend))


class TestFinalCycleTransient:
    """Regression: a flip on the last stimulus cycle is one glitch.

    The glitch is clamped through exactly one step — the final stimulus
    step — and healed before the drain, under every backend.  The event
    engine used to let it persist into the drain (a transient acting
    stuck), while a compiled settle healed it before anything sampled
    it (the fault silently dropped), so the same fault classified
    differently per backend.
    """

    CFG = dict(reset_name="reset", done_signal="busy", done_value=0,
               drain_budget=4, idle_input=dict(x=0, go=0, clear=0))

    def _stim(self):
        stim = [dict(x=1, go=1, clear=0)] * 6
        stim += [dict(x=0, go=0, clear=1)]
        stim += [dict(x=0, go=0, clear=0)] * 2
        return stim

    def test_backends_agree_and_glitch_is_sampled(self):
        stim = self._stim()
        last = len(stim) - 1
        targets = _gate_latcher("event").net_targets()
        faults = [Fault("flip", target, 0, last) for target in targets]
        reports = {}
        for backend in BACKENDS:
            result = run_campaign(_gate_latcher(backend), stim, faults,
                                  CampaignConfig(**self.CFG), seed=0)
            reports[backend] = result.to_json()
            # The glitch lands on the very cycle the flops sample, so
            # at least one flip must perturb state or outputs — a
            # backend that heals it pre-sample reports all-masked.
            # (A flip feeding busy's next-state CAN legitimately hang:
            # the corrupted latch outlives the one-cycle glitch.)
            assert any(r.outcome != "masked" for r in result.records)
        assert reports["event"] == reports["compiled"]
        assert reports["compiled"] == reports["bitparallel"]

    def test_mid_run_transients_also_agree(self):
        stim = self._stim()
        targets = _gate_latcher("event").net_targets()
        rng = random.Random(7)
        faults = [Fault("flip", target, 0, rng.randrange(1, len(stim)))
                  for target in targets]
        reports = [run_campaign(_gate_latcher(backend), stim, faults,
                                CampaignConfig(**self.CFG),
                                seed=0).to_json()
                   for backend in BACKENDS]
        assert reports[0] == reports[1] == reports[2]


def _latcher_circuit():
    circuit = map_module(latching_module())
    optimize(circuit)
    return circuit


def _sparse_stim():
    """A latcher stimulus that leaves ``x`` and ``clear`` undriven.

    An undriven bus keeps its last driven value, so a glitch on one of
    its nets survives into the next cycle unless it is healed: an ``x``
    glitch in a ``go=0`` cycle is harmless, in the ``go=1`` cycle after
    it would corrupt ``acc``.
    """
    stim = [dict(x=0, go=0, clear=0)] * 3
    stim += [dict(go=1), dict(go=0)] * 3
    stim += [dict(x=0, go=0, clear=1), dict(x=0, go=0, clear=0)]
    return stim


#: The circuits the lane corner cases run on: the latcher (done signal,
#: drain phase, hang-prone busy latch), once with a sparse stimulus,
#: and a random netlist.
DESIGNS = {
    "latcher": (_latcher_circuit,
                CampaignConfig(**TestFinalCycleTransient.CFG),
                TestFinalCycleTransient()._stim()),
    "latcher-sparse": (_latcher_circuit,
                       CampaignConfig(**TestFinalCycleTransient.CFG),
                       _sparse_stim()),
    "random": (functools.partial(_collapse_circuit, 5), _config(),
               _stimulus(5)),
}


def _targets(injector) -> dict[str, list[str]]:
    """Fault target names by net class: input, comb and state."""
    circuit = injector.sim.circuit
    inputs = {net.uid for nets in circuit.input_buses.values()
              for net in nets}
    by_class: dict[str, list[str]] = {"input": [], "comb": [], "state": []}
    for name, net in injector.addressable_nets().items():
        if net.uid in inputs:
            by_class["input"].append(name)
        elif name in injector.net_targets():
            by_class["comb"].append(name)
        else:
            by_class["state"].append(name)
    return by_class


def _input_flips(t, last):
    return [Fault("flip", name, 0, c) for name in t["input"]
            for c in (1, last // 2, last - 1)]


def _comb_flips(t, last):
    return [Fault("flip", name, 0, c) for name in t["comb"][:20]
            for c in (2, last - 2)]


def _state_flips(t, last):
    # ``flip`` names no combinational net, so it resolves to a flop q.
    return [Fault("flip", name, 0, c) for name in t["state"]
            for c in (1, 3, last - 1)]


def _seus(t, last):
    return [Fault("seu", name, 0, c) for name in t["state"]
            for c in (1, 3, last - 1)]


def _same_net_same_cycle(t, last):
    pairs = [("flip", name) for name in t["input"][:3] + t["comb"][:6]]
    pairs += [("seu", name) for name in t["state"][:4]]
    return [Fault(kind, name, 0, c) for kind, name in pairs
            for c in (2, 2, last - 1, last - 1)]


def _stuck_and_flip(t, last):
    names = t["input"][:3] + t["comb"][:6] + t["state"][:3]
    return [Fault(kind, name, 0, c) for name in names
            for kind, c in (("sa0", 2), ("sa1", 3), ("flip", 2),
                            ("flip", 4))]


def _final_cycle(t, last):
    names = t["input"] + t["comb"][:30] + t["state"]
    return ([Fault("flip", name, 0, last) for name in names]
            + [Fault("seu", name, 0, last) for name in t["state"]])


LANE_CASES = {
    "flip on a primary input": _input_flips,
    "flip on a comb net": _comb_flips,
    "flip resolving to a flop q": _state_flips,
    "seu": _seus,
    "two transients on one net in one cycle": _same_net_same_cycle,
    "stuck-at and flip on one net": _stuck_and_flip,
    "flip on the final stimulus cycle": _final_cycle,
}


class TestTransientLanes:
    """Lane corner cases of transient flips and SEUs.

    One :func:`_classify_batch` replay carries every fault of a row;
    each lane's record must be byte-identical to the record the event
    backend's scalar :func:`_classify` gives the same fault.
    """

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("case", sorted(LANE_CASES))
    def test_lane_record_equals_event_record(self, design, case):
        make_circuit, config, stim = DESIGNS[design]
        stim = [{config.reset_name: 0, **entry} for entry in stim]
        wide, event = (GateFaultInjector(FaultableGateSimulator(
            make_circuit(), backend=backend))
            for backend in ("bitparallel", "event"))
        faults = LANE_CASES[case](_targets(wide), len(stim) - 1)
        assert 1 < len(faults) <= wide.lane_capacity
        snap_cycles = {fault.cycle for fault in faults} | {0}
        lane_records = _classify_batch(
            wide, faults, stim, _golden_run(wide, stim, config, snap_cycles),
            config)
        event_golden = _golden_run(event, stim, config, snap_cycles)
        for fault, record in zip(faults, lane_records):
            oracle = _classify(event, fault, stim, event_golden, config)
            assert (json.dumps(record.as_dict())
                    == json.dumps(oracle.as_dict())), fault

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_unresolvable_flip_stays_scalar(self, design):
        make_circuit, config, stim = DESIGNS[design]

        def injector(backend):
            circuit = make_circuit()
            const = circuit.const_net(0)
            inj = GateFaultInjector(FaultableGateSimulator(circuit,
                                                           backend=backend))
            # No campaign enumerates a constant net; alias one in so
            # the resolver's constant-net refusal is reachable by name.
            inj._comb_nets["tied_low"] = const
            return inj

        t = _targets(GateFaultInjector(FaultableGateSimulator(
            make_circuit())))
        faults = [Fault("flip", "no_such_net", 0, 2),
                  Fault("flip", "tied_low", 0, 3),
                  Fault("seu", t["comb"][0], 0, 2),
                  *(Fault("flip", name, 0, 2) for name in t["comb"][:5])]
        reports = {backend: run_campaign(injector(backend), stim, faults,
                                         config, seed=0)
                   for backend in ("event", "bitparallel")}
        wide = reports["bitparallel"]
        assert wide.to_json() == reports["event"].to_json()
        assert wide.exec_stats["lane_faults"] == 5
        for record in wide.records[:3]:
            assert record.outcome == "detected"
            assert record.detail.startswith(("FaultInjectionError",
                                             "NetlistError"))


class TestOneCycleStimulus:
    """Regression: ``generate_fault_list`` with ``cycles=1``.

    ``randrange(1, 1)`` used to raise; the boundary now injects at
    cycle 0, which a one-entry stimulus can actually replay.
    """

    def test_cycles_one_injects_at_zero(self):
        injector = _make_injector(0)
        faults = generate_fault_list(injector, 8, 1, seed=2)
        assert faults and all(fault.cycle == 0 for fault in faults)

    def test_one_cycle_campaign_runs(self):
        seed = 0
        faults = generate_fault_list(_make_injector(seed), 6, 1, seed=2,
                                     kinds=("sa0", "sa1"))
        stim = _stimulus(seed)[:1]
        oracle = run_campaign(_make_injector(seed, "compiled"), stim,
                              faults, _config(), seed=seed)
        wide = run_campaign(_make_injector(seed), stim, faults, _config(),
                            seed=seed)
        assert wide.to_json() == oracle.to_json()
        assert len(oracle.records) == 6
