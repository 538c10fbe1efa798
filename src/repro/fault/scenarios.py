"""The bundled fault-injection scenario: campaigns on the ExpoCU.

This is what ``repro inject`` runs: the paper's auto-exposure control
unit is synthesized through the OSSS flow, one deterministic camera
frame is driven through it, and seeded faults are injected at the RTL
or gate level — optionally after hardening the netlist with the
primitives from :mod:`repro.fault.harden`.
"""

from __future__ import annotations

import functools
import random
from typing import Mapping

from repro.fault.campaign import (
    CampaignConfig,
    CampaignResult,
    generate_fault_list,
    run_campaign,
)
from repro.fault.harden import harden_circuit
from repro.fault.inject import (
    FaultableGateSimulator,
    GateFaultInjector,
    RtlFaultInjector,
)
from repro.rtl.simulate import RtlSimulator

#: The ExpoCU's functional outputs, compared cycle-by-cycle against the
#: golden trace (hardening may add detection outputs on top).
EXPOCU_OBSERVED = (
    "scl", "sda_out", "sda_oe", "exposure", "gain", "mean",
    "too_dark", "too_bright", "ctrl_busy",
)

#: Inputs held during reset and post-stimulus drain.
EXPOCU_IDLE = dict(pix=0, pix_valid=0, line_strobe=0, frame_strobe=0,
                   sda_in=1)


def expocu_stimulus(seed: int, frames: int = 1, side: int = 8,
                    idle: int = 120) -> list[dict[str, int]]:
    """Deterministic camera-frame stimulus (same shape as claim R6)."""
    rng = random.Random(seed)
    stim: list[dict[str, int]] = []
    for _ in range(frames):
        stim.append(dict(EXPOCU_IDLE, frame_strobe=1))
        stim.append(dict(EXPOCU_IDLE, frame_strobe=1))
        for _ in range(side):
            stim.append(dict(EXPOCU_IDLE, line_strobe=1))
            for _ in range(side):
                stim.append(dict(EXPOCU_IDLE, pix=rng.randint(0, 255),
                                 pix_valid=1))
        stim.extend(dict(EXPOCU_IDLE) for _ in range(idle))
    return stim


def _build_expocu_rtl(side: int):
    from repro.expocu import ExpoCU
    from repro.hdl import Clock, NS, Signal
    from repro.synth.modulegen import synthesize
    from repro.types import Bit
    from repro.types.spec import bit

    # I2C_DIVIDER=2 (instead of the demo's 4) halves the post-frame I²C
    # transaction: every fault replay must simulate to quiescence for
    # hang classification, so the transaction length is the campaign's
    # cost driver.  The architecture under test is identical.
    dut = ExpoCU[side, side, 128, 2]("expocu", Clock("clk", 10 * NS),
                                     Signal("rst", bit(), Bit(1)))
    return synthesize(dut, observe_children=False)


def injector_option_error(flow: str, hardening: str = "none",
                          backend: str = "event") -> str | None:
    """Why :func:`expocu_injector` rejects these options, or ``None``."""
    if flow == "rtl" and backend != "event":
        return (f"the {backend} evaluator backend operates on the netlist "
                "flow (--flow netlist); RTL injection is always "
                "event-driven")
    if flow == "rtl" and hardening != "none":
        return ("hardening operates on the netlist flow "
                "(--flow netlist); the RTL flow is always unhardened")
    return None


def expocu_injector(flow: str, hardening: str = "none", side: int = 8,
                    backend: str = "event"):
    """Build the ExpoCU and wrap it in the flow's fault injector.

    *backend* selects the gate-level evaluation engine
    (:class:`~repro.netlist.sim.GateSimulator`): ``"event"``, the
    code-generated ``"compiled"`` fast path, or ``"bitparallel"`` —
    the lane-packed evaluator that lets the campaign classify up to 64
    stuck-at faults per replay.
    """
    problem = injector_option_error(flow, hardening, backend)
    if problem is not None:
        raise ValueError(problem)
    rtl = _build_expocu_rtl(side)
    if flow == "rtl":
        return RtlFaultInjector(RtlSimulator(rtl))
    if flow == "netlist":
        from repro.netlist.opt import optimize
        from repro.netlist.techmap import map_module

        circuit = map_module(rtl)
        optimize(circuit)
        if hardening != "none":
            harden_circuit(circuit, hardening)
        return GateFaultInjector(
            FaultableGateSimulator(circuit, backend=backend)
        )
    raise ValueError(f"unknown flow {flow!r} (expected 'rtl' or 'netlist')")


def expocu_config(hardening: str = "none",
                  drain_budget: int = 4000) -> CampaignConfig:
    """Campaign configuration for the ExpoCU scenario."""
    detect = ("parity_err",) if "parity" in hardening else ()
    return CampaignConfig(
        reset_name="reset",
        reset_cycles=2,
        observed=EXPOCU_OBSERVED,
        detect_signals=detect,
        done_signal="ctrl_busy",
        done_value=0,
        drain_budget=drain_budget,
        idle_input=dict(EXPOCU_IDLE),
    )


def expocu_campaign(
    flow: str = "rtl",
    faults: int = 50,
    seed: int = 1,
    hardening: str = "none",
    side: int = 8,
    stimulus: list[Mapping[str, int]] | None = None,
    jobs: int = 1,
    backend: str = "event",
    collapse: bool = False,
    tracer=None,
    fault_timeout: float | None = None,
    max_retries: int = 1,
    journal: str | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run the bundled ExpoCU campaign; fully deterministic per seed.

    ``jobs > 1`` shards the fault list across supervised worker
    processes, each of which rebuilds the injector from this factory —
    the report stays byte-identical to the sequential run, including
    when workers crash and their faults are re-queued.
    ``backend="compiled"`` swaps the netlist flow onto the
    code-generated gate evaluator; ``backend="bitparallel"`` adds lane
    packing on top, classifying up to 64 stuck-at faults per replay
    (transients fall back to scalar lanes) with, again, a
    byte-identical report.  ``collapse=True`` (netlist flow)
    statically reduces the simulated set via fault equivalence and
    quiescence pruning — the report stays byte-identical, with
    collapse stats and per-net observability scores attached to the
    result.  *fault_timeout*/*max_retries* bound each replay in
    wall-clock seconds with retry-then-quarantine semantics, and
    *journal*/*resume* checkpoint the campaign for crash-safe resume
    (see :func:`repro.fault.campaign.run_campaign`).  *tracer* (a
    :class:`repro.obs.Tracer`) profiles injector construction and the
    campaign (``repro inject --profile``).
    """
    from repro.obs.profiler import NULL_TRACER

    tracer = tracer or NULL_TRACER
    factory = functools.partial(expocu_injector, flow, hardening, side,
                                backend)
    with tracer.span("build_injector", flow=flow, backend=backend,
                     hardening=hardening):
        injector = factory()
    if stimulus is None:
        stimulus = expocu_stimulus(seed, frames=1, side=side)
    fault_list = generate_fault_list(injector, faults, len(stimulus), seed)
    return run_campaign(
        injector, stimulus, fault_list, expocu_config(hardening),
        design=f"ExpoCU[{side},{side}]", hardening=hardening, seed=seed,
        jobs=jobs, injector_factory=factory, collapse=collapse,
        tracer=tracer, fault_timeout=fault_timeout,
        max_retries=max_retries, journal=journal, resume=resume,
    )
