"""X — bit-parallel (PPSFP) fault simulation: lanes over scalar replay.

Not a paper experiment: it quantifies the third scaling lever of the
fault-campaign engine.  The ``bitparallel`` backend packs up to 64
gate faults of any kind into the bit-lanes of word-wide Python integers
and classifies a whole batch per replay; on the bundled ExpoCU netlist
it must beat the scalar compiled evaluator by at least 4x on campaign
wall-clock, while producing a byte-identical report — the oracle
contract every backend is held to.  Two fault lists are gated:

- stuck-at only (measured ~6x; the drain phase of hang-prone faults is
  what keeps it from the ~10x lane bound);
- transient only, SEUs and one-cycle flips (measured ~10x).

Injector construction (synthesis + technology mapping + codegen) happens
outside the timers: the campaign replay loop is what scales with fault
count, so that is what gets measured.
"""

import functools
import time

from conftest import record_report

from repro.eval import format_table
from repro.fault.campaign import generate_fault_list, run_campaign
from repro.fault.scenarios import (
    expocu_config,
    expocu_injector,
    expocu_stimulus,
)

FAULTS = 120
SEED = 1
SIDE = 8


def _campaign(injector, stimulus, faults):
    return run_campaign(
        injector, stimulus, faults, expocu_config("none"),
        design=f"ExpoCU[{SIDE},{SIDE}]", hardening="none", seed=SEED,
    )


def _compare(kinds, report):
    """Time one fault list of *kinds* on compiled and bitparallel."""
    stimulus = expocu_stimulus(SEED, frames=1, side=SIDE)
    compiled_injector = expocu_injector("netlist", backend="compiled",
                                        side=SIDE)
    wide_injector = expocu_injector("netlist", backend="bitparallel",
                                    side=SIDE)
    faults = generate_fault_list(
        compiled_injector, FAULTS, len(stimulus), SEED, kinds=kinds,
    )

    start = time.perf_counter()
    compiled_result = _campaign(compiled_injector, stimulus, faults)
    t_compiled = time.perf_counter() - start

    start = time.perf_counter()
    wide_result = _campaign(wide_injector, stimulus, faults)
    t_wide = time.perf_counter() - start

    # Oracle contract first: speed means nothing if the bytes drift.
    assert wide_result.to_json() == compiled_result.to_json()
    assert compiled_result.golden_selfcheck == "masked"
    assert wide_result.exec_stats["lane_batches"] > 0
    assert wide_result.exec_stats["lane_faults"] == \
        wide_result.exec_stats["simulated"]

    speedup = t_compiled / t_wide
    assert speedup >= 4.0, (
        f"bitparallel evaluator only {speedup:.2f}x over compiled "
        f"({t_wide:.2f}s vs {t_compiled:.2f}s)"
    )

    rows = [
        {"configuration": "compiled, scalar replay",
         "campaign_s": f"{t_compiled:.2f}", "speedup": "1.00x"},
        {"configuration": "bitparallel, lane-packed (byte-identical)",
         "campaign_s": f"{t_wide:.2f}",
         "speedup": f"{speedup:.2f}x"},
    ]
    record_report(report, format_table(rows))


def test_bitparallel_speedup_and_byte_identity():
    _compare(("sa0", "sa1"), "X_bitparallel")


def test_bitparallel_transient_speedup_and_byte_identity():
    _compare(("seu", "flip"), "X_bitparallel_transient")
