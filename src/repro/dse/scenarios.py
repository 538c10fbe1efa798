"""The bundled exploration scenario: ExpoCU design spaces.

What ``repro dse`` explores out of the box: the paper's exposure
control unit swept over its template specializations (I²C clock
divider, histogram counter width), the shared-multiplier arbitration
policy (the ``SCHEDULER`` template parameter) and the netlist hardening
pass.  Two sizes are bundled:

``tiny``
    divider × hardening — 4 points; the CI smoke / benchmark space.
``full``
    divider × count-bits × scheduler × hardening — 24 points; the
    acceptance space whose Pareto front is oracle-checked in
    ``tests/dse/test_expocu_acceptance.py``.

Both use a small (``side``×``side``) frame geometry: the architecture
under exploration is identical to the demo's, while keeping a cold
24-point factorial in CI territory.
"""

from __future__ import annotations

from repro.fault.scenarios import expocu_config, expocu_stimulus
from repro.hdl import NS, Clock, Signal
from repro.types import Bit
from repro.types.spec import bit

from repro.dse.evaluate import CampaignSpec
from repro.dse.pareto import DseError
from repro.dse.space import Axis, DesignSpace


def _expocu_factory(side: int):
    def build(i2c_divider: int = 2, count_bits: int = 8,
              scheduler: str = "round_robin"):
        from repro.expocu import ExpoCU

        spec = ExpoCU[side, side, 128, i2c_divider, count_bits, scheduler]
        return spec("expocu", Clock("clk", 10 * NS),
                    Signal("rst", bit(), Bit(1)))

    return build


def expocu_space(size: str = "tiny", side: int = 4) -> DesignSpace:
    """The bundled ExpoCU design space (``"tiny"`` or ``"full"``)."""
    if side < 1 or side & (side - 1):
        raise DseError(f"side must be a power of two >= 1, got {side}")
    if size == "tiny":
        axes = [
            Axis("i2c_divider", [2, 4]),
            Axis("hardening", ["none", "parity"], role="hardening"),
        ]
    elif size == "full":
        axes = [
            Axis("i2c_divider", [2, 4]),
            Axis("count_bits", [8, 12]),
            Axis("scheduler", ["round_robin", "fcfs"]),
            Axis("hardening", ["none", "tmr", "parity"], role="hardening"),
        ]
    else:
        raise DseError(f"unknown space size {size!r} "
                       f"(expected 'tiny' or 'full')")
    return DesignSpace(f"expocu-{size}", _expocu_factory(side), axes)


def expocu_campaign_spec(side: int = 4, faults: int = 24, seed: int = 2004,
                         backend: str = "bitparallel") -> CampaignSpec:
    """The campaign every ExpoCU point runs: one frame, seeded faults.

    The configuration always lists ``parity_err`` as a detect signal —
    the evaluator filters it out on points whose hardening does not add
    the parity guard, so one spec (and one cache fingerprint family)
    serves the whole hardening axis.
    """
    return CampaignSpec(
        stimulus=expocu_stimulus(seed, frames=1, side=side),
        config=expocu_config("parity"),
        n_faults=faults,
        seed=seed,
        backend=backend,
    )
