"""Supervision overhead: the resilient pool vs the bare shard engine.

Not a paper experiment: it prices the supervision machinery.  The
pre-supervision engine — ``multiprocessing.Pool`` over static shards,
defined below as :func:`_mp_context`/:func:`_run_shard` because nothing
in the product runs it any more — loses a whole shard on any worker
crash; the supervised pool behind :func:`repro.fault.run_campaign`
survives crashes, enforces deadlines and journals checkpoints.  All of
that must cost at most 10% extra wall-clock on a crash-free campaign —
measured here on the bundled ExpoCU compiled-netlist scenario — and the
two engines' reports must stay byte-identical.

Both engines pay the same dominant costs (per-worker golden run, fault
replays); supervision adds only pipe traffic and bookkeeping, so the
margin holds with room to spare.  Three timed rounds each, best-of
compared, to keep scheduler noise out of a ratio assertion.
"""

import functools
import multiprocessing
import time

from conftest import record_report

from repro.eval import format_table
from repro.fault.campaign import (
    _classify,
    _golden_run,
    generate_fault_list,
    run_campaign,
)
from repro.fault.scenarios import (
    expocu_config,
    expocu_injector,
    expocu_stimulus,
)

FAULTS = 10
SEED = 1
SIDE = 8
JOBS = 2
ROUNDS = 3
MAX_OVERHEAD = 0.10


def _run_shard(payload: tuple) -> list:
    """Baseline worker: rebuild the injector, rerun the golden run,
    classify one static shard (module-level so ``Pool.map`` pickles it).
    """
    injector_factory, stimulus, faults, config = payload
    injector = injector_factory()
    snap_cycles = {fault.cycle for fault in faults} | {0}
    golden = _golden_run(injector, stimulus, config, snap_cycles)
    return [_classify(injector, fault, stimulus, golden, config)
            for fault in faults]


def _mp_context():
    """Fork where available (cheap, inherits sys.path), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _baseline_pool(factory, stimulus, faults, config):
    """The PR-3 engine: static shards on a bare multiprocessing.Pool."""
    # Same stimulus normalization run_campaign applies before sharding.
    stimulus = [{config.reset_name: 0, **dict(entry)}
                for entry in stimulus]
    shards = [faults[k::JOBS] for k in range(JOBS)]
    payloads = [(factory, stimulus, shard, config)
                for shard in shards if shard]
    with _mp_context().Pool(processes=len(payloads)) as pool:
        outputs = pool.map(_run_shard, payloads)
    merged = {}
    for shard, output in zip((s for s in shards if s), outputs):
        for fault, record in zip(shard, output):
            merged[fault] = record
    return [merged[fault] for fault in faults]


def test_supervision_overhead_within_10_percent():
    stimulus = expocu_stimulus(SEED, frames=1, side=SIDE)
    config = expocu_config("none")
    factory = functools.partial(
        expocu_injector, "netlist", "none", SIDE, "compiled"
    )
    faults = generate_fault_list(factory(), FAULTS, len(stimulus), SEED)

    def supervised():
        return run_campaign(
            None, stimulus, faults, config,
            design=f"ExpoCU[{SIDE},{SIDE}]", hardening="none", seed=SEED,
            jobs=JOBS, injector_factory=factory,
        )

    t_baseline = min(_timed(lambda: _baseline_pool(
        factory, stimulus, faults, config)) for _ in range(ROUNDS))
    best_supervised = None
    t_supervised = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = supervised()
        elapsed = time.perf_counter() - start
        if elapsed < t_supervised:
            t_supervised, best_supervised = elapsed, result

    # Same records in the same order: supervision never changes results.
    baseline_records = _baseline_pool(factory, stimulus, faults, config)
    assert ([r.as_dict() for r in best_supervised.records]
            == [r.as_dict() for r in baseline_records])
    assert best_supervised.exec_stats["crashes"] == 0

    overhead = t_supervised / t_baseline - 1.0
    assert overhead <= MAX_OVERHEAD, (
        f"supervised pool {overhead:+.1%} vs bare pool "
        f"({t_supervised:.2f}s vs {t_baseline:.2f}s) exceeds "
        f"{MAX_OVERHEAD:.0%}"
    )

    rows = [
        {"engine": f"bare Pool, jobs={JOBS}",
         "campaign_s": f"{t_baseline:.2f}", "overhead": "—"},
        {"engine": f"supervised, jobs={JOBS}",
         "campaign_s": f"{t_supervised:.2f}",
         "overhead": f"{overhead:+.1%}"},
    ]
    record_report("X_resilience_overhead", format_table(rows))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
