"""Regenerate the committed expected outputs under perfbench/expected/.

Run from the repository root (takes tens of minutes)::

    python3 perfbench/make_expected.py build
    python3 perfbench/make_expected.py campaigns

``build`` writes ``build_both.json``: ``repro build --json`` bytes for
flow=both, computed without a store.

``campaigns`` writes ``campaigns.json``, the mixed-campaign pool:

1. Scan campaign seeds ``1..SCAN-1`` for fault lists (128 faults, the
   default gate mix) holding exactly 64 stuck-ats: one full lane batch.
2. Run each candidate split by fault kind (the traced op) and count
   the simulated cycles of the stuck-at batch and of the transients.
3. Keep the candidates whose two counts lie within 2% and 3% of the
   candidates' medians, so every op simulates about the same number of
   cycles and the seed changes which faults run, not how much work
   that is; take the first ``POOL`` of them.
4. For each pool seed, render the report with the event backend (the
   oracle) and store its SHA-256 and outcome tallies.  The split run's
   merged bit-parallel report must match it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import EXPECTED, OUT, ROOT, Spans  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

#: Worker processes for the campaign runs, one per core of a 2-core host.
PROCESSES = 2

#: Campaign seeds ``1..SCAN-1`` are scanned for pool candidates.
SCAN = 400

#: Number of campaign seeds in the committed pool.
POOL = 8


def make_build() -> None:
    from repro.serve.jobs import make_spec, render_result, run_job

    text = render_result("build", run_job(make_spec("build",
                                                    {"flow": "both"})))
    (EXPECTED / "build_both.json").write_text(text)


def _shape(seed: int) -> tuple[int, dict, str]:
    """The traced (split) op's exact counts and report digest."""
    import mixed_campaign as mc

    _, counts, text = mc._traced_op(Spans(), seed, 0)
    return seed, counts, mc.digest(text)


def _oracle(seed: int) -> tuple[int, str, dict, float]:
    """The event-backend report's digest, cached under perfbench/out/."""
    import mixed_campaign as mc

    cache = OUT / "make_expected" / f"oracle-{seed}.json"
    if cache.exists():
        doc = json.loads(cache.read_text())
        return seed, doc["sha256"], doc["outcomes"], 0.0
    start = time.perf_counter()
    text = mc.oracle_report(seed)
    doc = {"sha256": mc.digest(text), "outcomes": json.loads(text)["outcomes"]}
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(doc))
    return seed, doc["sha256"], doc["outcomes"], time.perf_counter() - start


def make_campaigns() -> None:
    import mixed_campaign as mc
    from repro.fault import expocu_injector, expocu_stimulus
    from repro.fault import generate_fault_list

    injector = expocu_injector("netlist", "none", 8, "bitparallel")
    candidates = []
    for seed in range(1, SCAN):
        stimulus = expocu_stimulus(seed, frames=1, side=8)
        faults = generate_fault_list(injector, mc.FAULTS, len(stimulus), seed)
        if sum(f.kind in mc.STUCK for f in faults) == mc.FAULTS // 2:
            candidates.append(seed)
    print(f"{len(candidates)} candidate seeds: {candidates}", flush=True)

    context = multiprocessing.get_context("spawn")
    with context.Pool(PROCESSES) as pool:
        shapes = {}
        for seed, counts, split_digest in pool.imap(_shape, candidates):
            shapes[seed] = (counts, split_digest)
            print(seed, counts["stuck_steps"], counts["transient_steps"],
                  flush=True)
        med_stuck = statistics.median(c["stuck_steps"]
                                      for c, _ in shapes.values())
        med_trans = statistics.median(c["transient_steps"]
                                      for c, _ in shapes.values())
        chosen = [
            seed for seed in candidates
            if abs(shapes[seed][0]["stuck_steps"] - med_stuck)
            <= 0.02 * med_stuck
            and abs(shapes[seed][0]["transient_steps"] - med_trans)
            <= 0.03 * med_trans][:POOL]
        print(f"pool: {chosen}", flush=True)

        reports = {}
        for seed, sha, outcomes, took in pool.imap(_oracle, chosen):
            counts, split_digest = shapes[seed]
            if sha != split_digest:
                raise SystemExit(f"seed {seed}: bit-parallel split report "
                                 "differs from the event-backend oracle")
            reports[str(seed)] = {
                "sha256": sha,
                "outcomes": outcomes,
                "stuck_steps": counts["stuck_steps"],
                "transient_steps": counts["transient_steps"],
            }
            print(seed, f"oracle {took:.1f}s", flush=True)

    (EXPECTED / "campaigns.json").write_text(json.dumps({
        "faults": mc.FAULTS,
        "how": ("python3 perfbench/make_expected.py campaigns "
                f"(seeds 1..{SCAN - 1} scanned, pool of {POOL}): "
                "event-backend 'inject' job reports, netlist flow"),
        "candidates": len(candidates),
        "median_stuck_steps": med_stuck,
        "median_transient_steps": med_trans,
        "pool": chosen,
        "reports": reports,
    }, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("build", "campaigns"))
    args = parser.parse_args()
    if args.what == "build":
        make_build()
    else:
        make_campaigns()
    return 0


if __name__ == "__main__":
    sys.exit(main())
