"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json`` with tracing off; ``--trace 1`` is a separate run
that times each layer around its public functions and writes the spans
to ``perfbench/out/trace-<workload>-seed<n>.json`` (``repro-trace/v1``).
Every op's output is checked.  The last line of stdout is the result::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

Human-readable metrics (including the workload-specific names such as
``build_cold_s`` or ``faults_per_s``) are printed above it, and every
run leaves a record with host facts and sample counts in
``perfbench/out/``.  Outside a checkout with the program sources the
command fails without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT, ROOT, HostSpeed, Result, Spans, median, peak_rss_mb_self,
    setup_times,
)

WORKLOADS = ("cold-build", "mixed-campaign", "warm-serve")

#: Set-up is timed this many times per run, SETUP_BEFORE of them
#: before the timed window and the rest after it; setup_s is the
#: median.  The host slows down in bursts of a few seconds, and samples
#: taken at two times far apart rarely all fall into one burst.
SETUP_REPEATS = 9
SETUP_BEFORE = SETUP_REPEATS // 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_with_setup(result: Result, code: str, timed) -> None:
    """``timed(speed)`` between the two batches of set-up samples.

    Every timing is scaled to reference seconds by *speed* (see
    ``HostSpeed``).
    """
    speed = HostSpeed()
    times = setup_times(code, SETUP_BEFORE, speed)
    timed(speed)
    times += setup_times(code, SETUP_REPEATS - SETUP_BEFORE, speed)
    result.metric("setup_s", median(times), "s", samples=len(times))
    result.metric("host.speed", speed.median_speed(), "ratio",
                  samples=len(speed.probes) + len(speed.blocks))


def run_workload(args: argparse.Namespace, result: Result,
                 spans: Spans | None) -> None:
    import cold_build
    import mixed_campaign
    import warm_serve

    if args.workload == "cold-build":
        work = cold_build.work_dir(args.seed)
        try:
            if spans is None:
                timed_with_setup(
                    result, cold_build.SETUP_CODE,
                    lambda speed: cold_build.timed(result, args.seconds,
                                                   work, speed))
            else:
                cold_build.traced(result, spans, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result.metric("peak_rss_mb", peak_rss_mb_self(), "MB")
    elif args.workload == "mixed-campaign":
        if spans is None:
            timed_with_setup(
                result, mixed_campaign.SETUP_CODE,
                lambda speed: mixed_campaign.timed(result, args.seconds,
                                                   args.seed, speed))
        else:
            mixed_campaign.traced(result, spans, args.seed)
        result.metric("peak_rss_mb", peak_rss_mb_self(), "MB")
    else:
        try:
            if spans is None:
                warm_serve.timed(result, args.seconds, args.seed,
                                 SETUP_BEFORE, SETUP_REPEATS - SETUP_BEFORE)
            else:
                warm_serve.traced(result, spans, args.seconds, args.seed)
        finally:
            warm_serve.cleanup(args.seed)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: error: no program sources at src/repro; run "
              "from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = Result(args.workload, args.seed, bool(args.trace))
    spans = Spans() if args.trace else None
    run_workload(args, result, spans)
    result.metric("error_rate", result.failed / result.attempted, "ratio",
                  samples=result.attempted)
    record = {"seconds": args.seconds}
    if spans is None:
        names = [m["name"] for m in bench["end_to_end"]]
    else:
        names = [m["name"] for m in bench["per_layer"]]
        # A layer this workload's traced run does not exercise reads 0.
        for metric in bench["per_layer"]:
            if metric["name"] not in result.metrics:
                result.metric(metric["name"], 0, metric["unit"])
        doc = spans.trace_doc(f"perfbench {args.workload}",
                              {"workload": args.workload, "seed": args.seed})
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        record["trace_file"] = str(path.relative_to(ROOT))
        record["trace_spans"] = len(spans.records)
    return result.finish(names, record)


if __name__ == "__main__":
    sys.exit(main())
