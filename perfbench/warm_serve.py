"""Workload ``warm-serve``: a real ``repro serve`` daemon over a warm store.

The daemon runs as a subprocess with two process workers over a store
warmed during set-up.  Two closed-loop client threads (one per core on
a 2-core host) each cycle through ``build`` osss, ``build`` vhdl,
``build`` both and ``analyze`` in a seeded order, with ``force=True``
so request coalescing never adds timing noise.  The work is store
reads, deserialization, HTTP and pool dispatch; there is no ``opt`` or
simulation work, so this workload catches per-request overhead and
daemon memory growth.  ``dse`` is left out: its warm path is the same
store replay, and warming it would cost about 30 s of set-up.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from common import (
    OUT, ROOT, BenchError, Result, Spans, median, peak_rss_mb_pid,
    program_env, tail,
)

#: The request mix, one entry per spec: (label, kind, params).
MIX = (
    ("build-osss", "build", {"flow": "osss"}),
    ("build-vhdl", "build", {"flow": "vhdl"}),
    ("build-both", "build", {"flow": "both"}),
    ("analyze", "analyze", {}),
)

CLIENTS = 2
WORKERS = 2

#: Requests a timed run needs for its p95 to have ten samples beyond it.
MIN_SAMPLES = 200
#: How far past ``--seconds`` a slow run may stretch to collect them.
MAX_STRETCH = 2.0


def work_dir(seed: int) -> Path:
    return OUT / f"work-warm-serve-{seed}"


def warm_store(work: Path) -> dict[str, str]:
    """Warm the store in-process; return the expected bytes per spec."""
    from repro.serve.jobs import make_spec, render_result, run_job
    from repro.store import ArtifactStore

    store = ArtifactStore(work / "store")
    run_job(make_spec("build", {"flow": "both"}), store=store)
    return {label: render_result(kind, run_job(make_spec(kind, params),
                                               store=store))
            for label, kind, params in MIX}


class Daemon:
    """One ``repro serve --socket`` subprocess, started and stopped."""

    def __init__(self, work: Path) -> None:
        from repro.serve import ServeClient

        # Relative to the checkout root, which is the cwd of both ends:
        # keeps the path inside the AF_UNIX length limit.
        self.socket = os.path.relpath(work / "serve.sock", ROOT)
        self.log = open(work / "serve.log", "ab")
        self.proc = subprocess.Popen(
            ["python3", "-m", "repro", "serve", "--socket", self.socket,
             "--cache-dir", os.path.relpath(work / "store", ROOT),
             "--workers", str(WORKERS)],
            cwd=ROOT, env=program_env(), stdout=self.log,
            stderr=subprocess.STDOUT)
        self.client = ServeClient(socket_path=self.socket, timeout=60.0)

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited with "
                                 f"{self.proc.returncode} during start-up")
            if os.path.exists(self.socket):
                try:
                    self.client.health()
                    return
                except OSError:
                    pass
            time.sleep(0.002)
        raise BenchError("repro serve did not become healthy in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_daemon(work: Path) -> tuple[Daemon, float]:
    """A healthy daemon over the store warmed beforehand, and its set-up
    time: from launch until ``/healthz`` answers."""
    start = time.perf_counter()
    daemon = Daemon(work)
    try:
        daemon.wait_healthy()
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


def restart_times(work: Path, count: int) -> list[float]:
    """Set-up times of *count* daemons, each stopped once healthy."""
    times = []
    for _ in range(count):
        daemon, took = start_daemon(work)
        daemon.stop()
        times.append(took)
    return times


def _order(seed: int, client: int):
    """Endless seeded sequence of mix entries, one shuffled round at a time."""
    rng = random.Random(f"warm-serve:{seed}:{client}")
    while True:
        entries = list(MIX)
        rng.shuffle(entries)
        yield from entries


@dataclass
class Sample:
    """One served request, timed on the client's monotonic clock."""

    client: int
    label: str
    job_id: str
    start: float
    submit_end: float
    end: float

    @property
    def latency(self) -> float:
        return self.end - self.start


def closed_loop(daemon: Daemon, seconds: float, seed: int,
                expected: dict[str, str], result: Result,
                spans: Spans | None = None,
                min_samples: int = 0) -> list[Sample]:
    """Two clients, each sending its next request when the last returns.

    Clients stop sending after *seconds*, or later if fewer than
    *min_samples* requests have completed by then (up to
    ``MAX_STRETCH`` times the window); with *min_samples* set, the
    daemon's peak RSS is recorded once that many have completed.  A
    refused or failed request counts as a failed op and yields no
    latency sample.
    """
    from repro.serve import ServeClient, ServeError

    samples: list[Sample] = []
    rss_at_min: list[float] = []
    lock = threading.Lock()
    start = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed < seconds or (len(samples) < min_samples
                                     and elapsed < MAX_STRETCH * seconds)

    def client_loop(client_no: int) -> None:
        client = ServeClient(socket_path=daemon.socket, timeout=60.0)
        order = _order(seed, client_no)
        k = 0
        while more():
            k += 1
            label, kind, params = next(order)
            if spans is not None:
                with spans.span("serve.health",
                                request=f"c{client_no}-{k}"):
                    client.health()
            sent = time.perf_counter()
            try:
                job = client.submit(kind, params, force=True)
                submit_end = time.perf_counter()
                text = client.result_text(job["id"], timeout_s=120.0)
            except ServeError as exc:
                with lock:
                    result.op(False, f"warm-serve {label}: {exc}")
                continue
            end = time.perf_counter()
            with lock:
                result.op(text == expected[label],
                          f"warm-serve {label}: served bytes differ from "
                          "render_result(run_job(...))")
                samples.append(Sample(client_no, label, job["id"], sent,
                                      submit_end, end))
                if len(samples) == min_samples:
                    rss_at_min.append(peak_rss_mb_pid(daemon.proc.pid))

    with ThreadPoolExecutor(CLIENTS) as pool:
        for future in [pool.submit(client_loop, c) for c in range(CLIENTS)]:
            future.result()
    if min_samples:
        # The daemon keeps every finished job, so its memory grows with
        # the requests served: read the peak after a fixed number of
        # them, which a slower or faster run reaches alike.
        peak = rss_at_min[0] if rss_at_min else \
            peak_rss_mb_pid(daemon.proc.pid)
        result.metric("peak_rss_mb", peak, "MB", samples=min_samples)
    return samples


def warm_up(daemon: Daemon, expected: dict[str, str],
            result: Result) -> None:
    """One untimed round of the mix from each client, run concurrently,
    so both pool workers have imported the flows before timing starts.
    """
    from repro.serve import ServeClient

    lock = threading.Lock()

    def one_round() -> None:
        client = ServeClient(socket_path=daemon.socket, timeout=60.0)
        for label, kind, params in MIX:
            text = client.run(kind, params, force=True, timeout_s=120.0)
            with lock:
                result.op(text == expected[label],
                          f"warm-serve warm-up {label}: bytes differ")

    with ThreadPoolExecutor(CLIENTS) as pool:
        for future in [pool.submit(one_round) for _ in range(CLIENTS)]:
            future.result()


def report_latency(result: Result, samples: list[Sample]) -> None:
    """Latency and throughput of the timed requests, in wall seconds.

    ``latency_p50_s`` is the mean over the four request kinds of each
    kind's median latency.  The mix is half fast requests (``build``
    osss/vhdl) and half ones about twice as slow (``build`` both,
    ``analyze``), so the pooled median falls in the gap between the two
    groups and jumps with how many of each a run happened to serve; it
    is printed as ``serve_p50_s``.
    """
    latencies = [s.latency for s in samples]
    n = len(latencies)
    pct, value = tail(latencies)
    window = max(s.end for s in samples) - min(s.start for s in samples)
    per_kind = []
    for label, _, _ in MIX:
        values = [s.latency for s in samples if s.label == label]
        per_kind.append(median(values))
        result.metric(f"serve_p50_{label}_s", per_kind[-1], "s",
                      samples=len(values))
    result.metric("latency_p50_s", sum(per_kind) / len(per_kind), "s",
                  samples=n)
    result.metric("latency_tail_s", value, "s", samples=n)
    result.metric("throughput_per_s", n / window, "1/s", samples=n)
    result.metric("serve_p50_s", median(latencies), "s", samples=n)
    result.metric(f"serve_p{pct}_s", value, "s", samples=n)
    result.metric("serve_jobs_per_s", n / window, "1/s", samples=n)
    if pct != 95:
        result.note(f"{n} samples: the tail is p{pct}, not p95")


def serve_counters(daemon: Daemon) -> dict[str, int]:
    return daemon.client.stats()["counters"]


def timed(result: Result, seconds: float, seed: int, before: int,
          after: int) -> None:
    """The closed loop for *seconds*; ``setup_s`` is the median of
    *before* daemon starts (the last one serves the loop) and *after*
    more once it has stopped."""
    work = work_dir(seed)
    expected = warm_store(work)
    times = restart_times(work, before - 1)
    daemon, took = start_daemon(work)
    times.append(took)
    try:
        warm_up(daemon, expected, result)
        samples = closed_loop(daemon, seconds, seed, expected, result,
                              min_samples=MIN_SAMPLES)
        counters = serve_counters(daemon)
    finally:
        daemon.stop()
    times += restart_times(work, after)
    result.metric("setup_s", median(times), "s", samples=len(times))
    report_latency(result, samples)
    result.check(counters["failed"] == 0,
                 f"daemon counted failed jobs: {counters}")


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _job_spans(spans: Spans, daemon: Daemon, sample: Sample,
               offset: float) -> int:
    """The request's root span with its four consecutive phases.

    Queue wait and run come from the public ``GET /jobs/<id>``
    timestamps (wall clock, converted with *offset*); the request is
    submit → queue wait → run → respond, where respond is the time from
    the job finishing until its result bytes reached the client.
    """
    doc = daemon.client.job(sample.job_id)
    started = doc["started_at"] - offset
    finished = doc["finished_at"] - offset
    request = f"c{sample.client}-{sample.job_id}"
    root = spans.add("serve.request", sample.start, sample.end, None,
                     request)
    spans.add("serve.submit", sample.start, sample.submit_end, root, request)
    spans.add("serve.queue_wait", sample.submit_end, started, root, request)
    spans.add("serve.run", max(started, sample.submit_end), finished, root,
              request)
    spans.add("serve.respond", max(finished, sample.submit_end), sample.end,
              root, request)
    return root


LAYERS = ("serve.submit", "serve.queue_wait", "serve.run", "serve.respond")


def traced(result: Result, spans: Spans, seconds: float, seed: int) -> None:
    """Half the window untraced, half traced; per-phase medians."""
    from repro.serve.jobs import make_spec, render_result, run_job
    from repro.store import ArtifactStore

    work = work_dir(seed)
    expected = warm_store(work)
    store = ArtifactStore(work / "store")
    warm_runs = []
    for label, kind, params in MIX * 3:
        start = time.perf_counter()
        text = render_result(kind, run_job(make_spec(kind, params),
                                           store=store))
        warm_runs.append(time.perf_counter() - start)
        result.op(text == expected[label],
                  f"in-process warm {label}: bytes differ")
    result.metric("jobs.run_job_warm_s", median(warm_runs), "s",
                  samples=len(warm_runs))

    daemon, _ = start_daemon(work)
    try:
        warm_up(daemon, expected, result)
        untraced = closed_loop(daemon, seconds / 2, seed, expected, result)
        offset = time.time() - time.perf_counter()
        sampled = closed_loop(daemon, seconds / 2, seed, expected, result,
                              spans)
        roots = [_job_spans(spans, daemon, s, offset) for s in sampled]
        counters = serve_counters(daemon)
    finally:
        daemon.stop()

    def phase(name: str) -> float:
        return median([spans.self_times(root).get(name, 0.0)
                       for root in roots])

    health = [spans.duration(k) for k, record in enumerate(spans.records)
              if record[0] == "serve.health"]
    result.metric("serve.health_rtt_s", median(health), "s",
                  samples=len(health))
    for name in LAYERS:
        result.metric(f"{name}_s", phase(name), "s", samples=len(roots))
    result.metric("serve.failed", counters["failed"], "count")
    result.metric("serve.deduped", counters["deduped"], "count")
    uncovered = median([spans.uncovered_share(root, LAYERS)
                        for root in roots])
    result.metric("trace.uncovered_share", uncovered, "ratio")
    result.metric("trace.overhead_s",
                  median([s.latency for s in sampled])
                  - median([s.latency for s in untraced]), "s")
    result.check(uncovered < 0.5,
                 f"warm-serve spans cover too little: {uncovered}")
    result.check(counters["failed"] == 0,
                 f"daemon counted failed jobs: {counters}")


def cleanup(seed: int) -> None:
    shutil.rmtree(work_dir(seed), ignore_errors=True)
