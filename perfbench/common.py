"""Shared plumbing for the benchmark: spans, statistics, run records.

Spans are recorded here, from the benchmark's own code, around calls
into the program's public functions; the program itself is not
instrumented.  Each span is ``(name, start, end, parent, request)``,
kept in memory and exported once at the end in the program's own
``repro-trace/v1`` shape, checked with :func:`repro.obs.validate_trace`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: Repository root of the checkout the benchmark runs in (the cwd).
ROOT = Path.cwd()
#: Everything a run leaves behind (ignored by git).
OUT = ROOT / "perfbench" / "out"
#: Committed expected outputs.
EXPECTED = Path(__file__).resolve().parent / "expected"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken set-up)."""


def program_env() -> dict[str, str]:
    """Environment for subprocesses that run the program from source."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """Thread-safe in-memory span recorder.

    Each thread keeps its own stack of open spans, so the two serve
    client threads nest their spans independently; a span opened
    without a request id inherits its parent's.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: ``[name, start, end, parent_index, request]`` per span.
        self.records: list[list[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: parent index -> child indices, rebuilt when spans were added.
        self._children: dict[int | None, list[int]] | None = None
        self._indexed = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: list[Any]) -> int:
        with self._lock:
            self.records.append(record)
            return len(self.records) - 1

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.records[parent][4]
        record = [name, time.perf_counter(), None, parent, request]
        index = self._append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span named *name*."""
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, start: float, end: float, parent: int,
            request: str | None = None) -> int:
        """A span measured elsewhere (e.g. from server timestamps)."""
        return self._append([name, start, max(start, end), parent,
                             request])

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.records[index]
        return end - start

    def children(self, index: int) -> list[int]:
        if self._children is None or self._indexed != len(self.records):
            self._children = {}
            for k, record in enumerate(self.records):
                self._children.setdefault(record[3], []).append(k)
            self._indexed = len(self.records)
        return self._children.get(index, [])

    def self_time(self, index: int) -> float:
        """Duration minus the time its children cover."""
        covered = sum(self.duration(k) for k in self.children(index))
        return max(0.0, self.duration(index) - covered)

    def self_times(self, root: int) -> dict[str, float]:
        """Per-name self time summed over the subtree under *root*."""
        totals: dict[str, float] = {}
        pending = list(self.children(root))
        while pending:
            index = pending.pop()
            name = self.records[index][0]
            totals[name] = totals.get(name, 0.0) + self.self_time(index)
            pending.extend(self.children(index))
        return totals

    def uncovered_share(self, root: int, layers) -> float:
        """Share of *root*'s wall time no span named in *layers* covers."""
        totals = self.self_times(root)
        covered = sum(totals.get(name, 0.0) for name in layers)
        return max(0.0, 1.0 - covered / self.duration(root))

    def trace_doc(self, name: str, meta: dict[str, Any]) -> dict[str, Any]:
        """The spans as a validated ``repro-trace/v1`` document."""
        from repro.obs import validate_trace

        nodes: list[dict[str, Any]] = []
        roots: list[dict[str, Any]] = []
        for record in self.records:
            span_name, start, end, parent, request = record
            node = {
                "name": span_name,
                "t0_s": round(start - self.epoch, 9),
                "dur_s": round(end - start, 9),
                "meta": {} if request is None else {"request": request},
                "children": [],
            }
            nodes.append(node)
            (roots if parent is None
             else nodes[parent]["children"]).append(node)
        doc = {
            "schema": "repro-trace/v1",
            "name": name,
            "total_s": round(sum(n["dur_s"] for n in roots), 9),
            "meta": meta,
            "spans": roots,
        }
        return validate_trace(doc)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[int, float]:
    """The highest of p95/p90/p75 with at least ten samples beyond it.

    Falls back to the median (p50) when a run has fewer than 40
    samples: no higher percentile is then backed by ten samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            rank = max(1, -(-n * pct // 100))  # nearest rank
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def keep_going(start: float, seconds: float, op_times: list[float]) -> bool:
    """Whether to start another op in a window of *seconds*.

    Another op starts while at least half of a typical op still fits,
    so a run holds the whole number of ops nearest to the window (at
    least one), and op times near a multiple of the window do not flip
    the op count.
    """
    if not op_times:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + median(op_times) / 2 < seconds


def peak_rss_mb_self() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """High-water resident set of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def setup_times(code: str, count: int, speed: HostSpeed) -> list[float]:
    """Reference-scaled times of *count* fresh interpreters running
    *code*, between two reference blocks.

    No timeout: with one, ``subprocess`` polls for the exit in sleeps
    of up to 50 ms, which would quantize the measurement.
    """
    spans = []
    speed.sample()
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(["python3", "-c", code], cwd=ROOT, env=program_env(),
                       check=True, stdout=subprocess.DEVNULL)
        spans.append((start, time.perf_counter()))
    speed.sample()
    return [speed.seconds(start, end) for start, end in spans]


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: What one round of reference work takes on a 2.1 GHz core running at
#: full speed; every scaled timing is in these reference seconds.
REF_ROUND_S = 0.0043
#: Rounds in a reference block, run between set-up samples.
BLOCK_ROUNDS = 140
#: Rounds in a probe, run during an op.
PROBE_ROUNDS = 4
#: CPU seconds of the benchmark process between two probes.
PROBE_EVERY_S = 0.5


class _Cell:
    __slots__ = ("name", "kind", "ins", "out")

    def __init__(self, name: str, kind: str, ins: tuple[int, int],
                 out: int) -> None:
        self.name = name
        self.kind = kind
        self.ins = ins
        self.out = out


def _reference_work(rounds: int) -> int:
    """Fixed pure-Python work of the kinds the program does: arithmetic,
    dict/set/list churn, small objects, sorting, tuple hashing."""
    total = 0
    for _ in range(rounds):
        for i in range(20000):
            total += i * i % 7
        table = {str(i): (i, [i, i + 1]) for i in range(3000)}
        total += len(sorted(table.items(), key=lambda kv: kv[1][0] % 97))
        cells = [_Cell(f"c{i}", ("AND", "OR", "INV")[i % 3], (i - 1, i - 2),
                       i) for i in range(2000)]
        fanout: dict[int, set[str]] = {}
        for cell in cells:
            for net in cell.ins:
                fanout.setdefault(net, set()).add(cell.name)
        kept = [c for c in cells if c.kind != "INV" or fanout.get(c.out)]
        total += len(kept) + (hash(tuple((c.kind, c.ins) for c in kept)) & 1)
    return total


def _timed_reference(rounds: int) -> tuple[float, float, float]:
    """``(start, end, speed)`` of *rounds* of reference work run with the
    garbage collector off; speed is 1.0 at ``REF_ROUND_S`` a round."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work(rounds)
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return start, end, rounds * REF_ROUND_S / (end - start)


class HostSpeed:
    """The host's speed, sampled with fixed reference work.

    On a shared host the core itself runs slower or faster by up to
    ~2x, over seconds to minutes (process CPU time tracks wall time, so
    it is not the scheduler), which no statistic over one run removes.
    So timings are reported in reference seconds: wall seconds times
    the speed the reference work ran at, meanwhile, relative to
    ``REF_ROUND_S`` a round.

    - An op in this process is probed while it runs: every
      ``PROBE_EVERY_S`` of CPU time a ``SIGPROF`` handler runs a short
      probe of reference work.  The op's time is its wall time minus
      the probes', times the probes' mean speed.
    - A set-up sample runs in a child process, so it is scaled by the
      mean speed of the reference blocks run just before and just
      after its batch.

    The reference work is the benchmark's own code and runs with the
    garbage collector off, so it does not change when the program does:
    a program change moves a scaled time by the same share as the wall
    time.
    """

    def __init__(self) -> None:
        #: ``(start, end, speed)`` of each reference block and probe.
        self.blocks: list[tuple[float, float, float]] = []
        self.probes: list[tuple[float, float, float]] = []
        # The first reference work in a process also grows the
        # allocator's arenas; it is run once untimed.
        _reference_work(1)

    def sample(self) -> None:
        """Run one reference block."""
        self.blocks.append(_timed_reference(BLOCK_ROUNDS))

    def seconds(self, start: float, end: float) -> float:
        """``[start, end]``, run between two blocks, in reference seconds."""
        before = [speed for s, e, speed in self.blocks if e <= start]
        after = [speed for s, e, speed in self.blocks if s >= end]
        if not before or not after:
            raise BenchError("a timing lacks a reference block on each side")
        return (end - start) * (before[-1] + after[0]) / 2

    @contextlib.contextmanager
    def probing(self) -> Iterator[None]:
        """Probe the host's speed while the body runs."""
        def probe(signum, frame) -> None:
            self.probes.append(_timed_reference(PROBE_ROUNDS))

        previous = signal.signal(signal.SIGPROF, probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def probed_speed(self, start: float, end: float) -> float:
        """Mean speed of the probes run within ``[start, end]``; if none
        ran there, that of the probe nearest to it."""
        inside = [speed for s, e, speed in self.probes
                  if s >= start and e <= end]
        if inside:
            return sum(inside) / len(inside)
        if not self.probes:
            raise BenchError("no probe ran while the ops were timed")
        middle = (start + end) / 2
        return min(self.probes, key=lambda p: abs(p[0] - middle))[2]

    def busy(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` minus the probes run within it."""
        probed = sum(e - s for s, e, _ in self.probes
                     if s >= start and e <= end)
        return end - start - probed

    def op_seconds(self, start: float, end: float) -> float:
        """A probed op ``[start, end]`` in reference seconds."""
        return self.busy(start, end) * self.probed_speed(start, end)

    def median_speed(self) -> float:
        """Median speed of the run's probes and blocks, for the report."""
        return median([speed for _, _, speed in self.probes + self.blocks])


# ----------------------------------------------------------------------
# run facts and the result line
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program sources: the revision when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_facts(seed: int) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


class Result:
    """What one benchmark run reports: checks, metrics, sample counts."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []
        self.metrics: dict[str, dict[str, Any]] = {}
        self.samples: dict[str, int] = {}
        self.notes: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        """Count one op; a failed output check counts as a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A benchmark self-check; failing one makes the run incorrect."""
        if not ok:
            self.checks.append(what)

    def metric(self, name: str, value: float, unit: str,
               samples: int | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def note(self, text: str) -> None:
        self.notes.append(text)
        print(f"# {text}", file=sys.stderr)

    def finish(self, names: list[str], record: dict[str, Any]) -> int:
        """Print the report and the result line; write the run record."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
        metrics = {name: self.metrics[name] for name in names}
        correct = not self.checks and self.failed == 0
        doc = {
            **record,
            "workload": self.workload,
            "trace": self.trace,
            "host": host_facts(self.seed),
            "samples": self.samples,
            "notes": self.notes,
            "failed_checks": self.checks,
            "metrics": self.metrics,
        }
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / (f"{self.workload}-seed{self.seed}"
                      f"-trace{int(self.trace)}.json")
        path.write_text(json.dumps(doc, indent=2) + "\n")
        for name, metric in self.metrics.items():
            count = self.samples.get(name)
            extra = f"  (n={count})" if count is not None else ""
            print(f"{name:28s} {metric['value']:.6g} {metric['unit']}{extra}")
        for what in self.checks:
            print(f"CHECK FAILED: {what}")
        print(f"record: {path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
        return 0
