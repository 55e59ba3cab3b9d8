"""Shared plumbing of the benchmark: children, statistics, gates, output.

Nothing here imports ``repro`` at module level (see the package
docstring); functions that need it import it when called.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: The four runnable report designs, by canonical name.
REPORT_DESIGNS: tuple[str, ...] = ("delay-line", "modulator1", "modulator2", "chopper")

#: Manifest metrics that are host timings, never compared for equality.
TIMING_METRICS = frozenset({"wall_s", "samples_per_s"})

#: Entries the report-cli and service-mix ledgers start with.  At this
#: size one fresh-process ``RunLedger.append`` costs ~0.2 s on a 2-CPU
#: box, the history cost every report and executed job pays.
SEEDED_LEDGER_ENTRIES = 3000

#: Engine labels of the ``repro.engine.runs`` counter.
ENGINE_LABELS: tuple[str, ...] = ("kernel", "batch", "single", "scalar")


#: Seconds one speed probe takes on the reference host (2 vCPUs,
#: Python 3.11, NumPy 2.4, no other load); see :func:`host_speed`.
PROBE_REFERENCE_S = 0.0066

T = TypeVar("T")


class CheckoutError(RuntimeError):
    """The directory holds the benchmark but not the program it measures."""


def ensure_import_path() -> None:
    """Make ``repro`` importable from this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro package under {SRC}")
    for entry in (str(SRC), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


@contextlib.contextmanager
def workspace() -> Iterator[Path]:
    """Yield a scratch directory inside the checkout; remove it afterwards."""
    parent = ROOT / ".perfbench-work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def child_env(work: Path) -> dict[str, str]:
    """Environment for child processes: this checkout's sources, scratch state."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env["REPRO_LEDGER_DIR"] = str(work / "default-ledger")
    return env


def _probe_s() -> float:
    """Time a fixed pure-Python loop plus NumPy FFTs; none of the program's code."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    data = np.linspace(0.0, 1.0, 1 << 14)
    for _ in range(10):
        np.fft.rfft(data * data)
    return time.perf_counter() - started


def host_speed(cpus: Iterable[int] | None = None) -> float:
    """How fast the host runs now, relative to the reference host (1.0).

    The CPUs of a shared host slow down by tens of percent for seconds
    to minutes at a time when neighbours load them (a fixed Python loop
    measured 16-31 ms within one minute), each CPU on its own.  Timings
    scaled by this factor read in reference-host seconds, so that drift
    does not swamp the program's own cost.  The probe runs, best of
    two, on each of ``cpus`` (default: the CPUs the calling thread may
    use; the thread is moved there and back), and the speeds are
    averaged.
    """
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(allowed if cpus is None else cpus):
            os.sched_setaffinity(0, {cpu})
            speeds.append(PROBE_REFERENCE_S / min(_probe_s(), _probe_s()))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(speeds) / len(speeds)


def normalized(raw_s: float, speed_before: float, speed_after: float) -> float:
    """``raw_s`` in reference-host seconds, from the speed around the interval."""
    return raw_s * (speed_before + speed_after) / 2.0


def timed(fn: Callable[[], T], cpus: Iterable[int] | None = None) -> tuple[T, float]:
    """Call ``fn``; return its result and its time in reference-host seconds.

    The host speed on ``cpus`` (see :func:`host_speed`) is probed right
    before and right after the call; the probes are outside the interval.
    """
    cpus = None if cpus is None else tuple(cpus)
    speed = host_speed(cpus)
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    return result, normalized(elapsed, speed, host_speed(cpus))


@dataclass(frozen=True)
class ChildRun:
    """One finished child process; ``wall_s`` in reference-host seconds."""

    returncode: int
    wall_s: float
    peak_rss_mb: float


def run_child(
    argv: Sequence[str], env: Mapping[str, str], log_path: Path, timeout_s: float = 150.0
) -> ChildRun:
    """Run ``argv`` to completion; time it and read its peak RSS.

    The wall time is normalized by :func:`host_speed` around the run.
    Standard output is discarded and standard error kept in
    ``log_path``.  ``os.wait4`` reaps the child, so the resource usage
    is this child's alone.  A child still running after ``timeout_s``
    is killed and reported with its (negative) signal exit code.
    """
    with open(log_path, "wb") as log:
        (status, usage), wall_s = timed(lambda: _wait_child(argv, env, log, timeout_s))
    return ChildRun(os.waitstatus_to_exitcode(status), wall_s, usage.ru_maxrss / 1024.0)


def _wait_child(argv: Sequence[str], env: Mapping[str, str], log: Any, timeout_s: float) -> tuple[int, Any]:
    """Start ``argv``, reap it with ``os.wait4``; return its status and usage."""
    proc = subprocess.Popen(list(argv), cwd=ROOT, env=dict(env), stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    # Reaped here, so tell Popen it has ended.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


def import_time_s(module: str, env: Mapping[str, str], log_path: Path) -> float:
    """Normalized wall time of a fresh interpreter that only imports ``module``."""
    run = run_child([sys.executable, "-c", f"import {module}"], env, log_path)
    if run.returncode != 0:
        raise RuntimeError(f"importing {module} failed; see {log_path}")
    return run.wall_s


# -- statistics ----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, float]:
    """Return ``(value, percentile)`` of the latency tail.

    The tail is the highest percentile with at least ten samples beyond
    it: the 11th-largest sample.  Below 21 samples that rank sits under
    the median, so the median is reported and its percentile is 50.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    if n < 21:
        return median(values), 50.0
    return float(sorted(values)[n - 11]), 100.0 * (n - 10) / n


@dataclass
class Op:
    """One timed operation of a workload."""

    kind: str
    latency_s: float
    ok: bool
    samples: int = 0
    note: str = ""


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def latency_metrics(ops: Sequence[Op], wall_s: float, busy_s: float) -> dict[str, float]:
    """The latency/throughput block shared by every workload.

    ``wall_s`` is the measured interval (for ops per second) and
    ``busy_s`` the host time over which the simulated samples were
    executed (for the simulated-sample rate).
    """
    latencies = [op.latency_s for op in ops]
    tail_value, _ = tail(latencies)
    samples = sum(op.samples for op in ops)
    return {
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": len(ops) / wall_s if wall_s > 0 else 0.0,
        "sim_ksps": samples / busy_s / 1e3 if busy_s > 0 else 0.0,
    }


def rounds_for(seconds: float, round_s: float) -> int:
    """Rounds of ``round_s`` host seconds that fit in ``seconds``; at least two.

    Two is the fewest whose median is not a single round's value.  The
    count depends on ``seconds`` only, never on how fast the rounds ran,
    so every run of a workload does the same work.
    """
    return max(2, int(seconds // round_s))


def median_by_kind(ops: Sequence[Op]) -> list[Op]:
    """One op per kind, with the median latency of its repetitions.

    Host-speed normalization leaves scatter on both sides of an op's
    cost (the probe can over- or under-correct), so the median of the
    rounds is steadier than their fastest.
    """
    by_kind: dict[str, list[Op]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    return [
        Op(kind, median([op.latency_s for op in group]), all(op.ok for op in group), group[0].samples)
        for kind, group in by_kind.items()
    ]


def op_details(ops: Sequence[Op]) -> dict[str, object]:
    latencies = [op.latency_s for op in ops]
    _, percentile = tail(latencies)
    return {"n_ops": len(ops), "tail_percentile": round(percentile, 2)}


# -- correctness gates ---------------------------------------------------


def reference_view(manifest: Mapping[str, Any]) -> dict[str, Any]:
    """The non-timing part of a run manifest: what every rung must reproduce.

    The engine label, the provenance block, the instrument delta and
    the host-timing metrics are dropped; everything else is compared
    exactly.
    """
    config = {k: v for k, v in dict(manifest["config"]).items() if k != "engine"}
    metrics = [
        dict(record)
        for record in manifest["metrics"]
        if record["name"] not in TIMING_METRICS
    ]
    return {"design": manifest["design"], "config": config, "metrics": metrics}


def manifest_mismatches(manifest: Mapping[str, Any], reference: Mapping[str, Any]) -> list[str]:
    """Return why ``manifest`` differs from ``reference`` (empty when equal)."""
    try:
        view = reference_view(manifest)
    except (KeyError, TypeError) as exc:
        return [f"malformed manifest: {exc!r}"]
    problems = []
    if view["design"] != reference["design"]:
        problems.append(f"design {view['design']!r} != {reference['design']!r}")
    if view["config"] != reference["config"]:
        problems.append(f"config differs: {view['config']} != {reference['config']}")
    got = {record["name"]: record for record in view["metrics"]}
    want = {record["name"]: record for record in reference["metrics"]}
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name in sorted(set(got) & set(want)):
        if got[name] != want[name]:
            problems.append(
                f"{name}: {got[name].get('value')!r} != {want[name].get('value')!r}"
            )
    return problems


def load_references() -> dict[str, dict[str, Any]]:
    """The committed scalar-oracle reference of each report design (64K)."""
    return {
        design: json.loads((REFERENCE_DIR / f"{design}.json").read_text())
        for design in REPORT_DESIGNS
    }


def analysed_samples(config: Mapping[str, Any]) -> int:
    """Simulated samples a report analysed, from its manifest config."""
    lanes = len(config.get("sweep_levels_db") or ())
    return int(config["n_samples"]) + lanes * int(config.get("sweep_n_samples") or 0)


# -- ledger seeding ------------------------------------------------------


def seed_ledger(directory: Path, rng: random.Random, n_entries: int = SEEDED_LEDGER_ENTRIES) -> int:
    """Fill a run ledger with ``n_entries`` report-like entries.

    Entries go through ``RunLedger.append`` (one instance, so the id
    set is read once); payloads are the committed references with
    jittered values and a synthetic instrument block, ~5 KB each like a
    real manifest.  Returns the number of entries written.
    """
    from repro.observability.ledger import RunLedger

    references = load_references()
    ledger = RunLedger(directory)
    written = 0
    for index in range(n_entries):
        design = REPORT_DESIGNS[index % len(REPORT_DESIGNS)]
        payload = copy.deepcopy(references[design])
        payload["schema"] = "repro.metrics/run-manifest/v1"
        for record in payload["metrics"]:
            if isinstance(record.get("value"), float):
                record["value"] *= 1.0 + rng.gauss(0.0, 1e-3)
        payload["instruments"] = {
            f"repro.synthetic.series{k}": {
                "kind": "histogram",
                "series": [
                    {
                        "labels": {"device": design, "shard": str(k)},
                        "count": rng.randrange(1, 64),
                        "sum": rng.random(),
                        "bucket_counts": [rng.randrange(8) for _ in range(12)],
                    }
                ],
            }
            for k in range(10)
        }
        provenance = {
            "git_sha": "%040x" % rng.getrandbits(160),
            "git_dirty": False,
            "timestamp": f"2026-01-01T00:00:00+00:00#{index}",
            "cpu_count": 2,
        }
        if ledger.append("report", payload, design=design, provenance=provenance):
            written += 1
    return written


def ledger_entries(directory: Path) -> int:
    from repro.observability.ledger import RunLedger

    return len(RunLedger(directory))


# -- instrument snapshots ------------------------------------------------


def counter_by_label(snapshot: Mapping[str, Any], name: str, label: str) -> dict[str, float]:
    """Sum a counter of an instrument snapshot by one label's values."""
    instrument = dict(snapshot.get("instruments", {})).get(name)
    totals: dict[str, float] = {}
    if not instrument:
        return totals
    for series in instrument.get("series", []):
        key = str(series.get("labels", {}).get(label, ""))
        totals[key] = totals.get(key, 0.0) + float(series.get("value", 0.0))
    return totals


def counter_total(snapshot: Mapping[str, Any], name: str) -> float:
    return sum(counter_by_label(snapshot, name, "").values())


def engine_runs(snapshot: Mapping[str, Any]) -> dict[str, float]:
    """``repro.engine.runs`` by engine label, every label present."""
    runs = counter_by_label(snapshot, "repro.engine.runs", "engine")
    return {engine: runs.get(engine, 0.0) for engine in ENGINE_LABELS}


def subtract(after: Mapping[str, float], before: Mapping[str, float]) -> dict[str, float]:
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}


def add_into(total: dict[str, float], part: Mapping[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


# -- provenance and output -----------------------------------------------


def provenance(engine_runs_delta: Mapping[str, float]) -> dict[str, object]:
    """What produced this result: code, JIT state, host, engine mix."""
    import importlib.util

    import numpy

    from repro.metrics.provenance import collect_provenance
    from repro.runtime.kernels import jit_status

    stamp = collect_provenance()
    return {
        "git_sha": stamp.git_sha,
        "git_dirty": stamp.git_dirty,
        "jit_status": jit_status(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "engine_runs": dict(engine_runs_delta),
    }


def declared_metrics(section: str) -> list[dict[str, str]]:
    """The metric declarations of one ``BENCHMARK.json`` section."""
    return list(json.loads(BENCHMARK_JSON.read_text())[section])


def emit(
    workload: str,
    section: str,
    values: Mapping[str, float],
    tally: Tally,
    details: Mapping[str, object],
) -> None:
    """Print the table, the details line and the final result line.

    Raises ``KeyError`` when a declared metric was not measured, so a
    workload can never silently drop one.
    """
    declared = declared_metrics(section)
    metrics = {}
    for spec in declared:
        name = spec["name"]
        metrics[name] = {"value": float(values[name]), "unit": spec["unit"]}
    width = max(len(spec["name"]) for spec in declared)
    print(f"# {workload} ({section})")
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<{width}}  {tally.error_rate:>14.6g} ratio"
          f"  ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"  failed: {reason}")
    print("details " + json.dumps(dict(details), sort_keys=True, default=str))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
