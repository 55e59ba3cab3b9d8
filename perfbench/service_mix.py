"""service-mix: a ``repro serve`` process driven by two waiting clients.

This exercises the service's three dedup paths, the shared result
cache and the ledger behind it.  Requests come from a small key
universe, each key a report (8K without its sweep, 16K with it, four
designs) or a sweep whose spec equals a finished report's sweep, so it
is served from the cache.

Every report key is submitted three times, as the CI service job
submits one spec (one execution, two dedup hits):

* ``new``: both clients submit the key at once; one submission
  executes it (one ledger append);
* ``coalesced``: the other folds onto the running job;
* ``completed``: once the job is done, one client re-submits the key
  and gets the stored result.

A sweep key is submitted by one client (``new``, read from the cache)
and then re-submitted (``completed``).  So about a third of the
requests take each path, whatever the seed.  The completed path is the
fastest, so the median request is a new or coalesced report and
``latency_p50_s`` and ``latency_tail_s`` follow new jobs; the completed
path shows in ``ops_per_s`` and in the traced run's
``service.completed_p50_ms``.

Closed loop, two client threads, each waiting for its reply like
``repro submit --wait``.  Every report class has two keys that differ
only in a seeded mismatch; the seed sets those mismatches, the order of
the keys and which client submits or re-submits alone.

A run is several such rounds, each against a fresh server with an
empty cache (dedup state lives in the server).  The latency and
throughput metrics pool the normalized requests of all rounds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import common
from perfbench.common import Op, Tally

#: Places its own processes (see :class:`Cpus`); see ``perfbench.run``.
SINGLE_CPU = False

#: (design, n_samples, sweep) of each report class.
REPORT_CLASSES: tuple[tuple[str, int, bool], ...] = tuple(
    (design, n_samples, sweep)
    for design in common.REPORT_DESIGNS
    for n_samples, sweep in ((1 << 13, False), (1 << 14, True))
)

#: Range of the seeded half-circuit mismatch that makes each key distinct.
MISMATCH_RANGE = (1e-4, 5e-3)

#: Extra server spawns timed for ``setup_s`` besides one per round.
SETUP_SPARES = 2

#: Host seconds of one round (server spawn, plan, shutdown): 8-10 s
#: measured on a 2-CPU box.  Sizes the round count.
ROUND_S = 10.0

#: Longest a client waits for one job's result.
RESULT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Cpus:
    """The clients' CPU and the server's CPU.

    Pinning them apart keeps the scheduler from sometimes stacking the
    server and a client on one CPU and sometimes not; the host-speed
    probes then measure exactly the CPUs the work runs on.
    """

    client: int
    server: int

    @classmethod
    def split(cls) -> "Cpus":
        """Pin the calling thread, and the threads it starts, to the client CPU."""
        allowed = sorted(os.sched_getaffinity(0))
        cpus = cls(allowed[0], allowed[-1])
        os.sched_setaffinity(0, {cpus.client})
        return cpus

    @property
    def all(self) -> set[int]:
        return {self.client, self.server}


@dataclass(frozen=True)
class Key:
    """One request of the key universe."""

    name: str
    request: dict[str, Any]


@dataclass(frozen=True)
class Step:
    """Introduce one key, then have client ``resubmit`` submit it again.

    The key is introduced by both clients at once (``dual``) or by
    client ``client`` alone.
    """

    key: Key
    dual: bool
    client: int
    resubmit: int


def key_universe(rng: random.Random) -> list[Step]:
    """The seeded plan: report keys, then cache-served sweeps."""
    from repro.metrics.report import SWEEP_LEVELS_DB
    from repro.runtime.sweeps import sweep_spec_for_design

    steps: list[Step] = []
    sweep_sources: dict[str, float] = {}
    for design, n_samples, sweep in REPORT_CLASSES:
        variants = []
        for variant in "ab":
            mismatch = rng.uniform(*MISMATCH_RANGE)
            request = {
                "kind": "report",
                "design": design,
                "n_samples": n_samples,
                "sweep": sweep,
                "mismatch": mismatch,
            }
            key = Key(f"{design}/{n_samples}/{int(sweep)}/{variant}", request)
            variants.append(key)
            steps.append(Step(key, dual=True, client=0, resubmit=rng.randrange(2)))
        if sweep and design != "delay-line":
            sweep_sources[design] = variants[rng.randrange(2)].request["mismatch"]
    rng.shuffle(steps)
    sweeps = []
    for design, mismatch in sorted(sweep_sources.items()):
        spec = sweep_spec_for_design(
            design, n_samples=1 << 14, levels_db=SWEEP_LEVELS_DB, mismatch=mismatch
        )
        fields = dataclasses.asdict(spec)
        fields["levels_db"] = list(spec.levels_db)
        client = rng.randrange(2)
        key = Key(f"sweep/{design}", {"kind": "sweep", "spec": fields})
        sweeps.append(Step(key, dual=False, client=client, resubmit=1 - client))
    rng.shuffle(sweeps)
    return steps + sweeps


@dataclass
class Reply:
    """One timed request and what came back."""

    op: Op
    key: Key
    job_id: str = ""
    payload: bytes = b""
    #: Index of the plan step it was sent in.
    step: int = 0


def request(client: Any, key: Key) -> Reply:
    """Submit ``key`` and wait for its result, like ``repro submit --wait``.

    HTTP errors, refusals (429) and timeouts are failed ops.
    """
    from repro.errors import ServiceError

    started = time.perf_counter()
    try:
        descriptor = client.submit(key.request)
        payload = client.result_bytes(str(descriptor["id"]), timeout_s=RESULT_TIMEOUT_S)
    except ServiceError as exc:
        op = Op("error", time.perf_counter() - started, False, note=f"{key.name}: {exc}")
        return Reply(op, key)
    op = Op(str(descriptor["disposition"]), time.perf_counter() - started, True)
    return Reply(op, key, str(descriptor["id"]), payload)


@dataclass
class Traffic:
    """Two closed-loop clients walking one plan in lock step."""

    url: str
    plan: list[Step]
    cpus: Cpus
    replies: list[Reply] = field(default_factory=list)
    #: ``(probe start, host speed, probe end)`` before the plan and
    #: after each step (both clients idle).
    marks: list[tuple[float, float, float]] = field(default_factory=list)

    def run(self) -> None:
        from repro.service import ServiceClient

        self._lock = threading.Lock()
        self._barrier = threading.Barrier(2)
        self._errors: list[BaseException] = []
        self._mark()
        threads = [
            threading.Thread(target=self._client, args=(index, ServiceClient(self.url)))
            for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self._errors:
            raise self._errors[0]

    def _mark(self) -> None:
        started = time.perf_counter()
        speed = common.host_speed(self.cpus.all)
        self.marks.append((started, speed, time.perf_counter()))

    def normalized(self) -> tuple[list[Op], float]:
        """Ops and the plan's wall time in reference-host seconds.

        The requests take milliseconds, too short to probe one by one,
        so each step is scaled by the mean host speed of the marks at
        its two ends; probe time itself is left out of the wall.
        """
        speeds = [(a[1] + b[1]) / 2.0 for a, b in zip(self.marks, self.marks[1:])]
        wall = sum((b[0] - a[2]) * speed for a, b, speed in zip(self.marks, self.marks[1:], speeds))
        ops = [
            dataclasses.replace(reply.op, latency_s=reply.op.latency_s * speeds[reply.step])
            for reply in self.replies
        ]
        return ops, wall

    def _send(self, client: Any, key: Key, expected: tuple[str, ...], step: int) -> None:
        reply = request(client, key)
        reply.step = step
        if reply.op.ok and reply.op.kind not in expected:
            reply.op.ok = False
            reply.op.note = f"{key.name}: disposition {reply.op.kind}, expected {expected}"
        with self._lock:
            self.replies.append(reply)

    def _client(self, index: int, client: Any) -> None:
        try:
            for number, step in enumerate(self.plan):
                self._barrier.wait()
                if step.dual:
                    self._send(client, step.key, ("new", "coalesced"), number)
                elif step.client == index:
                    self._send(client, step.key, ("new",), number)
                self._barrier.wait()
                if step.resubmit == index:
                    self._send(client, step.key, ("completed",), number)
                self._barrier.wait()
                if index == 0:
                    # Both clients are between steps and the server is idle.
                    self._mark()
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._errors.append(exc)
            self._barrier.abort()


class Server:
    """A ``repro serve`` child on a free port, with its own cache directory."""

    def __init__(self, work: Path, cache_dir: Path, ledger_dir: Path, cpus: Cpus) -> None:
        self.log = open(work / "serve.log", "ab")
        _, self.setup_s = common.timed(lambda: self._start(work, cache_dir, ledger_dir, cpus), cpus.all)

    def _start(self, work: Path, cache_dir: Path, ledger_dir: Path, cpus: Cpus) -> None:
        """Spawn the server; return once it listens and ``/healthz`` answers."""
        from repro.service import ServiceClient

        # The child inherits the affinity of the thread that starts it.
        os.sched_setaffinity(0, {cpus.server})
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--cache-dir", str(cache_dir), "--ledger-dir", str(ledger_dir),
                ],
                cwd=common.ROOT,
                env=common.child_env(work),
                stdout=subprocess.PIPE,
                stderr=self.log,
                text=True,
            )
        finally:
            os.sched_setaffinity(0, {cpus.client})
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start; see {work / 'serve.log'}")
        self.url = line.split()[-1]
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()
        self.client = ServiceClient(self.url)
        self.client.health()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if hasattr(self, "_drain"):
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        self.log.close()


def direct_results(keys: list[Key]) -> dict[str, Any]:
    """Run every key in-process, outside the timing, for the equality gate."""
    from repro.metrics.report import build_report
    from repro.runtime.executor import SweepExecutor
    from repro.runtime.sweeps import run_sweep, sweep_spec_from_mapping

    expected: dict[str, Any] = {}
    for key in keys:
        if key.request["kind"] == "report":
            params = key.request
            manifest = build_report(
                params["design"],
                n_samples=params["n_samples"],
                sweep=params["sweep"],
                mismatch=params["mismatch"],
            )
            expected[key.name] = common.reference_view(manifest.as_dict())
        else:
            result = run_sweep(sweep_spec_from_mapping(key.request["spec"]), executor=SweepExecutor(jobs=1))
            expected[key.name] = [[m.snr_db, m.thd_db, m.sndr_db] for m in result.metrics]
    return expected


def check(replies: list[Reply], expected: dict[str, Any]) -> None:
    """Gate byte identity per job and equality with a direct run per key.

    ``replies`` come from one server.  ``expected`` caches the direct
    runs by key name and is filled for keys it lacks.
    """
    first: dict[str, bytes] = {}
    keys: dict[str, Key] = {}
    for reply in replies:
        if not reply.op.ok:
            continue
        keys[reply.key.name] = reply.key
        stored = first.setdefault(reply.job_id, reply.payload)
        if reply.payload != stored:
            reply.op.ok = False
            reply.op.note = f"{reply.key.name}: result bytes differ between fetches"
    expected.update(direct_results([key for name, key in keys.items() if name not in expected]))
    wrong: dict[str, str] = {}
    for reply in replies:
        if not reply.op.ok or reply.key.name in wrong:
            continue
        result = json.loads(reply.payload)
        if reply.key.request["kind"] == "report":
            problems = common.manifest_mismatches(result, expected[reply.key.name])
        else:
            got = [list(row) for row in zip(result["snr_db"], result["thd_db"], result["sndr_db"])]
            problems = [] if got == expected[reply.key.name] else ["sweep metrics differ"]
        if problems:
            wrong[reply.key.name] = "; ".join(problems[:3])
    for reply in replies:
        if reply.key.name in wrong and reply.op.ok:
            reply.op.ok = False
            reply.op.note = f"{reply.key.name}: differs from a direct run: {wrong[reply.key.name]}"


def executed_samples(reply: Reply) -> int:
    """Samples a new job simulated; cache-served sweeps simulate none."""
    if reply.op.kind != "new" or reply.key.request["kind"] != "report":
        return 0
    return common.analysed_samples(json.loads(reply.payload)["config"])


def server_counters(snapshot: dict[str, Any]) -> dict[str, float]:
    counters = dict(common.engine_runs(snapshot))
    for name in ("executed", "submitted", "dedup_hits"):
        counters[name] = common.counter_total(snapshot, f"repro.service.{name}")
    for name in ("hits", "misses"):
        counters[name] = common.counter_total(snapshot, f"repro.cache.{name}")
    counters["fallbacks"] = common.counter_total(snapshot, "repro.single.fallbacks")
    return counters


def job_timings(jobs: list[dict[str, Any]]) -> dict[str, float]:
    """Median queue wait and run time of the executed jobs, in ms."""
    done = [job for job in jobs if job.get("finished_at") and job.get("started_at")]
    return {
        "queue_wait_ms": common.median([(j["started_at"] - j["submitted_at"]) * 1e3 for j in done]),
        "run_ms": common.median([(j["finished_at"] - j["started_at"]) * 1e3 for j in done]),
    }


def path_p50s(ops: list[Op]) -> dict[str, float]:
    """Median latency of the successful requests of each dedup path."""
    return {
        path: common.median([op.latency_s for op in ops if op.kind == path and op.ok])
        for path in ("new", "coalesced", "completed")
    }


def tally_of(replies: list[Reply]) -> Tally:
    tally = Tally()
    for reply in replies:
        tally.add(reply.op.ok, reply.op.note)
    return tally


@dataclass
class Round:
    """One server's life: the whole plan against a fresh cache."""

    traffic: Traffic
    counters: dict[str, float]
    timings: dict[str, float]
    peak_rss_mb: float
    setup_s: float
    #: Milliseconds per span name of each new job, when its events were read.
    spans: dict[str, dict[str, float]]


def span_ms(client: Any, job_id: str) -> dict[str, float]:
    """Total milliseconds per span name in one job's event log."""
    totals: dict[str, float] = {}
    for event in client.events(job_id):
        if event.get("event") == "span_finish":
            name = str(event.get("name"))
            totals[name] = totals.get(name, 0.0) + float(event.get("duration_s") or 0.0) * 1e3
    return {name: round(value, 3) for name, value in totals.items()}


def run_round(
    work: Path, ledger_dir: Path, plan: list[Step], cpus: Cpus, label: str, read_events: bool = False
) -> Round:
    """Walk ``plan`` against a fresh server with its own, empty cache.

    With ``read_events`` each new job's event log is read after the
    traffic, outside every timed interval.
    """
    server = Server(work, work / f"cache-{label}", ledger_dir, cpus)
    try:
        before = server_counters(server.client.stats())
        traffic = Traffic(server.url, plan, cpus)
        traffic.run()
        counters = common.subtract(server_counters(server.client.stats()), before)
        timings = job_timings(server.client.jobs())
        peak_rss = server.peak_rss_mb()
        spans = {
            reply.key.name: span_ms(server.client, reply.job_id)
            for reply in traffic.replies
            if read_events and reply.op.kind == "new"
        }
    finally:
        server.stop()
    return Round(traffic, counters, timings, peak_rss, server.setup_s, spans)


def measure(seed: int, seconds: float, work: Path):
    """The untraced run: requests of every round pooled, every round checked."""
    rng = random.Random(seed)
    cpus = Cpus.split()
    ledger_dir = work / "ledger"
    common.seed_ledger(ledger_dir, rng)
    plan = key_universe(rng)
    setups = []
    for _ in range(SETUP_SPARES):
        spare = Server(work, work / "cache-spare", ledger_dir, cpus)
        spare.stop()
        setups.append(spare.setup_s)
    rounds = []
    for index in range(common.rounds_for(seconds, ROUND_S)):
        round_ = run_round(work, ledger_dir, plan, cpus, str(index))
        rounds.append(round_)
        setups.append(round_.setup_s)
    expected: dict[str, Any] = {}
    for round_ in rounds:
        check(round_.traffic.replies, expected)
    ops: list[Op] = []
    wall = 0.0
    for round_ in rounds:
        round_ops, round_wall = round_.traffic.normalized()
        for op, reply in zip(round_ops, round_.traffic.replies):
            op.samples = executed_samples(reply) if op.ok else 0
        ops += round_ops
        wall += round_wall
    values = common.latency_metrics(ops, wall, wall)
    values["setup_s"] = common.median(setups)
    values["peak_rss_mb"] = max(r.peak_rss_mb for r in rounds)
    replies = [reply for r in rounds for reply in r.traffic.replies]
    p50s = path_p50s(ops)
    counters: dict[str, float] = {}
    for round_ in rounds:
        common.add_into(counters, round_.counters)
    details = {
        **common.op_details(ops),
        "rounds": len(rounds),
        "svc_new_p50_s": p50s["new"],
        "svc_coalesced_p50_s": p50s["coalesced"],
        "svc_completed_p50_s": p50s["completed"],
        "path_counts": {p: sum(reply.op.kind == p for reply in replies) for p in p50s},
        "server": {**counters, **rounds[-1].timings},
        "provenance": common.provenance({k: counters[k] for k in common.ENGINE_LABELS}),
    }
    return values, tally_of(replies), details


def traced(seed: int, work: Path):
    """One round of the plan, then each new job's event log.

    The server records every job's spans whether or not a client reads
    them, so the service has no untraced mode to compare against:
    ``trace.overhead_s`` is 0 here.
    """
    rng = random.Random(seed)
    cpus = Cpus.split()
    ledger_dir = work / "ledger"
    common.seed_ledger(ledger_dir, rng)
    plan = key_universe(rng)
    round_ = run_round(work, ledger_dir, plan, cpus, "traced", read_events=True)
    replies = round_.traffic.replies
    check(replies, {})
    counters, timings = round_.counters, round_.timings
    lookups = counters["hits"] + counters["misses"]
    submits = counters["submitted"] + counters["dedup_hits"]
    p50s = path_p50s(round_.traffic.normalized()[0])
    values = {
        **{f"engine.runs.{k}": counters[k] for k in common.ENGINE_LABELS},
        "engine.fallbacks": counters["fallbacks"],
        "cache.hit_ratio": counters["hits"] / lookups if lookups else 0.0,
        "ledger.entries": float(common.ledger_entries(ledger_dir)),
        "service.dedup_ratio": counters["dedup_hits"] / submits if submits else 0.0,
        "service.queue_wait_ms": timings["queue_wait_ms"],
        "service.run_ms": timings["run_ms"],
        **{f"service.{path}_p50_ms": value * 1e3 for path, value in p50s.items()},
        "trace.overhead_s": 0.0,
    }
    return values, tally_of(replies), {"span_ms": round_.spans, "server": counters}
