"""report-cli: cold ``python -m repro report <design>`` processes at 64K.

This is what a paper user waits for, from process start to manifest on
disk: the package import, the kernel rung at the paper's 64K FFT, the
5-lane dynamic-range sweep, provenance stamping and one append to a
ledger that already holds a few thousand entries.  The sweep cache is
off (``--no-cache``), so the cache and service layers do no work here.

Closed loop, one client: each report starts when the previous one has
exited.  Reports run in rounds of the four designs, each round in a
seeded order, so every run times the same mix; each design's cost is
the median of its reports across the rounds.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Any, Sequence

from perfbench import common
from perfbench.common import Op, Tally

#: Run on one CPU (one report process at a time); see ``perfbench.run``.
SINGLE_CPU = True

#: FFT length of the main measurement: the paper's 64K.
FFT_SAMPLES = 1 << 16

#: Import-only processes timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5

#: Host seconds of one round of four reports: 6.4-7.3 s measured on a
#: 2-CPU box.  Sizes the round count from ``--seconds``.
ROUND_S = 7.5

#: Span names read from the live event stream of a traced report.
TRACED_SPANS = ("measure", "stimulus", "device", "analysis", "sweep")


def report_argv(
    design: str, manifest_path: Path, ledger_dir: Path, extra: Sequence[str] = ()
) -> list[str]:
    return [
        sys.executable, "-m", "repro", "report", design,
        "--no-cache", "--samples", str(FFT_SAMPLES),
        "--json", str(manifest_path), "--ledger-dir", str(ledger_dir),
        *extra,
    ]


class ReportRunner:
    """Runs report processes against one seeded ledger and checks them."""

    def __init__(
        self, work: Path, rng: random.Random, ledger_entries: int = common.SEEDED_LEDGER_ENTRIES
    ) -> None:
        self.work = work
        self.env = common.child_env(work)
        self.ledger_dir = work / "ledger"
        self.references = common.load_references()
        self.seeded_entries = common.seed_ledger(self.ledger_dir, rng, ledger_entries)
        self.manifests: list[dict[str, Any]] = []
        self.peak_rss_mb = 0.0
        self._count = 0

    def run(self, design: str, extra: Sequence[str] = ()) -> tuple[Op, str]:
        """Run one report; return the op and why it failed ("" when ok)."""
        self._count += 1
        manifest_path = self.work / f"manifest-{self._count}.json"
        child = common.run_child(
            report_argv(design, manifest_path, self.ledger_dir, extra),
            self.env,
            self.work / f"report-{self._count}.log",
        )
        self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)
        reason = ""
        samples = 0
        if child.returncode != 0:
            reason = f"{design}: exit {child.returncode}"
        else:
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                reason = f"{design}: no manifest ({exc})"
            else:
                self.manifests.append(manifest)
                problems = common.manifest_mismatches(manifest, self.references[design])
                if problems:
                    reason = f"{design}: " + "; ".join(problems[:3])
                else:
                    samples = common.analysed_samples(manifest["config"])
        return Op(design, child.wall_s, not reason, samples), reason


def design_rounds(rng: random.Random):
    """Endless rounds of the four designs, each round in a seeded order."""
    while True:
        order = list(common.REPORT_DESIGNS)
        rng.shuffle(order)
        yield order


def setup_s(runner: ReportRunner) -> float:
    return common.median(
        [
            common.import_time_s("repro.cli", runner.env, runner.work / "import.log")
            for _ in range(SETUP_REPEATS)
        ]
    )


def manifest_counters(manifests: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Engine runs, fallbacks and cache lookups summed over manifests."""
    totals: dict[str, float] = {}
    for manifest in manifests:
        snapshot = manifest.get("instruments", {})
        common.add_into(totals, common.engine_runs(snapshot))
        totals["fallbacks"] = totals.get("fallbacks", 0.0) + common.counter_total(
            snapshot, "repro.single.fallbacks"
        )
        for name in ("hits", "misses"):
            totals[name] = totals.get(name, 0.0) + common.counter_total(
                snapshot, f"repro.cache.{name}"
            )
    return totals


def measure(seed: int, seconds: float, work: Path):
    """The untraced run: end-to-end metrics."""
    rng = random.Random(seed)
    runner = ReportRunner(work, rng)
    setup = setup_s(runner)
    tally = Tally()
    ops: list[Op] = []
    rounds = design_rounds(rng)
    for _ in range(common.rounds_for(seconds, ROUND_S)):
        for design in next(rounds):
            op, reason = runner.run(design)
            ops.append(op)
            tally.add(op.ok, reason)
    typical = common.median_by_kind(ops)
    typical_wall = sum(op.latency_s for op in typical)
    values = common.latency_metrics(typical, typical_wall, typical_wall)
    values["setup_s"] = setup
    values["peak_rss_mb"] = runner.peak_rss_mb
    counters = manifest_counters(runner.manifests)
    details = {
        **common.op_details(typical),
        "n_reports": len(ops),
        "latency_s_by_design": {op.kind: op.latency_s for op in typical},
        "seeded_ledger_entries": runner.seeded_entries,
        "provenance": common.provenance({k: counters.get(k, 0.0) for k in common.ENGINE_LABELS}),
    }
    return values, tally, details


def span_durations(events_path: Path) -> dict[str, float]:
    """Total seconds per span name in one report's live event stream."""
    totals = {name: 0.0 for name in TRACED_SPANS}
    for line in events_path.read_text().splitlines():
        event = json.loads(line)
        if event.get("event") == "span_finish" and event.get("name") in totals:
            totals[event["name"]] += float(event.get("duration_s") or 0.0)
    return totals


def traced(seed: int, work: Path):
    """One seeded round untraced, then again with live span events.

    Returns the workload's per-layer values (engine mix, cache and
    ledger traffic, tracing overhead), the tally and details.
    """
    rng = random.Random(seed)
    runner = ReportRunner(work, rng)
    order = next(design_rounds(rng))
    tally = Tally()
    plain_wall = 0.0
    for design in order:
        op, reason = runner.run(design)
        plain_wall += op.latency_s
        tally.add(op.ok, reason)
    runner.manifests.clear()
    traced_wall = 0.0
    spans: dict[str, dict[str, float]] = {}
    for design in order:
        events = work / f"events-{design}.jsonl"
        op, reason = runner.run(design, ("--events", str(events)))
        traced_wall += op.latency_s
        tally.add(op.ok, reason)
        if op.ok:
            spans[design] = {k: round(v * 1e3, 3) for k, v in span_durations(events).items()}
    counters = manifest_counters(runner.manifests)
    lookups = counters.get("hits", 0.0) + counters.get("misses", 0.0)
    values = {
        **{f"engine.runs.{k}": counters.get(k, 0.0) for k in common.ENGINE_LABELS},
        "engine.fallbacks": counters.get("fallbacks", 0.0),
        "cache.hit_ratio": counters.get("hits", 0.0) / lookups if lookups else 0.0,
        "ledger.entries": float(common.ledger_entries(runner.ledger_dir)),
        "trace.overhead_s": traced_wall - plain_wall,
    }
    details = {"span_ms": spans, "order": order}
    return values, tally, details
