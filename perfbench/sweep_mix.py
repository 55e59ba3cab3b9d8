"""sweep-mix: in-process ``run_sweep`` calls on both sides of the rung crossover.

This is the Fig. 7 / Table 2 sweep path.  ``engine="auto"`` picks the
kernel rung for narrow sweeps and the lane-major batch rung for wide
ones, so a round holds every modulator design at 4 to 128 lanes of 8K
samples (the sweep floor): a change to either lowering, or to the
crossover, shows on one side or the other.  Import, ledger, cache and
HTTP are bypassed (no cache, no ledger, one in-process shard).

Closed loop, one client.  A round is the same 18 (design, lanes) pairs
every run; the seed sets their order and every input level.  Each
sweep's cost is the median of its runs across the rounds.  Lane 0 of
each design uses one seeded level per run, so a single one-lane scalar
sweep per design checks every sweep's lane 0 bit for bit (lane ``k``
consumes the ``k``-th noise-stream slice, so only lane 0 compares
alone).
"""

from __future__ import annotations

import random
import resource
import sys
from pathlib import Path
from typing import Any, Sequence

from perfbench import common
from perfbench.common import Op, Tally

#: Run on one CPU (one in-process client); see ``perfbench.run``.
SINGLE_CPU = True

DESIGNS: tuple[str, ...] = ("modulator1", "modulator2", "chopper")
LANE_COUNTS: tuple[int, ...] = (4, 8, 16, 32, 64, 128)

#: Analysed samples per lane.
LANE_SAMPLES = 1 << 13

#: Host seconds of one round: 10.5-12.4 s measured on a 2-CPU box,
#: about 11 s typical.  Sizes the round count from ``--seconds``.
ROUND_S = 12.0

#: Range of the seeded input levels, dB re full scale.
LEVEL_RANGE_DB = (-60.0, -6.0)

#: Lane counts of the traced pass: one on each side of the crossover.
TRACED_LANES: tuple[int, ...] = (4, 32)

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5

#: The ToneMetrics fields a lane's result is compared on.
TONE_FIELDS = ("fundamental_frequency", "signal_power", "harmonic_power", "noise_power", "bandwidth")

SETUP_CHILD = "from perfbench.sweep_mix import warm_up; warm_up()"


def sweep_spec(design: str, levels: Sequence[float]) -> Any:
    from repro.runtime.sweeps import sweep_spec_for_design

    # The sweep runs at half the report's FFT length.
    return sweep_spec_for_design(design, n_samples=2 * LANE_SAMPLES, levels_db=levels)


def warm_up() -> None:
    """Import the sweep path and fill the kernel compile cache per design."""
    from repro.runtime.executor import SweepExecutor
    from repro.runtime.sweeps import run_sweep

    for design in DESIGNS:
        run_sweep(sweep_spec(design, (-20.0,)), executor=SweepExecutor(jobs=1))


def plan(rng: random.Random) -> list[tuple[str, int, tuple[float, ...]]]:
    """One round: every (design, lanes) pair once, in a seeded order."""
    lane0 = {design: rng.uniform(*LEVEL_RANGE_DB) for design in DESIGNS}
    ops = [
        (design, lanes, (lane0[design],) + tuple(rng.uniform(*LEVEL_RANGE_DB) for _ in range(lanes - 1)))
        for design in DESIGNS
        for lanes in LANE_COUNTS
    ]
    rng.shuffle(ops)
    return ops


def tone(metrics: Any) -> tuple[float, ...]:
    return tuple(getattr(metrics, name) for name in TONE_FIELDS)


def scalar_lane0(ops: Sequence[tuple[str, int, tuple[float, ...]]]) -> dict[str, tuple[float, ...]]:
    """The scalar oracle's one-lane result at each design's lane-0 level."""
    from repro.runtime.executor import SweepExecutor
    from repro.runtime.sweeps import run_sweep

    levels = {design: levels[0] for design, _, levels in ops}
    return {
        design: tone(
            run_sweep(sweep_spec(design, (level,)), executor=SweepExecutor(jobs=1), engine="scalar").metrics[0]
        )
        for design, level in levels.items()
    }


def run_ops(ops, telemetry=None) -> tuple[list[Op], list[tuple[str, int, Any]]]:
    """Time ``run_sweep`` per op (normalized); return the ops and their results."""
    from repro.runtime.executor import SweepExecutor
    from repro.runtime.sweeps import run_sweep

    timed: list[Op] = []
    results = []
    for design, lanes, levels in ops:
        spec = sweep_spec(design, levels)
        result, elapsed = common.timed(
            lambda: run_sweep(spec, executor=SweepExecutor(jobs=1), telemetry=telemetry)
        )
        timed.append(Op(f"{design}x{lanes}", elapsed, True, lanes * spec.n_samples))
        results.append((design, lanes, result))
    return timed, results


def check(ops: list[Op], results, reference: dict[str, tuple[float, ...]], tally: Tally) -> None:
    """Gate every sweep's lane 0 against the scalar oracle, bit for bit."""
    for op, (design, lanes, result) in zip(ops, results):
        reason = ""
        if len(result.metrics) != lanes:
            reason = f"{op.kind}: {len(result.metrics)} lanes returned"
        elif tone(result.metrics[0]) != reference[design]:
            reason = f"{op.kind}: lane 0 {tone(result.metrics[0])} != scalar {reference[design]}"
        op.ok = not reason
        if reason:
            op.samples = 0
        tally.add(op.ok, reason)


def engine_runs_now() -> dict[str, float]:
    from repro.observability.instruments import get_registry

    return common.engine_runs(get_registry().snapshot())


def setup_s(work: Path) -> float:
    env = common.child_env(work)
    times = []
    for _ in range(SETUP_REPEATS):
        child = common.run_child([sys.executable, "-c", SETUP_CHILD], env, work / "setup.log")
        if child.returncode != 0:
            raise RuntimeError(f"sweep-mix set-up failed; see {work / 'setup.log'}")
        times.append(child.wall_s)
    return common.median(times)


def measure(seed: int, seconds: float, work: Path):
    """The untraced run: end-to-end metrics."""
    rng = random.Random(seed)
    setup = setup_s(work)
    warm_up()
    round_ops = plan(rng)
    before = engine_runs_now()
    ops: list[Op] = []
    results = []
    for _ in range(common.rounds_for(seconds, ROUND_S)):
        rng.shuffle(round_ops)
        timed, round_results = run_ops(round_ops)
        ops += timed
        results += round_results
    runs = common.subtract(engine_runs_now(), before)
    tally = Tally()
    check(ops, results, scalar_lane0(round_ops), tally)
    typical = common.median_by_kind(ops)
    typical_wall = sum(op.latency_s for op in typical)
    values = common.latency_metrics(typical, typical_wall, typical_wall)
    values["setup_s"] = setup
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {**common.op_details(typical), "n_sweeps": len(ops), "provenance": common.provenance(runs)}
    return values, tally, details


def traced(seed: int, work: Path):
    """The narrow and wide sweeps of a round, untraced then traced."""
    from repro.runtime.single import consume_fallbacks
    from repro.telemetry.session import TelemetrySession

    rng = random.Random(seed)
    warm_up()
    ops = [op for op in plan(rng) if op[1] in TRACED_LANES]
    plain, plain_results = run_ops(ops)
    consume_fallbacks()
    before = engine_runs_now()
    session = TelemetrySession("sweep-mix")
    timed, results = run_ops(ops, telemetry=session)
    runs = common.subtract(engine_runs_now(), before)
    fallbacks = len(consume_fallbacks())
    tally = Tally()
    reference = scalar_lane0(ops)
    check(plain, plain_results, reference, tally)
    check(timed, results, reference, tally)
    shard_engines = {
        op.kind: sorted({child.attrs.get("engine") for child in root.children})
        for op, root in zip(timed, session.roots)
    }
    values = {
        **{f"engine.runs.{k}": v for k, v in runs.items()},
        "engine.fallbacks": float(fallbacks),
        "trace.overhead_s": sum(op.latency_s for op in timed) - sum(op.latency_s for op in plain),
    }
    return values, tally, {"shard_engines": shard_engines}
