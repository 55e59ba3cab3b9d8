"""Layer probes of the traced run: each layer's public functions, timed from outside.

Every traced run, whatever its workload, runs the same probes, so a
layer's number reads the same way on every workload.  The workload's
own traced pass adds what only its traffic shows (engine mix, cache and
dedup ratios, job waits, tracing overhead).

Which end-to-end metric each probe should move, and on which workload,
is listed in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Callable

from perfbench import common

#: FFT length of the single-run and analysis probes (the paper's 64K).
FFT_SAMPLES = 1 << 16

#: Scalar-oracle probe length: the oracle is ~50 us/sample.
SCALAR_SAMPLES = 1 << 13

#: Analysed samples per lane of the sweep-rung probes (the 8K floor).
LANE_SAMPLES = 1 << 13

#: Lane counts of the pinned-rung probes and of the crossover probe.
RUNG_LANES: tuple[int, ...] = (8, 32, 128)
CROSSOVER_LANES: tuple[int, ...] = (4, 16, 32, 128)

COMPILE_CHILD = """
import json, sys, time
from repro.runtime.kernels import build_spec, compile_spec
from repro.telemetry.designs import build_trace_setup
total = 0.0
for design in sys.argv[1:]:
    device = build_trace_setup(design).build(None)
    started = time.perf_counter()
    compile_spec(build_spec(device))
    total += time.perf_counter() - started
print(json.dumps(total * 1e3))
"""


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Fastest of ``repeats`` timed calls, in reference-host seconds.

    These probes compare timings taken at different moments (auto
    against the pinned rungs), which the host's speed drift would
    otherwise swamp; see ``common.timed``.
    """
    return min(common.timed(fn)[1] for _ in range(repeats))


def median_of(fn: Callable[[int], Any], repeats: int) -> float:
    """Median of ``repeats`` timed calls (each given its index), in reference-host seconds."""
    return common.median([common.timed(lambda: fn(index))[1] for index in range(repeats)])


def cli_import(work: Path) -> dict[str, float]:
    env = common.child_env(work)
    times = [common.import_time_s("repro.cli", env, work / "import.log") for _ in range(3)]
    return {"cli.import_s": common.median(times)}


def kernel_compile(work: Path) -> dict[str, float]:
    """First ``compile_spec(build_spec(dev))`` of each design, fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", COMPILE_CHILD, *common.REPORT_DESIGNS],
        cwd=common.ROOT,
        env=common.child_env(work),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return {"kernels.compile_ms": float(json.loads(done.stdout.strip().splitlines()[-1]))}


def tone_input(design: str, n_samples: int) -> Any:
    import numpy as np

    from repro.telemetry.designs import build_trace_setup

    setup = build_trace_setup(design)
    t = np.arange(n_samples) / setup.sample_rate
    return setup, setup.amplitude * np.sin(2.0 * np.pi * setup.frequency * t)


def single_runs() -> dict[str, float]:
    """ns/sample of one 64K run per design on the kernel rung; scalar oracle rate."""
    from repro.runtime.engine import use_engine

    values = {}
    for design in common.REPORT_DESIGNS:
        setup, x = tone_input(design, FFT_SAMPLES)
        with use_engine("kernel"):
            setup.build(None)(x[:1024])
            seconds = best_of(lambda: setup.build(None)(x), 2)
        values[f"kernels.ns_per_sample.{design}"] = seconds / FFT_SAMPLES * 1e9
    setup, x = tone_input("modulator2", SCALAR_SAMPLES)
    with use_engine("scalar"):
        seconds = best_of(lambda: setup.build(None)(x), 1)
    values["scalar.ns_per_sample.modulator2"] = seconds / SCALAR_SAMPLES * 1e9
    return values


def sweep_rungs() -> dict[str, float]:
    """``run_sweep`` on modulator2 pinned per rung, and auto against the best."""
    import numpy as np

    from repro.runtime.executor import SweepExecutor
    from repro.runtime.sweeps import run_sweep, sweep_spec_for_design

    def seconds(lanes: int, engine: str) -> float:
        levels = tuple(float(v) for v in np.linspace(-60.0, -6.0, lanes))
        spec = sweep_spec_for_design("modulator2", n_samples=2 * LANE_SAMPLES, levels_db=levels)
        # Narrow sweeps are short enough to repeat; their single shots are noisy.
        repeats = 3 if lanes <= 16 else 1
        return best_of(lambda: run_sweep(spec, executor=SweepExecutor(jobs=1), engine=engine), repeats)

    seconds(1, "kernel")
    pinned = {
        (engine, lanes): seconds(lanes, engine)
        for lanes in sorted(set(RUNG_LANES) | set(CROSSOVER_LANES))
        for engine in ("kernel", "batch")
    }
    values = {}
    for lanes in RUNG_LANES:
        for engine, prefix in (("kernel", "kernels"), ("batch", "batch")):
            values[f"{prefix}.lane_ns_per_sample.{lanes}"] = (
                pinned[(engine, lanes)] / (lanes * LANE_SAMPLES) * 1e9
            )
    for lanes in CROSSOVER_LANES:
        best = min(pinned[("kernel", lanes)], pinned[("batch", lanes)])
        values[f"sweeps.auto_over_best.{lanes}"] = seconds(lanes, "auto") / best
    return values


def report_layers(work: Path, rng: random.Random) -> dict[str, float]:
    """Spans of a warm 64K ``build_report``, analysis, manifest and ledger I/O."""
    from repro.analysis.metrics import measure_tone
    from repro.analysis.spectrum import compute_spectrum
    from repro.metrics.report import build_report
    from repro.observability.ledger import RunLedger
    from repro.telemetry.session import TelemetrySession

    build_report("modulator2", n_samples=1 << 13)
    session = TelemetrySession("modulator2")
    manifest, seconds = common.timed(
        lambda: build_report("modulator2", n_samples=FFT_SAMPLES, session=session)
    )
    values = {"metrics.build_report_ms": seconds * 1e3}
    measure = next(span for span in session.roots if span.name == "measure")
    for child in measure.children:
        values[f"testbench.{child.name}_ms"] = (child.duration_s or 0.0) * 1e3

    values["metrics.manifest_write_ms"] = 1e3 * median_of(
        lambda i: manifest.write_json(work / f"manifest-{i}.json"), 5
    )

    setup, x = tone_input("modulator2", FFT_SAMPLES)
    output = setup.build(None)(x)
    spectrum = compute_spectrum(output, setup.sample_rate)
    values["analysis.spectrum_ms"] = 1e3 * median_of(
        lambda i: compute_spectrum(output, setup.sample_rate), 5
    )
    values["analysis.measure_tone_ms"] = 1e3 * median_of(
        lambda i: measure_tone(spectrum, fundamental_frequency=setup.frequency, bandwidth=setup.bandwidth),
        5,
    )

    payload = manifest.as_dict()
    provenance = payload.pop("provenance")

    def append(directory: Path, index: int) -> None:
        RunLedger(directory).append(
            "report", {**payload, "probe": index}, design=manifest.design, provenance=provenance
        )

    values["ledger.append_ms.empty"] = 1e3 * median_of(
        lambda i: append(work / f"ledger-empty-{i}", i), 5
    )
    seeded = work / "ledger-seeded"
    common.seed_ledger(seeded, rng)
    values["ledger.append_ms.seeded"] = 1e3 * median_of(lambda i: append(seeded, i), 3)
    return values


def cache_layer(work: Path, rng: random.Random) -> dict[str, float]:
    """Store, hit and miss of the on-disk result cache with sweep-sized entries."""
    import numpy as np

    from repro.runtime.cache import ResultCache

    cache = ResultCache(work / "probe-cache")
    arrays = {
        name: np.array([rng.random() for _ in range(32)])
        for name in ("fundamental_frequency", "signal_power", "harmonic_power", "noise_power", "bandwidth")
    }

    def key(index: int, kind: str) -> dict[str, Any]:
        return {"kind": "amplitude-sweep", "probe": kind, "index": index}

    return {
        "cache.store_ms": 1e3 * median_of(lambda i: cache.store(key(i, "stored"), arrays), 5),
        "cache.load_hit_ms": 1e3 * median_of(lambda i: cache.load(key(i, "stored")), 5),
        "cache.load_miss_ms": 1e3 * median_of(lambda i: cache.load(key(i, "absent")), 5),
    }


def service_layer(work: Path) -> dict[str, float]:
    """Request normalization and a ``/healthz`` round trip of an in-process server."""
    from repro.service import ServiceClient, ServiceConfig, SimulationService, build_server, normalize_request

    requests = [
        {"kind": "report", "design": "mod2", "n_samples": 1 << 14, "sweep": True},
        {"design": "chopper", "n_samples": 1 << 13, "sweep": False, "mismatch": 0.001},
        {"design": "delay-line"},
    ]
    normalize_s = median_of(lambda i: normalize_request(requests[i % len(requests)]), 30)

    service = SimulationService(ServiceConfig(port=0, cache_dir=str(work / "svc-cache"), ledger=False))
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        client.health()
        rtt_s = median_of(lambda i: client.health(), 30)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)
    return {"service.normalize_ms": normalize_s * 1e3, "service.healthz_rtt_ms": rtt_s * 1e3}


def probe_layers(work: Path, seed: int) -> dict[str, float]:
    """Every layer probe; values keyed by their ``BENCHMARK.json`` names."""
    rng = random.Random(seed)
    values: dict[str, float] = {}
    values.update(cli_import(work))
    values.update(kernel_compile(work))
    values.update(single_runs())
    values.update(sweep_rungs())
    values.update(report_layers(work, rng))
    values.update(cache_layer(work, rng))
    values.update(service_layer(work))
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"non-finite layer values: {bad}")
    return values
