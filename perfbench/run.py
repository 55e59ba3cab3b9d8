"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report-cli --seed 1 --seconds 36 --trace 0

Workloads: ``report-cli``, ``sweep-mix``, ``service-mix`` (see each
module's docstring and ``BENCHMARK.json``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
traced pass plus the shared layer probes.  The last line of standard
output is the JSON result.  Exits 2 without a result when the checkout
does not hold the ``repro`` sources.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = {
    "report-cli": "perfbench.report_cli",
    "sweep-mix": "perfbench.sweep_mix",
    "service-mix": "perfbench.service_mix",
}

#: Per-layer metrics read from a workload's own traffic; they stay 0 on
#: a workload that sends no such traffic (no cache, ledger or service).
TRAFFIC_DEFAULTS = {
    "cache.hit_ratio": 0.0,
    "ledger.entries": 0.0,
    "service.dedup_ratio": 0.0,
    "service.queue_wait_ms": 0.0,
    "service.run_ms": 0.0,
    "service.new_p50_ms": 0.0,
    "service.coalesced_p50_ms": 0.0,
    "service.completed_p50_ms": 0.0,
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        common.ensure_import_path()
    except common.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = importlib.import_module(WORKLOADS[args.workload])
    if workload.SINGLE_CPU:
        # The host-speed probes run in this process; pinning it and its
        # children to one CPU makes the probe and the work it scales
        # share that CPU, whose speed can differ from its sibling's.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with common.workspace() as work:
        if args.trace:
            from perfbench.layers import probe_layers

            values, tally, details = workload.traced(args.seed, work)
            values = {**TRAFFIC_DEFAULTS, **probe_layers(work, args.seed), **values}
            section = "per_layer"
        else:
            values, tally, details = workload.measure(args.seed, args.seconds, work)
            section = "end_to_end"
    common.emit(args.workload, section, values, tally, {"seed": args.seed, **details})
    return 0


if __name__ == "__main__":
    sys.exit(main())
