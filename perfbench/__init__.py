"""The repository benchmark: workloads, layer probes and correctness gates.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload report-cli --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once traced (the
service, which always records its spans, once), then the shared layer
probes, and prints the per-layer metrics.  The last line
of standard output is the JSON result; the lines before it are a
human-readable table and a ``details`` JSON line (provenance, sample
counts, error rate, per-path service latencies).

The gate-can-fail proofs run with::

    PYTHONPATH=src python3 -m pytest perfbench -q

Modules here import ``repro`` only inside functions: the ``sweep-mix``
set-up time includes the package import, so nothing may import it
before the timer starts.
"""
