"""Execution engines: compiled kernels, vectorized lanes, parallel shards.

The per-sample device loops in :mod:`repro.si` and
:mod:`repro.deltasigma` are exact but slow, and they stay in the tree
as the parity oracle.  This package runs the same dynamics faster,
bit for bit:

* :mod:`repro.runtime.single` -- the dispatch every device ``run``
  method calls first: it runs the selected engine rung, with
  :func:`force_scalar` pinning the scalar oracle and
  :func:`consume_fallbacks` reporting refusals;
* :mod:`repro.runtime.engine` -- :func:`~repro.runtime.engine.use_engine`
  pins a rung (``auto``, ``scalar``, ``batch``, ``kernel``);
* :mod:`repro.runtime.kernels` -- each design lowered to one
  ``KernelSpec`` and generated into two programs: the fused per-sample
  recurrence of one run (the ``kernel`` rung) and the lane-major NumPy
  step program that runs *independent lanes* (sweep points) of a
  memory cell, delay line, biquad cascade or any of the three
  modulators side by side (the ``batch`` rung);
* :mod:`repro.runtime.executor` -- :class:`SweepExecutor`, sharding
  lanes across a ``ProcessPoolExecutor`` with chunking, per-task
  timeouts and deterministic ``SeedSequence.spawn`` seeding;
* :mod:`repro.runtime.cache` -- a keyed on-disk cache so repeated
  reports on unchanged configs skip recomputation;
* :mod:`repro.runtime.sweeps` -- the batched amplitude sweep behind
  ``repro sweep`` and ``repro report --jobs``;
* :mod:`repro.runtime.montecarlo` -- vectorized CMFF mismatch trials.

The determinism contract (see ``docs/RUNTIME.md``): for supported
configurations every rung reproduces the scalar path *bit for bit*,
at any ``--jobs`` value.
"""

from repro.runtime.cache import ResultCache
from repro.runtime.executor import ShardContext, SweepExecutor, SweepTimeoutError
from repro.runtime.kernels import (
    KernelUnsupported,
    fast_forward_streams,
    iter_cells,
    run_lanes,
)
from repro.runtime.lowering import (
    LOWERING_PROTOCOL,
    PROTOCOL_BY_QUALNAME,
    LoweredBase,
    lowering_refusal,
    overridden_hooks,
    probe_refusal,
    protocol_for,
)
from repro.runtime.single import consume_fallbacks, force_scalar, run_single
from repro.runtime.montecarlo import (
    cmff_imbalance_draws,
    cmff_leakage_samples,
    cmff_rejection_samples,
)
from repro.runtime.sweeps import SweepSpec, run_sweep, sweep_spec_for_design

__all__ = [
    "KernelUnsupported",
    "LOWERING_PROTOCOL",
    "LoweredBase",
    "PROTOCOL_BY_QUALNAME",
    "ResultCache",
    "ShardContext",
    "SweepExecutor",
    "SweepSpec",
    "SweepTimeoutError",
    "cmff_imbalance_draws",
    "fast_forward_streams",
    "cmff_leakage_samples",
    "cmff_rejection_samples",
    "consume_fallbacks",
    "force_scalar",
    "iter_cells",
    "lowering_refusal",
    "overridden_hooks",
    "probe_refusal",
    "protocol_for",
    "run_lanes",
    "run_single",
    "run_sweep",
    "sweep_spec_for_design",
]
