"""Single-run dispatch: every device ``run()`` routes through here.

Each supported device's ``run`` method calls :func:`run_single` first
and falls through to its own per-sample scalar loop when that returns
``None``.  The engine pinned by :func:`repro.runtime.engine.use_engine`
picks the rung:

* ``auto`` (the default) and ``kernel`` run the compiled state-space
  kernel (:mod:`repro.runtime.kernels`);
* ``batch`` runs the lane-major program generated from the same
  :class:`~repro.runtime.kernels.KernelSpec`, as one lane;
* ``scalar`` always declines, leaving the device on its scalar loop.

Both lowered rungs go through :func:`~repro.runtime.kernels.build_spec`,
so they accept and refuse exactly the same devices.

Whatever rung runs is **bit-identical** to the scalar loop: it leaves
the devices' own random streams where the per-sample loop would and
writes device state (stored samples, step/slew counters, quantiser
hysteresis) back after the run, so lowered and scalar runs interleave
freely.  Attached telemetry probes are lowered too.

The scalar loop remains the *parity oracle*: wrap a run in
:func:`force_scalar` (the same pin as ``use_engine("scalar")``) to
execute it, and use :func:`consume_fallbacks` to check which runs (if
any) refused a lowered rung and why.  See ``docs/RUNTIME.md`` ("The
engine ladder").
"""

from __future__ import annotations

from contextlib import AbstractContextManager

import numpy as np

from repro.runtime.engine import current_engine, record_engine_run, use_engine

__all__ = ["run_single", "force_scalar", "consume_fallbacks"]

#: Upper bound on retained fallback messages; keeps a long-running
#: session from accumulating unbounded diagnostics.
_MAX_FALLBACKS = 1024

_fallbacks: list[str] = []


def force_scalar() -> AbstractContextManager[None]:
    """Pin the per-sample scalar loop inside the block (the parity oracle).

    The same pin as ``use_engine("scalar")``: runs inside the block
    count as ``scalar`` in ``repro.engine.runs`` and are not fallbacks.
    """
    return use_engine("scalar")


def consume_fallbacks() -> list[str]:
    """Return and clear the recorded lowering refusal reasons.

    Each entry is ``"<DeviceType>: <reason>"`` for one ``run_single``
    call whose lowered rung refused the run (scalar-pinned runs are
    not recorded).  An empty list means every routed run was lowered.
    """
    global _fallbacks
    out = _fallbacks
    _fallbacks = []
    return out


def _note(device: object, reason: str) -> None:
    if len(_fallbacks) < _MAX_FALLBACKS:
        _fallbacks.append(f"{type(device).__name__}: {reason}")
    # Imported lazily to keep the module-import footprint (and the hot
    # accept path) free of registry machinery.
    from repro.observability.instruments import get_registry

    get_registry().counter(
        "repro.single.fallbacks",
        help="single runs that refused the kernel (or a pinned batch rung)",
    ).inc(device=type(device).__name__)
    return None


def _run_kernel_single(device: object, data: np.ndarray) -> np.ndarray | None:
    """Run one device through the compiled kernel, or note its refusal."""
    from repro.runtime.kernels import KernelUnsupported, run_kernel

    try:
        return run_kernel(device, data)
    except KernelUnsupported as error:
        return _note(device, str(error))


def _run_lanes_single(device: object, data: np.ndarray) -> np.ndarray | None:
    """Run one device as a single lane of its lane-major program.

    The lane continues from the device's current state, consuming its
    live streams like the kernel does, so the ``batch`` pin needs no
    fresh device and no seeds.
    """
    from repro.runtime.kernels import KernelUnsupported, run_lanes

    if data.ndim != 1:
        return _note(device, "input is not 1-D")
    try:
        return run_lanes(device, data[np.newaxis, :], reset=False)[0]
    except KernelUnsupported as error:
        return _note(device, str(error))


def run_single(device: object, data: np.ndarray) -> np.ndarray | None:
    """Run ``device`` over 1-D ``data`` on the selected engine.

    The engine comes from :func:`repro.runtime.engine.use_engine`:
    ``auto`` (the default) and ``kernel`` run the compiled kernel,
    ``batch`` runs the lane-major program as one lane and ``scalar``
    (also :func:`force_scalar`) always declines.  Whatever rung runs
    is bit-identical to the device's scalar loop, with device state
    and random streams advanced identically.

    Returns the output array, or ``None`` when the caller must fall
    through to its scalar loop: the engine is pinned to ``scalar``, or
    the lowered rung refused the run (an exotic subclass, a non-1-D
    input, an unpaired probe) and noted why for
    :func:`consume_fallbacks`.  Each run is counted in the
    ``repro.engine.runs`` instrument under the rung that actually ran.
    """
    engine = current_engine()
    if engine == "scalar":
        result = None
    elif engine == "batch":
        result = _run_lanes_single(device, data)
    else:
        result = _run_kernel_single(device, data)
    if result is None:
        record_engine_run("scalar", device)
    else:
        record_engine_run("batch" if engine == "batch" else "kernel", device)
    return result
