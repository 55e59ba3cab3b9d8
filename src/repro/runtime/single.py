"""Single-run dispatch: every device ``run()`` routes through here.

Each supported device's ``run`` method calls :func:`run_single` first
and falls through to its own per-sample scalar loop when that returns
``None``.  The engine pinned by :func:`repro.runtime.engine.use_engine`
picks the rung:

* ``auto`` (the default) and ``kernel`` run the compiled state-space
  kernel (:mod:`repro.runtime.kernels`), the only single-run lowering;
* ``batch`` runs the NumPy lane engine at ``n_lanes == 1``;
* ``scalar`` always declines, leaving the device on its scalar loop.

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

from repro.deltasigma.quantizer import CurrentQuantizer
from repro.runtime.engine import current_engine, record_engine_run, use_engine
from repro.si.differential import DifferentialSample

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


def _run_batch_single(device: object, data: np.ndarray) -> np.ndarray | None:
    """Run one device through the batch engine at ``n_lanes == 1``.

    The batch engine replays every random stream from its origin with a
    fresh :class:`~repro.noise.streams` instance, so this rung only
    applies to devices whose streams are still at the origin (no prior
    steps).  After the run the device's own streams are fast-forwarded
    and its cell/quantiser state written back, leaving the device in
    exactly the state the scalar loop would have produced.
    """
    from repro.runtime.batch import (
        BatchUnsupported,
        batch_runner_for,
        fast_forward_streams,
        iter_cells,
    )

    if data.ndim != 1:
        return _note(device, "input is not 1-D")
    n = int(data.shape[0])
    if n == 0:
        return _note(device, "batch single-run needs at least one sample")
    try:
        cells = list(iter_cells(device))
    except BatchUnsupported as error:
        return _note(device, str(error))
    if any(cell._steps != 0 for cell in cells):
        return _note(
            device,
            "batch single-run replays streams from origin and needs a "
            "fresh device",
        )
    # The device's own run() feeds its loop probes after we return, so
    # detach telemetry for the replay to avoid feeding them twice.
    session = getattr(device, "_telemetry", None)
    if session is not None:
        device._telemetry = None
    try:
        runner = batch_runner_for(device, 1, n)
        output = runner.run(data[np.newaxis, :])
    except BatchUnsupported as error:
        return _note(device, str(error))
    finally:
        if session is not None:
            device._telemetry = session
    bank = runner._bank
    for index, cell in enumerate(cells):
        cell._stored = DifferentialSample(
            float(bank.state[2 * index, 0]), float(bank.state[2 * index + 1, 0])
        )
        cell._steps += n
        cell._slew_events += int(bank.slew_counts[index, 0])
    fast_forward_streams(device, n)
    out = np.ascontiguousarray(output[0])
    quantizer = getattr(device, "quantizer", None)
    if isinstance(quantizer, CurrentQuantizer):
        # The bitstream is decision * full_scale (chopped back to the
        # input frame for the chopper), so the final decision is
        # recoverable from the last output sample's sign.
        from repro.deltasigma.chopper_modulator import (
            ChopperStabilizedSIModulator,
        )

        last_value = float(out[-1])
        if (
            isinstance(device, ChopperStabilizedSIModulator)
            and (n - 1) % 2 == 1
        ):
            last_value = -last_value
        quantizer._last_decision = 1 if last_value > 0.0 else -1
    return out


def run_single(device: object, data: np.ndarray) -> np.ndarray | None:
    """Run ``device`` over 1-D ``data`` on the selected engine.

    The engine comes from :func:`repro.runtime.engine.use_engine`:
    ``auto`` (the default) and ``kernel`` run the compiled kernel,
    ``batch`` runs the lane engine at ``n_lanes == 1`` and ``scalar``
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
        result = _run_batch_single(device, data)
    else:
        result = _run_kernel_single(device, data)
    if result is None:
        record_engine_run("scalar", device)
    else:
        record_engine_run("batch" if engine == "batch" else "kernel", device)
    return result
