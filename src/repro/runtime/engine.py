"""Engine selection for device runs and sweep shards.

Every supported device executes bit-identically on three rungs:

* ``scalar`` -- the original per-sample Python loop (the parity
  oracle; :func:`repro.runtime.single.force_scalar` pins it);
* ``batch`` -- the lane-major NumPy program generated from the
  device's :class:`~repro.runtime.kernels.KernelSpec`: many lanes of
  a sweep shard side by side, or one lane for a single run;
* ``kernel`` -- the fused per-sample loop generated from the same
  spec (:mod:`repro.runtime.kernels`), optionally numba-JIT.

:func:`use_engine` pins the rung for runs inside the block; the
default ``auto`` runs the kernel and drops to scalar, with a named
refusal, when the device cannot lower.  The selection is process-local
(sweep worker processes inherit it via the spec, not this stack) and
every executed run is counted in the ``repro.engine.runs`` instrument,
labelled by engine and device type, so manifests and bench telemetry
can attribute timings to the rung that actually ran.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["ENGINES", "current_engine", "use_engine", "record_engine_run"]

#: Selectable engines: the ``auto`` default, then the three rungs.
ENGINES: tuple[str, ...] = ("auto", "scalar", "batch", "kernel")

_stack: list[str] = ["auto"]


def current_engine() -> str:
    """Return the engine pinned by the innermost :func:`use_engine`."""
    return _stack[-1]


@contextmanager
def use_engine(engine: str) -> Iterator[None]:
    """Pin the execution engine for runs inside the block.

    ``scalar`` forces the per-sample oracle, ``batch``/``kernel`` pin
    one lowered rung (falling back to scalar with a recorded refusal
    when the device cannot lower), and ``auto`` restores the default
    (kernel, else scalar).  Nestable; the innermost selection wins.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    _stack.append(engine)
    try:
        yield
    finally:
        _stack.pop()


def record_engine_run(engine: str, device: object, count: int = 1) -> None:
    """Count ``count`` executed runs on ``engine`` for telemetry attribution.

    A batch shard passes its lane count: each lane is one run of the
    scalar reference sweep, so the counter stays comparable across
    rungs.
    """
    # Imported lazily to keep the hot run path free of registry
    # machinery until a run actually completes.
    from repro.observability.instruments import get_registry

    get_registry().counter(
        "repro.engine.runs",
        help="single-device runs by executing engine tier",
    ).inc(float(count), engine=engine, device=type(device).__name__)
