"""Optional numba acceleration for compiled kernels, gated bitwise.

The JIT is strictly opt-in by evidence: before any kernel is handed to
numba, this module probes whether numba's compiled ``exp`` matches
NumPy's ``np.exp`` bit-for-bit over a grid spanning the settling
exponents the kernels actually evaluate.  On most toolchains numba
lowers ``exp`` to the platform libm, which differs from NumPy's SIMD
implementation in the last ulp for some arguments -- on such platforms
the probe fails and the tier refuses JIT with a named reason rather
than silently breaking the byte-equality contract.

Environment override: ``REPRO_KERNEL_JIT=0`` disables the JIT
unconditionally (refusal reason ``"disabled by REPRO_KERNEL_JIT"``).
Any other value leaves the default evidence-gated behaviour.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import numpy as np

__all__ = ["jit_availability", "jit_compile", "jit_status"]

#: Cached (factory, reason).  ``factory`` is ``numba.njit`` when the
#: probe passed, else ``None`` and ``reason`` names why.
_PROBED: tuple[Callable[..., Any] | None, str] | None = None


def _probe() -> tuple[Callable[..., Any] | None, str]:
    if os.environ.get("REPRO_KERNEL_JIT") == "0":
        return None, "disabled by REPRO_KERNEL_JIT"
    try:
        import numba  # noqa: PLC0415 - optional dependency probe
    except Exception:  # pragma: no cover - depends on environment
        return None, "numba not importable"
    try:
        njit = numba.njit(cache=False)

        @njit
        def _exp_loop(xs: Any) -> Any:  # pragma: no cover
            out = np.empty_like(xs)
            for i in range(xs.shape[0]):
                out[i] = np.exp(xs[i])
            return out

        grid = np.concatenate(
            [
                -np.logspace(-6.0, 3.0, 2048),
                np.linspace(-30.0, 0.0, 2048),
            ]
        )
        jit_out = _exp_loop(grid)
        reference = np.exp(grid)
        if jit_out.tobytes() != reference.tobytes():
            mismatches = int(
                np.count_nonzero(
                    jit_out.view(np.uint64) != reference.view(np.uint64)
                )
            )
            return (
                None,
                f"numba exp differs bitwise from np.exp "
                f"({mismatches}/{grid.size} grid points)",
            )
        return numba.njit, "active"
    except Exception as error:  # pragma: no cover - environment specific
        return None, f"numba probe failed: {type(error).__name__}"


def jit_availability() -> tuple[Callable[..., Any] | None, str]:
    """Return ``(njit-or-None, reason)``, probing once per process."""
    global _PROBED
    if _PROBED is None:
        _PROBED = _probe()
    return _PROBED


def jit_status() -> str:
    """Human-readable JIT availability ("active" or a refusal reason)."""
    return jit_availability()[1]


def jit_compile(fn: Callable[..., Any]) -> Callable[..., Any] | None:
    """Return a numba-compiled twin of ``fn``, or None when refused."""
    factory, _ = jit_availability()
    if factory is None:
        return None
    try:
        return factory(cache=False)(fn)
    except Exception:  # pragma: no cover - numba internals
        return None
