"""Compiled kernel tier: one spec per design, two generated programs.

A device is lowered once, by :func:`build_spec`, into a frozen
constant-folded :class:`KernelSpec`; that spec is the single source of
truth for both execution shapes, and :func:`build_spec` is the single
source of lowering refusals.  Public surface:

* :func:`build_spec` / :class:`KernelSpec` -- lower a device into a
  spec, or raise :class:`KernelUnsupported` with a named reason;
  :func:`kernel_refusal` predicts that reason (None = lowers).
* :func:`compile_spec` -- the fused per-sample loop of one run
  (optionally numba-JIT); :func:`run_kernel` executes a device run on
  it.
* :func:`compile_lanes` -- the lane-major NumPy step program that runs
  many independent runs side by side; :func:`run_lanes` executes a
  sweep shard (or one ``batch``-pinned run) on it.  Both return a
  cached :class:`KernelProgram` (source, callable, argument layout).
* :func:`fast_forward_streams` / :func:`iter_cells` -- skip a device's
  live streams past earlier lanes; list its cells in kernel order.
* :func:`state_matrices` -- the A/B/C/D linearisation of a spec for
  docs and analysis.

Both programs consume the device's own live random streams and write
its state back, so either is byte-identical to the scalar loop under
``force_scalar()``.
"""

from repro.runtime.kernels.codegen import (
    KernelProgram,
    compile_lanes,
    compile_spec,
)
from repro.runtime.kernels.jit import jit_status
from repro.runtime.kernels.runner import (
    fast_forward_streams,
    iter_cells,
    kernel_refusal,
    run_kernel,
    run_lanes,
)
from repro.runtime.kernels.spec import (
    KernelSpec,
    KernelUnsupported,
    build_spec,
    state_matrices,
)

__all__ = [
    "KernelProgram",
    "KernelSpec",
    "KernelUnsupported",
    "build_spec",
    "compile_lanes",
    "compile_spec",
    "fast_forward_streams",
    "iter_cells",
    "jit_status",
    "kernel_refusal",
    "run_kernel",
    "run_lanes",
    "state_matrices",
]
