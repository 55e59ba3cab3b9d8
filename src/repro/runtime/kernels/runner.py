"""Execute device runs through the compiled kernel tier.

The runner is the glue between a *live* device instance and its
compiled :class:`~repro.runtime.kernels.codegen.KernelProgram`:

1. lower the device to a :class:`KernelSpec` (cached compile),
2. drain every random stream the scalar loop would touch -- the cell
   noise feeds, the quantiser metastability/dither streams, the DAC
   reference-noise stream -- by exactly ``n`` draws from the device's
   **own** stream objects (chunked ``take`` is bit-identical to ``n``
   scalar ``next()`` calls, and independent streams make draw order
   across streams irrelevant),
3. prescale the inputs exactly as the scalar loop's prologue does
   (``0.0 + 0.5 * x`` half-splitting, chopper ``+/-1`` sign products --
   both elementwise-identical in NumPy and scalar code),
4. run the fused loop (numba-JIT when the bitwise probe passed, plain
   Python otherwise),
5. write state back (stored samples, step/slew counters, quantiser
   hysteresis) and flush probe buffers through ``observe_array``,

so a kernel run is indistinguishable -- output bytes, device state,
stream positions, probe statistics -- from the same run under
:func:`repro.runtime.single.force_scalar`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.runtime.kernels.codegen import KernelProgram, compile_lanes, compile_spec
from repro.runtime.kernels.jit import jit_compile, jit_status
from repro.runtime.kernels.spec import KernelUnsupported, build_spec
from repro.si.cascade import BiquadCascade
from repro.si.delay_line import DelayLine
from repro.si.differential import DifferentialSample
from repro.si.memory_cell import ClassABMemoryCell

__all__ = [
    "fast_forward_streams",
    "iter_cells",
    "kernel_refusal",
    "run_kernel",
    "run_lanes",
]


def _device_parts(
    device: object,
) -> tuple[list[tuple[Any, Any]], Any, Any]:
    """Return ``(stages, quantizer, dac)`` in kernel emission order.

    ``stages`` is a list of ``(cell, cmff-or-None)`` pairs mirroring
    :func:`build_spec`'s stage order exactly, so probe slots and state
    writeback line up with the generated argument layout.
    """
    if isinstance(device, ClassABMemoryCell):
        return [(device, None)], None, None
    if isinstance(device, DelayLine):
        return [(cell, None) for cell in device.cells], None, None
    if isinstance(device, BiquadCascade):
        stages = []
        for section in device.sections:
            for stage in (section._int1, section._int2):
                stages.append((stage._cell, stage.cmff))
        return stages, None, None
    if isinstance(device, SIModulator1):
        integ = device._integrator
        return [(integ._cell, integ.cmff)], device.quantizer, device.dac
    if isinstance(device, SIModulator2):
        return (
            [
                (device._int1._cell, device._int1.cmff),
                (device._int2._cell, device._int2.cmff),
            ],
            device.quantizer,
            device.dac,
        )
    if isinstance(device, ChopperStabilizedSIModulator):
        return (
            [
                (device._diff1._cell, device._diff1.cmff),
                (device._diff2._cell, device._diff2.cmff),
            ],
            device.quantizer,
            device.dac,
        )
    raise KernelUnsupported(
        f"no kernel lowering for {type(device).__name__}"
    )


def kernel_refusal(device: object) -> str | None:
    """Predict why ``device`` would refuse the kernel tier (None = runs)."""
    try:
        build_spec(device)
    except KernelUnsupported as error:
        return str(error)
    return None


def _half_split(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise twin of the scalar ``0.0 +/- 0.5 * x`` prologue."""
    half = 0.5 * data
    return 0.0 + half, 0.0 - half


def _chopper_signs(n: int) -> np.ndarray:
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def _ensure_jit(program: KernelProgram) -> None:
    if program.jit_state != "untried":
        return
    compiled = jit_compile(program.fn)
    if compiled is None:
        program.jit_fn = None
        program.jit_state = jit_status()
        if program.jit_state == "active":  # factory ok, this fn refused
            program.jit_state = "jit compile refused for this kernel"
    else:
        program.jit_fn = compiled
        program.jit_state = "active"


def run_kernel(device: object, data: np.ndarray) -> np.ndarray:
    """Run ``device`` over 1-D ``data`` on its compiled kernel.

    Byte-identical to the same run under ``force_scalar()`` on the same
    device instance: outputs, device state, stream positions, and probe
    statistics all match.  Raises :class:`KernelUnsupported` when the
    device has no kernel lowering or ``data`` is not 1-D.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1:
        raise KernelUnsupported("input is not 1-D")
    spec = build_spec(device)
    program = compile_spec(spec)
    stages, quantizer, dac = _device_parts(device)
    n = data.shape[0]
    loop = spec.loop

    arrays: dict[str, np.ndarray] = {}
    scalars: dict[str, Any] = {"n_steps": n}

    signs: np.ndarray | None = None
    if spec.kind in ("cell", "delay", "mod2"):
        arrays["xa"], arrays["xb"] = _half_split(data)
    elif spec.kind == "chopper":
        signs = _chopper_signs(n)
        arrays["xa"], arrays["xb"] = _half_split(signs * data)
    else:
        arrays["xs"] = data

    out = np.zeros(n)
    arrays["out"] = out

    for j, (cell, _) in enumerate(stages):
        arrays[f"hn{j}"] = 0.5 * cell._noise.take(n)
    for name, stream in _loop_streams(quantizer, dac).items():
        arrays[name] = stream.take(n)

    probe_owners = _probe_owners(program, stages)
    for slot in range(len(probe_owners)):
        arrays[f"pb{slot}"] = np.zeros(n)

    for j, (cell, _) in enumerate(stages):
        scalars[f"p{j}"] = cell._stored.pos
        scalars[f"m{j}"] = cell._stored.neg
    if loop is not None:
        scalars["last"] = quantizer._last_decision

    _ensure_jit(program)
    results: tuple[Any, ...] | None = None
    if program.jit_fn is not None:
        args = [
            arrays[name] if name in arrays else scalars[name]
            for name in program.arg_names
        ]
        try:
            results = program.jit_fn(*args)
        except Exception as error:  # numba typing/lowering failure
            program.jit_fn = None
            program.jit_state = (
                f"jit execution failed: {type(error).__name__}"
            )
            results = None
    if results is None:
        lists = {name: value.tolist() for name, value in arrays.items()}
        py_out: list[float] = [0.0] * n
        lists["out"] = py_out
        py_probes: dict[str, list[float]] = {}
        for slot in range(len(program.probe_slots)):
            buf: list[float] = [0.0] * n
            lists[f"pb{slot}"] = buf
            py_probes[f"pb{slot}"] = buf
        args = [
            lists[name] if name in lists else scalars[name]
            for name in program.arg_names
        ]
        results = program.fn(*args)
        out = np.array(py_out)
        for slot_name, buf in py_probes.items():
            arrays[slot_name] = np.array(buf)

    values = dict(
        zip(program.state_names + program.slew_names, results, strict=True)
    )
    for j, (cell, _) in enumerate(stages):
        cell._stored = DifferentialSample(
            float(values[f"p{j}"]), float(values[f"m{j}"])
        )
        cell._steps += n
        cell._slew_events += int(values[f"slews{j}"])
    if loop is not None:
        quantizer._last_decision = int(values["last"])
    if n > 0:
        for slot, owner in enumerate(probe_owners):
            if owner is not None:
                owner.observe_array(arrays[f"pb{slot}"])
    if signs is not None:
        return signs * out
    return out


def iter_cells(device: object) -> list[ClassABMemoryCell]:
    """Return the memory cells of a supported device, in kernel order.

    Raises :class:`KernelUnsupported` for a device type with no
    lowering.
    """
    stages, _, _ = _device_parts(device)
    return [cell for cell, _ in stages]


def _loop_streams(quantizer: Any, dac: Any) -> dict[str, Any]:
    """Return the loop streams a run draws from once per step.

    Keyed by the generated programs' argument names: metastability
    (``meta``), dither (``dith``), DAC reference noise (``dacn``).
    """
    streams: dict[str, Any] = {}
    if quantizer is not None:
        if quantizer.metastability_band > 0.0:
            streams["meta"] = quantizer._stream
        if getattr(quantizer, "dither_rms", 0.0) > 0.0:
            streams["dith"] = quantizer._dither
    if dac is not None and dac.reference_noise_rms > 0.0:
        streams["dacn"] = dac._stream
    return streams


def _probe_owners(
    program: KernelProgram, stages: list[tuple[Any, Any]]
) -> list[Any]:
    """Return the probe fed by each of the program's probe slots."""
    owners: list[Any] = []
    for stage_index, tag in program.probe_slots:
        cell, cmff = stages[stage_index]
        owners.append(cmff._probe if tag == "cmff" else cell._probe)
    return owners


def fast_forward_streams(device: object, count: int) -> None:
    """Advance every random stream of ``device`` by ``count`` draws.

    A run draws once per step from each cell noise feed and each
    active loop stream (metastability, dither, DAC reference noise),
    so a sweep shard starting at lane ``k`` skips ``k * total`` draws
    of each to consume the slices a single sequential device would.
    """
    if count <= 0:
        return
    stages, quantizer, dac = _device_parts(device)
    for cell, _ in stages:
        cell._noise.take(count)
    for stream in _loop_streams(quantizer, dac).values():
        stream.take(count)


#: Steps per call of a lane program.  The runner keeps every stream's
#: draws lane-major, as drained, and builds the step-major per-step
#: arrays (stimulus halves, noise rows, settling flags, loop draws) one
#: block at a time, so they never exist for the whole run at once.
_LANE_BLOCK = 1024


def _feed_loop_probes(
    device: Any, stimuli: np.ndarray, output: np.ndarray
) -> None:
    """Feed a modulator's ``input``/``bitstream`` probes lane by lane.

    The scalar ``run()`` observes its stimulus and bit stream once per
    run; lane ``k`` is run ``k``, so whole lanes in lane order
    reproduce the scalar probe state.
    """
    session = getattr(device, "_telemetry", None)
    if session is None or not hasattr(device, "full_scale"):
        return
    name = device._telemetry_name
    full_scale = device.full_scale
    input_probe = session.probe(f"{name}.input", full_scale=full_scale)
    bitstream_probe = session.probe(f"{name}.bitstream", full_scale=full_scale)
    for lane in range(stimuli.shape[0]):
        input_probe.observe_array(stimuli[lane])
        bitstream_probe.observe_array(output[lane])


def run_lanes(
    device: object, stimuli: np.ndarray, reset: bool = True
) -> np.ndarray:
    """Run the rows of ``stimuli`` as lanes of ``device``'s lane program.

    With ``reset`` (the sweep semantics) lane ``k`` is the ``k``-th of
    ``reset(); run(stimuli[k])`` repeated on this one device: every
    lane starts from the reset state and consumes the ``k``-th slice
    of every live stream, the device ends in the last lane's state
    with its step/slew counters and stream positions, and attached
    probes see the lanes in order.  Without ``reset`` the single lane
    continues from the device's current state, like ``run()`` (whose
    caller feeds the loop probes).  Byte-identical to those scalar
    runs either way.

    Raises :class:`KernelUnsupported` when the device has no lowering,
    ``ValueError`` when ``stimuli`` is not a non-empty 2-D array (one
    row without ``reset``).
    """
    data = np.asarray(stimuli, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError(
            f"stimuli must be a (lanes, steps) array with lanes >= 1, "
            f"got shape {data.shape}"
        )
    if not reset and data.shape[0] != 1:
        raise ValueError("continuing a device's state runs exactly one lane")
    spec = build_spec(device)
    program = compile_lanes(spec)
    stages, quantizer, dac = _device_parts(device)
    if reset:
        device.reset()  # type: ignore[attr-defined]
    n_lanes, n = data.shape
    if n == 0:
        return np.zeros((n_lanes, 0))
    n_cells = len(stages)
    loop = spec.loop

    signs = _chopper_signs(n) if spec.kind == "chopper" else None
    halves = spec.kind not in ("mod1", "cascade")
    # Lane k consumes draws [k * n, (k + 1) * n) of every stream.
    noise = [
        0.5 * cell._noise.take(n_lanes * n).reshape(n_lanes, n)
        for cell, _ in stages
    ]
    streams = {
        name: stream.take(n_lanes * n).reshape(n_lanes, n)
        for name, stream in _loop_streams(quantizer, dac).items()
    }
    if "meta" in streams:
        # Only the draw's side of 0.5 matters inside the band.
        streams["meta"] = streams["meta"] < 0.5

    state = np.empty((2 * n_cells, n_lanes))
    for j, (cell, _) in enumerate(stages):
        state[j] = cell._stored.pos
        state[n_cells + j] = cell._stored.neg
    full: dict[str, np.ndarray] = {}
    if loop is None:
        full["out"] = np.empty((n, n_lanes))
    else:
        full["M"] = masks = np.empty((n, n_lanes), dtype=bool)
        last = np.full(n_lanes, quantizer._last_decision == 1)
    probe_owners = _probe_owners(program, stages)
    for slot in range(len(probe_owners)):
        full[f"pb{slot}"] = np.empty((n, n_lanes))

    block = min(n, _LANE_BLOCK)
    rows = np.empty((block, 2 * n_cells, n_lanes))
    linear = np.empty((block, 2 * n_cells, n_lanes), dtype=bool)
    stimulus = np.empty((block, 2, n_lanes)) if halves else None
    slews = [0] * n_cells
    for start in range(0, n, block):
        stop = min(n, start + block)
        steps = stop - start
        lanes_in = data[:, start:stop]
        if signs is not None:
            lanes_in = signs[start:stop] * lanes_in
        if stimulus is not None:
            half = 0.5 * lanes_in.T
            x = stimulus[:steps]
            np.add(0.0, half, out=x[:, 0, :])
            np.subtract(0.0, half, out=x[:, 1, :])
        else:
            x = np.ascontiguousarray(lanes_in.T)
        noise_rows = rows[:steps]
        for j, half_noise in enumerate(noise):
            noise_rows[:, j, :] = half_noise[:, start:stop].T
            np.negative(half_noise[:, start:stop].T, out=noise_rows[:, n_cells + j, :])
        args: dict[str, Any] = {
            "n_steps": steps,
            "X": x,
            "NA": noise_rows,
            "LIN": linear[:steps],
            "S": state,
        }
        args.update((name, array[start:stop]) for name, array in full.items())
        if loop is not None:
            args["last"] = last if start == 0 else masks[start - 1]
            args.update(
                (name, np.ascontiguousarray(draws[:, start:stop].T))
                for name, draws in streams.items()
            )
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            program.fn(*(args[name] for name in program.arg_names))
        # Only the last lane's slews survive, as after sequential runs;
        # a step slews unless both halves settled linearly.
        for j in range(n_cells):
            both = linear[:steps, j, -1] & linear[:steps, n_cells + j, -1]
            slews[j] += steps - int(np.count_nonzero(both))

    for j, (cell, _) in enumerate(stages):
        cell._stored = DifferentialSample(
            float(state[j, -1]), float(state[n_cells + j, -1])
        )
        cell._steps += n
        cell._slew_events += slews[j]
    if loop is None:
        step_major = full["out"]
    else:
        quantizer._last_decision = 1 if masks[-1, -1] else -1
        step_major = np.where(masks, loop.full_scale, -loop.full_scale)
    output = np.ascontiguousarray(step_major.T)
    if signs is not None:
        output = signs * output
    for slot, owner in enumerate(probe_owners):
        owner.observe_array(np.ascontiguousarray(full[f"pb{slot}"].T).reshape(-1))
    if reset:
        _feed_loop_probes(device, data, output)
    return output
