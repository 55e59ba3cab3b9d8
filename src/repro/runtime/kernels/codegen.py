"""Per-spec source generation: one spec, two emitters.

Each :class:`~repro.runtime.kernels.spec.KernelSpec` is compiled into
two programs.  :func:`compile_spec` emits the per-sample kernel of one
run; :func:`compile_lanes` emits the lane-major NumPy step program
that runs many independent runs side by side (see "The lane-major
emitter" below).  Both walk the same spec and apply the same folding
rules.  The per-sample kernel is one flat Python function whose body
is the scalar device loop with
every abstraction *folded at generation time*: cell constants, loop
coefficients and mirror gains become ``repr`` float literals, stages
unroll, and identity operations are elided where IEEE-754 proves them
bitwise-invisible.  The folding rules, each load-bearing for the
byte-equality contract:

* ``x * 1.0`` is the bitwise identity for every float (including
  ``-0.0``, ``inf``, NaN payload) -- unit gains and coefficients are
  elided;
* ``a - 0.0`` is the identity for every ``a`` (even ``-0.0``), so a
  zero quantiser threshold folds away;
* ``a + 0.0`` is **not** the identity (``-0.0 + 0.0 == +0.0``), so the
  half-splitting ``0.0 + half`` / ``0.0 - half`` normalisations and the
  CMFF bias terms are always kept;
* constants combined *at generation time* with the same operations the
  scalar loop performs at run time (``1.0 + 0.5 * mismatch``,
  ``fb_pos * b2``) produce the identical 64-bit value, so feedback
  branch constants fold when the DAC is noiseless;
* ``exp`` stays ``np.exp`` on scalars (``math.exp`` differs bitwise on
  this pipeline's argument range); ``sqrt`` is correctly rounded
  everywhere and may come from ``math``.

The kernel source is shared verbatim between the pure-Python mode
(lists in, preallocated list out) and the optional numba JIT mode
(arrays in, preallocated array out) -- see
:mod:`repro.runtime.kernels.jit` for the bit-exactness probe that
gates the latter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.runtime.kernels.spec import (
    CellSpec,
    CmffSpec,
    KernelSpec,
    LoopSpec,
    StageSpec,
)

__all__ = [
    "KernelProgram",
    "compile_lanes",
    "compile_spec",
    "kernel_source",
    "lanes_source",
]


def _lit(value: float) -> str:
    """Return the exact round-trip literal for a float constant."""
    return repr(float(value))


class _Source:
    """Indented line accumulator for the generated function body."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _scaled(expr: str, coefficient: float) -> str:
    """Return ``expr * coefficient`` with the exact-identity fold."""
    if coefficient == 1.0:
        return expr
    return f"{expr} * {_lit(coefficient)}"


def _prescaled(coefficient: float, expr: str) -> str:
    """Return ``coefficient * expr`` with the exact-identity fold."""
    if coefficient == 1.0:
        return expr
    return f"{_lit(coefficient)} * {expr}"


def _emit_store(
    src: _Source,
    depth: int,
    cell: CellSpec,
    prev: str,
    target: str,
    out_value: str,
    out_slew: str,
) -> None:
    """Emit the fused ``_store_half`` body with the cell's literals.

    Line-for-line transliteration of
    :meth:`repro.si.memory_cell.ClassABMemoryCell._store_half` (the
    translinear split, transmission error, charge-injection residue
    and two-regime GGA settling), with every constant inlined as a
    literal.
    """
    iq = _lit(cell.iq_squared)
    bias = _lit(cell.bias)
    src.line(depth, f"half = 0.5 * {target}")
    src.line(depth, f"root = sqrt(half * half + {iq})")
    src.line(depth, "if half >= 0.0:")
    src.line(depth + 1, "device_n = half + root")
    src.line(depth, "else:")
    src.line(depth + 1, f"device_n = {iq} / (root - half)")
    t_floor = _lit(cell.trans_floor)
    src.line(depth, f"current = device_n if device_n >= {t_floor} else {t_floor}")
    src.line(
        depth,
        f"value = {target} * (1.0 - {_lit(cell.trans_ratio)}"
        f" * sqrt({_lit(cell.trans_iq)} / current))",
    )
    if cell.inj_floor != cell.trans_floor:
        # Different clamp floors: recompute exactly as the scalar does.
        j_floor = _lit(cell.inj_floor)
        src.line(
            depth, f"current = device_n if device_n >= {j_floor} else {j_floor}"
        )
    src.line(
        depth,
        f"value = value + {_lit(cell.inj_residual)}"
        f" * sqrt(current / {_lit(cell.inj_iq)})",
    )
    src.line(depth, f"delta = value - {prev} + {_lit(cell.kick)} * value")
    src.line(depth, "if delta == 0.0:")
    src.line(depth + 1, f"{out_value} = value")
    src.line(depth + 1, f"{out_slew} = False")
    src.line(depth, "else:")
    src.line(depth + 1, f"margin = 1.0 - abs(value) / {bias}")
    floor = _lit(cell.margin_floor)
    src.line(depth + 1, f"if margin < {floor}:")
    src.line(depth + 2, f"margin = {floor}")
    src.line(depth + 1, f"n_tau = margin / {_lit(cell.tau_fraction)}")
    src.line(depth + 1, "magnitude = abs(delta)")
    src.line(depth + 1, f"if magnitude <= {bias}:")
    src.line(depth + 2, f"{out_value} = value - delta * float(exp(-n_tau))")
    src.line(depth + 2, f"{out_slew} = False")
    src.line(depth + 1, "else:")
    src.line(depth + 2, "sign = 1.0 if delta > 0.0 else -1.0")
    src.line(depth + 2, f"slew_tau = (magnitude - {bias}) / {bias}")
    src.line(depth + 2, "if slew_tau >= n_tau:")
    src.line(depth + 3, f"residual = sign * (magnitude - {bias} * n_tau)")
    src.line(depth + 2, "else:")
    src.line(
        depth + 3,
        f"residual = sign * {bias} * float(exp(-(n_tau - slew_tau)))",
    )
    src.line(depth + 2, f"{out_value} = value - residual")
    src.line(depth + 2, f"{out_slew} = True")


def _emit_cmff(src: _Source, depth: int, cmff: CmffSpec) -> None:
    """Emit the CMFF apply on ``t_pos``/``t_neg`` (biases always kept)."""

    def sense(gain: float, bias: float, var: str) -> str:
        return f"({_prescaled(gain, var)} + {_lit(bias)})"

    src.line(
        depth,
        "i_cm = "
        + sense(cmff.sense_pos_gain, cmff.sense_pos_bias, "t_pos")
        + " + "
        + sense(cmff.sense_neg_gain, cmff.sense_neg_bias, "t_neg"),
    )
    subtract_pos = sense(cmff.subtract_pos_gain, cmff.subtract_pos_bias, "i_cm")
    subtract_neg = sense(cmff.subtract_neg_gain, cmff.subtract_neg_bias, "i_cm")
    src.line(depth, f"t_pos = t_pos - {subtract_pos}")
    src.line(depth, f"t_neg = t_neg - {subtract_neg}")


@dataclass
class _Layout:
    """Argument and probe-slot bookkeeping shared with the runner."""

    arg_names: list[str] = field(default_factory=list)
    probe_slots: list[tuple[int, str]] = field(default_factory=list)
    state_names: list[str] = field(default_factory=list)
    slew_names: list[str] = field(default_factory=list)

    def probe_arg(self, stage_index: int, tag: str) -> str:
        self.probe_slots.append((stage_index, tag))
        name = f"pb{len(self.probe_slots) - 1}"
        self.arg_names.append(name)
        return name


def _emit_stage(
    src: _Source,
    depth: int,
    stage: StageSpec,
    index: int,
    u_pos: str,
    u_neg: str,
    probe_args: dict[tuple[int, str], str],
) -> None:
    """Emit one integrator/differentiator step updating ``p{j}``/``m{j}``."""
    j = index
    state_pos, state_neg = (f"m{j}", f"p{j}") if stage.crossed else (
        f"p{j}",
        f"m{j}",
    )
    src.line(depth, f"t_pos = {state_pos} + {_scaled(u_pos, stage.gain)}")
    src.line(depth, f"t_neg = {state_neg} + {_scaled(u_neg, stage.gain)}")
    if stage.cmff is not None:
        _emit_cmff(src, depth, stage.cmff)
        cmff_arg = probe_args.get((j, "cmff"))
        if cmff_arg is not None:
            src.line(depth, f"{cmff_arg}[i] = 0.5 * (t_pos + t_neg)")
    cell_arg = probe_args.get((j, "cell"))
    if cell_arg is not None:
        src.line(depth, f"{cell_arg}[i] = t_pos - t_neg")
    _emit_store(src, depth, stage.cell, f"p{j}", "t_pos", "sp", "slp")
    _emit_store(src, depth, stage.cell, f"m{j}", "t_neg", "sm", "slm")
    if stage.cell.mismatch != 0.0:
        src.line(depth, f"sp = sp * {_lit(1.0 + 0.5 * stage.cell.mismatch)}")
        src.line(depth, f"sm = sm * {_lit(1.0 - 0.5 * stage.cell.mismatch)}")
    src.line(depth, f"p{j} = sp + hn{j}[i]")
    src.line(depth, f"m{j} = sm - hn{j}[i]")
    src.line(depth, "if slp or slm:")
    src.line(depth + 1, f"slews{j} = slews{j} + 1")


def _emit_decision(
    src: _Source, depth: int, loop: LoopSpec, base: str
) -> None:
    """Emit the quantiser decision for the differential value ``base``."""
    if loop.dither_rms > 0.0:
        dithered = f"(({base}) + dith[i])"
    else:
        dithered = f"({base})"
    if loop.offset == 0.0 and loop.hysteresis == 0.0:
        # threshold == +0.0 and `a - 0.0` is the IEEE identity.
        src.line(depth, f"eff = {dithered if loop.dither_rms > 0.0 else base}")
    else:
        threshold = (
            f"({_lit(loop.offset)} - {_lit(loop.hysteresis)} * last)"
        )
        src.line(depth, f"eff = {dithered} - {threshold}")
    if loop.band > 0.0:
        src.line(depth, f"if abs(eff) < {_lit(loop.band)}:")
        src.line(depth + 1, "decision = 1 if meta[i] < 0.5 else -1")
        src.line(depth, "else:")
        src.line(depth + 1, "decision = 1 if eff >= 0.0 else -1")
    else:
        src.line(depth, "decision = 1 if eff >= 0.0 else -1")
    src.line(depth, "last = decision")


def _feedback_levels(
    loop: LoopSpec, b2: float
) -> tuple[tuple[float, float, float, float], ...]:
    """``(fb_pos, fb_neg, fb2_pos, fb2_neg)`` after a +1, then a -1 decision.

    A noiseless DAC makes the feedback two-valued, so each half and its
    ``b2``-scaled copy fold to constants computed with the exact
    run-time expressions.
    """
    levels = []
    for level in (loop.level_pos, loop.level_neg):
        fb_half = 0.5 * level
        fb_pos = 0.0 + fb_half
        fb_neg = 0.0 - fb_half
        levels.append((fb_pos, fb_neg, fb_pos * b2, fb_neg * b2))
    return tuple(levels)


def _emit_feedback_halves(
    src: _Source, depth: int, loop: LoopSpec, b2: float
) -> None:
    """Emit ``fb_pos``/``fb_neg`` (and folded ``fb2_*`` = ``fb_* * b2``).

    With a noiseless DAC the feedback is two-valued per decision, so
    every derived quantity folds to a literal computed here with the
    exact run-time expressions.
    """
    if loop.dac_rms == 0.0:
        src.line(depth, "if decision == 1:")
        for index, values in enumerate(_feedback_levels(loop, b2)):
            if index == 1:
                src.line(depth, "else:")
            for name, value in zip(("fb_pos", "fb_neg", "fb2_pos", "fb2_neg"), values):
                src.line(depth + 1, f"{name} = {_lit(value)}")
    else:
        src.line(
            depth,
            f"feedback = ({_lit(loop.level_pos)} if decision == 1"
            f" else {_lit(loop.level_neg)}) + dacn[i]",
        )
        src.line(depth, "fb_half = 0.5 * feedback")
        src.line(depth, "fb_pos = 0.0 + fb_half")
        src.line(depth, "fb_neg = 0.0 - fb_half")
        src.line(depth, f"fb2_pos = {_scaled('fb_pos', b2)}")
        src.line(depth, f"fb2_neg = {_scaled('fb_neg', b2)}")


def _loop_stream_args(layout: _Layout, loop: LoopSpec) -> None:
    if loop.band > 0.0:
        layout.arg_names.append("meta")
    if loop.dither_rms > 0.0:
        layout.arg_names.append("dith")
    if loop.dac_rms > 0.0:
        layout.arg_names.append("dacn")


def _probe_args(
    layout: _Layout, stages: tuple[StageSpec, ...]
) -> dict[tuple[int, str], str]:
    """Allocate probe buffer arguments in canonical (cell, cmff) order."""
    args: dict[tuple[int, str], str] = {}
    for index, stage in enumerate(stages):
        if stage.cell.probed:
            args[(index, "cell")] = layout.probe_arg(index, "cell")
        if stage.cmff is not None and stage.cmff.probed:
            args[(index, "cmff")] = layout.probe_arg(index, "cmff")
    return args


def _state_args(layout: _Layout, n_cells: int, with_last: bool) -> None:
    for j in range(n_cells):
        layout.state_names.extend((f"p{j}", f"m{j}"))
    if with_last:
        layout.state_names.append("last")
    layout.slew_names = [f"slews{j}" for j in range(n_cells)]
    layout.arg_names.extend(layout.state_names)


def kernel_source(spec: KernelSpec) -> tuple[str, _Layout]:
    """Generate the kernel function source and its argument layout."""
    stages = spec.all_stages
    n_cells = len(stages)
    layout = _Layout()
    src = _Source()
    layout.arg_names.append("n_steps")
    if spec.kind in ("cell", "delay", "mod2", "chopper"):
        layout.arg_names.extend(("xa", "xb"))
    else:
        layout.arg_names.append("xs")
    layout.arg_names.append("out")
    layout.arg_names.extend(f"hn{j}" for j in range(n_cells))
    if spec.loop is not None:
        _loop_stream_args(layout, spec.loop)
    probe_args = _probe_args(layout, stages)
    _state_args(layout, n_cells, with_last=spec.loop is not None)

    src.line(0, f"def kernel({', '.join(layout.arg_names)}):")
    for j in range(n_cells):
        src.line(1, f"slews{j} = 0")
    src.line(1, "for i in range(n_steps):")
    d = 2

    if spec.kind == "cell":
        stage = stages[0]
        cell_arg = probe_args.get((0, "cell"))
        if cell_arg is not None:
            src.line(d, f"{cell_arg}[i] = xa[i] - xb[i]")
        _emit_store(src, d, stage.cell, "p0", "xa[i]", "sp", "slp")
        _emit_store(src, d, stage.cell, "m0", "xb[i]", "sm", "slm")
        if stage.cell.mismatch != 0.0:
            src.line(d, f"sp = sp * {_lit(1.0 + 0.5 * stage.cell.mismatch)}")
            src.line(d, f"sm = sm * {_lit(1.0 - 0.5 * stage.cell.mismatch)}")
        if stage.cell.inverting:
            src.line(d, "out[i] = (-p0) - (-m0)")
        else:
            src.line(d, "out[i] = p0 - m0")
        src.line(d, "p0 = sp + hn0[i]")
        src.line(d, "m0 = sm - hn0[i]")
        src.line(d, "if slp or slm:")
        src.line(d + 1, "slews0 = slews0 + 1")
    elif spec.kind == "delay":
        src.line(d, "v_pos = xa[i]")
        src.line(d, "v_neg = xb[i]")
        for j, stage in enumerate(stages):
            cell_arg = probe_args.get((j, "cell"))
            if cell_arg is not None:
                src.line(d, f"{cell_arg}[i] = v_pos - v_neg")
            src.line(d, f"hp = p{j}")
            src.line(d, f"hm = m{j}")
            _emit_store(src, d, stage.cell, "hp", "v_pos", "sp", "slp")
            _emit_store(src, d, stage.cell, "hm", "v_neg", "sm", "slm")
            if stage.cell.mismatch != 0.0:
                src.line(
                    d, f"sp = sp * {_lit(1.0 + 0.5 * stage.cell.mismatch)}"
                )
                src.line(
                    d, f"sm = sm * {_lit(1.0 - 0.5 * stage.cell.mismatch)}"
                )
            src.line(d, f"p{j} = sp + hn{j}[i]")
            src.line(d, f"m{j} = sm - hn{j}[i]")
            src.line(d, "if slp or slm:")
            src.line(d + 1, f"slews{j} = slews{j} + 1")
            if stage.cell.inverting:
                src.line(d, "v_pos = -hp")
                src.line(d, "v_neg = -hm")
            else:
                src.line(d, "v_pos = hp")
                src.line(d, "v_neg = hm")
        src.line(d, "out[i] = v_pos - v_neg")
    elif spec.kind == "cascade":
        src.line(d, "signal = xs[i]")
        for s, section in enumerate(spec.sections):
            j1, j2 = 2 * s, 2 * s + 1
            src.line(d, f"w1 = p{j1} - m{j1}")
            src.line(d, f"w2 = p{j2} - m{j2}")
            inner = f"(signal - {_prescaled(section.q, 'w1')} - w2)"
            src.line(d, f"u1 = {_prescaled(section.k1, inner)}")
            src.line(d, f"u2 = {_prescaled(section.k2, 'w1')}")
            src.line(d, "u1h = 0.5 * u1")
            src.line(d, "u1p = 0.0 + u1h")
            src.line(d, "u1m = 0.0 - u1h")
            _emit_stage(src, d, section.first, j1, "u1p", "u1m", probe_args)
            src.line(d, "u2h = 0.5 * u2")
            src.line(d, "u2p = 0.0 + u2h")
            src.line(d, "u2m = 0.0 - u2h")
            _emit_stage(src, d, section.second, j2, "u2p", "u2m", probe_args)
            src.line(d, "signal = w1")
        src.line(d, "out[i] = signal")
    elif spec.kind == "mod1":
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, d, loop, "p0 - m0")
        if loop.dac_rms == 0.0:
            src.line(
                d,
                f"feedback = {_lit(loop.level_pos)} if decision == 1"
                f" else {_lit(loop.level_neg)}",
            )
        else:
            src.line(
                d,
                f"feedback = ({_lit(loop.level_pos)} if decision == 1"
                f" else {_lit(loop.level_neg)}) + dacn[i]",
            )
        src.line(
            d, f"u_half = 0.5 * ({_prescaled(spec.a1, '(xs[i] - feedback)')})"
        )
        src.line(d, "u_pos = 0.0 + u_half")
        src.line(d, "u_neg = 0.0 - u_half")
        _emit_stage(src, d, stages[0], 0, "u_pos", "u_neg", probe_args)
        src.line(d, f"out[i] = decision * {_lit(loop.full_scale)}")
    elif spec.kind in ("mod2", "chopper"):
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, d, loop, "p1 - m1")
        _emit_feedback_halves(src, d, loop, spec.b2)
        if spec.kind == "mod2":
            src.line(d, f"u1_pos = {_scaled('(xa[i] - fb_pos)', spec.a1)}")
            src.line(d, f"u1_neg = {_scaled('(xb[i] - fb_neg)', spec.a1)}")
            src.line(d, f"u2_pos = {_scaled('p0', spec.a2)} - fb2_pos")
            src.line(d, f"u2_neg = {_scaled('m0', spec.a2)} - fb2_neg")
        else:
            neg_a1 = -spec.a1
            src.line(d, f"u1_pos = {_scaled('(xa[i] - fb_pos)', neg_a1)}")
            src.line(d, f"u1_neg = {_scaled('(xb[i] - fb_neg)', neg_a1)}")
            src.line(d, f"u2_pos = fb2_pos - {_scaled('p0', spec.a2)}")
            src.line(d, f"u2_neg = fb2_neg - {_scaled('m0', spec.a2)}")
        _emit_stage(src, d, stages[0], 0, "u1_pos", "u1_neg", probe_args)
        _emit_stage(src, d, stages[1], 1, "u2_pos", "u2_neg", probe_args)
        src.line(d, f"out[i] = decision * {_lit(loop.full_scale)}")
    else:  # pragma: no cover - build_spec never produces other kinds
        raise ValueError(f"unknown kernel kind {spec.kind!r}")

    returns = layout.state_names + layout.slew_names
    src.line(1, f"return {', '.join(returns)}")
    return src.text(), layout


@dataclass
class KernelProgram:
    """One compiled kernel: source, callables, and argument layout."""

    spec: KernelSpec
    source: str
    fn: Callable[..., Any]
    arg_names: tuple[str, ...]
    probe_slots: tuple[tuple[int, str], ...]
    state_names: tuple[str, ...]
    slew_names: tuple[str, ...]
    #: numba-compiled callable, populated lazily by the runner.
    jit_fn: Callable[..., Any] | None = None
    #: "untried", "active", or the named refusal reason.
    jit_state: str = "untried"


_CACHE: dict[tuple[str, KernelSpec], KernelProgram] = {}


def _compile(
    spec: KernelSpec,
    label: str,
    generate: Callable[[KernelSpec], tuple[str, _Layout]],
    namespace: dict[str, Any],
) -> KernelProgram:
    """Return the cached program ``generate`` emits for ``spec``."""
    program = _CACHE.get((label, spec))
    if program is not None:
        return program
    source, layout = generate(spec)
    namespace = dict(namespace)
    exec(  # noqa: S102 - the source is generated from frozen spec literals
        compile(source, f"<repro-{label}:{spec.kind}>", "exec"), namespace
    )
    program = KernelProgram(
        spec=spec,
        source=source,
        fn=namespace[label],
        arg_names=tuple(layout.arg_names),
        probe_slots=tuple(layout.probe_slots),
        state_names=tuple(layout.state_names),
        slew_names=tuple(layout.slew_names),
    )
    _CACHE[(label, spec)] = program
    return program


def compile_spec(spec: KernelSpec) -> KernelProgram:
    """Return the (cached) compiled per-sample kernel for ``spec``."""
    return _compile(
        spec, "kernel", kernel_source, {"sqrt": math.sqrt, "exp": np.exp}
    )


# ---------------------------------------------------------------------------
# The lane-major emitter
# ---------------------------------------------------------------------------
#
# The same spec walk, lowered to whole-array NumPy statements over a
# lane axis: lane k of the program is the k-th of a sequence of
# independent runs from the same starting state.  Every half-circuit
# of every cell of every lane sits in one ``(rows, L)`` state array
# ``S`` laid out half-major -- rows ``0..C-1`` hold the positive halves
# of cells ``0..C-1``, rows ``C..2C-1`` the negative halves -- so one
# fused store per clock settles them all.  Each statement reproduces
# the scalar kernel's expression for its rows, operation for
# operation, with its output array passed positionally; constants
# become full-size arrays of the same ``repr`` literals (per row when
# cells differ), because an operand of matching shape dispatches
# faster than a Python float or a broadcast column.  Decisions are one
# bool mask per step, turned into ``+/-full_scale`` after the loop.


class _Prologue:
    """Constants and scratch arrays the lane program declares up front."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.buffers: set[str] = set()
        self._consts: dict[tuple[object, ...], str] = {}

    def _const(self, key: tuple[object, ...], expr: str) -> str:
        if key not in self._consts:
            self._consts[key] = f"k{len(self._consts)}"
            self.lines.append(f"{self._consts[key]} = {expr}")
        return self._consts[key]

    def rows(self, values: tuple[float, ...]) -> str:
        """A ``(len(values), L)`` constant; row r holds ``values[r]``."""
        literals = ", ".join(_lit(v) for v in values)
        return self._const(values, f"rows(({literals},), L)")

    def lane(self, value: float) -> str:
        """An ``(L,)`` constant filled with ``value``."""
        return self._const(("lane", value), f"full(L, {_lit(value)})")

    def buffer(self, name: str, rows: int | None = None, dtype: str = "float") -> str:
        """A scratch array of ``rows`` lane rows (one ``(L,)`` row if None)."""
        if name not in self.buffers:
            self.buffers.add(name)
            shape = "L" if rows is None else f"({rows}, L)"
            self.lines.append(f"{name} = empty({shape}, dtype={dtype})")
        return name


def _emit_affine(
    src: _Source,
    d: int,
    pro: _Prologue,
    operand: str,
    gains: tuple[float, ...],
    biases: tuple[float, ...],
    out: str,
) -> None:
    """Emit ``out = gains * operand + biases`` (unit gains elided)."""
    if any(g != 1.0 for g in gains):
        src.line(d, f"mul({operand}, {pro.rows(gains)}, {out})")
        operand = out
    src.line(d, f"add({operand}, {pro.rows(biases)}, {out})")


def _emit_lane_store(
    src: _Source, d: int, cells: tuple[CellSpec, ...], pro: _Prologue
) -> None:
    """Emit the fused store of every half-circuit of every lane.

    :func:`_emit_store` on the targets ``T`` against the held state
    ``S``, writing the settled state (plus noise) back into ``S``.  The
    scalar branches become selections: ``root + |half|`` equals both
    ``half + root`` (``half >= 0``) and ``root - half`` (``half < 0``)
    exactly; the ``delta == 0`` shortcut equals the small-step branch
    bit for bit; ``margin / -tau`` is ``-(margin / tau)`` exactly
    (division rounds sign-symmetrically).  ``LIN[i]`` records the scalar
    test ``magnitude <= bias`` (a NaN step slews, as in the scalar
    loop); the slew branch only runs on steps where some half slews,
    since its values are only selected there.  The transmission and injection square roots share one call
    on a stacked ``(2 * rows, L)`` buffer.
    """
    rows = 2 * len(cells)

    def k(name: str) -> str:
        return pro.rows(tuple(getattr(c, name) for c in cells) * 2)

    h, ah, r, dn, cur, a, v, dl, nnt, e, sm, mag = (
        pro.buffer(f"st_{name}", rows)
        for name in ("h", "ah", "r", "dn", "cur", "a", "v", "dl", "nnt", "e", "sm", "mag")
    )
    pm = pro.buffer("st_pm", rows, "bool")
    both = pro.buffer("st_both", 2 * rows)
    iq, bias, one = k("iq_squared"), k("bias"), pro.rows((1.0,) * rows)
    scales = tuple(c.trans_ratio for c in cells) * 2 + tuple(
        c.inj_residual for c in cells
    ) * 2
    lines = [
        f"mul(T, {pro.rows((0.5,) * rows)}, {h})",
        f"absolute({h}, {ah})",
        f"mul({ah}, {ah}, {r})",
        f"add({r}, {iq}, {r})",
        f"sqrt({r}, {r})",
        f"add({r}, {ah}, {r})",
        f"div({iq}, {r}, {dn})",
        f"ge({h}, {pro.rows((0.0,) * rows)}, {pm})",
        f"putmask({dn}, {pm}, {r})",
        f"maximum({dn}, {k('trans_floor')}, out={cur})",
        f"div({k('trans_iq')}, {cur}, {both}[:{rows}])",
    ]
    if any(c.inj_floor != c.trans_floor for c in cells):
        lines.append(f"maximum({dn}, {k('inj_floor')}, out={cur})")
    lines += [
        f"div({cur}, {k('inj_iq')}, {both}[{rows}:])",
        f"sqrt({both}, {both})",
        f"mul({pro.rows(scales)}, {both}, {both})",
        f"sub({one}, {both}[:{rows}], {a})",
        f"mul(T, {a}, {v})",
        f"add({v}, {both}[{rows}:], {v})",
        f"sub({v}, S, {dl})",
        f"mul({k('kick')}, {v}, {a})",
        f"add({dl}, {a}, {dl})",
        f"absolute({v}, {a})",
        f"div({a}, {bias}, {a})",
        f"sub({one}, {a}, {a})",
        f"maximum({a}, {k('margin_floor')}, out={a})",
        f"div({a}, {pro.rows(tuple(-c.tau_fraction for c in cells) * 2)}, {nnt})",
        f"exp({nnt}, {e})",
        f"mul({dl}, {e}, {sm})",
        f"absolute({dl}, {mag})",
        "lin = LIN[i]",
        f"less_equal({mag}, {bias}, lin)",
    ]
    for line in lines:
        src.line(d, line)
    src.line(d, f"if count_nonzero(lin) != {rows} * L:")
    for line in (
        "slewed = logical_not(lin)",
        f"sign = where(greater({dl}, 0.0), 1.0, -1.0)",
        f"slew_tau = div(sub({mag}, {bias}), {bias})",
        f"n_tau = negative({nnt})",
        f"full_slew = mul(sign, sub({mag}, mul({bias}, n_tau)))",
        f"partial = mul(mul(sign, {bias}), exp(negative(sub(n_tau, slew_tau))))",
        f"copyto({sm}, where(ge(slew_tau, n_tau), full_slew, partial), where=slewed)",
    ):
        src.line(d + 1, line)
    src.line(d, f"sub({v}, {sm}, S)")
    if any(c.mismatch != 0.0 for c in cells):
        factors = tuple(1.0 + 0.5 * c.mismatch for c in cells) + tuple(
            1.0 - 0.5 * c.mismatch for c in cells
        )
        src.line(d, f"mul(S, {pro.rows(factors)}, S)")
    src.line(d, "add(S, NA[i], S)")


def _emit_lane_cmff(
    src: _Source, d: int, stages: tuple[StageSpec, ...], pro: _Prologue
) -> None:
    """Emit the CMFF apply of every CMFF stage on the targets ``T``.

    :func:`_emit_cmff` with each stage's halves as rows, biases kept:
    every stage in one pass when all have CMFF, else stage by stage.
    """
    n = len(stages)
    present = [j for j, stage in enumerate(stages) if stage.cmff is not None]
    spans = [(0, n)] if len(present) == n else [(j, j + 1) for j in present]
    for a, b in spans:
        m = b - a
        specs = [stages[j].cmff for j in range(a, b)]

        def column(name: str) -> tuple[float, ...]:
            return tuple(getattr(c, name) for c in specs)

        pos, neg = f"T[{a}:{b}]", f"T[C + {a}:C + {b}]"
        w, icm = pro.buffer(f"cm_w{a}", 2 * m), pro.buffer(f"cm_i{a}", m)
        if m == n:  # the halves tile T: sense both in one pass
            sense = column("sense_pos_gain") + column("sense_neg_gain")
            sense_bias = column("sense_pos_bias") + column("sense_neg_bias")
            _emit_affine(src, d, pro, "T", sense, sense_bias, w)
        else:
            for half, out, side in ((pos, f"{w}[:{m}]", "pos"), (neg, f"{w}[{m}:]", "neg")):
                _emit_affine(
                    src, d, pro, half,
                    column(f"sense_{side}_gain"), column(f"sense_{side}_bias"), out,
                )
        src.line(d, f"add({w}[:{m}], {w}[{m}:], {icm})")
        subtract = {
            side: (column(f"subtract_{side}_gain"), column(f"subtract_{side}_bias"))
            for side in ("pos", "neg")
        }
        v_pos = pro.buffer(f"cm_vp{a}", m)
        _emit_affine(src, d, pro, icm, *subtract["pos"], v_pos)
        v_neg = v_pos
        if subtract["neg"] != subtract["pos"]:
            v_neg = pro.buffer(f"cm_vn{a}", m)
            _emit_affine(src, d, pro, icm, *subtract["neg"], v_neg)
        src.line(d, f"sub({pos}, {v_pos}, {pos})")
        src.line(d, f"sub({neg}, {v_neg}, {neg})")


def _emit_lane_decision(
    src: _Source, d: int, loop: LoopSpec, quantized: int, pro: _Prologue
) -> None:
    """Emit every lane's quantiser decision into the mask ``M[i]``.

    :func:`_emit_decision` on the differential of cell ``quantized``;
    the hysteresis threshold is two-valued per lane, folded to the
    literals the scalar ``offset - hysteresis * last`` gives.
    """
    eff = pro.buffer("q_eff")
    src.line(d, f"sub(S[{quantized}], S[C + {quantized}], {eff})")
    if loop.dither_rms > 0.0:
        src.line(d, f"add({eff}, dith[i], {eff})")
    if loop.hysteresis != 0.0:
        pos = pro.lane(loop.offset - loop.hysteresis * 1)
        neg = pro.lane(loop.offset - loop.hysteresis * -1)
        src.line(d, f"sub({eff}, where(last, {pos}, {neg}), {eff})")
    elif loop.offset != 0.0:
        src.line(d, f"sub({eff}, {pro.lane(loop.offset)}, {eff})")
    src.line(d, "mi = M[i]")
    src.line(d, f"ge({eff}, {pro.lane(0.0)}, mi)")
    if loop.band > 0.0:
        inside = pro.buffer("q_in", None, "bool")
        src.line(d, f"absolute({eff}, {eff})")
        src.line(d, f"less({eff}, {pro.lane(loop.band)}, {inside})")
        src.line(d, f"copyto(mi, meta[i], where={inside})")
    if loop.hysteresis != 0.0:
        src.line(d, "last = mi")


def _emit_lane_feedback(
    src: _Source, d: int, loop: LoopSpec, b2: float, pro: _Prologue
) -> str:
    """Emit a two-stage loop's feedback rows; return their array's name.

    Rows follow the state layout: ``fb_pos``, ``fb2_pos``, ``fb_neg``,
    ``fb2_neg``.  A noiseless DAC selects them from the literals
    :func:`_feedback_levels` folds; a noisy one evaluates
    :func:`_emit_feedback_halves`'s expressions per lane.
    """
    fb = pro.buffer("fb", 4)
    if loop.dac_rms == 0.0:
        after_pos, after_neg = (
            (fb_pos, fb2_pos, fb_neg, fb2_neg)
            for fb_pos, fb_neg, fb2_pos, fb2_neg in _feedback_levels(loop, b2)
        )
        src.line(d, f"copyto({fb}, {pro.rows(after_neg)})")
        src.line(d, f"copyto({fb}, {pro.rows(after_pos)}, where=mi)")
        return fb
    level, zero = pro.buffer("fb_level"), pro.lane(0.0)
    src.line(d, f"copyto({level}, {pro.lane(loop.level_neg)})")
    src.line(d, f"putmask({level}, mi, {pro.lane(loop.level_pos)})")
    src.line(d, f"add({level}, dacn[i], {level})")
    src.line(d, f"mul({level}, {pro.lane(0.5)}, {level})")
    src.line(d, f"add({zero}, {level}, {fb}[0])")
    src.line(d, f"sub({zero}, {level}, {fb}[2])")
    for row in (1, 3):
        if b2 == 1.0:
            src.line(d, f"copyto({fb}[{row}], {fb}[{row - 1}])")
        else:
            src.line(d, f"mul({fb}[{row - 1}], {pro.lane(b2)}, {fb}[{row}])")
    return fb


def _emit_lane_wiring(src: _Source, d: int, spec: KernelSpec, pro: _Prologue) -> None:
    """Emit the per-kind wiring up to the store targets ``T``.

    Open-loop kinds also write the output ``out[i]``; loops write the
    decision mask.  Stage inputs land in ``U`` and become
    ``T = state + U * gain`` (crossed for differentiators).
    """
    stages = spec.all_stages
    n = len(stages)
    loop = spec.loop
    pos, neg = f"S[{n - 1}]", f"S[C + {n - 1}]"
    if stages[-1].cell.inverting:
        pos, neg = f"negative({pos})", f"negative({neg})"
    if spec.kind == "cell":
        src.line(d, "T = X[i]")
        src.line(d, f"sub({pos}, {neg}, out[i])")
        return
    pro.buffer("T", 2 * n)
    if spec.kind == "delay":
        src.line(d, "copyto(T[0::C], X[i])")
        for j in range(1, n):
            # Cell j stores what cell j-1 held, negated if it inverts.
            for held, target in ((f"S[{j - 1}]", f"T[{j}]"), (f"S[C + {j - 1}]", f"T[C + {j}]")):
                if stages[j - 1].cell.inverting:
                    src.line(d, f"negative({held}, {target})")
                else:
                    src.line(d, f"copyto({target}, {held})")
        src.line(d, f"sub({pos}, {neg}, out[i])")
        return
    pro.buffer("U", 2 * n)
    if spec.kind == "cascade":
        w, raw, acc = pro.buffer("w", n), pro.buffer("u_raw", n), pro.buffer("u_acc")
        src.line(d, f"sub(S[:C], S[C:], {w})")
        signal = "X[i]"
        for s, section in enumerate(spec.sections):
            w1, w2 = f"{w}[{2 * s}]", f"{w}[{2 * s + 1}]"
            if section.q == 1.0:
                src.line(d, f"sub({signal}, {w1}, {acc})")
            else:
                src.line(d, f"mul({pro.lane(section.q)}, {w1}, {acc})")
                src.line(d, f"sub({signal}, {acc}, {acc})")
            src.line(d, f"sub({acc}, {w2}, {acc})")
            for coefficient, operand, row in ((section.k1, acc, 2 * s), (section.k2, w1, 2 * s + 1)):
                if coefficient == 1.0:
                    src.line(d, f"copyto({raw}[{row}], {operand})")
                else:
                    src.line(d, f"mul({pro.lane(coefficient)}, {operand}, {raw}[{row}])")
            signal = w1
        src.line(d, f"copyto(out[i], {signal})")
        zero = pro.rows((0.0,) * n)
        src.line(d, f"mul({pro.rows((0.5,) * n)}, {raw}, {raw})")
        src.line(d, f"add({zero}, {raw}, U[:C])")
        src.line(d, f"sub({zero}, {raw}, U[C:])")
    elif spec.kind == "mod1":
        assert loop is not None
        _emit_lane_decision(src, d, loop, 0, pro)
        e, zero = pro.buffer("u_e"), pro.lane(0.0)
        src.line(d, f"copyto({e}, {pro.lane(loop.level_neg)})")
        src.line(d, f"putmask({e}, mi, {pro.lane(loop.level_pos)})")
        if loop.dac_rms > 0.0:
            src.line(d, f"add({e}, dacn[i], {e})")
        src.line(d, f"sub(X[i], {e}, {e})")
        if spec.a1 != 1.0:
            src.line(d, f"mul({pro.lane(spec.a1)}, {e}, {e})")
        src.line(d, f"mul({pro.lane(0.5)}, {e}, {e})")
        src.line(d, f"add({zero}, {e}, U[0])")
        src.line(d, f"sub({zero}, {e}, U[1])")
    else:  # mod2 / chopper: cell 0 is rows 0 and 2, cell 1 rows 1 and 3
        assert loop is not None and spec.kind in ("mod2", "chopper")
        _emit_lane_decision(src, d, loop, 1, pro)
        fb = _emit_lane_feedback(src, d, loop, spec.b2, pro)
        src.line(d, f"sub(X[i], {fb}[0::2], U[0::2])")
        a1 = spec.a1 if spec.kind == "mod2" else -spec.a1
        if a1 != 1.0:
            src.line(d, f"mul(U[0::2], {pro.rows((a1, a1))}, U[0::2])")
        held = "S[0::2]"
        if spec.a2 != 1.0:
            held = pro.buffer("u_a2", 2)
            src.line(d, f"mul(S[0::2], {pro.rows((spec.a2, spec.a2))}, {held})")
        if spec.kind == "mod2":
            src.line(d, f"sub({held}, {fb}[1::2], U[1::2])")
        else:
            src.line(d, f"sub({fb}[1::2], {held}, U[1::2])")
    gains = tuple(stage.gain for stage in stages) * 2
    if any(g != 1.0 for g in gains):
        src.line(d, f"mul(U, {pro.rows(gains)}, U)")
    if stages[0].crossed:
        src.line(d, "add(S[C:], U[:C], T[:C])")
        src.line(d, "add(S[:C], U[C:], T[C:])")
    else:
        src.line(d, "add(S, U, T)")


def lanes_source(spec: KernelSpec) -> tuple[str, _Layout]:
    """Generate the lane-major program source and its argument layout.

    Arguments: ``n_steps``; the stimulus ``X`` (``(n, 2, L)`` halves
    for cell/delay/mod2/chopper, ``(n, L)`` for mod1/cascade); the
    noise rows ``NA`` (``(n, rows, L)``: ``+0.5 n`` on positive rows,
    ``-0.5 n`` on negative ones); the linear-settling flags ``LIN``
    (``(n, rows, L)`` bool, written: the half did not slew); the state
    ``S`` (``(rows, L)``, updated in
    place); then ``out`` (``(n, L)``) for open-loop kinds, or the
    decision masks ``M`` (``(n, L)`` bool, written) and the starting
    ``last`` mask for loops; the loop streams; the probe buffers.
    """
    stages = spec.all_stages
    layout = _Layout()
    layout.arg_names.extend(("n_steps", "X", "NA", "LIN", "S"))
    if spec.loop is None:
        layout.arg_names.append("out")
    else:
        layout.arg_names.extend(("M", "last"))
        _loop_stream_args(layout, spec.loop)
    probe_args = _probe_args(layout, stages)

    pro = _Prologue()
    body = _Source()
    _emit_lane_wiring(body, 2, spec, pro)
    _emit_lane_cmff(body, 2, stages, pro)
    for (j, tag), arg in probe_args.items():
        if tag == "cmff":
            body.line(2, f"mul(add(T[{j}], T[C + {j}]), 0.5, {arg}[i])")
        else:
            body.line(2, f"sub(T[{j}], T[C + {j}], {arg}[i])")
    _emit_lane_store(body, 2, tuple(stage.cell for stage in stages), pro)

    views, body_lines = _hoist_views(body.lines, pro.buffers | {"S"})
    src = _Source()
    src.line(0, f"def lanes({', '.join(layout.arg_names)}):")
    src.line(1, "L = S.shape[1]")
    src.line(1, f"C = {len(stages)}")
    for text in pro.lines + views:
        src.line(1, text)
    src.line(1, "for i in range(n_steps):")
    src.lines.extend(body_lines)
    return src.text(), layout


_SUBSCRIPT = re.compile(r"\b([A-Za-z_][A-Za-z_0-9]*)\[([^\[\]]*)\]")


def _hoist_views(
    lines: list[str], persistent: set[str]
) -> tuple[list[str], list[str]]:
    """Move step-invariant views of persistent arrays into the prologue.

    ``S[0::2]`` inside the loop would build the same view every step;
    every array it can be taken from is only ever written in place, so
    the view is taken once.  Subscripts mentioning the step ``i`` stay.
    """
    names: dict[str, str] = {}

    def hoist(match: re.Match[str]) -> str:
        if match.group(1) not in persistent or re.search(r"\bi\b", match.group(2)):
            return match.group(0)
        return names.setdefault(match.group(0), f"v{len(names)}")

    body = [_SUBSCRIPT.sub(hoist, line) for line in lines]
    return [f"{name} = {expr}" for expr, name in names.items()], body


def _rows(values: tuple[float, ...], lanes: int) -> np.ndarray:
    """Return a ``(len(values), lanes)`` array with row r set to values[r]."""
    return np.repeat(np.array(values, dtype=np.float64)[:, None], lanes, axis=1)


#: The lane program's namespace: NumPy ufuncs under short names.
_LANE_NAMESPACE: dict[str, Any] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "absolute": np.absolute,
    "negative": np.negative,
    "maximum": np.maximum,
    "ge": np.greater_equal,
    "greater": np.greater,
    "less": np.less,
    "less_equal": np.less_equal,
    "logical_not": np.logical_not,
    "where": np.where,
    "copyto": np.copyto,
    "putmask": np.putmask,
    "count_nonzero": np.count_nonzero,
    "empty": np.empty,
    "full": np.full,
    "rows": _rows,
}


def compile_lanes(spec: KernelSpec) -> KernelProgram:
    """Return the (cached) compiled lane-major program for ``spec``."""
    return _compile(spec, "lanes", lanes_source, _LANE_NAMESPACE)
