"""Bit-exact equivalence of the lane-major program against the scalar loops.

The ``batch`` rung (:func:`repro.runtime.kernels.run_lanes`, the
lane-major program generated from the device's ``KernelSpec``) rests
on one claim: for every supported device, running N lanes side by side
produces *byte-identical* output to driving a twin of the same device
lane by lane on the scalar loop (reset between lanes, every random
stream running on), and leaves the device in the same state.  These
tests assert that claim with ``tobytes()`` -- no tolerance, ever --
across noise on/off, mismatch, metastability, dither, DAC noise,
probes and every device type, plus the refusal cases
:func:`~repro.runtime.kernels.build_spec` still raises.  Lanes consume
the device's live streams, so unseeded configurations lower too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import copy

from repro.config import (
    MODULATOR_CLOCK,
    delay_line_cell_config,
    paper_cell_config,
)
from dataclasses import replace
from repro.deltasigma import (
    ChopperStabilizedSIModulator,
    SIModulator1,
    SIModulator2,
)
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.runtime.engine import use_engine
from repro.runtime.kernels import (
    KernelUnsupported,
    fast_forward_streams,
    iter_cells,
    run_lanes,
)
from repro.si import DelayLine
from repro.si.cascade import BiquadCascade
from repro.si.memory_cell import ClassABMemoryCell

N_LANES = 3
N_STEPS = 400


def _stimuli(n_lanes: int = N_LANES, n_steps: int = N_STEPS) -> np.ndarray:
    t = np.arange(n_steps)
    carrier = np.sin(2.0 * np.pi * 13.0 * t / n_steps)
    amplitudes = 3e-6 * 10.0 ** (-np.arange(n_lanes, dtype=float) * 0.5)
    return amplitudes[:, None] * carrier[None, :]


def _scalar_lanes(device, stimuli: np.ndarray) -> np.ndarray:
    """The reference semantics: lane-sequential scalar runs on one device."""
    outputs = np.empty_like(stimuli)
    with use_engine("scalar"):
        for lane in range(stimuli.shape[0]):
            device.reset()
            outputs[lane] = device.run(stimuli[lane])
    return outputs


def _device_state(device) -> tuple:
    """Cell state and counters, hysteresis, and each stream's next draw."""
    cells = tuple(
        (
            cell._stored.pos,
            cell._stored.neg,
            cell._steps,
            cell._slew_events,
            cell._noise.next(),
        )
        for cell in iter_cells(device)
    )
    loop = ()
    quantizer = getattr(device, "quantizer", None)
    if quantizer is not None:
        loop = (
            quantizer._last_decision,
            quantizer._stream.next(),
            device.dac._stream.next(),
        )
        if hasattr(quantizer, "_dither"):
            loop += (quantizer._dither.next(),)
    return cells, loop


def _assert_bit_identical(device, stimuli: np.ndarray) -> None:
    twin = copy.deepcopy(device)
    lanes = run_lanes(device, stimuli)
    scalar = _scalar_lanes(twin, stimuli)
    assert lanes.tobytes() == scalar.tobytes()
    assert _device_state(device) == _device_state(twin)


class TestDeviceEquivalence:
    def test_memory_cell(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(ClassABMemoryCell(config), _stimuli())

    def test_memory_cell_noiseless(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            thermal_noise_rms=0.0,
        )
        _assert_bit_identical(ClassABMemoryCell(config), _stimuli())

    def test_memory_cell_with_mismatch(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            half_gain_mismatch=0.01,
        )
        _assert_bit_identical(ClassABMemoryCell(config), _stimuli())

    def test_delay_line(self):
        line = DelayLine(delay_line_cell_config(), n_cells=2)
        _assert_bit_identical(line, _stimuli())

    def test_biquad_cascade(self):
        cascade = BiquadCascade(
            center_frequency=10e3,
            n_sections=2,
            sample_rate=MODULATOR_CLOCK,
            config=paper_cell_config(sample_rate=MODULATOR_CLOCK),
        )
        _assert_bit_identical(cascade, _stimuli())

    def test_modulator1(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(SIModulator1(cell_config=config), _stimuli())

    def test_modulator2(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(SIModulator2(cell_config=config), _stimuli())

    def test_chopper(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            ChopperStabilizedSIModulator(cell_config=config), _stimuli()
        )

    def test_modulator2_with_degradations(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            thermal_noise_rms=66e-9,
            half_gain_mismatch=0.02,
        )
        _assert_bit_identical(SIModulator2(cell_config=config), _stimuli())

    def test_modulator2_metastable_quantizer(self):
        # Metastability lowers: the runner drains the quantizer's own
        # uniform stream once and slices it lane-major.
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            SIModulator2(
                cell_config=config,
                quantizer=CurrentQuantizer(metastability_band=8e-8, seed=11),
            ),
            _stimuli(),
        )

    def test_modulator2_noisy_dac(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            SIModulator2(
                cell_config=config,
                dac=FeedbackDac(reference_noise_rms=3e-8, seed=12),
            ),
            _stimuli(),
        )

    def test_chopper_metastable_and_noisy(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            ChopperStabilizedSIModulator(
                cell_config=config,
                quantizer=CurrentQuantizer(
                    offset=1e-8, hysteresis=2e-8, metastability_band=8e-8, seed=13
                ),
                dac=FeedbackDac(level_mismatch=0.01, reference_noise_rms=3e-8, seed=14),
            ),
            _stimuli(),
        )

    def test_probed_modulator_lowers(self):
        # Attached probes lower: the lane program buffers the scalar
        # loop's observation targets and feeds them lane-major, so
        # counts and extrema match the scalar run exactly.
        from repro.telemetry.session import TelemetrySession

        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        stimuli = _stimuli()

        scalar_session = TelemetrySession("probe-scalar")
        scalar_device = SIModulator2(cell_config=config)
        scalar_device.attach_telemetry(scalar_session)
        scalar = _scalar_lanes(scalar_device, stimuli)

        batch_session = TelemetrySession("probe-batch")
        batch_device = SIModulator2(cell_config=config)
        batch_device.attach_telemetry(batch_session)
        batch = run_lanes(batch_device, stimuli)

        assert batch.tobytes() == scalar.tobytes()
        assert sorted(batch_session.probes) == sorted(scalar_session.probes)
        for name, expected in scalar_session.probes.items():
            lowered = batch_session.probes[name]
            assert lowered.count == expected.count
            assert lowered.minimum == expected.minimum
            assert lowered.maximum == expected.maximum
            assert lowered.clip_fraction == expected.clip_fraction
            assert lowered.rms == pytest.approx(expected.rms, rel=1e-12)
            assert lowered.mean == pytest.approx(expected.mean, rel=1e-9, abs=1e-24)


def _square(n_lanes: int = N_LANES, n_steps: int = N_STEPS) -> np.ndarray:
    """Large steps: most stores take the GGA slew branch."""
    pattern = np.where(np.arange(n_steps) % 7 < 3, 1.0, -1.0)
    return np.array([2e-4, 6e-5, 3e-5][:n_lanes])[:, None] * pattern


class TestSlewAndMixedCells:
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: ClassABMemoryCell(c),
            lambda c: DelayLine(delay_line_cell_config(), n_cells=3),
            lambda c: SIModulator2(cell_config=c),
            lambda c: ChopperStabilizedSIModulator(cell_config=c),
        ],
        ids=["cell", "delay-line", "modulator2", "chopper"],
    )
    def test_slewing_lanes(self, build):
        device = build(paper_cell_config(sample_rate=MODULATOR_CLOCK))
        _assert_bit_identical(device, _square())
        assert any(cell._slew_events for cell in iter_cells(device))

    def test_cells_with_different_configs(self):
        # Cells that differ fold their constants per row instead of as
        # one literal; mixed inversion changes the wiring per cell.
        base = delay_line_cell_config()
        line = DelayLine(base, n_cells=3)
        line.cells[1] = ClassABMemoryCell(
            replace(base, half_gain_mismatch=0.03, inverting=False, seed=5)
        )
        line.cells[2] = ClassABMemoryCell(
            replace(base, quiescent_current=3e-6, seed=6)
        )
        _assert_bit_identical(line, _stimuli())
        _assert_bit_identical(line, _square())

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: DelayLine(delay_line_cell_config(), n_cells=2),
            lambda c: BiquadCascade(
                center_frequency=10e3, n_sections=1, sample_rate=MODULATOR_CLOCK, config=c
            ),
            lambda c: SIModulator1(cell_config=c),
            lambda c: ChopperStabilizedSIModulator(cell_config=c),
        ],
        ids=["delay-line", "cascade", "modulator1", "chopper"],
    )
    def test_non_finite_inputs(self, build):
        # NaN and +/-inf samples run through the same operations as the
        # scalar loop: same values, same NaN positions, same slew
        # counts.  NaN *bits* are not part of the contract: where two
        # NaNs meet in an add or multiply, NumPy's vector loops may swap
        # the operands, so which NaN survives can depend on lane width.
        stimuli = _stimuli()
        stimuli[0, 50] = np.nan
        stimuli[1, 20] = np.inf
        stimuli[2, 100] = -np.inf
        device = build(paper_cell_config(sample_rate=MODULATOR_CLOCK))
        twin = copy.deepcopy(device)
        with np.errstate(all="ignore"):
            lanes = run_lanes(device, stimuli)
            scalar = _scalar_lanes(twin, stimuli)
        assert np.array_equal(lanes, scalar, equal_nan=True)
        for cell, reference in zip(iter_cells(device), iter_cells(twin)):
            stored = [cell._stored.pos, cell._stored.neg]
            assert np.array_equal(
                stored, [reference._stored.pos, reference._stored.neg], equal_nan=True
            )
            assert (cell._steps, cell._slew_events) == (
                reference._steps,
                reference._slew_events,
            )

    def test_block_boundaries_are_invisible(self, monkeypatch):
        # The runner feeds the program in step blocks; state, the
        # hysteresis mask and slew counts must carry across them.
        import repro.runtime.kernels.runner as runner

        monkeypatch.setattr(runner, "_LANE_BLOCK", 37)
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        chopper = ChopperStabilizedSIModulator(
            cell_config=config,
            quantizer=CurrentQuantizer(
                offset=1e-8, hysteresis=2e-8, metastability_band=8e-8, seed=13
            ),
            dac=FeedbackDac(reference_noise_rms=3e-8, seed=14),
        )
        _assert_bit_identical(chopper, _square())
        _assert_bit_identical(DelayLine(delay_line_cell_config()), _square())

    def test_uncommon_constants_fold_exactly(self):
        # The emitter's less travelled folds: distinct injection and
        # transmission floors, non-unit a1/a2/b2 and stage gain, an
        # offset-only threshold, DAC noise with b2 != 1, CMFF on one
        # stage only with unequal subtract mirrors, unit biquad
        # coefficients.
        from repro.devices.current_mirror import CurrentMirror
        from repro.si.cmff import CommonModeFeedforward

        base = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        config = replace(
            base, injection=replace(base.injection, quiescent_current=3e-6)
        )
        modulator = SIModulator2(
            cell_config=config,
            a1=0.7,
            a2=0.8,
            b2=0.9,
            quantizer=CurrentQuantizer(offset=2e-8),
            dac=FeedbackDac(reference_noise_rms=3e-8, seed=4),
        )
        modulator._int1.cmff = None
        modulator._int2.cmff = CommonModeFeedforward(
            subtract_neg=CurrentMirror(gain_error=0.01)
        )
        modulator._int2.gain = 0.9
        _assert_bit_identical(modulator, _stimuli())
        cascade = BiquadCascade(
            center_frequency=10e3,
            n_sections=2,
            sample_rate=MODULATOR_CLOCK,
            config=config,
        )
        cascade.sections[0].q = 1.0
        cascade.sections[1].k1 = 1.0
        cascade.sections[1].k2 = 1.0
        _assert_bit_identical(cascade, _stimuli())

    def test_probed_delay_line(self):
        from repro.telemetry.session import TelemetrySession

        stimuli = _stimuli()
        stats = []
        for run in (_scalar_lanes, run_lanes):
            session = TelemetrySession("delay")
            line = DelayLine(delay_line_cell_config(), n_cells=2)
            line.attach_telemetry(session)
            out = run(line, stimuli)
            stats.append(
                (
                    out.tobytes(),
                    {
                        name: (probe.count, probe.minimum, probe.maximum)
                        for name, probe in session.probes.items()
                    },
                )
            )
        assert stats[0] == stats[1]


class TestLaneOffset:
    def test_offset_runner_matches_tail_lanes(self):
        # A shard starting at lane k (its device's streams skipped past
        # the first k lanes) must reproduce lanes k..N of the full run
        # exactly -- this is what makes the sharded sweep independent
        # of its chunk layout.
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        stimuli = _stimuli(n_lanes=5)
        full = run_lanes(SIModulator2(cell_config=config), stimuli)
        tail_device = SIModulator2(cell_config=config)
        fast_forward_streams(tail_device, 2 * N_STEPS)
        tail = run_lanes(tail_device, stimuli[2:])
        assert tail.tobytes() == full[2:].tobytes()

    def test_continued_single_lane_matches_the_scalar_run(self):
        # Without reset the one lane continues from the device's state
        # and stream positions -- the `batch` pin of a plain run().
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        stimuli = _stimuli(n_lanes=2)
        device = SIModulator2(cell_config=config)
        twin = copy.deepcopy(device)
        first = run_lanes(device, stimuli[:1])
        second = run_lanes(device, stimuli[1:], reset=False)
        with use_engine("scalar"):
            want_first = twin(stimuli[0])
            want_second = twin.run(stimuli[1])
        assert first[0].tobytes() == want_first.tobytes()
        assert second[0].tobytes() == want_second.tobytes()
        assert _device_state(device) == _device_state(twin)


class TestBatchShapeProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        n_lanes=st.integers(min_value=1, max_value=6),
        n_steps=st.integers(min_value=8, max_value=96),
        amplitude=st.floats(min_value=1e-8, max_value=6e-6),
    )
    def test_memory_cell_any_shape(self, n_lanes, n_steps, amplitude):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        t = np.arange(n_steps)
        carrier = np.sin(2.0 * np.pi * 3.0 * t / max(n_steps, 1))
        scales = np.linspace(1.0, 0.25, n_lanes)
        stimuli = amplitude * scales[:, None] * carrier[None, :]
        _assert_bit_identical(ClassABMemoryCell(config), stimuli)

    @settings(max_examples=10, deadline=None)
    @given(
        n_lanes=st.integers(min_value=1, max_value=9),
        n_steps=st.integers(min_value=1, max_value=64),
        amplitude=st.floats(min_value=1e-8, max_value=2e-5),
    )
    def test_modulator2_any_shape(self, n_lanes, n_steps, amplitude):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        t = np.arange(n_steps)
        carrier = np.sin(2.0 * np.pi * 3.0 * t / n_steps)
        scales = np.linspace(1.0, 0.25, n_lanes)
        stimuli = amplitude * scales[:, None] * carrier[None, :]
        _assert_bit_identical(SIModulator2(cell_config=config), stimuli)


class TestRefusals:
    def test_unknown_device(self):
        with pytest.raises(KernelUnsupported):
            run_lanes(object(), _stimuli())

    def test_bad_shape_arguments(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        with pytest.raises(ValueError):
            run_lanes(ClassABMemoryCell(config), np.zeros((0, 16)))
        with pytest.raises(ValueError):
            run_lanes(ClassABMemoryCell(config), np.zeros(16))
        with pytest.raises(ValueError):
            run_lanes(ClassABMemoryCell(config), _stimuli(), reset=False)

    def test_unseeded_noise_lowers(self):
        # Lanes drain the device's own noise feed, so an unseeded one
        # lowers and matches the scalar twin that copied its generator.
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK), seed=None
        )
        _assert_bit_identical(ClassABMemoryCell(config), _stimuli())

    def test_unseeded_noiseless_allowed(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            seed=None,
            thermal_noise_rms=0.0,
        )
        _assert_bit_identical(ClassABMemoryCell(config), _stimuli())

    def test_unseeded_metastability_lowers(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        modulator = SIModulator2(
            cell_config=config,
            quantizer=CurrentQuantizer(metastability_band=8e-8, seed=None),
        )
        _assert_bit_identical(modulator, _stimuli())

    def test_unseeded_dac_noise_lowers(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        modulator = SIModulator2(
            cell_config=config,
            dac=FeedbackDac(reference_noise_rms=3e-8, seed=None),
        )
        _assert_bit_identical(modulator, _stimuli())

    def test_seeded_dither_lowers(self):
        # A DitheredQuantizer joins the protocol: its dither comes from
        # a GaussianStream the runner drains like the metastability
        # stream.
        from repro.deltasigma.dither import DitheredQuantizer

        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        modulator = SIModulator2(
            cell_config=config,
            quantizer=DitheredQuantizer(dither_rms=1e-7, seed=3),
        )
        _assert_bit_identical(modulator, _stimuli())

    def test_unseeded_dither_lowers(self):
        from repro.deltasigma.dither import DitheredQuantizer

        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        modulator = SIModulator2(
            cell_config=config,
            quantizer=DitheredQuantizer(dither_rms=1e-7, seed=None),
        )
        _assert_bit_identical(modulator, _stimuli())

    def test_quantizer_subclass_refused(self):
        # Exact-type checks: an arbitrary quantiser subclass changes
        # behaviour the lowering does not model, so it must refuse.
        class SaturatingQuantizer(CurrentQuantizer):
            def decide(self, input_current: float) -> int:
                return super().decide(min(input_current, 1e-6))

        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        modulator = SIModulator2(
            cell_config=config, quantizer=SaturatingQuantizer()
        )
        with pytest.raises(KernelUnsupported):
            run_lanes(modulator, _stimuli())

    def test_iter_cells_counts(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        assert len(iter_cells(SIModulator2(cell_config=config))) == 2
        assert len(iter_cells(DelayLine(delay_line_cell_config()))) == 2
