"""Property suite: the engine ladder is byte-identical to the scalar oracle.

The kernel tier's contract (docs/RUNTIME.md) is *byte*-equality with
``force_scalar()`` -- not approximate agreement -- across every
lowerable design, including dithered quantizers, metastability bands,
DAC reference noise, and telemetry-probed runs.  Hypothesis drives the
device variants and stimuli; each drawn case runs once through the
scalar loop and once per engine rung on an identically-seeded twin.

The lane-major ``batch`` program is also drawn at 1-40 lanes, whole
or split into two shards the way ``--jobs 2`` splits a sweep, against
``_sequential_lanes(..., "scalar")`` on an identically built twin.

Probe statistics are the one deliberate exception: ``observe_array``
accumulates with pairwise summation while the scalar loop's
``observe`` is sequential, so means/rms agree to 1e-12 relative, not
bitwise (the same contract ``tests/telemetry`` asserts).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import paper_cell_config
from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.dither import DitheredQuantizer
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.runtime.engine import use_engine
from repro.runtime.executor import SweepExecutor
from repro.runtime.kernels import fast_forward_streams, iter_cells, run_lanes
from repro.runtime.single import consume_fallbacks, force_scalar
from repro.runtime.sweeps import (
    _sequential_lanes,
    run_sweep,
    sweep_spec_for_design,
)
from repro.telemetry.designs import TRACE_DESIGNS
from repro.telemetry.session import TelemetrySession

CONFIG = paper_cell_config(sample_rate=2.45e6)

#: Every selectable rung; ``scalar`` included so the pin itself is
#: covered (it must reproduce the oracle trivially).
ENGINES = ("auto", "batch", "kernel", "scalar")

MODULATOR_KINDS = {
    "chopper": ChopperStabilizedSIModulator,
    "modulator1": SIModulator1,
    "modulator2": SIModulator2,
}


def _build_modulator(kind, dither, metastable, dac_noise):
    kwargs = dict(
        offset=1e-8 if metastable else 0.0,
        hysteresis=2e-9 if metastable else 0.0,
        metastability_band=5e-8 if metastable else 0.0,
        seed=11,
    )
    quantizer = (
        DitheredQuantizer(2e-7, **kwargs)
        if dither
        else CurrentQuantizer(**kwargs)
    )
    dac = (
        FeedbackDac(6e-6, reference_noise_rms=3e-8, seed=5)
        if dac_noise
        else None
    )
    return MODULATOR_KINDS[kind](cell_config=CONFIG, quantizer=quantizer, dac=dac)


def _stimulus(n, amplitude, seed):
    rng = np.random.default_rng(seed)
    tone = amplitude * np.sin(2.0 * np.pi * 2e3 * np.arange(n) / 2.45e6)
    return tone + 0.05 * amplitude * rng.standard_normal(n)


@pytest.fixture(autouse=True)
def _drain_fallback_notes():
    """Keep one case's engine-fallback notes out of the next case."""
    yield
    consume_fallbacks()


class TestModulatorParity:
    @settings(max_examples=24, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MODULATOR_KINDS)),
        dither=st.booleans(),
        metastable=st.booleans(),
        dac_noise=st.booleans(),
        engine=st.sampled_from(ENGINES),
        amplitude=st.floats(min_value=1e-7, max_value=6e-6),
        n=st.integers(min_value=16, max_value=512),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_engine_matches_scalar_oracle(
        self, kind, dither, metastable, dac_noise, engine, amplitude, n, seed
    ):
        stimulus = _stimulus(n, amplitude, seed)
        reference = _build_modulator(kind, dither, metastable, dac_noise)
        with force_scalar():
            want = reference.run(stimulus)
        device = _build_modulator(kind, dither, metastable, dac_noise)
        with use_engine(engine):
            got = device.run(stimulus)
        assert got.tobytes() == want.tobytes()
        # The loop state the next run would start from must match too.
        assert (
            device.quantizer._last_decision
            == reference.quantizer._last_decision
        )

    @settings(max_examples=12, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MODULATOR_KINDS)),
        dither=st.booleans(),
        engine=st.sampled_from(ENGINES),
        n=st.integers(min_value=16, max_value=256),
    )
    def test_streams_advance_identically(self, kind, dither, engine, n):
        # After a run, every noise stream must sit at the same position
        # as the scalar oracle's, or the *next* run would diverge: the
        # first post-run draw is compared for the quantizer, dither and
        # DAC streams.
        stimulus = _stimulus(n, 3e-6, seed=1)
        reference = _build_modulator(kind, dither, True, True)
        with force_scalar():
            reference.run(stimulus)
        device = _build_modulator(kind, dither, True, True)
        with use_engine(engine):
            device.run(stimulus)
        assert device.quantizer._stream.next() == reference.quantizer._stream.next()
        assert device.dac._stream.next() == reference.dac._stream.next()
        if dither:
            assert (
                device.quantizer._dither.next()
                == reference.quantizer._dither.next()
            )


def _loop_state(device):
    """Everything the next run starts from: cells, hysteresis, streams."""
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
    quantizer = device.quantizer
    streams = (quantizer._stream.next(), device.dac._stream.next())
    if isinstance(quantizer, DitheredQuantizer):
        streams += (quantizer._dither.next(),)
    return cells, quantizer._last_decision, streams


class TestLaneParity:
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MODULATOR_KINDS)),
        dither=st.booleans(),
        metastable=st.booleans(),
        dac_noise=st.booleans(),
        n_lanes=st.integers(min_value=1, max_value=40),
        jobs=st.sampled_from((1, 2)),
        amplitude=st.floats(min_value=1e-7, max_value=2e-5),
        n=st.integers(min_value=16, max_value=128),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_lanes_match_sequential_scalar_lanes(
        self, kind, dither, metastable, dac_noise, n_lanes, jobs, amplitude, n, seed
    ):
        rng = np.random.default_rng(seed)
        levels = amplitude * rng.uniform(0.01, 1.0, n_lanes)
        stimuli = levels[:, None] * _stimulus(n, 1.0, seed)[None, :]
        reference = _build_modulator(kind, dither, metastable, dac_noise)
        want = _sequential_lanes(reference, stimuli, "scalar")

        # A shard owns a contiguous block of lanes on its own freshly
        # built device, skipped past the lanes before it.
        split = n_lanes // 2 if jobs == 2 and n_lanes > 1 else 0
        outputs = []
        for start, stop in ((0, split), (split, n_lanes)):
            if start == stop:
                continue
            device = _build_modulator(kind, dither, metastable, dac_noise)
            fast_forward_streams(device, start * n)
            outputs.append(run_lanes(device, stimuli[start:stop]))
        got = np.concatenate(outputs)
        assert got.tobytes() == want.tobytes()
        # The last shard's device ends where the sequential one does:
        # cell state, step and slew counters, hysteresis, streams.
        assert _loop_state(device) == _loop_state(reference)


class TestTraceDesignParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(TRACE_DESIGNS))
    def test_probed_run_matches_scalar_oracle(self, name, engine):
        # The paper pipeline runs its devices with telemetry attached;
        # the ladder must stay byte-identical with probes feeding.
        setup = TRACE_DESIGNS[name]
        n = 2048
        t = np.arange(n) / setup.sample_rate
        stimulus = setup.amplitude * np.sin(
            2.0 * np.pi * setup.frequency * t
        )

        def probed(context):
            device = setup.build()
            session = TelemetrySession(setup.name)
            device.attach_telemetry(session)
            with context:
                out = device.run(stimulus)
            stats = {
                probe_name: (probe.count, probe.mean, probe.rms, probe.peak)
                for probe_name, probe in session.probes.items()
            }
            return out, stats

        want, want_stats = probed(force_scalar())
        got, got_stats = probed(use_engine(engine))
        assert got.tobytes() == want.tobytes()
        assert set(got_stats) == set(want_stats)
        for key, (count, *floats) in want_stats.items():
            got_count, *got_floats = got_stats[key]
            assert got_count == count
            for a, b in zip(got_floats, floats):
                assert a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


class TestSweepParity:
    def test_sweep_identical_on_every_engine(self):
        # One compact dynamic-range sweep per rung: identical SNDR
        # arrays (bitwise), so `repro report --engine X` can promise
        # identical manifests for any X.
        spec = sweep_spec_for_design(
            "modulator2", levels_db=(-40.0, -20.0, -10.0)
        )
        results = {
            engine: run_sweep(spec, engine=engine) for engine in ENGINES
        }
        want = results["scalar"]
        for engine, got in results.items():
            assert got.sndr_db.tobytes() == want.sndr_db.tobytes(), engine
            assert got.metrics == want.metrics, engine

    def test_two_shard_batch_sweep_matches_the_scalar_sweep(self):
        # `--jobs 2` splits the lanes over two worker processes, each
        # running the lane-major program on its own device.
        spec = sweep_spec_for_design(
            "chopper", n_samples=1 << 13, levels_db=(-50.0, -30.0, -12.0, -6.0)
        )
        want = run_sweep(spec, engine="scalar")
        got = run_sweep(spec, executor=SweepExecutor(jobs=2), engine="batch")
        assert got.metrics == want.metrics
