"""Analyzer vs runtime: the lowerability rules may never disagree.

Every SC010/SC012 finding carries the exact
:class:`~repro.runtime.kernels.KernelUnsupported` message it predicts,
and :func:`~repro.runtime.kernels.build_spec` is the single source of
those refusals for every lowered rung.  These tests put that claim
under load from both directions:

* each synthetic case below is **both** statically analyzed (as
  source) and executed (as code) -- when the analyzer predicts a
  refusal ``build_spec`` must raise it verbatim (and
  :func:`~repro.runtime.kernels.kernel_refusal` must name it), and
  when the analyzer stays silent the device must lower;
* every registered trace design must lower, matching the zero
  lowerability findings ``repro lint`` reports on the repo sources.
"""

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.config import MODULATOR_CLOCK, paper_cell_config
from repro.deltasigma.modulator1 import SIModulator1
from repro.runtime.engine import use_engine
from repro.runtime.kernels import (
    KernelUnsupported,
    build_spec,
    kernel_refusal,
    run_lanes,
)
from repro.staticcheck import run_lint
from repro.staticcheck.lowerability import LOWERABILITY_RULES
from repro.staticcheck.model import ModuleContext
from repro.telemetry.designs import TRACE_DESIGNS

REPO_ROOT = Path(__file__).resolve().parents[2]

N_LANES = 2
N_STEPS = 16


def lowerability_findings(source: str):
    """Run only the SC010-SC012 rules over a source string."""
    module = ModuleContext.parse("case.py", source)
    findings = []
    for rule_cls in LOWERABILITY_RULES:
        findings.extend(rule_cls().check(module))
    return findings


@dataclass(frozen=True)
class Case:
    name: str
    source: str
    build: Callable[[dict], object]
    expected_findings: int


def _cell(ns, classname, **kwargs):
    return ns[classname](paper_cell_config(), **kwargs)


CASES = [
    Case(
        name="cell-behavioural-override-refuses",
        source=(
            "from repro.si.memory_cell import ClassABMemoryCell\n"
            "\n"
            "\n"
            "class TamperedCell(ClassABMemoryCell):\n"
            "    def run(self, differential_input):\n"
            "        return differential_input\n"
        ),
        build=lambda ns: _cell(ns, "TamperedCell"),
        expected_findings=1,
    ),
    Case(
        name="cell-metadata-override-lowers",
        source=(
            "from repro.si.memory_cell import ClassABMemoryCell\n"
            "\n"
            "\n"
            "class AnnotatedCell(ClassABMemoryCell):\n"
            "    def __init__(self, config, label='cell'):\n"
            "        super().__init__(config)\n"
            "        self.label = label\n"
        ),
        build=lambda ns: _cell(ns, "AnnotatedCell"),
        expected_findings=0,
    ),
    Case(
        name="delay-line-step-override-refuses",
        source=(
            "from repro.si.delay_line import DelayLine\n"
            "\n"
            "\n"
            "class TamperedLine(DelayLine):\n"
            "    def step(self, sample):\n"
            "        return sample\n"
        ),
        build=lambda ns: ns["TamperedLine"](paper_cell_config(), n_cells=2),
        expected_findings=1,
    ),
    Case(
        name="quantizer-subclass-refuses",
        source=(
            "from repro.deltasigma.quantizer import CurrentQuantizer\n"
            "\n"
            "\n"
            "class SoftQuantizer(CurrentQuantizer):\n"
            "    def decide(self, input_current):\n"
            "        return 1\n"
        ),
        build=lambda ns: SIModulator1(
            cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK),
            quantizer=ns["SoftQuantizer"](),
        ),
        expected_findings=1,
    ),
    Case(
        name="dac-subclass-refuses",
        source=(
            "from repro.deltasigma.dac import FeedbackDac\n"
            "\n"
            "\n"
            "class LoggingDac(FeedbackDac):\n"
            "    pass\n"
        ),
        build=lambda ns: SIModulator1(
            cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK),
            dac=ns["LoggingDac"](),
        ),
        expected_findings=1,
    ),
    Case(
        name="unpaired-probe-refuses",
        source=(
            "from repro.telemetry.probes import SignalProbe\n"
            "\n"
            "\n"
            "class PeakProbe(SignalProbe):\n"
            "    def observe(self, value):\n"
            "        super().observe(value)\n"
        ),
        build=lambda ns: _probed_cell(ns, "PeakProbe"),
        expected_findings=1,
    ),
    Case(
        name="paired-probe-lowers",
        source=(
            "from repro.telemetry.probes import SignalProbe\n"
            "\n"
            "\n"
            "class MirrorProbe(SignalProbe):\n"
            "    def observe(self, value):\n"
            "        super().observe(value)\n"
            "\n"
            "    def observe_array(self, values):\n"
            "        super().observe_array(values)\n"
        ),
        build=lambda ns: _probed_cell(ns, "MirrorProbe"),
        expected_findings=0,
    ),
    Case(
        # Lanes consume the device's live streams, so an unseeded noisy
        # configuration lowers (see test_unseeded_noisy_sweep_matches...).
        name="unseeded-noisy-config-lowers",
        source=(
            "from repro.si.memory_cell import ClassABMemoryCell, MemoryCellConfig\n"
            "\n"
            "\n"
            "def build_cell():\n"
            "    return ClassABMemoryCell(MemoryCellConfig(seed=None))\n"
        ),
        build=lambda ns: ns["build_cell"](),
        expected_findings=0,
    ),
]


def _probed_cell(ns, probe_classname):
    from repro.si.memory_cell import ClassABMemoryCell

    cell = ClassABMemoryCell(paper_cell_config())
    cell._probe = ns[probe_classname]("cell.input")
    return cell


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_analyzer_and_runtime_agree(case):
    findings = lowerability_findings(case.source)
    assert len(findings) == case.expected_findings

    namespace: dict = {}
    exec(compile(case.source, case.name, "exec"), namespace)
    device = case.build(namespace)

    if findings:
        (finding,) = findings
        assert finding.predicts is not None
        with pytest.raises(KernelUnsupported) as excinfo:
            build_spec(device)
        assert str(excinfo.value) == finding.predicts
        assert kernel_refusal(device) == finding.predicts
    else:
        assert kernel_refusal(device) is None
        assert build_spec(device) is not None


@pytest.mark.parametrize("name", sorted(TRACE_DESIGNS))
def test_every_trace_design_lowers(name):
    """The positive half of the agreement: registered designs lower."""
    device = TRACE_DESIGNS[name].build()
    assert kernel_refusal(device) is None
    assert build_spec(device).kind


def test_unseeded_noisy_sweep_matches_sequential_scalar_lanes():
    """The configuration SC011 used to flag lowers and stays exact:
    32 lanes of an unseeded noisy modulator equal 32 sequential scalar
    runs on a deep copy (which carries the same generator state)."""
    from repro.config import MemoryCellConfig

    device = SIModulator1(
        cell_config=MemoryCellConfig(seed=None),
        sample_rate=MODULATOR_CLOCK,
    )
    twin = copy.deepcopy(device)
    t = np.arange(96)
    stimuli = np.linspace(1e-7, 5e-6, 32)[:, None] * np.sin(
        2.0 * np.pi * 5.0 * t / 96
    )
    lanes = run_lanes(device, stimuli)
    with use_engine("scalar"):
        scalar = np.array([twin(row) for row in stimuli])
    assert lanes.tobytes() == scalar.tobytes()


def test_repo_sources_predict_no_unbaselined_refusals(monkeypatch):
    """The analyzer agrees the shipped designs lower: linting src/repro
    with the committed baseline leaves no lowerability findings."""
    monkeypatch.chdir(REPO_ROOT)
    report = run_lint(
        ["src/repro"], baseline=REPO_ROOT / "baselines" / "staticcheck.json"
    )
    codes = {f.rule for f in report.findings}
    assert not codes & {"SC010", "SC012"}
    # The baseline is empty: nothing in the shipped sources needs a
    # suppression any more (DitheredQuantizer joined the protocol and
    # every RNG site is seeded at the API boundary).
    assert not report.suppressed
