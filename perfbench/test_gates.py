"""The benchmark's correctness gates can fail, and a failure raises the error rate.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import copy
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import common

common.ensure_import_path()

from perfbench import report_cli, service_mix, sweep_mix  # noqa: E402


@pytest.fixture(scope="module")
def report_runner(tmp_path_factory):
    return report_cli.ReportRunner(
        tmp_path_factory.mktemp("report"), random.Random(0), ledger_entries=10
    )


@pytest.fixture(scope="module")
def delay_line_manifest(report_runner):
    op, reason = report_runner.run("delay-line")
    assert op.ok, reason
    return report_runner.manifests[-1]


def test_unchanged_report_passes_the_reference_gate(delay_line_manifest):
    reference = common.load_references()["delay-line"]
    assert common.manifest_mismatches(delay_line_manifest, reference) == []


def test_flipped_reference_value_raises_the_error_rate(delay_line_manifest):
    reference = copy.deepcopy(common.load_references()["delay-line"])
    reference["metrics"][0]["value"] = -reference["metrics"][0]["value"]
    problems = common.manifest_mismatches(delay_line_manifest, reference)
    tally = common.Tally()
    tally.add(not problems, "; ".join(problems))
    assert problems and tally.error_rate == 1.0


def test_degraded_report_fails(report_runner):
    op, reason = report_runner.run("delay-line", ("--noise-scale", "2"))
    assert not op.ok
    assert "!=" in reason and op.samples == 0


def test_sweep_lane0_gate_can_fail():
    ops = [("modulator1", 4, (-20.0, -30.0, -40.0, -50.0))]
    timed, results = sweep_mix.run_ops(ops)
    reference = sweep_mix.scalar_lane0(ops)
    tally = common.Tally()
    sweep_mix.check(timed, results, reference, tally)
    assert tally.failed == 0

    flipped = {"modulator1": (reference["modulator1"][0] * 2.0,) + reference["modulator1"][1:]}
    sweep_mix.check(timed, results, flipped, tally)
    assert tally.failed == 1 and not timed[0].ok


class _Refuse(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        body = json.dumps({"error": "job queue full"}).encode()
        self.send_response(429)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def refusing_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Refuse)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_http_429_is_a_failed_op(refusing_server):
    from repro.service import ServiceClient

    key = service_mix.Key("refused", {"kind": "report", "design": "mod2"})
    reply = service_mix.request(ServiceClient(refusing_server), key)
    assert not reply.op.ok and "queue full" in reply.op.note
    assert service_mix.tally_of([reply]).error_rate == 1.0


def test_http_400_is_a_failed_op(tmp_path):
    from repro.service import ServiceClient, ServiceConfig, SimulationService, build_server

    service = SimulationService(ServiceConfig(port=0, cache_dir=str(tmp_path), ledger=False))
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        key = service_mix.Key("bad", {"kind": "report", "design": "no-such-design"})
        reply = service_mix.request(client, key)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)
    assert not reply.op.ok and "HTTP 400" in reply.op.note


def test_failed_op_makes_the_result_incorrect(capsys):
    tally = common.Tally()
    tally.add(True)
    tally.add(False, "wrong")
    values = {spec["name"]: 1.0 for spec in common.declared_metrics("end_to_end")}
    common.emit("unit", "end_to_end", values, tally, {})
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, percentile = common.tail(values)
    assert sum(v > value for v in values) == 10 and percentile == 90.0
    assert common.tail(list(range(20))) == (9.5, 50.0)


def test_service_plan_sends_every_key_down_each_dedup_path():
    plan = service_mix.key_universe(random.Random(3))
    reports = [step for step in plan if step.key.request["kind"] == "report"]
    sweeps = [step for step in plan if step.key.request["kind"] == "sweep"]
    assert len(reports) == 2 * len(service_mix.REPORT_CLASSES) and all(step.dual for step in reports)
    assert sweeps and all(not step.dual and step.resubmit != step.client for step in sweeps)
    assert len({step.key.name for step in plan}) == len(plan)
