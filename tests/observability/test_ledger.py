"""The run ledger: append-only JSONL, content addressing, tolerance."""

import json
import threading

import pytest

from repro.errors import ObservabilityError
from repro.observability.ledger import (
    DEFAULT_LEDGER_DIRNAME,
    LEDGER_ENV_DIR,
    LEDGER_SCHEMA,
    LedgerEntry,
    RunLedger,
    entry_id_for,
)

PROV = {
    "git_sha": "deadbeef",
    "git_dirty": False,
    "timestamp": "2026-08-08T00:00:00+00:00",
    "hostname": "rig",
    "cpu_count": 4,
}


class TestContentAddress:
    def test_same_content_same_id(self):
        a = entry_id_for("report", "mod2", {"x": 1, "y": [2.0]})
        b = entry_id_for("report", "mod2", {"y": [2.0], "x": 1})
        assert a == b
        assert a.startswith("sha256:")

    def test_kind_design_and_payload_all_distinguish(self):
        base = entry_id_for("report", "mod2", {"x": 1})
        assert entry_id_for("sweep", "mod2", {"x": 1}) != base
        assert entry_id_for("report", "mod1", {"x": 1}) != base
        assert entry_id_for("report", "mod2", {"x": 2}) != base

    def test_provenance_does_not_change_the_id(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.append("report", {"x": 1}, design="d", provenance=PROV)
        later = dict(PROV, timestamp="2026-08-09T00:00:00+00:00")
        second = ledger.append("report", {"x": 1}, design="d", provenance=later)
        assert first is not None
        assert second is None  # deduplicated despite new provenance


class TestAppend:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.append(
            "sweep", {"dynamic_range_db": 63.0}, design="mod2", provenance=PROV
        )
        assert entry is not None
        loaded = list(RunLedger(tmp_path).entries())
        assert len(loaded) == 1
        assert loaded[0].entry_id == entry.entry_id
        assert loaded[0].kind == "sweep"
        assert loaded[0].design == "mod2"
        assert loaded[0].payload == {"dynamic_range_db": 63.0}
        assert loaded[0].git_sha == "deadbeef"

    def test_append_is_one_line_per_entry(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        ledger.append("sweep", {"v": 2}, design="d", provenance=PROV)
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["schema"] == LEDGER_SCHEMA

    def test_duplicate_content_not_appended(self, tmp_path):
        ledger = RunLedger(tmp_path)
        assert ledger.append("bench", {"wall_s": 1.0}, provenance=PROV)
        assert ledger.append("bench", {"wall_s": 1.0}, provenance=PROV) is None
        assert len(ledger) == 1

    def test_default_provenance_is_collected(self, tmp_path):
        entry = RunLedger(tmp_path).append("report", {"x": 1}, design="d")
        assert entry is not None
        assert "timestamp" in entry.provenance
        assert "hostname" in entry.provenance
        assert "cpu_count" in entry.provenance

    def test_non_jsonable_payload_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with pytest.raises(ObservabilityError):
            ledger.append("report", {"x": object()}, provenance=PROV)
        assert not ledger.path.exists()

    def test_reading_never_creates_the_directory(self, tmp_path):
        target = tmp_path / "nested" / "ledger"
        ledger = RunLedger(target)
        assert list(ledger.entries()) == []
        assert not target.exists()


class TestResolution:
    def test_env_var_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV_DIR, str(tmp_path / "elsewhere"))
        assert RunLedger().directory == tmp_path / "elsewhere"

    def test_default_directory_without_env(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV_DIR, raising=False)
        assert str(RunLedger().directory) == DEFAULT_LEDGER_DIRNAME

    def test_explicit_directory_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV_DIR, str(tmp_path / "env"))
        assert RunLedger(tmp_path / "arg").directory == tmp_path / "arg"


class TestTolerance:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        with ledger.path.open("a") as handle:
            handle.write('{"schema": "repro.observability/ledger-entry/v1", "ki')
        assert len(list(RunLedger(tmp_path).entries())) == 1

    def test_foreign_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text('{"schema": "other"}\n[1, 2]\n\n')
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        entries = list(RunLedger(tmp_path).entries())
        assert len(entries) == 1

    def test_filters_by_design_and_kind(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="a", provenance=PROV)
        ledger.append("report", {"v": 2}, design="a", provenance=PROV)
        ledger.append("sweep", {"v": 3}, design="b", provenance=PROV)
        assert len(list(ledger.entries(design="a"))) == 2
        assert len(list(ledger.entries(kind="sweep"))) == 2
        assert len(list(ledger.entries(design="a", kind="sweep"))) == 1
        assert ledger.designs() == ["a", "b"]


class TestEntryRoundTrip:
    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ObservabilityError):
            LedgerEntry.from_dict({"schema": "nope"})

    def test_from_dict_rejects_missing_payload(self):
        with pytest.raises(ObservabilityError):
            LedgerEntry.from_dict({"schema": LEDGER_SCHEMA, "kind": "report"})

    def test_from_dict_recomputes_missing_id(self):
        data = {
            "schema": LEDGER_SCHEMA,
            "kind": "report",
            "design": "d",
            "payload": {"x": 1},
            "provenance": dict(PROV),
        }
        entry = LedgerEntry.from_dict(data)
        assert entry.entry_id == entry_id_for("report", "d", {"x": 1})

    def test_as_dict_roundtrips(self):
        entry = LedgerEntry(
            entry_id=entry_id_for("bench", None, {"wall_s": 0.5}),
            kind="bench",
            design=None,
            payload={"wall_s": 0.5},
            provenance=dict(PROV),
        )
        again = LedgerEntry.from_dict(entry.as_dict())
        assert again == entry


def _line_for(kind, payload, design=None):
    """The exact line ``RunLedger.append`` writes for this content."""
    entry = LedgerEntry(
        entry_id=entry_id_for(kind, design, payload),
        kind=kind,
        design=design,
        payload=payload,
        provenance=PROV,
    )
    return json.dumps(entry.as_dict(), sort_keys=True) + "\n"


class TestLongLivedInstance:
    def test_sees_appends_from_another_instance(self, tmp_path):
        first = RunLedger(tmp_path)
        second = RunLedger(tmp_path)
        assert first.append("report", {"x": 1}, design="d", provenance=PROV)
        assert second.append("report", {"x": 2}, design="d", provenance=PROV)
        assert first.append("report", {"x": 2}, design="d", provenance=PROV) is None
        lines = first.path.read_text().splitlines()
        assert len(lines) == 2
        assert len({entry.entry_id for entry in first.entries()}) == 2

    def test_rescans_a_truncated_file(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for x in (1, 2, 3):
            ledger.append("report", {"x": x}, design="d", provenance=PROV)
        with ledger.path.open("r+b") as handle:
            handle.truncate(len(_line_for("report", {"x": 1}, "d")))
        assert ledger.append("report", {"x": 1}, design="d", provenance=PROV) is None
        assert ledger.append("report", {"x": 2}, design="d", provenance=PROV)
        ledger.path.write_text("")
        assert ledger.append("report", {"x": 1}, design="d", provenance=PROV)
        RunLedger(tmp_path).append("report", {"x": 4}, design="d", provenance=PROV)
        assert ledger.append("report", {"x": 4}, design="d", provenance=PROV) is None

    def test_rescans_a_replaced_file(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("report", {"x": 1}, design="d", provenance=PROV)
        ledger.append("report", {"x": 2}, design="d", provenance=PROV)
        replacement = tmp_path / "replacement.jsonl"
        replacement.write_text(
            _line_for("report", {"x": 3}, "d") + _line_for("report", {"x": 4}, "d") * 40
        )
        replacement.replace(ledger.path)
        assert ledger.append("report", {"x": 3}, design="d", provenance=PROV) is None
        assert ledger.append("report", {"x": 1}, design="d", provenance=PROV)

    def test_a_deleted_file_starts_over(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("report", {"x": 1}, design="d", provenance=PROV)
        ledger.path.unlink()
        assert ledger.append("report", {"x": 1}, design="d", provenance=PROV)


class TestDedupScan:
    """How ``append`` finds stored ids without decoding the ledger."""

    @pytest.fixture()
    def loads_calls(self, monkeypatch):
        calls = []
        real = json.loads

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        return calls

    def test_fresh_append_decodes_no_written_line(self, tmp_path, loads_calls):
        writer = RunLedger(tmp_path)
        for index in range(3000):
            writer.append("report", {"i": index}, design="d", provenance=PROV)
        assert len(writer.path.read_text().splitlines()) == 3000
        assert RunLedger(tmp_path).append(
            "report", {"i": 3000}, design="d", provenance=PROV
        )
        assert loads_calls == []

    def test_second_append_reads_only_the_first_appends_line(
        self, tmp_path, monkeypatch, loads_calls
    ):
        from repro.observability import ledger as ledger_module

        writer = RunLedger(tmp_path)
        for index in range(20):
            writer.append("report", {"i": index}, design="d", provenance=PROV)
        chunks = []
        real = ledger_module._stored_ids

        def recording(chunk):
            chunks.append(chunk)
            return real(chunk)

        monkeypatch.setattr(ledger_module, "_stored_ids", recording)
        ledger = RunLedger(tmp_path)
        before = ledger.path.stat().st_size
        assert ledger.append("report", {"i": 20}, design="d", provenance=PROV)
        after = ledger.path.stat().st_size
        assert ledger.append("report", {"i": 21}, design="d", provenance=PROV)
        assert len(chunks[0]) == before
        assert chunks[1] == ledger.path.read_bytes()[before:after]
        assert loads_calls == []

    def test_a_hit_is_confirmed_before_deduplicating(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        torn = _line_for("report", {"x": 1}, "d")[:120]
        ledger.path.write_text(torn)
        # The next append lands on the torn line's tail: the merged line
        # keeps the torn entry's head but holds no entry at all.
        assert ledger.append("report", {"x": 2}, design="d", provenance=PROV)
        assert list(ledger.entries()) == []
        assert ledger.append("report", {"x": 1}, design="d", provenance=PROV)
        assert ledger.append("report", {"x": 2}, design="d", provenance=PROV)
        assert ledger.append("report", {"x": 2}, design="d", provenance=PROV) is None

    def test_a_hit_is_confirmed_on_any_line_holding_the_id(self, tmp_path):
        line = _line_for("report", {"x": 1}, "d")
        # The torn line keeps its head but, merged with a foreign line,
        # holds no entry; the id is stored by the whole line after it.
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(line[:120] + '{"schema": "other"}\n' + line)
        assert len(list(ledger.entries())) == 1
        assert ledger.append("report", {"x": 1}, design="d", provenance=PROV) is None

    def test_a_duplicate_decodes_only_the_lines_holding_its_id(
        self, tmp_path, loads_calls
    ):
        writer = RunLedger(tmp_path)
        for index in range(3000):
            writer.append("report", {"i": index}, design="d", provenance=PROV)
        again = RunLedger(tmp_path).append(
            "report", {"i": 7}, design="d", provenance=PROV
        )
        assert again is None
        assert loads_calls == [_line_for("report", {"i": 7}, "d").strip()]

    def test_entry_without_its_final_newline_is_stored(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(_line_for("report", {"x": 1}, "d").rstrip("\n"))
        assert ledger.append("report", {"x": 1}, design="d", provenance=PROV) is None

    @pytest.mark.parametrize("key", ['"entry_id"', '"entry\\u005fid"'])
    def test_a_later_entry_id_key_wins_over_the_head(self, tmp_path, key):
        later = entry_id_for("report", "d", {"x": 2})
        line = _line_for("report", {"x": 1}, "d")[:-2] + f', {key}: "{later}"}}\n'
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(line)
        assert [entry.entry_id for entry in ledger.entries()] == [later]
        assert ledger.append("report", {"x": 2}, design="d", provenance=PROV) is None

    @pytest.mark.parametrize("separator", ["\r", "\r\n", "\x0b", "\x1e", "\u2028"])
    def test_lines_split_as_entries_splits_them(self, tmp_path, separator):
        first = _line_for("report", {"x": 1}, "d").rstrip("\n")
        second = json.loads(_line_for("report", {"x": 2}, "d"))
        del second["entry_id"]
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(first + separator + json.dumps(second) + "\n")
        assert len(list(ledger.entries())) == 2
        assert ledger.append("report", {"x": 2}, design="d", provenance=PROV) is None

    def test_hand_written_lines_count_by_their_recomputed_id(self, tmp_path):
        data = json.loads(_line_for("report", {"x": 1}, "µ-cell"))
        del data["entry_id"]
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text(json.dumps(data, ensure_ascii=False) + "\n")
        again = ledger.append("report", {"x": 1}, design="µ-cell", provenance=PROV)
        assert again is None

    def test_written_lines_are_unchanged(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("report", {"x": 1}, design='q"\\µ', provenance=PROV)
        ledger.append("bench", {"x": 2}, provenance=PROV)
        assert ledger.path.read_text() == (
            _line_for("report", {"x": 1}, 'q"\\µ') + _line_for("bench", {"x": 2})
        )


class TestSharedInstance:
    def test_threads_sharing_an_instance_store_each_id_once(self, tmp_path):
        ledger = RunLedger(tmp_path)
        n_threads, per_thread = 8, 40
        # Entry-sized padding keeps each write long enough to race.
        padding = "x" * 4096
        barrier = threading.Barrier(n_threads)
        errors = []

        def payload(thread, step):
            # Even steps are shared by every thread, odd ones are its own.
            if step % 2 == 0:
                return {"shared": step, "pad": padding}
            return {"own": thread, "step": step, "pad": padding}

        def worker(thread):
            try:
                barrier.wait()
                for step in range(per_thread):
                    ledger.append(
                        "report", payload(thread, step), design="d", provenance=PROV
                    )
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        raw = ledger.path.read_bytes()
        assert raw.endswith(b"\n")
        # A torn or interleaved line fails to decode here.
        stored = [
            LedgerEntry.from_dict(json.loads(line)).entry_id
            for line in raw.split(b"\n")[:-1]
        ]
        expected = {
            entry_id_for("report", "d", payload(thread, step))
            for thread in range(n_threads)
            for step in range(per_thread)
        }
        assert len(stored) == len(set(stored))
        assert set(stored) == expected
