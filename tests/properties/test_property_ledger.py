"""Property-based tests for run-ledger dedup.

``RunLedger.append`` reads stored ids from line heads and scans only
the bytes added since its last scan; whatever the file holds, it must
deduplicate exactly when a full decode of the file finds the new id.
A hit is confirmed by decoding only the lines the scan found the id
in, which must agree with a decode of every line.
"""

import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.errors import ObservabilityError
from repro.observability.ledger import (
    LEDGER_SCHEMA,
    LedgerEntry,
    RunLedger,
    entry_id_for,
)

PROV = {"git_sha": "deadbeef", "timestamp": "2026-08-08T00:00:00+00:00"}

designs = st.one_of(
    st.none(),
    st.sampled_from(["d", 'q"uote', "back\\slash", "µ-cell", "ΣΔ", "a\u2028b"]),
    st.text(max_size=6),
)
payloads = st.one_of(
    st.fixed_dictionaries({"x": st.integers(0, 3)}),
    # A nested "entry_id" key must not be taken for the line's own.
    st.builds(
        lambda x: {"x": x, "inner": {"entry_id": entry_id_for("report", None, {"x": x})}},
        st.integers(0, 3),
    ),
)
contents = st.tuples(st.sampled_from(["report", "sweep"]), designs, payloads)


def written_line(content):
    """The exact line ``RunLedger.append`` writes for ``content``."""
    kind, design, payload = content
    entry = LedgerEntry(
        entry_id_for(kind, design, payload), kind, design, payload, PROV
    )
    return json.dumps(entry.as_dict(), sort_keys=True) + "\n"


def torn(content, fraction):
    """A prefix of a written line, as a crash mid-append leaves it."""
    line = written_line(content)
    return line[: int(fraction * len(line))]


def hand_written(content):
    """An id-less line in unsorted key order, non-ASCII left raw."""
    kind, design, payload = content
    data = {"schema": LEDGER_SCHEMA, "payload": payload, "kind": kind, "design": design}
    return json.dumps(data, ensure_ascii=False) + "\n"


def overriding_key(content, other, key):
    """A written line whose later duplicate key carries another id."""
    kind, design, payload = other
    later = entry_id_for(kind, design, payload)
    return written_line(content)[:-2] + f', {key}: "{later}"}}\n'


raw_lines = st.one_of(
    st.builds(written_line, contents),
    st.sampled_from(["\n", "   \n", "[1, 2]\n", '{"schema": "other"}\n', "not json\n"]),
    # A torn tail: the next write lands on it.
    st.builds(torn, contents, st.floats(0, 1)),
    st.builds(hand_written, contents),
    st.builds(
        overriding_key, contents, contents, st.sampled_from(['"entry_id"', '"entry\\u005fid"'])
    ),
    # Two entries on one "\n" line, split by a break str.splitlines knows.
    st.builds(
        lambda a, line, brk: written_line(a)[:-1] + brk + line,
        contents,
        st.one_of(st.builds(written_line, contents), st.builds(hand_written, contents)),
        st.sampled_from(["\r", "\x0b", "\x1c", "\u2028", "\u2029", "\x85"]),
    ),
)

#: ``(action, argument, content appended next, through a fresh instance)``.
operations = st.one_of(
    st.builds(lambda c, fresh: ("append", None, c, fresh), contents, st.booleans()),
    st.builds(lambda line: ("raw", line, None, False), raw_lines),
    # Truncation and replacement between two appends on one instance.
    st.builds(lambda f, c: ("truncate", f, c, False), st.floats(0, 1), contents),
    st.builds(
        lambda lines, c: ("replace", "".join(lines), c, False),
        st.lists(raw_lines, max_size=4),
        contents,
    ),
)


def reference_ids(path: Path) -> set[str]:
    """Every id a full decode of the ledger file finds."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return set()
    ids = set()
    for line in text.splitlines():
        try:
            data = json.loads(line.strip())
            if isinstance(data, dict):
                ids.add(LedgerEntry.from_dict(data).entry_id)
        except (ValueError, ObservabilityError):
            continue
    return ids


def write_raw(path: Path, text: str, mode: str = "ab") -> None:
    with path.open(mode) as handle:
        handle.write(text.encode())


class TestDedupEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(operations, min_size=1, max_size=12))
    def test_append_dedups_exactly_like_a_full_decode(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(Path(tmp) / "ledger")
            path = ledger.path
            path.parent.mkdir()
            for action, argument, content, fresh in ops:
                if action == "raw":
                    write_raw(path, argument)
                    continue
                if action == "truncate" and path.exists():
                    with path.open("r+b") as handle:
                        handle.truncate(int(argument * path.stat().st_size))
                elif action == "replace":
                    staged = Path(tmp) / "staged.jsonl"
                    write_raw(staged, argument, mode="wb")
                    os.replace(staged, path)
                kind, design, payload = content
                duplicate = entry_id_for(kind, design, payload) in reference_ids(path)
                instance = RunLedger(ledger.directory) if fresh else ledger
                result = instance.append(kind, payload, design=design, provenance=PROV)
                assert (result is None) == duplicate


class TestConfirmEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(st.lists(raw_lines, max_size=4), min_size=1, max_size=3),
        probes=st.lists(contents, max_size=3),
    )
    def test_a_hit_is_confirmed_like_a_decode_of_every_line(self, batches, probes):
        """Batches land on an unterminated tail, as a later append would."""
        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(tmp)
            for batch in batches:
                write_raw(ledger.path, "".join(batch))
                ledger._scan()
                stored = {entry.entry_id for entry in ledger.entries()}
                candidates = set(ledger._stored) | {
                    entry_id_for(kind, design, payload) for kind, design, payload in probes
                }
                for entry_id in candidates:
                    assert ledger._holds(entry_id) == (entry_id in stored)
