"""The persistent run ledger: the repo's memory of its own runs.

Every comparison before this module existed was against a *single*
golden baseline -- the repo had no trajectory.  The ledger fixes that:
an append-only JSONL file under ``.repro/ledger/`` that ``repro
report``, ``repro sweep``, ``repro bench-gate`` and the benchmark
harness automatically append to, one entry per run, each carrying the
run's payload (manifest, sweep table, bench record or gate verdict)
plus full provenance (git SHA, dirty flag, hostname, CPU count,
versions, argv).

Entries are **content-addressed**: the ``entry_id`` is the SHA-256 of
the entry's canonical JSON (everything except the id itself), so the
same measurement appended twice is stored once, and an entry can be
cited unambiguously across machines.  The file is only ever appended
to -- one ``json.dumps`` line per entry, written atomically via a
single buffered write -- and a torn trailing line (crash mid-append)
is skipped on read rather than poisoning the history.

Dedup does not decode the lines :meth:`RunLedger.append` wrote.  Those
lines have sorted keys, so each starts ``{"design": <string or null>,
"entry_id": "sha256:<hex>"``, and one compiled pattern reads that id in
place from the line's head.  A line the pattern cannot vouch for goes
through the decoder :meth:`RunLedger.entries` uses: a line with no such
head, with a second ``"entry_id"`` key after it (or a ``\\u`` escape
that could spell one), or with a byte at which ``str.splitlines`` would
break it but ``\\n`` does not.  A torn line merged with the next append
keeps the torn line's head, so these ids are a superset of what
:meth:`RunLedger.entries` yields.  The scan therefore keeps, per id,
the offsets of the lines it found the id in, and a hit is confirmed by
decoding just those lines before ``append`` skips the write.  An
instance keeps the offset it has scanned up to (the last newline) and
reads only the bytes after it on its next append, starting over when
the file shrank or is another inode.  An in-place rewrite that leaves
the file at least as long as the scanned part goes unnoticed by a
long-lived instance; a fresh one always reads it all.  So a fresh
append costs one read of the file and a byte search per line (~45 ms
on a 3,000-entry, 16.6 MB ledger on a 2-vCPU x86 host), and an
instance that appends again pays only for the bytes added since
(~0.4 ms), which is why a long-lived process such as ``repro serve``
keeps one instance.  The scan, the confirmation and the write run
under one per-instance lock, so threads may share an instance.

The cross-run analytics in :mod:`repro.observability.trend` consume
this file; ``repro history <design>`` renders it.
"""

from __future__ import annotations

import hashlib
import json
import locale
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.errors import ObservabilityError

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_ENV_DIR",
    "DEFAULT_LEDGER_DIRNAME",
    "LedgerEntry",
    "RunLedger",
    "entry_id_for",
]

#: Schema identifier of one ledger entry line.
LEDGER_SCHEMA = "repro.observability/ledger-entry/v1"

#: Environment variable overriding the default ledger directory.
LEDGER_ENV_DIR = "REPRO_LEDGER_DIR"

#: Default ledger directory, relative to the working directory.
DEFAULT_LEDGER_DIRNAME = os.path.join(".repro", "ledger")

#: Entry kinds the ledger currently stores.  The set is advisory --
#: unknown kinds load fine (future writers must not strand old readers).
KNOWN_KINDS = ("report", "sweep", "bench", "bench-gate")


def _canonical_json(payload: object) -> str:
    """Return the canonical (sorted, compact) JSON encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def entry_id_for(
    kind: str, design: str | None, payload: Mapping[str, object]
) -> str:
    """Return the content address of an entry's identity-bearing parts.

    Provenance is deliberately *excluded* from the hash: the same
    measurement re-run at a later timestamp (or re-written with a
    richer provenance schema) is the same content.  What distinguishes
    runs in trend queries is the provenance stored *on* the entry, not
    the address.
    """
    identity = {"kind": kind, "design": design, "payload": dict(payload)}
    try:
        encoded = _canonical_json(identity).encode()
    except (TypeError, ValueError) as exc:
        raise ObservabilityError(
            f"ledger payload for kind {kind!r} is not JSON-serializable: {exc}"
        ) from exc
    return f"sha256:{hashlib.sha256(encoded).hexdigest()}"


#: The head of a line :meth:`RunLedger.append` wrote: ``json.dumps``
#: with sorted keys puts ``design`` first and ``entry_id`` second.
_LINE_HEAD = re.compile(
    rb'\{"design": (?:null|"(?:[^"\\]|\\.)*"), "entry_id": "(sha256:[0-9a-f]{64})"'
)

#: Bytes at which ``str.splitlines`` (and so :meth:`RunLedger.entries`)
#: breaks a line that ``\n`` does not, besides non-ASCII ones.
_OTHER_LINE_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


@dataclass(frozen=True)
class LedgerEntry:
    """One immutable ledger line.

    Attributes
    ----------
    entry_id:
        Content address (``sha256:<hex>``) of kind+design+payload.
    kind:
        What produced the entry (``report``, ``sweep``, ``bench``,
        ``bench-gate``).
    design:
        Design label for design-scoped entries; None for e.g. a
        bench-gate verdict covering the whole suite.
    payload:
        The entry's document: a run manifest dict, a sweep table, a
        single benchmark telemetry record, or a gate verdict.
    provenance:
        The producing process's provenance block
        (:meth:`repro.metrics.provenance.Provenance.as_dict` output).
    """

    entry_id: str
    kind: str
    design: str | None
    payload: Mapping[str, object]
    provenance: Mapping[str, object]

    @property
    def timestamp(self) -> str:
        """Return the provenance timestamp (``"unknown"`` when absent)."""
        raw = self.provenance.get("timestamp")
        return raw if isinstance(raw, str) else "unknown"

    @property
    def git_sha(self) -> str:
        """Return the provenance git SHA (``"unknown"`` when absent)."""
        raw = self.provenance.get("git_sha")
        return raw if isinstance(raw, str) else "unknown"

    def as_dict(self) -> dict[str, object]:
        """Return the entry as its JSON line object."""
        return {
            "schema": LEDGER_SCHEMA,
            "entry_id": self.entry_id,
            "kind": self.kind,
            "design": self.design,
            "payload": dict(self.payload),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LedgerEntry":
        """Rebuild an entry from its JSON line.

        Raises
        ------
        ObservabilityError
            If the line is not a well-formed ledger entry.
        """
        schema = data.get("schema")
        if schema != LEDGER_SCHEMA:
            raise ObservabilityError(
                f"not a ledger entry: schema {schema!r}, "
                f"expected {LEDGER_SCHEMA!r}"
            )
        kind = data.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ObservabilityError(
                f"ledger entry kind must be a non-empty string, got {kind!r}"
            )
        design = data.get("design")
        if design is not None and not isinstance(design, str):
            raise ObservabilityError(
                f"ledger entry design must be a string or null, got {design!r}"
            )
        payload = data.get("payload")
        if not isinstance(payload, dict):
            raise ObservabilityError("ledger entry has no payload object")
        provenance = data.get("provenance")
        entry_id = data.get("entry_id")
        return cls(
            entry_id=(
                entry_id
                if isinstance(entry_id, str) and entry_id
                else entry_id_for(kind, design, payload)
            ),
            kind=kind,
            design=design,
            payload=payload,
            provenance=provenance if isinstance(provenance, dict) else {},
        )


def _parse_line(line: str) -> LedgerEntry | None:
    """Return the entry one ledger line holds, or None for a bad line.

    Malformed lines (a torn tail from a crash mid-append, a hand edit,
    foreign JSON) yield None, never an error.
    """
    line = line.strip()
    if not line:
        return None
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(data, dict):
        return None
    try:
        return LedgerEntry.from_dict(data)
    except ObservabilityError:
        return None


def _stored_ids(chunk: bytes) -> Iterator[tuple[int, str]]:
    """Yield ``(line offset, id)`` for a superset of the ids in ``chunk``.

    A line whose head :data:`_LINE_HEAD` vouches for contributes its
    stored id without being decoded; any other line is decoded the way
    :meth:`RunLedger.entries` decodes it.  A vouched line holds no id
    but its head's, yet may hold none at all (a torn line merged with
    the next append), hence "superset".  Offsets are those of the
    ``\\n``-terminated line within ``chunk``.
    """
    plain = _splits_on_newlines_only(chunk)
    start, end = 0, len(chunk)
    while start < end:
        stop = chunk.find(b"\n", start, end)
        if stop < 0:
            stop = end
        head = _LINE_HEAD.match(chunk, start, stop)
        if (
            head is not None
            and (plain or _splits_on_newlines_only(chunk[start:stop]))
            and _keeps_head_id(chunk, head.end(), stop)
        ):
            yield start, head.group(1).decode("ascii")
        else:
            for entry in _decode(chunk[start:stop]):
                yield start, entry.entry_id
        start = stop + 1


def _decode(raw: bytes) -> Iterator[LedgerEntry]:
    """Yield the entries :meth:`RunLedger.entries` reads from ``raw``.

    ``raw`` is one ``\\n``-delimited line of the file; ``\\n`` is never
    part of a multi-byte character, so decoding it alone reads it as
    decoding the whole file does.
    """
    for line in raw.decode(locale.getpreferredencoding(False)).splitlines():
        entry = _parse_line(line)
        if entry is not None:
            yield entry


def _splits_on_newlines_only(raw: bytes) -> bool:
    """Whether ``raw`` is ASCII that ``str.splitlines`` breaks only at ``\\n``."""
    return raw.isascii() and not any(brk in raw for brk in _OTHER_LINE_BREAKS)


def _keeps_head_id(chunk: bytes, rest: int, stop: int) -> bool:
    """Whether no key in ``chunk[rest:stop]`` can override the head's id.

    ``json.loads`` keeps the last of duplicate keys, so a later key that
    reads ``"entry_id"`` -- literally or through a ``\\u`` escape --
    would win over the head.
    """
    if chunk.find(b'"entry_id"', rest, stop) >= 0:
        return False
    # The one-byte search is a memchr; most lines have no backslash.
    return chunk.find(b"\\", rest, stop) < 0 or chunk.find(b"\\u", rest, stop) < 0


class RunLedger:
    """Append-only, content-addressed run history on disk.

    Parameters
    ----------
    directory:
        Ledger root.  Defaults to ``$REPRO_LEDGER_DIR`` when set, else
        ``.repro/ledger`` under the working directory.  Created on
        first append, not on construction -- instantiating a ledger to
        *read* never touches the filesystem.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = os.environ.get(LEDGER_ENV_DIR) or DEFAULT_LEDGER_DIRNAME
        self.directory = Path(directory)
        self.path = self.directory / "ledger.jsonl"
        # Dedup state (see the module docstring): the ids stored in the
        # file's first ``_scanned`` bytes, each with the offsets of the
        # lines it was found in (a superset confirmed on a hit), and the
        # (device, inode) those bytes were read from.  ``_lock`` makes
        # scan -> confirm -> write one step for threads sharing the
        # instance.
        self._scanned = 0
        self._stored: dict[str, list[int]] = {}
        self._file_id: tuple[int, int] | None = None
        self._lock = threading.Lock()

    # -- writing -------------------------------------------------------

    def append(
        self,
        kind: str,
        payload: Mapping[str, object],
        design: str | None = None,
        provenance: Mapping[str, object] | None = None,
    ) -> LedgerEntry | None:
        """Append one entry; return it, or None when deduplicated.

        The entry id is computed from the content; an id already in
        the ledger is *not* appended again (re-running ``repro
        bench-gate`` on an unchanged telemetry file adds nothing), so
        the history stays one line per distinct measurement.  Safe to
        call from several threads on one instance: the scan, the
        duplicate check and the write happen under the instance's lock.

        Raises
        ------
        ObservabilityError
            If the payload is not JSON-serializable.
        """
        if provenance is None:
            # Imported lazily: repro.metrics imports the runtime layer,
            # which imports repro.observability -- an eager import here
            # would be circular.
            from repro.metrics.provenance import collect_provenance

            provenance = collect_provenance().as_dict()
        entry = LedgerEntry(
            entry_id=entry_id_for(kind, design, payload),
            kind=kind,
            design=design,
            payload=dict(payload),
            provenance=dict(provenance),
        )
        try:
            line = json.dumps(entry.as_dict(), sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"ledger payload for kind {kind!r} is not JSON-serializable: {exc}"
            ) from exc
        with self._lock:
            self._scan()
            if self._holds(entry.entry_id):
                return None
            self.directory.mkdir(parents=True, exist_ok=True)
            # One write call per line: POSIX O_APPEND keeps concurrent
            # appenders (parallel bench sessions) from interleaving bytes.
            with self.path.open("a") as handle:
                handle.write(line + "\n")
        return entry

    # -- reading -------------------------------------------------------

    def _scan(self) -> None:
        """Fold the lines appended since the last scan into ``_stored``.

        Reads from ``_scanned`` to the end of the file and consumes up
        to the last newline; an unterminated tail is looked at (it may
        be a whole entry without its newline) but read again next time.
        """
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            self._scanned, self._stored, self._file_id = 0, {}, None
            return
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read ledger {self.path}: {exc}"
            ) from exc
        with handle:
            status = os.fstat(handle.fileno())
            file_id = (status.st_dev, status.st_ino)
            if file_id != self._file_id or status.st_size < self._scanned:
                self._scanned, self._stored, self._file_id = 0, {}, file_id
            start = self._scanned
            handle.seek(start)
            chunk = handle.read()
        for offset, entry_id in _stored_ids(chunk):
            offsets = self._stored.setdefault(entry_id, [])
            # Once per line: the unterminated tail is scanned again
            # next time, and a line may hold one id twice.
            if not offsets or offsets[-1] != start + offset:
                offsets.append(start + offset)
        self._scanned = start + chunk.rfind(b"\n") + 1

    def _holds(self, entry_id: str) -> bool:
        """Whether :meth:`entries` yields ``entry_id``, as of the last scan.

        Decodes only the lines the scan found ``entry_id`` in: any other
        line holds either a different head id or was decoded by the
        scan without yielding it.
        """
        offsets = self._stored.get(entry_id)
        if not offsets:
            return False
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read ledger {self.path}: {exc}"
            ) from exc
        with handle:
            for offset in offsets:
                handle.seek(offset)
                if any(
                    entry.entry_id == entry_id
                    for entry in _decode(handle.readline())
                ):
                    return True
        return False

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def entries(
        self, design: str | None = None, kind: str | None = None
    ) -> Iterator[LedgerEntry]:
        """Yield entries in append order, optionally filtered.

        Malformed lines (a torn tail from a crash mid-append, a hand
        edit) are skipped, never fatal: the ledger must stay readable
        after any single bad write.
        """
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read ledger {self.path}: {exc}"
            ) from exc
        for line in text.splitlines():
            entry = _parse_line(line)
            if entry is None:
                continue
            if design is not None and entry.design != design:
                continue
            if kind is not None and entry.kind != kind:
                continue
            yield entry

    def designs(self) -> list[str]:
        """Return every design with at least one entry, sorted."""
        return sorted(
            {entry.design for entry in self.entries() if entry.design is not None}
        )
