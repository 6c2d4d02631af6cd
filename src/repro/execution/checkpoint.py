"""Durable JSONL checkpoint journal for streaming batch runs.

A journal is the crash-safety half of the streaming contract: as records
arrive from an :class:`~repro.execution.base.ExecutionBackend`, the
:class:`~repro.execution.controller.RunController` appends one JSON line per
record.  Each append is written and flushed atomically enough that a killed
run leaves a *strict prefix* of complete lines plus at most one truncated
tail line, which :meth:`CheckpointJournal.load` tolerates by stopping at the
first unparsable line.  The next :meth:`append` then truncates the file back
to that valid prefix before writing, so a journal heals across any number of
kill/resume cycles — later loads never lose records that were appended after
a mangled tail.  Resuming is then just "load the journal, skip those job
ids, run the rest, append" — and because records round-trip through JSON
exactly (Python serialises floats by shortest-repr), a resumed run merges
bit-identically with the records the dead run already produced.

A journal may carry a ``fingerprint``: an opaque caller-supplied string
written as a header line on first append and checked on load, so resuming a
campaign against a journal written by a *different* campaign (same file
path, different grid/seed) fails loudly instead of silently adopting the
wrong records.

The journal is generic: it stores whatever ``serialize(record)`` returns
(any JSON-serialisable dict) and rebuilds records with ``deserialize``.
The campaign layer plugs in ``CampaignJobRecord``'s ``as_dict`` /
``from_dict`` (the :func:`repro.strictjson.record` codec), whose typed
decode makes a line with a wrong-typed field unreadable, like a torn one.
All file I/O is binary so the healing offsets are exact byte positions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from ..exceptions import ConfigurationError
from ..strictjson import decode_tree
from ..strictjson import dumps as _strict_dumps

__all__ = ["CheckpointJournal"]


def _identity(value: Any) -> Any:
    return value


class CheckpointJournal:
    """Append-only JSONL record journal keyed by job id.

    Parameters
    ----------
    path:
        The journal file.  Created (with parents) on first append; a
        missing file loads as empty.
    serialize / deserialize:
        Record <-> JSON-dict converters; identity by default, so plain
        dict records need no configuration.
    fingerprint:
        Optional identity of the run this journal belongs to.  Written as
        a header line when the journal is first created and compared on
        :meth:`load`: a mismatch raises
        :class:`~repro.exceptions.ConfigurationError` rather than letting
        a resume adopt another run's records.  A journal without a header
        (or a journal opened without a fingerprint) is accepted as-is.
    """

    def __init__(
        self,
        path: str | Path,
        serialize: Callable[[Any], dict] | None = None,
        deserialize: Callable[[dict], Any] | None = None,
        fingerprint: str | None = None,
    ) -> None:
        self._path = Path(path)
        self._serialize = serialize or _identity
        self._deserialize = deserialize or _identity
        self._fingerprint = fingerprint
        # Byte length of the valid line prefix found by the last load();
        # None until a load has scanned the file.  append() truncates back
        # to this before writing when the last load found trailing junk.
        self._valid_bytes: int | None = None

    @property
    def path(self) -> Path:
        """Where the journal lives."""
        return self._path

    def load(self) -> dict[int, Any]:
        """Completed records keyed by job id; ``{}`` for a missing journal.

        Reading stops at the first unparsable or incomplete line: a run
        killed mid-append leaves at most one truncated tail line, so
        everything before it is a trustworthy prefix (the next
        :meth:`append` truncates the junk away).  Later duplicates of a
        job id win (a retried-and-rejournaled job supersedes itself).

        Raises
        ------
        ConfigurationError
            When both the journal's header line and this instance carry a
            fingerprint and they disagree — the file belongs to a
            different run.
        """
        if not self._path.exists():
            self._valid_bytes = None
            return {}
        completed: dict[int, Any] = {}
        valid_bytes = 0
        expect_header = True
        lines = self._path.read_bytes().splitlines(keepends=True)
        for index, line in enumerate(lines):
            if not line.endswith(b"\n"):
                # A complete line always carries its newline (written in the
                # same append).  A newline-less tail is a line cut mid-write
                # — even when the cut happens to leave parsable JSON, which
                # would otherwise let the next append glue onto it and
                # corrupt the file for every later load.
                self._require_final(lines, index)
                break
            stripped = line.strip()
            if not stripped:
                valid_bytes += len(line)
                continue
            try:
                entry = json.loads(stripped)
                if expect_header and isinstance(entry, dict) and "fingerprint" in entry:
                    found = entry["fingerprint"]
                    if self._fingerprint is not None and found != self._fingerprint:
                        raise ConfigurationError(
                            f"checkpoint journal {self._path} belongs to a "
                            f"different run (journal fingerprint {found!r}, "
                            f"expected {self._fingerprint!r}); use a fresh "
                            "journal path or delete the stale file"
                        )
                    expect_header = False
                    valid_bytes += len(line)
                    continue
                job_id = int(entry["job_id"])
                record = self._deserialize(decode_tree(entry["record"]))
            except ConfigurationError:
                raise
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # A truncated tail from a killed run: keep the prefix.  Only
                # the FINAL line can be a kill artefact — an unparsable line
                # *followed by* records means mid-file corruption (bit rot,
                # an incompatible writer), and healing would silently delete
                # the valid records after it.
                self._require_final(lines, index)
                break
            expect_header = False
            completed[job_id] = record
            valid_bytes += len(line)
        self._valid_bytes = valid_bytes
        return completed

    def _require_final(self, lines: list[bytes], index: int) -> None:
        """Raise unless every line after ``index`` is blank."""
        if any(line.strip() for line in lines[index + 1 :]):
            raise ConfigurationError(
                f"checkpoint journal {self._path} is corrupt mid-file "
                f"(unreadable line {index + 1} is followed by more records); "
                "refusing to heal — that would silently discard the records "
                "after it"
            )

    def append(self, job_id: int, record: Any) -> None:
        """Durably append one completed record as a single JSON line.

        If the last :meth:`load` found a truncated tail (a line killed
        mid-write), the file is first cut back to the valid prefix so the
        mangled bytes never shadow the records appended after them.  A
        brand-new (or fully truncated) journal with a configured
        fingerprint gets the header line written first.
        """
        line = self._encode({"job_id": int(job_id), "record": self._serialize(record)})
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if (
            self._valid_bytes is None
            and self._path.exists()
            and self._path.stat().st_size > 0
        ):
            # First touch of an existing file on this instance: scan it so
            # the healing guarantee holds even for append-without-load use
            # (also surfaces a fingerprint mismatch before we write).
            self.load()
        with open(self._path, "ab") as handle:
            size = handle.tell()  # binary append mode positions at EOF
            if self._valid_bytes is not None and size > self._valid_bytes:
                # Bytes appeared past the prefix this instance last saw.
                # Re-verify before cutting: complete parsable lines are
                # another writer's durable records (adopt them); only
                # genuine junk — a killed run's torn tail — is truncated.
                keep = self._valid_bytes + self._tail_extension(self._valid_bytes)
                if size > keep:
                    handle.truncate(keep)
                self._valid_bytes = keep
                size = keep
            if size == 0 and self._fingerprint is not None:
                header = self._encode({"fingerprint": self._fingerprint})
                handle.write(header)
                self._note_written(len(header))
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())  # survive power loss, not just SIGKILL
            self._note_written(len(line))

    def _tail_extension(self, start: int) -> int:
        """Bytes of complete, parsable lines sitting after ``start``.

        Applies the same refuse-to-heal policy as :meth:`load`: an
        unparsable line with records after it is mid-file corruption and
        raises, rather than letting the caller truncate valid data away.
        """
        extension = 0
        lines = self._path.read_bytes()[start:].splitlines(keepends=True)
        for index, line in enumerate(lines):
            parsable = line.endswith(b"\n")
            stripped = line.strip()
            if parsable and stripped:
                try:
                    entry = json.loads(stripped)
                    int(entry["job_id"])
                    self._deserialize(decode_tree(entry["record"]))
                except Exception:
                    parsable = False
            if not parsable:
                self._require_final(lines, index)
                break
            extension += len(line)
        return extension

    @staticmethod
    def _encode(entry: dict) -> bytes:
        # Tagged strict JSON: a record's raw non-finite floats are written
        # as {"__nonfinite__": ...} dicts (untagged again by load) instead
        # of the invalid NaN/Infinity tokens, so the journal stays readable
        # by any JSON parser while float("inf") records still round-trip.
        return (_strict_dumps(entry) + "\n").encode("utf-8")

    def _note_written(self, n_bytes: int) -> None:
        if self._valid_bytes is not None:
            self._valid_bytes += n_bytes
