"""The cluster wire protocol: length-prefixed frames of strict-JSON messages.

Every frame on a coordinator/worker TCP connection is::

    u32 header_len | u32 payload_len | header (strict JSON) | payload (bytes)

(both lengths big-endian).  The header is one control message —
:class:`Register`, :class:`Welcome`, :class:`Task`, :class:`Lease`,
:class:`Heartbeat`, :class:`Steal`, :class:`Stolen`, :class:`Result`,
:class:`Crash`, or :class:`Shutdown` — encoded as strict JSON by the same
:mod:`repro.strictjson` record codec as every record class in the library,
and type-checked field by field on receipt (a wrong-typed field is a
malformed frame, like a missing one).  The payload carries whatever
bulk bytes the message needs, always as a pickle: the ``run_one`` callable
for a task, the leased jobs for a lease, the record for a result, the
exception for a crash.  Pickle carries every record value-identically,
which is what lets the cluster backend hold records bit-identical to
:class:`~repro.execution.backends.SerialBackend`; a record pickle refuses
fails its job as a :class:`Crash`, like a raising runner.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass
from typing import Any, ClassVar

from ..exceptions import ClusterProtocolError
from ..strictjson import from_dict, to_dict

__all__ = [
    "Crash",
    "Heartbeat",
    "Lease",
    "MESSAGE_CLASSES",
    "Register",
    "Result",
    "Shutdown",
    "Steal",
    "Stolen",
    "Task",
    "Welcome",
    "recv_message",
    "send_message",
]

#: Hard ceiling on one frame's header or payload length.  A peer announcing
#: more is malformed (or hostile), not merely large: refusing up front turns
#: a would-be memory bomb into a loud :class:`ClusterProtocolError`.
MAX_FRAME_BYTES = 1 << 31

_HEADER = struct.Struct(">II")

#: Frame-header discriminator -> message class (filled by ``@wire_message``).
MESSAGE_CLASSES: dict[str, type] = {}


def _message_as_dict(self) -> dict:
    """The record codec's dict, led by the message's ``kind``."""
    return {"kind": self.kind, **to_dict(self)}


def _message_from_dict(cls, data: dict):
    """Rebuild a message from :meth:`as_dict` output (``kind`` is checked)."""
    if data.get("kind") != cls.kind:
        raise ClusterProtocolError(
            f"message kind {data.get('kind')!r} does not match {cls.kind!r}"
        )
    return from_dict(cls, data)


def wire_message(cls: type) -> type:
    """Make ``cls`` a frozen wire-message dataclass and register its kind.

    ``as_dict``/``from_dict`` go through :mod:`repro.strictjson`'s record
    codec, installed *on each class* (not a shared base), as
    :func:`~repro.strictjson.record` installs them: the test suite's
    record-class walk looks for the pair in a class's own ``vars()``, so
    every message type gets its own sample, pinned JSON and spawn
    round-trip.
    """
    cls = dataclass(frozen=True)(cls)
    cls.as_dict = _message_as_dict
    cls.from_dict = classmethod(_message_from_dict)
    MESSAGE_CLASSES[cls.kind] = cls
    return cls


@wire_message
class Register:
    """Worker -> coordinator: first frame on every connection."""

    kind: ClassVar[str] = "register"
    pid: int
    host: str


@wire_message
class Welcome:
    """Coordinator -> worker: registration accepted, here is your identity."""

    kind: ClassVar[str] = "welcome"
    worker_id: int
    heartbeat_s: float


@wire_message
class Task:
    """Coordinator -> worker: payload is the pickled ``run_one`` callable."""

    kind: ClassVar[str] = "task"


@wire_message
class Lease:
    """Coordinator -> worker: payload is the pickled tuple of leased jobs."""

    kind: ClassVar[str] = "lease"
    job_ids: tuple[int, ...]


@wire_message
class Heartbeat:
    """Worker -> coordinator: liveness plus what the worker is doing.

    ``current_job`` is ``-1`` when idle; ``n_queued`` counts leased jobs
    not yet started (the pool a :class:`Steal` can draw from).
    """

    kind: ClassVar[str] = "heartbeat"
    worker_id: int
    current_job: int
    n_queued: int


@wire_message
class Steal:
    """Coordinator -> worker: hand back up to ``max_jobs`` unstarted jobs."""

    kind: ClassVar[str] = "steal"
    max_jobs: int


@wire_message
class Stolen:
    """Worker -> coordinator: the jobs it gave back (possibly none).

    Only ids travel — the coordinator still owns the job objects it leased,
    so the response needs no payload.
    """

    kind: ClassVar[str] = "stolen"
    job_ids: tuple[int, ...]


@wire_message
class Result:
    """Worker -> coordinator: one finished job; payload is the pickled record."""

    kind: ClassVar[str] = "result"
    job_id: int


@wire_message
class Crash:
    """Worker -> coordinator: ``run_one`` raised; payload is the exception.

    This is the *in-protocol* failure path — the worker survived, the
    runner did not.  Per the :class:`~repro.execution.base.ExecutionBackend`
    contract the exception propagates to the submitting consumer.  A worker
    that dies outright never sends anything; the coordinator detects that
    by missed heartbeats or connection loss.
    """

    kind: ClassVar[str] = "crash"
    job_id: int
    message: str


@wire_message
class Shutdown:
    """Coordinator -> worker: the campaign is complete, stand down."""

    kind: ClassVar[str] = "shutdown"


def send_message(sock: socket.socket, message, payload: bytes = b"") -> None:
    """Write one frame: the message as strict JSON plus its payload bytes."""
    header = json.dumps(message.as_dict(), allow_nan=False).encode("utf-8")
    sock.sendall(_HEADER.pack(len(header), len(payload)) + header + payload)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    """Read exactly ``n_bytes``; raise ``EOFError`` on a closed peer."""
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> tuple[Any, bytes]:
    """Read one frame; returns the decoded message and its raw payload."""
    header_len, payload_len = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if header_len > MAX_FRAME_BYTES or payload_len > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame announces {header_len}+{payload_len} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte ceiling — malformed or hostile peer"
        )
    raw_header = _recv_exact(sock, header_len)
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except ValueError as exc:
        # UnicodeDecodeError and JSONDecodeError both: a peer that frames
        # correctly but speaks something other than our JSON control plane.
        raise ClusterProtocolError(
            f"frame header is not valid JSON: {exc}"
        ) from None
    if not isinstance(header, dict):
        raise ClusterProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    cls = MESSAGE_CLASSES.get(header.get("kind"))
    if cls is None:
        raise ClusterProtocolError(f"unknown message kind {header.get('kind')!r}")
    try:
        return cls.from_dict(header), payload
    except (KeyError, TypeError) as exc:
        raise ClusterProtocolError(
            f"malformed {header.get('kind')!r} frame: {exc!r}"
        ) from None

