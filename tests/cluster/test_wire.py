"""Tests for the cluster wire protocol: frames and messages."""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.cluster.wire import (
    MESSAGE_CLASSES,
    Crash,
    Heartbeat,
    Lease,
    Register,
    Result,
    Shutdown,
    Steal,
    Stolen,
    Task,
    Welcome,
    recv_message,
    send_message,
)
from repro.exceptions import ClusterProtocolError

SAMPLES = [
    Register(pid=4242, host="node-a"),
    Welcome(worker_id=3, heartbeat_s=0.2),
    Task(),
    Lease(job_ids=(3, 4, 5)),
    Heartbeat(worker_id=3, current_job=-1, n_queued=2),
    Steal(max_jobs=4),
    Stolen(job_ids=()),
    Result(job_id=9),
    Crash(job_id=9, message="ValueError: boom"),
    Shutdown(),
]

#: Frame headers a peer could send with a field of the wrong JSON type
#: (plus one missing a field), each of which must be refused.
WRONG_TYPED_HEADERS = {
    "result-job-id-str": {"kind": "result", "job_id": "3"},
    "result-job-id-bool": {"kind": "result", "job_id": True},
    "stolen-job-ids-int": {"kind": "stolen", "job_ids": 5},
    "stolen-job-ids-items": {"kind": "stolen", "job_ids": ["a", None]},
    "heartbeat-fields": {
        "kind": "heartbeat",
        "worker_id": 1,
        "current_job": 2.5,
        "n_queued": "many",
    },
    "welcome-heartbeat-str": {"kind": "welcome", "worker_id": 1, "heartbeat_s": "0.2"},
    "crash-message-list": {"kind": "crash", "job_id": 3, "message": ["x"]},
    "register-missing-host": {"kind": "register", "pid": 7},
}


class TestMessageRoundTrip:
    def test_every_kind_has_a_sample(self):
        assert {type(m).kind for m in SAMPLES} == set(MESSAGE_CLASSES)

    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: m.kind)
    def test_strict_json_round_trip(self, message):
        encoded = json.dumps(message.as_dict(), allow_nan=False)
        assert type(message).from_dict(json.loads(encoded)) == message

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ClusterProtocolError, match="kind"):
            Lease.from_dict(Steal(max_jobs=1).as_dict())

    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: m.kind)
    def test_frame_round_trip_over_a_socket(self, message):
        left, right = socket.socketpair()
        try:
            payload = b"x" * 17 if message.kind in ("lease", "result") else b""
            send_message(left, message, payload)
            received, received_payload = recv_message(right)
            assert received == message
            assert received_payload == payload
        finally:
            left.close()
            right.close()

    def test_frames_preserve_ordering(self):
        left, right = socket.socketpair()
        try:
            for message in SAMPLES:
                send_message(left, message)
            for message in SAMPLES:
                assert recv_message(right)[0] == message
        finally:
            left.close()
            right.close()


class TestMalformedFrames:
    def test_closed_peer_raises_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(EOFError):
                recv_message(right)
        finally:
            right.close()

    def test_truncated_frame_raises_eof(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">II", 50, 0) + b'{"kind":')
            left.close()
            with pytest.raises(EOFError):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_frame_refused_before_allocation(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">II", (1 << 31) + 1, 0))
            with pytest.raises(ClusterProtocolError, match="ceiling"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_unknown_kind_refused(self):
        left, right = socket.socketpair()
        try:
            header = json.dumps({"kind": "teleport"}).encode()
            left.sendall(struct.pack(">II", len(header), 0) + header)
            with pytest.raises(ClusterProtocolError, match="teleport"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        "header", WRONG_TYPED_HEADERS.values(), ids=list(WRONG_TYPED_HEADERS)
    )
    def test_wrong_typed_field_refused(self, header):
        """Every field is decoded against its annotation, not taken on trust."""
        left, right = socket.socketpair()
        try:
            raw = json.dumps(header).encode()
            left.sendall(struct.pack(">II", len(raw), 0) + raw)
            with pytest.raises(
                ClusterProtocolError, match=f"malformed '{header['kind']}' frame"
            ):
                recv_message(right)
        finally:
            left.close()
            right.close()
