"""NDJSON wire protocol: framing, validation, and error envelopes."""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve import client as client_module
from repro.serve import protocol
from repro.serve.client import SocketClient
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    decode_response,
    encode,
    error_response,
    validate_request,
)


class TestFraming:
    def test_encode_is_newline_terminated_compact_json(self):
        raw = encode({"op": "ping", "id": 3})
        assert raw.endswith(b"\n")
        assert b" " not in raw.rstrip(b"\n")
        assert json.loads(raw) == {"op": "ping", "id": 3}

    def test_encode_sorts_keys_deterministically(self):
        a = encode({"b": 1, "a": 2})
        b = encode({"a": 2, "b": 1})
        assert a == b

    def test_round_trip(self):
        msg = {"op": "submit", "id": 1, "size": 4, "runtime": 60.0}
        assert decode_line(encode(msg)) == msg

    def test_decode_accepts_str_and_bytes(self):
        assert decode_line('{"op":"ping"}') == {"op": "ping"}
        assert decode_line(b'{"op":"ping"}\n') == {"op": "ping"}

    def test_oversize_line_rejected(self):
        blob = b'{"op":"' + b"x" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(blob)

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1,2,3]")

    def test_bad_utf8_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b'\xff\xfe{"op":"ping"}')

    def test_responses_are_not_held_to_the_request_cap(self):
        report = {"ok": True, "report": {"blob": "x" * (4 * MAX_LINE_BYTES)}}
        assert decode_response(encode(report)) == report

    def test_client_rejects_an_endless_response_line(self, monkeypatch):
        # A peer streaming bytes with no newline must not be buffered
        # without limit; shrink the cap so the test sends little.
        monkeypatch.setattr(protocol, "MAX_RESPONSE_BYTES", 1024)
        monkeypatch.setattr(client_module, "MAX_RESPONSE_BYTES", 1024)
        ours, theirs = socket.socketpair()
        with SocketClient(ours) as client:
            theirs.sendall(b"x" * 4096)
            with pytest.raises(ProtocolError, match="response line exceeds 1024"):
                client.ping()
        theirs.close()

    def test_bad_response_named_as_response(self):
        with pytest.raises(ProtocolError, match="response is not valid JSON"):
            decode_response(b"{nope")
        with pytest.raises(ProtocolError, match="response must be a JSON object"):
            decode_response(b"[1]")


class TestValidation:
    def test_known_ops_pass(self):
        assert validate_request({"op": "ping"}) == "ping"
        assert (
            validate_request({"op": "submit", "id": 1, "size": 2, "runtime": 1.0})
            == "submit"
        )
        assert validate_request({"op": "cancel", "id": 1}) == "cancel"
        assert validate_request({"op": "drain"}) == "drain"

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError, match="op"):
            validate_request({"id": 1})

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "explode"})

    def test_missing_required_field_named(self):
        with pytest.raises(ProtocolError, match="runtime"):
            validate_request({"op": "submit", "id": 1, "size": 2})

    @pytest.mark.parametrize(
        "field,value",
        [("id", "seven"), ("id", True), ("size", 2.5), ("runtime", "fast")],
    )
    def test_wrong_field_types_rejected(self, field, value):
        msg = {"op": "submit", "id": 1, "size": 2, "runtime": 1.0}
        msg[field] = value
        with pytest.raises(ProtocolError, match=field):
            validate_request(msg)

    def test_error_response_envelope(self):
        resp = error_response(ServeError("boom"), id=4)
        assert resp["ok"] is False
        assert resp["error"] == "boom"
        assert resp["id"] == 4
