"""Wire-protocol unit tests: framing, envelopes, validation."""

import json

import pytest

from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    raise_for_response,
    validate_target_halfwidth,
)


def test_encode_decode_roundtrip():
    msg = {"op": "query", "id": 3, "spec": {"family": "member", "k": 2}}
    line = encode_message(msg)
    assert line.endswith(b"\n")
    decoded = decode_line(line)
    assert decoded["op"] == "query"
    assert decoded["spec"] == {"family": "member", "k": 2}
    assert decoded["v"] == PROTOCOL_VERSION  # stamped automatically


def test_encode_preserves_explicit_version():
    assert decode_line(encode_message({"op": "ping", "v": 0}))["v"] == 0


def test_encode_rejects_non_objects_and_nan():
    with pytest.raises(ProtocolError):
        encode_message(["not", "an", "object"])
    with pytest.raises(ValueError):
        encode_message({"op": "query", "x": float("nan")})


def test_encode_rejects_oversized_messages():
    with pytest.raises(ProtocolError, match="cap"):
        encode_message({"op": "query", "blob": "x" * MAX_LINE_BYTES})


def test_decode_rejects_bad_frames():
    with pytest.raises(ProtocolError):
        decode_line(b"not json\n")
    with pytest.raises(ProtocolError):
        decode_line(b"[1, 2, 3]\n")  # JSON but not an object
    with pytest.raises(ProtocolError):
        decode_line(b"\xff\xfe\n")  # undecodable bytes
    with pytest.raises(ProtocolError, match="cap"):
        decode_line(b"x" * (MAX_LINE_BYTES + 1))


def test_response_envelopes():
    ok = ok_response(7, {"pong": True})
    assert raise_for_response(ok) == {"pong": True}
    err = error_response(7, "bad-request", "nope")
    with pytest.raises(ServiceError, match="nope") as exc_info:
        raise_for_response(err)
    assert exc_info.value.kind == "bad-request"


def test_raise_for_response_rejects_malformed_envelopes():
    with pytest.raises(ProtocolError):
        raise_for_response({"ok": True})  # ok without a result
    with pytest.raises(ProtocolError):
        raise_for_response({"ok": False})  # error without an envelope


def test_envelopes_are_json_clean():
    # Every envelope must survive the wire encoding it is destined for.
    for msg in (ok_response(1, {"a": 1}), error_response(None, "protocol", "x")):
        assert decode_line(encode_message(msg)) == {**msg}


def test_validate_target_halfwidth():
    assert validate_target_halfwidth(None) is None
    assert validate_target_halfwidth(0.05) == 0.05
    assert validate_target_halfwidth("0.25") == 0.25
    for bad in (0.0, 1.0, -0.1, "wide", [0.1]):
        with pytest.raises(ValueError):
            validate_target_halfwidth(bad)


def test_cli_default_port_mirrors_protocol():
    # cli.py keeps the port as a literal so `repro --help` never
    # imports the service package; this pins the two together.
    from repro.cli import build_parser
    from repro.service.protocol import DEFAULT_PORT

    parser = build_parser()
    assert parser.parse_args(["serve"]).port == DEFAULT_PORT
    assert parser.parse_args(["query", "--ping"]).port == DEFAULT_PORT
