"""Tests for the binary wire protocol (:mod:`repro.serve.wire`).

Three layers: the value codec and frame parser in isolation (including
a Hypothesis encode→decode≡identity sweep over every opcode), the
request/response framing helpers, and socket-level round trips against
a live server — partial frames split across TCP writes, oversized and
version-mismatched frames, JSON and binary clients interleaved on one
port, and the strict-encoder 500 path.
"""

from __future__ import annotations

import json
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SummaryBuilder
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    SummaryServer,
    wire,
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def summary():
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 4)]
    )
    rng = np.random.default_rng(7)
    relation = Relation(
        schema,
        [rng.choice(3, size=300, p=[0.5, 0.3, 0.2]), rng.integers(0, 4, 300)],
    )
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(50)
        .name("wire-test")
        .fit()
    )


@pytest.fixture(scope="module")
def running(summary):
    server = SummaryServer(
        summary, config=ServeConfig(cache_ttl=None)
    )
    with ServerThread(server) as live:
        yield live


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------

class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**63 - 1,
            -(2**63),
            0.0,
            3.5,
            float("inf"),
            "",
            "héllo",
            b"",
            b"\x00\xff",
            [],
            {},
            [1, "two", None, [True, 2.5]],
            {"a": 1, "b": {"c": [None, False]}, "d": "x"},
        ],
    )
    def test_round_trip(self, value):
        assert wire.unpackb(wire.packb(value)) == value

    def test_nan_round_trips(self):
        decoded = wire.unpackb(wire.packb(float("nan")))
        assert decoded != decoded  # NaN survives as NaN

    def test_float64_vector_round_trips_zero_copy(self):
        vector = np.array([1.5, -2.0, 0.0, 1e300])
        decoded = wire.unpackb(wire.packb(vector))
        assert isinstance(decoded, np.ndarray)
        assert decoded.dtype == np.float64
        np.testing.assert_array_equal(decoded, vector)
        # A decoded vector is a view over the frame bytes, not a copy.
        assert decoded.base is not None

    def test_numpy_scalars_decode_as_python_scalars(self):
        packed = wire.packb(
            {"i": np.int64(4), "f": np.float64(2.5), "b": np.bool_(True)}
        )
        assert wire.unpackb(packed) == {"i": 4, "f": 2.5, "b": True}

    def test_tuples_decode_as_lists(self):
        assert wire.unpackb(wire.packb((1, 2))) == [1, 2]

    @pytest.mark.parametrize("view", [bytearray, memoryview])
    def test_any_bytes_like_body_decodes(self, view):
        value = {"labels": [["a"], ["b"]], "counts": np.array([1.0, 2.0])}
        decoded = wire.unpackb(view(wire.packb(value)))
        assert decoded["labels"] == [["a"], ["b"]]
        np.testing.assert_array_equal(decoded["counts"], [1.0, 2.0])

    def test_oversize_int_rejected(self):
        with pytest.raises(wire.WireError, match="64 bits"):
            wire.packb(2**63)

    def test_non_string_keys_rejected(self):
        with pytest.raises(wire.WireError, match="keys must be strings"):
            wire.packb({1: "x"})

    def test_matrix_rejected(self):
        with pytest.raises(wire.WireError, match="1-D"):
            wire.packb(np.zeros((2, 2)))

    def test_unserializable_type_rejected(self):
        with pytest.raises(wire.WireError, match="not wire-serializable"):
            wire.packb(object())

    def test_trailing_garbage_rejected(self):
        with pytest.raises(wire.WireError, match="trailing"):
            wire.unpackb(wire.packb(1) + b"x")

    def test_truncated_body_rejected(self):
        with pytest.raises(wire.WireError, match="truncated"):
            wire.unpackb(wire.packb("hello")[:-2])

    @pytest.mark.parametrize(
        "body",
        [
            b"l\x00\x00\x00\x02s\x00\x00\x00\x09ab",  # a list's string item
            b"m\x00\x00\x00\x01s\x00\x00\x00\x09k",  # a dict key
            b"A\x00\x00\x00\x02" + bytes(8),  # a float64 vector
            b"b\x00\x00\x00\x04ab",  # raw bytes
        ],
    )
    def test_length_past_the_end_is_truncation(self, body):
        with pytest.raises(wire.WireError, match="truncated"):
            wire.unpackb(body)

    def test_unknown_tag_rejected(self):
        with pytest.raises(wire.WireError, match="unknown codec tag"):
            wire.unpackb(b"Z")


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCodecProperties:
    @given(value=_values)
    def test_encode_decode_is_identity(self, value):
        assert wire.unpackb(wire.packb(value)) == value

    @given(
        value=_values,
        opcode=st.sampled_from(wire.ALL_OPCODES),
        request_id=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    )
    def test_frame_round_trip_every_opcode(self, value, opcode, request_id):
        frame = wire.encode_frame(opcode, request_id, value)
        got_opcode, length, got_id = wire.decode_header(
            frame[: wire.HEADER_SIZE]
        )
        assert (got_opcode, got_id) == (opcode, request_id)
        body = frame[wire.HEADER_SIZE :]
        assert len(body) == length
        assert wire.unpackb(body) == value

    @given(
        value=_values,
        opcode=st.sampled_from(wire.ALL_OPCODES),
        chunk=st.integers(min_value=1, max_value=7),
    )
    def test_decoder_reassembles_any_chunking(self, value, opcode, chunk):
        frame = wire.encode_frame(opcode, 42, value)
        decoder = wire.FrameDecoder()
        frames = []
        for start in range(0, len(frame), chunk):
            frames.extend(decoder.feed(frame[start : start + chunk]))
        assert frames == [(opcode, 42, value)]
        assert decoder.pending_bytes == 0


@st.composite
def _hostile_frames(draw):
    """A valid frame of any opcode, then 1-3 random byte mutations and
    possibly a truncation — or, one time in four, random bytes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    frame = bytearray(
        wire.encode_frame(
            draw(st.sampled_from(wire.ALL_OPCODES)),
            draw(st.integers(min_value=-(2**63), max_value=2**63 - 1)),
            draw(_values),
        )
    )
    for _ in range(draw(st.integers(1, 3))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        frame = frame[: draw(st.integers(0, len(frame)))]
    return bytes(frame)


class TestHostileInput:
    """Whatever bytes arrive, the decoders raise ``WireError`` or answer:
    nothing else escapes (a ``UnicodeDecodeError`` or ``struct.error``
    would skip the server's per-frame 400), and every example finishes
    (each decode step consumes input, so none can hang)."""

    @settings(max_examples=300, deadline=1000)
    @given(data=_hostile_frames(), chunk=st.integers(min_value=1, max_value=9))
    def test_only_wire_errors_escape(self, data, chunk):
        def survives(decode, *args):
            try:
                decode(*args)
            except wire.WireError:
                pass

        survives(wire.decode_header, data[: wire.HEADER_SIZE])
        survives(wire.decode_header, data)
        survives(wire.unpackb, data)
        survives(wire.unpackb, data[wire.HEADER_SIZE :])
        for opcode in wire.ALL_OPCODES:
            survives(wire.decode_request, opcode, data[wire.HEADER_SIZE :])
        decoder = wire.FrameDecoder()
        for start in range(0, len(data), chunk):
            try:
                decoder.feed(data[start : start + chunk])
            except wire.WireError:
                break

    @pytest.mark.parametrize(
        "body",
        [
            b"s\x00\x00\x00\x01\xff",  # a bad string value
            b"m\x00\x00\x00\x01s\x00\x00\x00\x02\xc3(N",  # a bad key
        ],
    )
    def test_invalid_utf8_is_a_wire_error(self, body):
        with pytest.raises(wire.WireError, match="UTF-8"):
            wire.unpackb(body)

    def test_deep_nesting_is_a_wire_error(self):
        with pytest.raises(wire.WireError, match="nested"):
            wire.unpackb(b"l\x00\x00\x00\x01" * 100_000 + b"N")

    def test_short_header_is_a_wire_error(self):
        with pytest.raises(wire.WireError, match="header"):
            wire.decode_header(wire.encode_frame(wire.OP_PING, 1, {})[:7])


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

class TestFrames:
    def test_bad_magic_rejected(self):
        header = b"XX" + wire.encode_frame(wire.OP_PING, 1, {})[2:16]
        with pytest.raises(wire.WireError, match="magic"):
            wire.decode_header(header)

    def test_version_mismatch_names_both_versions(self):
        header = struct.Struct(">2sBBIq").pack(
            wire.MAGIC, wire.WIRE_VERSION + 1, wire.OP_PING, 0, 1
        )
        with pytest.raises(wire.WireVersionError) as caught:
            wire.decode_header(header)
        assert str(wire.WIRE_VERSION + 1) in str(caught.value)
        assert str(wire.WIRE_VERSION) in str(caught.value)

    def test_oversized_declared_length_rejected(self):
        header = struct.Struct(">2sBBIq").pack(
            wire.MAGIC, wire.WIRE_VERSION, wire.OP_PING, wire.MAX_BODY + 1, 1
        )
        with pytest.raises(wire.WireError, match="MAX_BODY"):
            wire.decode_header(header)

    def test_oversized_body_rejected_at_encode(self):
        with pytest.raises(wire.WireError, match="MAX_BODY"):
            wire.encode_frame(
                wire.OP_REPLY, 1, b"x" * (wire.MAX_BODY + 1)
            )

    def test_unknown_opcode_rejected(self):
        header = struct.Struct(">2sBBIq").pack(
            wire.MAGIC, wire.WIRE_VERSION, 0x7F, 0, 1
        )
        with pytest.raises(wire.WireError, match="opcode"):
            wire.decode_header(header)

    def test_decoder_streams_multiple_frames_byte_by_byte(self):
        stream = b"".join(
            wire.encode_frame(wire.OP_REPLY, index, {"n": index})
            for index in range(3)
        )
        decoder = wire.FrameDecoder()
        frames = []
        for index in range(len(stream)):
            frames.extend(decoder.feed(stream[index : index + 1]))
        assert frames == [
            (wire.OP_REPLY, 0, {"n": 0}),
            (wire.OP_REPLY, 1, {"n": 1}),
            (wire.OP_REPLY, 2, {"n": 2}),
        ]

    def test_truncated_frame_is_half_a_header(self):
        stub = wire.truncated_frame()
        assert len(stub) == wire.HEADER_SIZE // 2
        assert stub.startswith(wire.MAGIC)


class TestRequests:
    @pytest.mark.parametrize("op", sorted(wire.OPCODE_OF_OP))
    def test_known_ops_round_trip(self, op):
        frame = wire.encode_request({"op": op, "sql": "SELECT 1"}, 9)
        opcode, length, request_id = wire.decode_header(
            frame[: wire.HEADER_SIZE]
        )
        assert opcode == wire.OPCODE_OF_OP[op]
        assert request_id == 9
        request = wire.decode_request(opcode, frame[wire.HEADER_SIZE :])
        assert request == {"op": op, "sql": "SELECT 1"}

    def test_unknown_op_travels_as_generic_request(self):
        frame = wire.encode_request({"op": "explain", "sql": "x"}, 2)
        opcode, _, _ = wire.decode_header(frame[: wire.HEADER_SIZE])
        assert opcode == wire.OP_REQUEST
        request = wire.decode_request(opcode, frame[wire.HEADER_SIZE :])
        assert request == {"op": "explain", "sql": "x"}

    def test_generic_request_without_op_rejected(self):
        body = wire.packb({"sql": "x"})
        with pytest.raises(wire.WireError, match="missing 'op'"):
            wire.decode_request(wire.OP_REQUEST, body)

    def test_response_opcode_is_not_a_request(self):
        with pytest.raises(wire.WireError, match="not a request"):
            wire.decode_request(wire.OP_REPLY, wire.packb({}))

    def test_client_id_field_stays_out_of_the_body(self):
        frame = wire.encode_request({"id": 7, "op": "ping"}, 7)
        request = wire.decode_request(
            wire.OP_PING, frame[wire.HEADER_SIZE :]
        )
        assert "id" not in request


# ----------------------------------------------------------------------
# Result views and the strict JSON encoder
# ----------------------------------------------------------------------

class TestViews:
    PACKED = {
        "kind": "rows",
        "group_by": ["state"],
        "labels": [["CA"], ["NY"]],
        "counts": np.array([10.0, 4.0]),
    }

    def test_rows_view_renders_documented_shape(self):
        assert wire.rows_view(self.PACKED) == {
            "kind": "rows",
            "group_by": ["state"],
            "rows": [["CA", 10.0], ["NY", 4.0]],
        }

    def test_client_view_passes_scalars_through(self):
        payload = {"kind": "scalar", "value": 3.0}
        assert wire.client_view(payload) is payload

    def test_jsonify_converts_nested_packed_rows(self):
        encoded = wire.encode_json_line(
            {"ok": True, "results": [self.PACKED]}
        )
        decoded = json.loads(encoded)
        assert decoded["results"][0]["rows"] == [["CA", 10.0], ["NY", 4.0]]

    def test_jsonify_rejects_unknown_types(self):
        with pytest.raises(wire.WireError, match="not wire-serializable"):
            wire.encode_json_line({"ok": True, "result": object()})

    def test_jsonify_rejects_non_string_keys(self):
        with pytest.raises(wire.WireError, match="keys must be strings"):
            wire.encode_json_line({"ok": True, "result": {1: 2}})


# ----------------------------------------------------------------------
# Socket-level round trips against a live server
# ----------------------------------------------------------------------

def _recv_frame(sock) -> tuple[int, int, object]:
    data = b""
    while len(data) < wire.HEADER_SIZE:
        chunk = sock.recv(wire.HEADER_SIZE - len(data))
        if not chunk:
            raise ConnectionError("closed before header")
        data += chunk
    opcode, length, request_id = wire.decode_header(data)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("closed mid-body")
        body += chunk
    return opcode, request_id, wire.unpackb(body)


class TestServerBinary:
    def test_ping_stats_describe_reload_round_trip(self, running):
        with ServeClient(port=running.port) as client:
            assert client.protocol == "binary"
            assert client.ping() == {"version": 0}
            assert "cache" in client.stats()
            assert client.describe()["name"] == "wire-test"

    def test_grouped_query_matches_json_protocol(self, running):
        sql = "SELECT COUNT(*) FROM R GROUP BY state"
        with ServeClient(port=running.port) as binary:
            with ServeClient(port=running.port, protocol="json") as debug:
                assert binary.query(sql) == debug.query(sql)

    def test_query_batch_answers_in_order(self, running):
        sqls = [
            "SELECT COUNT(*) FROM R",
            "SELECT COUNT(*) FROM R GROUP BY state",
            "SELECT COUNT(*) FROM R WHERE hour >= 2",
        ]
        with ServeClient(port=running.port) as client:
            batch = client.query_many(sqls)
            singles = [client.query(sql) for sql in sqls]
        assert batch == singles

    def test_unknown_op_maps_to_400(self, running):
        with ServeClient(port=running.port) as client:
            with pytest.raises(ServeError, match="unknown op") as caught:
                client.call("explain", sql="SELECT COUNT(*) FROM R")
            assert caught.value.status == 400

    def test_partial_frames_across_tcp_writes(self, running):
        frame = wire.encode_request({"op": "ping"}, 5)
        with socket.create_connection(
            ("127.0.0.1", running.port), timeout=10
        ) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(frame)):
                sock.sendall(frame[index : index + 1])
                if index % 7 == 0:
                    time.sleep(0.001)
            opcode, reply_id, payload = _recv_frame(sock)
        assert opcode == wire.OP_REPLY
        # The low 32 bits echo the request id; the bits above carry the
        # server's trace hint (see wire.pack_trace_hint).
        echo_id, trace_hint = wire.split_trace_hint(reply_id)
        assert echo_id == 5
        assert trace_hint > 0
        assert payload["result"] == "pong"

    def test_version_mismatch_answered_then_closed(self, running):
        header = struct.Struct(">2sBBIq").pack(
            wire.MAGIC, wire.WIRE_VERSION + 1, wire.OP_PING, 0, 3
        )
        with socket.create_connection(
            ("127.0.0.1", running.port), timeout=10
        ) as sock:
            sock.sendall(header)
            opcode, request_id, payload = _recv_frame(sock)
            assert opcode == wire.OP_ERROR
            assert payload["status"] == 400
            assert "version" in payload["error"]
            assert sock.recv(1) == b""  # then the connection closes

    def test_oversized_frame_rejected_cleanly(self, running):
        header = struct.Struct(">2sBBIq").pack(
            wire.MAGIC, wire.WIRE_VERSION, wire.OP_PING, wire.MAX_BODY + 1, 3
        )
        with socket.create_connection(
            ("127.0.0.1", running.port), timeout=10
        ) as sock:
            sock.sendall(header)
            opcode, _, payload = _recv_frame(sock)
            assert opcode == wire.OP_ERROR
            assert payload["status"] == 400
            assert "MAX_BODY" in payload["error"]
            assert sock.recv(1) == b""

    def test_bad_body_answers_400_and_connection_survives(self, running):
        bad = struct.Struct(">2sBBIq").pack(
            wire.MAGIC, wire.WIRE_VERSION, wire.OP_PING, 3, 8
        ) + b"\xff\xff\xff"
        with socket.create_connection(
            ("127.0.0.1", running.port), timeout=10
        ) as sock:
            sock.sendall(bad)
            opcode, request_id, payload = _recv_frame(sock)
            assert (opcode, request_id) == (wire.OP_ERROR, 8)
            assert payload["status"] == 400
            # Stream is still frame-aligned: the next request works.
            sock.sendall(wire.encode_request({"op": "ping"}, 9))
            opcode, reply_id, payload = _recv_frame(sock)
            assert opcode == wire.OP_REPLY
            assert wire.split_trace_hint(reply_id)[0] == 9
            assert payload["result"] == "pong"

    def test_invalid_utf8_query_answers_400_and_connection_survives(
        self, running
    ):
        """A well-framed query whose ``sql`` holds a byte that is not
        UTF-8 gets a per-frame 400 carrying its request id."""
        body = (
            b"m\x00\x00\x00\x01" + wire.packb("sql") + b"s\x00\x00\x00\x01\xff"
        )
        frame = struct.Struct(">2sBBIq").pack(
            wire.MAGIC, wire.WIRE_VERSION, wire.OP_QUERY, len(body), 21
        ) + body
        with socket.create_connection(
            ("127.0.0.1", running.port), timeout=10
        ) as sock:
            sock.sendall(frame)
            opcode, request_id, payload = _recv_frame(sock)
            assert (opcode, request_id) == (wire.OP_ERROR, 21)
            assert payload["status"] == 400 and "UTF-8" in payload["error"]
            sock.sendall(wire.encode_request({"op": "ping"}, 22))
            opcode, reply_id, payload = _recv_frame(sock)
            assert opcode == wire.OP_REPLY
            assert wire.split_trace_hint(reply_id)[0] == 22
            assert payload["result"] == "pong"

    def test_invalid_utf8_json_line_answers_400_and_connection_survives(
        self, running
    ):
        with socket.create_connection(
            ("127.0.0.1", running.port), timeout=10
        ) as sock:
            lines = sock.makefile("rb")
            sock.sendall(b'{"id": 1, "op": "query", "sql": "\xff"}\n')
            reply = json.loads(lines.readline())
            assert reply["ok"] is False and reply["status"] == 400
            sock.sendall(b'{"id": 2, "op": "ping"}\n')
            reply = json.loads(lines.readline())
            assert reply["ok"] is True and reply["id"] == 2
            assert reply["result"] == "pong"

    def test_json_and_binary_clients_interleave_on_one_port(self, running):
        sql = "SELECT COUNT(*) FROM R WHERE state = 'CA'"
        with ServeClient(port=running.port) as binary:
            with ServeClient(port=running.port, protocol="json") as debug:
                for _ in range(3):
                    assert binary.query(sql) == debug.query(sql)
                    assert debug.ping() == binary.ping()

    def test_strict_encoder_maps_to_500_on_both_protocols(self, summary):
        server = SummaryServer(
            summary, config=ServeConfig(cache_ttl=None)
        )
        server.stats = lambda: {"bad": object()}  # type: ignore[method-assign]
        with ServerThread(server) as live:
            for protocol in ("binary", "json"):
                with ServeClient(port=live.port, protocol=protocol) as client:
                    with pytest.raises(
                        ServeError, match="not serializable"
                    ) as caught:
                        client.stats()
                    assert caught.value.status == 500

    def test_binary_disabled_closes_binary_clients(self, summary):
        server = SummaryServer(
            summary, config=ServeConfig(binary=False)
        )
        with ServerThread(server) as live:
            with pytest.raises(ServeError):
                with ServeClient(port=live.port) as client:
                    client.ping()
            with ServeClient(port=live.port, protocol="json") as client:
                assert client.ping() == {"version": 0}
