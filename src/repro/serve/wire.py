"""The binary wire protocol (and the strict JSON encoder).

The JSON-lines protocol of :mod:`repro.serve.server` spends a measured
share of every round trip encoding and parsing text.  This module is
the fast path: length-prefixed binary frames with a fixed struct-packed
header and a small self-describing value codec, so a response carrying
a group-by count vector ships the raw float64 buffer (decoded
zero-copy with ``np.frombuffer``) instead of a list of JSON literals.

Frame layout (big-endian, 16-byte header)::

    offset  size  field
    0       2     magic  0xAB 0x52  ("\\xabR" — first byte is non-ASCII,
                  so a JSON-lines request can never alias a frame)
    2       1     protocol version (WIRE_VERSION)
    3       1     opcode
    4       4     body length in bytes (uint32, <= MAX_BODY)
    8       8     request id (int64, echoed on the response)
    16      ...   body — one codec-packed value (usually a dict)

The request-id field carries a piggybacked **trace hint** in its spare
upper bits: clients number requests from 1, so ids fit in 32 bits and
bits 32–62 are free.  Replies echo the request id in the low 32 bits
with the low 31 bits of the server's trace id above them
(:func:`pack_trace_hint` / :func:`split_trace_hint`), keeping the
whole i64 positive.  Clients that send an id wider than 32 bits simply
get it echoed verbatim — the hint rides only when the bits are spare.

A server sniffs the **first byte** of each connection: ``0xAB`` selects
the binary loop, anything else (``{``, whitespace, ...) falls back to
newline-delimited JSON — so existing JSON clients keep working with no
flag.  Version negotiation is fail-fast: a frame whose version byte
differs from :data:`WIRE_VERSION` is answered with a status-400 error
frame naming both versions, then the connection closes.

The value codec covers exactly the types the serve protocol speaks —
``None``, bools, 64-bit ints, floats, strings, bytes, lists, string-
keyed dicts, and float64 numpy vectors::

    tag   payload
    'N'   none
    'T'   true
    'F'   false
    'i'   int64 (big-endian)
    'd'   float64 (big-endian)
    's'   uint32 length + UTF-8 bytes
    'b'   uint32 length + raw bytes
    'l'   uint32 count + packed items
    'm'   uint32 count + packed key/value pairs (keys are strings)
    'A'   uint32 count + native-endian float64 buffer

Anything else is a programming error and raises :class:`WireError` —
the server maps encode failures to a 500-style response instead of
silently stringifying them (which is also why :func:`encode_json_line`
lives here: the JSON debug path shares the same strictness).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.errors import ReproError

#: First frame bytes; byte 0 is non-ASCII so JSON requests cannot alias.
MAGIC = b"\xabR"
#: Bump on any incompatible frame/codec change.
WIRE_VERSION = 1
#: Largest accepted frame body; oversized frames are rejected with a
#: clean status-400 error frame before the connection closes.
MAX_BODY = 16 * 1024 * 1024

_HEADER = struct.Struct(">2sBBIq")
HEADER_SIZE = _HEADER.size

# -- opcodes -----------------------------------------------------------
OP_QUERY = 0x01
OP_QUERY_BATCH = 0x02
OP_PING = 0x03
OP_STATS = 0x04
OP_DESCRIBE = 0x05
OP_RELOAD = 0x06
#: Escape hatch: any request dict (op name carried in the body), so the
#: binary protocol covers future ops without a version bump.
OP_REQUEST = 0x07
OP_REPLY = 0x81
OP_ERROR = 0x82

#: op name <-> request opcode (ops without a dedicated opcode travel as
#: OP_REQUEST with the name in the body).
OPCODE_OF_OP = {
    "query": OP_QUERY,
    "query_batch": OP_QUERY_BATCH,
    "ping": OP_PING,
    "stats": OP_STATS,
    "describe": OP_DESCRIBE,
    "reload": OP_RELOAD,
}
OP_OF_OPCODE = {opcode: op for op, opcode in OPCODE_OF_OP.items()}
REQUEST_OPCODES = (*OPCODE_OF_OP.values(), OP_REQUEST)
RESPONSE_OPCODES = (OP_REPLY, OP_ERROR)
ALL_OPCODES = (*REQUEST_OPCODES, *RESPONSE_OPCODES)


class WireError(ReproError):
    """A frame or value violates the wire protocol."""


class WireVersionError(WireError):
    """The peer speaks a different protocol version."""

    def __init__(self, version: int):
        super().__init__(
            f"unsupported wire protocol version {version}; this server "
            f"speaks version {WIRE_VERSION}"
        )
        self.version = version


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _pack_into(value, out: list) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int) and not isinstance(value, bool):
        if not _I64_MIN <= value <= _I64_MAX:
            raise WireError(f"integer {value} does not fit in 64 bits")
        out.append(b"i" + _I64.pack(value))
    elif isinstance(value, float):
        out.append(b"d" + _F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s" + _U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(b"b" + _U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, np.ndarray):
        if value.ndim != 1:
            raise WireError(
                f"only 1-D float arrays are wire-serializable, got shape "
                f"{value.shape}"
            )
        vector = np.ascontiguousarray(value, dtype=np.float64)
        out.append(b"A" + _U32.pack(vector.shape[0]))
        out.append(vector.tobytes())
    elif isinstance(value, (list, tuple)):
        out.append(b"l" + _U32.pack(len(value)))
        for item in value:
            _pack_into(item, out)
    elif isinstance(value, dict):
        out.append(b"m" + _U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(
                    f"dict keys must be strings, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out.append(b"s" + _U32.pack(len(raw)))
            out.append(raw)
            _pack_into(item, out)
    elif isinstance(value, (np.integer, np.floating, np.bool_)):
        _pack_into(value.item(), out)
    else:
        raise WireError(
            f"type {type(value).__name__} is not wire-serializable"
        )


def packb(value) -> bytes:
    """Pack one value into codec bytes."""
    out: list = []
    _pack_into(value, out)
    return b"".join(out)


_read_i64 = _I64.unpack_from
_read_f64 = _F64.unpack_from
_read_u32 = _U32.unpack_from
_TAG_S, _TAG_D, _TAG_M, _TAG_L, _TAG_I, _TAG_T, _TAG_F, _TAG_N, _TAG_A, _TAG_B = b"sdmliTFNAb"
_TRUNCATED = "truncated value in frame body"


def _unpack(buffer, offset: int):
    """``(value, offset just past it)`` of the value packed at
    ``offset``.  Reads tags and lengths straight from the buffer: every
    reply a client receives passes through here, and the client's CPU
    per query sets the served throughput whenever the kernel stacks
    client and server on one CPU (``docs/serving.md``, "What a miss
    costs").  Running off the end raises ``IndexError`` or
    ``struct.error``, which :func:`unpackb` reports as truncation."""
    tag = buffer[offset]
    offset += 1
    if tag == _TAG_S:
        start = offset + 4
        end = start + _read_u32(buffer, offset)[0]
        if end > len(buffer):
            raise WireError(_TRUNCATED)
        return buffer[start:end].decode(), end
    if tag == _TAG_D:
        return _read_f64(buffer, offset)[0], offset + 8
    if tag == _TAG_M:
        count = _read_u32(buffer, offset)[0]
        offset += 4
        result = {}
        for _ in range(count):
            if buffer[offset] != _TAG_S:
                raise WireError("dict keys must be strings")
            start = offset + 5
            end = start + _read_u32(buffer, offset + 1)[0]
            if end > len(buffer):
                raise WireError(_TRUNCATED)
            result[buffer[start:end].decode()], offset = _unpack(buffer, end)
        return result, offset
    if tag == _TAG_T:
        return True, offset
    if tag == _TAG_F:
        return False, offset
    if tag == _TAG_I:
        return _read_i64(buffer, offset)[0], offset + 8
    if tag == _TAG_L:
        count = _read_u32(buffer, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _unpack(buffer, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_N:
        return None, offset
    if tag == _TAG_A:
        start = offset + 4
        end = start + 8 * _read_u32(buffer, offset)[0]
        if end > len(buffer):
            raise WireError(_TRUNCATED)
        # Zero-copy: the array is a view over the frame bytes (which it
        # keeps alive); no Python floats are ever materialized.
        return np.frombuffer(memoryview(buffer)[start:end], dtype=np.float64), end
    if tag == _TAG_B:
        start = offset + 4
        end = start + _read_u32(buffer, offset)[0]
        if end > len(buffer):
            raise WireError(_TRUNCATED)
        return buffer[start:end], end
    raise WireError(f"unknown codec tag {bytes([tag])!r}")


def unpackb(buffer):
    """Unpack one codec value; rejects trailing garbage.  Malformed
    input of any kind raises :class:`WireError` and nothing else."""
    if not isinstance(buffer, bytes):
        buffer = bytes(buffer)
    try:
        value, end = _unpack(buffer, 0)
    except (IndexError, struct.error):
        raise WireError(_TRUNCATED) from None
    except UnicodeDecodeError as error:
        raise WireError(f"string is not valid UTF-8: {error.reason}") from None
    except RecursionError:
        raise WireError("value nested too deeply") from None
    if end != len(buffer):
        raise WireError(f"{len(buffer) - end} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

#: The trace hint is 31 bits so a packed id never sets the i64 sign bit.
TRACE_HINT_MASK = 0x7FFFFFFF
#: Request ids wider than this cannot carry a hint (bits aren't spare).
REQUEST_ID_MASK = 0xFFFFFFFF


def pack_trace_hint(request_id: int, trace_hint: int) -> int:
    """Fold a trace hint into a request id's spare upper bits.

    Ids outside ``[0, 2**32)`` pass through unchanged — their bits are
    not spare, and echoing the id verbatim matters more than tracing.
    """
    if not 0 <= request_id <= REQUEST_ID_MASK:
        return request_id
    return ((trace_hint & TRACE_HINT_MASK) << 32) | request_id


def split_trace_hint(packed_id: int) -> tuple[int, int]:
    """``(request_id, trace_hint)`` of one id field (hint 0 = none)."""
    if not 0 <= packed_id <= _I64_MAX:
        return packed_id, 0
    return packed_id & REQUEST_ID_MASK, (packed_id >> 32) & TRACE_HINT_MASK


def encode_frame(opcode: int, request_id: int, payload) -> bytes:
    """One complete frame: header + packed body."""
    if opcode not in ALL_OPCODES:
        raise WireError(f"unknown opcode 0x{opcode:02x}")
    body = packb(payload)
    if len(body) > MAX_BODY:
        raise WireError(
            f"frame body of {len(body)} bytes exceeds MAX_BODY ({MAX_BODY})"
        )
    return _HEADER.pack(MAGIC, WIRE_VERSION, opcode, len(body), request_id) + body


def decode_header(header: bytes) -> tuple[int, int, int]:
    """``(opcode, body_length, request_id)`` of one header.

    Raises :class:`WireVersionError` on a version mismatch (the frame is
    otherwise well-formed, so the reply can echo the request id) and
    :class:`WireError` on bad magic, an oversized length, or a header
    that is not ``HEADER_SIZE`` bytes.
    """
    if len(header) != HEADER_SIZE:
        raise WireError(
            f"frame header is {len(header)} bytes, expected {HEADER_SIZE}"
        )
    magic, version, opcode, length, request_id = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireVersionError(version)
    if length > MAX_BODY:
        raise WireError(
            f"frame body of {length} bytes exceeds MAX_BODY ({MAX_BODY})",
        )
    if opcode not in ALL_OPCODES:
        raise WireError(f"unknown opcode 0x{opcode:02x}")
    return opcode, length, request_id


class FrameDecoder:
    """Incremental frame parser for arbitrarily-chunked byte streams.

    ``feed(data)`` buffers and yields every complete ``(opcode,
    request_id, payload)`` — a frame split across any number of TCP
    reads decodes once its last byte arrives."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, int, object]]:
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return frames
            opcode, length, request_id = decode_header(
                bytes(self._buffer[:HEADER_SIZE])
            )
            end = HEADER_SIZE + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[HEADER_SIZE:end])
            del self._buffer[:end]
            frames.append((opcode, request_id, unpackb(body)))

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def encode_request(request: dict, request_id: int) -> bytes:
    """Frame one request dict (its ``op`` picks the opcode)."""
    op = request.get("op", "query")
    opcode = OPCODE_OF_OP.get(op, OP_REQUEST)
    body = {key: value for key, value in request.items() if key != "id"}
    return encode_frame(opcode, request_id, body)


def decode_request(opcode: int, body: bytes) -> dict:
    """Request dict of one received frame (op restored from the opcode)."""
    if opcode not in REQUEST_OPCODES:
        raise WireError(f"opcode 0x{opcode:02x} is not a request")
    payload = unpackb(body) if body else {}
    if not isinstance(payload, dict):
        raise WireError("request body must be a dict")
    if opcode != OP_REQUEST:
        payload["op"] = OP_OF_OPCODE[opcode]
    elif "op" not in payload:
        raise WireError("generic request frame is missing 'op'")
    return payload


def error_frame(request_id: int, status: int, message: str, **fields) -> bytes:
    """A ready-to-send connection-level error frame."""
    envelope = {"ok": False, "status": status, "error": message, **fields}
    return encode_frame(OP_ERROR, request_id, envelope)


def truncated_frame() -> bytes:
    """The first half of a valid header — the chaos harness writes this
    before dropping a connection to simulate a mid-frame failure."""
    return _HEADER.pack(MAGIC, WIRE_VERSION, OP_REPLY, 0, 0)[: HEADER_SIZE // 2]


# ----------------------------------------------------------------------
# Result payload views
# ----------------------------------------------------------------------

def is_packed_rows(payload) -> bool:
    """Whether a payload is the wire-neutral grouped shape (parallel
    ``labels`` rows + one float64 ``counts`` vector)."""
    return (
        isinstance(payload, dict)
        and payload.get("kind") == "rows"
        and "counts" in payload
    )


def rows_view(payload: dict) -> dict:
    """Documented client shape of a grouped payload:
    ``{"kind": "rows", "group_by": [...], "rows": [[*labels, count]...]}``."""
    if not is_packed_rows(payload):
        return payload
    counts = np.asarray(payload["counts"], dtype=np.float64)
    return {
        "kind": "rows",
        "group_by": list(payload.get("group_by", [])),
        "rows": [
            [*labels, float(count)]
            for labels, count in zip(payload["labels"], counts.tolist())
        ],
    }


def client_view(payload):
    """What ``ServeClient.query`` hands back, whatever the transport."""
    if is_packed_rows(payload):
        return rows_view(payload)
    return payload


# ----------------------------------------------------------------------
# Strict JSON encoding (the debug path)
# ----------------------------------------------------------------------

def jsonify(value):
    """Recursively convert a response to plain JSON types.

    Unlike ``json.dumps(..., default=str)`` this refuses to guess: any
    type outside the wire vocabulary raises :class:`WireError`, which
    the server maps to a 500-style response — serialization bugs fail
    loudly instead of shipping stringified garbage.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonify(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, dict):
        if is_packed_rows(value):
            return jsonify(rows_view(value))
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(
                    f"JSON object keys must be strings, got "
                    f"{type(key).__name__}"
                )
            out[key] = jsonify(item)
        return out
    raise WireError(f"type {type(value).__name__} is not wire-serializable")


def encode_json_line(response: dict) -> bytes:
    """One strict JSON-lines response (raises :class:`WireError` on any
    non-serializable value; never stringifies silently)."""
    return json.dumps(
        jsonify(response), separators=(",", ":"), allow_nan=True
    ).encode() + b"\n"


def _self_check() -> None:  # pragma: no cover - import-time sanity
    assert HEADER_SIZE == 16
    assert MAGIC[0] >= 0x80, "magic byte 0 must be non-ASCII for sniffing"


_self_check()
