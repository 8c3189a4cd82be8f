"""Signature-sealed wire format of both node runtimes' RPCs.

Every message travels as ``body || sig(body)`` where the seal is
the scheme's algebraic signature in the one format of
:mod:`repro.sig.seal` -- 4 bytes under the paper's production
GF(2^16), n = 2 scheme.  This is Proposition 2's economics applied to
the transport itself: a one-byte corruption changes at most one symbol,
well inside the n-symbol certain-detection bound, so a receiver
verifying the 4-byte seal rejects every single-byte wire corruption
with certainty instead of trusting the link.

Bodies are fixed little-endian layouts (no pickling -- corrupting a
byte must yield a *detected* bad message, never an exception in a
deserializer).  Both node runtimes -- the cluster and the serving
plane -- speak the same request and reply layouts:

* request:  ``envelope(16) || op(1) || request_id(8) || low_water(8) ||
  key(4) || deadline(8, f64) || value_len(4) || value`` -- the deadline
  is an *absolute* simulated instant (zero means none), so a queued
  node can shed work that cannot finish in time; ``low_water`` is the
  lowest request id its client has not yet resolved, which bounds the
  server's reply cache (PROTOCOLS.md §10);
* reply:    ``envelope(16) || status(1) || request_id(8) ||
  value_len(4) || value``;
* IAM:      ``bucket(4) || level(4) || low(8) || high(8)`` -- the
  LH*/RP* Image Adjustment Message a serving node sends when a request
  reached it by forwarding;
* delta:    ``envelope(16) || image_len(8) || count(4) || (offset(8) ||
  length(4) || delta bytes)*`` -- one mirror patch per mutation,
  carrying only ``before XOR after`` of each changed extent; the seal
  covers the whole frame, so a corrupt patch is dropped whole, never
  applied.

The 16-byte **trace envelope** is ``trace_id(8) || span_id(8)``, the
:class:`~repro.obs.trace.TraceContext` of the operation the frame
belongs to, so a receiving node parents its handling span under the
sender's span and per-operation trace trees assemble across nodes.
The envelope sits *inside* the seal: a corrupted trace id is a
detected bad frame like any other corruption, never a mis-filed span.
A zero trace id means "untraced" (the all-zero envelope is what
non-traced senders emit).
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from ..errors import WireError
from ..obs.trace import TraceContext
from ..sig import seal as sig_seal
from ..sig.scheme import AlgebraicSignatureScheme

# Operation codes (request ``op`` byte).
OP_INSERT = 1
OP_SEARCH = 2
OP_UPDATE = 3
OP_DELETE = 4

OP_NAMES = {OP_INSERT: "insert", OP_SEARCH: "search",
            OP_UPDATE: "update", OP_DELETE: "delete"}

# Status codes (reply ``status`` byte); mirror OperationStatus values.
ST_INSERTED = 1
ST_DUPLICATE = 2
ST_FOUND = 3
ST_MISSING = 4
ST_APPLIED = 5
ST_DELETED = 6
#: Overload rejection (PR 7): the node refused admission; the client
#: must back off and retry within its budget -- never treat as done.
ST_SHED = 7

ST_NAMES = {ST_INSERTED: "inserted", ST_DUPLICATE: "duplicate",
            ST_FOUND: "found", ST_MISSING: "missing",
            ST_APPLIED: "applied", ST_DELETED: "deleted",
            ST_SHED: "shed"}

_REQUEST = struct.Struct("<BQQIdI")
_REPLY = struct.Struct("<BQI")
_DELTAS = struct.Struct("<QI")
_REGION = struct.Struct("<QI")
_TRACED = struct.Struct("<QQ")
_IAM = struct.Struct("<IIQQ")


# ----------------------------------------------------------------------
# Sealing: the 4-byte integrity check on every message
# ----------------------------------------------------------------------

def seal(scheme: AlgebraicSignatureScheme,
         body: bytes | memoryview) -> bytes:
    """Append the body's seal (:func:`repro.sig.seal.seal`); the body
    is signed in place and lands once, in the sealed output."""
    return b"".join((body, sig_seal.seal(scheme, [body])))


def seal_many(scheme: AlgebraicSignatureScheme,
              bodies: list[bytes]) -> list[bytes]:
    """Seal a burst of bodies (mirror page shipping, anti-entropy
    rounds) in one batched signing pass; each result is exactly
    ``seal(scheme, body)``."""
    return [b"".join((body, tail)) for body, tail in zip(
        bodies, sig_seal.seals(scheme, [[body] for body in bodies]))]


def unseal(scheme: AlgebraicSignatureScheme,
           data: bytes | memoryview) -> bytes | memoryview | None:
    """Verify and strip the seal; ``None`` flags a corrupted transfer
    (:func:`repro.sig.seal.opened`)."""
    return sig_seal.opened(scheme, data)


# ----------------------------------------------------------------------
# The trace envelope: causality propagation inside the seal
# ----------------------------------------------------------------------

def encode_traced(context: TraceContext | None,
                  body: bytes | memoryview) -> bytes:
    """Prepend the trace envelope (all-zero when ``context`` is None)."""
    if context is None:
        return b"".join((_TRACED.pack(0, 0), body))
    return b"".join((_TRACED.pack(context.trace_id, context.span_id), body))


def decode_traced(body: bytes) -> tuple[TraceContext | None, bytes]:
    """Split a sealed-and-verified frame body into (context, inner body).

    Returns ``None`` for the context when the envelope is all zero
    (an untraced sender).  Only call this on bodies that passed
    :func:`unseal` -- the envelope has no integrity of its own.
    """
    if len(body) < _TRACED.size:
        raise WireError("truncated trace envelope")
    trace_id, span_id = _TRACED.unpack_from(body)
    inner = body[_TRACED.size:]
    if trace_id == 0:
        return None, inner
    return TraceContext.trusted(trace_id, span_id), inner


# ----------------------------------------------------------------------
# Request / reply / IAM / delta bodies
# ----------------------------------------------------------------------

class Request(NamedTuple):
    """One decoded request body (layout in the module docstring)."""

    context: TraceContext | None
    op: int
    request_id: int
    low_water: int
    key: int
    deadline: float
    value: bytes


class Reply(NamedTuple):
    """One decoded reply body."""

    context: TraceContext | None
    status: int
    request_id: int
    value: bytes


def _check_request(op: int, request_id: int, low_water: int,
                   deadline: float) -> bool:
    return (op in OP_NAMES and deadline >= 0
            and low_water >> 32 == request_id >> 32
            and low_water <= request_id)


def encode_request(op: int, request_id: int, key: int,
                   value: bytes | memoryview = b"", *,
                   low_water: int | None = None, deadline: float = 0.0,
                   context: TraceContext | None = None) -> bytes:
    """Serialize one client request, trace envelope first.

    ``low_water`` defaults to ``request_id`` (nothing older is still
    outstanding); it must name the same client and not exceed it.
    """
    if low_water is None:
        low_water = request_id
    if not _check_request(op, request_id, low_water, deadline):
        raise WireError(f"invalid request (op {op}, id {request_id}, "
                        f"low water {low_water}, deadline {deadline})")
    return encode_traced(context, b"".join((_REQUEST.pack(
        op, request_id, low_water, key, deadline, len(value)), value)))


def decode_request(body: bytes | memoryview) -> Request:
    """Inverse of :func:`encode_request`."""
    context, inner = decode_traced(body)
    if len(inner) < _REQUEST.size:
        raise WireError("truncated request body")
    op, request_id, low_water, key, deadline, value_len = \
        _REQUEST.unpack_from(inner)
    value = inner[_REQUEST.size:]
    if len(value) != value_len or not _check_request(
            op, request_id, low_water, deadline):
        raise WireError("inconsistent request body")
    return Request(context, op, request_id, low_water, key, deadline, value)


def encode_reply(status: int, request_id: int,
                 value: bytes | memoryview = b"", *,
                 context: TraceContext | None = None) -> bytes:
    """Serialize one server reply, trace envelope first."""
    if status not in ST_NAMES:
        raise WireError(f"unknown status code {status}")
    return encode_traced(context, b"".join(
        (_REPLY.pack(status, request_id, len(value)), value)))


def decode_reply(body: bytes | memoryview) -> Reply:
    """Inverse of :func:`encode_reply`."""
    context, inner = decode_traced(body)
    if len(inner) < _REPLY.size:
        raise WireError("truncated reply body")
    status, request_id, value_len = _REPLY.unpack_from(inner)
    value = inner[_REPLY.size:]
    if status not in ST_NAMES or len(value) != value_len:
        raise WireError("inconsistent reply body")
    return Reply(context, status, request_id, value)


def encode_iam(bucket: int, level: int, low: int, high: int) -> bytes:
    """Serialize one Image Adjustment Message."""
    return _IAM.pack(bucket, level, low, high)


def decode_iam(body: bytes | memoryview) -> tuple[int, int, int, int]:
    """Inverse of :func:`encode_iam`: (bucket, level, low, high)."""
    if len(body) != _IAM.size:
        raise WireError("malformed IAM")
    return _IAM.unpack(body)


def encode_deltas(image_len: int,
                  regions: list[tuple[int, bytes | memoryview]]) -> bytes:
    """Serialize one best-effort mirror patch of ``(offset, delta)`` regions.

    Each ``delta`` is ``before XOR after`` for a changed byte extent --
    typically a few symbols instead of a whole page -- and one mutation's
    extents all travel in one frame.  The frame is sealed like every
    other message, so the receiver applies a patch only when its
    ``sig(frame)`` verifies (a corrupted patch is certainly detected for
    <= n corrupted symbols, Proposition 1) and drops it whole otherwise.
    """
    parts = [_DELTAS.pack(image_len, len(regions))]
    for offset, delta in regions:
        parts.append(_REGION.pack(offset, len(delta)))
        parts.append(delta)
    return b"".join(parts)


def decode_deltas(body: bytes | memoryview) -> tuple[
        int, list[tuple[int, bytes | memoryview]]]:
    """Inverse of :func:`encode_deltas`: (image_len, [(offset, delta)])."""
    if len(body) < _DELTAS.size:
        raise WireError("truncated delta body")
    image_len, count = _DELTAS.unpack_from(body)
    position = _DELTAS.size
    regions = []
    for _ in range(count):
        if len(body) < position + _REGION.size:
            raise WireError("truncated delta region header")
        offset, length = _REGION.unpack_from(body, position)
        position += _REGION.size
        if len(body) < position + length:
            raise WireError("truncated delta region")
        regions.append((offset, body[position:position + length]))
        position += length
    if position != len(body):
        raise WireError("delta body longer than its regions")
    return image_len, regions

