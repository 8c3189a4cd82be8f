"""Signature-sealed wire format for cluster RPCs.

Every cluster message travels as ``body || sig(body)`` where the seal is
the scheme's algebraic signature -- 4 bytes under the paper's production
GF(2^16), n = 2 scheme.  This is Proposition 2's economics applied to
the transport itself: a one-byte corruption changes at most one symbol,
well inside the n-symbol certain-detection bound, so a receiver
verifying the 4-byte seal rejects every single-byte wire corruption
with certainty instead of trusting the link.

Bodies are fixed little-endian layouts (no pickling -- corrupting a
byte must yield a *detected* bad message, never an exception in a
deserializer):

* request:  ``op(1) || request_id(8) || key(4) || value_len(4) || value``
* reply:    ``status(1) || request_id(8) || value_len(4) || value``
* mirror:   ``image_len(8) || page_index(4) || page bytes``
* delta:    ``image_len(8) || count(4) || (offset(8) || length(4) ||
  delta bytes)*`` -- one mirror patch per mutation, carrying only
  ``before XOR after`` of each changed extent; the seal covers the
  whole frame, so a corrupt patch is dropped whole, never applied.

Cluster frames additionally carry a 16-byte **trace envelope** ahead of
the body -- ``trace_id(8) || span_id(8)``, the
:class:`~repro.obs.trace.TraceContext` of the operation the frame
belongs to -- so a receiving node parents its handling span under the
sender's span and per-operation trace trees assemble across nodes.
The envelope sits *inside* the seal: a corrupted trace id is a
detected bad frame like any other corruption, never a mis-filed span.
A zero trace id means "untraced" (the all-zero envelope is what
non-traced senders emit).
"""

from __future__ import annotations

import struct

from ..errors import ReproError
from ..obs.trace import TraceContext
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

_REQUEST = struct.Struct("<BQII")
_REPLY = struct.Struct("<BQI")
_MIRROR = struct.Struct("<QI")
_DELTAS = struct.Struct("<QI")
_REGION = struct.Struct("<QI")
_TRACED = struct.Struct("<QQ")


class WireError(ReproError):
    """Malformed (but correctly signed) cluster message body."""


# ----------------------------------------------------------------------
# Sealing: the 4-byte integrity check on every message
# ----------------------------------------------------------------------

def seal(scheme: AlgebraicSignatureScheme,
         body: bytes | memoryview) -> bytes:
    """Append the body's algebraic signature.

    The body is signed as an in-place view (the batch engine's zero-copy
    lane) and lands exactly once, in the sealed output.
    """
    from ..sig.engine import get_batch_signer

    signature = get_batch_signer(scheme).sign_concat([body], strict=False)
    return b"".join((body, signature.to_bytes()))


def seal_many(scheme: AlgebraicSignatureScheme,
              bodies: list[bytes]) -> list[bytes]:
    """Seal many message bodies in one batched signing pass.

    Burst senders (mirror page shipping, anti-entropy rounds) sign all
    their outgoing payloads through the batch engine -- one 2-D kernel
    pass over a single symbol-aligned landing -- instead of one
    dispatch per message.  Each result is exactly ``seal(scheme, body)``.
    """
    from ..sig.engine import get_batch_signer

    signatures = get_batch_signer(scheme).sign_concat_many(
        [[body] for body in bodies], strict=False)
    return [b"".join((body, signature.to_bytes()))
            for body, signature in zip(bodies, signatures)]


def unseal(scheme: AlgebraicSignatureScheme,
           data: bytes | memoryview) -> bytes | memoryview | None:
    """Verify and strip the seal; ``None`` flags a corrupted transfer.

    Verification happens over views -- no intermediate body/tail slice
    copies.  ``bytes`` in, ``bytes`` out (the historical contract);
    ``memoryview`` in, ``memoryview`` out (fully zero-copy).
    """
    from ..sig.engine import get_batch_signer

    width = scheme.signature_bytes
    if len(data) < width:
        return None
    view = data if isinstance(data, memoryview) else memoryview(data)
    body_view = view[:-width]
    signature = get_batch_signer(scheme).sign_concat([body_view],
                                                     strict=False)
    if signature.to_bytes() != bytes(view[-width:]):
        return None
    if isinstance(data, memoryview):
        return body_view
    return data[:-width]


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
    return TraceContext(trace_id, span_id), inner


# ----------------------------------------------------------------------
# Request / reply / mirror bodies
# ----------------------------------------------------------------------

def encode_request(op: int, request_id: int, key: int,
                   value: bytes | memoryview = b"") -> bytes:
    """Serialize one client request body."""
    if op not in OP_NAMES:
        raise WireError(f"unknown operation code {op}")
    return b"".join((_REQUEST.pack(op, request_id, key, len(value)), value))


def decode_request(body: bytes) -> tuple[int, int, int, bytes]:
    """Inverse of :func:`encode_request`: (op, request_id, key, value)."""
    if len(body) < _REQUEST.size:
        raise WireError("truncated request body")
    op, request_id, key, value_len = _REQUEST.unpack_from(body)
    value = body[_REQUEST.size:]
    if op not in OP_NAMES or len(value) != value_len:
        raise WireError("inconsistent request body")
    return op, request_id, key, value


def encode_reply(status: int, request_id: int,
                 value: bytes | memoryview = b"") -> bytes:
    """Serialize one server reply body."""
    if status not in ST_NAMES:
        raise WireError(f"unknown status code {status}")
    return b"".join((_REPLY.pack(status, request_id, len(value)), value))


def decode_reply(body: bytes) -> tuple[int, int, bytes]:
    """Inverse of :func:`encode_reply`: (status, request_id, value)."""
    if len(body) < _REPLY.size:
        raise WireError("truncated reply body")
    status, request_id, value_len = _REPLY.unpack_from(body)
    value = body[_REPLY.size:]
    if status not in ST_NAMES or len(value) != value_len:
        raise WireError("inconsistent reply body")
    return status, request_id, value


def encode_mirror(image_len: int, page_index: int,
                  page: bytes | memoryview) -> bytes:
    """Serialize one best-effort mirror page update."""
    return b"".join((_MIRROR.pack(image_len, page_index), page))


def decode_mirror(body: bytes) -> tuple[int, int, bytes]:
    """Inverse of :func:`encode_mirror`: (image_len, page_index, page)."""
    if len(body) < _MIRROR.size:
        raise WireError("truncated mirror body")
    image_len, page_index = _MIRROR.unpack_from(body)
    return image_len, page_index, body[_MIRROR.size:]


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


def encode_delta(image_len: int, offset: int,
                 delta: bytes | memoryview) -> bytes:
    """A one-region :func:`encode_deltas` patch."""
    return encode_deltas(image_len, [(offset, delta)])
