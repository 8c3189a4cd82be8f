"""Signature-sealed log frames: the durable store's unit of writing.

Every mutation of a :class:`~repro.store.pagestore.PageStore` volume is
appended to the log as one *frame*::

    magic(2) | kind(1) | seq(8) | volume_len(2) | payload_len(4)
    | volume | payload | seal

where ``seal`` is the scheme's n-symbol algebraic signature of
everything before it.  By Proposition 1 a torn write or bit rot
touching at most ``n`` symbols of a frame is detected *with certainty*
-- 4 bytes of seal per frame under the paper's production GF(2^16),
n = 2 scheme.  Three frame kinds cover the write paths:

* ``PAGE`` (payload ``page_index(4) | page_size(4) | data``) -- a full
  page write, the backup engine's granule.  A short write to the final
  page sets the volume length, mirroring the sim disk's semantics.
* ``DELTA`` (payload ``image_len(8) | offset(8) | delta``) -- a PR-4
  journal region carrying only ``before XOR after``; one region of the
  cluster's ``c_mirror_delta`` wire frame, so delta-shipping
  replication and durable logging share one vocabulary.  The log keeps
  one frame per region (per cluster slot write) so a rotted frame
  damages only the pages that region covers.
* ``TRUNCATE`` (payload ``image_len(8) | page_size(4)``) -- declares a
  volume (fixing its page size) or sets its length.

Bodies are fixed little-endian layouts: corrupting a byte must yield a
*detected* bad frame, never an exception inside a deserializer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import StoreError
from ..sig.scheme import AlgebraicSignatureScheme

#: Frame preamble; a resync scan looks for this after corruption.
MAGIC = b"\xa5\x5a"

KIND_PAGE = 1
KIND_DELTA = 2
KIND_TRUNCATE = 3

KIND_NAMES = {KIND_PAGE: "page", KIND_DELTA: "delta",
              KIND_TRUNCATE: "truncate"}

_HEADER = struct.Struct("<2sBQHI")      # magic, kind, seq, vol_len, payload_len
_PAGE = struct.Struct("<II")            # page_index, page_size
_DELTA = struct.Struct("<QQ")           # image_len, offset
_TRUNCATE = struct.Struct("<QI")        # image_len, page_size

HEADER_BYTES = _HEADER.size


class FrameError(StoreError):
    """Malformed frame (structural -- distinct from a bad seal)."""


@dataclass(frozen=True, slots=True)
class Frame:
    """One decoded log frame (header + payload, seal already verified).

    ``payload`` may be ``bytes`` or a ``memoryview`` into a larger
    buffer (a scanned segment, an arena) -- the codecs below slice it
    without materializing either way.
    """

    kind: int
    seq: int
    volume: str
    payload: bytes | memoryview

    def header_volume(self) -> bytes:
        """The sealed prefix before the payload: header plus volume."""
        volume = self.volume.encode()
        if len(volume) > 0xFFFF:
            raise FrameError(f"volume name of {len(volume)} bytes too long")
        if self.kind not in KIND_NAMES:
            raise FrameError(f"unknown frame kind {self.kind}")
        header = _HEADER.pack(MAGIC, self.kind, self.seq, len(volume),
                              len(self.payload))
        return header + volume

    def body(self) -> bytes:
        """Everything the seal covers: header plus volume plus payload."""
        return self.header_volume() + bytes(self.payload)


def encode(scheme: AlgebraicSignatureScheme, frame: Frame) -> bytes:
    """Seal one frame: ``body || sig(body)``.

    The payload is signed as a view and lands exactly once -- in the
    final output join -- instead of once for the body and once more for
    the sealed result.
    """
    from ..sig.engine import get_batch_signer

    header_volume = frame.header_volume()
    seal = get_batch_signer(scheme).sign_concat(
        [header_volume, frame.payload], strict=False)
    return b"".join((header_volume, frame.payload, seal.to_bytes()))


def encode_many(scheme: AlgebraicSignatureScheme,
                frames: list[Frame]) -> list[bytes]:
    """Seal a burst of frames in one batched signing pass.

    Bulk writers (whole-image loads, journal flushes) seal every frame
    through the shared batch engine -- one 2-D kernel pass over a
    single symbol-aligned landing of all bodies -- instead of one
    signing dispatch (and one body join) per frame.  Each result equals
    ``encode(scheme, frame)``.
    """
    from ..sig.engine import get_batch_signer

    prefixes = [frame.header_volume() for frame in frames]
    seals = get_batch_signer(scheme).sign_concat_many(
        [[prefix, frame.payload]
         for prefix, frame in zip(prefixes, frames)],
        strict=False,
    )
    return [
        b"".join((prefix, frame.payload, seal.to_bytes()))
        for prefix, frame, seal in zip(prefixes, frames, seals)
    ]


def parse_at(buffer, offset: int, seal_bytes: int, copy: bool = True):
    """Structurally parse the frame starting at ``offset``.

    Returns ``(frame, end_offset, body_end)`` where ``buffer[offset:
    body_end]`` is the sealed region and ``buffer[body_end:end_offset]``
    the seal, or ``None`` when no structurally valid frame starts there
    (bad magic, impossible lengths, or the buffer ends mid-frame --
    the torn-write shape).  The seal is *not* checked here; callers
    batch-verify seals over all structurally valid frames at once.

    With ``copy=False`` the frame's payload is a ``memoryview`` into
    ``buffer`` (the scanner's zero-copy mode); the caller must keep the
    buffer alive for the frame's lifetime.
    """
    if offset + HEADER_BYTES > len(buffer):
        return None
    magic, kind, seq, volume_len, payload_len = _HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC or kind not in KIND_NAMES:
        return None
    body_end = offset + HEADER_BYTES + volume_len + payload_len
    end = body_end + seal_bytes
    if end > len(buffer):
        return None
    volume_raw = bytes(buffer[offset + HEADER_BYTES:
                              offset + HEADER_BYTES + volume_len])
    try:
        volume = volume_raw.decode()
    except UnicodeDecodeError:
        return None
    payload_start = offset + HEADER_BYTES + volume_len
    if copy:
        payload = bytes(buffer[payload_start:body_end])
    else:
        view = buffer if isinstance(buffer, memoryview) \
            else memoryview(buffer)
        payload = view[payload_start:body_end]
    return Frame(kind, seq, volume, payload), end, body_end


def scan_buffer(buffer, seal_bytes: int):
    """Structurally walk one contiguous buffer of appended frames.

    Returns ``(candidates, garbage)`` in *local* offsets: each candidate
    is ``(frame, start, end, body_end)`` with a zero-copy payload view
    into ``buffer``, each garbage span ``(start, end)`` covers bytes
    where no structurally valid frame begins.  After corruption the walk
    *resyncs* at the next offset where a frame parses.  Seals are not
    checked here -- callers batch-verify them over all candidates at
    once, which is what lets the sequential scan and the per-segment
    recovery workers share this exact walk.
    """
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    size = len(view)
    candidates = []
    garbage = []
    offset = 0
    haystack = None     # owned bytes for resync searches, built lazily
    while offset < size:
        parsed = parse_at(view, offset, seal_bytes, copy=False)
        if parsed is not None:
            frame, end, body_end = parsed
            candidates.append((frame, offset, end, body_end))
            offset = end
            continue
        if haystack is None:
            # Only the (rare) corrupt path pays a materialization; a
            # shared-memory segment view has no ``find``.
            haystack = buffer if isinstance(buffer, (bytes, bytearray)) \
                else bytes(view)
        bad_start = offset
        resync = None
        probe = haystack.find(MAGIC, offset + 1)
        while probe != -1:
            if parse_at(view, probe, seal_bytes, copy=False) is not None:
                resync = probe
                break
            probe = haystack.find(MAGIC, probe + 1)
        stop = resync if resync is not None else size
        garbage.append((bad_start, stop))
        offset = stop
    return candidates, garbage


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------

def encode_page(page_index: int, page_size: int, data: bytes) -> bytes:
    """PAGE payload: one full (or short final) page write."""
    return _PAGE.pack(page_index, page_size) + data


def decode_page(payload: bytes) -> tuple[int, int, bytes]:
    """Inverse of :func:`encode_page`; raises :class:`FrameError`."""
    if len(payload) < _PAGE.size:
        raise FrameError("truncated PAGE payload")
    page_index, page_size = _PAGE.unpack_from(payload)
    return page_index, page_size, payload[_PAGE.size:]


def encode_delta(image_len: int, offset: int, delta: bytes) -> bytes:
    """DELTA payload: ``before XOR after`` of one changed extent."""
    return _DELTA.pack(image_len, offset) + delta


def decode_delta(payload: bytes) -> tuple[int, int, bytes]:
    """Inverse of :func:`encode_delta`; raises :class:`FrameError`."""
    if len(payload) < _DELTA.size:
        raise FrameError("truncated DELTA payload")
    image_len, offset = _DELTA.unpack_from(payload)
    return image_len, offset, payload[_DELTA.size:]


def encode_truncate(image_len: int, page_size: int) -> bytes:
    """TRUNCATE payload: declare a volume / set its byte length."""
    return _TRUNCATE.pack(image_len, page_size)


def decode_truncate(payload: bytes) -> tuple[int, int]:
    """Inverse of :func:`encode_truncate`; raises :class:`FrameError`."""
    if len(payload) != _TRUNCATE.size:
        raise FrameError("malformed TRUNCATE payload")
    image_len, page_size = _TRUNCATE.unpack(payload)
    return image_len, page_size
