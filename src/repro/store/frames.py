"""Signature-sealed log frames: the durable store's unit of writing.

Every mutation of a :class:`~repro.store.pagestore.PageStore` volume is
appended to the log as one *frame*::

    magic(2) | kind(1) | seq(8) | volume_len(2) | payload_len(4)
    | volume | payload | seal

where ``seal`` is the scheme's n-symbol algebraic signature of
everything before it, in the one format of :mod:`repro.sig.seal`.  By
Proposition 1 bit rot touching at most ``n`` symbols of a frame's
body, or only its seal, is detected *with certainty* -- 4 bytes of
seal per frame under the paper's production GF(2^16), n = 2 scheme,
which also catches any two damaged symbols split between body and
seal.  (For n = 4 such a split can cancel: two body symbols ``85``
apart in GF(2^8) change only two signature components, which two
damaged seal symbols then match.)  Three frame kinds cover the write
paths:

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

Recovery reads a segment through :func:`scan_buffer`, which returns the
structurally valid frames as a column :class:`FrameTable` (kind, seq,
volume, start, end, payload start, body end) rather than one
:class:`Frame` per frame; :func:`parse_at` parses one frame for the
resync search and for callers that want the object.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import StoreError
from ..sig.scheme import AlgebraicSignatureScheme
from ..sig.seal import seals

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


def encode_many(scheme: AlgebraicSignatureScheme,
                frames: list[Frame]) -> list[bytes]:
    """Seal frames, ``body || sig(body)``, in one batched signing pass
    (one frame or a bulk writer's burst); each payload is signed as a
    view and lands once, in its frame's output join."""
    prefixes = [frame.header_volume() for frame in frames]
    tails = seals(scheme, [[prefix, frame.payload]
                           for prefix, frame in zip(prefixes, frames)])
    return [b"".join((prefix, frame.payload, tail))
            for prefix, frame, tail in zip(prefixes, frames, tails)]


def _header_at(buffer, offset: int, seal_bytes: int):
    """Structural header check of the frame at ``offset``.

    Returns ``(kind, seq, payload_start, body_end, end)`` -- the volume
    name spans ``offset + HEADER_BYTES`` to ``payload_start`` and is
    not yet decoded -- or ``None`` when the magic or kind is wrong or
    the buffer ends before the frame does.
    """
    if offset + HEADER_BYTES > len(buffer):
        return None
    magic, kind, seq, volume_len, payload_len = _HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC or kind not in KIND_NAMES:
        return None
    payload_start = offset + HEADER_BYTES + volume_len
    body_end = payload_start + payload_len
    end = body_end + seal_bytes
    if end > len(buffer):
        return None
    return kind, seq, payload_start, body_end, end


def parse_at(buffer, offset: int, seal_bytes: int, copy: bool = True):
    """Structurally parse the frame starting at ``offset``.

    Returns ``(frame, end_offset, body_end)`` where ``buffer[offset:
    body_end]`` is the sealed region and ``buffer[body_end:end_offset]``
    the seal, or ``None`` when no structurally valid frame starts there
    (bad magic, impossible lengths, a volume name that is not UTF-8, or
    the buffer ends mid-frame -- the torn-write shape).  The seal is
    *not* checked here; callers batch-verify seals over all
    structurally valid frames at once.

    With ``copy=False`` the frame's payload is a ``memoryview`` into
    ``buffer``; the caller must keep the buffer alive for the frame's
    lifetime.
    """
    header = _header_at(buffer, offset, seal_bytes)
    if header is None:
        return None
    kind, seq, payload_start, body_end, end = header
    try:
        volume = bytes(buffer[offset + HEADER_BYTES:payload_start]).decode()
    except UnicodeDecodeError:
        return None
    if copy:
        payload = bytes(buffer[payload_start:body_end])
    else:
        view = buffer if isinstance(buffer, memoryview) \
            else memoryview(buffer)
        payload = view[payload_start:body_end]
    return Frame(kind, seq, volume, payload), end, body_end


@dataclass(frozen=True, slots=True)
class FrameTable:
    """Structurally walked frames as parallel columns, one row a frame.

    Offsets index the buffer the frames were walked from (or, after
    :meth:`shifted`, the whole log); ``volume`` indexes ``volumes``.
    A table holds no payload bytes, and certification (seal check,
    ``seq`` fold, replay split) is array work over its columns.
    """

    kind: np.ndarray             #: uint8 frame kind
    seq: np.ndarray              #: uint64 sequence number
    volume: np.ndarray           #: int64 index into ``volumes``
    start: np.ndarray            #: int64 frame start (header)
    end: np.ndarray              #: int64 frame end (after the seal)
    payload_start: np.ndarray    #: int64 first payload byte
    body_end: np.ndarray         #: int64 end of the sealed body
    volumes: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.start.size)

    def rows(self, index) -> "FrameTable":
        """The rows a slice, mask or index array selects."""
        return FrameTable(self.kind[index], self.seq[index],
                          self.volume[index], self.start[index],
                          self.end[index], self.payload_start[index],
                          self.body_end[index], self.volumes)

    def shifted(self, base: int) -> "FrameTable":
        """The same rows with every offset moved by ``base``."""
        return FrameTable(self.kind, self.seq, self.volume,
                          self.start + base, self.end + base,
                          self.payload_start + base, self.body_end + base,
                          self.volumes)

    def frame(self, row: int, buffer, base: int = 0) -> Frame:
        """Row ``row`` as a :class:`Frame` whose payload is a view into
        ``buffer`` (which holds the bytes from offset ``base`` on)."""
        view = buffer if isinstance(buffer, memoryview) \
            else memoryview(buffer)
        return Frame(int(self.kind[row]), int(self.seq[row]),
                     self.volumes[self.volume[row]],
                     view[self.payload_start[row] - base:
                          self.body_end[row] - base])


def scan_buffer(buffer, seal_bytes: int):
    """Structurally walk one contiguous buffer of appended frames.

    Returns ``(table, garbage)`` in *local* offsets: ``table`` is a
    :class:`FrameTable` of every structurally valid frame, ``garbage``
    a list of ``(start, end)`` spans where no such frame begins.  The
    walk unpacks each header once and decodes each distinct volume
    name once; it builds no per-frame object.  After corruption it
    *resyncs* at the next offset where :func:`parse_at` finds a frame.
    Seals are not checked here -- the recovery scan batch-verifies
    them over the whole table.
    """
    size = len(buffer)
    volume_ids: dict[bytes, int] = {}   # raw name -> id (-1: not UTF-8)
    volumes: list[str] = []
    name_fields: dict[int, struct.Struct] = {}
    kinds, seqs, ids, starts, payload_starts, body_ends = \
        [], [], [], [], [], []
    garbage = []
    offset = 0
    haystack = None     # owned bytes for resync searches, built lazily
    while offset < size:
        header = _header_at(buffer, offset, seal_bytes)
        if header is not None:
            kind, seq, payload_start, body_end, end = header
            name_len = payload_start - offset - HEADER_BYTES
            field = name_fields.get(name_len)
            if field is None:
                field = name_fields[name_len] = struct.Struct(f"{name_len}s")
            raw = field.unpack_from(buffer, offset + HEADER_BYTES)[0]
            volume = volume_ids.get(raw)
            if volume is None:
                volume = volume_ids[raw] = _volume_id(raw, volumes)
            if volume >= 0:
                kinds.append(kind)
                seqs.append(seq)
                ids.append(volume)
                starts.append(offset)
                payload_starts.append(payload_start)
                body_ends.append(body_end)
                offset = end
                continue
        if haystack is None:
            # Only the (rare) corrupt path pays a materialization; a
            # ``memoryview`` has no ``find``.
            haystack = buffer if isinstance(buffer, (bytes, bytearray)) \
                else bytes(buffer)
        bad_start = offset
        resync = None
        probe = haystack.find(MAGIC, offset + 1)
        while probe != -1:
            if parse_at(haystack, probe, seal_bytes, copy=False) is not None:
                resync = probe
                break
            probe = haystack.find(MAGIC, probe + 1)
        stop = resync if resync is not None else size
        garbage.append((bad_start, stop))
        offset = stop
    body_end = np.array(body_ends, dtype=np.int64)
    table = FrameTable(
        np.array(kinds, dtype=np.uint8), np.array(seqs, dtype=np.uint64),
        np.array(ids, dtype=np.int64), np.array(starts, dtype=np.int64),
        body_end + seal_bytes, np.array(payload_starts, dtype=np.int64),
        body_end, tuple(volumes))
    return table, garbage


def _volume_id(raw: bytes, volumes: list[str]) -> int:
    """Decode a volume name once: its index in ``volumes``, or -1 when
    it is not UTF-8 (no frame starts where such a name sits)."""
    try:
        volumes.append(raw.decode())
    except UnicodeDecodeError:
        return -1
    return len(volumes) - 1


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
