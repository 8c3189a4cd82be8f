"""The SDDS bucket image: the slot layout every bucket heap holds.

SDDS-2000 manipulates each bucket "as a mapped file" (Section 5.2), and
that file is what the backup signs page by page.  Here the file is in
the *slot layout*: an 8-byte nonzero format tag at offset 0, then slots
of ``header(value_len | LIVE, key) || value`` zero-padded to 8 bytes.
Free space is all zero and a live header never is, so one scan in
offset order recovers every record, holes and all.  A bucket writes its
records into its heap in this layout, a cluster node logs and mirrors
the same bytes, and the backup evicts and restores them.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..errors import WireError
from .record import Record

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .bucket import Bucket

#: Bucket-image format tag at offset 0.  Nonzero, so an image is never
#: empty, and distinct from any other layout's first word, so an image
#: in another layout is refused rather than misread.
IMAGE_TAG = b"SDDSLOT1"
SLOT_HEADER = struct.Struct("<II")  # value length | LIVE, key
LIVE = 1 << 31
ALIGN = 8


def slot_size(value_len: int) -> int:
    """Bytes a slot holding a ``value_len``-byte value occupies."""
    return -(-(SLOT_HEADER.size + value_len) // ALIGN) * ALIGN


def slot_bytes(key: int, value: bytes) -> bytes:
    """One live slot: header, value, zero padding."""
    return SLOT_HEADER.pack(len(value) | LIVE, key) + value.ljust(
        slot_size(len(value)) - SLOT_HEADER.size, b"\x00")


def slot_record(slot: bytes) -> Record:
    """The record a live slot holds."""
    word, key = SLOT_HEADER.unpack_from(slot)
    return Record(key, slot[SLOT_HEADER.size:SLOT_HEADER.size + (word ^ LIVE)])


def serialize_bucket(bucket: "Bucket") -> bytes:
    """The canonical image: the tag, then the slots sorted by key, packed."""
    return IMAGE_TAG + b"".join(bucket.slots())


def scan_slots(image: bytes | bytearray | memoryview
               ) -> list[tuple[int, Record]]:
    """Every live slot of a slot image as ``(offset, record)``, in order.

    Raises :class:`~repro.errors.WireError` on a missing or unknown
    tag, an unaligned length, a truncated slot, a nonzero free word or
    padding byte, free space past the last slot, or a key that appears
    twice.
    """
    if bytes(image[:len(IMAGE_TAG)]) != IMAGE_TAG:
        raise WireError("missing or unknown bucket image tag")
    end = len(image)
    if end % ALIGN:
        raise WireError(f"bucket image length {end} is not aligned")
    slots: list[tuple[int, Record]] = []
    seen: set[int] = set()
    offset = last_end = len(IMAGE_TAG)
    while offset < end:
        word, key = SLOT_HEADER.unpack_from(image, offset)
        if not word & LIVE:
            if word or key:
                raise WireError(f"nonzero free word at {offset}")
            offset += ALIGN
            continue
        value_end = offset + SLOT_HEADER.size + (word ^ LIVE)
        last_end = offset + slot_size(word ^ LIVE)
        if last_end > end:
            raise WireError(f"truncated slot at {offset}")
        if any(image[value_end:last_end]):
            raise WireError(f"nonzero padding in the slot at {offset}")
        if key in seen:
            raise WireError(f"key {key} appears twice")
        seen.add(key)
        slots.append((offset, Record(key, bytes(
            image[offset + SLOT_HEADER.size:value_end]))))
        offset = last_end
    if last_end != end:
        raise WireError("free space past the last slot")
    return slots


def deserialize_bucket(image: bytes | bytearray | memoryview
                       ) -> list[Record]:
    """The records of a slot image (holes allowed), in offset order.

    Raises :class:`~repro.errors.WireError` on a malformed image.
    """
    return [record for _offset, record in scan_slots(image)]
