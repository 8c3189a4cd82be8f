"""SDDS buckets: RAM-resident record stores with a B-tree index.

A bucket couples a :class:`~repro.sdds.heap.RecordHeap` (the byte image
the backup engine signs) with a :class:`~repro.sdds.btree.BTree` index
mapping keys to heap extents.  The heap holds the slot layout of
:mod:`repro.sdds.image`: the tag at offset 0, then one slot per record,
written at a first-fit offset and left there until a size-changing
update or a delete.  A size-changing update allocates its new slot
before it frees the old one, so a log of the heap's writes never holds
a state with the key absent.  Splits move records between buckets
(:meth:`repro.sdds.server.SDDSServer.move_records`), the SDDS growth
primitive: "each split sends about half of a bucket to a newly created
bucket" (Section 2).
"""

from __future__ import annotations

from typing import Iterator

from ..errors import DuplicateKeyError, KeyNotFoundError
from .btree import BTree
from .heap import RecordHeap
from .image import IMAGE_TAG, scan_slots, slot_bytes, slot_record, slot_size
from .record import Record


class Bucket:
    """One SDDS bucket: heap image + key index + capacity bookkeeping."""

    def __init__(self, bucket_id: int, capacity_records: int = 1 << 30,
                 initial_heap_bytes: int = 1 << 16, btree_degree: int = 16):
        self.bucket_id = bucket_id
        self.capacity_records = capacity_records
        self.heap = RecordHeap(initial_heap_bytes)
        self.heap.write(self.heap.allocate(len(IMAGE_TAG)), IMAGE_TAG)
        self.index = BTree(min_degree=btree_degree)
        #: LH* bucket level: which hash function h_i this bucket was
        #: last (re)hashed with.  Managed by the LH* file.
        self.level = 0

    @classmethod
    def from_image(cls, bucket_id: int, image: bytes | bytearray,
                   capacity_records: int = 1 << 30) -> "Bucket":
        """A bucket whose heap starts as ``image``, every slot and hole
        where the image has it.

        Raises :class:`~repro.errors.WireError` on a malformed image.
        """
        slots = scan_slots(image)
        bucket = cls(bucket_id, capacity_records=capacity_records)
        heap = bucket.heap
        cursor = len(IMAGE_TAG)
        if len(image) > cursor:
            heap.write(heap.allocate(len(image) - cursor), image[cursor:])
        for offset, record in slots:
            if offset > cursor:
                heap.free(cursor, offset - cursor)
            end = offset + slot_size(len(record.value))
            bucket.index.insert(record.key, (offset, end - offset))
            cursor = end
        return bucket

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: int) -> bool:
        return key in self.index

    @property
    def is_overfull(self) -> bool:
        """True when the bucket holds more records than its capacity."""
        return len(self.index) > self.capacity_records

    def insert(self, record: Record) -> None:
        """Insert a new record; duplicate keys are rejected."""
        if record.key in self.index:
            raise DuplicateKeyError(
                f"key {record.key} already in bucket {self.bucket_id}"
            )
        slot = slot_bytes(record.key, record.value)
        offset = self.heap.allocate(len(slot))
        self.heap.write(offset, slot)
        self.index.insert(record.key, (offset, len(slot)))

    def get(self, key: int) -> Record:
        """Fetch the record with ``key``; raises when absent."""
        return slot_record(self.heap.read(*self.index.search(key)))

    def update(self, key: int, value: bytes) -> None:
        """Replace the non-key portion of an existing record.

        An update that keeps the slot size is written in place (the
        common database case); a size change writes a new slot first
        and frees the old one second.
        """
        offset, size = self.index.search(key)
        slot = slot_bytes(key, value)
        if len(slot) == size:
            self.heap.write(offset, slot)
            return
        new_offset = self.heap.allocate(len(slot))
        self.heap.write(new_offset, slot)
        self.heap.free(offset, size)
        self.index.replace(key, (new_offset, len(slot)))

    def delete(self, key: int) -> Record:
        """Remove and return the record with ``key``."""
        offset, size = self.index.delete(key)
        record = slot_record(self.heap.read(offset, size))
        self.heap.free(offset, size)
        return record

    def slots(self) -> Iterator[bytes]:
        """Every record's slot bytes in ascending key order."""
        for _key, (offset, size) in self.index.items():
            yield self.heap.read(offset, size)

    def records(self) -> Iterator[Record]:
        """All records in ascending key order."""
        return map(slot_record, self.slots())

    def range_records(self, low: int, high: int) -> list[Record]:
        """Records with ``low <= key < high``, in key order."""
        return [slot_record(self.heap.read(offset, size))
                for _key, (offset, size) in self.index.range_items(low, high)]

    def keys(self) -> Iterator[int]:
        """All keys in ascending order."""
        return self.index.keys()

    def median_key(self) -> int:
        """The middle key (RP* splits the range here)."""
        keys = list(self.index.keys())
        if not keys:
            raise KeyNotFoundError(f"bucket {self.bucket_id} is empty")
        return keys[len(keys) // 2]

    # ------------------------------------------------------------------
    # Byte image (backup input)
    # ------------------------------------------------------------------

    @property
    def image(self) -> memoryview:
        """The bucket's RAM image, sliceable into backup pages."""
        return self.heap.image

    @property
    def image_bytes(self) -> int:
        """Size of the RAM image in bytes."""
        return self.heap.size

    def index_pages(self, page_bytes: int = 128) -> list[bytes]:
        """The RAM B-tree index serialized as small pages (Section 5.2)."""
        return self.index.index_pages(page_bytes)
