"""SDDS records: a unique key plus a non-key payload (Section 2).

A typical SDDS file implements a relational table: many records, each
with a unique (4-byte, in the paper's experiments) key and a non-key
portion of around 100 B to several KB.  Updates only ever touch the
non-key part (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SDDSError

#: Serialized key width, matching the paper's 4-byte keys.
KEY_BYTES = 4


@dataclass(frozen=True, slots=True)
class Record:
    """An immutable SDDS record."""

    key: int
    value: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.key < (1 << (8 * KEY_BYTES)):
            raise SDDSError(f"key {self.key} does not fit in {KEY_BYTES} bytes")
        if not isinstance(self.value, (bytes, bytearray)):
            raise SDDSError("record value must be bytes")
        object.__setattr__(self, "value", bytes(self.value))

    @property
    def size(self) -> int:
        """Size on the wire in bytes (key + payload)."""
        return KEY_BYTES + len(self.value)

    def with_value(self, value: bytes) -> "Record":
        """A copy with the non-key portion replaced (an update's after-image)."""
        return Record(self.key, value)
