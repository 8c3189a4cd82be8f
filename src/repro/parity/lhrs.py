"""An LH*RS-style high-availability record store (Section 6.2, [LS00]).

"LH*RS combines a small number m of servers into a reliability group and
adds k parity servers to the ensemble.  The parity servers store parity
records whose non-key data consists of parity symbols.  We can
reconstruct contents of lost servers as long as we can access the data
in m out of the m + k total servers in a reliability group."

:class:`LHRSStore` implements one reliability group as a live store:

* keys hash to one of ``m`` data buckets; each record occupies a *rank*
  (slot) in its bucket, and the records at the same rank across the
  group form one Reed-Solomon code word;
* inserts, updates, and deletes ship only coefficient-scaled *deltas*
  to the parity buckets -- a parity server never sees a data record;
* parity buckets also replicate the group's key directory (as LH*RS
  parity records carry the member keys), so recovering a failed data
  bucket restores both bytes and keys;
* the Section 6.2 signature relation audits data/parity consistency by
  exchanging 4-byte signatures per record.

Bucket splitting is out of scope here (the full LH*RS splits groups as
the LH* file grows); this store is the reliability-group building block
the paper's discussion actually concerns.

Records are variable length up to ``record_bytes - 4``: each slot holds
a length-prefixed, zero-padded word so the fixed-width RS code applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KeyNotFoundError, ParityError
from ..gf.vectorized import as_symbol_array, symbols_to_bytes
from ..obs import COUNTERS, get_registry, span_if_active
from ..sig.scheme import AlgebraicSignatureScheme
from .consistency import parity_consistent
from .reed_solomon import ReedSolomonCode


@dataclass(frozen=True, slots=True)
class _Slot:
    """Location of a record: its data bucket and rank."""

    bucket: int
    rank: int


class LHRSStore:
    """One LH*RS reliability group: m data + k parity buckets."""

    def __init__(self, scheme: AlgebraicSignatureScheme, data_buckets: int,
                 parity_buckets: int, record_bytes: int = 128):
        symbol_bytes = scheme.scheme_id.symbol_bytes
        if record_bytes % symbol_bytes or record_bytes < 8:
            raise ParityError(
                f"record slot size must be >= 8 and a multiple of "
                f"{symbol_bytes} bytes"
            )
        self.scheme = scheme
        self.code = ReedSolomonCode(scheme.field, data_buckets, parity_buckets)
        self.record_bytes = record_bytes
        self.record_symbols = record_bytes // symbol_bytes
        self.max_value_bytes = record_bytes - 4
        #: data words: bucket -> list of symbol arrays (one per rank)
        self._data: list[list[np.ndarray]] = [[] for _ in range(data_buckets)]
        #: parity words: parity bucket -> list of symbol arrays per rank
        self._parity: list[list[np.ndarray]] = [[] for _ in range(parity_buckets)]
        #: key -> slot
        self._directory: dict[int, _Slot] = {}
        #: parity-side key directory: rank -> {bucket: key}; replicated
        #: conceptually on every parity server (LH*RS parity records
        #: carry the member keys).
        self._parity_keys: dict[int, dict[int, int]] = {}
        #: ranks with a free slot per bucket (from deletes)
        self._free_ranks: list[list[int]] = [[] for _ in range(data_buckets)]
        #: buckets currently marked failed
        self._failed: set[int] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of data buckets in the group."""
        return self.code.m

    @property
    def k(self) -> int:
        """Number of parity buckets (tolerated failures)."""
        return self.code.k

    def __len__(self) -> int:
        return len(self._directory)

    def __contains__(self, key: int) -> bool:
        return key in self._directory

    def bucket_of(self, key: int) -> int:
        """The data bucket a key hashes to."""
        return key % self.m

    def keys(self) -> list[int]:
        """All keys, sorted."""
        return sorted(self._directory)

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------

    def _encode_word(self, value: bytes) -> np.ndarray:
        if len(value) > self.max_value_bytes:
            raise ParityError(
                f"value of {len(value)} bytes exceeds the {self.max_value_bytes}-byte slot"
            )
        framed = len(value).to_bytes(4, "little") + value
        framed = framed.ljust(self.record_bytes, b"\x00")
        return as_symbol_array(framed, self.scheme.field)

    def _decode_word(self, word: np.ndarray) -> bytes:
        framed = symbols_to_bytes(word, self.scheme.field)
        length = int.from_bytes(framed[:4], "little")
        return framed[4:4 + length]

    def _zero_word(self) -> np.ndarray:
        return np.zeros(self.record_symbols, dtype=np.int64)

    def _ensure_rank(self, rank: int) -> None:
        for bucket in self._data:
            while len(bucket) <= rank:
                bucket.append(self._zero_word())
        for parity in self._parity:
            while len(parity) <= rank:
                parity.append(self._zero_word())

    def _apply_delta(self, bucket: int, rank: int, delta: np.ndarray) -> None:
        """Ship ``c_ij * delta`` to every parity bucket (never the record)."""
        for parity_index in range(self.k):
            self._parity[parity_index][rank] = (
                self._parity[parity_index][rank]
                ^ self.code.parity_delta(parity_index, bucket, delta)
            )
        COUNTERS["parity.delta_updates"].inc(self.k)
        COUNTERS["parity.delta_symbols"].inc(self.k * int(delta.size))

    def _check_available(self, bucket: int) -> None:
        if bucket in self._failed:
            raise ParityError(f"data bucket {bucket} is failed; recover it first")

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------

    def insert(self, key: int, value: bytes) -> None:
        """Insert a record, updating parity by delta."""
        if key in self._directory:
            raise ParityError(f"key {key} already stored")
        bucket = self.bucket_of(key)
        self._check_available(bucket)
        with span_if_active("parity.insert", bucket=str(bucket)):
            if self._free_ranks[bucket]:
                rank = self._free_ranks[bucket].pop()
            else:
                rank = len(self._data[bucket])
            self._ensure_rank(rank)
            word = self._encode_word(value)
            delta = self._data[bucket][rank] ^ word
            self._data[bucket][rank] = word
            self._apply_delta(bucket, rank, delta)
            self._directory[key] = _Slot(bucket, rank)
            self._parity_keys.setdefault(rank, {})[bucket] = key

    def get(self, key: int) -> bytes:
        """Read a record's value."""
        slot = self._slot(key)
        self._check_available(slot.bucket)
        return self._decode_word(self._data[slot.bucket][slot.rank])

    def update(self, key: int, value: bytes) -> None:
        """Replace a record's value, updating parity by delta."""
        slot = self._slot(key)
        self._check_available(slot.bucket)
        with span_if_active("parity.update", bucket=str(slot.bucket)):
            word = self._encode_word(value)
            delta = self._data[slot.bucket][slot.rank] ^ word
            self._data[slot.bucket][slot.rank] = word
            self._apply_delta(slot.bucket, slot.rank, delta)

    def delete(self, key: int) -> bytes:
        """Remove a record (its slot zeroes out of the code word)."""
        slot = self._slot(key)
        self._check_available(slot.bucket)
        with span_if_active("parity.delete", bucket=str(slot.bucket)):
            value = self._decode_word(self._data[slot.bucket][slot.rank])
            delta = self._data[slot.bucket][slot.rank]  # XOR to zero
            self._data[slot.bucket][slot.rank] = self._zero_word()
            self._apply_delta(slot.bucket, slot.rank, delta)
            del self._directory[key]
            self._parity_keys[slot.rank].pop(slot.bucket, None)
            self._free_ranks[slot.bucket].append(slot.rank)
            return value

    def _slot(self, key: int) -> _Slot:
        if key not in self._directory:
            raise KeyNotFoundError(f"no record {key}")
        return self._directory[key]

    # ------------------------------------------------------------------
    # Failure and recovery
    # ------------------------------------------------------------------

    def fail_bucket(self, bucket: int) -> None:
        """Simulate losing a data server: its words and keys vanish."""
        if not 0 <= bucket < self.m:
            raise ParityError(f"no data bucket {bucket}")
        self._failed.add(bucket)
        self._data[bucket] = [self._zero_word()
                              for _ in range(self._rank_count())]
        # Keys of the lost bucket survive only on the parity servers.
        for key in [k for k, slot in self._directory.items()
                    if slot.bucket == bucket]:
            del self._directory[key]

    def recover(self) -> int:
        """Reconstruct every failed bucket from the surviving m shards.

        Returns the number of records restored.  Raises when more than
        ``k`` group members are lost.
        """
        if not self._failed:
            return 0
        if len(self._failed) > self.k:
            raise ParityError(
                f"{len(self._failed)} failures exceed parity count {self.k}"
            )
        restored = 0
        ranks = self._rank_count()
        with span_if_active("parity.recover",
                            failed=str(len(self._failed))) as span:
            for rank in range(ranks):
                shards: dict[int, np.ndarray] = {}
                for bucket in range(self.m):
                    if bucket not in self._failed:
                        shards[bucket] = self._data[bucket][rank]
                for parity_index in range(self.k):
                    shards[self.m + parity_index] = \
                        self._parity[parity_index][rank]
                words = self.code.reconstruct(shards)
                for bucket in self._failed:
                    self._data[bucket][rank] = words[bucket]
                    key = self._parity_keys.get(rank, {}).get(bucket)
                    if key is not None:
                        self._directory[key] = _Slot(bucket, rank)
                        restored += 1
            if span is not None:
                span.event("reconstructed", ranks=ranks, restored=restored)
        registry = get_registry()
        registry.counter("parity.recoveries").inc()
        registry.counter("parity.ranks_reconstructed").inc(ranks)
        registry.counter("parity.records_restored").inc(restored)
        registry.counter(
            "parity.recovery_symbols"
        ).inc(ranks * len(self._failed) * self.record_symbols)
        self._failed.clear()
        return restored

    def _rank_count(self) -> int:
        return max((len(bucket) for bucket in self._data), default=0)

    @property
    def rank_count(self) -> int:
        """Number of ranks (code words) currently in the group."""
        return self._rank_count()

    # ------------------------------------------------------------------
    # Signature audit (Section 6.2)
    # ------------------------------------------------------------------

    def audit_rank(self, rank: int) -> bool:
        """Check the data/parity signature relation at one rank."""
        if rank >= self._rank_count():
            raise ParityError(f"rank {rank} holds no records")
        registry = get_registry()
        registry.counter("parity.audit_ranks").inc()
        data_sigs = [self.scheme.sign(self._data[bucket][rank])
                     for bucket in range(self.m)]
        for parity_index in range(self.k):
            parity_sig = self.scheme.sign(self._parity[parity_index][rank])
            if not parity_consistent(
                self.scheme, data_sigs, parity_sig,
                self.code.parity_rows[parity_index],
            ):
                registry.counter("parity.audit_failures").inc()
                return False
        return True

    def audit(self) -> list[int]:
        """Audit every rank; returns the (hopefully empty) bad-rank list."""
        return [rank for rank in range(self._rank_count())
                if not self.audit_rank(rank)]

    def corrupt_parity(self, parity_index: int, rank: int, symbol: int = 0) -> None:
        """Flip one parity symbol (fault injection for tests)."""
        self._parity[parity_index][rank][symbol] ^= 1
