"""Signature-map bucket backup (Section 2.1).

The engine keeps, per backed-up volume, the *signature map* of the disk
copy.  A backup pass recomputes each page's signature from the RAM
image; only pages whose signature differs from the map entry are written
(and the map entry refreshed).  The computation is independent of the
bucket's write history -- the crucial advantage over dirty bits -- and
misses a real change only with probability 2^-nf per page, with changes
of up to n symbols detected with certainty (Proposition 1).

Cost model: signature calculus at ``cpu.sig_seconds_per_byte`` against
disk writes at ``disk.model.seconds_per_byte`` (the paper's 20-30 ms/MB
vs ~300 ms/MB -- the 10x gap that makes skipping writes worthwhile).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BackupError, SignatureError
from ..obs import get_registry
from ..sdds.bucket import Bucket
from ..sig.compound import SignatureMap
from ..sig.engine import get_batch_signer
from ..sig.incremental import IncrementalSignatureMap, WriteJournal
from ..sig.locate import LocateDesign, LocatorMap, decode
from ..sig.scheme import AlgebraicSignatureScheme
from ..sig.tree import SignatureTree
from ..sim.disk import SimDisk
from .dirty_bits import DirtyBitTracker

#: The paper's measured sig_{alpha,2} rate: 20-30 ms per MB; use the midpoint.
PAPER_SIG_SECONDS_PER_BYTE = 0.025 / (1 << 20)


@dataclass(frozen=True, slots=True)
class CpuModel:
    """Cost model for the signature calculus on the backed-up node."""

    sig_seconds_per_byte: float = PAPER_SIG_SECONDS_PER_BYTE

    def sig_time(self, nbytes: int) -> float:
        """Modeled seconds to sign ``nbytes``."""
        return nbytes * self.sig_seconds_per_byte


@dataclass(frozen=True, slots=True)
class BackupReport:
    """Outcome of one backup pass."""

    volume: str
    pages_total: int
    pages_written: int
    bytes_written: int
    sig_seconds: float       #: modeled signature-calculus time
    write_seconds: float     #: modeled disk-write time
    tree_comparisons: int = 0  #: node comparisons when a tree located changes

    @property
    def pages_skipped(self) -> int:
        """Pages proven unchanged by their signatures."""
        return self.pages_total - self.pages_written

    @property
    def total_seconds(self) -> float:
        """Modeled end-to-end time of the pass."""
        return self.sig_seconds + self.write_seconds


class BackupEngine:
    """Backs up bucket images to a simulated disk using signature maps."""

    def __init__(self, scheme: AlgebraicSignatureScheme, disk: SimDisk,
                 page_bytes: int = 16 * 1024, cpu: CpuModel | None = None,
                 use_tree: bool = False, tree_fanout: int = 16):
        symbol_bytes = scheme.scheme_id.symbol_bytes
        if page_bytes % symbol_bytes:
            raise BackupError(
                f"page size {page_bytes} not a multiple of the {symbol_bytes}-byte symbol"
            )
        self.scheme = scheme
        self.disk = disk
        self.page_bytes = page_bytes
        self.page_symbols = page_bytes // symbol_bytes
        if self.page_symbols > scheme.max_page_symbols:
            raise BackupError(
                f"{page_bytes}-byte pages exceed the certainty bound for "
                f"GF(2^{scheme.field.f}); the paper uses 16 KB pages with f=16"
            )
        self.cpu = cpu if cpu is not None else CpuModel()
        self.use_tree = use_tree
        self.tree_fanout = tree_fanout
        #: All page signing goes through the shared per-scheme batch
        #: signer (multi-bucket backup passes sign buckets per call).
        self._signer = get_batch_signer(scheme)
        self._maps: dict[str, SignatureMap] = {}
        self._trees: dict[str, SignatureTree] = {}

    # ------------------------------------------------------------------
    # Backup
    # ------------------------------------------------------------------

    def backup(self, volume: str, image: bytes | memoryview) -> BackupReport:
        """Back up one RAM image; writes only pages with changed signatures.

        The whole bucket is signed in one batched kernel pass (the
        engine's signer), not page by page.
        """
        image = bytes(image)
        new_map = self._signer.sign_map(image, self.page_symbols)
        sig_seconds = self.cpu.sig_time(len(image))
        self.disk.clock.advance(sig_seconds)
        old_map = self._maps.get(volume)
        tree_comparisons = 0
        if old_map is None:
            changed = list(range(new_map.page_count))
        elif self.use_tree and old_map.page_count == new_map.page_count:
            old_tree = self._trees[volume]
            new_tree = SignatureTree.from_map(new_map, self.tree_fanout)
            diff = old_tree.diff(new_tree)
            changed, tree_comparisons = diff.changed_leaves, diff.nodes_compared
        else:
            changed = old_map.changed_pages(new_map)
        write_seconds = 0.0
        bytes_written = 0
        for index in changed:
            page = image[index * self.page_bytes:(index + 1) * self.page_bytes]
            write_seconds += self.disk.write_page(
                volume, index, page, self.page_bytes
            )
            bytes_written += len(page)
        self._maps[volume] = new_map
        if self.use_tree:
            tree = SignatureTree.from_map(new_map, self.tree_fanout)
            self._trees[volume] = tree
            if old_map is not None and tree_comparisons:
                # Each changed page is located by one root-to-leaf
                # descent; the depth distribution is the E9 cost shape.
                depths = get_registry().histogram("backup.tree_depth")
                for _ in changed:
                    depths.observe(tree.height)
                get_registry().histogram(
                    "backup.tree_nodes_compared"
                ).observe(tree_comparisons)
        registry = get_registry()
        registry.counter("backup.passes", engine="signature").inc()
        registry.counter("backup.pages_scanned",
                         engine="signature").inc(new_map.page_count)
        registry.counter("backup.pages_written",
                         engine="signature").inc(len(changed))
        registry.counter("backup.pages_skipped", engine="signature").inc(
            # A grown volume can have more changed pages than the old
            # map had entries; skipped never goes below zero.
            max(0, new_map.page_count - len(changed))
        )
        registry.counter("backup.bytes_written",
                         engine="signature").inc(bytes_written)
        return BackupReport(
            volume=volume,
            pages_total=new_map.page_count,
            pages_written=len(changed),
            bytes_written=bytes_written,
            sig_seconds=sig_seconds,
            write_seconds=write_seconds,
            tree_comparisons=tree_comparisons,
        )

    def backup_incremental(self, volume: str, image: bytes | memoryview,
                           journal: WriteJournal,
                           tracker: DirtyBitTracker | None = None) -> BackupReport:
        """Back up from a write journal in O(|journal|) signature work.

        Instead of re-signing the whole image (:meth:`backup`), the
        journaled ``(offset, before, after)`` regions are folded into
        the volume's stored map via the batched Proposition-3 kernel,
        and only pages whose signature actually changed are written --
        pseudo-writes that restored identical bytes cost nothing, same
        as in the full pass.  The resulting map is byte-identical to a
        from-scratch :meth:`backup` of the same image.

        ``tracker``, when given, supplies per-page dirty byte extents:
        pages whose extent exceeds the tracker's full-re-sign fraction
        are re-signed whole from ``image`` (cheaper than folding many
        smeared regions) and their journal regions are dropped.  Growth
        beyond the previous image must have started zero-filled before
        the journaled writes landed (RecordHeap growth guarantees this).

        The first pass on a volume falls back to a full :meth:`backup`
        (there is no stored map to fold into); the journal is consumed
        either way.
        """
        image = bytes(image)
        old_map = self._maps.get(volume)
        if journal.symbol_bytes != self.scheme.scheme_id.symbol_bytes:
            raise BackupError(
                f"journal is {journal.symbol_bytes}-byte aligned but the "
                f"scheme uses {self.scheme.scheme_id.symbol_bytes}-byte symbols"
            )
        if old_map is None:
            journal.clear()
            if tracker is not None:
                tracker.reset()
            return self.backup(volume, image)
        if tracker is not None and tracker.page_bytes != self.page_bytes:
            raise BackupError(
                f"tracker pages ({tracker.page_bytes} B) differ from "
                f"engine pages ({self.page_bytes} B)"
            )
        journaled_bytes = journal.byte_count
        fallback = set(tracker.fallback_pages()) if tracker is not None else set()
        incremental = IncrementalSignatureMap(old_map)
        old_count = old_map.page_count
        page_bytes = self.page_bytes
        work = incremental.new_journal()
        fallback_hit: set[int] = set()
        for entry in journal.entries:
            offset, cursor, length = entry.offset, 0, len(entry.after)
            while cursor < length:
                at = offset + cursor
                page = at // page_bytes
                take = min(length - cursor, (page + 1) * page_bytes - at)
                if page in fallback:
                    fallback_hit.add(page)
                else:
                    work.record(at, entry.before[cursor:cursor + take],
                                entry.after[cursor:cursor + take])
                cursor += take
        journal.clear()
        fold = incremental.apply_journal(work, total_bytes=len(image))
        leaf_deltas = dict(fold.leaf_deltas)
        changed = set(leaf_deltas)
        # Full-page re-sign fallback for smeared pages.
        fallback_list = sorted(
            page for page in fallback_hit if page < incremental.map.page_count
        )
        fallback_bytes = 0
        if fallback_list:
            pages = [image[page * page_bytes:(page + 1) * page_bytes]
                     for page in fallback_list]
            fallback_bytes = sum(len(page) for page in pages)
            for page, signature in zip(
                fallback_list, self._signer.sign_many(pages, strict=False)
            ):
                old_sig = incremental.map.signatures[page]
                if old_sig != signature:
                    incremental.map.signatures[page] = signature
                    leaf_deltas[page] = old_sig ^ signature
                    changed.add(page)
        # Pages beyond the previous image never reached disk at all.
        changed.update(range(old_count, incremental.map.page_count))
        sig_seconds = self.cpu.sig_time(fold.bytes_folded + fallback_bytes)
        self.disk.clock.advance(sig_seconds)
        write_seconds = 0.0
        bytes_written = 0
        for index in sorted(changed):
            page = image[index * page_bytes:(index + 1) * page_bytes]
            write_seconds += self.disk.write_page(
                volume, index, page, page_bytes
            )
            bytes_written += len(page)
        if self.use_tree:
            tree = self._trees.get(volume)
            if tree is None or fold.resized:
                self._trees[volume] = SignatureTree.from_map(
                    incremental.map, self.tree_fanout
                )
            else:
                tree.apply_leaf_deltas(leaf_deltas)
        if tracker is not None:
            tracker.reset()
        registry = get_registry()
        registry.counter("backup.passes", engine="incremental").inc()
        registry.counter("backup.pages_scanned",
                         engine="incremental").inc(len(changed))
        registry.counter("backup.pages_written",
                         engine="incremental").inc(len(changed))
        registry.counter("backup.pages_skipped", engine="incremental").inc(
            max(0, incremental.map.page_count - len(changed))
        )
        registry.counter("backup.bytes_written",
                         engine="incremental").inc(bytes_written)
        registry.counter("backup.bytes_journaled").inc(journaled_bytes)
        registry.counter("backup.incremental_fallbacks").inc(len(fallback_list))
        return BackupReport(
            volume=volume,
            pages_total=incremental.map.page_count,
            pages_written=len(changed),
            bytes_written=bytes_written,
            sig_seconds=sig_seconds,
            write_seconds=write_seconds,
        )

    def attach_heap(self, heap, journal: WriteJournal | None = None) -> WriteJournal:
        """Wire a :class:`~repro.sdds.heap.RecordHeap` into a journal.

        Registers a symbol-aligned capture listener so every heap write
        (including the zeroing done by ``free``) lands in the returned
        journal, ready for :meth:`backup_incremental`.
        """
        symbol_bytes = self.scheme.scheme_id.symbol_bytes
        if journal is None:
            journal = WriteJournal(symbol_bytes=symbol_bytes)
        elif journal.symbol_bytes != symbol_bytes:
            raise BackupError(
                f"journal is {journal.symbol_bytes}-byte aligned but the "
                f"scheme uses {symbol_bytes}-byte symbols"
            )
        heap.add_capture_listener(journal.record, align=symbol_bytes)
        return journal

    def backup_bucket(self, volume: str, bucket: Bucket,
                      index_page_bytes: int = 128) -> tuple[BackupReport, BackupReport]:
        """Back up a bucket: the record heap image plus its RAM index.

        The paper signs the B-tree index at its own small granularity
        (128 B pages) since slicing the few-KB index into bucket-sized
        pages "does not make sense".
        """
        heap_report = self.backup(volume, bucket.image)
        index_stream = b"".join(bucket.index_pages(index_page_bytes))
        index_engine = BackupEngine(
            self.scheme, self.disk, page_bytes=index_page_bytes, cpu=self.cpu,
        )
        index_engine._maps = self._maps  # share map storage across granularities
        index_report = index_engine.backup(f"{volume}.index", index_stream)
        return heap_report, index_report

    # ------------------------------------------------------------------
    # Restore / verification
    # ------------------------------------------------------------------

    def restore(self, volume: str, verify: bool = False) -> bytes:
        """Read the full disk copy of a volume back.

        With ``verify``, every page read from disk is re-signed and
        checked against the signature map -- silent media corruption
        ("irrecoverable disk errors", Section 2.1) surfaces as a
        :class:`~repro.errors.BackupError` instead of bad data.
        """
        if volume not in self._maps:
            raise BackupError(f"volume {volume!r} was never backed up")
        if verify:
            corrupted = self.scrub(volume)
            if corrupted:
                raise BackupError(
                    f"volume {volume!r} corrupted on disk: pages {corrupted}"
                )
        return self.disk.read_volume(volume)

    def scrub(self, volume: str,
              design: LocateDesign | None = None) -> list[int]:
        """Verify every disk page of a volume against its map entry.

        Returns the indices of corrupted pages (signature mismatch);
        an empty list certifies the disk copy with confidence 1 - 2^-nf
        per page, and with certainty against any <= n-symbol rot.

        With a ``design``, condemnation goes through the same
        d-cover-free locator as :meth:`repro.store.PageStore.scrub`:
        the per-page comparison is replaced by a
        :func:`~repro.sig.locate.decode` over ``design.group_count``
        aggregates, falling back to the flat comparison on overflow or
        when the disk copy does not cover the map exactly.
        """
        if volume not in self._maps:
            raise BackupError(f"volume {volume!r} was never backed up")
        signature_map = self._maps[volume]
        indices = [index for index in self.disk.volume_pages(volume)
                   if index < signature_map.page_count]
        # Batch-sign every disk page in one engine pass instead of a
        # sign call per page.
        pages = [self.disk.read_page(volume, index) for index in indices]
        signatures = self._signer.sign_many(pages, strict=False)
        scanned = len(indices)
        registry = get_registry()
        corrupted: list[int] | None = None
        if design is not None and indices == list(range(
                signature_map.page_count)):
            actual_map = SignatureMap(
                self.scheme, signature_map.page_symbols,
                list(signatures), signature_map.total_symbols,
            )
            registry.counter("backup.locate.scrubs").inc()
            try:
                verdict = decode(
                    LocatorMap.from_map(design, signature_map),
                    LocatorMap.from_map(design, actual_map),
                )
            except SignatureError:
                verdict = None
            if verdict is not None and not verdict.overflowed:
                corrupted = list(verdict.pages)
            else:
                registry.counter("backup.locate.overflows").inc()
        if corrupted is None:
            corrupted = [
                index for index, signature in zip(indices, signatures)
                if signature != signature_map[index]
            ]
        registry.counter("backup.scrub_pages").inc(scanned)
        registry.counter("backup.scrub_corrupt").inc(len(corrupted))
        return corrupted

    # ------------------------------------------------------------------
    # Map persistence (cold-restart incremental backups)
    # ------------------------------------------------------------------

    def export_maps(self) -> bytes:
        """Serialize every volume's signature map.

        Stored next to the disk images, this lets a *new* engine process
        resume incremental backups: Section 2.1's point that the scheme
        is independent of any in-RAM write history.
        """
        identity = self.scheme.scheme_id.to_bytes()
        parts = [
            len(identity).to_bytes(2, "little"), identity,
            len(self._maps).to_bytes(4, "little"),
        ]
        for volume, signature_map in sorted(self._maps.items()):
            name = volume.encode()
            body = signature_map.to_bytes()
            parts.append(len(name).to_bytes(2, "little"))
            parts.append(name)
            parts.append(len(body).to_bytes(8, "little"))
            parts.append(body)
        return b"".join(parts)

    def import_maps(self, data: bytes) -> None:
        """Load maps exported by :meth:`export_maps` (replaces state)."""
        from ..sig.compound import SignatureMap
        from ..sig.signature import SchemeId

        maps: dict[str, SignatureMap] = {}
        if len(data) < 6:
            raise BackupError("truncated signature-map archive")
        identity_len = int.from_bytes(data[0:2], "little")
        offset = 2
        identity = SchemeId.from_bytes(data[offset:offset + identity_len])
        if identity != self.scheme.scheme_id:
            raise BackupError(
                "signature-map archive was written by a different scheme: "
                f"{identity} vs {self.scheme.scheme_id}"
            )
        offset += identity_len
        count = int.from_bytes(data[offset:offset + 4], "little")
        offset += 4
        for _ in range(count):
            name_len = int.from_bytes(data[offset:offset + 2], "little")
            offset += 2
            volume = data[offset:offset + name_len].decode()
            offset += name_len
            body_len = int.from_bytes(data[offset:offset + 8], "little")
            offset += 8
            body = data[offset:offset + body_len]
            if len(body) != body_len:
                raise BackupError("truncated signature-map archive body")
            offset += body_len
            maps[volume] = SignatureMap.from_bytes(body, self.scheme)
        self._maps = maps
        if self.use_tree:
            self._trees = {
                volume: SignatureTree.from_map(signature_map, self.tree_fanout)
                for volume, signature_map in maps.items()
            }

    def signature_map(self, volume: str) -> SignatureMap:
        """The stored signature map of a volume's disk copy."""
        if volume not in self._maps:
            raise BackupError(f"volume {volume!r} was never backed up")
        return self._maps[volume]


class DirtyBitBackupEngine:
    """The traditional baseline: copy pages whose dirty bit is set.

    Requires write hooks in the data structure (the retrofit the paper
    found impractical); kept for the E5 comparison -- it writes every
    *touched* page, including pages rewritten with identical bytes that
    the signature map proves unchanged.
    """

    def __init__(self, tracker: DirtyBitTracker, disk: SimDisk):
        self.tracker = tracker
        self.disk = disk

    def backup(self, volume: str, image: bytes | memoryview) -> BackupReport:
        """Write every dirty page and reset its bit."""
        image = bytes(image)
        page_bytes = self.tracker.page_bytes
        dirty = self.tracker.dirty_pages()
        write_seconds = 0.0
        bytes_written = 0
        for index in dirty:
            page = image[index * page_bytes:(index + 1) * page_bytes]
            write_seconds += self.disk.write_page(volume, index, page, page_bytes)
            bytes_written += len(page)
        self.tracker.reset(dirty)
        pages_total = (len(image) + page_bytes - 1) // page_bytes
        registry = get_registry()
        registry.counter("backup.passes", engine="dirty").inc()
        registry.counter("backup.pages_scanned", engine="dirty").inc(pages_total)
        registry.counter("backup.pages_written", engine="dirty").inc(len(dirty))
        registry.counter("backup.pages_skipped", engine="dirty").inc(
            max(0, pages_total - len(dirty))
        )
        registry.counter("backup.bytes_written",
                         engine="dirty").inc(bytes_written)
        return BackupReport(
            volume=volume,
            pages_total=pages_total,
            pages_written=len(dirty),
            bytes_written=bytes_written,
            sig_seconds=0.0,
            write_seconds=write_seconds,
        )
