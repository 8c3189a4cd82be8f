"""Incremental O(|delta|) signature maintenance (Proposition 3 at scale).

Recomputing a compound signature after a handful of writes costs
O(|bucket|) -- the paper's Proposition 3 shows it only needs to cost
O(|delta|): ``sig(P') = sig(P) + alpha^r * sig(delta)``.  This module is
the machinery that turns journaled writes into in-place signature-map
updates:

* :class:`WriteJournal` -- an ordered log of ``(offset, before, after)``
  byte regions, fed by :class:`~repro.sdds.heap.RecordHeap` capture
  listeners or directly by replicas and backup engines.  Regions must be
  symbol-aligned (the capture sites expand to symbol boundaries using
  the *actual* buffer bytes, which keeps twisted schemes exact).
* :class:`IncrementalSignatureMap` -- wraps a
  :class:`~repro.sig.compound.SignatureMap` and folds a journal into it
  without touching clean bytes: regions are split at page boundaries,
  signed in one batched 2-D kernel pass
  (:meth:`~repro.sig.engine.BatchSigner.apply_deltas`), and XOR-applied
  to the map's component rows.  Because each journal entry snapshots
  the real before/after content at capture time, consecutive deltas
  *telescope*: folding them in any order yields exactly the
  from-scratch map (property-tested).

Growth and truncation are handled algebraically: the zero-filled
padding is itself signed (free for plain schemes, where zero symbols
contribute nothing; one short zero-run signing for twisted schemes,
where ``phi(0)`` is generally non-zero) and appended or removed via
Proposition 5 -- never by re-reading existing pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SignatureError
from ..gf.vectorized import shift_rows
from .compound import LeafDeltas, SignatureMap
from .scheme import AlgebraicSignatureScheme


def aligned_span(offset: int, length: int, symbol_bytes: int) -> tuple[int, int]:
    """Expand a byte range to enclosing symbol boundaries.

    Returns the half-open byte span ``[lo, hi)`` covering
    ``[offset, offset + length)`` with both ends on symbol boundaries.
    Capture sites snapshot *this* span (with real buffer content for the
    widened flanks) so mid-symbol writes stay exact under twisted
    schemes, where the bijection acts on whole symbols.
    """
    if offset < 0 or length < 0:
        raise SignatureError("write region must have non-negative offset/length")
    lo = (offset // symbol_bytes) * symbol_bytes
    hi = -(-(offset + length) // symbol_bytes) * symbol_bytes
    return lo, hi


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One journaled write: byte offset plus old and new region content."""

    offset: int
    before: bytes
    after: bytes


@dataclass
class WriteJournal:
    """An ordered log of symbol-aligned write regions.

    The journal is the delta side of the incremental plane: every write
    to a tracked buffer appends its ``(offset, before, after)`` triple
    here, and a fold (:meth:`IncrementalSignatureMap.apply_journal`)
    later converts the whole log into signature-map updates in one
    batched pass.  ``symbol_bytes`` fixes the alignment the scheme
    requires (1 for GF(2^8), 2 for GF(2^16)).
    """

    symbol_bytes: int = 1
    entries: list[JournalEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.symbol_bytes <= 0:
            raise SignatureError("symbol width must be positive")

    def record(self, offset: int, before, after) -> None:
        """Append one write region; ends must be symbol-aligned."""
        before = bytes(before)
        after = bytes(after)
        if len(before) != len(after):
            raise SignatureError(
                f"journal regions must have equal length, got "
                f"{len(before)} vs {len(after)}"
            )
        if offset < 0:
            raise SignatureError("journal offset must be non-negative")
        if offset % self.symbol_bytes or len(after) % self.symbol_bytes:
            raise SignatureError(
                f"journal region [{offset}, {offset + len(after)}) is not "
                f"aligned to {self.symbol_bytes}-byte symbols; capture "
                "sites must expand writes with aligned_span()"
            )
        if not after:
            return
        self.entries.append(JournalEntry(offset, before, after))

    @property
    def byte_count(self) -> int:
        """Total journaled bytes (the |delta| of the O(|delta|) claim)."""
        return sum(len(entry.after) for entry in self.entries)

    def clear(self) -> None:
        """Drop every entry (after a successful fold)."""
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass(frozen=True, slots=True)
class FoldReport:
    """Outcome of folding a journal into an incremental map."""

    leaf_deltas: LeafDeltas            #: net signature delta per dirty page
    resized: bool                      #: page count or tail length changed
    regions: int                       #: page-split regions folded
    bytes_folded: int                  #: journaled bytes that were signed


class IncrementalSignatureMap:
    """A signature map kept warm by folding write journals into it.

    Wraps a plain :class:`~repro.sig.compound.SignatureMap` (exposed as
    :attr:`map`) and updates it in O(|journal|) signature work per fold:
    page-split regions go through one batched Proposition-3 kernel pass
    and only the entries of dirty pages are XORed.  The wrapped map
    stays byte-identical to ``SignatureMap.compute`` over the mutated
    buffer, for plain and twisted schemes alike.
    """

    def __init__(self, signature_map: SignatureMap):
        self.map = signature_map
        self.scheme: AlgebraicSignatureScheme = signature_map.scheme
        from .engine import get_batch_signer

        self._signer = get_batch_signer(self.scheme)
        #: Convenience journal with matching symbol alignment; owners
        #: that track their own buffer feed writes here and fold via
        #: ``apply_journal(self.journal, ...)``.
        self.journal = self.new_journal()

    @classmethod
    def from_data(cls, scheme: AlgebraicSignatureScheme, data,
                  page_symbols: int) -> "IncrementalSignatureMap":
        """Seed the map with one full batched scan of ``data``."""
        return cls(SignatureMap.compute(scheme, data, page_symbols))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def page_symbols(self) -> int:
        """Symbols per map page."""
        return self.map.page_symbols

    @property
    def symbol_bytes(self) -> int:
        """Bytes per GF symbol (journal alignment unit)."""
        return self.scheme.scheme_id.symbol_bytes

    @property
    def page_bytes(self) -> int:
        """Page size in bytes (what journal offsets are split against)."""
        return self.map.page_symbols * self.symbol_bytes

    @property
    def total_bytes(self) -> int:
        """Byte length of the buffer the map currently covers."""
        return self.map.total_symbols * self.symbol_bytes

    def new_journal(self) -> WriteJournal:
        """A journal pre-configured with this scheme's symbol alignment."""
        return WriteJournal(symbol_bytes=self.symbol_bytes)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------

    def apply_journal(self, journal: WriteJournal,
                      total_bytes: int | None = None) -> FoldReport:
        """Fold every journaled region into the map, then clear the journal.

        ``total_bytes`` is the buffer length *after* the journaled
        writes.  When omitted it is inferred as the maximum of the
        current length and the journal's furthest write (buffers that
        only grow, e.g. replica images extended by ``write_page``).
        Shrinking is honoured only when the caller journaled the zeroing
        of the dropped tail first (``RecordHeap.free`` and replica trims
        do): the fold brings those symbols to zero, and the truncation
        then removes the zero run's own contribution algebraically.
        """
        if journal.symbol_bytes != self.symbol_bytes:
            raise SignatureError(
                f"journal is {journal.symbol_bytes}-byte aligned but the "
                f"scheme uses {self.symbol_bytes}-byte symbols"
            )
        signature_map = self.map
        page_symbols = signature_map.page_symbols
        symbol_bytes = self.symbol_bytes
        current_total = signature_map.total_symbols
        end = max((e.offset + len(e.after) for e in journal.entries),
                  default=0)
        if end % symbol_bytes:
            raise SignatureError("journal entries must be symbol-aligned")
        if total_bytes is None:
            new_total = max(current_total, end // symbol_bytes)
        else:
            if total_bytes % symbol_bytes:
                raise SignatureError(
                    f"buffer length {total_bytes} is not symbol-aligned"
                )
            new_total = total_bytes // symbol_bytes
        resized = new_total != current_total
        # Grow first so journaled writes into the new space have map
        # entries to fold into; the zero-filled padding is signed
        # algebraically by _extend.  The fold extent covers the
        # journal's furthest write even when it lies beyond the final
        # length: a grow-then-shrink sequence captured in one journal
        # folds over the transient tail before truncation removes it.
        fold_total = max(current_total, new_total, end // symbol_bytes)
        if fold_total > current_total:
            self._extend(fold_total)
        # Split entries at page boundaries into (page, position, b, a).
        regions: list[tuple[int, int, bytes, bytes]] = []
        bytes_folded = 0
        page_bytes = page_symbols * symbol_bytes
        for entry in journal.entries:
            offset = entry.offset
            cursor = 0
            length = len(entry.after)
            bytes_folded += length
            while cursor < length:
                at = offset + cursor
                page = at // page_bytes
                position = (at - page * page_bytes) // symbol_bytes
                take = min(length - cursor, (page + 1) * page_bytes - at)
                regions.append((
                    page,
                    position,
                    entry.before[cursor:cursor + take],
                    entry.after[cursor:cursor + take],
                ))
                cursor += take
        leaf_deltas = self._signer.apply_deltas(signature_map, regions)
        if new_total < fold_total:
            self._truncate(new_total)
            leaf_deltas = leaf_deltas.below(signature_map.page_count)
        journal.clear()
        return FoldReport(
            leaf_deltas=leaf_deltas,
            resized=resized,
            regions=len(regions),
            bytes_folded=bytes_folded,
        )

    def _zero_run_row(self, symbols: int) -> np.ndarray:
        """Component row of the signature of ``symbols`` zero symbols.

        Identically zero for plain schemes (zero symbols contribute
        nothing), but *not* for twisted ones: the bijection maps the
        zero symbol to ``phi(0)``, which is generally non-zero -- the
        log-interpretation scheme signs a zero page as a run of
        ``antilog(0) = 1`` symbols.  Growth and truncation therefore
        sign their padding explicitly instead of assuming neutrality.
        """
        if symbols <= 0:
            return np.zeros(self.scheme.n, dtype=np.int64)
        return self.scheme.sign_components(
            b"\0" * (symbols * self.symbol_bytes)).astype(np.int64)

    def _pad_tail(self, pad: int, tail: int) -> None:
        """XOR the ``pad``-symbol zero run at symbol ``tail`` of the final
        page into (or, XOR being involutive, out of) its row
        (Proposition 5)."""
        scheme = self.scheme
        self.map.components[-1] ^= shift_rows(
            scheme.field, self._zero_run_row(pad)[None, :],
            np.array([tail], dtype=np.int64), scheme.base.betas)[0]

    def _extend(self, new_total: int) -> None:
        """Grow into zero-filled space, signing the padding algebraically."""
        signature_map = self.map
        page_symbols = signature_map.page_symbols
        old_total = signature_map.total_symbols
        old_count = signature_map.page_count
        # Pad the formerly partial tail page: Proposition 5 appends the
        # position-shifted signature of the zero run.
        if old_count:
            tail = old_total - (old_count - 1) * page_symbols
            grown = min(page_symbols,
                        new_total - (old_count - 1) * page_symbols)
            if grown > tail:
                self._pad_tail(grown - tail, tail)
        new_count = -(-new_total // page_symbols)
        if new_count > old_count:
            rows = np.empty((new_count - old_count, self.scheme.n),
                            dtype=np.int64)
            rows[:] = self._zero_run_row(page_symbols)
            last = new_total - (new_count - 1) * page_symbols
            if last != page_symbols:
                rows[-1] = self._zero_run_row(last)
            signature_map.components = np.concatenate(
                [signature_map.components, rows])
        signature_map.total_symbols = new_total

    def _truncate(self, new_total: int) -> None:
        """Shrink after the dropped tail was journaled to zero."""
        signature_map = self.map
        page_symbols = signature_map.page_symbols
        old_total = signature_map.total_symbols
        new_count = -(-new_total // page_symbols)
        signature_map.components = signature_map.components[:new_count]
        if new_count:
            tail = new_total - (new_count - 1) * page_symbols
            covered = min(page_symbols,
                          old_total - (new_count - 1) * page_symbols)
            if covered > tail:
                # Remove the (zeroed) pad contribution: XOR is involutive.
                self._pad_tail(covered - tail, tail)
        signature_map.total_symbols = new_total
