"""Remote replica reconciliation by algebraic signatures.

The signature literature the paper descends from is about exactly this:
"Signatures are a potentially useful tool to detect the updates or
discrepancies among replicas (e.g. of files [Me83], [BGMF88], [BL91],
...)" (Section 1).  This package closes the loop: two nodes hold
diverged copies of a byte image; they reconcile by exchanging
signatures -- never the unchanged data -- over the accounted simulated
network.

Three protocols, matching the literature's shapes:

* **map exchange** -- the source ships its whole signature map (4 bytes
  per page); the target compares locally and requests the differing
  pages.  O(pages) signature traffic, one round trip.
* **tree probe** -- Metzner-style [Me83] hierarchical comparison using
  the algebraic signature tree: the peers walk the tree level by level,
  descending only into differing nodes.  O(fanout * log m * changes)
  signature traffic, log-depth round trips -- wins when few pages
  changed in a large file.
* **locator exchange** -- group-testing localization
  (:mod:`repro.sig.locate`): the source ships one d-cover-free
  :class:`~repro.sig.locate.LocatorMap` -- O(d^2 log^2 N) aggregate
  signatures -- and the target decodes exactly which <= d pages
  diverged in a single round trip, falling back to the tree probe on
  :data:`~repro.sig.locate.OVERFLOW`.  Wins when divergence is within
  the damage budget: constant-ish signature traffic regardless of N.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError, SignatureError
from ..obs import get_registry
from ..sig.compound import SignatureMap
from ..sig.engine import get_batch_signer
from ..sig.incremental import IncrementalSignatureMap, aligned_span
from ..sig.locate import DEFAULT_D, LocateDesign, LocatorMap, decode
from ..sig.scheme import AlgebraicSignatureScheme
from ..sig.tree import SignatureTree
from ..sim.network import SimNetwork

#: Message kinds for the traffic accounting.
MAP_EXCHANGE = "sync_map"
TREE_LEVEL = "sync_tree_level"
LOCATOR_EXCHANGE = "sync_locator"
PAGE_REQUEST = "sync_page_request"
PAGE_DATA = "sync_page_data"

#: A warm replica folds its write journal once it holds this many
#: entries, so a replica written between signature requests (a hosted
#: mirror or image between anti-entropy sweeps) keeps bounded state.
JOURNAL_FOLD_ENTRIES = 128


class Replica:
    """One node's copy of a replicated byte image.

    The first :meth:`signature_map` call seeds a *warm* incremental map
    (and :meth:`signature_tree` a warm tree): from then on, every write
    through :meth:`write_page`, :meth:`apply_xor` or :meth:`truncate` is
    journaled, and the next signature request folds the journal in
    O(|written bytes|) instead of re-signing the whole image.  Before
    that (a cold replica) the same calls are plain slice writes, XORs
    and ``del`` on :attr:`data`: there is no warm state to keep exact.
    Code that mutates :attr:`data` directly must call
    :meth:`invalidate`.
    """

    def __init__(self, name: str, scheme: AlgebraicSignatureScheme,
                 data: bytes, page_bytes: int):
        symbol_bytes = scheme.scheme_id.symbol_bytes
        if page_bytes % symbol_bytes:
            raise ReproError(
                f"page size must be a multiple of the {symbol_bytes}-byte symbol"
            )
        self.name = name
        self.scheme = scheme
        self.page_bytes = page_bytes
        self.page_symbols = page_bytes // symbol_bytes
        if self.page_symbols > scheme.max_page_symbols:
            raise ReproError("page size exceeds the certainty bound")
        self.data = bytearray(data)
        self._incremental: IncrementalSignatureMap | None = None
        self._tree: SignatureTree | None = None
        self._tree_fanout: int | None = None
        self._locator: LocatorMap | None = None

    @classmethod
    def from_warm(cls, name: str, scheme: AlgebraicSignatureScheme,
                  data: bytes, page_bytes: int,
                  signature_map: SignatureMap,
                  tree: SignatureTree | None = None,
                  fanout: int | None = None) -> "Replica":
        """Build a replica with *pre-warmed* signature state.

        Durable-store recovery loads a checkpointed map (and tree) that
        already describes ``data``; seeding them here means the first
        :meth:`signature_map` call folds only subsequently journaled
        writes -- Proposition 3 -- instead of re-signing the image.
        The caller asserts map (and tree) match ``data``; a mismatch
        surfaces as a scrub discrepancy, not an exception.
        """
        replica = cls(name, scheme, data, page_bytes)
        replica._incremental = IncrementalSignatureMap(signature_map)
        if tree is not None:
            replica._tree = tree
            replica._tree_fanout = fanout if fanout is not None \
                else tree.fanout
        return replica

    @property
    def page_count(self) -> int:
        """Number of pages covering the current data."""
        return max(1, (len(self.data) + self.page_bytes - 1) // self.page_bytes)

    def page(self, index: int) -> bytes:
        """One page's bytes (the final page may be short)."""
        return bytes(self.data[index * self.page_bytes:(index + 1) * self.page_bytes])

    # ------------------------------------------------------------------
    # Journaled mutation
    # ------------------------------------------------------------------

    def _record(self, offset: int, length: int, mutate) -> None:
        """Run ``mutate()`` with the touched region journaled.

        The region is expanded to symbol boundaries and its before/after
        content snapshotted around the mutation, so warm signature state
        stays exact (including for twisted schemes).  A journal at
        :data:`JOURNAL_FOLD_ENTRIES` is folded first.
        """
        if self._incremental is not None \
                and len(self._incremental.journal) >= JOURNAL_FOLD_ENTRIES:
            self._refresh()
        tracked = self._incremental is not None and length > 0
        if tracked:
            symbol_bytes = self.scheme.scheme_id.symbol_bytes
            lo, hi = aligned_span(offset, length, symbol_bytes)
            hi = min(hi, len(self.data))
            if hi % symbol_bytes:
                self._cold_resign()
                tracked = False
            else:
                before = bytes(self.data[lo:hi])
        mutate()
        if tracked:
            self._incremental.journal.record(
                lo, before, bytes(self.data[lo:lo + len(before)])
            )

    def write_page(self, index: int, content: bytes) -> None:
        """Overwrite one page (extending the image if needed)."""
        self.write_at(index * self.page_bytes, content)

    def write_at(self, offset: int, content: bytes) -> None:
        """Overwrite an arbitrary extent (extending the image if needed)."""
        end = offset + len(content)
        if end > len(self.data):
            # Grown space is zero-filled, which the incremental fold
            # accounts for algebraically without journaling it.
            self.data.extend(bytes(end - len(self.data)))
        if self._incremental is None:
            self.data[offset:end] = content
            return
        self._record(offset, len(content),
                     lambda: self.data.__setitem__(slice(offset, end), content))

    def apply_xor(self, offset: int, delta: bytes) -> None:
        """XOR ``delta`` onto the image at ``offset`` (a mirror patch).

        This is the receiving half of delta-shipping replication: the
        sender transmits ``before XOR after`` for the changed extent and
        the receiver folds it in place, journaling as usual.
        """
        if offset < 0:
            raise ReproError("delta patch offset must be non-negative")
        end = offset + len(delta)
        if end > len(self.data):
            # A patch landing past the current end grows the image with
            # zeros first; XOR against zeros then writes the content.
            self.data.extend(bytes(end - len(self.data)))

        def mutate() -> None:
            patched = (
                int.from_bytes(self.data[offset:end], "little")
                ^ int.from_bytes(delta, "little")
            ).to_bytes(len(delta), "little")
            self.data[offset:end] = patched

        self._record(offset, len(delta), mutate)

    def truncate(self, new_length: int) -> None:
        """Shrink the image, journaling the zeroing of the dropped tail."""
        if new_length < 0 or new_length > len(self.data):
            raise ReproError(f"cannot truncate to {new_length} bytes")
        if new_length == len(self.data):
            return
        if self._incremental is None:
            del self.data[new_length:]
            return
        tail = len(self.data) - new_length

        def mutate() -> None:
            self.data[new_length:] = bytes(tail)

        # Zero the tail first (journaled), then drop it: the fold then
        # removes the zero run's contribution algebraically.
        self._record(new_length, tail, mutate)
        del self.data[new_length:]

    def _cold_resign(self) -> None:
        """The image ends mid-symbol: its tail cannot be journaled
        exactly, so drop the warm state (the next request re-signs the
        whole image) and count the drop."""
        get_registry().counter("sync.cold_resigns",
                               reason="partial_symbol").inc()
        self.invalidate()

    def invalidate(self) -> None:
        """Drop warm signature state after an untracked data mutation."""
        self._incremental = None
        self._tree = None
        self._tree_fanout = None
        self._locator = None

    # ------------------------------------------------------------------
    # Signature state
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Fold pending journaled writes into the warm map (and tree)."""
        incremental = self._incremental
        if incremental is None:
            return
        journal = incremental.journal
        symbol_bytes = self.scheme.scheme_id.symbol_bytes
        # A map signed over a mid-symbol image covers it zero-padded to
        # whole symbols, so it stays current until something is written.
        if not journal and incremental.total_bytes \
                == -(-len(self.data) // symbol_bytes) * symbol_bytes:
            return
        if len(self.data) % symbol_bytes:
            self._cold_resign()
            return
        report = incremental.apply_journal(journal,
                                           total_bytes=len(self.data))
        if self._tree is not None:
            if report.resized:
                self._tree = SignatureTree.from_map(
                    incremental.map, self._tree_fanout
                )
            else:
                self._tree.apply_leaf_deltas(report.leaf_deltas)
        if self._locator is not None:
            design = self._locator.design
            if report.resized:
                # Length changes move the aggregate offsets' coverage;
                # rebuild under the same design while it still fits.
                if len(incremental.map.signatures) \
                        <= max(1, design.page_capacity):
                    self._locator = LocatorMap.from_map(
                        design, incremental.map
                    )
                else:
                    self._locator = None
            elif report.leaf_deltas:
                self._locator.apply_leaf_deltas(report.leaf_deltas)
        registry = get_registry()
        registry.counter("sync.incremental_folds").inc()
        registry.counter("sync.bytes_folded").inc(report.bytes_folded)

    def signature_map(self) -> SignatureMap:
        """The replica's current per-page signature map.

        The first call signs the whole image through the shared batch
        engine and keeps the result warm; later calls fold the write
        journal in O(|delta|) and return the same (updated) map.
        """
        if self._incremental is None:
            cold = get_batch_signer(self.scheme).sign_map(
                bytes(self.data), self.page_symbols
            )
            self._incremental = IncrementalSignatureMap(cold)
            return cold
        self._refresh()
        if self._incremental is None:  # invalidated by _refresh
            return self.signature_map()
        return self._incremental.map

    def signature_tree(self, fanout: int = 16) -> SignatureTree:
        """The replica's current signature tree (kept warm like the map)."""
        signature_map = self.signature_map()
        if self._tree is not None and self._tree_fanout == fanout:
            return self._tree
        tree = SignatureTree.from_map(signature_map, fanout)
        if self._incremental is not None:
            self._tree = tree
            self._tree_fanout = fanout
        return tree

    def locator_map(self, d: int = DEFAULT_D, seed: int = 0,
                    design: LocateDesign | None = None) -> LocatorMap:
        """The replica's group-testing locator (kept warm like the tree).

        Without an explicit ``design`` one is derived deterministically
        from ``(d, seed)`` and the page count rounded up to a power of
        two -- same-shape peers with the same parameters derive the
        same design without exchanging it.  Passing ``design`` (e.g. the
        one inside a peer's locator blob) pins the family instead;
        :class:`~repro.errors.SignatureError` surfaces when this
        replica outgrew it.
        """
        signature_map = self.signature_map()
        page_count = len(signature_map.signatures)
        if design is None:
            cached = self._locator
            if cached is not None and cached.design.d == d \
                    and cached.design.seed == seed \
                    and page_count <= max(1, cached.design.page_capacity):
                design = cached.design
            else:
                capacity = 1 << max(0, (page_count - 1).bit_length()) \
                    if page_count else 1
                design = LocateDesign.build(capacity, d, seed)
        cached = self._locator
        if cached is not None and cached.design == design \
                and cached.page_count == page_count \
                and cached.total_symbols == signature_map.total_symbols:
            return cached
        locator = LocatorMap.from_map(design, signature_map)
        if self._incremental is not None:
            self._locator = locator
        return locator


@dataclass(frozen=True, slots=True)
class SyncReport:
    """Outcome of one reconciliation."""

    pages_total: int
    pages_shipped: int
    signature_bytes: int    #: bytes of signatures exchanged
    data_bytes: int         #: bytes of page data shipped
    rounds: int             #: request/response round trips

    @property
    def total_bytes(self) -> int:
        """All reconciliation traffic."""
        return self.signature_bytes + self.data_bytes


def _emit_report(protocol: str, report: SyncReport, compared: int,
                 localized: int | None = None,
                 bytes_saved: int | None = None) -> None:
    """Land one reconciliation's accounting in the ``sync.*`` series.

    Protocols that *localize* divergence rather than compare every page
    (tree probe, locator exchange) also record how many pages they
    pinpointed and how many signature bytes they avoided exchanging
    relative to a full map exchange, so the run report makes the
    sub-linear protocols directly comparable.
    """
    registry = get_registry()
    registry.counter("sync.syncs", protocol=protocol).inc()
    registry.counter("sync.pages_shipped", protocol=protocol).inc(
        report.pages_shipped
    )
    registry.counter("sync.sig_bytes", protocol=protocol).inc(
        report.signature_bytes
    )
    registry.counter("sync.data_bytes", protocol=protocol).inc(
        report.data_bytes
    )
    registry.counter("sync.nodes_compared", protocol=protocol).inc(compared)
    if localized is not None:
        registry.counter("sync.pages_localized", protocol=protocol).inc(
            localized
        )
    if bytes_saved is not None:
        registry.counter("sync.bytes_saved", protocol=protocol).inc(
            bytes_saved
        )


def _check_peers(source: Replica, target: Replica) -> None:
    if source.scheme.scheme_id != target.scheme.scheme_id:
        raise ReproError("replicas must share a signature scheme")
    if source.page_bytes != target.page_bytes:
        raise ReproError("replicas must share the page size")


def sync_by_map(source: Replica, target: Replica,
                network: SimNetwork) -> SyncReport:
    """Make ``target`` identical to ``source`` via a map exchange."""
    _check_peers(source, target)
    source_map = source.signature_map()
    map_bytes = len(source_map.to_bytes())
    network.send(source.name, target.name, MAP_EXCHANGE, map_bytes)
    changed = target.signature_map().changed_pages(source_map)
    request_bytes = 4 + 4 * len(changed)
    network.send(target.name, source.name, PAGE_REQUEST, request_bytes)
    data_bytes = 0
    for index in changed:
        page = source.page(index)
        network.send(source.name, target.name, PAGE_DATA, len(page) + 8)
        target.write_page(index, page)
        data_bytes += len(page)
    _trim(target, source)
    report = SyncReport(
        pages_total=source_map.page_count,
        pages_shipped=len(changed),
        signature_bytes=map_bytes + request_bytes,
        data_bytes=data_bytes,
        rounds=2,
    )
    # A map exchange compares every page signature exactly once.
    _emit_report("map", report, compared=source_map.page_count)
    return report


def sync_by_tree(source: Replica, target: Replica, network: SimNetwork,
                 fanout: int = 16) -> SyncReport:
    """Make ``target`` identical to ``source`` via hierarchical probing.

    The peers compare one tree level per round, starting at the root and
    descending only under differing nodes ([Me83]'s structure, with the
    nodes computed algebraically per Proposition 5).  Falls back to a
    map exchange when the page counts differ (the tree shapes would not
    align).
    """
    _check_peers(source, target)
    source_tree = source.signature_tree(fanout)
    target_tree = target.signature_tree(fanout)
    if source_tree.leaf_count != target_tree.leaf_count:
        return sync_by_map(source, target, network)
    sig_bytes_per = source.scheme.scheme_id.signature_bytes
    signature_bytes = 0
    rounds = 0
    compared = 0
    top = source_tree.height - 1
    suspects = [0]  # node indices at the current level
    for level in range(top, 0, -1):
        payload = len(suspects) * (sig_bytes_per + 4)
        network.send(source.name, target.name, TREE_LEVEL, payload)
        signature_bytes += payload
        rounds += 1
        compared += len(suspects)
        next_suspects = []
        child_level = level - 1
        for index in suspects:
            if source_tree.levels[level][index].signature == \
                    target_tree.levels[level][index].signature:
                continue
            start = index * fanout
            stop = min(start + fanout, len(source_tree.levels[child_level]))
            next_suspects.extend(range(start, stop))
        suspects = next_suspects
        if not suspects:
            break
    # Leaf round: compare the suspect pages' signatures.
    changed = [
        index for index in suspects
        if source_tree.levels[0][index].signature
        != target_tree.levels[0][index].signature
    ]
    if suspects:
        payload = len(suspects) * (sig_bytes_per + 4)
        network.send(source.name, target.name, TREE_LEVEL, payload)
        signature_bytes += payload
        rounds += 1
        compared += len(suspects)
    request_bytes = 4 + 4 * len(changed)
    network.send(target.name, source.name, PAGE_REQUEST, request_bytes)
    signature_bytes += request_bytes
    data_bytes = 0
    for index in changed:
        page = source.page(index)
        network.send(source.name, target.name, PAGE_DATA, len(page) + 8)
        target.write_page(index, page)
        data_bytes += len(page)
    _trim(target, source)
    report = SyncReport(
        pages_total=source_tree.leaf_count,
        pages_shipped=len(changed),
        signature_bytes=signature_bytes,
        data_bytes=data_bytes,
        rounds=rounds + 1,
    )
    map_cost = 16 + sig_bytes_per * source_tree.leaf_count
    _emit_report("tree", report, compared=compared,
                 localized=len(changed),
                 bytes_saved=max(0, map_cost - signature_bytes))
    return report


def sync_by_locator(source: Replica, target: Replica, network: SimNetwork,
                    d: int = DEFAULT_D, seed: int = 0,
                    fanout: int = 16) -> SyncReport:
    """Make ``target`` identical to ``source`` via group-testing decode.

    The source ships its :class:`~repro.sig.locate.LocatorMap` --
    O(d^2 log^2 N) aggregate signatures, design parameters included --
    and the target folds its own map under the *same* design and
    decodes exactly which <= d pages diverged: one signature round trip
    whose size does not grow with the volume.  When the divergence
    exceeds the damage budget (or the lengths drifted, or the target
    outgrew the design) the decode reports ``OVERFLOW`` and the
    reconciliation falls back to :func:`sync_by_tree`, with the wasted
    locator bytes accounted in the returned report -- never a silently
    wrong page set.
    """
    _check_peers(source, target)
    registry = get_registry()
    source_locator = source.locator_map(d=d, seed=seed)
    blob_bytes = len(source_locator.to_bytes())
    network.send(source.name, target.name, LOCATOR_EXCHANGE, blob_bytes)
    registry.counter("sync.locate.exchanges").inc()
    registry.counter("sync.locate.groups").inc(source_locator.group_count)
    try:
        target_locator = target.locator_map(design=source_locator.design)
        verdict = decode(source_locator, target_locator)
    except SignatureError:
        verdict = None
    if verdict is None or verdict.overflowed:
        registry.counter("sync.locate.fallbacks").inc()
        fallback = sync_by_tree(source, target, network, fanout)
        return SyncReport(
            pages_total=fallback.pages_total,
            pages_shipped=fallback.pages_shipped,
            signature_bytes=fallback.signature_bytes + blob_bytes,
            data_bytes=fallback.data_bytes,
            rounds=fallback.rounds + 1,
        )
    changed = list(verdict.pages)
    request_bytes = 4 + 4 * len(changed)
    network.send(target.name, source.name, PAGE_REQUEST, request_bytes)
    data_bytes = 0
    for index in changed:
        page = source.page(index)
        network.send(source.name, target.name, PAGE_DATA, len(page) + 8)
        target.write_page(index, page)
        data_bytes += len(page)
    _trim(target, source)
    report = SyncReport(
        pages_total=source_locator.page_count,
        pages_shipped=len(changed),
        signature_bytes=blob_bytes + request_bytes,
        data_bytes=data_bytes,
        rounds=2,
    )
    sig_bytes_per = source.scheme.scheme_id.signature_bytes
    map_cost = 16 + sig_bytes_per * source_locator.page_count
    _emit_report("locator", report, compared=verdict.groups_compared,
                 localized=len(changed),
                 bytes_saved=max(0, map_cost - report.signature_bytes))
    return report


def _trim(target: Replica, source: Replica) -> None:
    """Match the target's length to the source's after page shipping."""
    if len(target.data) > len(source.data):
        target.truncate(len(source.data))
