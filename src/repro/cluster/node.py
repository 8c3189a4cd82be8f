"""One cluster node: SDDS bucket, bucket image, hosted mirror, lifecycle.

A :class:`ClusterNode` owns three things:

* an :class:`~repro.sdds.server.SDDSServer` bucket holding the records
  whose keys hash to it -- the primary copy clients talk to;
* a page-image :class:`~repro.sync.Replica` of that bucket (the
  serialized record set, always equal to :func:`serialize_bucket` of
  the bucket), patched in place from each mutation's own effect and
  shipped *best effort* to the next node's hosted mirror as one sealed
  patch per mutation -- lost or corrupted mirror updates are exactly the
  divergence the anti-entropy pass later detects and repairs by
  signature;
* the **hosted mirror**: the previous node's bucket image, kept so a
  crashed neighbour's state survives somewhere.

The node lifecycle is ``UP -> CRASHED -> RECOVERING -> UP``: a crash
wipes every volatile structure (bucket, image, mirror, RPC reply
cache); recovery is driven by the cluster runtime, which reconstructs
the bucket from the LH*RS parity group and re-converges both mirror
relationships with :func:`repro.sync.sync_by_tree`.

RPC handling is at-least-once with replay: requests are deduplicated by
``request_id`` and answered from a reply cache, so a retried operation
whose first attempt *did* execute returns its original answer instead
of executing twice.  Every incoming payload is signature-verified
before anything else -- a corrupted transfer is counted and discarded,
never half-parsed.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from contextlib import contextmanager
from enum import Enum

from pathlib import Path

from ..obs import activate, get_registry, span_if_active
from ..obs.trace import TraceContext
from ..sdds.record import Record
from ..sdds.server import SDDSServer
from ..sig.scheme import AlgebraicSignatureScheme
from ..store.pagestore import PageStore
from ..sync import Replica
from . import wire

#: Bucket-image header: record count.  Keeps the image non-empty for
#: signature-tree building and makes truncation corruption detectable.
_IMAGE_HEADER = struct.Struct("<Q")
_RECORD_HEADER = struct.Struct("<II")  # value length, key

#: Message kinds on the cluster wire (TrafficStats / net.* categories).
REQUEST_KINDS = {wire.OP_INSERT: "c_insert", wire.OP_SEARCH: "c_search",
                 wire.OP_UPDATE: "c_update", wire.OP_DELETE: "c_delete"}
REPLY_KIND = "c_reply"
MIRROR_KIND = "c_mirror_page"
DELTA_KIND = "c_mirror_delta"


class NodeState(Enum):
    """Lifecycle state of a cluster node."""

    UP = "up"
    CRASHED = "crashed"
    RECOVERING = "recovering"


def serialize_bucket(server: SDDSServer) -> bytes:
    """The node's bucket as a canonical byte image (sorted by key)."""
    parts = []
    count = 0
    for key in sorted(server.bucket.keys()):
        record = server.bucket.get(key)
        parts.append(_RECORD_HEADER.pack(len(record.value), record.key))
        parts.append(record.value)
        count += 1
    return _IMAGE_HEADER.pack(count) + b"".join(parts)


def deserialize_bucket(image: bytes | bytearray) -> list[Record]:
    """Inverse of :func:`serialize_bucket`.

    Raises :class:`~repro.cluster.wire.WireError` when the image is
    truncated or carries bytes past its last record.
    """
    if len(image) < _IMAGE_HEADER.size:
        raise wire.WireError("truncated bucket image header")
    count, = _IMAGE_HEADER.unpack_from(image)
    offset = _IMAGE_HEADER.size
    records = []
    for _ in range(count):
        if len(image) < offset + _RECORD_HEADER.size:
            raise wire.WireError("truncated bucket image record header")
        value_len, key = _RECORD_HEADER.unpack_from(image, offset)
        offset += _RECORD_HEADER.size
        if len(image) < offset + value_len:
            raise wire.WireError("truncated bucket image record")
        records.append(Record(key, image[offset:offset + value_len]))
        offset += value_len
    if offset != len(image):
        raise wire.WireError("trailing bytes after bucket image records")
    return records


class ClusterNode:
    """One server node of the fault-injected cluster."""

    def __init__(self, index: int, cluster, scheme: AlgebraicSignatureScheme,
                 page_bytes: int, capacity_records: int = 1 << 20,
                 policy: "ServicePolicy | None" = None):
        self.index = index
        self.cluster = cluster
        self.scheme = scheme
        self.page_bytes = page_bytes
        self.capacity_records = capacity_records
        self.state = NodeState.UP
        self.server = SDDSServer(index, scheme,
                                 capacity_records=capacity_records,
                                 store_signatures=True)
        #: Request admission and queueing (PR 7).  The default policy
        #: is *inline* -- synchronous execution at delivery, the
        #: original node semantics -- while a queued policy turns this
        #: node into a modelled single-CPU server with a bounded inbox
        #: that sheds overload with explicit ``SHED`` replies.
        self.policy = policy if policy is not None else ServicePolicy()
        self.service = RequestService(self.name, cluster.loop, self.policy,
                                      execute=self._service_execute,
                                      shed=self._service_shed)
        #: Key index of the image: sorted keys and each record's
        #: serialized size, so a mutation finds its record's offset.
        self._keys: list[int] = []
        self._sizes: list[int] = []
        self.adopt_image(serialize_bucket(self.server))
        #: Hosted copy of the previous node's bucket image.
        self.mirror: Replica | None = None
        #: request_id -> sealed reply bytes (at-least-once replay).
        self._reply_cache: dict[int, bytes] = {}
        #: request ids queued or executing (duplicate suppression for
        #: queued policies; always empty between events when inline).
        self._inflight: set[int] = set()
        #: Durable backend (PR 5): when attached, every image extent is
        #: also appended to a sealed local log that survives crashes.
        self.store: PageStore | None = None
        self.store_dir: Path | None = None

    #: Store volume name holding the node's bucket image.
    IMAGE_VOLUME = "image"

    def attach_store(self, store: PageStore) -> None:
        """Adopt a durable page store; seeds it with the current image."""
        self.store = store
        self.store_dir = store.directory
        store.write_image(self.IMAGE_VOLUME, self.image_bytes(),
                          self.page_bytes)

    @property
    def name(self) -> str:
        """Network node name."""
        return f"node{self.index}"

    @property
    def is_up(self) -> bool:
        """True when the node serves traffic."""
        return self.state is NodeState.UP

    def adopt_image(self, image: bytes) -> None:
        """Replace the bucket image wholesale and re-index its records.

        ``image`` must equal :func:`serialize_bucket` of the bucket: later
        mutations splice into it at offsets taken from this index.
        """
        self.image = Replica(f"{self.name}.image", self.scheme, image,
                             self.page_bytes)
        self._reindex()

    def _reindex(self) -> None:
        records = deserialize_bucket(self.image.data)
        self._keys = [record.key for record in records]
        self._sizes = [_RECORD_HEADER.size + len(record.value)
                       for record in records]

    def make_mirror(self, source_name: str, data: bytes = b"") -> Replica:
        """(Re)create the hosted mirror replica, initially ``data``."""
        self.mirror = Replica(f"{self.name}.mirror[{source_name}]",
                              self.scheme, data or _IMAGE_HEADER.pack(0),
                              self.page_bytes)
        return self.mirror

    # ------------------------------------------------------------------
    # RPC handling
    # ------------------------------------------------------------------

    @contextmanager
    def _traced(self, name: str, context: TraceContext | None, **labels):
        # Child span parented on the *frame's* context -- never the
        # ambient stack, which may belong to a different operation when
        # a duplicated or late frame arrives mid-handling.  Yields None
        # untraced, so callers work with or without an envelope.
        if context is None:
            yield None
            return
        traces = self.cluster.traces
        with activate(traces), \
                traces.child(name, context, node=self.name, **labels) as span:
            yield span

    def receive_request(self, data: bytes) -> None:
        """Handle one delivered client request payload."""
        body = wire.unseal(self.scheme, data)
        registry = get_registry()
        if body is None:
            registry.counter("cluster.corruptions_detected",
                             where="request").inc()
            self.cluster.report_seal_failure(self.name, "request", data)
            return
        recorder = self.cluster.recorder_for(self.name)
        if recorder is not None:
            recorder.record_frame("recv", "request", "", data)
        if not self.is_up:
            registry.counter("cluster.down_drops", node=self.name).inc()
            return
        context, inner = wire.decode_traced(body)
        op, request_id, key, value = wire.decode_request(inner)
        op_name = wire.OP_NAMES[op]
        cached = self._reply_cache.get(request_id)
        if cached is not None:
            registry.counter("cluster.rpc_replays", node=self.name).inc()
            with self._traced(f"node.replay.{op_name}", context,
                              key=str(key)):
                pass
            self._transmit_reply(request_id, cached)
            return
        if request_id in self._inflight:
            # Only possible under a queued policy: a retransmit raced
            # the queue.  The queued copy will answer; re-queueing the
            # duplicate would amplify the backlog the retry is fleeing.
            registry.counter("cluster.rpc_inflight_dups",
                             node=self.name).inc()
            return
        request = ServeRequest(op, key, value,
                               read=(op == wire.OP_SEARCH),
                               meta=(context, request_id))
        self._inflight.add(request_id)
        self.service.offer(request)

    def _service_execute(self, request: "ServeRequest") -> None:
        """Service completion callback: execute, reply, cache, answer."""
        context, request_id = request.meta
        if not self.is_up:
            # A queued request completing after a crash: the volatile
            # state it targeted is gone; drop like any in-flight frame.
            get_registry().counter("cluster.down_drops",
                                   node=self.name).inc()
            for member in (request, *request.riders):
                self._inflight.discard(member.meta[1])
            return
        op, key = request.op, request.key
        op_name = wire.OP_NAMES[op]
        with self._traced(f"node.handle.{op_name}", context,
                          key=str(key)) as span:
            status, reply_value = self._execute(op, key, request.value)
            if span is not None:
                span.event("executed", status=wire.ST_NAMES[status])
        reply_context = None if span is None else span.context
        for member in (request, *request.riders):
            _member_context, member_id = member.meta
            self._inflight.discard(member_id)
            reply = wire.encode_traced(
                reply_context, wire.encode_reply(status, member_id,
                                                 reply_value)
            )
            cached = wire.seal(self.scheme, reply)
            self._reply_cache[member_id] = cached
            self._transmit_reply(member_id, cached)

    def _service_shed(self, request: "ServeRequest", reason: str) -> None:
        """Admission refused: explicit SHED reply, never cached."""
        _context, request_id = request.meta
        self._inflight.discard(request_id)
        get_registry().counter("cluster.sheds", node=self.name,
                               reason=reason).inc()
        reply = wire.encode_traced(
            None, wire.encode_reply(wire.ST_SHED, request_id))
        self._transmit_reply(request_id, wire.seal(self.scheme, reply))

    def _transmit_reply(self, request_id: int, sealed: bytes) -> None:
        client = self.cluster.client_for_request(request_id)
        recorder = self.cluster.recorder_for(self.name)
        if recorder is not None:
            recorder.record_frame("send", "reply", client.name, sealed)
        self.cluster.faulty_network.transmit(
            self.name, client.name, REPLY_KIND, sealed, client.receive_reply
        )

    def _execute(self, op: int, key: int, value: bytes) -> tuple[int, bytes]:
        """Apply one operation to bucket + parity; returns (status, value)."""
        if op == wire.OP_SEARCH:
            status, reply_value, _effect = apply_operation(
                self.server, self.scheme, op, key, value)
            return status, reply_value
        status, reply_value, effect = apply_operation(
            self.server, self.scheme, op, key, value)
        if effect == EFFECT_PSEUDO:
            get_registry().counter("cluster.pseudo_updates").inc()
            return status, reply_value
        if effect == EFFECT_NONE:
            return status, reply_value
        if effect == EFFECT_INSERT:
            self.cluster.parity.insert(key, value)
        elif effect == EFFECT_UPDATE:
            self.cluster.parity.update(key, value)
        else:
            self.cluster.parity.delete(key)
        before = self.image_bytes()
        self.refresh_image(self._spliced_image(before, effect, key, value),
                           before, send_mirror_updates=True)
        return status, reply_value

    def _spliced_image(self, previous: bytes, effect: str, key: int,
                       value: bytes) -> bytes:
        """The image after one mutation, spliced from ``previous``.

        Only the record's own bytes and the count header are rewritten;
        the records after it shift as a block.  Updates the key index.
        """
        keys, sizes = self._keys, self._sizes
        index = bisect_left(keys, key)
        offset = _IMAGE_HEADER.size + sum(sizes[:index])
        record = b""
        if effect != EFFECT_DELETE:
            record = b"".join((_RECORD_HEADER.pack(len(value), key), value))
        if effect == EFFECT_INSERT:
            keys.insert(index, key)
            sizes.insert(index, len(record))
            old_size = 0
        elif effect == EFFECT_UPDATE:
            old_size = sizes[index]
            sizes[index] = len(record)
        else:
            del keys[index]
            old_size = sizes.pop(index)
        return b"".join((_IMAGE_HEADER.pack(len(keys)),
                         previous[_IMAGE_HEADER.size:offset], record,
                         previous[offset + old_size:]))

    # ------------------------------------------------------------------
    # Bucket image and mirror shipping
    # ------------------------------------------------------------------

    def image_bytes(self) -> bytes:
        """The current bucket image bytes."""
        return bytes(self.image.data)

    def _changed_extents(self, previous: bytes,
                         current: bytes) -> list[tuple[int, int]]:
        """Symbol-aligned byte extents where the two images differ.

        Computed page by page (bounding the extent scan to dirty pages);
        within a differing page the extent brackets the first and last
        differing byte, expanded to symbol boundaries.  Bytes past the
        shorter image count as differing.  The brackets come from the
        lowest and highest set bit of the pages' XOR as integers.
        """
        from ..sig.incremental import aligned_span

        symbol_bytes = self.scheme.scheme_id.symbol_bytes
        longest = max(len(previous), len(current))
        extents: list[tuple[int, int]] = []
        page_bytes = self.page_bytes
        for lo in range(0, longest, page_bytes):
            hi = min(lo + page_bytes, longest)
            old_page = previous[lo:hi]
            new_page = current[lo:hi]
            if old_page == new_page:
                continue
            common = min(len(old_page), len(new_page))
            span = max(len(old_page), len(new_page))
            xor = (int.from_bytes(old_page[:common], "little")
                   ^ int.from_bytes(new_page[:common], "little"))
            first = ((xor & -xor).bit_length() - 1) // 8 if xor else common
            last = span - 1 if common < span else (xor.bit_length() - 1) // 8
            a, b = aligned_span(lo + first, last - first + 1, symbol_bytes)
            extents.append((a, min(b, lo + span)))
        return extents

    def refresh_image(self, current: bytes, previous: bytes,
                      send_mirror_updates: bool = False) -> None:
        """Move the image from ``previous`` to ``current``; optionally ship the diff.

        The image replica is updated through journaled extent writes --
        O(|changed bytes|) signature work to keep its warm map current,
        never a whole-buffer rewrite.  The mirror update ships as one
        sealed patch per call carrying ``before XOR after`` of every
        changed extent, *best effort*: it rides the faulty network with
        no retry, so a drop or a detected corruption leaves the mirror
        stale until the next anti-entropy pass.
        """
        extents = self._changed_extents(previous, current)
        for lo, hi in extents:
            if lo < len(current):
                self.image.write_at(lo, current[lo:min(hi, len(current))])
        if len(current) < len(self.image.data):
            self.image.truncate(len(current))
        if self.store is not None:
            # Durable mode: the same extents land in the sealed local
            # log as DELTA frames (before XOR after), one sealed burst
            # per mutation, so a crash replays to exactly this image.
            self.store.record_extents(
                self.IMAGE_VOLUME,
                [(lo, previous[lo:hi], current[lo:hi]) for lo, hi in extents],
                len(current))
        if not send_mirror_updates or not extents:
            return
        host = self.cluster.mirror_host(self.index)
        # The patch inherits the trace context of the operation that
        # dirtied the image (the ambient span during RPC handling), so
        # the mirror application on the host lands in the same tree.
        context = self.cluster.traces.current
        regions = []
        for lo, hi in extents:
            old_part = previous[lo:hi]
            new_part = current[lo:hi]
            regions.append((lo, (
                int.from_bytes(old_part, "little")
                ^ int.from_bytes(new_part, "little")
            ).to_bytes(max(len(old_part), len(new_part)), "little")))
        with span_if_active("node.mirror_ship", node=self.name,
                            extents=str(len(extents))):
            sealed = wire.seal(self.scheme, wire.encode_traced(
                context, wire.encode_deltas(len(current), regions)))
            self.cluster.faulty_network.transmit(
                self.name, host.name, DELTA_KIND, sealed,
                host.receive_mirror_delta,
            )
        registry = get_registry()
        registry.counter("cluster.mirror_deltas",
                         source=self.name).inc(len(regions))
        registry.counter("cluster.mirror_delta_bytes", source=self.name).inc(
            sum(len(delta) for _offset, delta in regions))

    def receive_mirror(self, data: bytes) -> None:
        """Apply one delivered mirror page update to the hosted mirror."""
        body = wire.unseal(self.scheme, data)
        registry = get_registry()
        if body is None:
            registry.counter("cluster.corruptions_detected",
                             where="mirror").inc()
            self.cluster.report_seal_failure(self.name, "mirror", data)
            return
        if not self.is_up or self.mirror is None:
            registry.counter("cluster.down_drops", node=self.name).inc()
            return
        context, inner = wire.decode_traced(body)
        image_len, page_index, page = wire.decode_mirror(inner)
        with self._traced("node.mirror_page", context):
            self.mirror.write_page(page_index, page)
            if len(self.mirror.data) > image_len:
                self.mirror.truncate(image_len)

    def receive_mirror_delta(self, data: bytes) -> None:
        """XOR one delivered delta patch onto the hosted mirror.

        The seal covers the whole multi-region frame, so a corrupted
        patch is *detected and dropped* whole (certainly for <= n
        corrupted symbols, Proposition 1) rather than applied -- the
        mirror is then merely stale, which anti-entropy repairs.
        """
        body = wire.unseal(self.scheme, data)
        registry = get_registry()
        if body is None:
            registry.counter("cluster.corruptions_detected",
                             where="mirror").inc()
            self.cluster.report_seal_failure(self.name, "mirror", data)
            return
        recorder = self.cluster.recorder_for(self.name)
        if recorder is not None:
            recorder.record_frame("recv", "mirror_delta", "", data)
        if not self.is_up or self.mirror is None:
            registry.counter("cluster.down_drops", node=self.name).inc()
            return
        context, inner = wire.decode_traced(body)
        image_len, regions = wire.decode_deltas(inner)
        with self._traced("node.mirror_apply", context):
            for offset, delta in regions:
                self.mirror.apply_xor(offset, delta)
            if len(self.mirror.data) > image_len:
                self.mirror.truncate(image_len)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state; traffic is dropped until recovery.

        A durable node loses its RAM structures and its open store
        handle, but the sealed log directory survives on "disk" --
        that is what the certified-recovery path replays.
        """
        self.state = NodeState.CRASHED
        self.server = SDDSServer(self.index, self.scheme,
                                 capacity_records=self.capacity_records,
                                 store_signatures=True)
        self.adopt_image(serialize_bucket(self.server))
        self.mirror = None
        self._reply_cache.clear()
        self._inflight.clear()
        self.service = RequestService(self.name, self.cluster.loop,
                                      self.policy,
                                      execute=self._service_execute,
                                      shed=self._service_shed)
        if self.store is not None:
            self.store.close()
            self.store = None

    def rebuild_from(self, records: list[Record]) -> None:
        """Repopulate the bucket (recovery path); refreshes the image."""
        for record in records:
            self.server.insert(record)
        self.refresh_image(serialize_bucket(self.server), self.image_bytes())
        self._reindex()


# Imported last, deliberately: the serve package builds on cluster
# primitives (wire, events) while the node builds on serve's service
# abstraction.  Everything node.py needs from serve is defined before
# serve imports anything from this module, so the bottom import breaks
# the cycle in both import directions.
from ..serve.ops import (  # noqa: E402
    EFFECT_DELETE,
    EFFECT_INSERT,
    EFFECT_NONE,
    EFFECT_PSEUDO,
    EFFECT_UPDATE,
    apply_operation,
)
from ..serve.service import RequestService, ServeRequest, ServicePolicy  # noqa: E402
