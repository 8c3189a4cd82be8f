"""One cluster node: SDDS bucket, bucket image, hosted mirror, lifecycle.

A :class:`ClusterNode` owns three things:

* an :class:`~repro.sdds.server.SDDSServer` bucket holding the records
  whose keys hash to it -- the primary copy clients talk to.  Its heap
  holds the SDDS slot layout (:mod:`repro.sdds.image`): each record
  sits in its own slot, written once and never moved by other records'
  mutations, so a mutation dirties only the slots it wrote -- the
  paper's page backup (Section 3) then rewrites only those pages;
* one page-image :class:`~repro.sync.Replica` of that heap up to its
  high-water mark (a durable node's is its page store's image volume).
  The heap's captured slot writes of each mutation go to
  :meth:`ClusterNode.refresh_image`, which applies them to the image
  and ships them *best effort* to the next node's hosted mirror as one
  sealed patch -- lost or corrupted mirror updates are exactly the
  divergence the anti-entropy pass later detects and repairs by
  signature;
* the **hosted mirror**: the previous node's bucket image, kept so a
  crashed neighbour's state survives somewhere.

The node holds no allocator or slot table of its own: the bucket
places the slots, and a recovered image becomes the bucket with
:meth:`repro.sdds.bucket.Bucket.from_image`.

The node lifecycle is ``UP -> CRASHED -> RECOVERING -> UP``: a crash
wipes every volatile structure (bucket, image, mirror, reply cache
and low-water marks); recovery is driven by the cluster runtime, which
reconstructs the bucket from the LH*RS parity group and re-converges
both mirror relationships with :func:`repro.sync.sync_by_tree`.

Requests take the front end both node runtimes share
(:class:`~repro.serve.frontend.RequestFrontEnd`): seal check, replay
from a reply cache bounded by client low-water marks, and inline
execution.  The node adds only its down-node drop, its trace spans and
its flight-recorder frames.
"""

from __future__ import annotations

from enum import Enum

from pathlib import Path

from ..obs import COUNTERS, HandleCache, get_registry, span_if_active
from ..obs.trace import _UNTRACED, TraceContext
from ..sdds.bucket import Bucket
from ..sdds.image import IMAGE_TAG
from ..sdds.record import Record
from ..sdds.server import SDDSServer
from ..serve.frontend import RequestFrontEnd
from ..serve.ops import (
    EFFECT_DELETE,
    EFFECT_INSERT,
    EFFECT_PSEUDO,
    MUTATING_EFFECTS,
    apply_operation,
)
from ..serve.service import ServeRequest, ServicePolicy
from ..sig.scheme import AlgebraicSignatureScheme
from ..store.pagestore import PageStore
from ..sync import Replica
from . import wire

#: Message kinds on the cluster wire (TrafficStats / net.* categories).
REQUEST_KINDS = {wire.OP_INSERT: "c_insert", wire.OP_SEARCH: "c_search",
                 wire.OP_UPDATE: "c_update", wire.OP_DELETE: "c_delete"}
REPLY_KIND = "c_reply"
DELTA_KIND = "c_mirror_delta"

#: ``cluster.mirror_deltas`` and ``cluster.mirror_delta_bytes`` by source.
_MIRROR_COUNTERS = HandleCache(lambda registry, source: (
    registry.counter("cluster.mirror_deltas", source=source),
    registry.counter("cluster.mirror_delta_bytes", source=source)))


class NodeState(Enum):
    """Lifecycle state of a cluster node."""

    UP = "up"
    CRASHED = "crashed"
    RECOVERING = "recovering"


class ClusterNode(RequestFrontEnd):
    """One server node of the fault-injected cluster."""

    prefix = "cluster"
    reply_kind = REPLY_KIND

    def __init__(self, index: int, cluster, scheme: AlgebraicSignatureScheme,
                 page_bytes: int):
        self.index = index
        self.cluster = cluster
        self.scheme = scheme
        self.page_bytes = page_bytes
        self.state = NodeState.UP
        # Inline service: each request executes at delivery.
        super().__init__(cluster.loop, ServicePolicy(),
                         cluster.faulty_network, cluster.clients)
        #: Durable backend: its sealed log is the image's only writer.
        self.store: PageStore | None = None
        self.store_dir: Path | None = None
        self._serve(Bucket(index, capacity_records=1 << 20))
        #: Hosted copy of the previous node's bucket image.
        self.mirror: Replica | None = None

    #: Store volume name holding the node's bucket image.
    IMAGE_VOLUME = "image"

    def attach_store(self, store: PageStore) -> None:
        """Seed a durable page store with the image, then use its
        volume replica as the image."""
        store.write_image(self.IMAGE_VOLUME, self.image_bytes(),
                          self.page_bytes)
        self.store = store
        self.store_dir = store.directory
        self._bind_image()

    @property
    def name(self) -> str:
        """Network node name."""
        return f"node{self.index}"

    @property
    def is_up(self) -> bool:
        """True when the node serves traffic."""
        return self.state is NodeState.UP

    def _serve(self, bucket: Bucket) -> None:
        """Serve ``bucket``: a fresh server over it, its heap's writes
        captured, and the image bound."""
        self.server = SDDSServer(self.index, self.scheme,
                                 capacity_records=1 << 20,
                                 store_signatures=True)
        self.server.adopt_bucket(bucket)
        #: ``(offset, before, after)`` of every heap write of the
        #: current mutation, in order.
        self._extents: list[tuple[int, bytes, bytes]] = []
        bucket.heap.add_capture_listener(
            lambda *extent: self._extents.append(extent))
        self._bind_image()

    def _bind_image(self) -> None:
        """Bind the image: the store's volume replica when durable, else
        a fresh copy of the bucket heap up to its high-water mark."""
        heap = self.server.bucket.heap
        self.image = self.store.replica(self.IMAGE_VOLUME) \
            if self.store is not None else Replica(
                f"{self.name}.image", self.scheme,
                bytes(heap.image[:heap.high_water]), self.page_bytes)

    def adopt_image(self, image: bytes) -> None:
        """Serve the bucket ``image`` holds, every slot where it is.

        A durable node's image stays its store's volume replica (which
        must hold ``image``).  A malformed image raises
        :class:`~repro.errors.WireError` and leaves the node's current
        bucket and image in place.
        """
        self._serve(Bucket.from_image(self.index, image,
                                      capacity_records=1 << 20))

    def make_mirror(self, source_name: str, data: bytes = b"") -> Replica:
        """(Re)create the hosted mirror replica, initially ``data``."""
        self.mirror = Replica(f"{self.name}.mirror[{source_name}]",
                              self.scheme, data or IMAGE_TAG,
                              self.page_bytes)
        return self.mirror

    # ------------------------------------------------------------------
    # RPC handling
    # ------------------------------------------------------------------

    def _traced(self, name: str, context: TraceContext | None, **labels):
        # Child span parented on the *frame's* context -- never the
        # ambient stack, which may belong to a different operation when
        # a duplicated or late frame arrives mid-handling.  Enters as
        # None untraced, so callers work with or without an envelope.
        if context is None:
            return _UNTRACED
        return self.cluster.traces.child(name, context, node=self.name,
                                         **labels).activating()

    def _frame_corrupt(self, data: bytes) -> None:
        self.cluster.report_seal_failure(self.recorder, "request", data)

    def _accepting(self) -> bool:
        if not self.is_up:
            get_registry().counter("cluster.down_drops",
                                   node=self.name).inc()
        return self.is_up

    def _replayed(self, request: wire.Request) -> None:
        with self._traced(f"node.replay.{wire.OP_NAMES[request.op]}",
                          request.context, key=str(request.key)):
            pass

    def _execute(self, group: ServeRequest
                 ) -> tuple[int, bytes, TraceContext | None]:
        op, key = group.op, group.key
        with self._traced(f"node.handle.{wire.OP_NAMES[op]}",
                          group.meta[0].context, key=str(key)) as span:
            status, reply_value = self._apply(op, key, group.value)
            if span is not None:
                span.event("executed", status=wire.ST_NAMES[status])
        return status, reply_value, None if span is None else span.context

    def _apply(self, op: int, key: int, value: bytes) -> tuple[int, bytes]:
        """Apply one operation to bucket + parity; returns (status, value)."""
        self._extents.clear()
        status, reply_value, effect = apply_operation(
            self.server, self.scheme, op, key, value)
        if effect == EFFECT_PSEUDO:
            COUNTERS["cluster.pseudo_updates"].inc()
        if effect not in MUTATING_EFFECTS:
            return status, reply_value
        if effect == EFFECT_INSERT:
            self.cluster.parity.insert(key, value)
        elif effect == EFFECT_DELETE:
            self.cluster.parity.delete(key)
        else:
            self.cluster.parity.update(key, value)
        self.refresh_image(self._extents, self.server.bucket.heap.high_water)
        return status, reply_value

    # ------------------------------------------------------------------
    # Bucket image and mirror shipping
    # ------------------------------------------------------------------

    def image_bytes(self) -> bytes:
        """The current bucket image bytes."""
        return bytes(self.image.data)

    def refresh_image(self, extents: list[tuple[int, bytes, bytes]],
                      image_len: int) -> None:
        """Apply one mutation's heap writes to the image; ship them.

        ``extents`` are the bucket heap's ``(offset, before, after)``
        captures of the mutation, in order, and ``image_len`` is its
        high-water mark after them.  A durable node logs one ``DELTA``
        frame per slot write (before XOR after) in one sealed burst,
        which its store applies to the image, so a crash replays to
        exactly this image; any other node writes them to its image.
        The image journals them while warm: O(|written bytes|)
        signature work at the next fold.  The mirror update ships as
        one sealed patch carrying the same regions, *best effort*: it
        rides the faulty network with no retry, so a drop or a
        detected corruption leaves the mirror stale until the next
        anti-entropy pass.
        """
        if self.store is not None:
            self.store.record_extents(self.IMAGE_VOLUME, extents, image_len)
        else:
            for offset, _before, after in extents:
                self.image.write_at(offset, after)
            if image_len < len(self.image.data):
                self.image.truncate(image_len)
        host = self.cluster.mirror_host(self.index)
        # The patch inherits the trace context of the operation that
        # dirtied the image (the ambient span during RPC handling), so
        # the mirror application on the host lands in the same tree.
        context = self.cluster.traces.current
        regions = [(offset, (int.from_bytes(before, "little")
                             ^ int.from_bytes(after, "little")
                             ).to_bytes(len(after), "little"))
                   for offset, before, after in extents]
        with span_if_active("node.mirror_ship", node=self.name,
                            extents=str(len(regions))):
            sealed = wire.seal(self.scheme, wire.encode_traced(
                context, wire.encode_deltas(image_len, regions)))
            self.cluster.faulty_network.transmit(
                self.name, host.name, DELTA_KIND, sealed,
                host.receive_mirror_delta,
            )
        deltas, delta_bytes = _MIRROR_COUNTERS[self.name]
        deltas.inc(len(regions))
        delta_bytes.inc(sum(len(delta) for _offset, delta in regions))

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
            self.cluster.report_seal_failure(self.recorder, "mirror", data)
            return
        self.recorder.record_frame("recv", "mirror_delta", "", data)
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
        if self.store is not None:
            self.store.close()
            self.store = None
        self._serve(Bucket(self.index, capacity_records=1 << 20))
        self.mirror = None
        self.forget_requests()

    def rebuild_from(self, records: list[Record]) -> None:
        """Repopulate the bucket (recovery path) in key order, so its
        image is the canonical packed one."""
        for record in sorted(records, key=lambda record: record.key):
            self.server.insert(record)
        self._extents.clear()
        self._bind_image()
