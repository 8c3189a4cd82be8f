"""One cluster node: SDDS bucket, bucket image, hosted mirror, lifecycle.

A :class:`ClusterNode` owns three things:

* an :class:`~repro.sdds.server.SDDSServer` bucket holding the records
  whose keys hash to it -- the primary copy clients talk to;
* a page-image :class:`~repro.sync.Replica` of that bucket in the *slot
  layout* (below): each record sits in its own slot, written once and
  never moved by other records' mutations, so a mutation dirties only
  the slot it wrote -- the paper's page backup (Section 3) then rewrites
  only those pages.  Each mutation's slot writes are logged and shipped
  *best effort* to the next node's hosted mirror as one sealed patch --
  lost or corrupted mirror updates are exactly the divergence the
  anti-entropy pass later detects and repairs by signature;
* the **hosted mirror**: the previous node's bucket image, kept so a
  crashed neighbour's state survives somewhere.

The slot layout: an 8-byte nonzero format tag at offset 0, then slots of
``header(value_len | LIVE, key) || value`` zero-padded to 8 bytes.  Free
space is all zero and a live header never is, so one scan in offset
order recovers every record; the image ends at the high-water mark.

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

import struct
from bisect import bisect_left
from contextlib import contextmanager
from enum import Enum

from pathlib import Path

from ..obs import activate, get_registry, span_if_active
from ..obs.trace import TraceContext
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

#: Bucket-image format tag at offset 0.  Nonzero, so an image is never
#: empty, and distinct from any other layout's first word, so an image
#: in another layout is refused rather than misread.
IMAGE_TAG = b"SDDSLOT1"
_SLOT_HEADER = struct.Struct("<II")  # value length | _LIVE, key
_LIVE = 1 << 31
_ALIGN = 8

#: Message kinds on the cluster wire (TrafficStats / net.* categories).
REQUEST_KINDS = {wire.OP_INSERT: "c_insert", wire.OP_SEARCH: "c_search",
                 wire.OP_UPDATE: "c_update", wire.OP_DELETE: "c_delete"}
REPLY_KIND = "c_reply"
DELTA_KIND = "c_mirror_delta"


class NodeState(Enum):
    """Lifecycle state of a cluster node."""

    UP = "up"
    CRASHED = "crashed"
    RECOVERING = "recovering"


def _slot_size(value_len: int) -> int:
    """Bytes a slot holding a ``value_len``-byte value occupies."""
    return -(-(_SLOT_HEADER.size + value_len) // _ALIGN) * _ALIGN


def _slot_bytes(key: int, value: bytes) -> bytes:
    """One live slot: header, value, zero padding."""
    return _SLOT_HEADER.pack(len(value) | _LIVE, key) + value.ljust(
        _slot_size(len(value)) - _SLOT_HEADER.size, b"\x00")


def serialize_bucket(server: SDDSServer) -> bytes:
    """The canonical slot image: the tag, then slots sorted by key, packed."""
    bucket = server.bucket
    return IMAGE_TAG + b"".join(_slot_bytes(key, bucket.get(key).value)
                                for key in sorted(bucket.keys()))


def _scan_slots(image: bytes | bytearray) -> list[tuple[int, Record]]:
    """Every live slot of a slot image as ``(offset, record)``, in order.

    Raises :class:`~repro.cluster.wire.WireError` on a missing or
    unknown tag, an unaligned length, a truncated slot, a nonzero free
    word or padding byte, free space past the last slot, or a key that
    appears twice.
    """
    if bytes(image[:len(IMAGE_TAG)]) != IMAGE_TAG:
        raise wire.WireError("missing or unknown bucket image tag")
    end = len(image)
    if end % _ALIGN:
        raise wire.WireError(f"bucket image length {end} is not aligned")
    slots: list[tuple[int, Record]] = []
    seen: set[int] = set()
    offset = last_end = len(IMAGE_TAG)
    while offset < end:
        word, key = _SLOT_HEADER.unpack_from(image, offset)
        if not word & _LIVE:
            if word or key:
                raise wire.WireError(f"nonzero free word at {offset}")
            offset += _ALIGN
            continue
        value_end = offset + _SLOT_HEADER.size + (word ^ _LIVE)
        last_end = offset + _slot_size(word ^ _LIVE)
        if last_end > end:
            raise wire.WireError(f"truncated slot at {offset}")
        if any(image[value_end:last_end]):
            raise wire.WireError(f"nonzero padding in the slot at {offset}")
        if key in seen:
            raise wire.WireError(f"key {key} appears twice")
        seen.add(key)
        slots.append((offset, Record(key, bytes(
            image[offset + _SLOT_HEADER.size:value_end]))))
        offset = last_end
    if last_end != end:
        raise wire.WireError("free space past the last slot")
    return slots


def deserialize_bucket(image: bytes | bytearray) -> list[Record]:
    """The records of a slot image (holes allowed), in offset order.

    Raises :class:`~repro.cluster.wire.WireError` on a malformed image.
    """
    return [record for _offset, record in _scan_slots(image)]


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
        self.server = SDDSServer(index, scheme, capacity_records=1 << 20,
                                 store_signatures=True)
        # Inline service: each request executes at delivery.
        super().__init__(cluster.loop, ServicePolicy(),
                         cluster.faulty_network, cluster.clients)
        self.adopt_image(serialize_bucket(self.server))
        #: Hosted copy of the previous node's bucket image.
        self.mirror: Replica | None = None
        #: Durable backend: when attached, every image extent is also
        #: appended to a sealed local log that survives crashes.
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

    def adopt_image(self, image: bytes) -> list[Record]:
        """Replace the bucket image wholesale; returns its records.

        One scan rebuilds the slot table (``key -> (offset, size)``),
        the coalesced free list and the high-water mark that later
        mutations allocate from.  A malformed image raises
        :class:`~repro.cluster.wire.WireError` and leaves the node's
        current image in place.
        """
        slots = _scan_slots(image)
        table: dict[int, tuple[int, int]] = {}
        free: list[tuple[int, int]] = []
        cursor = len(IMAGE_TAG)
        for offset, record in slots:
            if offset > cursor:
                free.append((cursor, offset - cursor))
            size = _slot_size(len(record.value))
            table[record.key] = (offset, size)
            cursor = offset + size
        self.image = Replica(f"{self.name}.image", self.scheme, image,
                             self.page_bytes)
        self._slots = table
        #: Gaps below the high-water mark, sorted and coalesced.
        self._free = free
        self._high_water = cursor
        return [record for _offset, record in slots]

    def make_mirror(self, source_name: str, data: bytes = b"") -> Replica:
        """(Re)create the hosted mirror replica, initially ``data``."""
        self.mirror = Replica(f"{self.name}.mirror[{source_name}]",
                              self.scheme, data or IMAGE_TAG,
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
        status, reply_value, effect = apply_operation(
            self.server, self.scheme, op, key, value)
        if effect == EFFECT_PSEUDO:
            get_registry().counter("cluster.pseudo_updates").inc()
        if effect not in MUTATING_EFFECTS:
            return status, reply_value
        if effect == EFFECT_INSERT:
            self.cluster.parity.insert(key, value)
            writes = [self._place(key, value)]
        elif effect == EFFECT_DELETE:
            self.cluster.parity.delete(key)
            writes = [self._release(*self._slots.pop(key))]
        else:
            self.cluster.parity.update(key, value)
            offset, size = self._slots[key]
            if _slot_size(len(value)) == size:
                writes = [(offset, _slot_bytes(key, value))]
            else:
                # New slot first, old one zeroed second: a crash between
                # the two frames leaves the key twice, which decoding
                # refuses, never a value no client wrote.
                writes = [self._place(key, value),
                          self._release(offset, size)]
        self.refresh_image(writes, self._high_water)
        return status, reply_value

    def _place(self, key: int, value: bytes) -> tuple[int, bytes]:
        """Allocate ``key``'s slot first-fit; returns the slot write."""
        size = _slot_size(len(value))
        for index, (offset, room) in enumerate(self._free):
            if room >= size:
                if room == size:
                    del self._free[index]
                else:
                    self._free[index] = (offset + size, room - size)
                break
        else:
            offset = self._high_water
            self._high_water += size
        self._slots[key] = (offset, size)
        return offset, _slot_bytes(key, value)

    def _release(self, offset: int, size: int) -> tuple[int, bytes]:
        """Free the slot at ``offset``; returns the write that zeroes it.

        The freed range merges with adjacent gaps; a gap reaching the
        high-water mark lowers it instead, trimming the image.
        """
        free = self._free
        lo, hi = offset, offset + size
        index = bisect_left(free, (lo, 0))
        if index < len(free) and free[index][0] == hi:
            hi += free.pop(index)[1]
        if index and sum(free[index - 1]) == lo:
            index -= 1
            lo = free.pop(index)[0]
        if hi == self._high_water:
            self._high_water = lo
        else:
            free.insert(index, (lo, hi - lo))
        return offset, bytes(size)

    # ------------------------------------------------------------------
    # Bucket image and mirror shipping
    # ------------------------------------------------------------------

    def image_bytes(self) -> bytes:
        """The current bucket image bytes."""
        return bytes(self.image.data)

    def refresh_image(self, writes: list[tuple[int, bytes]],
                      image_len: int) -> None:
        """Apply one mutation's slot writes; log and ship them.

        ``writes`` are ``(offset, slot bytes)`` in order and
        ``image_len`` is the image length after them.  The image replica
        takes them as journaled extent writes -- O(|written bytes|)
        signature work to keep its warm map current.  In durable mode
        they land in the sealed local log as one ``DELTA`` frame per
        slot write (before XOR after), one sealed burst per mutation,
        so a crash replays to exactly this image.  The mirror update
        ships as one sealed patch carrying the same regions, *best
        effort*: it rides the faulty network with no retry, so a drop
        or a detected corruption leaves the mirror stale until the next
        anti-entropy pass.
        """
        data = self.image.data
        extents = []
        for offset, content in writes:
            extents.append((offset, bytes(data[offset:offset + len(content)]),
                            content))
            self.image.write_at(offset, content)
        if image_len < len(data):
            self.image.truncate(image_len)
        if self.store is not None:
            self.store.record_extents(self.IMAGE_VOLUME, extents, image_len)
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
        registry = get_registry()
        registry.counter("cluster.mirror_deltas",
                         source=self.name).inc(len(regions))
        registry.counter("cluster.mirror_delta_bytes", source=self.name).inc(
            sum(len(delta) for _offset, delta in regions))

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
        self.server = SDDSServer(self.index, self.scheme,
                                 capacity_records=1 << 20,
                                 store_signatures=True)
        self.adopt_image(serialize_bucket(self.server))
        self.mirror = None
        self.forget_requests()
        if self.store is not None:
            self.store.close()
            self.store = None

    def rebuild_from(self, records: list[Record]) -> None:
        """Repopulate the bucket (recovery path); adopts its packed image."""
        for record in records:
            self.server.insert(record)
        self.adopt_image(serialize_bucket(self.server))

