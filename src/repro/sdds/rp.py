"""RP*: the range-partitioned SDDS family (Litwin, Neimat, Schneider [LNS94]).

RP* files keep records ordered by key: every bucket owns a key interval
``[low, high)`` and splits at its median key when overfull.  Clients
cache a partial picture of the interval-to-bucket mapping (as in RP*c),
guess from it, and learn corrections through IAMs; servers forward
misdirected requests along their split history.

RP* exercises the signature protocols over an order-preserving substrate
-- range scans make the string-search application natural -- and shows
that the update/backup machinery is independent of the addressing
scheme.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from ..errors import SDDSError
from ..sig.scheme import AlgebraicSignatureScheme, make_scheme
from ..sim.network import SimNetwork
from . import messages
from .client import (
    BaseSDDSClient,
    OperationResult,
    OperationStatus,
    _CostTracker,
)
from .record import KEY_BYTES, Record
from .server import SDDSServer

#: Whole key space: 4-byte keys.
KEY_SPACE = 1 << (8 * KEY_BYTES)


class RPServer(SDDSServer):
    """An SDDS server that owns a key interval and a split history."""

    def __init__(self, server_id: int, scheme: AlgebraicSignatureScheme,
                 low: int, high: int, **kwargs):
        super().__init__(server_id, scheme, **kwargs)
        self.low = low
        self.high = high
        #: Splits this bucket performed: sorted (boundary, new_bucket_id).
        self.split_hints: list[tuple[int, int]] = []

    def owns(self, key: int) -> bool:
        """True when ``key`` falls in this bucket's interval."""
        return self.low <= key < self.high

    def forward_target(self, key: int) -> int | None:
        """Which bucket to forward ``key`` to, from this bucket's history.

        Keys above our current interval went to one of the buckets we
        split off; the hint with the largest boundary at or below the
        key pointed at the right bucket *at split time* and that bucket
        forwards further if it split again since.
        """
        if self.owns(key):
            return None
        if key < self.low or not self.split_hints:
            raise SDDSError(
                f"bucket {self.server_id} cannot route key {key} "
                f"outside [{self.low}, {self.high})"
            )
        index = bisect_right(self.split_hints, (key, KEY_SPACE)) - 1
        if index < 0:
            raise SDDSError(f"no split hint covers key {key}")
        return self.split_hints[index][1]


class RPFile:
    """A growing RP* file over simulated server nodes."""

    def __init__(self, scheme: AlgebraicSignatureScheme | None = None,
                 capacity_records: int = 256,
                 network: SimNetwork | None = None,
                 store_signatures: bool = False,
                 btree_degree: int = 16):
        self.scheme = scheme if scheme is not None else make_scheme()
        self.network = network if network is not None else SimNetwork()
        self.capacity_records = capacity_records
        self.store_signatures = store_signatures
        self.btree_degree = btree_degree
        self.splits_performed = 0
        self.servers: list[RPServer] = [self._new_server(0, 0, KEY_SPACE)]
        #: Sorted interval lows, and the bucket each one starts: what
        #: :meth:`owner` bisects.  :meth:`split` keeps both current.
        self._lows: list[int] = [0]
        self._owners: list[int] = [0]

    def _new_server(self, server_id: int, low: int, high: int) -> RPServer:
        return RPServer(
            server_id, self.scheme, low, high,
            capacity_records=self.capacity_records,
            store_signatures=self.store_signatures,
            btree_degree=self.btree_degree,
        )

    @property
    def bucket_count(self) -> int:
        """Current number of buckets."""
        return len(self.servers)

    @property
    def record_count(self) -> int:
        """Total records across all buckets."""
        return sum(len(server.bucket) for server in self.servers)

    def server(self, bucket_id: int) -> RPServer:
        """The server owning bucket ``bucket_id``."""
        if not 0 <= bucket_id < len(self.servers):
            raise SDDSError(f"no bucket {bucket_id}")
        return self.servers[bucket_id]

    def client(self, name: str = "client") -> "RPClient":
        """Create a new client with a fresh one-entry image."""
        return RPClient(name, self)

    def owner(self, key: int) -> int:
        """The bucket whose interval holds ``key`` (O(log buckets))."""
        if not 0 <= key < KEY_SPACE:
            raise SDDSError(f"no bucket owns key {key}")
        return self._owners[bisect_right(self._lows, key) - 1]

    def check_placement(self) -> None:
        """Assert interval coverage and per-record placement (tests)."""
        intervals = sorted((s.low, s.high) for s in self.servers)
        cursor = 0
        for low, high in intervals:
            if low != cursor:
                raise SDDSError(f"interval gap or overlap at key {cursor}")
            cursor = high
        if cursor != KEY_SPACE:
            raise SDDSError("intervals do not cover the key space")
        for server in self.servers:
            for key in server.bucket.keys():
                if not server.owns(key):
                    raise SDDSError(
                        f"key {key} stored outside [{server.low}, {server.high})"
                    )

    def maybe_split(self, server: RPServer) -> int:
        """Split the given bucket (repeatedly) while it is overfull."""
        splits = 0
        while server.bucket.is_overfull:
            target, moved = self.split(server)
            self.network.send(server.name, target.name,
                              messages.SPLIT_TRANSFER,
                              messages.HEADER_BYTES
                              + sum(record.size for record in moved))
            splits += 1
        return splits

    def split(self, source: RPServer) -> tuple[RPServer, list[Record]]:
        """Split ``source`` at its median key into a new bucket.

        Returns the new server and the records moved to it; callers
        account the transfer.
        """
        median = source.bucket.median_key()
        if not source.low < median < source.high:
            raise SDDSError("degenerate RP* split: median at interval edge")
        new_id = len(self.servers)
        target = self._new_server(new_id, median, source.high)
        self.servers.append(target)
        source.high = median
        insort(source.split_hints, (median, new_id))
        index = bisect_right(self._lows, median)
        self._lows.insert(index, median)
        self._owners.insert(index, new_id)
        moved = source.move_records(target, lambda key: key >= median)
        self.splits_performed += 1
        return target, moved


class RPClient(BaseSDDSClient):
    """An RP* client: interval-image addressing with IAM learning."""

    def __init__(self, name: str, file: RPFile):
        super().__init__(name, file.network, file.scheme)
        self.file = file
        #: Image: bucket_id -> (low, high) learned through IAMs.  An
        #: entry records an interval the bucket *owned at learn time*;
        #: the bucket may have split since, but its split hints then
        #: route onward.  Bucket 0 starts covering the whole key space
        #: (its creation interval), so every key always has a routable
        #: guess.
        self.image: dict[int, tuple[int, int]] = {0: (0, KEY_SPACE)}
        self.iams_received = 0

    def _all_servers(self) -> list[RPServer]:
        return self.file.servers

    def _after_insert(self, server: SDDSServer) -> None:
        self.file.maybe_split(server)  # type: ignore[arg-type]

    def _guess(self, key: int) -> int:
        """Most specific image entry whose learned interval contains the key."""
        best_id, best_low = 0, -1
        for bucket_id, (low, high) in self.image.items():
            if low <= key < high and low > best_low:
                best_id, best_low = bucket_id, low
        return best_id

    def range_search(self, low: int, high: int) -> OperationResult:
        """All records with ``low <= key < high``, in key order.

        The signature protocols are orthogonal to ordering, but RP* is
        the order-preserving SDDS: range queries are its reason to
        exist.  Buckets whose interval intersects the range are queried;
        the client's (possibly partial) knowledge is irrelevant because
        interval intersection is checked against the true server ranges
        via a broadcast probe, like the scan.
        """
        if low >= high:
            raise SDDSError("empty key range")
        cost = _CostTracker(self.network)
        hits: list[Record] = []
        for server in self.file.servers:
            if server.high <= low or server.low >= high:
                continue
            self.network.send(self.name, server.name, messages.KEY_SEARCH,
                              messages.key_payload() + 4)
            records = server.range_records(low, high)
            self.network.send(
                server.name, self.name, messages.SEARCH_REPLY,
                messages.scan_reply_payload([len(r.value) for r in records]),
            )
            hits.extend(records)
        hits.sort(key=lambda record: record.key)
        return self._result("range_search", OperationStatus.SCANNED, cost,
                            records=tuple(hits))

    def _locate(self, key: int, kind: str, payload: int) -> tuple[RPServer, int]:
        guess = self._guess(key)
        self.network.send(self.name, f"server{guess}", kind, payload)
        current = self.file.server(guess)
        forwards = 0
        wrong_guess = False
        while True:
            target = current.forward_target(key)
            if target is None:
                break
            wrong_guess = True
            current.stats.forwards += 1
            forwards += 1
            if forwards > len(self.file.servers):
                raise SDDSError("RP* forwarding failed to terminate")
            self.network.send(current.name, f"server{target}", messages.FORWARD,
                              payload)
            current = self.file.server(target)
        if wrong_guess:
            # IAM: the correct server teaches the client its interval.
            self.network.send(current.name, self.name, messages.IAM,
                              messages.ack_payload())
            self.iams_received += 1
            self.image[current.server_id] = (current.low, current.high)
        return current, forwards
