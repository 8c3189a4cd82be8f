"""The LH* SDDS file: coordinator, servers, and client factory.

:class:`LHFile` wires together the addressing mathematics
(:mod:`repro.sdds.lh`), the server nodes, the simulated network, and the
split machinery; :class:`LHClient` adds the client-side addressing with
image adjustment.  This is the "SDDS-2000" equivalent the signature
applications (backup, updates, scans) run against.
"""

from __future__ import annotations

from ..errors import SDDSError
from ..sig.scheme import AlgebraicSignatureScheme, make_scheme
from ..sim.network import SimNetwork
from . import messages
from .client import BaseSDDSClient
from .bucket import RecordTally
from .lh import ClientImage, FileState, LHAddressing
from .record import Record
from .server import SDDSServer


class LHFile:
    """A growing LH* file over simulated server nodes.

    Parameters
    ----------
    scheme:
        Signature scheme used by the update/scan protocols (defaults to
        the paper's GF(2^16), n = 2).
    capacity_records:
        Per-bucket capacity; splits keep the global load factor below
        ``split_load_factor``.
    store_signatures:
        Enable the stored-signature update variant of Section 2.2.
    """

    def __init__(self, scheme: AlgebraicSignatureScheme | None = None,
                 capacity_records: int = 256,
                 network: SimNetwork | None = None,
                 initial_buckets: int = 1,
                 split_load_factor: float = 0.8,
                 store_signatures: bool = False,
                 btree_degree: int = 16):
        if not 0.0 < split_load_factor <= 1.0:
            raise SDDSError("split load factor must be in (0, 1]")
        self.scheme = scheme if scheme is not None else make_scheme()
        self.network = network if network is not None else SimNetwork()
        self.addressing = LHAddressing(initial_buckets)
        self.state = FileState()
        self.capacity_records = capacity_records
        self.split_load_factor = split_load_factor
        self.store_signatures = store_signatures
        self.btree_degree = btree_degree
        self.splits_performed = 0
        #: Running record count of every bucket (inserts, deletes and
        #: split moves update it), so the load factor costs O(1).
        self._tally = RecordTally()
        self.servers: list[SDDSServer] = [
            self._new_server(bucket_id) for bucket_id in range(initial_buckets)
        ]

    def _new_server(self, bucket_id: int) -> SDDSServer:
        return SDDSServer(
            bucket_id, self.scheme,
            capacity_records=self.capacity_records,
            store_signatures=self.store_signatures,
            btree_degree=self.btree_degree,
            tally=self._tally,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bucket_count(self) -> int:
        """Current number of buckets (= servers)."""
        return len(self.servers)

    @property
    def record_count(self) -> int:
        """Total records across all buckets (a running count)."""
        return self._tally.count

    @property
    def load_factor(self) -> float:
        """Records divided by total capacity."""
        return self.record_count / (self.capacity_records * self.bucket_count)

    def server(self, bucket_id: int) -> SDDSServer:
        """The server owning bucket ``bucket_id``."""
        if not 0 <= bucket_id < len(self.servers):
            raise SDDSError(f"no bucket {bucket_id} in a {len(self.servers)}-bucket file")
        return self.servers[bucket_id]

    def client(self, name: str = "client") -> "LHClient":
        """Create a new client with a fresh (minimal) image."""
        return LHClient(name, self)

    def owner(self, key: int) -> int:
        """The bucket that owns ``key`` under the true file state."""
        return self.addressing.client_address(
            key, self.state.level, self.state.pointer)

    def check_placement(self) -> None:
        """Assert every record lives in its LH*-correct bucket (tests)."""
        for server in self.servers:
            for key in server.bucket.keys():
                correct = self.owner(key)
                if correct != server.server_id:
                    raise SDDSError(
                        f"key {key} in bucket {server.server_id}, belongs in {correct}"
                    )

    # ------------------------------------------------------------------
    # Splitting (the SDDS growth primitive)
    # ------------------------------------------------------------------

    def maybe_split(self) -> int:
        """Split while the load factor exceeds the threshold.

        Linear hashing splits bucket ``n`` -- not necessarily the one
        that overflowed; returns the number of splits performed.
        """
        splits = 0
        while self.load_factor > self.split_load_factor:
            source = self.servers[self.state.pointer]
            target, moved = self.split()
            # "Each split sends about half of a bucket to a newly created
            # bucket" -- account the shipment as one bulk transfer.
            self.network.send(source.name, target.name,
                              messages.SPLIT_TRANSFER,
                              messages.HEADER_BYTES
                              + sum(record.size for record in moved))
            splits += 1
        return splits

    def split(self) -> tuple[SDDSServer, list[Record]]:
        """Split the bucket at the split pointer into a new bucket.

        Returns the new server and the records moved to it; callers
        account the transfer.
        """
        source = self.servers[self.state.pointer]
        new_level = source.bucket.level + 1
        new_id = self.state.pointer + (self.addressing.N << self.state.level)
        if new_id != len(self.servers):
            raise SDDSError("split bookkeeping out of step with server list")
        target = self._new_server(new_id)
        self.servers.append(target)
        source.bucket.level = new_level
        target.bucket.level = new_level
        moved = source.move_records(
            target, lambda key: self.addressing.h(new_level, key) == new_id)
        self.state.after_split(self.addressing)
        self.splits_performed += 1
        return target, moved


class LHClient(BaseSDDSClient):
    """An LH* client: image-based addressing, forwarding, and IAMs."""

    def __init__(self, name: str, file: LHFile):
        super().__init__(name, file.network, file.scheme)
        self.file = file
        self.image = ClientImage()
        self.iams_received = 0

    def _all_servers(self) -> list[SDDSServer]:
        return self.file.servers

    def _after_insert(self, server: SDDSServer) -> None:
        self.file.maybe_split()

    def _locate(self, key: int, kind: str, payload: int) -> tuple[SDDSServer, int]:
        """Send to the image-guessed server; follow LH* forwarding.

        Returns ``(correct_server, forwards)`` and applies the image
        adjustment when the guess was wrong.  The LH* theorem bounds
        forwards by 2 regardless of image staleness (asserted here --
        a violated bound is a bug, not a runtime condition).
        """
        addressing = self.file.addressing
        guess = addressing.client_address(key, self.image.level, self.image.pointer)
        guess = min(guess, len(self.file.servers) - 1)
        self.network.send(self.name, f"server{guess}", kind, payload)
        current = self.file.server(guess)
        first_wrong: SDDSServer | None = None
        forwards = 0
        while True:
            target = addressing.server_forward(
                key, current.server_id, current.bucket.level
            )
            if target is None:
                break
            if first_wrong is None:
                first_wrong = current
            current.stats.forwards += 1
            forwards += 1
            if forwards > 2:
                raise SDDSError("LH* forwarding exceeded the two-hop bound")
            self.network.send(current.name, f"server{target}", messages.FORWARD,
                              payload)
            current = self.file.server(target)
        if first_wrong is not None:
            # IAM: address and level of the first incorrectly addressed
            # server; the client image catches up.
            self.network.send(current.name, self.name, messages.IAM,
                              messages.ack_payload())
            self.iams_received += 1
            self.image = addressing.adjust_image(
                self.image, first_wrong.bucket.level, first_wrong.server_id
            )
        return current, forwards
