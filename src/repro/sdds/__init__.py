"""SDDS substrate: LH* / RP* files over a simulated multicomputer.

The Scalable Distributed Data Structure layer the paper deploys its
signatures in (Section 2): RAM buckets with a B-tree index on server
nodes, clients with lazily-corrected addressing images, splits as the
growth primitive, and the signature-based update and scan protocols.
"""

from .record import KEY_BYTES, Record
from .btree import BTree
from .heap import RecordHeap
from .image import IMAGE_TAG, deserialize_bucket, serialize_bucket
from .bucket import Bucket
from .lh import ClientImage, FileState, LHAddressing
from .server import SDDSServer, ServerStats, UpdateOutcome
from .client import (
    BaseSDDSClient,
    OperationResult,
    OperationStatus,
    UpdateStatus,
)
from .file import LHClient, LHFile
from .rp import KEY_SPACE, RPClient, RPFile, RPServer
from .cache import CachedClient, CacheStats

__all__ = [
    "Record",
    "KEY_BYTES",
    "BTree",
    "RecordHeap",
    "Bucket",
    "IMAGE_TAG",
    "serialize_bucket",
    "deserialize_bucket",
    "LHAddressing",
    "ClientImage",
    "FileState",
    "SDDSServer",
    "ServerStats",
    "UpdateOutcome",
    "BaseSDDSClient",
    "OperationResult",
    "OperationStatus",
    "UpdateStatus",
    "LHFile",
    "LHClient",
    "RPFile",
    "RPClient",
    "RPServer",
    "KEY_SPACE",
    "CachedClient",
    "CacheStats",
]
