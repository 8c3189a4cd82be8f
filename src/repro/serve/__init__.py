"""High-concurrency serving plane: the SDDS under open-loop load.

The cluster runtime (:mod:`repro.cluster`) proves correctness under
faults with a handful of blocking clients; this package supplies the
paper's *scalability* regime: thousands of concurrent non-blocking
sessions over LH*/RP* buckets that split under live traffic, with
per-node admission control (queue-depth + deadline shedding via
explicit ``SHED`` replies), same-key read coalescing, retry budgets
that cannot amplify overload, and an open-loop load generator
reporting p50/p99/p999 latency and goodput versus offered load.
Every run is deterministic: same seed, byte-identical report.
"""

from .service import RequestService, ServeRequest, ServiceError, ServicePolicy
from .ops import MUTATING_EFFECTS, apply_operation
from .session import Session
from .plane import BucketNode, PlaneSession, ServeError, ServingPlane, key_for
from .loadgen import LoadGenerator, LoadMix

__all__ = [
    "RequestService",
    "ServeRequest",
    "ServicePolicy",
    "ServiceError",
    "apply_operation",
    "MUTATING_EFFECTS",
    "ServingPlane",
    "BucketNode",
    "Session",
    "PlaneSession",
    "ServeError",
    "key_for",
    "LoadGenerator",
    "LoadMix",
]
