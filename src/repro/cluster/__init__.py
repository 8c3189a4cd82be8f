"""Fault-injecting cluster runtime: the SDDS under real adversity.

The rest of the reproduction runs on a perfectly reliable, synchronous
network, so the paper's detection machinery never fires in anger.  This
package supplies the adversity: a deterministic event loop over the
simulated clock, an unreliable network injecting seeded drops,
duplicates, reorderings, delay jitter, byte corruption, and healing
partitions, retry/timeout policies on the client paths, and a node
lifecycle where crashes trigger LH*RS parity reconstruction and
signature-tree anti-entropy -- the algebraic signatures catching every
corrupted transfer and localizing every diverged page, exactly the role
the paper assigns them.
"""

from .events import EventError, EventLoop, Timer
from .faults import Crash, FaultPlan, LinkFaults, Partition
from .network import FaultyNetwork
from .node import ClusterNode, NodeState
from .retry import OpBudget, RetryExhaustedError, RetryPolicy
from .runtime import Cluster, ClusterClient, ClusterError, ClusterResult

__all__ = [
    "EventLoop",
    "EventError",
    "Timer",
    "LinkFaults",
    "Partition",
    "Crash",
    "FaultPlan",
    "FaultyNetwork",
    "RetryPolicy",
    "OpBudget",
    "RetryExhaustedError",
    "ClusterNode",
    "NodeState",
    "Cluster",
    "ClusterClient",
    "ClusterError",
    "ClusterResult",
]
