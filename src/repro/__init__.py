"""repro: Algebraic Signatures for Scalable Distributed Data Structures.

A complete reproduction of Litwin & Schwarz, ICDE 2004: n-symbol
algebraic signatures over GF(2^f) with guaranteed detection of small
changes, plus the SDDS applications the paper builds on them -- bucket
backup via signature maps, lock-free optimistic record updates with
pseudo-update filtering, and Las Vegas distributed string search.

Quick start::

    from repro import make_scheme
    scheme = make_scheme()                 # GF(2^16), n=2 -- 4-byte signatures
    sig = scheme.sign(b"a record payload")

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.gf`        -- Galois-field substrate (tables, linalg, numpy kernels)
* :mod:`repro.sig`       -- the signature schemes and their algebra (Sec. 4)
* :mod:`repro.sdds`      -- LH* / RP* files, client/server protocols (Sec. 2)
* :mod:`repro.backup`    -- signature-map bucket backup (Sec. 2.1)
* :mod:`repro.updates`   -- concurrency managers and baselines (Sec. 2.2)
* :mod:`repro.search`    -- string-search harness (Sec. 2.3, 5.2)
* :mod:`repro.parity`    -- LH*RS Reed-Solomon + signature consistency (Sec. 6.2)
* :mod:`repro.baselines` -- from-scratch SHA-1 / MD5 / CRC / Karp-Rabin
* :mod:`repro.sim`       -- simulated clock / network / disk substrate
* :mod:`repro.sync`      -- replica reconciliation with signature-only traffic
* :mod:`repro.cluster`   -- fault-injecting cluster runtime, self-healing by signature
* :mod:`repro.store`     -- durable sealed page store with certified crash recovery
* :mod:`repro.workloads` -- page, update-pattern, and record generators
* :mod:`repro.analysis`  -- collision experiments and report tables
* :mod:`repro.obs`       -- metrics registry, span tracing, run reports
"""

from .errors import ReproError
from .gf import GF, GField, GFElement
from .sig import (
    AlgebraicSignatureScheme,
    Signature,
    SignatureMap,
    SignatureTree,
    make_scheme,
)
from .sdds import LHFile, OperationStatus, Record, RPFile, UpdateStatus
from .backup import BackupEngine
from .parity import ReliabilityGroup
from .obs import MetricsRegistry, RunReport, get_registry

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GF",
    "GField",
    "GFElement",
    "AlgebraicSignatureScheme",
    "make_scheme",
    "Signature",
    "SignatureMap",
    "SignatureTree",
    "LHFile",
    "RPFile",
    "Record",
    "UpdateStatus",
    "OperationStatus",
    "BackupEngine",
    "ReliabilityGroup",
    "MetricsRegistry",
    "RunReport",
    "get_registry",
    "__version__",
]
