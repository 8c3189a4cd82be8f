"""Algebraic signatures: the paper's core contribution (Section 4).

Quick start::

    from repro.sig import make_scheme
    scheme = make_scheme()            # GF(2^16), n=2 -- the paper's choice
    sig = scheme.sign(b"some record payload")
    assert scheme.sign(b"same bytes") != sig or True

Sub-modules:

* :mod:`scheme`   -- the n-symbol schemes sig and sig' with scalar and
  vectorized signing paths.
* :mod:`signature` -- the value object and serialization (4 B for the
  paper's configuration).
* :mod:`algebra`  -- Proposition 3 (delta updates) and Proposition 5
  (concatenation) as callable operations.
* :mod:`compound` -- per-page signature maps (Sections 2.1, 4.2).
* :mod:`tree`     -- signature trees for change localization (Fig. 3).
* :mod:`rolling`  -- sliding-window signatures and Las Vegas search.
* :mod:`twisted`  -- Proposition 6 bijection-twisted schemes and the
  log-interpretation speed variant (Section 5.1).
* :mod:`engine`   -- the batched many-page signer (2-D kernels, shared
  β-power ladder cache).
* :mod:`incremental` -- write journals and the O(|delta|) in-place
  signature-map maintenance plane (Proposition 3, batched).
* :mod:`arena`    -- the copies-per-byte accounting ledger of the
  zero-copy signing lanes.
* :mod:`locate`   -- corruption localization: d-cover-free group-testing
  designs whose O(d^2 log^2 N) Proposition-5 compound signatures certify
  *which* <= d pages are damaged.
"""

from .arena import LEDGER, CopyLedger

from .base import PRIMITIVE, STANDARD, make_base
from .scheme import AlgebraicSignatureScheme, make_scheme
from .signature import SchemeId, Signature
from .algebra import apply_update, concat, concat_all, delta_signature, shift
from .compound import SignatureMap, slice_pages
from .tree import SignatureTree, TreeNode
from .rolling import RollingWindow, find_signature_matches, search
from .twisted import TwistedScheme, log_interpretation_scheme, sign_log_interpreted_fast
from .engine import BatchSigner, get_batch_signer
from .incremental import (
    IncrementalSignatureMap,
    JournalEntry,
    WriteJournal,
    aligned_span,
)
from .locate import (
    CLEAN,
    DEFAULT_D,
    LOCATED,
    OVERFLOW,
    LocateDesign,
    LocatorMap,
    decode,
)
from .multisearch import MultiPatternSearcher
from .stream import StreamSigner

__all__ = [
    "AlgebraicSignatureScheme",
    "make_scheme",
    "Signature",
    "SchemeId",
    "make_base",
    "STANDARD",
    "PRIMITIVE",
    "apply_update",
    "concat",
    "concat_all",
    "delta_signature",
    "shift",
    "SignatureMap",
    "slice_pages",
    "SignatureTree",
    "TreeNode",
    "RollingWindow",
    "find_signature_matches",
    "search",
    "TwistedScheme",
    "log_interpretation_scheme",
    "sign_log_interpreted_fast",
    "BatchSigner",
    "get_batch_signer",
    "CopyLedger",
    "LEDGER",
    "IncrementalSignatureMap",
    "JournalEntry",
    "WriteJournal",
    "aligned_span",
    "CLEAN",
    "DEFAULT_D",
    "LOCATED",
    "OVERFLOW",
    "LocateDesign",
    "LocatorMap",
    "decode",
    "MultiPatternSearcher",
    "StreamSigner",
]
