"""Shared bucket-operation dispatch for cluster nodes and serve nodes.

:func:`apply_operation` is the single source of truth for what an
insert/search/update/delete does to an :class:`~repro.sdds.server.
SDDSServer` bucket -- including the paper's pseudo-update filter
(Section 2.2): an update whose value has the stored one's length and
signature changes nothing, writes nothing, ships nothing.  The cluster
node keeps its side effects (parity deltas, mirror shipping, counters)
layered on top of the returned *effect*, and the serving plane's bucket
nodes reuse the same dispatch without any of that machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sdds.record import Record

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..sdds.server import SDDSServer
    from ..sig.scheme import AlgebraicSignatureScheme

#: apply_operation effects: what actually happened to the bucket.
EFFECT_NONE = "none"        # read, miss, or duplicate -- bucket unchanged
EFFECT_PSEUDO = "pseudo"    # update filtered by signature equality
EFFECT_INSERT = "insert"
EFFECT_UPDATE = "update"
EFFECT_DELETE = "delete"

#: Effects that mutated the bucket (image refresh / parity required).
MUTATING_EFFECTS = frozenset({EFFECT_INSERT, EFFECT_UPDATE, EFFECT_DELETE})


def apply_operation(server: "SDDSServer", scheme: "AlgebraicSignatureScheme",
                    op: int, key: int,
                    value: bytes) -> tuple[int, bytes, str]:
    """Apply one wire operation to a bucket.

    Returns ``(status, reply_value, effect)`` where ``status`` is a
    ``wire.ST_*`` code, ``reply_value`` rides back to the client, and
    ``effect`` tells the caller whether (and how) the bucket changed.
    """
    if op == wire.OP_SEARCH:
        record = server.search(key)
        if record is None:
            return wire.ST_MISSING, b"", EFFECT_NONE
        return wire.ST_FOUND, record.value, EFFECT_NONE
    if op == wire.OP_INSERT:
        if not server.insert(Record(key, value)):
            return wire.ST_DUPLICATE, b"", EFFECT_NONE
        return wire.ST_INSERTED, b"", EFFECT_INSERT
    if op == wire.OP_UPDATE:
        current = server.search(key)
        if current is None:
            return wire.ST_MISSING, b"", EFFECT_NONE
        # Pseudo-update filtering at the server (Section 2.2's
        # economics): identical signatures mean nothing to write,
        # no parity delta, no mirror traffic.  Signatures ignore
        # trailing zero symbols, so the lengths must match too.  The
        # current signature is the stored one, so only the new value
        # is signed, and that signature is stored with it.
        signature = scheme.sign(value, strict=False)
        if len(current.value) == len(value) and \
                server.record_signature(key) == signature:
            return wire.ST_APPLIED, b"", EFFECT_PSEUDO
        server.update(key, value, signature)
        return wire.ST_APPLIED, b"", EFFECT_UPDATE
    if op == wire.OP_DELETE:
        if server.delete(key) is None:
            return wire.ST_MISSING, b"", EFFECT_NONE
        return wire.ST_DELETED, b"", EFFECT_DELETE
    raise wire.WireError(f"unroutable operation {op}")


# Imported last, deliberately: ``cluster.node`` imports this module's
# effect constants at its own bottom, which runs while this module is
# still executing when ``repro.serve`` is imported first -- everything
# above this line must therefore already be defined.  ``wire`` is only
# dereferenced inside :func:`apply_operation`, at call time.
from ..cluster import wire  # noqa: E402
