"""One seal codec: ``body || sig(body)`` for every sealed byte string.

Propositions 1 and 2 make an n-symbol algebraic signature an integrity
seal: any change of at most ``n`` symbols is detected with certainty,
anything else slips through with probability 2^-nf.  Wire frames, log
frames, checkpoints and flight-recorder dumps all end in the one format
defined here: the body's ``n`` signature components as little-endian
``symbol_bytes``-wide symbols (4 bytes for the paper's GF(2^16), n = 2),
equal to ``scheme.sign(body, strict=False).to_bytes()``.

Almost every seal covers one small body -- a wire message, one log
frame, a checkpoint -- so :func:`seal` (and :func:`opened` and a
one-body :func:`seals`) signs a body of fewer than
:data:`~repro.sig.engine.SMALL_RUN_SYMBOLS` symbols on a *lean lane*:
one symbol view of the body, one sentinel gather and one XOR reduction
(:func:`repro.gf.vectorized.body_components`, the Section 5.1 kernel
``scheme.sign`` runs), serialized by one ``astype``.  Multi-body
bursts, larger bodies and the recovery scan's :func:`seals_hold` sign
component rows of :meth:`~repro.sig.engine.BatchSigner.
concat_components`.  Both lanes charge the same ``sig.sign_calls`` /
``sig.bytes_signed`` counters and copy-ledger bytes, and no
:class:`~repro.sig.signature.Signature` is built for a seal.
"""

from __future__ import annotations

import numpy as np

from ..gf.vectorized import body_components, narrow_symbol_view
from .arena import LEDGER
from .engine import RAW_BYTES, SMALL_RUN_SYMBOLS, get_batch_signer
from .scheme import AlgebraicSignatureScheme


def _serialized(scheme: AlgebraicSignatureScheme,
                components: np.ndarray) -> np.ndarray:
    """Component rows as little-endian symbols, one seal per row."""
    return components.astype(f"<u{scheme.scheme_id.symbol_bytes}",
                             order="C")


def _engine_seals(scheme: AlgebraicSignatureScheme, bodies) -> list[bytes]:
    """One seal per body, from the batch engine's component rows."""
    flat = _serialized(scheme, get_batch_signer(scheme).concat_components(
        bodies, strict=False)).tobytes()
    width = scheme.signature_bytes
    return [flat[at:at + width] for at in range(0, len(flat), width)]


def seal(scheme: AlgebraicSignatureScheme, parts) -> bytes:
    """The seal of the concatenation of ``parts`` (byte strings or
    views, joined once; a lone aligned part is signed in place).

    A body under ``SMALL_RUN_SYMBOLS`` symbols takes the lean lane;
    a larger one is signed by the batch engine.
    """
    if not isinstance(parts, (list, tuple)):
        parts = tuple(parts)
    symbol_bytes = scheme.scheme_id.symbol_bytes
    size = 0
    for part in parts:
        size += len(part)
    if -(-size // symbol_bytes) >= SMALL_RUN_SYMBOLS:
        return _engine_seals(scheme, [parts])[0]
    if size % symbol_bytes:
        body = b"".join((*parts, b"\x00"))
        LEDGER.count(len(body))
    elif len(parts) == 1 and isinstance(parts[0], RAW_BYTES):
        body = parts[0]
    else:
        body = b"".join(parts)
        LEDGER.count(len(body))
    field = scheme.field
    symbols = scheme.map_symbols(narrow_symbol_view(body, field))
    components = body_components(field, symbols, scheme.ladders(symbols.size))
    scheme._count_signed(symbols.size, "small")
    return components.astype(f"<u{symbol_bytes}").tobytes()


def seals(scheme: AlgebraicSignatureScheme, bodies) -> list[bytes]:
    """One seal per body (each a sequence of parts); each equals
    ``seal(scheme, body)``.  A lone body is :func:`seal`; a burst is
    signed in one batched pass."""
    if not isinstance(bodies, (list, tuple)):
        bodies = list(bodies)
    if len(bodies) == 1:
        return [seal(scheme, bodies[0])]
    return _engine_seals(scheme, bodies)


def opened(scheme: AlgebraicSignatureScheme, data):
    """The body of a sealed ``data``, or ``None`` when the seal fails:
    ``bytes`` in, ``bytes`` out; ``memoryview`` in, ``memoryview`` out."""
    width = scheme.scheme_id.signature_bytes
    if len(data) < width:
        return None
    view = data if isinstance(data, memoryview) else memoryview(data)
    if seal(scheme, (view[:-width],)) != view[-width:]:
        return None
    return data[:-width]


def seals_hold(scheme: AlgebraicSignatureScheme, buffer,
               starts: np.ndarray, body_ends: np.ndarray) -> np.ndarray:
    """Per frame ``buffer[start:body_end] || seal``: does the stored
    seal after ``body_end`` equal the body's seal?

    The recovery scan's check -- every body signed in its own matrix
    row, all seals compared in one array comparison -- so a frame's
    verdict does not depend on which batch checked it.
    """
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    components = get_batch_signer(scheme).concat_components(
        [(view[start:end],)
         for start, end in zip(starts.tolist(), body_ends.tolist())],
        strict=False)
    expected = _serialized(scheme, components).view(np.uint8)
    stored = np.frombuffer(buffer, dtype=np.uint8)[
        body_ends[:, None] + np.arange(scheme.signature_bytes)]
    return (stored == expected).all(axis=1)
