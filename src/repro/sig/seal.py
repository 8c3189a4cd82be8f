"""One seal codec: ``body || sig(body)`` for every sealed byte string.

Propositions 1 and 2 make an n-symbol algebraic signature an integrity
seal: any change of at most ``n`` symbols is detected with certainty,
anything else slips through with probability 2^-nf.  Wire frames, log
frames, checkpoints and flight-recorder dumps all end in the one format
defined here: the body's ``n`` signature components as little-endian
``symbol_bytes``-wide symbols (4 bytes for the paper's GF(2^16), n = 2),
equal to ``scheme.sign(body, strict=False).to_bytes()``.  A seal is a
component row of :meth:`~repro.sig.engine.BatchSigner.concat_components`
serialized by one ``astype``; no :class:`~repro.sig.signature.Signature`
is built for a seal.
"""

from __future__ import annotations

import numpy as np

from .engine import get_batch_signer
from .scheme import AlgebraicSignatureScheme


def _serialized(scheme: AlgebraicSignatureScheme,
                components: np.ndarray) -> np.ndarray:
    """Component rows as little-endian symbols, one seal per row."""
    return components.astype(f"<u{scheme.scheme_id.symbol_bytes}",
                             order="C")


def seal(scheme: AlgebraicSignatureScheme, parts) -> bytes:
    """The seal of the concatenation of ``parts`` (byte strings or
    views, joined lazily; a lone aligned part is signed in place)."""
    return seals(scheme, [parts])[0]


def seals(scheme: AlgebraicSignatureScheme, bodies) -> list[bytes]:
    """One seal per body (each a sequence of parts), in one batched
    signing pass; each equals ``seal(scheme, body)``."""
    flat = _serialized(scheme, get_batch_signer(scheme).concat_components(
        bodies, strict=False)).tobytes()
    width = scheme.signature_bytes
    return [flat[at:at + width] for at in range(0, len(flat), width)]


def opened(scheme: AlgebraicSignatureScheme, data):
    """The body of a sealed ``data``, or ``None`` when the seal fails:
    ``bytes`` in, ``bytes`` out; ``memoryview`` in, ``memoryview`` out."""
    width = scheme.signature_bytes
    if len(data) < width:
        return None
    view = data if isinstance(data, memoryview) else memoryview(data)
    if seal(scheme, [view[:-width]]) != view[-width:]:
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
