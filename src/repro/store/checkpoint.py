"""Sealed checkpoints: persisted warm signature state for fast recovery.

A checkpoint snapshots, for every volume, the byte length, the warm
:class:`~repro.sig.compound.SignatureMap` and the warm
:class:`~repro.sig.tree.SignatureTree` -- plus the absolute log
position and next frame sequence number.  Recovery then only *folds*
the log tail written after the checkpoint through the Proposition-3
incremental plane, instead of re-signing every volume from scratch;
the persisted tree is what localizes mid-prefix corruption to single
pages (Proposition 5) during the scrub.

Layout (little-endian throughout)::

    magic "ASCK" | version(1)
    | scheme_len(2) | scheme_id            (self-describing identity)
    | position(8) | next_seq(8)
    | volume_count(2)
    | per volume:
    |   name_len(2) | name | page_bytes(4) | image_len(8)
    |   map_len(4) | signature map
    |   fanout(2) | level_count(2)
    |   per level: node_count(4); per node: signature | symbols(8)
    | seal                 (:mod:`repro.sig.seal` of all the above)

The file is written atomically (temp file + rename) and verified on
load: wrong magic, a foreign scheme identity, any truncation, or a
failing seal makes :func:`load` return ``None`` -- recovery then falls
back to a cold replay of the whole log.  A checkpoint whose position
lies beyond the certified log prefix (the tail it described was torn
off) is likewise rejected by the recovery logic.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..obs import get_registry
from ..sig.compound import SignatureMap, wire_dtype
from ..sig.scheme import AlgebraicSignatureScheme
from ..sig.seal import opened, seal
from ..sig.tree import SignatureTree

MAGIC = b"ASCK"
VERSION = 1
FILENAME = "checkpoint.ckpt"
#: What a checkpoint write that died leaves behind; never loaded.
TEMPORARY = FILENAME + ".tmp"

_POSITIONS = struct.Struct("<QQ")


@dataclass(frozen=True, slots=True)
class VolumeCheckpoint:
    """One volume's persisted warm state."""

    page_bytes: int
    image_len: int
    map: SignatureMap
    tree: SignatureTree


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """A full persisted warm-state snapshot."""

    position: int                #: absolute log bytes covered
    next_seq: int                #: next frame sequence number
    volumes: dict[str, VolumeCheckpoint]


def _node_dtype(scheme: AlgebraicSignatureScheme) -> np.dtype:
    """One packed tree node: ``n`` wire symbols, then an 8-byte length."""
    scheme_id = scheme.scheme_id
    return np.dtype([("signature", wire_dtype(scheme_id), (scheme_id.n,)),
                     ("symbols", "<u8")])


def _encode_tree(tree: SignatureTree) -> bytes:
    parts = [tree.fanout.to_bytes(2, "little"),
             tree.height.to_bytes(2, "little")]
    node = _node_dtype(tree.scheme)
    for components, lengths in zip(tree.components, tree.lengths):
        nodes = np.empty(components.shape[0], dtype=node)
        nodes["signature"] = components
        nodes["symbols"] = lengths
        parts.append(components.shape[0].to_bytes(4, "little"))
        parts.append(nodes.tobytes())
    return b"".join(parts)


class _Reader:
    """Cursor over the checkpoint body; any overrun raises ValueError."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise ValueError("truncated checkpoint")
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def integer(self, width: int) -> int:
        return int.from_bytes(self.take(width), "little")


def _decode_tree(reader: _Reader,
                 scheme: AlgebraicSignatureScheme) -> SignatureTree:
    node = _node_dtype(scheme)
    fanout = reader.integer(2)
    level_count = reader.integer(2)
    if fanout < 2 or not 1 <= level_count <= 64:
        raise ValueError("implausible checkpoint tree shape")
    components, lengths = [], []
    for _ in range(level_count):
        node_count = reader.integer(4)
        nodes = np.frombuffer(reader.take(node_count * node.itemsize),
                              dtype=node)
        components.append(nodes["signature"].astype(np.int64))
        lengths.append(nodes["symbols"].astype(np.int64))
    return SignatureTree(scheme, fanout, components, lengths)


def encode(scheme: AlgebraicSignatureScheme, checkpoint: Checkpoint) -> bytes:
    """Serialize and seal one checkpoint."""
    scheme_id = scheme.scheme_id.to_bytes()
    parts = [MAGIC, bytes([VERSION]),
             len(scheme_id).to_bytes(2, "little"), scheme_id,
             _POSITIONS.pack(checkpoint.position, checkpoint.next_seq),
             len(checkpoint.volumes).to_bytes(2, "little")]
    for name in sorted(checkpoint.volumes):
        state = checkpoint.volumes[name]
        encoded_name = name.encode()
        map_bytes = state.map.to_bytes()
        parts += [len(encoded_name).to_bytes(2, "little"), encoded_name,
                  state.page_bytes.to_bytes(4, "little"),
                  state.image_len.to_bytes(8, "little"),
                  len(map_bytes).to_bytes(4, "little"), map_bytes,
                  _encode_tree(state.tree)]
    body = b"".join(parts)
    return body + seal(scheme, [body])


def decode(data: bytes,
           scheme: AlgebraicSignatureScheme) -> Checkpoint | None:
    """Verify and deserialize; ``None`` on any damage or mismatch."""
    body = opened(scheme, data)
    if body is None:
        return None
    try:
        reader = _Reader(body)
        if reader.take(4) != MAGIC or reader.integer(1) != VERSION:
            return None
        scheme_id = reader.take(reader.integer(2))
        if scheme_id != scheme.scheme_id.to_bytes():
            return None
        position = reader.integer(8)
        next_seq = reader.integer(8)
        volumes: dict[str, VolumeCheckpoint] = {}
        for _ in range(reader.integer(2)):
            name = reader.take(reader.integer(2)).decode()
            page_bytes = reader.integer(4)
            image_len = reader.integer(8)
            signature_map = SignatureMap.from_bytes(
                reader.take(reader.integer(4)), scheme
            )
            tree = _decode_tree(reader, scheme)
            volumes[name] = VolumeCheckpoint(page_bytes, image_len,
                                             signature_map, tree)
        if reader.offset != len(body):
            return None
    except Exception:
        # A verified seal makes damage here practically impossible, but
        # a foreign file must degrade to "no checkpoint", never crash.
        return None
    return Checkpoint(position, next_seq, volumes)


def save(directory: str | Path, scheme: AlgebraicSignatureScheme,
         checkpoint: Checkpoint) -> Path:
    """Atomically write the checkpoint file; returns its path."""
    directory = Path(directory)
    path = directory / FILENAME
    temporary = directory / TEMPORARY
    temporary.write_bytes(encode(scheme, checkpoint))
    os.replace(temporary, path)
    get_registry().counter("store.checkpoints").inc()
    return path


def load(directory: str | Path,
         scheme: AlgebraicSignatureScheme) -> Checkpoint | None:
    """Load and verify the checkpoint; ``None`` when absent or invalid."""
    path = Path(directory) / FILENAME
    if not path.is_file():
        return None
    checkpoint = decode(path.read_bytes(), scheme)
    if checkpoint is None:
        get_registry().counter("store.checkpoints_rejected").inc()
    return checkpoint
