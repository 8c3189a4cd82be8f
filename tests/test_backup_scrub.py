"""Tests for verified restore and disk scrubbing (silent corruption)."""

import numpy as np
import pytest

from repro.backup import BackupEngine
from repro.errors import BackupError
from repro.sig import make_scheme
from repro.sim import SimDisk


def engine_with_volume(nbytes=8192, seed=0, page_bytes=512):
    engine = BackupEngine(make_scheme(f=16, n=2), SimDisk(),
                          page_bytes=page_bytes)
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    engine.backup("vol", image)
    return engine, image


class TestScrub:
    def test_clean_volume(self):
        engine, _image = engine_with_volume()
        assert engine.scrub("vol") == []

    def test_single_bit_rot_detected(self):
        """A one-bit flip is a 1-symbol change: certain detection."""
        engine, _image = engine_with_volume()
        engine.disk.corrupt_page("vol", 7, position=100, xor=0x01)
        assert engine.scrub("vol") == [7]

    def test_multiple_pages_rotted(self):
        engine, _image = engine_with_volume()
        for page in (1, 5, 11):
            engine.disk.corrupt_page("vol", page, position=3)
        assert engine.scrub("vol") == [1, 5, 11]

    def test_every_corruption_position_detected(self):
        """Exhaustive over positions within one page: a 1-byte rot is a
        <= 1-symbol change, so Proposition 1 guarantees detection at
        EVERY position -- no lucky byte."""
        engine, _image = engine_with_volume(nbytes=512, page_bytes=512)
        for position in range(0, 512, 7):
            engine.disk.corrupt_page("vol", 0, position=position, xor=0x5A)
            assert engine.scrub("vol") == [0], position
            engine.disk.corrupt_page("vol", 0, position=position, xor=0x5A)  # undo

    def test_unknown_volume(self):
        engine, _image = engine_with_volume()
        with pytest.raises(BackupError):
            engine.scrub("nope")


class TestVerifiedRestore:
    def test_clean_restore_passes(self):
        engine, image = engine_with_volume()
        assert engine.restore("vol", verify=True)[:len(image)] == image

    def test_corrupted_restore_raises(self):
        engine, _image = engine_with_volume()
        engine.disk.corrupt_page("vol", 2, position=9)
        with pytest.raises(BackupError, match="pages \\[2\\]"):
            engine.restore("vol", verify=True)

    def test_unverified_restore_returns_bad_data(self):
        """The contrast: without verify the rot flows through silently."""
        engine, image = engine_with_volume()
        engine.disk.corrupt_page("vol", 2, position=9)
        restored = engine.restore("vol")
        assert restored[:len(image)] != image

    def test_rewrite_heals(self):
        """A fresh backup pass rewrites the rotted page (its signature
        no longer matches the recomputed map entry is irrelevant -- the
        pass compares RAM to the map, so we heal by re-running backup
        after scrub flags the page)."""
        engine, image = engine_with_volume()
        engine.disk.corrupt_page("vol", 4, position=50)
        assert engine.scrub("vol") == [4]
        # Operator action: force a rewrite of the flagged page by
        # invalidating its map entry and re-running the backup.
        engine.signature_map("vol")[4] = engine.scheme.zero
        report = engine.backup("vol", image)
        assert report.pages_written >= 1
        assert engine.scrub("vol") == []
        assert engine.restore("vol", verify=True)[:len(image)] == image
