"""Tests for stream signing and the distributed multi-scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError
from repro.sdds import LHFile, Record
from repro.sig import (
    IncrementalSignatureMap,
    StreamSigner,
    WriteJournal,
    get_batch_signer,
    make_scheme,
)


class TestStreamSigner:
    @given(st.lists(st.binary(max_size=60), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_equals_from_scratch_signature(self, chunks):
        scheme = make_scheme(f=8, n=2)
        signer = StreamSigner(scheme)
        total = b""
        for chunk in chunks:
            signer.append(chunk)
            total += chunk
            assert signer.signature == scheme.sign(total, strict=False)
        assert signer.symbols == len(total)

    def test_empty_stream(self):
        scheme = make_scheme(f=16, n=2)
        assert StreamSigner(scheme).signature == scheme.zero

    def test_append_cost_is_chunk_local(self):
        """Appending to a long stream does not reread the prefix: the
        time for a small append is independent of stream length."""
        import time

        scheme = make_scheme(f=16, n=2)
        signer = StreamSigner(scheme)
        signer.append(bytes(1 << 20))  # 1 MB prefix
        start = time.perf_counter()
        for _ in range(100):
            signer.append(b"0123456789" * 2)
        per_append = (time.perf_counter() - start) / 100
        assert per_append < 2e-3  # milliseconds, not the 1 MB rescan

    def test_grows_past_page_bound(self):
        scheme = make_scheme(f=8, n=2)
        signer = StreamSigner(scheme)
        total = b""
        rng = np.random.default_rng(1)
        for _ in range(6):
            chunk = bytes(rng.integers(0, 256, 100, dtype=np.uint8))
            signer.append(chunk)
            total += chunk
        assert len(total) > scheme.max_page_symbols
        assert signer.signature == scheme.sign(total, strict=False)


class TestUpdateLog:
    """The Section 4.1 update log, kept as a WriteJournal folded into a
    warm signature map and checked against a rescan of the block."""

    PAGE_SYMBOLS = 16

    def make_logged_block(self, seed=0, size=256):
        rng = np.random.default_rng(seed)
        block = bytearray(rng.integers(0, 256, size, dtype=np.uint8))
        inc = IncrementalSignatureMap.from_data(
            make_scheme(f=16, n=2), bytes(block), self.PAGE_SYMBOLS
        )
        return rng, block, inc

    def apply_and_log(self, block, journal, rng, count=10, region=8):
        for _ in range(count):
            offset = int(rng.integers(0, (len(block) - region) // 2)) * 2
            new = bytes(rng.integers(0, 256, region, dtype=np.uint8))
            journal.record(offset, bytes(block[offset:offset + region]), new)
            block[offset:offset + region] = new

    def matches_rescan(self, inc, block):
        rescan = get_batch_signer(inc.scheme).sign_map(
            bytes(block), self.PAGE_SYMBOLS
        )
        return inc.map.signatures == rescan.signatures

    def test_truncate_reanchors(self):
        """Folding and clearing the journal re-anchors the map; later
        writes fold against the new anchor."""
        rng, block, inc = self.make_logged_block(seed=5)
        self.apply_and_log(block, inc.journal, rng, count=12)
        report = inc.apply_journal(inc.journal)
        assert not inc.journal and report.bytes_folded == 12 * 8
        assert self.matches_rescan(inc, block)
        self.apply_and_log(block, inc.journal, rng, count=4)
        inc.apply_journal(inc.journal)
        assert self.matches_rescan(inc, block)

    def test_truncate_everything(self):
        """Once the whole journal is folded, the empty journal holds
        nothing and folding it again leaves the map as it is."""
        rng, block, inc = self.make_logged_block(seed=7)
        self.apply_and_log(block, inc.journal, rng)
        inc.apply_journal(inc.journal)
        assert inc.journal.entries == [] and inc.journal.byte_count == 0
        anchored = list(inc.map.signatures)
        report = inc.apply_journal(inc.journal)
        assert report.bytes_folded == 0
        assert list(inc.map.signatures) == anchored
        assert self.matches_rescan(inc, block)

    def test_region_length_mismatch_rejected(self):
        journal = WriteJournal(symbol_bytes=2)
        with pytest.raises(SignatureError):
            journal.record(0, b"ab", b"abc")
        assert not journal

    def test_negative_position_rejected(self):
        journal = WriteJournal(symbol_bytes=2)
        with pytest.raises(SignatureError):
            journal.record(-2, b"ab", b"cd")
        assert not journal


class TestDistributedMultiScan:
    def build(self):
        scheme = make_scheme(f=16, n=2)
        file = LHFile(scheme, capacity_records=40)
        client = file.client()
        for key in range(120):
            client.insert(Record(key, b"base%04d" % key + b"." * 40))
        return file, client

    def test_finds_each_pattern(self):
        file, client = self.build()
        client.update_blind(3, b"xxALPHAxxx" + b"." * 38)
        client.update_blind(77, b"yyBETABETA" + b"." * 38)
        results = client.scan_many([b"ALPHA?"[:5] + b"x", b"BETABETA"])
        # note: GF(2^16) patterns must be even length; b"ALPHAx" is 6.
        assert [r.key for r in results[b"ALPHAx"]] == [3]
        assert [r.key for r in results[b"BETABETA"]] == [77]

    def test_one_request_per_server_for_many_patterns(self):
        file, client = self.build()
        from repro.sdds.messages import SCAN_REQUEST

        before = file.network.stats.by_kind.get(SCAN_REQUEST, 0)
        client.scan_many([b"ABAB", b"CDCD", b"EFEF", b"GHGHGH"])
        requests = file.network.stats.by_kind[SCAN_REQUEST] - before
        assert requests == file.bucket_count  # not patterns x servers

    def test_matches_individual_scans(self):
        file, client = self.build()
        client.update_blind(10, b"zzNEEDLE.." + b"." * 38)
        patterns = [b"NEEDLE", b"base"]
        many = client.scan_many(patterns)
        for pattern in patterns:
            single = client.scan(pattern)
            assert many[pattern] == single.records

    def test_empty_pattern_list_rejected(self):
        from repro.errors import SDDSError

        file, client = self.build()
        with pytest.raises(SDDSError):
            client.scan_many([])
