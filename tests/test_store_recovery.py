"""Parallel certified recovery: sharded scan, group commit, env knobs.

The load-bearing properties of PR 9:

* the segment-sharded certification scan is **byte-identical** to the
  sequential one for any worker count -- Proposition 1's per-frame
  seal checks are independent of batch composition, and the global
  seq-monotonicity fold only needs the running max, so per-segment
  partitions stitch into exactly the sequential verdict (including
  torn tails and corrupt regions straddling a segment boundary);
* ``flush="group"`` coalesces frames into one write + one flush per
  group without changing a single byte of the encoded log -- frame
  encoding, offsets, and scans are identical across flush modes;
* the worker knobs resolve ``REPRO_RECOVERY_WORKERS`` first, then
  fall back to ``REPRO_SIGN_WORKERS``, then CPU count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError, StoreError
from repro.gf import GF
from repro.obs import MetricsRegistry, use_registry
from repro.sig import SignatureMap, make_scheme
from repro.sig.twisted import log_interpretation_scheme
from repro.store import (
    KIND_PAGE,
    MIN_PARALLEL_BYTES,
    Frame,
    PageStore,
    SegmentedLog,
    effective_workers,
    resolve_recovery_workers,
)
from repro.store import frames as fr

SCHEME = make_scheme()
SEGMENT = 4096                   # small segments force multi-segment logs


def _page_frame(seq: int, fill: int = 0, size: int = 512) -> Frame:
    return Frame(KIND_PAGE, seq, "vol",
                 fr.encode_page(seq, size, bytes([fill % 251]) * size))


def _multi_segment_log(tmp_path, frames: int = 24, **kwargs) -> SegmentedLog:
    log = SegmentedLog(tmp_path, SCHEME, segment_bytes=SEGMENT, **kwargs)
    log.append_many([_page_frame(seq, seq) for seq in range(frames)])
    assert log.segment_count > 2
    return log


def _fingerprint(result) -> tuple:
    """Every observable coordinate of a scan's partition."""
    return (
        tuple((f.start, f.end, f.frame.kind, f.frame.seq, f.frame.volume,
               bytes(f.frame.payload)) for f in result.frames),
        tuple((r.start, r.end, r.reason) for r in result.corrupt),
        result.torn_start, result.total_bytes,
    )


def assert_parallel_equals_sequential(log, trusted_bytes: int = 0) -> tuple:
    """Scans with 1, 2 and 3 workers must agree coordinate for coordinate."""
    reference = _fingerprint(log.scan(trusted_bytes=trusted_bytes,
                                      verify_workers=1))
    for workers in (2, 3):
        assert _fingerprint(log.scan(trusted_bytes=trusted_bytes,
                                     verify_workers=workers)) == reference
    return reference


# ----------------------------------------------------------------------
# Worker resolution
# ----------------------------------------------------------------------

class TestResolveRecoveryWorkers:
    def test_explicit_request_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECOVERY_WORKERS", "7")
        assert resolve_recovery_workers(3) == 3

    def test_recovery_env_beats_sign_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECOVERY_WORKERS", "5")
        monkeypatch.setenv("REPRO_SIGN_WORKERS", "2")
        assert resolve_recovery_workers() == 5

    def test_falls_back_to_sign_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RECOVERY_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_SIGN_WORKERS", "6")
        assert resolve_recovery_workers() == 6

    def test_invalid_value_names_the_offending_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECOVERY_WORKERS", "many")
        with pytest.raises(SignatureError, match="REPRO_RECOVERY_WORKERS"):
            resolve_recovery_workers()
        monkeypatch.setenv("REPRO_RECOVERY_WORKERS", "0")
        with pytest.raises(SignatureError, match="REPRO_RECOVERY_WORKERS"):
            resolve_recovery_workers()

    def test_default_is_cpu_count(self, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_RECOVERY_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_SIGN_WORKERS", raising=False)
        assert resolve_recovery_workers() == (os.cpu_count() or 1)

    def test_effective_workers_gates_and_clamps(self, monkeypatch):
        monkeypatch.delenv("REPRO_RECOVERY_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_SIGN_WORKERS", "8")
        # Explicit request: honoured, clamped to one shard per segment.
        assert effective_workers(4, 10 * MIN_PARALLEL_BYTES, 2) == 2
        assert effective_workers(4, 0, 16) == 4
        # Auto mode: tiny logs and single segments stay in-process.
        assert effective_workers(None, MIN_PARALLEL_BYTES - 1, 16) == 1
        assert effective_workers(None, MIN_PARALLEL_BYTES, 1) == 1
        assert effective_workers(None, MIN_PARALLEL_BYTES, 16) == 8


# ----------------------------------------------------------------------
# Parallel scan == sequential scan
# ----------------------------------------------------------------------

class TestParallelScanExactness:
    def test_clean_multi_segment_log(self, tmp_path):
        log = _multi_segment_log(tmp_path)
        frames, corrupt, torn, _total = \
            assert_parallel_equals_sequential(log)
        assert len(frames) == 24 and not corrupt and torn is None

    def test_torn_tail_straddling_a_segment_boundary(self, tmp_path):
        log = _multi_segment_log(tmp_path)
        # Cut inside the *first* frame of the last segment: the torn
        # tail starts in the previous segment's coordinate space only
        # if that frame is the last valid one -- the boundary case the
        # cross-segment stitch must get right.
        last_base = log.total_bytes - log.segments()[-1][1]
        log.crash_cut(last_base + 7)
        frames, corrupt, torn, total = \
            assert_parallel_equals_sequential(log)
        assert torn == last_base and total == last_base + 7
        assert frames[-1][1] == last_base and not corrupt

    def test_corrupt_region_straddling_a_segment_boundary(self, tmp_path):
        log = _multi_segment_log(tmp_path)
        # Rot the last frame of one segment AND the first frame of the
        # next: adjacent corrupt regions on both sides of the boundary.
        segments = log.segments()
        second_base = segments[0][1]
        log.corrupt_bytes(second_base - 20, b"\xff")
        log.corrupt_bytes(second_base + 20, b"\xff")
        frames, corrupt, torn, _total = \
            assert_parallel_equals_sequential(log)
        assert torn is None
        reasons = [r[2] for r in corrupt]
        assert reasons.count("seal") == 2
        spans = sorted((r[0], r[1]) for r in corrupt)
        assert spans[0][1] <= second_base <= spans[1][0]
        assert len(frames) == 22

    def test_stale_seq_across_segments(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME, segment_bytes=SEGMENT)
        log.append_many([_page_frame(seq, seq) for seq in range(10)])
        # A structurally valid frame whose seq regressed: stale bytes
        # landing in a *later* segment must still be rejected by the
        # cross-segment monotonicity fold.
        log.append(_page_frame(3, 99))
        log.append_many([_page_frame(seq, seq) for seq in range(10, 14)])
        assert log.segment_count > 2
        frames, corrupt, torn, _total = \
            assert_parallel_equals_sequential(log)
        assert torn is None
        assert [r[2] for r in corrupt] == ["stale_seq"]
        assert len(frames) == 14

    def test_trusted_prefix_ending_mid_segment(self, tmp_path):
        log = _multi_segment_log(tmp_path)
        # Trust a prefix that ends inside segment 1 (not on a boundary)
        # with rot both inside and beyond it: only the post-trust rot
        # may surface, identically for any worker count.
        segments = log.segments()
        trusted = segments[0][1] + segments[1][1] // 2
        scan = log.scan()
        inside = next(f for f in scan.frames if f.end <= trusted)
        beyond = next(f for f in scan.frames if f.start >= trusted)
        log.corrupt_bytes(inside.start + 40, b"\x55")    # payload bytes
        log.corrupt_bytes(beyond.start + 40, b"\x55")
        frames, corrupt, _torn, _total = \
            assert_parallel_equals_sequential(log, trusted_bytes=trusted)
        assert [r[2] for r in corrupt] == ["seal"]
        assert corrupt[0][0] == beyond.start
        # The trusted frame is still structurally parsed and returned.
        assert any(f[0] == inside.start for f in frames)

    def test_whole_frame_failing_its_seal_at_the_tail_is_rot(self, tmp_path):
        # A tear leaves a prefix of the last write, so a whole frame
        # with a bad seal after the last certified one was rotted, not
        # torn: it is reported corrupt (to be condemned), never dropped.
        for rot_last, directory in ((True, "last"), (False, "before_tear")):
            log = _multi_segment_log(tmp_path / directory)
            scan = log.scan()
            rotted = scan.frames[-1 if rot_last else -2]
            log.corrupt_bytes(rotted.start + 40, b"\x55")
            if not rot_last:
                log.crash_cut(scan.frames[-1].start + 7)
            frames, corrupt, torn, _total = \
                assert_parallel_equals_sequential(log)
            assert torn == (None if rot_last else scan.frames[-1].start)
            assert len(frames) == (23 if rot_last else 22)
            assert [r[:3] for r in corrupt] == [
                (rotted.start, rotted.end, "seal")]

    def test_explicit_workers_beyond_segments_still_exact(self, tmp_path):
        log = _multi_segment_log(tmp_path)
        reference = _fingerprint(log.scan(verify_workers=1))
        assert _fingerprint(log.scan(verify_workers=64)) == reference

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_faults_never_diverge(self, data, tmp_path_factory):
        """Parallel == sequential over random rot + torn-tail plans."""
        tmp_path = tmp_path_factory.mktemp("fuzz")
        log = _multi_segment_log(tmp_path, frames=16)
        total = log.total_bytes
        for _ in range(data.draw(st.integers(0, 3), label="rot_count")):
            offset = data.draw(st.integers(0, total - 3), label="rot_at")
            log.corrupt_bytes(offset, b"\xff\x01")
        if data.draw(st.booleans(), label="torn"):
            log.crash_cut(data.draw(st.integers(1, total), label="cut"))
        assert_parallel_equals_sequential(log)


# ----------------------------------------------------------------------
# Group commit
# ----------------------------------------------------------------------

class TestGroupCommit:
    def test_modes_lay_down_identical_logs(self, tmp_path):
        frames = [_page_frame(seq, seq) for seq in range(30)]
        images, offsets = {}, {}
        for flush in ("frame", "group"):
            directory = tmp_path / flush
            log = SegmentedLog(directory, SCHEME, segment_bytes=SEGMENT,
                               flush=flush)
            offsets[flush] = [log.append(frame) for frame in frames]
            log.close()
            images[flush] = b"".join(
                path.read_bytes()
                for path in sorted(directory.glob("seg-*.log")))
        assert offsets["frame"] == offsets["group"]
        assert images["frame"] == images["group"]

    def test_pending_frames_coalesce_until_commit(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            log = SegmentedLog(tmp_path, SCHEME, flush="group",
                               group_bytes=1 << 20, group_latency_s=3600.0)
            log.append(_page_frame(0))
            # Logical length counts the pending frame; the segment file
            # does not hold it yet (no write, no flush happened).
            assert log.total_bytes > 0
            assert log.segment_path(0).stat().st_size == 0
            assert registry.total("store.log.fsyncs") == 0
            flushed = log.commit()
            assert flushed == log.total_bytes
            assert log.segment_path(0).stat().st_size == log.total_bytes
            assert registry.total("store.log.fsyncs") == 1
            assert registry.total("store.log.group_commits") == 1
            assert registry.total("store.log.group_bytes") == flushed
            log.close()

    def test_group_bytes_threshold_triggers_commit(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            log = SegmentedLog(tmp_path, SCHEME, flush="group",
                               group_bytes=1, group_latency_s=3600.0)
            log.append_many([_page_frame(seq) for seq in range(3)])
            assert registry.total("store.log.group_commits") >= 1
            log.close()

    def test_scan_sees_pending_frames(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME, flush="group",
                           group_bytes=1 << 20, group_latency_s=3600.0)
        log.append_many([_page_frame(seq, seq) for seq in range(5)])
        scan = log.scan()        # scan commits first: it reads files
        assert [sf.frame.seq for sf in scan.frames] == list(range(5))
        assert not scan.corrupt and scan.torn_start is None
        log.close()

    def test_segment_roll_commits_pending_first(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME, segment_bytes=SEGMENT,
                           flush="group", group_bytes=1 << 20,
                           group_latency_s=3600.0)
        log.append_many([_page_frame(seq, seq) for seq in range(24)])
        log.close()
        sizes = dict(log.segments())
        for index, size in sizes.items():
            assert log.segment_path(index).stat().st_size == size

    def test_flush_mode_validated(self, tmp_path):
        with pytest.raises(StoreError):
            SegmentedLog(tmp_path, SCHEME, flush="sometimes")
        with pytest.raises(StoreError):
            SegmentedLog(tmp_path, SCHEME, flush="group", group_bytes=0)
        with pytest.raises(StoreError):
            SegmentedLog(tmp_path, SCHEME, flush="group",
                         group_latency_s=-1.0)


# ----------------------------------------------------------------------
# Whole-store parallel recovery
# ----------------------------------------------------------------------

def _churned_store(directory, flush: str = "frame") -> bytes:
    page_bytes = 512
    store = PageStore(SCHEME, directory, segment_bytes=SEGMENT, flush=flush)
    image = bytearray(bytes(range(256)) * (16 * page_bytes // 256))
    store.write_image("vol", bytes(image), page_bytes)
    store.checkpoint()
    for offset in range(0, len(image), 1024):
        before = bytes(image[offset:offset + 64])
        after = bytes((b ^ 0x2A) for b in before)
        image[offset:offset + 64] = after
        store.record_extent("vol", offset, before, after, len(image))
    store.close()
    return bytes(image)


class TestParallelRecover:
    def test_parallel_recover_equals_sequential(self, tmp_path):
        image = _churned_store(tmp_path / "store")
        outcomes = {}
        for workers in (1, 3):
            store, report = PageStore.recover(
                SCHEME, tmp_path / "store", segment_bytes=SEGMENT,
                verify_workers=workers)
            try:
                outcomes[workers] = (
                    store.image("vol"),
                    store.signature_map("vol").signatures,
                    report.frames_folded, report.frames_valid,
                    report.condemned, report.torn_bytes,
                )
            finally:
                store.close()
        assert outcomes[1] == outcomes[3]
        assert outcomes[1][0] == image

    def test_sharded_recover_reports_sequential_signing_counters(
            self, tmp_path):
        # Workers sign the seals in their own processes; their counters
        # must land in the caller's registry, label for label.
        _churned_store(tmp_path / "store")
        counters = {}
        for workers in (1, 2):
            with use_registry(MetricsRegistry()) as registry:
                store, _report = PageStore.recover(
                    SCHEME, tmp_path / "store", segment_bytes=SEGMENT,
                    verify_workers=workers)
                store.close()
                assert registry.total("store.scans", mode="parallel") \
                    == (workers > 1)
                snapshot = registry.snapshot()
            counters[workers] = {name: snapshot[name] for name in (
                "sig.sign_calls", "sig.bytes_signed")}
        assert counters[1] == counters[2]
        assert sum(counters[1]["sig.sign_calls"].values()) > 0

    def test_group_flush_store_recovers_with_workers(self, tmp_path):
        image = _churned_store(tmp_path / "store", flush="group")
        store, report = PageStore.recover(
            SCHEME, tmp_path / "store", segment_bytes=SEGMENT,
            verify_workers=2, flush="group")
        try:
            assert store.image("vol") == image
            assert report.clean
            page_bytes = store.page_bytes_of("vol")
            expected = SignatureMap.compute(
                SCHEME, image, page_bytes // SCHEME.scheme_id.symbol_bytes)
            assert store.signature_map("vol").signatures \
                == expected.signatures
        finally:
            store.close()

    def test_scrub_with_workers_matches_sequential(self, tmp_path):
        _churned_store(tmp_path / "store")
        reports = {}
        for workers in (None, 2):
            store, _report = PageStore.recover(
                SCHEME, tmp_path / "store", segment_bytes=SEGMENT,
                verify_workers=workers)
            try:
                scrub = store.scrub("vol")
                reports[workers] = (scrub.nodes_compared,
                                    tuple(scrub.condemned))
            finally:
                store.close()
        assert reports[None] == reports[2]
        assert reports[2][1] == ()


class TestMixedWidthSegment:
    def test_rotted_delta_between_page_frames_is_the_one_reported(
            self, tmp_path):
        """A segment's seals are signed in width groups (the 52-symbol
        DELTA frame apart from the 2064-symbol PAGE frames); verdicts
        must still land on the frames they belong to."""
        page_bytes = 4096
        image = bytes(range(256)) * (2 * page_bytes // 256)
        store = PageStore(SCHEME, tmp_path / "store")
        first = store.write_page("vol", 0, image[:page_bytes], page_bytes)
        before = image[100:164]
        after = bytes(b ^ 0x5A for b in before)
        delta = store.record_extent("vol", 100, before, after, len(image))
        second = store.write_page("vol", 1, image[page_bytes:], page_bytes)
        end = store.log_bytes
        store.corrupt_log(delta + 40, b"\xff\xff")
        store.close()

        scan = SegmentedLog(tmp_path / "store", SCHEME).scan(
            verify_workers=1)
        assert [(r.start, r.end, r.reason) for r in scan.corrupt] == [
            (delta, second, "seal")]
        # (The volume's creation frame precedes the two page frames.)
        assert [(f.start, f.end, f.frame.kind) for f in scan.frames][1:] \
            == [(first, delta, KIND_PAGE), (second, end, KIND_PAGE)]
        store, report = PageStore.recover(SCHEME, tmp_path / "store")
        try:
            # The lost delta touched page 0 after its last full write.
            assert report.corrupt_frames == 1
            assert report.condemned == {"vol": (0,)}
            assert store.image("vol") == image
        finally:
            store.close()


class TestPartialSymbolTail:
    """A warm map cannot journal an image that ends mid-symbol; the
    drop of its warm state is counted, never silent."""

    @staticmethod
    def _recover_truncated(directory, length):
        image = bytes(range(256)) * 4
        store = PageStore(SCHEME, directory)
        store.write_image("a", image, 256)
        rotted = store.record_extent("a", 800, image[800:840], bytes(40),
                                     len(image))
        store.checkpoint()
        store.truncate("a", length)
        store.close()
        store.corrupt_log(rotted + 40, b"\xff\xff")
        registry = MetricsRegistry()
        with use_registry(registry):
            store, report = PageStore.recover(SCHEME, directory)
        store.close()
        assert report.condemned == {"a": (3,)}
        return report, registry.total("sync.cold_resigns",
                                      reason="partial_symbol")

    def test_mid_symbol_truncate_counts_one_cold_resign(self, tmp_path):
        _report, drops = self._recover_truncated(tmp_path, 1021)
        assert drops == 1

    def test_symbol_aligned_truncate_keeps_the_warm_map(self, tmp_path):
        report, drops = self._recover_truncated(tmp_path, 1020)
        assert drops == 0
        assert list(report.expected["a"]) == [3]


# ----------------------------------------------------------------------
# The array seal verdict
# ----------------------------------------------------------------------

VERDICT_SCHEMES = {
    "gf16-n2": make_scheme(),
    "gf8-n4": make_scheme(8, 4),
    "gf16-twisted": log_interpretation_scheme(GF(16), n=2),
}


def _symbol_xor(data, real_bytes: int) -> bytes:
    """A non-zero XOR pattern for one symbol's ``real_bytes`` stored
    bytes (the rest of a final odd symbol is the signing pad)."""
    value = data.draw(st.integers(1, (1 << (8 * real_bytes)) - 1),
                      label="xor")
    return value.to_bytes(real_bytes, "little")


def _seal_holds(scheme, buffer, body_end: int) -> bool:
    """``seals_hold``'s verdict on one frame filling ``buffer``."""
    from repro.sig.seal import seals_hold

    return bool(seals_hold(scheme, bytes(buffer), np.array([0]),
                           np.array([body_end]))[0])


class TestArraySealVerdict:
    """``repro.sig.seal.seals_hold`` -- the recovery scan's one array
    comparison of serialized component rows with the stored seals --
    equals the per-frame ``Signature`` verdict, and still rejects every
    damage Proposition 1 covers."""

    @pytest.mark.parametrize("name", sorted(VERDICT_SCHEMES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_array_verdict_equals_signature_verdict(self, name, data):
        from repro.sig.engine import get_batch_signer
        from repro.sig.seal import seals_hold
        from repro.store.recovery import scan_segment

        scheme = VERDICT_SCHEMES[name]
        n = scheme.n
        symbol_bytes = scheme.scheme_id.symbol_bytes
        seal_bytes = scheme.scheme_id.signature_bytes
        # Bodies stay inside GF(2^8)'s 255-symbol certainty bound; an
        # even payload gives an odd body (17-byte header, 1-byte name).
        payloads = data.draw(st.lists(st.binary(max_size=200), min_size=1,
                                      max_size=8), label="payloads")
        payloads.append(b"\x01" * 40)      # always one odd-length body
        frames = [Frame(data.draw(st.sampled_from(sorted(fr.KIND_NAMES)),
                                  label="kind"), seq, "v", payload)
                  for seq, payload in enumerate(payloads)]
        encoded = fr.encode_many(scheme, frames)
        buffer = bytearray(b"".join(encoded))
        starts = [0]
        for chunk in encoded:
            starts.append(starts[-1] + len(chunk))
        # Damage one frame: <= n symbols of its payload, or of its seal.
        victim = data.draw(st.integers(0, len(frames) - 1), label="victim")
        start, end = starts[victim], starts[victim + 1]
        body_end = end - seal_bytes
        payload_start = body_end - len(payloads[victim])
        first_symbol = -(-(payload_start - start) // symbol_bytes)
        symbols = range(first_symbol,
                        -(-(body_end - start) // symbol_bytes))
        if symbols and data.draw(st.booleans(), label="in_body"):
            for symbol in data.draw(
                    st.lists(st.sampled_from(symbols), min_size=1,
                             max_size=n, unique=True), label="symbols"):
                at = start + symbol * symbol_bytes
                real = min(symbol_bytes, body_end - at)
                for i, byte in enumerate(
                        _symbol_xor(data, real)):
                    buffer[at + i] ^= byte
        else:
            for symbol in data.draw(
                    st.lists(st.integers(0, n - 1), min_size=1,
                             max_size=n, unique=True), label="seal"):
                at = body_end + symbol * symbol_bytes
                for i, byte in enumerate(
                        _symbol_xor(data, symbol_bytes)):
                    buffer[at + i] ^= byte
        # The segment sits at ``base`` in the log; the trusted prefix
        # may end anywhere, mid-segment included.
        base = data.draw(st.sampled_from([0, 4096, 1 << 20]), label="base")
        trusted = base + data.draw(st.integers(0, len(buffer)),
                                   label="trusted")
        segment = bytes(buffer)
        verdict = scan_segment(scheme, segment, 3, base, trusted)

        table = verdict.frames
        assert (table.start - base).tolist() == starts[:-1]
        assert (table.end - base).tolist() == starts[1:]
        seals = get_batch_signer(scheme).sign_concat_many(
            [[segment[s:e - seal_bytes]] for s, e in
             zip(starts, starts[1:])], strict=False)
        held = [seal.to_bytes() == segment[e - seal_bytes:e]
                for e, seal in zip(starts[1:], seals)]
        body_ends = np.array(starts[1:], dtype=np.int64) - seal_bytes
        assert seals_hold(scheme, segment,
                          np.array(starts[:-1], dtype=np.int64),
                          body_ends).tolist() == held
        # Proposition 1: <= n damaged body symbols, or a damaged seal,
        # never hold.
        assert not held[victim]
        # The scan trusts the frames inside the trusted prefix and
        # takes the array verdict for the rest.
        assert verdict.seal_ok.tolist() == [
            base + e <= trusted or hold
            for e, hold in zip(starts[1:], held)]

    @pytest.mark.parametrize("name", ["gf16-n2", "gf16-twisted"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_n2_rejects_damage_split_between_body_and_seal(self, name,
                                                           data):
        # One damaged body symbol changes every component, so with
        # n = 2 one further damaged seal symbol cannot hide it.
        scheme = VERDICT_SCHEMES[name]
        payload = data.draw(st.binary(min_size=1, max_size=300),
                            label="payload")
        buffer = bytearray(fr.encode_many(scheme, [Frame(
            KIND_PAGE, 7, "v", payload)])[0])
        body_end = len(buffer) - scheme.scheme_id.signature_bytes
        # (Payload bytes: the header stays parseable, so the seal
        # check is what must reject.)
        at = data.draw(st.integers(body_end - len(payload), body_end - 1),
                       label="body_byte")
        buffer[at] ^= data.draw(st.integers(1, 255), label="body_xor")
        symbol = data.draw(st.integers(0, scheme.n - 1), label="seal")
        at = body_end + symbol * 2
        for i, byte in enumerate(_symbol_xor(data, 2)):
            buffer[at + i] ^= byte
        assert _seal_holds(scheme, buffer, body_end) is False

    def test_gf8_n4_split_damage_is_the_documented_limit(self):
        """Proposition 1 bounds damage to the body.  With n = 4 over
        GF(2^8), two body symbols 85 apart damaged by 1 and alpha^170
        change only components 2 and 3 (alpha^(3*85) = 1), so damaging
        those two seal symbols to match certifies the frame: four
        damaged symbols, split between body and seal, can pass."""
        scheme = VERDICT_SCHEMES["gf8-n4"]
        frame = Frame(KIND_PAGE, 7, "v", bytes(range(120)))
        buffer = bytearray(fr.encode_many(scheme, [frame])[0])
        body_end = len(buffer) - scheme.n
        buffer[30] ^= 1
        buffer[30 + 85] ^= scheme.field.alpha_power(170)
        resealed = scheme.sign(bytes(buffer[:body_end]),
                               strict=False).to_bytes()
        changed = [i for i in range(scheme.n)
                   if resealed[i] != buffer[body_end + i]]
        assert changed == [1, 2]
        buffer[body_end:] = resealed
        assert _seal_holds(scheme, buffer, body_end) is True


# ----------------------------------------------------------------------
# Cold replay == journaled replay
# ----------------------------------------------------------------------

def _awkward_store(directory, rot: bool) -> int:
    """A log with every replay edge case around a mid-segment checkpoint.

    Returns the checkpoint position.
    """
    page_bytes = 512
    store = PageStore(SCHEME, directory, segment_bytes=SEGMENT)
    image = bytes(range(256)) * (12 * page_bytes // 256)
    store.write_image("a", image, page_bytes)
    store.write_image("c", image[:4 * page_bytes], page_bytes)
    rotted = store.record_extent("a", 1600, image[1600:1664],
                                 bytes(64), len(image))
    # A short final PAGE truncates the image.
    store.write_page("a", 11, b"\x07" * 100)
    # A PAGE whose page_size differs from its volume's (the volume's
    # page size places it).
    store._append([Frame(KIND_PAGE, store._take_seq(), "a",
                         fr.encode_page(2, 256, b"\x33" * 256))])
    # A DELTA that grows the image past its end, then a TRUNCATE.
    length = store.image_len("a")
    store.record_extent("a", length + 30, b"", b"\x44" * 50, length + 80)
    store.truncate("a", length + 40)
    # The last frame before the checkpoint rewrites bytes in place.
    store.record_extent("a", 3000, image[3000:3040], b"\x5a" * 40,
                        store.image_len("a"))
    store.checkpoint()
    position = store.log_bytes
    # The warm tail repeats the shapes on "c" ("a"'s grown tail must
    # survive to the end), plus a volume born after the checkpoint.
    store.write_page("a", 1, b"\x55" * page_bytes)
    store._append([Frame(KIND_PAGE, store._take_seq(), "a",
                         fr.encode_page(0, 1024, b"\x88" * 300))])
    length = store.image_len("c")
    store.record_extent("c", length + 6, b"", b"\x66" * 90, length + 96)
    store.write_page("c", (length + 96) // page_bytes, b"\x77" * 10)
    store.truncate("c", store.image_len("c") - 3)
    store.write_image("b", bytes(range(200)) * 9, 256)
    store.record_extent("b", 10, bytes(range(10, 30)), b"\x99" * 20,
                        store.image_len("b"))
    store.close()
    if rot:
        store.corrupt_log(rotted + 40, b"\xff\xff")
    return position


def _recovered_state(directory, verify: str) -> tuple:
    store, report = PageStore.recover(SCHEME, directory,
                                      segment_bytes=SEGMENT, verify=verify)
    try:
        return (
            {name: store.image(name) for name in store.volumes()},
            {name: store.signature_map(name).signatures
             for name in store.volumes()},
            {name: store.signature_tree(name).root
             for name in store.volumes()},
            report.condemned, report.expected,
            (report.used_checkpoint, report.frames_valid,
             report.frames_folded, report.bytes_replayed,
             report.torn_bytes, report.corrupt_frames, report.volumes,
             report.log_bytes),
        )
    finally:
        store.close()


class TestColdReplay:
    """Frames replayed before the checkpoint (no warm map yet) are plain
    slice writes and XORs on the image; the result must equal replaying
    every frame into replicas that are warm from birth, so that every
    write takes the journaled path."""

    @pytest.mark.parametrize("verify", ["full", "tail"])
    @pytest.mark.parametrize("rot", [False, True], ids=["clean", "rot"])
    def test_cold_branch_equals_journaled_replay(self, tmp_path,
                                                 monkeypatch, verify, rot):
        from repro.sync.replica import Replica

        position = _awkward_store(tmp_path, rot)
        assert position % SEGMENT and SegmentedLog(
            tmp_path, SCHEME, segment_bytes=SEGMENT).segment_count > 2
        cold = _recovered_state(tmp_path, verify)
        born_cold = Replica.__init__

        def born_warm(replica, *args, **kwargs):
            born_cold(replica, *args, **kwargs)
            replica.signature_map()

        with monkeypatch.context() as patched:
            patched.setattr(Replica, "__init__", born_warm)
            journaled = _recovered_state(tmp_path, verify)
        assert cold == journaled
        images, maps = cold[0], cold[1]
        if not rot:
            for name, image in images.items():
                page_bytes = 256 if name == "b" else 512
                assert maps[name] == SignatureMap.compute(
                    SCHEME, image, page_bytes // 2).signatures
        # Tail mode trusts the checkpoint for the rotted prefix frame.
        detected = rot and verify == "full"
        assert bool(cold[3]) == bool(cold[4]) == detected
