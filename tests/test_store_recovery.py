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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError, StoreError
from repro.obs import MetricsRegistry, use_registry
from repro.sig import SignatureMap, make_scheme
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
