"""Direct tests for API surface not exercised elsewhere.

Each public helper gets at least one direct behavioural test, so every
entry in docs/API.md is backed by an assertion somewhere.
"""

import ast
import importlib
import pathlib

import pytest

import repro.backup
import repro.cluster
import repro.sig

from repro.analysis import (
    expected_collision_interval_seconds,
    expected_collision_interval_years,
    print_table,
)
from repro.backup import DirtyBitTracker
from repro.gf.primitives import default_polynomial, validate_generator
from repro.errors import GaloisFieldError, SignatureMismatchError
from repro.sdds import Bucket, LHFile, Record, RecordHeap
from repro.sdds import messages
from repro.sig import StreamSigner, make_scheme
from repro.sig.base import consecutive_powers_base, primitive_powers_base
from repro.sim import DiskModel, SimDisk, SimNetwork
from repro.sync import Replica
from repro.workloads import ascii_page, random_page


class TestMessagesPayloads:
    def test_sizes_compose(self):
        assert messages.key_payload() == messages.HEADER_BYTES + 4
        assert messages.record_payload(100) == messages.HEADER_BYTES + 104
        assert messages.signature_payload(4) == messages.HEADER_BYTES + 8
        assert messages.update_payload(100, 4) == messages.HEADER_BYTES + 108
        assert messages.ack_payload() == messages.HEADER_BYTES
        assert messages.scan_request_payload(4) == messages.HEADER_BYTES + 8
        assert messages.scan_reply_payload([10, 20]) == \
            messages.HEADER_BYTES + (4 + 10) + (4 + 20)

    def test_update_message_dominated_by_record(self):
        """The §2.2 point in byte arithmetic: the signature adds 4 bytes
        to a record-sized message."""
        assert messages.update_payload(1024, 4) - \
            messages.record_payload(1024) == 4


class TestBasesDirect:
    def test_consecutive_base_explicit(self, gf8):
        base = consecutive_powers_base(gf8, 3)
        assert base.exponents == (1, 2, 3)

    def test_primitive_base_explicit(self, gf8):
        base = primitive_powers_base(gf8, 3)
        assert base.exponents == (1, 2, 4)

    def test_signature_mismatch_error_type(self):
        a = make_scheme(f=8, n=2).sign(b"x")
        b = make_scheme(f=8, n=3).sign(b"x")
        with pytest.raises(SignatureMismatchError):
            a.check_compatible(b)


class TestFieldHelpers:
    def test_alpha_power(self, gf8):
        for i in (0, 1, 5, 254, 255, 1000):
            assert gf8.alpha_power(i) == gf8.antilog(i)

    def test_default_polynomial_falls_back_to_search(self):
        assert default_polynomial(8) == 0x11D

    def test_validate_generator_passthrough(self):
        assert validate_generator(8, 0x11D) == 0x11D
        with pytest.raises(GaloisFieldError):
            validate_generator(8, 0x11B)  # AES poly: irreducible, not primitive


class TestStatsAndModels:
    def test_traffic_snapshot(self):
        network = SimNetwork()
        network.send("a", "b", "probe", 10)
        snapshot = network.stats.snapshot()
        assert snapshot["messages"] == 1
        assert snapshot["bytes"] == 10
        assert snapshot["by_kind"] == {"probe": 1}

    def test_disk_snapshot_and_read_time(self):
        disk = SimDisk(model=DiskModel(seek_time=0.0, seconds_per_byte=1e-6))
        disk.write_page("v", 0, b"abcd", 8)
        disk.read_page("v", 0)
        snapshot = disk.stats.snapshot()
        assert snapshot["writes"] == 1 and snapshot["reads"] == 1
        assert disk.model.read_time(1000) == pytest.approx(1e-3)


class TestDirtyBitsDirect:
    def test_is_dirty_and_mark_all(self):
        heap = RecordHeap(1024)
        tracker = DirtyBitTracker(heap, page_bytes=256)
        tracker.reset()
        assert not tracker.is_dirty(0)
        offset = heap.allocate(4)
        heap.write(offset, b"abcd")
        assert tracker.is_dirty(offset // 256)
        tracker.reset()
        tracker.mark_all_dirty()
        assert tracker.dirty_pages() == list(range(tracker.page_count))


class TestServerScanExact:
    def test_matches_python_in(self):
        file = LHFile(make_scheme(f=16, n=2), capacity_records=64)
        client = file.client()
        client.insert(Record(1, b"hay hay NEEDLE hay"))
        client.insert(Record(2, b"nothing here......"))
        server = file.server(0)
        hits = server.scan_exact(b"NEEDLE")
        assert [record.key for record in hits] == [1]


class TestStreamInternals:
    def test_stream_signer_symbols_counter(self):
        scheme = make_scheme(f=16, n=2)
        signer = StreamSigner(scheme)
        signer.append(b"abcd")
        assert signer.symbols == 2  # two double-byte symbols


class TestAnalysisHelpers:
    def test_interval_units_consistent(self):
        scheme = make_scheme(f=16, n=2)
        seconds = expected_collision_interval_seconds(scheme, 10.0)
        years = expected_collision_interval_years(scheme, 10.0)
        assert seconds == pytest.approx(years * 365.25 * 24 * 3600)

    def test_print_table_writes_stdout(self, capsys):
        print_table(["a"], [[1]], title="t")
        out = capsys.readouterr().out
        assert "t" in out and "1" in out


class TestMiscSurface:
    def test_bucket_image_bytes(self):
        bucket = Bucket(0, initial_heap_bytes=2048)
        assert bucket.image_bytes == 2048

    def test_replica_signature_tree(self):
        replica = Replica("r", make_scheme(f=16, n=2),
                          random_page(4096, seed=1), 512)
        tree = replica.signature_tree(fanout=4)
        assert tree.leaf_count == replica.page_count

    def test_page_generators_direct(self):
        assert len(random_page(10)) == 10
        assert all(0x20 <= b < 0x7F for b in ascii_page(50))

    def test_lhrs_bucket_of(self):
        from repro.parity import LHRSStore

        store = LHRSStore(make_scheme(f=16, n=2), 3, 1, record_bytes=32)
        assert store.bucket_of(7) == 7 % 3

    def test_rp_owns(self):
        from repro.sdds import RPFile

        file = RPFile(make_scheme(f=16, n=2))
        assert file.server(0).owns(123)


class TestLayering:
    SDDS = pathlib.Path(repro.__file__).parent / "sdds"

    def test_sdds_imports_no_runtime_package(self):
        """The SDDS substrate owns the bucket image; the cluster, backup
        and serving layers build on it, never the other way round."""
        forbidden = ("cluster", "backup", "serve")
        for path in sorted(self.SDDS.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    parts = (node.module or "").split(".")
                    if node.level == 0 and parts[0] == "repro":
                        parts = parts[1:]
                    elif node.level != 2:
                        continue
                    names = [parts[0]] if parts[0] else \
                        [alias.name for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name.split(".")[1] for alias in node.names
                             if alias.name.startswith("repro.")]
                else:
                    continue
                assert not set(names) & set(forbidden), (path.name, names)

    def test_one_bucket_codec(self):
        for package in (repro.cluster, repro.backup):
            assert "serialize_bucket" not in package.__all__
            assert "deserialize_bucket" not in package.__all__

    def test_sig_exports_only_what_outside_code_uses(self):
        """Names only ``repro.sig`` itself uses stay in their submodules."""
        moved = {"base": "SignatureBase", "algebra": "apply_delta",
                 "compound": "PageSlice", "tree": "TreeDiff",
                 "incremental": "FoldReport", "locate": "CondemnedSet"}
        for module, name in moved.items():
            assert name not in repro.sig.__all__
            assert not hasattr(repro.sig, name)
            submodule = importlib.import_module(f"repro.sig.{module}")
            assert hasattr(submodule, name)
