"""Tests for the ``python -m repro`` command-line entry point."""

import json
import pathlib

from repro.__main__ import main
from repro.obs import SCHEMA


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GF(2^16)" in out
        assert "4-byte signatures" in out

    def test_default_is_info(self, capsys):
        assert main([]) == 0
        assert "Algebraic Signatures" in capsys.readouterr().out

    def test_recommend(self, capsys):
        assert main(["recommend", "16384"]) == 0
        out = capsys.readouterr().out
        assert "GF(2^16), n=2" in out
        assert "2^-32" in out

    def test_recommend_small_page(self, capsys):
        assert main(["recommend", "100"]) == 0
        out = capsys.readouterr().out
        assert "pages of 100 bytes" in out

    def test_recommend_needs_argument(self, capsys):
        assert main(["recommend"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "Commands" in capsys.readouterr().err


class TestReportCommand:
    def test_report_table(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for section in ("== sig ==", "== net ==", "== disk ==",
                        "== sdds ==", "== backup ==", "== parity ==",
                        "== spans =="):
            assert section in out
        assert "source=demo" in out

    def test_report_json_schema(self, capsys):
        assert main(["report", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == SCHEMA
        assert document["meta"] == {"source": "demo"}
        prefixes = {name.split(".", 1)[0] for name in document["metrics"]}
        assert {"sig", "net", "disk", "sdds", "backup", "parity"} <= prefixes
        assert document["spans"]  # demo workload traces its phases

    def test_report_json_is_deterministic(self, capsys):
        assert main(["report", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_report_runs_script(self, capsys, tmp_path):
        script = tmp_path / "workload.py"
        script.write_text(
            "from repro import make_scheme\n"
            "print('script ran')\n"
            "make_scheme().sign(b'abcdefgh')\n"
        )
        assert main(["report", str(script)]) == 0
        out = capsys.readouterr().out
        assert "script ran" in out
        assert "sig.bytes_signed" in out
        assert "source=workload.py" in out

    def test_report_json_suppresses_script_stdout(self, capsys, tmp_path):
        script = tmp_path / "noisy.py"
        script.write_text(
            "from repro import make_scheme\n"
            "print('NOISE')\n"
            "make_scheme().sign(b'abcd')\n"
        )
        assert main(["report", str(script), "--json"]) == 0
        out = capsys.readouterr().out
        assert "NOISE" not in out
        json.loads(out)  # the document parses cleanly

    def test_report_missing_script(self, capsys):
        assert main(["report", "does-not-exist.py"]) == 2
        assert "no such script" in capsys.readouterr().err

    def test_report_too_many_arguments(self, capsys):
        assert main(["report", "a.py", "b.py"]) == 2
        assert "usage" in capsys.readouterr().err


class TestDemoGoldens:
    """Same-seed demo documents pinned byte for byte.

    Recovery's certification scan and replay may be restructured for
    speed, but the certified state, the condemned pages and every
    counter they emit must not move: these goldens pin the ``store``
    demo (crash, rot, certified recovery, verified patch), the
    ``locate`` demo (group-testing localization), the ``cluster`` demo
    (fault-injected nodes, a crash and its recovery) and the ``serve``
    demo (the serving plane's sweep with live splits).
    """

    DATA = pathlib.Path(__file__).parent / "data"

    def test_store_demo_matches_golden(self, capsys):
        assert main(["store", "--json", "--seed", "42"]) == 0
        document = json.loads(capsys.readouterr().out)
        # The one wall-clock series; every other byte is deterministic.
        del document["metrics"]["store.recovery_seconds"]
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert text == (self.DATA / "store_demo_golden.json").read_text()

    def test_store_demo_multi_segment_log(self, capsys, monkeypatch):
        # 8 KiB segments split the ~57 KiB demo log into several segment
        # files; the one in-process scan must walk them all and reach
        # the same certified verdict as the one-segment golden run.
        from repro.store import recovery

        segments = []
        scan_segment = recovery.scan_segment

        def counted(scheme, buffer, base, trusted_bytes):
            segments.append(base)
            return scan_segment(scheme, buffer, base, trusted_bytes)

        monkeypatch.setattr(recovery, "scan_segment", counted)
        assert main(["store", "--json", "--segment-bytes", "8192"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert len(segments) > 1
        assert metrics["store.scans"] == {"": 1}
        golden = json.loads(
            (self.DATA / "store_demo_golden.json").read_text())["metrics"]
        for name in ("store.corrupt_frames_detected", "store.pages_condemned",
                     "store.torn_bytes", "store.frames_replayed",
                     "store.recoveries"):
            assert metrics[name] == golden[name], name

    def test_locate_demo_matches_golden(self, capsys):
        assert main(["locate", "--json"]) == 0
        assert capsys.readouterr().out \
            == (self.DATA / "locate_golden.json").read_text()

    def test_cluster_demo_matches_golden(self, capsys):
        assert main(["cluster", "--json"]) == 0
        assert capsys.readouterr().out \
            == (self.DATA / "cluster_demo_golden.json").read_text()

    def test_serve_demo_matches_golden(self, capsys):
        assert main(["serve", "--json", "--seed", "7"]) == 0
        assert capsys.readouterr().out \
            == (self.DATA / "serve_demo_golden.json").read_text()
