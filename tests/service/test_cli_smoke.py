"""End-to-end CLI smoke test: ``repro serve`` + ``repro loadgen``.

Spawns the real console entry points as subprocesses on loopback — the
exact flow CI exercises — with hard timeouts so a wedged event loop
fails the test instead of hanging the suite.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
SMOKE_TIMEOUT_S = 60


class TestParser:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--once", "3", "--policy", "rr", "--report", "json"])
        assert args.once == 3 and args.policy == "rr"
        assert args.report == "json" and args.port == 0

    def test_loadgen_flags(self):
        args = build_parser().parse_args(
            ["loadgen", "--mode", "udp", "--clients", "16",
             "--server", "127.0.0.1:47000", "--size", "4K"])
        assert args.mode == "udp" and args.clients == 16
        assert args.server == ("127.0.0.1", 47000) and args.size == 4096

    def test_loadgen_defaults_to_des(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.mode == "des" and args.arrivals == "simultaneous"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "lottery"])


def _run(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S, **kwargs,
    )


class TestServeLoadgenSmoke:
    def test_three_client_loopback_end_to_end(self, tmp_path):
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--once", "3",
             "--report", "json"],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"serving on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no banner in {banner!r}"
            port = match.group(1)

            loadgen = _run(["loadgen", "--mode", "udp", "--clients", "3",
                            "--server", f"127.0.0.1:{port}"])
            assert loadgen.returncode == 0, loadgen.stdout + loadgen.stderr
            assert loadgen.stdout.count("payload_ok=True") == 3

            out, err = server.communicate(timeout=SMOKE_TIMEOUT_S)
            assert server.returncode == 0, out + err
            report = json.loads(out)
            assert report["summary"]["ok"] == 3
            assert report["summary"]["failed"] == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

    def test_sigterm_drains_and_prints_final_report(self):
        # Graceful shutdown: SIGTERM must drain in-flight grants and
        # still emit the final metrics report before exiting 0.
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--report", "json"],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"serving on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no banner in {banner!r}"
            port = match.group(1)

            loadgen = _run(["loadgen", "--mode", "udp", "--clients", "2",
                            "--server", f"127.0.0.1:{port}"])
            assert loadgen.returncode == 0, loadgen.stdout + loadgen.stderr

            server.terminate()  # SIGTERM, not SIGKILL
            out, err = server.communicate(timeout=SMOKE_TIMEOUT_S)
            assert server.returncode == 0, out + err
            report = json.loads(out)
            assert report["summary"]["ok"] == 2
            assert report["summary"]["failed"] == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

    def test_cluster_cli_des_check_roundtrip(self, tmp_path):
        ledger = tmp_path / "ledger.txt"
        wrote = _run(["cluster", "--mode", "des", "--flows", "64",
                      "--out", str(ledger)])
        assert wrote.returncode == 0, wrote.stdout + wrote.stderr
        assert ledger.exists()
        checked = _run(["cluster", "--mode", "des", "--flows", "64",
                        "--check", str(ledger)])
        assert checked.returncode == 0, checked.stdout + checked.stderr

    def test_des_loadgen_cli_json_report(self):
        result = _run(["loadgen", "--clients", "4", "--report", "json"])
        assert result.returncode == 0, result.stdout + result.stderr
        report = json.loads(result.stdout)
        assert report["summary"]["ok"] == 4
