"""Smoke tests keeping the example applications runnable.

Each example is executed as a subprocess, exactly as a user would run
it.  Only the faster examples are exercised here (the 4 MB remote dump
runs in minutes and is covered by its underlying library's tests).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "stop-and-wait / blast" in out
        assert "38%" in out or "37%" in out

    def test_interface_study(self):
        out = run_example("interface_study.py")
        assert "double buffering speedup" in out
        assert "DMA" in out

    def test_contention_study(self):
        out = run_example("contention_study.py")
        assert "80%" in out

    def test_file_server(self):
        out = run_example("file_server.py")
        assert "Every byte arrived intact" in out

    def test_udp_blast_demo(self):
        out = run_example("udp_blast_demo.py")
        assert out.count("[intact]") == 6 and "CORRUPT" not in out

    @pytest.mark.parametrize("name", [
        "quickstart.py", "file_server.py", "udp_blast_demo.py",
        "remote_dump.py", "interface_study.py", "contention_study.py",
    ])
    def test_all_examples_importable(self, name):
        """Every example at least compiles (the slow ones aren't run)."""
        source = (EXAMPLES / name).read_text()
        compile(source, name, "exec")
