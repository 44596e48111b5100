"""FSM extraction and the byte-stable machine × frame-kind matrix (REP114)."""

import subprocess
import sys
from pathlib import Path

from repro.lint.fsm import matrix_for_paths

from .conftest import REPO_ROOT

MATRIX_GOLDEN = REPO_ROOT / "benchmarks" / "results" / "fsm_matrix.txt"
ANALYSIS_PATHS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]


def test_matrix_matches_golden_byte_for_byte():
    rendered = matrix_for_paths(ANALYSIS_PATHS)
    assert rendered == MATRIX_GOLDEN.read_text(), (
        "FSM matrix drifted from benchmarks/results/fsm_matrix.txt — "
        "if the protocol surface changed on purpose, regenerate with the "
        "command in the file header"
    )


def test_matrix_is_deterministic_across_runs():
    assert matrix_for_paths(ANALYSIS_PATHS) == matrix_for_paths(ANALYSIS_PATHS)


def test_matrix_covers_every_machine_and_kind():
    lines = MATRIX_GOLDEN.read_text().splitlines()
    rows = [l for l in lines if l and not l.startswith(("#", "machine"))]
    names = [row.split()[0] for row in rows]
    assert names == sorted(names)  # sorted by qualified name → stable diffs
    for expected in (
        "service/machines.py::BlastSenderMachine",
        "service/machines.py::ReceiverMachine",
        "service/machines.py::WindowSenderMachine",
        "service/pullclient.py::PullMachine",
        "udpnet/fileserver.py::UdpFileClient",
        "udpnet/fileserver.py::UdpFileServer",
    ):
        assert expected in names
    header = next(l for l in lines if l.startswith("machine"))
    assert header.split()[1:5] == ["DATA", "ACK", "NAK", "CONTROL"]
    # Every kind column is accounted for in every row: no "." cells left.
    for row in rows:
        assert "." not in row.split()[1:5], row
    assert lines[-1].endswith("uncovered=0")
    # The machines are the only protocol implementation: nothing under
    # udpnet/ dispatches on or constructs an acknowledgement.
    for row in rows:
        name, _data, ack, nak = row.split()[:4]
        if name.startswith("udpnet/"):
            assert (ack, nak) == ("i", "i"), row


def test_cli_writes_matrix_file(tmp_path):
    out = tmp_path / "matrix.txt"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint",
            "--fsm-matrix",
            str(out),
            "src",
            "benchmarks",
        ],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FSM matrix written" in proc.stdout
    assert out.read_text() == MATRIX_GOLDEN.read_text()
