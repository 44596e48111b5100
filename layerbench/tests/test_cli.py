"""The command end to end: smoke suite, the driver's contract line, the
bare-directory refusal, and no child left behind."""

import json
import os
import shutil
import subprocess
import sys
import time

from layerbench import spec
from layerbench.child import REPO_ROOT, Child, ChildError


def _run(args, cwd=REPO_ROOT, timeout=120):
    return subprocess.run([sys.executable, "-m", "layerbench", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def _stray_children():
    """argv of every live process that is one of the benchmark's children."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().decode().split("\0")
        except OSError:
            continue
        if ("layerbench.traced_server" in argv
                or "layerbench.des_worker" in argv
                or ("repro" in argv and "serve" in argv)):
            found.append(argv)
    return found


def test_smoke_prints_every_workload_and_metric_within_30_s():
    started = time.monotonic()
    done = _run(["--smoke", "--seed", "5"])
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 30, elapsed
    assert "loopback" in done.stdout and "pinned=" in done.stdout
    for item in spec.WORKLOADS:
        assert f"== {item.name}: end-to-end" in done.stdout
        assert f"== {item.name}: per-layer" in done.stdout
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert f"  {metric.name} " in done.stdout, metric.name
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["claim"] is None
    assert summary["correct"] is True
    assert summary["fingerprint"]["link"] == "loopback"
    assert summary["fingerprint"]["seed"] == 5
    for name, result in summary["sets"][0].items():
        assert result["failed"] == 0, name
        assert all(v > 0 for v in result["metrics"].values()), name
    blast = summary["per_layer"]["udp_bulk_blast"]["metrics"]
    # The ledger accounts for the traced server's run.
    assert 0.85 <= blast["trace.accounted_share"] <= 1.15
    assert blast["failed_share"] == 0
    assert _stray_children() == []


def test_contract_mode_ends_with_the_drivers_json_line():
    for trace, table in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        done = _run(["--workload", "udp_many_small", "--seed", "9",
                     "--seconds", "1", "--trace", str(trace)])
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == spec.names(table)
        for metric in table:
            entry = last["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))
    assert _stray_children() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(REPO_ROOT, "layerbench"),
                    tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "layerbench", "--workload", "udp_many_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_child_is_killed_and_reaped_on_an_error_path():
    try:
        with Child(["-c", "import time; print('up', flush=True); "
                          "time.sleep(600)"]) as child:
            assert child.read_line(10.0) == "up"
            pid = child.pid
            raise ChildError("the run went wrong")
    except ChildError:
        pass
    assert child.exit_code is not None
    assert not os.path.exists(f"/proc/{pid}")


def test_child_read_times_out():
    with Child(["-c", "import time; time.sleep(600)"]) as child:
        try:
            child.read_line(0.2)
        except ChildError as error:
            assert "timed out" in str(error)
        else:
            raise AssertionError("read_line returned")
