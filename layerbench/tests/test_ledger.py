"""Metric arithmetic on synthetic phases."""

from layerbench import spec
from layerbench.ledger import end_to_end, per_layer, quiet_decile
from layerbench.phase import Cell, Phase

MIB = 1024 * 1024


def _cell(busy_s, completions_ms, failed=0):
    return Cell(busy_s=busy_s, payload_bytes=2 * MIB, attempted=2,
                failed=failed, completions_ms=completions_ms,
                cpu_s=busy_s / 2, pump_cpu_s=busy_s / 4, frames=2048)


def _phase(cells):
    return Phase(setup_s=1.0, cells=cells,
                 child_cpu_s=(0.4, 0.1), peak_rss_mib=30.0,
                 child_wall_s=10.0, cells_served=len(cells) + 2,
                 attempted=2 * (len(cells) + 2))


def test_quiet_decile_is_one_tenth_in_from_the_best():
    values = list(range(1, 21))
    assert quiet_decile(values, "lower") == 2
    assert quiet_decile(values, "higher") == 19
    assert quiet_decile([5.0], "lower") == 5.0
    assert quiet_decile(list(range(10)), "lower") == 0   # < 11 cells: best
    assert quiet_decile([], "higher") == 0.0


def test_end_to_end_reports_every_metric_and_skips_failed_cells():
    cells = [_cell(1.0, [900.0, 1000.0]), _cell(0.5, [400.0, 500.0]),
             _cell(0.01, [1.0], failed=1)]
    values = end_to_end(_phase(cells), [1.0, 3.0, 2.0])
    assert list(values) == spec.names(spec.END_TO_END)
    assert values["goodput_mib_s"] == 4.0          # the 0.5 s cell
    assert values["kframes_per_s"] == 2048 / 0.5 / 1e3
    assert values["completion_p50_ms"] == 450.0
    assert values["server_cpu_ms_per_mib"] == 125.0
    assert values["setup_s"] == 1.0
    assert all(value > 0 for value in values.values())


def test_per_layer_null_for_a_dead_probe_zero_for_an_idle_layer():
    reference = _phase([_cell(1.0, [1000.0, 1000.0])])
    traced = _phase([_cell(1.25, [1250.0, 1250.0])])
    row = {"calls": 10, "total_ns": 50_000, "self_ns": 20_000, "units": 40}
    traced.trace = {
        "totals": {"wire.encode_into": row, "iobatch.send_frame": row,
                   "iobatch.recv_batch": row},
        "missing": ["repro.service.udpservice:decode"],
        "missing_keys": ["wire.decode"],
    }
    values = per_layer(spec.workload("udp_bulk_sliding"), traced, reference)
    assert list(values) == spec.names(spec.PER_LAYER)
    assert values["wire.decode_us"] is None
    assert values["wire.encode_into_us"] == 5.0
    assert values["iobatch.dgrams_per_recv_batch"] == 4.0
    assert values["engine.on_frame_self_us"] == 0.0
    assert values["sim.event_us"] == 0.0
    assert values["trace.overhead_share"] == 0.25
    assert values["failed_share"] == 0.0
    # 50 datagrams over the 3 cells the traced child served price the
    # single reference cell's 0.5 s of CPU.
    assert abs(values["server.cpu_us_per_dgram"] - 0.5e6 / (50 / 3)) < 1e-6
