"""Conformance harness: fast DES sweep + spot-checked UDP cells.

The full 108-cell matrix lives in ``benchmarks/`` (and the committed
golden ledger); here we hold every DES row to that ledger and only
spot-check the slow wall-clock substrate.
"""

import pickle
from pathlib import Path

import pytest

from repro.faults.conformance import (
    COMBOS,
    SUBSTRATES,
    build_specs,
    render_report,
    run_matrix,
)
from repro.faults.plans import BUILTIN_PLANS, builtin_plan, builtin_plan_names

GOLDEN_MATRIX = (Path(__file__).parents[2] / "benchmarks" / "results"
                 / "conformance_matrix.txt")

FAST_PLANS = [
    builtin_plan("clean"),
    builtin_plan("drop-data-head"),
    builtin_plan("dup-burst"),
    builtin_plan("random-mayhem"),
]


class TestBuiltinPlans:
    def test_catalogue_is_stable(self):
        names = builtin_plan_names()
        assert names == builtin_plan_names()  # stable catalogue order
        assert "clean" in names
        assert len(names) >= 6  # the acceptance floor for the matrix

    def test_all_builtin_plans_bounded(self):
        for name in builtin_plan_names():
            plan = BUILTIN_PLANS[name]
            assert plan.is_bounded, f"builtin plan {name} must be bounded"

    def test_unknown_plan_rejected(self):
        with pytest.raises(KeyError):
            builtin_plan("no-such-plan")

    def test_plans_cross_a_process_boundary_by_pickling(self):
        # The pool's cell specs and the cluster's WorkerSpec carry the
        # frozen plan itself; the copy must replay the same decisions.
        from repro.faults.plan import PlanExecutor

        frames = [(kind, direction, seq) for seq in range(12)
                  for kind, direction in (("data", "send"), ("ack", "recv"))]
        for name in builtin_plan_names():
            plan = BUILTIN_PLANS[name]
            copy = pickle.loads(pickle.dumps(build_specs(plans=[plan])[0]))[3]
            assert copy == plan
            original, replayed = PlanExecutor(plan), PlanExecutor(copy)
            assert [original.decide(*frame) for frame in frames] \
                == [replayed.decide(*frame) for frame in frames]


class TestBuildSpecs:
    def test_canonical_order_and_coverage(self):
        specs = build_specs(plans=FAST_PLANS, substrates=("des",))
        assert len(specs) == len(COMBOS) * len(FAST_PLANS)
        protocols = {spec[1] for spec in specs}
        assert protocols == {"stop_and_wait", "sliding_window", "blast"}
        strategies = {spec[2] for spec in specs if spec[1] == "blast"}
        assert strategies == {"full_no_nak", "full_nak", "gobackn", "selective"}

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError, match="substrate"):
            build_specs(substrates=("carrier-pigeon",))

    def test_default_covers_both_substrates(self):
        specs = build_specs()
        assert {spec[0] for spec in specs} == set(SUBSTRATES)
        assert len(specs) == len(COMBOS) * len(BUILTIN_PLANS) * len(SUBSTRATES)


class TestDesMatrix:
    def test_every_cell_passes(self):
        result = run_matrix(plans=FAST_PLANS, substrates=("des",))
        assert len(result.cells) == len(COMBOS) * len(FAST_PLANS)
        assert result.all_passed, result.failures

    def test_report_is_deterministic(self):
        first = run_matrix(plans=FAST_PLANS, substrates=("des",))
        second = run_matrix(plans=FAST_PLANS, substrates=("des",))
        assert first.report == second.report
        assert first.cells == second.cells

    def test_rows_match_the_golden_matrix(self):
        # The simulated substrate is exact: every DES row of the
        # committed matrix, frame and round counts included, is what
        # this tree computes (the ledger itself is regenerated only by
        # `repro faults --out`, outside tier-1).
        def des_rows(report):
            matrix = report.split("# cells=")[0]  # the fairness rows follow
            return [line for line in matrix.splitlines()
                    if line.startswith("des ")]

        golden = des_rows(GOLDEN_MATRIX.read_text())
        assert "des blast selective dup+reorder PASS yes yes yes 11 1 108" \
            in golden
        assert des_rows(run_matrix(substrates=("des",)).report) == golden

    def test_report_format(self):
        result = run_matrix(plans=FAST_PLANS[:1], substrates=("des",))
        lines = result.report.splitlines()
        assert lines[0].startswith("# fault-injection conformance matrix")
        assert lines[-1] == f"# cells={len(result.cells)} failures=0"
        for cell_line in lines[3:-1]:
            fields = cell_line.split()
            assert fields[0] == "des"
            assert fields[4] == "PASS"

    def test_failures_surface_in_report(self):
        # Render a hand-built failing cell: the report must say FAIL.
        from repro.faults.conformance import CellResult

        cell = CellResult(
            substrate="des", protocol="blast", strategy="gobackn",
            plan="clean", ok=False, intact=False, terminated=True,
            within_bound=True, frames=1, rounds=1, bound=10,
            error="synthetic",
        )
        report = render_report([cell], seed=0, size_bytes=1024)
        assert "FAIL" in report
        assert report.rstrip().endswith("failures=1")


class TestStopAndWaitIgnoresStaleAcks:
    """The generator engine answered every duplicated or overtaken ack
    with a retransmission, whose ack was stale in turn: 76 data frames
    for these 9 packets on both plans.  The machine waits on (9 and 12)."""

    @pytest.mark.parametrize("plan_name", ["dup-burst", "dup+reorder"])
    def test_a_stale_ack_is_not_answered_with_a_resend(self, plan_name):
        from repro.faults.conformance import _run_cell_spec

        packets = 9
        row = _run_cell_spec(
            ("des", "stop_and_wait", None, builtin_plan(plan_name),
             7, 8 * 1024 + 137)
        )
        assert row["intact"] and row["terminated"]
        assert row["rounds"] == packets
        # A resend per stale ack cannot meet this: the plan alone
        # duplicates two replies and triple-sends four data frames.
        assert row["frames"] <= 2 * packets


@pytest.mark.slow
class TestUdpSpotChecks:
    """A sparse sample of the wall-clock substrate (full grid in benchmarks)."""

    @pytest.mark.parametrize(
        "protocol,strategy,plan_name",
        [
            ("stop_and_wait", None, "drop-data-head"),
            ("blast", "selective", "reorder-window"),
            ("blast", "full_nak", "dup-burst"),
        ],
    )
    def test_cell_passes(self, protocol, strategy, plan_name):
        from repro.faults.conformance import _run_cell_spec

        plan = builtin_plan(plan_name)
        row = _run_cell_spec(
            ("udp", protocol, strategy, plan, 7, 4 * 1024 + 17)
        )
        assert row["ok"], row["error"]
        assert row["intact"]
        assert row["terminated"]
        assert row["within_bound"]
