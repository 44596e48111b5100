"""Cross-substrate protocol conformance under scripted faults.

The harness sweeps the protocol × strategy × fault-plan grid on two
substrates — the discrete-event simulator and the real-socket UDP
transports — and holds every cell to the same contract:

1. **payload byte-equality** — the receiver reassembles exactly the
   bytes the sender offered;
2. **termination** — under a *bounded* plan (finite fault budget) the
   transfer completes; bounded retry counts turn livelock into a
   visible failure rather than a hang;
3. **analytic frame bound** — data frames sent stay within
   ``packets × (1 + budget + slack)``: each injected fault can cost at
   most one extra round, and a round retransmits at most the full
   working set (the paper's worst-case full-retransmission strategy).

Cells are independent and picklable, so the sweep parallelises through
:class:`repro.parallel.pool.ExperimentPool`.  Report rows for the DES
substrate include the deterministic frame/round counts; UDP rows carry
only the pass/fail verdicts (wall-clock timing makes socket-side counts
run-dependent), so the rendered report is byte-identical across runs
with equal seeds — the property the golden ledger in
``benchmarks/results/conformance_matrix.txt`` locks in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..parallel.pool import ExperimentPool, mix_seed
from .plan import FaultPlan
from .plans import BUILTIN_PLANS, builtin_plan_names

__all__ = [
    "COMBOS",
    "FAIRNESS_FLOWS",
    "FAIRNESS_PLANS",
    "SUBSTRATES",
    "CellResult",
    "FairnessCellResult",
    "FairnessResult",
    "MatrixResult",
    "build_specs",
    "render_fairness_report",
    "render_report",
    "run_fairness_matrix",
    "run_matrix",
]

#: (protocol, strategy) pairs — strategies apply to the blast family.
COMBOS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("stop_and_wait", None),
    ("sliding_window", None),
    ("blast", "full_no_nak"),
    ("blast", "full_nak"),
    ("blast", "gobackn"),
    ("blast", "selective"),
)

SUBSTRATES: Tuple[str, ...] = ("des", "udp")

#: Extra rounds tolerated beyond the per-fault worst case (startup,
#: timer quantisation, final-ack repair).
SLACK_ROUNDS = 3

DEFAULT_SEED = 7
DEFAULT_SIZE_BYTES = 8 * 1024 + 137  # nine packets, ragged tail


@dataclass(frozen=True)
class CellResult:
    """Verdict for one (substrate, protocol, strategy, plan) cell."""

    substrate: str
    protocol: str
    strategy: Optional[str]
    plan: str
    ok: bool
    intact: bool
    terminated: bool
    within_bound: bool
    frames: int
    rounds: int
    bound: int
    error: str = ""

    @property
    def passed(self) -> bool:
        return self.ok and self.intact and self.terminated and self.within_bound


@dataclass(frozen=True)
class MatrixResult:
    """The full sweep: all cells plus the rendered report."""

    cells: Tuple[CellResult, ...]
    report: str

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def failures(self) -> List[CellResult]:
        return [cell for cell in self.cells if not cell.passed]


def _payload(seed: int, size: int) -> bytes:
    """Deterministic pseudo-random transfer body."""
    return random.Random(mix_seed(seed, 0)).randbytes(size)


def _frame_bound(packets: int, plan: FaultPlan) -> int:
    """Worst-case data frames for a bounded plan (0 = unbounded/skip)."""
    budget = plan.fault_budget()
    if budget == float("inf"):
        return 0
    return int(packets * (1 + budget + SLACK_ROUNDS))


def _run_des_cell(
    protocol: str,
    strategy: Optional[str],
    plan: FaultPlan,
    seed: int,
    size: int,
) -> dict:
    from ..core.runner import run_transfer
    from .scripted import ScriptedErrors

    data = _payload(seed, size)
    kwargs = {} if strategy is None else {"strategy": strategy}
    model = ScriptedErrors(plan, seed=seed)
    try:
        result = run_transfer(protocol, data, error_model=model, **kwargs)
    except RuntimeError as exc:
        return {
            "ok": False, "intact": False, "terminated": False,
            "frames": 0, "rounds": 0, "error": f"did not terminate: {exc}",
        }
    return {
        "ok": bool(result.ok),
        "intact": bool(result.data_intact),
        "terminated": True,
        "frames": int(result.stats.data_frames_sent),
        "rounds": int(result.stats.rounds),
        "error": "" if result.ok else "transfer reported failure",
    }


def _run_udp_cell(
    protocol: str,
    strategy: Optional[str],
    plan: FaultPlan,
    seed: int,
    size: int,
) -> dict:
    import json
    import threading

    from ..core.runner import PROTOCOLS
    from ..service.clientpump import UdpClientPump
    from ..service.engine import ServiceConfig
    from ..service.udpservice import UdpTransferService

    name = PROTOCOLS[protocol].machine  # the service's protocol name
    config = ServiceConfig(
        protocol=name, strategy=strategy or "gobackn",
        # The sliding window never closes, as the paper assumes.
        window=size // 1024 + 1, max_rounds=60,
        timeout_s=0.1 if name == "blast" else 0.05)
    # One pull; the plan sits on the data sender's socket, the server's.
    service = UdpTransferService(config, fault_plan=plan, fault_seed=seed)
    served = []
    thread = threading.Thread(
        target=lambda: served.append(service.serve(expected_streams=1,
                                                   duration_s=30.0)),
        daemon=True)
    thread.start()
    # The client lingers past several retransmission timers, so a lost
    # final reply is repaired rather than raced.
    pump = UdpClientPump(service.address, [size], protocol=name,
                         strategy=config.strategy, linger_s=0.5)
    try:
        pull = pump.run(overall_timeout_s=40.0).get(1)
    finally:
        service.stop()
        thread.join(timeout=10.0)
        service.close()
    sent = json.loads(service.report_json())["transfers"]
    sent = sent[0] if sent else {"ok": False, "data_frames": 0, "rounds": 0,
                                 "error": "the pull was never admitted"}
    intact = pull is not None and pull.ok
    return {
        "ok": bool(sent["ok"]),
        "intact": intact,
        "terminated": served == [True],
        "frames": int(sent["data_frames"]),
        "rounds": int(sent["rounds"]),
        "error": sent["error"] or ("" if intact else "payload mismatch"),
    }


def _run_cell_spec(
        spec: Tuple[str, str, Optional[str], FaultPlan, int, int]) -> dict:
    """Module-level worker (ExperimentPool boundary: must be picklable)."""
    substrate, protocol, strategy, plan, seed, size = spec
    if substrate == "des":
        raw = _run_des_cell(protocol, strategy, plan, seed, size)
    elif substrate == "udp":
        raw = _run_udp_cell(protocol, strategy, plan, seed, size)
    else:
        raise ValueError(f"unknown substrate {substrate!r}")
    packets = (size + 1024 - 1) // 1024
    bound = _frame_bound(packets, plan)
    within = bound == 0 or not raw["terminated"] or raw["frames"] <= bound
    return {
        "substrate": substrate,
        "protocol": protocol,
        "strategy": strategy,
        "plan": plan.name,
        "bound": bound,
        "within_bound": bool(within),
        **raw,
    }


def build_specs(
    plans: Optional[Sequence[FaultPlan]] = None,
    substrates: Sequence[str] = SUBSTRATES,
    seed: int = DEFAULT_SEED,
    size_bytes: int = DEFAULT_SIZE_BYTES,
) -> List[Tuple[str, str, Optional[str], FaultPlan, int, int]]:
    """Enumerate the matrix cells in canonical (report) order."""
    if plans is None:
        plans = [BUILTIN_PLANS[name] for name in builtin_plan_names()]
    for substrate in substrates:
        if substrate not in SUBSTRATES:
            raise ValueError(
                f"unknown substrate {substrate!r}; choose from {SUBSTRATES}"
            )
    return [
        (substrate, protocol, strategy, plan, seed, size_bytes)
        for substrate in substrates
        for protocol, strategy in COMBOS
        for plan in plans
    ]


def run_matrix(
    plans: Optional[Sequence[FaultPlan]] = None,
    substrates: Sequence[str] = SUBSTRATES,
    seed: int = DEFAULT_SEED,
    size_bytes: int = DEFAULT_SIZE_BYTES,
    n_jobs: int = 1,
) -> MatrixResult:
    """Run the conformance sweep; deterministic report for equal seeds."""
    specs = build_specs(plans, substrates, seed, size_bytes)
    rows = ExperimentPool(n_jobs).map_shards(_run_cell_spec, specs)
    cells = tuple(CellResult(**row) for row in rows)
    report = render_report(cells, seed=seed, size_bytes=size_bytes)
    return MatrixResult(cells=cells, report=report)


# -- multi-flow fairness ----------------------------------------------------

#: Concurrent-flow counts swept by the fairness matrix.
FAIRNESS_FLOWS: Tuple[int, ...] = (2, 4, 8)

#: Builtin plans whose faults are spread across the run rather than
#: concentrated on the head of the frame stream — a head-targeted plan
#: (drop-data-head) taxes whichever flow happens to start first, which
#: measures the plan's aim, not the scheduler's fairness.
FAIRNESS_PLANS: Tuple[str, ...] = (
    "clean",
    "corrupt-sprinkle",
    "delay-spike",
    "random-mayhem",
)

FAIRNESS_SIZE_BYTES = 64 * 1024
#: Loopback moves a 64 KiB body in about 12 ms, less than one
#: retransmission timeout, so at that size whichever flow a fault hits
#: decides the index (Jain 0.65-0.8 measured).  UDP flows pull a body
#: long enough to amortise the plans' fault budgets, as 64 KiB does in
#: simulated time.
FAIRNESS_UDP_SIZE_BYTES = 2 * 1024 * 1024
FAIRNESS_TIMEOUT_S = 0.05
FAIRNESS_MAX_ROUNDS = 200
#: Minimum acceptable Jain index over per-flow goodput.
FAIRNESS_JAIN_MIN = 0.9


@dataclass(frozen=True)
class FairnessCellResult:
    """Verdict for one (substrate, flow count, plan) fairness cell."""

    substrate: str
    flows: int
    plan: str
    ok: bool
    jain: float
    ok_flows: int
    failed_flows: int
    retransmits: int
    error: str = ""

    @property
    def passed(self) -> bool:
        return self.ok and self.jain >= FAIRNESS_JAIN_MIN


@dataclass(frozen=True)
class FairnessResult:
    """The fairness sweep: all cells plus the rendered report."""

    cells: Tuple[FairnessCellResult, ...]
    report: str

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def failures(self) -> List[FairnessCellResult]:
        return [cell for cell in self.cells if not cell.passed]


@dataclass(frozen=True)
class FairnessSpec:
    """One fairness cell — a picklable spec for the pool."""

    substrate: str
    flows: int
    plan: FaultPlan
    seed: int


def _fairness_config():
    from ..service.engine import ServiceConfig

    return ServiceConfig(
        protocol="sliding",
        window=8,
        congestion="reno",
        policy="rr",
        timeout_s=FAIRNESS_TIMEOUT_S,
        max_rounds=FAIRNESS_MAX_ROUNDS,
    )


def _run_des_fairness(flows: int, plan: FaultPlan, seed: int) -> dict:
    from ..congestion.fairness import jain_index
    from ..service.loadgen import run_des_loadgen
    from .scripted import ScriptedErrors

    result = run_des_loadgen(
        flows,
        config=_fairness_config(),
        size_bytes=FAIRNESS_SIZE_BYTES,
        arrivals="simultaneous",
        error_model=ScriptedErrors(plan, seed=seed),
    )
    goodputs = [
        row["bytes"] / row["completion_s"]
        for row in result.report["transfers"]
        if row["ok"] and row["completion_s"]
    ]
    summary = result.report["summary"]
    ok = (summary["ok"] == flows and summary["failed"] == 0
          and result.payloads_ok)
    return {
        "ok": ok,
        "jain": round(jain_index(goodputs), 6) if goodputs else 0.0,
        "ok_flows": summary["ok"],
        "failed_flows": flows - summary["ok"],
        "retransmits": summary["retransmits"],
        "error": "" if ok else "not all flows completed intact",
    }


def _run_udp_fairness(flows: int, plan: FaultPlan, seed: int) -> dict:
    from ..congestion.fairness import jain_index
    from ..service.loadgen import run_udp_loadgen

    result = run_udp_loadgen(
        flows,
        config=_fairness_config(),
        size_bytes=FAIRNESS_UDP_SIZE_BYTES,
        fault_plan=plan,
        fault_seed=seed,
    )
    pulls = result.pulls
    goodputs = [
        pull.size_bytes / pull.elapsed_s
        for pull in pulls.values()
        if pull.ok and pull.elapsed_s > 0
    ]
    ok_flows = sum(1 for pull in pulls.values() if pull.ok)
    ok = ok_flows == flows
    return {
        "ok": ok,
        "jain": round(jain_index(goodputs), 6) if goodputs else 0.0,
        "ok_flows": ok_flows,
        "failed_flows": flows - ok_flows,
        "retransmits": 0,
        "error": "" if ok else "not all flows completed intact",
    }


def _run_fairness_spec(spec: FairnessSpec) -> dict:
    """Module-level worker (ExperimentPool boundary: must be picklable)."""
    if spec.substrate == "des":
        raw = _run_des_fairness(spec.flows, spec.plan, spec.seed)
    elif spec.substrate == "udp":
        raw = _run_udp_fairness(spec.flows, spec.plan, spec.seed)
    else:
        raise ValueError(f"unknown substrate {spec.substrate!r}")
    return {
        "substrate": spec.substrate,
        "flows": spec.flows,
        "plan": spec.plan.name,
        **raw,
    }


def run_fairness_matrix(
    flows: Sequence[int] = FAIRNESS_FLOWS,
    plan_names: Sequence[str] = FAIRNESS_PLANS,
    substrates: Sequence[str] = SUBSTRATES,
    seed: int = DEFAULT_SEED,
    n_jobs: int = 1,
) -> FairnessResult:
    """Sweep flows × plan × substrate under the Reno sliding service.

    Every flow pulls the same body size simultaneously through one
    shared service (round-robin scheduler, Reno congestion control);
    the cell passes when every flow completes intact and Jain's index
    over per-flow goodput stays ≥ :data:`FAIRNESS_JAIN_MIN`.  DES cells
    are deterministic — their Jain values are printed and golden-pinned;
    UDP cells are wall-clock, so only their verdicts are printed.
    """
    plans = [BUILTIN_PLANS[name] for name in plan_names]
    specs = [
        FairnessSpec(
            substrate=substrate,
            flows=count,
            plan=plan,
            seed=mix_seed(mix_seed(seed, count), index),
        )
        for substrate in substrates
        for count in flows
        for index, plan in enumerate(plans)
    ]
    rows = ExperimentPool(n_jobs).map_shards(_run_fairness_spec, specs)
    cells = tuple(FairnessCellResult(**row) for row in rows)
    report = render_fairness_report(cells, seed=seed)
    return FairnessResult(cells=cells, report=report)


def render_fairness_report(
    cells: Sequence[FairnessCellResult], seed: int
) -> str:
    """Fixed-order fairness section, byte-stable across equal-seed runs."""
    lines = [
        "# multi-flow fairness: Jain's index over per-flow goodput",
        "# config: protocol=sliding window=8 congestion=reno policy=rr"
        f" timeout_s={FAIRNESS_TIMEOUT_S}",
        f"# seed={seed} size_bytes={FAIRNESS_SIZE_BYTES}"
        f" udp_size_bytes={FAIRNESS_UDP_SIZE_BYTES}"
        f" jain_min={FAIRNESS_JAIN_MIN}",
        "# columns: substrate flows plan verdict ok failed retx jain",
    ]
    for cell in cells:
        verdict = "PASS" if cell.passed else "FAIL"
        if cell.substrate == "des":
            counts = (f"{cell.ok_flows} {cell.failed_flows}"
                      f" {cell.retransmits} {cell.jain:.6f}")
        else:
            counts = "- - - -"  # wall-clock substrate: values vary run to run
        lines.append(
            f"{cell.substrate} {cell.flows} {cell.plan} {verdict} {counts}"
        )
    failures = sum(1 for cell in cells if not cell.passed)
    lines.append(f"# fairness cells={len(cells)} failures={failures}")
    return "\n".join(lines) + "\n"


def render_report(
    cells: Sequence[CellResult], seed: int, size_bytes: int
) -> str:
    """Fixed-order plain-text matrix, byte-stable across equal-seed runs."""
    packets = (size_bytes + 1024 - 1) // 1024
    lines = [
        "# fault-injection conformance matrix",
        f"# seed={seed} size_bytes={size_bytes} packets={packets} "
        f"slack_rounds={SLACK_ROUNDS}",
        "# columns: substrate protocol strategy plan verdict intact "
        "terminated within_bound frames rounds bound",
    ]
    for cell in cells:
        verdict = "PASS" if cell.passed else "FAIL"
        if cell.substrate == "des":
            counts = f"{cell.frames} {cell.rounds} {cell.bound}"
        else:
            counts = "- - -"  # wall-clock substrate: counts vary run to run
        lines.append(
            f"{cell.substrate} {cell.protocol} {cell.strategy or '-'} "
            f"{cell.plan} {verdict} "
            f"{'yes' if cell.intact else 'NO'} "
            f"{'yes' if cell.terminated else 'NO'} "
            f"{'yes' if cell.within_bound else 'NO'} {counts}"
        )
    failures = sum(1 for cell in cells if not cell.passed)
    lines.append(f"# cells={len(cells)} failures={failures}")
    return "\n".join(lines) + "\n"
