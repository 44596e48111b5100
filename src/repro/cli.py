"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compare   run all protocols on one transfer size, print the comparison
table     regenerate a paper table (1, 2 or 3)
figure    regenerate a paper figure (3, 4, 5 or 6)
timeline  ASCII timeline of one transfer (the Figure 3 view)
udp       real-socket transfer over UDP loopback (recv / send)
regen     regenerate every paper table/figure into a directory
moveto    V-kernel MoveTo demonstration
faults    fault-injection conformance matrix across DES and UDP
serve     concurrent transfer service on one UDP endpoint
cluster   sharded multi-process service cluster (UDP or DES)
loadgen   drive N concurrent clients (DES or loopback UDP)
congestion  goodput-vs-loss sweep for the congestion controllers

Examples
--------
::

    python -m repro compare --size 65536
    python -m repro table 2
    python -m repro figure 5
    python -m repro --jobs 4 figure 6
    python -m repro timeline --protocol blast --packets 3
    python -m repro udp recv --port 47000
    python -m repro udp send 127.0.0.1:47000 --size 65536 --loss 0.05
    python -m repro regen --jobs 4
    python -m repro moveto --size 65536 --error-p 1e-4
    python -m repro --jobs 4 faults
    python -m repro faults --substrate des --plans drop-replies,dup-burst
    python -m repro faults --list-plans
    python -m repro --jobs 4 faults --fairness
    python -m repro serve --once 16 --policy rr --report json
    python -m repro serve --once 16 --congestion reno
    python -m repro cluster --workers 4 --clients 16 --policy rr --report table
    python -m repro cluster --placement reuseport --workers 2 --clients 8
    python -m repro --jobs 4 cluster --mode des --check benchmarks/results/cluster_scaling.txt
    python -m repro loadgen --clients 8 --congestion auto --report table
    python -m repro --jobs 4 congestion --check benchmarks/results/congestion_sweep.txt
    python -m repro loadgen --clients 16 --arrivals poisson --report table
    python -m repro loadgen --mode udp --clients 3 --server 127.0.0.1:47000

The global ``--jobs N`` flag fans Monte Carlo work across ``N`` worker
processes (``-1`` = one per CPU).  Seed sharding is deterministic, so
the output is byte-identical for every worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _parse_size(text: str) -> int:
    """Parse '65536', '64K', '4M' into bytes."""
    text = text.strip().upper()
    factor = 1
    if text.endswith("K"):
        factor, text = 1024, text[:-1]
    elif text.endswith("M"):
        factor, text = 1024 * 1024, text[:-1]
    try:
        value = int(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("size must be >= 0")
    return value


def _parse_address(text: str) -> tuple:
    """Parse 'HOST:PORT' (':PORT' is 127.0.0.1) into a socket address."""
    host, colon, port = text.rpartition(":")
    if not (colon and port.isdecimal() and 1 <= int(port) <= 65535):
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in 1-65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def _at_least(minimum: int):
    """An ``int`` type refusing values below ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _port(text: str) -> int:
    """A port to bind: 0 (any free port) to 65535."""
    value = _at_least(0)(text)
    if value > 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port in 0-65535, got {value}")
    return value


def _counts(text: str) -> tuple:
    """Parse 'N[,N...]' into positive ints."""
    return tuple(_at_least(1)(part) for part in text.split(","))


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {text}")
    return value


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return text


def _fault_plan(text: str):
    """A builtin fault plan by name; the fault package is imported only
    when the flag is given."""
    from .faults.plans import builtin_plan

    try:
        return builtin_plan(text.strip())
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _fault_plans(text: str) -> list:
    return [_fault_plan(name) for name in text.split(",")]


def _params(name: str):
    from .simnet import NetworkParams

    factories = {
        "standalone": NetworkParams.standalone,
        "observed": lambda: NetworkParams.standalone(observed=True),
        "vkernel": NetworkParams.vkernel,
        "dbuf": lambda: NetworkParams.standalone().with_double_buffering(),
    }
    return factories[name]()


_CONGESTION_HELP_TUNER = (
    "congestion controller (default: fixed; 'auto' adds the "
    "per-transfer tuner)"
)


def _add_service_options(sub, congestion_help: str) -> None:
    """``--protocol --policy --congestion`` of serve, cluster and loadgen."""
    sub.add_argument(
        "--protocol", choices=["blast", "sliding", "saw"], default="blast"
    )
    sub.add_argument(
        "--policy", choices=["fifo", "rr", "copy-budget"], default="fifo",
        help="scheduler policy",
    )
    sub.add_argument(
        "--congestion", choices=["fixed", "reno", "auto"], default=None,
        help=congestion_help,
    )


def _add_server_options(sub) -> None:
    """The ``ServiceConfig`` knobs of the commands that start a server."""
    sub.add_argument("--max-active", type=_at_least(1), default=8)
    sub.add_argument("--max-queue", type=_at_least(0), default=64)
    sub.add_argument("--window", type=_at_least(1), default=4)
    sub.add_argument("--seed", type=int, default=7)


def _add_fault_options(sub, plan_help: str) -> None:
    sub.add_argument("--fault-plan", metavar="NAME", type=_fault_plan,
                     help=plan_help)
    sub.add_argument("--fault-seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zwaenepoel 1985 large-transfer protocols: experiments and transports",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for stochastic experiments "
             "(-1 = one per CPU; results are identical for any N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run all protocols on one size")
    compare.add_argument("--size", type=_parse_size, default=64 * 1024)
    compare.add_argument(
        "--params", choices=["standalone", "observed", "vkernel", "dbuf"],
        default="standalone",
    )
    compare.add_argument("--error-p", type=_probability, default=0.0)
    compare.add_argument("--runs", type=_at_least(1), default=1)
    compare.add_argument("--seed", type=int, default=0)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=[1, 2, 3])

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=[3, 4, 5, 6])

    timeline = sub.add_parser("timeline", help="ASCII timeline of a transfer")
    timeline.add_argument(
        "--protocol", choices=["stop_and_wait", "sliding_window", "blast"],
        default="blast",
    )
    timeline.add_argument("--packets", type=_at_least(0), default=3)
    timeline.add_argument("--width", type=int, default=68)

    udp = sub.add_parser("udp", help="real UDP transfer (loopback or LAN)")
    udp_sub = udp.add_subparsers(dest="udp_command", required=True)
    recv = udp_sub.add_parser("recv", help="receive one transfer")
    recv.add_argument("--port", type=_port, default=0)
    recv.add_argument("--host", default="127.0.0.1")
    recv.add_argument(
        "--protocol", choices=["blast", "perpacket"], default="blast"
    )
    send = udp_sub.add_parser("send", help="send one transfer")
    send.add_argument("destination", type=_parse_address,
                      help="HOST:PORT of the receiver")
    send.add_argument("--size", type=_parse_size, default=64 * 1024)
    send.add_argument(
        "--protocol", choices=["blast", "saw", "sw"], default="blast"
    )
    send.add_argument(
        "--strategy",
        choices=["full_no_nak", "full_nak", "gobackn", "selective"],
        default="gobackn",
    )
    send.add_argument("--loss", type=_probability, default=0.0)
    send.add_argument("--seed", type=int, default=0)

    regen = sub.add_parser(
        "regen", help="regenerate every paper table/figure into a directory"
    )
    regen.add_argument("--out", default="results")
    regen.add_argument(
        "--jobs", type=int, default=None, dest="regen_jobs", metavar="N",
        help="worker processes (overrides the global --jobs)",
    )

    faults = sub.add_parser(
        "faults", help="run the fault-injection conformance matrix"
    )
    faults.add_argument(
        "--substrate", choices=["des", "udp", "both"], default="both",
        help="which execution substrate(s) to sweep (default: both)",
    )
    faults.add_argument(
        "--plans", metavar="NAMES", type=_fault_plans,
        help="comma-separated builtin plan names (default: all)",
    )
    faults.add_argument(
        "--list-plans", action="store_true",
        help="list the builtin fault plans and exit",
    )
    faults.add_argument("--seed", type=int, default=7)
    faults.add_argument("--size", type=_parse_size, default=8 * 1024 + 137)
    faults.add_argument(
        "--fairness", action="store_true",
        help="append the multi-flow fairness section (Jain's index over "
             "per-flow goodput under the Reno sliding service)",
    )
    faults.add_argument(
        "--out", metavar="PATH",
        help="also write the matrix report to PATH",
    )

    serve = sub.add_parser(
        "serve", help="run the concurrent transfer service on UDP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=0)
    _add_service_options(serve, _CONGESTION_HELP_TUNER)
    _add_server_options(serve)
    serve.add_argument(
        "--once", type=int, metavar="N",
        help="exit after N transfers have settled",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="exit after this long even if transfers remain",
    )
    serve.add_argument(
        "--report", choices=["json", "table", "none"], default="table",
        help="metrics report printed on exit (default: table)",
    )
    _add_fault_options(
        serve, "inject a builtin fault plan at the server socket"
    )

    cluster = sub.add_parser(
        "cluster", help="sharded multi-process service cluster"
    )
    cluster.add_argument(
        "--mode", choices=["udp", "des"], default="udp",
        help="real worker processes (udp) or the sharded DES sweep (des)",
    )
    cluster.add_argument("--workers", type=_at_least(1), default=2,
                        help="udp mode: worker processes (shards)")
    cluster.add_argument("--clients", type=_at_least(1), default=8,
                        help="udp mode: concurrent pulls to drive")
    cluster.add_argument(
        "--placement", choices=["hash", "reuseport"], default="hash",
        help="stream->shard mapping: deterministic rendezvous hash in "
             "the client, or one SO_REUSEPORT port (kernel picks)",
    )
    cluster.add_argument("--size", type=_parse_size, default=4096,
                        help="udp mode: per-transfer bytes")
    _add_service_options(cluster, "congestion controller (default: fixed)")
    _add_server_options(cluster)
    _add_fault_options(
        cluster,
        "replay a builtin fault plan at every worker socket "
        "(per-shard mixed seeds)",
    )
    cluster.add_argument(
        "--duration", type=float, default=30.0, metavar="SECONDS",
        help="udp mode: worker serve bound (hard timeout)",
    )
    cluster.add_argument(
        "--no-restart", action="store_true",
        help="udp mode: mark a dead worker degraded instead of "
             "restarting it once",
    )
    cluster.add_argument(
        "--report", choices=["json", "canonical", "table", "none"],
        default="table",
        help="merged cluster report printed on exit (canonical = the "
             "placement-independent byte-stable projection)",
    )
    cluster.add_argument(
        "--flows", metavar="N[,N...]", type=_counts,
        help="des mode: comma-separated flow counts "
             "(default: the committed 256..10240 sweep)",
    )
    cluster.add_argument(
        "--out", metavar="PATH",
        help="des mode: also write the scaling ledger to PATH",
    )
    cluster.add_argument(
        "--check", metavar="PATH", type=_existing_file,
        help="des mode: diff the ledger against a committed golden",
    )

    loadgen = sub.add_parser(
        "loadgen", help="drive N concurrent clients against the service"
    )
    loadgen.add_argument(
        "--mode", choices=["des", "udp"], default="des",
        help="simulated clients (des) or threaded loopback clients (udp)",
    )
    loadgen.add_argument(
        "--server", metavar="HOST:PORT", type=_parse_address,
        help="udp mode: pull from this already-running service "
             "(default: spawn one in-process)",
    )
    loadgen.add_argument("--clients", type=_at_least(1), default=4)
    loadgen.add_argument(
        "--sizes", choices=["fixed", "paper-table", "page-cluster", "file-mix"],
        default="fixed", help="transfer-size workload (repro.workloads)",
    )
    loadgen.add_argument("--size", type=_parse_size, default=4096,
                         help="per-transfer bytes for --sizes fixed")
    loadgen.add_argument(
        "--arrivals", choices=["simultaneous", "uniform", "poisson"],
        default="simultaneous", help="des mode: arrival pattern",
    )
    loadgen.add_argument("--span", type=float, default=1.0,
                         help="des mode: arrival window (seconds)")
    _add_service_options(loadgen, _CONGESTION_HELP_TUNER)
    loadgen.add_argument("--workload-seed", type=int, default=0)
    loadgen.add_argument(
        "--report", choices=["json", "table", "none"], default="table"
    )

    congestion = sub.add_parser(
        "congestion",
        help="goodput-vs-loss sweep for the congestion controllers",
    )
    congestion.add_argument("--seed", type=int, default=7)
    congestion.add_argument(
        "--out", metavar="PATH",
        help="also write the sweep ledger to PATH",
    )
    congestion.add_argument(
        "--check", metavar="PATH", type=_existing_file,
        help="diff this run's ledger against a committed golden",
    )

    moveto = sub.add_parser("moveto", help="V-kernel MoveTo demo")
    moveto.add_argument("--size", type=_parse_size, default=64 * 1024)
    moveto.add_argument("--error-p", type=_probability, default=0.0)
    moveto.add_argument(
        "--strategy",
        choices=["full_no_nak", "full_nak", "gobackn", "selective"],
        default="gobackn",
    )

    return parser


# -- command implementations ----------------------------------------------

def _cmd_compare(args) -> int:
    from .bench.tables import ExperimentTable, format_ms
    from .core import run_many, run_transfer

    params = _params(args.params)
    table = ExperimentTable(
        f"{args.size} bytes, params={args.params}, p_n={args.error_p}",
        ["protocol", "mean (ms)", "std (ms)", "intact"],
    )
    data = bytes(args.size)
    for protocol in ("stop_and_wait", "sliding_window", "blast"):
        if args.runs == 1 and args.error_p == 0.0:
            result = run_transfer(protocol, data, params=params)
            table.add_row(protocol, format_ms(result.elapsed_s), "-",
                          result.data_intact)
        else:
            summary = run_many(
                protocol, data, error_p=args.error_p, n_runs=args.runs,
                params=params, seed=args.seed, n_jobs=args.jobs,
            )
            table.add_row(protocol, format_ms(summary.mean_s),
                          format_ms(summary.std_s), summary.all_intact)
    print(table.render())
    return 0


def _cmd_experiment(args) -> int:
    """``repro table N`` / ``repro figure N``: the registry's table or
    figure, printed without a plot."""
    from .bench.registry import build_experiment

    print(build_experiment(f"{args.command}{args.number}", args.jobs).render())
    return 0


def _cmd_timeline(args) -> int:
    from .core import run_transfer
    from .simnet import NetworkParams, TraceRecorder

    trace = TraceRecorder()
    run_transfer(
        args.protocol,
        bytes(args.packets * 1024),
        params=NetworkParams.standalone(propagation_delay_s=0.0),
        trace=trace,
    )
    try:
        timeline = trace.render_ascii(width=args.width)
    except ValueError as exc:   # the narrowest width depends on the trace
        print(f"repro timeline: error: argument --width: {exc}",
              file=sys.stderr)
        raise SystemExit(2) from None
    print(f"{args.protocol}, N={args.packets}  "
          "('#' = processor copy, '=' = wire)")
    print(timeline)
    return 0


def _cmd_udp(args) -> int:
    from .simnet import BernoulliErrors
    from .udpnet import UdpTransfer

    if args.udp_command == "recv":
        # One receiver serves both per-packet-ack protocols.
        protocol = "saw" if args.protocol == "perpacket" else "blast"
        with UdpTransfer(bind=(args.host, args.port)) as receiver:
            host, port = receiver.address
            print(f"listening on {host}:{port} ({args.protocol})", flush=True)
            outcome = receiver.serve_one(protocol=protocol,
                                         first_timeout_s=300.0)
        if not outcome.ok:
            print(f"receive failed: {outcome.error}")
            return 1
        print(f"received {outcome.payload_bytes} bytes in "
              f"{outcome.elapsed_s * 1e3:.1f} ms "
              f"({outcome.throughput_bps / 1e6:.1f} Mb/s, "
              f"{outcome.duplicates} duplicates)")
        return 0

    error_model = BernoulliErrors(args.loss, seed=args.seed) if args.loss else None
    protocol = "sliding" if args.protocol == "sw" else args.protocol
    with UdpTransfer(error_model=error_model) as sender:
        outcome = sender.send(bytes(args.size), args.destination,
                              protocol=protocol, strategy=args.strategy)
    if not outcome.ok:
        print(f"send failed: {outcome.error}")
        return 1
    print(f"sent {outcome.payload_bytes} bytes in {outcome.elapsed_s * 1e3:.1f} ms "
          f"({outcome.data_frames_sent} data frames, "
          f"{outcome.retransmissions} retransmissions)")
    return 0


def _cmd_regen(args) -> int:
    from .bench import regenerate_all

    n_jobs = args.regen_jobs if args.regen_jobs is not None else args.jobs
    written = regenerate_all(args.out, n_jobs=n_jobs)
    for experiment_id, path in sorted(written.items()):
        print(f"wrote {path}")
    print(f"{len(written)} artifacts regenerated")
    return 0


def _cmd_faults(args) -> int:
    from .faults.conformance import SUBSTRATES, run_matrix
    from .faults.plans import builtin_plan_names

    if args.list_plans:
        from .faults.plans import BUILTIN_PLANS

        for name in builtin_plan_names():
            plan = BUILTIN_PLANS[name]
            budget = plan.fault_budget()
            print(f"{name:18s} budget={budget:>4.0f}  {plan.description}")
        return 0
    substrates = SUBSTRATES if args.substrate == "both" else (args.substrate,)
    matrix = run_matrix(
        plans=args.plans,
        substrates=substrates,
        seed=args.seed,
        size_bytes=args.size,
        n_jobs=args.jobs,
    )
    report = matrix.report
    passed = matrix.all_passed
    if args.fairness:
        from .faults.conformance import run_fairness_matrix

        fairness = run_fairness_matrix(
            substrates=substrates, seed=args.seed, n_jobs=args.jobs
        )
        report = report + "\n" + fairness.report
        passed = passed and fairness.all_passed
    print(report, end="")
    _write_and_check(report, args)
    return 0 if passed else 1


def _write_and_check(report: str, args) -> bool:
    """Write ``report`` to ``--out`` and compare it with ``--check``.

    Returns False only when the ``--check`` golden differs.
    """
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    check = getattr(args, "check", None)
    if check:
        with open(check, "r", encoding="utf-8") as handle:
            golden = handle.read()
        if report != golden:
            print(f"MISMATCH against {check}")
            return False
        print(f"matches {check}")
    return True


def _service_config(args):
    """Build a ServiceConfig from serve/cluster/loadgen flags."""
    from .service import ServiceConfig

    kwargs = dict(protocol=args.protocol, policy=args.policy,
                  congestion=args.congestion or "fixed")
    if hasattr(args, "max_active"):
        kwargs.update(max_active=args.max_active, max_queue=args.max_queue,
                      window=args.window, seed=args.seed)
    return ServiceConfig(**kwargs)


def _install_stop_handlers(stop) -> None:
    """SIGTERM/SIGINT -> graceful stop (drain grants, flush the report).

    Signal handlers only install from the main thread; anywhere else
    (tests driving main() from a worker thread) the caller keeps the
    default KeyboardInterrupt behaviour.
    """
    import signal

    def _request_stop(signum, frame):
        stop()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    except ValueError:  # pragma: no cover - non-main-thread caller
        pass


def _cmd_serve(args) -> int:
    from .service import UdpTransferService

    config = _service_config(args)
    service = UdpTransferService(
        config, bind=(args.host, args.port),
        fault_plan=args.fault_plan, fault_seed=args.fault_seed,
    )
    _install_stop_handlers(service.stop)
    host, port = service.address
    print(f"serving on {host}:{port} "
          f"({config.protocol}, policy={config.policy}, "
          f"congestion={config.congestion})", flush=True)
    try:
        completed = service.serve(expected_streams=args.once,
                                  duration_s=args.duration)
    except KeyboardInterrupt:  # pragma: no cover - non-main-thread only
        completed = False
    finally:
        service.sock.close()
    if args.report == "json":
        print(service.report_json(), end="")
    elif args.report == "table":
        print(service.report_table())
    return 0 if (args.once is None or completed) else 1


def _cmd_cluster(args) -> int:
    if args.mode == "des":
        from .cluster import CLUSTER_SWEEP_FLOWS, run_cluster_sweep

        sweep = run_cluster_sweep(flows=args.flows or CLUSTER_SWEEP_FLOWS,
                                  n_jobs=args.jobs)
        print(sweep.report, end="")
        if not _write_and_check(sweep.report, args):
            return 1
        return 0 if sweep.all_ok else 1

    from .cluster import run_udp_cluster

    config = _service_config(args)
    result = run_udp_cluster(
        workers=args.workers,
        clients=args.clients,
        config=config,
        placement=args.placement,
        size_bytes=args.size,
        fault_plan=args.fault_plan,
        fault_seed=args.fault_seed,
        duration_s=args.duration,
        restart_limit=0 if args.no_restart else 1,
    )
    if args.report == "json":
        print(result.report.to_json(), end="")
    elif args.report == "canonical":
        print(result.report.canonical_json(), end="")
    elif args.report == "table":
        summary = result.report.summary()
        print(f"cluster: {result.workers} workers ({result.placement}), "
              f"{summary['shards']} shards, {summary['degraded']} degraded")
        for stream_id in sorted(result.pulls):
            pull = result.pulls[stream_id]
            print(f"stream {stream_id}: {pull.status} "
                  f"{pull.size_bytes} bytes payload_ok={pull.payload_ok}")
        print(f"{summary['ok']} ok, {summary['failed']} failed, "
              f"{summary['rejected']} rejected; "
              f"aggregate_goodput="
              f"{summary['aggregate_goodput_bytes_per_s']:.0f} B/s")
    return 0 if result.all_ok else 1


def _cmd_loadgen(args) -> int:
    config = _service_config(args)
    if args.mode == "des":
        from .service import run_des_loadgen

        result = run_des_loadgen(
            args.clients, config=config, sizes=args.sizes,
            size_bytes=args.size, arrivals=args.arrivals, span_s=args.span,
            workload_seed=args.workload_seed,
        )
        if args.report == "json":
            print(result.report_json, end="")
        elif args.report == "table":
            summary = result.report["summary"]
            print(f"{summary['ok']} ok, {summary['failed']} failed, "
                  f"{summary['rejected']} rejected; "
                  f"p50={summary['p50_completion_s'] * 1e3:.2f} ms "
                  f"p99={summary['p99_completion_s'] * 1e3:.2f} ms")
        return 0 if result.ok else 1

    if args.server:
        from .service.clientpump import UdpClientPump
        from .service.loadgen import make_sizes

        sizes = make_sizes(args.sizes, args.clients, size_bytes=args.size,
                           seed=args.workload_seed)
        pulls = UdpClientPump(args.server, sizes, protocol=args.protocol).run()
        for stream_id in sorted(pulls):
            pull = pulls[stream_id]
            print(f"stream {stream_id}: {pull.status} "
                  f"{pull.size_bytes} bytes payload_ok={pull.payload_ok}")
        return 0 if pulls and all(p.ok for p in pulls.values()) else 1

    from .service import run_udp_loadgen

    result = run_udp_loadgen(
        args.clients, config=config, sizes=args.sizes, size_bytes=args.size,
        workload_seed=args.workload_seed,
    )
    if args.report == "json":
        print(result.report_json, end="")
    elif args.report == "table":
        for stream_id in sorted(result.pulls):
            pull = result.pulls[stream_id]
            print(f"stream {stream_id}: {pull.status} "
                  f"{pull.size_bytes} bytes payload_ok={pull.payload_ok}")
    return 0 if result.all_ok else 1


def _cmd_congestion(args) -> int:
    from .congestion.sweep import run_congestion_sweep

    sweep = run_congestion_sweep(seed=args.seed, n_jobs=args.jobs)
    print(sweep.report, end="")
    if not _write_and_check(sweep.report, args):
        return 1
    return 0 if sweep.all_ok else 1


def _cmd_moveto(args) -> int:
    from .sim import Environment
    from .simnet import BernoulliErrors, NetworkParams, make_lan
    from .vkernel import VKernel

    env = Environment()
    error_model = BernoulliErrors(args.error_p, seed=0) if args.error_p else None
    host_a, host_b, medium = make_lan(
        env, NetworkParams.vkernel(), error_model=error_model
    )
    ka = VKernel(env, host_a, kernel_id=1)
    kb = VKernel(env, host_b, kernel_id=2)
    src = ka.create_process("src")
    dst = kb.create_process("dst")
    data = bytes(args.size)
    dst.allocate("buf", args.size)

    def body():
        start = env.now
        result = yield from ka.move_to(
            src, dst.ref, "buf", data, strategy=args.strategy
        )
        return env.now - start, result

    elapsed, result = env.run(env.process(body()))
    intact = dst.read_buffer("buf") == data
    print(f"MoveTo {args.size} bytes ({args.strategy}): "
          f"{elapsed * 1e3:.2f} ms simulated, "
          f"{result.stats.rounds if result else 1} round(s), "
          f"{medium.frames_dropped} frames lost, intact={intact}")
    return 0 if intact else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "compare": _cmd_compare,
        "table": _cmd_experiment,
        "figure": _cmd_experiment,
        "timeline": _cmd_timeline,
        "udp": _cmd_udp,
        "regen": _cmd_regen,
        "moveto": _cmd_moveto,
        "faults": _cmd_faults,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "loadgen": _cmd_loadgen,
        "congestion": _cmd_congestion,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
