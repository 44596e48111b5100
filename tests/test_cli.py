"""Tests for the command-line interface."""

import threading

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_size_suffixes(self):
        parser = build_parser()
        assert parser.parse_args(["compare", "--size", "64K"]).size == 65536
        assert parser.parse_args(["compare", "--size", "2M"]).size == 2 * 1024 * 1024
        assert parser.parse_args(["compare", "--size", "100"]).size == 100

    def test_bad_size_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["compare", "--size", "banana"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_global_jobs_flag(self):
        parser = build_parser()
        assert parser.parse_args(["figure", "5"]).jobs == 1
        assert parser.parse_args(["--jobs", "4", "figure", "5"]).jobs == 4
        assert parser.parse_args(["--jobs", "-1", "compare"]).jobs == -1

    def test_regen_flags(self):
        parser = build_parser()
        args = parser.parse_args(["regen"])
        assert args.regen_jobs is None
        args = parser.parse_args(["regen", "--jobs", "2"])
        assert args.regen_jobs == 2
        with pytest.raises(SystemExit):  # there is deliberately no cache
            parser.parse_args(["regen", "--no-cache"])

    @pytest.mark.parametrize("address", [
        "127.0.0.1", "localhost", "127.0.0.1:", "127.0.0.1:0",
        "127.0.0.1:65536", "127.0.0.1:http", "127.0.0.1:-5"])
    @pytest.mark.parametrize("command", [
        ["udp", "send"], ["loadgen", "--mode", "udp", "--server"]])
    def test_an_address_without_a_usable_port_is_a_usage_error(
            self, command, address, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, address])
        assert exit_info.value.code == 2
        assert "expected HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["faults", "--plans", "bogus"],
        ["faults", "--plans", "drop-replies,"],
        ["serve", "--fault-plan", "bogus"],
        ["cluster", "--fault-plan", "bogus"],
        ["congestion", "--check", "/nonexistent/golden.txt"],
        ["cluster", "--mode", "des", "--flows", "4",
         "--check", "/nonexistent/golden.txt"],
        ["loadgen", "--clients", "0"],
        ["cluster", "--workers", "0"],
        ["cluster", "--clients", "0"],
        ["cluster", "--mode", "des", "--flows", "0"],
        ["compare", "--runs", "0"],
        ["timeline", "--packets", "-1"],
        ["compare", "--error-p", "2"],
        ["moveto", "--error-p", "2"],
        ["udp", "send", "127.0.0.1:9", "--loss", "2"],
        ["serve", "--max-active", "0"],
        ["serve", "--window", "0"],
        ["serve", "--max-queue", "-1"],
        ["cluster", "--max-active", "0"],
        ["cluster", "--window", "0"],
        ["cluster", "--max-queue", "-1"],
        ["serve", "--port", "70000"],
        ["udp", "recv", "--port", "70000"],
        ["timeline", "--width", "0"],
        ["timeline", "--width", "8"],
    ], ids=" ".join)
    def test_a_bad_value_is_a_usage_error(self, argv, capsys):
        # One error line and no traceback.  Refused while parsing, so
        # nothing is bound or spawned first; only the timeline's width
        # waits for the trace, whose elapsed time sets the narrowest.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if ": error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"repro {argv[0]}")

    def test_addresses_parse_to_socket_addresses(self):
        parser = build_parser()
        send = parser.parse_args(["udp", "send", "10.0.0.2:47000"])
        assert send.destination == ("10.0.0.2", 47000)
        loadgen = parser.parse_args(["loadgen", "--server", ":65535"])
        assert loadgen.server == ("127.0.0.1", 65535)


class TestCompare:
    def test_error_free_compare(self, capsys):
        assert main(["compare", "--size", "16K"]) == 0
        out = capsys.readouterr().out
        assert "stop_and_wait" in out
        assert "blast" in out
        assert "True" in out

    def test_stochastic_compare(self, capsys):
        assert main(
            ["compare", "--size", "8K", "--error-p", "0.01", "--runs", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "blast" in out

    def test_stochastic_compare_jobs_invariant(self, capsys):
        argv = ["compare", "--size", "8K", "--error-p", "0.01", "--runs", "4"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(["--jobs", "2"] + argv) == 0
        assert capsys.readouterr().out == sequential

    def test_vkernel_params(self, capsys):
        assert main(["compare", "--size", "1K", "--params", "vkernel"]) == 0
        out = capsys.readouterr().out
        assert "5.89" in out  # T0(1) anchor


class TestArtifacts:
    @pytest.mark.parametrize("number,marker", [
        ("1", "Table 1"), ("2", "Table 2"), ("3", "Table 3"),
    ])
    def test_tables(self, capsys, number, marker):
        assert main(["table", number]) == 0
        assert marker in capsys.readouterr().out

    @pytest.mark.parametrize("number,marker", [
        ("3", "Figure 3"), ("4", "Figure 4"), ("5", "Figure 5"),
    ])
    def test_figures(self, capsys, number, marker):
        assert main(["figure", number]) == 0
        assert marker in capsys.readouterr().out

    def test_timeline(self, capsys):
        assert main(["timeline", "--protocol", "blast", "--packets", "2"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "=" in out


class TestMoveTo:
    def test_moveto_intact(self, capsys):
        assert main(["moveto", "--size", "4K"]) == 0
        assert "intact=True" in capsys.readouterr().out

    def test_moveto_with_errors(self, capsys):
        assert main(["moveto", "--size", "16K", "--error-p", "0.02",
                     "--strategy", "selective"]) == 0
        assert "intact=True" in capsys.readouterr().out


class TestUdp:
    def test_cli_recv_and_send(self, capsys):
        """Both CLI ends against each other, receiver in a thread."""
        import socket

        # Reserve a port by binding then closing (small race, fine here).
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        codes = {}

        def recv():
            codes["recv"] = main(["udp", "recv", "--port", str(port)])

        thread = threading.Thread(target=recv, daemon=True)
        thread.start()
        import time

        time.sleep(0.2)  # let the receiver bind
        codes["send"] = main(["udp", "send", f"127.0.0.1:{port}",
                              "--size", "4K"])
        thread.join(timeout=30)
        assert codes == {"recv": 0, "send": 0}
        out = capsys.readouterr().out
        assert "received 4096 bytes" in out
        assert "sent 4096 bytes" in out

    def test_send_recv_round_trip(self, capsys):
        from repro.udpnet import UdpTransfer

        # Bind the receiver ourselves to learn the port, then drive the
        # CLI sender against it.
        with UdpTransfer() as receiver:
            host, port = receiver.address
            box = {}

            def serve():
                box["outcome"] = receiver.serve_one()

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            code = main([
                "udp", "send", f"{host}:{port}", "--size", "8K",
                "--strategy", "selective",
            ])
            thread.join(timeout=30)
        assert code == 0
        assert box["outcome"].payload_bytes == 8192
        assert "sent 8192 bytes" in capsys.readouterr().out
