"""End-to-end tests of the wafe/mofe command line (subprocess level)."""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

WAFE = [sys.executable, "-c",
        "import sys; from repro.core.cli import main;"
        " sys.exit(main(['wafe'] + sys.argv[1:]))"]
SERVER = [sys.executable, "-m", "repro.server"]
MOFE = [sys.executable, "-c",
        "import sys; from repro.core.cli import motif_main;"
        " sys.exit(motif_main(['mofe'] + sys.argv[1:]))"]


def run_cli(base, args, stdin="", timeout=60):
    result = subprocess.run(base + args, input=stdin.encode(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, timeout=timeout)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


class TestFileMode:
    def test_file_mode_runs_script(self, tmp_path):
        script = tmp_path / "hello.wafe"
        script.write_text(
            "#!/usr/bin/X11/wafe --f\n"
            "label l topLevel label {Wafe new World}\n"
            "realize\n"
            "echo [gV l label]\n"
            "quit\n"
        )
        code, out, err = run_cli(WAFE, ["--f", str(script)])
        assert code == 0, err
        assert "Wafe new World" in out

    def test_bare_script_path_selects_file_mode(self, tmp_path):
        script = tmp_path / "s.wafe"
        script.write_text("echo [wafeVersion]\nquit\n")
        code, out, __ = run_cli(WAFE, [str(script)])
        assert code == 0
        assert "0.93-repro" in out

    def test_xrm_option_feeds_database(self, tmp_path):
        script = tmp_path / "s.wafe"
        script.write_text(
            "label l topLevel\n"
            "echo [gV l label]\n"
            "quit\n"
        )
        code, out, __ = run_cli(
            WAFE, ["-xrm", "*label: from-xrm", "--f", str(script)])
        assert code == 0
        assert "from-xrm" in out

    def test_motif_build_script(self, tmp_path):
        script = tmp_path / "m.wafe"
        script.write_text(
            "mLabel l topLevel labelString {hello motif}\n"
            "realize\n"
            "echo done\n"
            "quit\n"
        )
        code, out, __ = run_cli(MOFE, ["--f", str(script)])
        assert code == 0
        assert "done" in out


class TestInteractiveMode:
    def test_stdin_session(self):
        session = (
            "label l topLevel\n"
            "echo [getResourceList l r]\n"
            "quit\n"
        )
        code, out, __ = run_cli(WAFE, [], stdin=session)
        assert code == 0
        assert "42" in out

    def test_errors_do_not_kill_session(self):
        session = "bogus command here\necho still-alive\nquit\n"
        code, out, err = run_cli(WAFE, [], stdin=session)
        assert code == 0
        assert "still-alive" in out


class TestFrontendMode:
    def test_app_option_spawns_backend(self, tmp_path):
        backend = tmp_path / "backend.py"
        backend.write_text(
            "import sys\n"
            "print('%label l topLevel label {from backend}')\n"
            "print('%realize')\n"
            "print('%echo [gV l label]')\n"
            "sys.stdout.flush()\n"
            "for line in sys.stdin:\n"
            "    print('backend got: ' + line.strip())\n"
            "    sys.stdout.flush()\n"
            "    break\n"
        )
        code, out, __ = run_cli(
            WAFE, ["--app", sys.executable, "-u", str(backend)])
        assert code == 0
        # The echo went down the pipe; the backend printed it as a
        # non-command line which Wafe passed through to stdout.
        assert "backend got: from backend" in out


class TestResourceFile:
    def test_resources_flag_lowest_precedence(self, tmp_path):
        resource_file = tmp_path / "Wafe.ad"
        resource_file.write_text("*label: from-file\n*width: 150\n")
        script = tmp_path / "s.wafe"
        script.write_text(
            "label a topLevel\n"
            "label b topLevel label from-args\n"
            "echo [gV a label]/[gV b label]/[gV a width]\n"
            "quit\n"
        )
        code, out, __ = run_cli(
            WAFE, ["--resources", str(resource_file), "--f", str(script)])
        assert code == 0
        assert "from-file/from-args/150" in out

    def test_xrm_overrides_resource_file(self, tmp_path):
        resource_file = tmp_path / "Wafe.ad"
        resource_file.write_text("*label: from-file\n")
        script = tmp_path / "s.wafe"
        script.write_text("label a topLevel\necho [gV a label]\nquit\n")
        code, out, __ = run_cli(
            WAFE, ["--resources", str(resource_file),
                   "-xrm", "*label: from-xrm", "--f", str(script)])
        assert code == 0
        assert "from-xrm" in out


class TestUtilityFlags:
    def test_version_flag(self):
        code, out, __ = run_cli(WAFE, ["--version"])
        assert code == 0
        assert "0.93-repro" in out


class TestServeMode:
    """The server entry points the end-to-end benchmark starts."""

    def test_socket_server_replies_then_stops_on_sigterm(self, tmp_path):
        path = str(tmp_path / "wafe.sock")
        proc = subprocess.Popen(SERVER + ["--socket", path],
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            deadline = time.monotonic() + 30
            while True:
                try:
                    client.connect(path)
                    break
                except OSError:
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            client.settimeout(30)
            with client, client.makefile("rb") as reader:
                assert reader.readline().startswith(b"wafe server ")
                client.sendall(b"%echo pong\n")
                assert reader.readline() == b"pong\n"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert not os.path.exists(path)

    def test_stdio_session_round_trip(self):
        code, out, err = run_cli(WAFE, ["--serve", "--stdio"],
                                 stdin="%echo pong\n%quit\n")
        assert code == 0, err
        assert out.splitlines()[1:] == ["pong"]

    def test_serve_without_an_address_fails(self):
        code, __, err = run_cli(WAFE, ["--serve"])
        assert code == 1
        assert "serve mode needs" in err
