"""Failure injection: the frontend must survive misbehaving backends."""

import os
import signal
import socket
import sys
import textwrap
import time

import pytest

from repro.xlib import close_all_displays
from repro.core import make_wafe
from repro.core.frontend import Frontend
from repro.core.supervisor import BackendSupervisor
from repro.server import WafeServer


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


def backend(tmp_path, body, name="bad.py"):
    script = tmp_path / name
    script.write_text(textwrap.dedent(body))
    return [sys.executable, "-u", str(script)]


class TestBackendFailures:
    def test_bad_commands_reported_not_fatal(self, wafe, tmp_path):
        errors = []
        wafe.error_sink = errors.append
        command = backend(tmp_path, '''
            print("%this is not a command")
            print("%label ok topLevel")
            print("%set done 1")
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("done"),
                       max_idle=400)
        front.close()
        assert errors  # the bad line was reported...
        assert wafe.run_script("widgetExists ok") == "1"  # ...and survived

    def test_backend_crash_mid_stream(self, wafe, tmp_path):
        command = backend(tmp_path, '''
            import sys
            print("%label l topLevel")
            sys.stdout.flush()
            raise SystemExit(3)
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(max_idle=400)
        assert front.eof_seen
        assert wafe.run_script("widgetExists l") == "1"
        front.close()

    def test_oversized_line_rejected_cleanly(self, wafe, tmp_path):
        errors = []
        wafe.error_sink = errors.append
        command = backend(tmp_path, '''
            import sys
            sys.stdout.write("%set big {" + "x" * 200000 + "}\\n")
            sys.stdout.write("%set after 1\\n")
            sys.stdout.flush()
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(max_idle=600)
        front.close()
        assert any("exceeds" in e for e in errors)

    def test_partial_line_at_eof_is_dropped(self, wafe, tmp_path):
        command = backend(tmp_path, '''
            import sys
            print("%set complete 1")
            sys.stdout.write("%set truncated")  # no newline, then exit
            sys.stdout.flush()
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(max_idle=400)
        front.close()
        assert wafe.run_script("set complete") == "1"
        assert wafe.run_script("info exists truncated") == "0"

    def test_echo_after_backend_death_is_safe(self, wafe, tmp_path):
        command = backend(tmp_path, 'print("%set up 1")')
        front = Frontend(wafe, command)
        wafe.main_loop(max_idle=400)
        front.wait(timeout=5)
        # Callback firing after the pipe is gone must not raise.
        wafe.echo("into the void")
        front.close()

    def test_oversized_line_does_not_drop_valid_neighbours(self, wafe,
                                                           tmp_path):
        # Regression: a LineTooLong used to abandon every valid line
        # that arrived in the same read.  Now the error is reported,
        # the parser resynchronizes at the next newline, and the lines
        # before *and* after the monster are still executed.
        errors = []
        wafe.error_sink = errors.append
        command = backend(tmp_path, '''
            import sys
            sys.stdout.write("%set before 1\\n")
            sys.stdout.write("%set big {" + "x" * 200000 + "}\\n")
            sys.stdout.write("%set after 1\\n")
            sys.stdout.flush()
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("after"),
                       max_idle=800)
        front.close()
        assert wafe.run_script("set before") == "1"
        assert wafe.run_script("set after") == "1"
        assert wafe.run_script("info exists big") == "0"
        assert any("exceeds" in e for e in errors)

    def test_crashed_backend_is_reaped_without_close(self, wafe, tmp_path):
        # Regression: _handle_eof never wait()ed, so the child stayed a
        # zombie until close().  Now EOF reaps and classifies it.
        command = backend(tmp_path, 'print("%set done 1")\nraise SystemExit(5)')
        front = Frontend(wafe, command)
        wafe.main_loop(max_idle=800)
        assert front.eof_seen
        assert front.process.returncode == 5  # reaped: no zombie
        assert front.exit_status.kind == "exit"
        assert front.exit_status.code == 5
        # The pid is fully collected -- waiting again must fail.
        with pytest.raises(ChildProcessError):
            os.waitpid(front.process.pid, os.WNOHANG)
        front.close()

    def test_binary_garbage_passthrough(self, wafe, tmp_path):
        lines = []
        command = backend(tmp_path, '''
            import sys
            sys.stdout.buffer.write(b"\\xff\\xfe garbage\\n")
            sys.stdout.buffer.write(b"%set ok 1\\n")
            sys.stdout.buffer.flush()
        ''')
        front = Frontend(wafe, command, passthrough=lines.append)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("ok"),
                       max_idle=400)
        front.close()
        assert wafe.run_script("set ok") == "1"
        assert len(lines) == 1


class TestBackpressure:
    """A backend that never drains its stdin must not freeze the GUI."""

    def test_pipe_full_never_blocks_event_loop(self, wafe, tmp_path):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("channelHighWater 300000")
        command = backend(tmp_path, '''
            import sys, time
            print("%set ready 1")
            sys.stdout.flush()
            time.sleep(30)     # never reads stdin
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("ready"),
                       max_idle=800)
        chunk = "x" * 65536
        started = time.monotonic()
        for __ in range(8):    # 512 KiB at a 300000-byte high water
            front.send(chunk)
        elapsed = time.monotonic() - started
        # A blocking write() would park here until the 64 KiB pipe
        # drained -- i.e. forever.  The non-blocking path returns fast.
        assert elapsed < 2.0
        assert any("overflow" in e for e in errors)
        assert front.queued_bytes() <= 300000
        assert front.dropped_bytes > 0
        # The event loop keeps dispatching: timers fire while the
        # output sits queued behind the full pipe.
        fired = []
        wafe.app.add_timeout(5, lambda: fired.append(1))
        wafe.main_loop(until=lambda: bool(fired), max_idle=800)
        assert fired
        front.close()

    def test_queued_output_drains_when_backend_reads(self, wafe, tmp_path):
        # Fill past the pipe capacity, then let the backend read: the
        # output watch drains the pending queue with no explicit flush.
        command = backend(tmp_path, '''
            import sys, time
            print("%set ready 1")
            sys.stdout.flush()
            time.sleep(0.4)    # let the frontend overfill the pipe
            total = 0
            while total < 131072:
                total += len(sys.stdin.readline())
            print("%set got " + str(total))
            sys.stdout.flush()
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("ready"),
                       max_idle=800)
        line = "y" * 8191 + "\n"
        for __ in range(16):   # 128 KiB: twice the pipe capacity
            front.send(line)
        assert front.queued_bytes() > 0  # the pipe filled up
        wafe.main_loop(until=lambda: wafe.interp.var_exists("got"),
                       max_idle=2000)
        assert int(wafe.run_script("set got")) >= 131072
        assert front.queued_bytes() == 0
        front.close()

    def test_overflow_error_reported_once_per_episode(self, wafe, tmp_path):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("channelHighWater 1000")
        command = backend(tmp_path, '''
            import sys, time
            print("%set ready 1")
            sys.stdout.flush()
            time.sleep(30)
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("ready"),
                       max_idle=800)
        for __ in range(50):
            front.send("z" * 100)
        overflow_errors = [e for e in errors if "overflow" in e]
        assert len(overflow_errors) == 1
        front.close()


class TestSignalRestart:
    """The ISSUE acceptance scenario: SIGKILL mid-stream, supervised."""

    def test_sigkill_mid_stream_backoff_and_hook(self, wafe, tmp_path):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("restartPolicy on-failure 2 30 500")
        wafe.run_script("onBackendExit {set obit {%s after %r restarts}}")
        marker = tmp_path / "spawned"
        command = backend(tmp_path, '''
            import os, sys, time
            path = %r
            n = 1
            if os.path.exists(path):
                n = int(open(path).read()) + 1
            open(path, "w").write(str(n))
            sys.stdout.write("%%set spawn " + str(n) + "\\n"
                             "%%label l" + str(n) + " topLevel\\n")
            sys.stdout.flush()
            time.sleep(30)
        ''' % str(marker))
        supervisor = BackendSupervisor(wafe, command)
        supervisor.start()

        def spawn(n):
            # Key on the *last* line of the burst so the kill cannot
            # race the backend's own writes.
            return lambda: ("l%d" % n) in wafe.widgets

        wafe.main_loop(until=spawn(1), max_idle=800)
        os.kill(supervisor.frontend.process.pid, signal.SIGKILL)
        wafe.main_loop(until=spawn(2), max_idle=2000)
        # The GUI survived: widgets from both incarnations exist and
        # the session is healthy again.
        assert wafe.run_script("widgetExists l1") == "1"
        assert wafe.run_script("widgetExists l2") == "1"
        assert wafe.run_script("set obit") == \
            "signal 9 (SIGKILL) after 0 restarts"
        assert supervisor.backoff_schedule == [30]
        assert any("restart 1/2" in e for e in errors)
        supervisor.stop()


class TestMassTransferWatchdog:
    def test_stalled_transfer_aborts_with_timeout_status(self, wafe,
                                                         tmp_path):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("massTransferTimeout 120")
        command = backend(tmp_path, '''
            import os, sys, time
            print("%echo chan [getChannel]")
            sys.stdout.flush()
            fd = int(sys.stdin.readline().split()[-1])
            print("%setCommunicationVariable C 1000 {set done $transferStatus}")
            sys.stdout.flush()
            os.write(fd, b"A" * 10)    # 10 of 1000 bytes, then stall
            time.sleep(30)
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("done"),
                       max_idle=2000)
        front.close()
        # The completion script still ran -- with the error status and
        # the partial payload -- instead of waiting forever.
        assert wafe.run_script("set done") == "timeout"
        assert wafe.run_script("set C") == "A" * 10
        assert any("stalled" in e for e in errors)

    def test_slow_but_live_transfer_is_not_killed(self, wafe, tmp_path):
        # Progress resets the watchdog: a trickle that never pauses
        # longer than the timeout completes normally.
        wafe.run_script("massTransferTimeout 400")
        command = backend(tmp_path, '''
            import os, sys, time
            print("%echo chan [getChannel]")
            sys.stdout.flush()
            fd = int(sys.stdin.readline().split()[-1])
            print("%setCommunicationVariable C 50 {set done $transferStatus}")
            sys.stdout.flush()
            for i in range(5):
                os.write(fd, b"B" * 10)
                time.sleep(0.1)
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("done"),
                       max_idle=2000)
        front.close()
        assert wafe.run_script("set done") == "ok"
        assert wafe.run_script("set C") == "B" * 50

    def test_leftover_bytes_feed_the_next_request(self, wafe, tmp_path):
        # Regression: bytes beyond the limit were stuffed into a fresh
        # state with an empty completion script and silently dropped.
        # Now they are preserved for the next request.
        command = backend(tmp_path, '''
            import os, sys
            print("%echo chan [getChannel]")
            sys.stdout.flush()
            fd = int(sys.stdin.readline().split()[-1])
            print("%setCommunicationVariable C 100 "
                  "{set first $C; setCommunicationVariable D 50 "
                  "{set second $D; set done 1}}")
            sys.stdout.flush()
            os.write(fd, b"X" * 100 + b"Y" * 50)   # one burst, two requests
        ''')
        front = Frontend(wafe, command)
        wafe.main_loop(until=lambda: wafe.interp.var_exists("done"),
                       max_idle=2000)
        front.close()
        assert wafe.run_script("set first") == "X" * 100
        assert wafe.run_script("set second") == "Y" * 50


class TestScriptErrorPaths:
    def test_error_in_callback_does_not_stop_dispatch(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("form f topLevel")
        wafe.run_script("command bad f callback {error boom}")
        wafe.run_script("command good f fromVert bad callback {set ok 1}")
        wafe.run_script("realize")
        for name in ("bad", "good"):
            widget = wafe.lookup_widget(name)
            x, y = widget.window.absolute_origin()
            wafe.app.default_display.click(x + 2, y + 2)
            wafe.app.process_pending()
        # The report now carries the full errorInfo traceback; the
        # message proper is its first line.
        assert len(errors) == 1
        assert errors[0].split("\n")[0] == "boom"
        assert "while executing" in errors[0]
        assert wafe.run_script("set ok") == "1"

    def test_error_in_exec_action_reported(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("label l topLevel")
        wafe.run_script(  # wafelint: skip -- failure is the point
            "action l override {<Btn1Down>: exec(nosuchcmd)}")
        wafe.run_script("realize")
        widget = wafe.lookup_widget("l")
        x, y = widget.window.absolute_origin()
        wafe.app.default_display.press_button(x + 1, y + 1)
        wafe.app.process_pending()
        assert any("nosuchcmd" in e for e in errors)

    def test_destroy_inside_own_callback(self, wafe):
        # A button whose callback destroys itself: classic re-entrancy.
        wafe.run_script("command b topLevel callback {destroyWidget b}")
        wafe.run_script("realize")
        widget = wafe.lookup_widget("b")
        x, y = widget.window.absolute_origin()
        wafe.app.default_display.click(x + 2, y + 2)
        wafe.app.process_pending()
        assert wafe.run_script("widgetExists b") == "0"


class TestServerQuarantineReap:
    def test_faulty_reader_session_is_reaped_neighbour_unaffected(self):
        def open_client(address):
            client = socket.create_connection(address)
            client.settimeout(0)
            return client

        def pump_until(server, client, token, rounds=200):
            out = b""
            for __ in range(rounds):
                server.run_once(timeout=0.005)
                try:
                    out += client.recv(65536)
                except BlockingIOError:
                    pass
                if token in out:
                    return out
            raise AssertionError("no %r; got %r" % (token, out))

        close_all_displays()
        server = WafeServer(log=lambda message: None)
        address = server.listen_tcp("127.0.0.1", 0)
        try:
            victim = open_client(address)
            pump_until(server, victim, b"session 1")
            neighbour = open_client(address)
            pump_until(server, neighbour, b"session 2")
            neighbour.sendall(b"%echo t1\n")
            before = pump_until(server, neighbour, b"t1\n")
            session = server.sessions[1]
            faults = []

            def recv():
                faults.append(1)
                raise RuntimeError("injected recv fault %d" % len(faults))

            session.transport.recv = recv
            victim.sendall(b"%echo never\n")  # stays unread: fd readable
            for __ in range(50):
                server.run_once(timeout=0.005)
                if session.ended:
                    break
            assert len(faults) == 3
            assert session.end_reason == "quarantined"
            assert server.supervisor.ended["quarantined"] == 1
            assert server.counters["core_errors"] == 3
            neighbour.sendall(b"%echo t1\n")
            assert pump_until(server, neighbour, b"t1\n") == before
            victim.close()
            neighbour.close()
        finally:
            leaked = server.shutdown()
        assert leaked == 0
