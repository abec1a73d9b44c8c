"""Regression tests for the buffered frontend->application channel.

Multiple ``echo`` lines fired from one event must coalesce into a
single ``write()`` + ``flush()`` on the backend pipe, the queued lines
must arrive in exactly the order they were sent, and the deferred
flush must still happen without explicit intervention (the end-of-frame
flush the event loop runs before it blocks) so a waiting backend never
starves.
"""

import sys
import textwrap

import pytest

from repro.xlib import close_all_displays
from repro.core import make_wafe
from repro.core.frontend import Frontend


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


def write_backend(tmp_path, body):
    script = tmp_path / "backend.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, "-u", str(script)]


class _CountingPipe:
    """Wraps the child's stdin pipe, counting write()/flush() calls."""

    def __init__(self, raw):
        self._raw = raw
        self.writes = 0
        self.flushes = 0
        self.payloads = []

    def write(self, data):
        self.writes += 1
        self.payloads.append(data)
        return self._raw.write(data)

    def flush(self):
        self.flushes += 1
        return self._raw.flush()

    def close(self):
        return self._raw.close()


ECHOING_BACKEND = '''
    import sys
    print("%realize")
    sys.stdout.flush()
    for line in sys.stdin:
        print("recv " + line.strip())
        sys.stdout.flush()
'''


class TestSendCoalescing:
    def test_one_event_many_echoes_one_write(self, wafe, tmp_path):
        command = write_backend(tmp_path, ECHOING_BACKEND)
        frontend = Frontend(wafe, command)
        pipe = _CountingPipe(frontend.process.stdin)
        frontend.process.stdin = pipe
        # One "event": a callback script that echoes five lines.
        wafe.run_script(
            "echo one; echo two; echo three; echo four; echo five")
        assert pipe.writes == 0  # still buffered
        frontend.flush()
        assert pipe.writes == 1
        assert pipe.flushes == 1
        assert pipe.payloads[0] == b"one\ntwo\nthree\nfour\nfive\n"
        frontend.close()

    def test_ordering_preserved_end_to_end(self, wafe, tmp_path):
        command = write_backend(tmp_path, ECHOING_BACKEND)
        passthrough = []
        frontend = Frontend(wafe, command, passthrough=passthrough.append)
        messages = ["alpha", "beta", "gamma", "delta", "epsilon"]
        wafe.run_script("; ".join("echo %s" % m for m in messages))
        frontend.flush()
        wafe.main_loop(until=lambda: len(passthrough) >= len(messages),
                       max_idle=800)
        frontend.close()
        received = [line for line in passthrough if line.startswith("recv ")]
        assert received == ["recv %s" % m for m in messages]

    def test_frame_flush_before_blocking_without_explicit_sync(
            self, wafe, tmp_path):
        command = write_backend(tmp_path, ECHOING_BACKEND)
        passthrough = []
        frontend = Frontend(wafe, command, passthrough=passthrough.append)
        wafe.run_script("echo ping")
        # No flush() call and no work proc: the loop ends the frame
        # before it blocks, and that flush delivers the line.
        assert wafe.app.core.run_one_work_proc() is False
        wafe.main_loop(until=lambda: "recv ping" in passthrough,
                       max_idle=800)
        frontend.close()
        assert "recv ping" in passthrough
        assert frontend.stats["frame_flushes"] >= 1
        assert frontend.stats["sync_points"] == 0

    def test_sync_command_flushes(self, wafe, tmp_path):
        command = write_backend(tmp_path, ECHOING_BACKEND)
        frontend = Frontend(wafe, command)
        pipe = _CountingPipe(frontend.process.stdin)
        frontend.process.stdin = pipe
        wafe.run_script("echo queued")
        assert pipe.writes == 0
        wafe.run_script("sync")
        assert pipe.writes == 1
        frontend.close()

    def test_large_buffer_writes_through(self, wafe, tmp_path):
        command = write_backend(tmp_path, ECHOING_BACKEND)
        frontend = Frontend(wafe, command)
        pipe = _CountingPipe(frontend.process.stdin)
        frontend.process.stdin = pipe
        big = "x" * (Frontend.FLUSH_THRESHOLD + 1)
        frontend.send(big)
        assert pipe.writes == 1  # threshold bypasses the frame deferral
        frontend.close()

    def test_close_flushes_pending_output(self, wafe, tmp_path):
        command = write_backend(tmp_path, '''
            import sys
            data = sys.stdin.read()
            sys.stdout.write("got:" + data)
            sys.stdout.flush()
        ''')
        passthrough = []
        frontend = Frontend(wafe, command, passthrough=passthrough.append)
        frontend.send("final words\n")
        frontend.close()  # must flush before closing the pipe
        # The child saw the line before EOF; nothing to assert beyond
        # close() not raising and the buffer being drained.
        assert frontend._out_buffer == []
