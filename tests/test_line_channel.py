"""One table of line-protocol cases, run against both channel endpoints.

The stdio :class:`~repro.core.frontend.Frontend` (pipes to a spawned
backend) and the server's :class:`~repro.server.session.Session` (here
over :class:`~repro.server.session.StdioTransport` pipes) are the same
:class:`~repro.core.channel.LineChannel`.  Each case feeds one payload
to an endpoint in a single write and checks the shared protocol rules;
where the endpoints are meant to differ (passthrough versus an
``error:`` reply, how an overflow is reported) the case checks each
endpoint's own behaviour.
"""

import os
import sys

import pytest

from repro.core import make_wafe
from repro.core.frontend import Frontend
from repro.server import WafeServer
from repro.server.session import Session, StdioTransport
from repro.xlib import close_all_displays

# The backend: writes the payload in one write, then appends every line
# it reads on stdin to the replies file.
CHILD = r"""
import os, sys
os.write(1, bytes.fromhex(sys.argv[2]))
with open(sys.argv[1], "ab") as out:
    for line in sys.stdin.buffer:
        out.write(line)
        out.flush()
"""


class FrontendEndpoint:
    name = "frontend"

    def __init__(self, tmp_path, payload):
        close_all_displays()
        self.wafe = make_wafe()
        self.errors = []
        self.passed = []
        self.wafe.error_sink = self.errors.append
        self._replies = tmp_path / "replies"
        self._replies.write_bytes(b"")
        self.channel = Frontend(
            self.wafe,
            [sys.executable, "-c", CHILD, str(self._replies), payload.hex()],
            passthrough=self.passed.append)
        self.config = self.wafe.supervision

    def pump(self, until):
        self.wafe.main_loop(until=until, max_idle=100)

    def replies(self):
        return self._replies.read_bytes()

    def error_reports(self):
        return list(self.errors)

    def overflow_reports(self):
        return sum("channel overflow" in e for e in self.errors)

    def teardown(self):
        self.channel.close()


class SessionEndpoint:
    name = "session"

    def __init__(self, tmp_path, payload):
        close_all_displays()
        self.server = WafeServer()
        in_r, self._in_w = os.pipe()
        self._out_r, out_w = os.pipe()
        os.set_blocking(self._out_r, False)
        self._fds = [in_r, self._in_w, self._out_r, out_w]
        self.channel = Session(self.server, 1,
                               StdioTransport(in_fd=in_r, out_fd=out_w))
        self.server.sessions[1] = self.channel
        self.wafe = self.channel.wafe
        self.config = self.channel.quotas
        self._out = b""
        self.pump(lambda: b"wafe server" in self._read())
        self._out = b""  # the greeting is not a reply to the payload
        os.write(self._in_w, payload)

    def _read(self):
        try:
            self._out += os.read(self._out_r, 65536)
        except BlockingIOError:
            pass
        return self._out

    def pump(self, until):
        for __ in range(400):
            if until():
                return
            self.server.run_once(timeout=0.005)
            self._read()

    def replies(self):
        return self._read()

    def error_reports(self):
        return [line[len(b"error: "):].decode()
                for line in self.replies().splitlines()
                if line.startswith(b"error: ")]

    def overflow_reports(self):
        return self.channel.quotas.trips["overflow"]

    def teardown(self):
        self.server.shutdown()
        for fd in self._fds:
            try:
                os.close(fd)
            except OSError:
                pass


def _exists(ep, var):
    return ep.wafe.interp.eval("info exists %s" % var) == "1"


# -- the cases -----------------------------------------------------------

def check_oversized_line_resynchronizes(ep):
    """An oversized line is reported once; the lines around it in the
    same read still run."""
    ep.channel.parser.max_line = 64
    ep.pump(lambda: _exists(ep, "::after"))
    assert _exists(ep, "::before") and _exists(ep, "::after")
    errors = [e for e in ep.error_reports() if "exceeds 64 bytes" in e]
    assert len(errors) == 1
    if ep.name == "session":
        assert ep.channel.quotas.trips["line"] == 1


def check_nothing_runs_after_quit(ep):
    """``quit`` closes the endpoint and the rest of the read is dropped:
    no later line runs and no source is registered behind the
    shutdown's leak accounting."""
    timers = len(ep.wafe.app.core.pending_timers())
    ep.pump(lambda: ep.channel.closed)
    assert ep.channel.closed
    assert not _exists(ep, "::after_quit")
    assert len(ep.wafe.app.core.pending_timers()) <= timers
    if ep.name == "session":
        assert ep.channel.end_reason == "quit"


def check_replies_of_one_read_leave_in_one_write(ep):
    writes = ep.channel.stats["pipe_writes"]
    ep.pump(lambda: b"c\n" in ep.replies())
    assert ep.replies() == b"a\nb\nc\n"
    assert ep.channel.stats["pipe_writes"] == writes + 1


def check_close_delivers_queued_output(ep):
    ep.pump(lambda: _exists(ep, "::ready"))
    written = ep.channel.stats["bytes_written"]
    text = "queued words\n"
    ep.channel.send(text)
    assert ep.channel.queued_bytes() == len(text)
    ep.channel.close()
    assert ep.channel.stats["bytes_written"] == written + len(text)
    if ep.name == "session":
        assert ep.replies() == b"queued words\n"


def check_overflow_reported_once_per_episode(ep):
    ep.pump(lambda: _exists(ep, "::ready"))
    ep.config.set("high_water", 100)
    for __ in range(4):
        ep.channel.send("y" * 60)
    assert ep.overflow_reports() == 1
    assert ep.channel.dropped_bytes == 3 * 60
    ep.channel.flush()  # drained: the episode ends
    for __ in range(2):
        ep.channel.send("y" * 60)
    assert ep.overflow_reports() == 2


def check_non_command_line(ep):
    """The endpoints differ here: the frontend passes the line through,
    a session answers with a protocol error."""
    ep.pump(lambda: _exists(ep, "::seen"))
    if ep.name == "frontend":
        assert ep.passed == ["plain text"]
        assert ep.error_reports() == []
    else:
        assert ep.error_reports() == ["not a command line (prefix is %)"]


#: (case, payload fed in one write, check)
CASES = [
    ("oversized_line_resynchronizes",
     b"%set ::before 1\n%" + b"x" * 200 + b"\n%set ::after 1\n",
     check_oversized_line_resynchronizes),
    ("nothing_runs_after_quit",
     b"%quit\n%set ::after_quit ran\n"
     b"%addTimeOut 50 {set ::timer fired}\n",
     check_nothing_runs_after_quit),
    ("replies_of_one_read_leave_in_one_write",
     b"%echo a\n%echo b\n%echo c\n",
     check_replies_of_one_read_leave_in_one_write),
    ("close_delivers_queued_output",
     b"%set ::ready 1\n",
     check_close_delivers_queued_output),
    ("overflow_reported_once_per_episode",
     b"%set ::ready 1\n",
     check_overflow_reported_once_per_episode),
    ("non_command_line",
     b"plain text\n%set ::seen 1\n",
     check_non_command_line),
]


@pytest.mark.parametrize("endpoint", [FrontendEndpoint, SessionEndpoint],
                         ids=lambda cls: cls.name)
@pytest.mark.parametrize("payload, check", [row[1:] for row in CASES],
                         ids=[row[0] for row in CASES])
def test_line_channel(endpoint, payload, check, tmp_path):
    ep = endpoint(tmp_path, payload)
    try:
        check(ep)
    finally:
        ep.teardown()
