"""Drive ``repro.server`` from outside, over its Unix socket.

One client process holds every connection of a run (at most two, the
host's core count) and blocks on its own sockets in one selector: it
never polls sockets that have nothing to say.  The loop is closed per
connection -- the next interaction is written only after the previous
reply arrived.
"""

import os
import selectors
import signal
import socket
import subprocess
import sys
import time

from measure import ReplyChecker

#: A reply later than this counts as missing (and ends the run for
#: that connection: a lost reply leaves the stream out of step).
DEADLINE_S = 5.0
START_TIMEOUT_S = 60.0


class ProgramError(Exception):
    """The program did not start, or broke the protocol."""


class Conn:
    """One session's socket with a line buffer."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def send(self, payload):
        self.sock.sendall(payload)

    def read_lines(self):
        """One recv; the complete lines it finished (may be none)."""
        data = self.sock.recv(65536)
        if not data:
            raise ProgramError("server closed the connection")
        self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n")
        return [line.decode("utf-8", "replace") for line in lines]

    def readline(self, timeout=START_TIMEOUT_S):
        """Blocking read of the next line."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProgramError("no reply within %.0f s" % timeout)
            self.sock.settimeout(remaining)
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                continue
            finally:
                self.sock.settimeout(None)
            if not data:
                raise ProgramError("server closed the connection")
            self.buffer += data
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode("utf-8", "replace")

    def expect(self, wanted, timeout=START_TIMEOUT_S):
        """Read one line; anything but ``wanted`` is an error."""
        line = self.readline(timeout)
        if line != wanted:
            raise ProgramError("expected %r, got %r" % (wanted, line))

    def close(self):
        self.sock.close()


def peak_rss_mb(pid):
    """VmHWM of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ProgramError("no VmHWM for pid %d" % pid)


class Server:
    """One ``python -m repro.server`` child and its sessions.

    With ``spans_path`` the child is the traced launcher instead, which
    runs the same server with the timing wrappers installed and writes
    its spans to that file on exit.
    """

    def __init__(self, root, workdir, feeds, spans_path=None):
        self.root = root
        self.workdir = workdir
        self.feeds = feeds
        self.spans_path = spans_path
        self.proc = None
        self.conns = []
        self.log = None

    def start(self):
        """Spawn, connect every session, build its UI; returns the
        seconds from spawn to the last session's ``built`` reply (its
        realize has painted the first frame by then)."""
        sock_path = os.path.relpath(
            os.path.join(self.workdir, "wafe-%d.sock" % os.getpid()),
            self.root)
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro.server"]
        else:
            command = [sys.executable,
                       os.path.join("perfbench", "serve_traced.py"),
                       self.spans_path]
        command += ["--socket", sock_path]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.log = open(os.path.join(self.workdir, "server.log"), "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=self.root, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log)
        for feed in self.feeds:
            conn = Conn(self._connect(sock_path))
            self.conns.append(conn)
            greeting = conn.readline()
            if not greeting.startswith("wafe server "):
                raise ProgramError("bad greeting %r" % greeting)
            conn.send(feed.setup_lines())
            conn.expect("built")
        return time.perf_counter() - started

    def _connect(self, path):
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise ProgramError("server exited with %s"
                                   % self.proc.returncode)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                return sock
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if time.monotonic() > deadline:
                    raise ProgramError("server socket never appeared")
                time.sleep(0.002)

    def peak_rss_mb(self):
        return peak_rss_mb(self.proc.pid)

    def stop(self):
        """SIGTERM (the server drains and exits), then reap."""
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.log is not None:
            self.log.close()
            self.log = None


def closed_loop(conns, nexts, ledger, seconds=None, count=None):
    """Run interactions on every connection until ``seconds`` have
    passed or each connection completed ``count`` of them.

    ``nexts[i]()`` returns ``(payload, expected_reply_line)`` for
    connection i.  Returns ``(windows, wall_seconds)``: one (write,
    reply) perf_counter pair per successful interaction.
    """
    selector = selectors.DefaultSelector()
    checkers = [ReplyChecker() for __ in conns]
    sent_at = [0.0] * len(conns)
    done = [0] * len(conns)
    windows = []
    start = time.perf_counter()
    stop_at = start + seconds if seconds is not None else None

    def issue(i):
        payload, expected = nexts[i]()
        checkers[i].expect(expected)
        sent_at[i] = time.perf_counter()
        conns[i].send(payload)

    for i, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, i)
        issue(i)
    live = len(conns)
    try:
        while live:
            events = selector.select(timeout=DEADLINE_S)
            now = time.perf_counter()
            if not events:
                for i in range(len(conns)):
                    if checkers[i].expected is not None:
                        ledger.fail("connection %d: reply missing after "
                                    "%.0f s" % (i, DEADLINE_S))
                return windows, now - start
            for key, __ in events:
                i = key.data
                for line in conns[i].read_lines():
                    outcome = checkers[i].feed(line)
                    if outcome is None:
                        continue
                    ok, reason = outcome
                    if ok:
                        ledger.ok(now - sent_at[i])
                        windows.append((sent_at[i], now))
                    else:
                        ledger.fail(reason)
                    done[i] += 1
                    more = (stop_at is None or now < stop_at) and \
                        (count is None or done[i] < count)
                    if more:
                        issue(i)
                    else:
                        selector.unregister(conns[i].sock)
                        live -= 1
    finally:
        selector.close()
    return windows, time.perf_counter() - start
