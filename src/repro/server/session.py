"""One connected client: a full Wafe instance over a socket.

A session is what the paper calls "one Wafe binary" -- its own Tcl
interpreter, simulated display, widget tree, and line channel -- except
that hundreds of them share one process and one event core.  The
session poses as the ``wafe.frontend`` of its Wafe instance, so every
existing command (``echo``, ``sync``, ``setPrefix``, error reporting)
routes to the connected client unchanged; the channel is the same
:class:`~repro.core.channel.LineChannel` the stdio frontend uses, over
a :class:`SocketTransport` (or :class:`StdioTransport`) instead of the
backend's pipes.

Isolation is layered: the interpreter's fault containment (eval
budgets, recursion ceiling, the Python-exception firewall) bounds what
one command line can do; :class:`~repro.server.quotas.SessionQuotas`
bounds what the whole session can accumulate; and teardown sweeps every
event-core source the session registered
(:meth:`~repro.xt.app.XtAppContext.release_core_sources`), so a dead
session leaves nothing behind on the shared loop.
"""

import os
import time as _time

from repro.tcl.errors import TclError
from repro.core.channel import LineChannel, LineParser
from repro.core.wafe import Wafe, VERSION
from repro.server.quotas import SessionQuotas
from repro.xlib.display import close_display


class SocketTransport:
    """A connected stream socket (Unix or TCP), already nonblocking."""

    def __init__(self, conn, addr=None):
        self.conn = conn
        self.addr = addr
        self.closed = False

    def read_obj(self):
        """The object registered for read-readiness."""
        return self.conn

    def write_fd(self):
        return self.conn.fileno()

    def recv(self):
        """One nonblocking read; b"" on EOF/death, None on EAGAIN."""
        try:
            return self.conn.recv(65536)
        except BlockingIOError:
            return None
        except (ConnectionResetError, OSError, ValueError):
            return b""

    def send(self, chunk):
        return self.conn.send(chunk)

    def flush(self):
        pass  # unbuffered

    def close(self):
        if self.closed:
            return
        self.closed = True
        try:
            self.conn.close()
        except OSError:
            pass


class StdioTransport:
    """The degenerate single-session client: stdin in, stdout out.

    This re-expresses the historical one-backend stdio path as a
    session, so ``wafe --serve --stdio`` behaves like a pipeline stage
    speaking the same protocol as a socket client.
    """

    def __init__(self, in_fd=0, out_fd=1):
        self.in_fd = in_fd
        self.out_fd = out_fd
        self.closed = False
        os.set_blocking(in_fd, False)

    def read_obj(self):
        return self.in_fd

    def write_fd(self):
        return self.out_fd

    def recv(self):
        try:
            return os.read(self.in_fd, 65536)
        except BlockingIOError:
            return None
        except (OSError, ValueError):
            return b""

    def send(self, chunk):
        return os.write(self.out_fd, chunk)

    def flush(self):
        pass  # unbuffered

    def close(self):
        self.closed = True  # stdio stays open; it belongs to the shell


class Session(LineChannel):
    """One client connection with its own contained Wafe instance."""

    def __init__(self, server, sid, transport, build="athena",
                 quotas=None, greeting=True):
        self.server = server
        self.sid = sid
        self.quotas = quotas if quotas is not None else SessionQuotas()
        self.ended = False
        self.end_reason = None
        self.commands_run = 0
        self.created = _time.monotonic()
        self.last_activity = self.created
        # The session's own toolkit world on the *shared* core: a
        # private display name keeps its widget tree and damage state
        # apart from every neighbor's.
        self.display_name = ":s%d" % sid
        super().__init__(
            Wafe(build=build, display_name=self.display_name,
                 core=server.core),
            transport, LineParser(max_line=self.quotas.max_line),
            label="session %d" % sid, drain_label="session %d drain" % sid)
        # Pose as the frontend: echo/sync/errors all route to the
        # client over this channel.
        self.wafe.frontend = self
        self.wafe.quotas = self.quotas
        # Session-level advisories go to the server log, tagged.
        self.wafe.error_sink = self._log_advisory
        self.quotas.on_trip = self._quota_tripped
        self.quotas.on_change = self.apply_quotas
        self.wafe.interp.on_limit_trip = self._interp_limit_tripped
        # The shared server ledger: readable by every session, reset
        # by none.
        self.wafe.interp.stats_sources["server"] = (server.serverstats, None)
        self.apply_quotas()
        if greeting:
            self.send("wafe server %s session %d\n" % (VERSION, sid))
            self.flush()

    # ------------------------------------------------------------------
    # Quotas

    def apply_quotas(self):
        """Push the quota knobs into the live runtime (init and after
        every ``sessionQuota`` set)."""
        quotas = self.quotas
        self.wafe.interp.set_eval_limits(time_ms=quotas.eval_time_ms,
                                         commands=quotas.eval_commands)
        self.parser.max_line = quotas.max_line
        if quotas.safe_mode and not self.wafe.safe_mode:
            self.wafe.enable_safe_mode()

    def _interp_limit_tripped(self, kind):
        # commands/time/recursion trips flow from the interpreter's
        # limit machinery into the session ledger (the TclLimitError
        # itself still unwinds the offending line).
        self.quotas.trip(kind)

    def _quota_tripped(self, kind, message):
        self.server.quota_tripped(self, kind)
        limit = self.quotas.max_trips
        if limit and self.quotas.total_trips() >= limit and not self.doomed:
            self.doomed = "quota"
            # Tell the client why before the reap, best-effort.
            self.send("error: session quota trip limit reached "
                      "(%d trips); closing\n" % self.quotas.total_trips())
            # The reap itself is deferred to a work proc: a trip can
            # fire deep inside command dispatch, where tearing down the
            # interpreter under our own feet would be unsafe.
            self.server.core.add_work_proc(
                self._reap_doomed, label="session %d reap" % self.sid)

    def _reap_doomed(self):
        if not self.ended and self.doomed:
            self.end(self.doomed)
        return True  # one-shot

    def idle_for_ms(self, now=None):
        now = _time.monotonic() if now is None else now
        return (now - self.last_activity) * 1000.0

    # ------------------------------------------------------------------
    # The LineChannel policy

    @property
    def high_water(self):
        return self.quotas.high_water

    def _report(self, message):
        self.send("error: %s\n" % message)

    def _line_too_long(self, err):
        # One garbage/oversized line resynchronizes at the next newline
        # instead of poisoning the session -- but it is a quota trip,
        # so a client spraying garbage gets reaped.
        self.quotas.trip("line", str(err))
        self._report(str(err))

    def _non_command(self, line):
        # The stdio frontend passes non-command lines through to its own
        # stdout; a network session has no such side channel -- reflect
        # the protocol error instead.
        self._report("not a command line (prefix is %s)" % self.parser.prefix)

    def _run_command(self, line):
        started = _time.perf_counter()
        super()._run_command(line)
        self.commands_run += 1
        self.server.record_latency(_time.perf_counter() - started)

    def _after_read(self):
        self.last_activity = _time.monotonic()
        # Dispatch this session's X events (exposes from the commands
        # just run) before the replies are flushed.
        self.wafe.app.process_pending()

    def _transport_lost(self):
        self.end("eof")

    def _report_overflow(self):
        self.quotas.trip(
            "overflow",
            "session channel overflow: %d bytes queued and the client "
            "is not reading; dropping output" % self.queued_bytes())

    # ------------------------------------------------------------------
    # The frontend interface commands expect

    def mass_channel_fd(self):
        raise TclError("getChannel: no mass transfer channel in a "
                       "server session")

    def set_communication_variable(self, var_name, limit, script):
        raise TclError("setCommunicationVariable: no mass transfer "
                       "channel in a server session")

    def _log_advisory(self, message):
        self.server.log("session %d: %s" % (self.sid, message))

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self):
        """The ``quit`` command path (Wafe.quit closes its frontend)."""
        self.end("quit")

    def end(self, reason, detail=None):
        """Tear the session down and leave nothing on the shared core.

        Safe to call from any depth (a dead socket discovered inside a
        write, the idle reaper, server shutdown); only the first call
        acts."""
        if self.ended:
            return
        self.ended = True
        self.end_reason = reason
        if reason in ("quit", "shutdown"):
            # An orderly end owes the client whatever was queued; the
            # nonblocking flush sends what the socket will take now.
            self.flush()
        self._detach()
        # Sweep every timer/watch/work proc this session's scripts left
        # on the shared loop, then the socket and the private display.
        self.wafe.app.release_core_sources()
        self.transport.close()
        close_display(self.display_name)
        if self.wafe.frontend is self:
            self.wafe.frontend = None
        self.server.session_ended(self, reason, detail)
