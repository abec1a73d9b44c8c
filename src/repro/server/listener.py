"""The session server: listeners, capacity, reaping, shutdown.

One :class:`WafeServer` owns the shared event core and everything
global: the Unix/TCP listening sockets, the session table, the
:class:`~repro.server.supervisor.SessionSupervisor` ledger, the idle
reaper, the dispatch-latency histogram behind ``info stats server.*``,
and the SIGTERM drain.  Degradation under load is explicit policy:

* the accept backlog is bounded (``serverBacklog``);
* past ``serverMaxSessions`` a connection gets a protocol-level
  ``error: server busy`` line and a close -- a refusal, not a hang;
* silent sessions past their idle quota are reaped on a timer;
* a session whose handler is quarantined by the event core (three
  strikes) is ended and classified, not left wedged.

Shutdown drains: every session's queued output gets a bounded chance
to reach its client through ``EventCore.wait_writable``, the Unix
socket path is unlinked, and ``EventCore.shutdown`` sweeps whatever
remains with leak accounting (zero leaked watches is the contract the
tests pin).
"""

import collections
import errno
import os
import signal
import socket
import stat
import time as _time

from repro.tcl.errors import log_panic, report
from repro.xt.eventcore import EventCore
from repro.server.quotas import ServerConfig, SessionQuotas
from repro.server.session import Session, SocketTransport, StdioTransport
from repro.server.supervisor import SessionSupervisor


class ServerError(Exception):
    """A listener-level failure (bad socket path, port in use...)."""


class WafeServer:
    """Many concurrent Wafe sessions on one shared event core."""

    #: Dispatch-latency samples kept for the p50/p99 ledger (bounded:
    #: the histogram must not grow with uptime).
    LATENCY_SAMPLES = 4096

    def __init__(self, build="athena", config=None, quota_defaults=None,
                 log=None):
        self.build = build
        self.config = config if config is not None else ServerConfig()
        # Explicit quota settings stamped onto every new session's
        # quota set (tests and the CLI use this; per-session overrides
        # happen live via the sessionQuota command).
        self.quota_defaults = dict(quota_defaults or {})
        self._log_sink = log
        self.core = EventCore()
        self.core.report = self.log
        self.core.error_handler = self._core_error
        self.core.on_quarantine = self._handler_quarantined
        self.sessions = {}           # sid -> Session
        self.supervisor = SessionSupervisor(report=self.log)
        self._next_sid = 1
        self._listeners = []         # [(socket, kind, address, watch_id)]
        self._unix_paths = []
        self._reap_timer = None
        self._stop = False
        self._shut_down = False
        self.leaked_watches = 0      # from the final core sweep
        self.counters = {
            "accepted": 0,
            "refused": 0,
            "accept_errors": 0,
            "core_errors": 0,
        }
        self.quota_trips = dict.fromkeys(SessionQuotas.TRIP_KINDS, 0)
        self._latencies = collections.deque(maxlen=self.LATENCY_SAMPLES)

    # ------------------------------------------------------------------
    # Logging / core hooks

    def log(self, message):
        report(self._log_sink, "wafe-server", message)

    def _core_error(self, context, exc):
        # The shared loop's last-resort firewall: a fault that escaped
        # every session-level containment is logged, never raised.
        self.counters["core_errors"] += 1
        summary = log_panic(context, exc)
        self.log("contained fault in %s (%s)" % (context, summary))

    def _handler_quarantined(self, kind, fd, label, strikes, exc):
        """Three strikes on a session's handler: the event core already
        unregistered it; classify and reap the owning session so it is
        not left wedged with a client that can never be heard again."""
        session = self._session_for_fd(fd)
        if session is not None and not session.ended:
            session.end("quarantined",
                        "%s handler quarantined after %d failures"
                        % (kind, strikes))

    def _session_for_fd(self, fd):
        for session in self.sessions.values():
            try:
                if session.transport.read_obj().fileno() == fd:
                    return session
            except (OSError, ValueError, AttributeError):
                continue
        return None

    # ------------------------------------------------------------------
    # Listeners

    def listen_unix(self, path):
        """Bind a Unix listener, recovering a stale socket path.

        A leftover path is unlinked only when it is verifiably dead: it
        must be a socket (never delete a user's regular file) and a
        probe connect must be refused (a live server answering means
        the address is genuinely in use)."""
        if os.path.exists(path):
            try:
                mode = os.stat(path).st_mode
            except OSError as exc:
                raise ServerError("cannot stat %s: %s" % (path, exc))
            if not stat.S_ISSOCK(mode):
                raise ServerError(
                    "%s exists and is not a socket; refusing to unlink"
                    % path)
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(0.2)
            try:
                probe.connect(path)
            except (ConnectionRefusedError, socket.timeout):
                # Nobody home: a stale path from an unclean shutdown.
                os.unlink(path)
            except OSError as exc:
                if exc.errno == errno.ECONNREFUSED:
                    os.unlink(path)
                else:
                    raise ServerError(
                        "cannot probe %s: %s" % (path, exc))
            else:
                probe.close()
                raise ServerError(
                    "%s is in use by a live server" % path)
            finally:
                probe.close()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(path)
        except OSError as exc:
            sock.close()
            raise ServerError("cannot bind %s: %s" % (path, exc))
        self._unix_paths.append(path)
        self._register_listener(sock, "unix", path)
        return path

    def listen_tcp(self, host="127.0.0.1", port=0):
        """Bind a TCP listener; returns the actual (host, port)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # Without SO_REUSEADDR a restart within TIME_WAIT of the old
        # server's connections fails with EADDRINUSE.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
        except OSError as exc:
            sock.close()
            raise ServerError("cannot bind %s:%s: %s" % (host, port, exc))
        address = sock.getsockname()
        self._register_listener(sock, "tcp", address)
        return address

    def _register_listener(self, sock, kind, address):
        sock.listen(max(1, self.config.backlog))
        sock.setblocking(False)
        watch_id = self.core.add_reader(sock, self._on_accept,
                                        label="%s listener" % kind)
        self._listeners.append((sock, kind, address, watch_id))
        if self._reap_timer is None:
            self._arm_reaper()

    # ------------------------------------------------------------------
    # Accept / refuse

    def _on_accept(self, listen_socket):
        # Drain the whole accept queue: one readiness wakeup may carry
        # many pending connections.
        while True:
            accepted = self.core.accept_connection(listen_socket)
            if accepted is None:
                return
            conn, addr = accepted
            if len(self.sessions) >= max(1, self.config.max_sessions):
                self._refuse(conn)
                continue
            self._create_session(conn, addr)

    def _refuse(self, conn):
        """Protocol-level load shed: tell the client *why* before the
        close so it can back off, instead of a silent hang."""
        self.counters["refused"] += 1
        try:
            conn.send(b"error: server busy (session limit reached)\n")
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _create_session(self, conn, addr):
        sid = self._next_sid
        self._next_sid += 1
        quotas = SessionQuotas()
        for attr, value in self.quota_defaults.items():
            quotas.set(attr, value)
        try:
            session = Session(self, sid, SocketTransport(conn, addr),
                              build=self.build, quotas=quotas)
        except Exception as exc:  # noqa: BLE001 -- accept must survive
            self.counters["accept_errors"] += 1
            summary = log_panic("session %d setup" % sid, exc)
            self.log("session %d setup failed (%s)" % (sid, summary))
            try:
                conn.close()
            except OSError:
                pass
            return None
        self.counters["accepted"] += 1
        self.sessions[sid] = session
        return session

    def add_stdio_session(self, quotas=None):
        """The degenerate single-session client on stdin/stdout."""
        sid = self._next_sid
        self._next_sid += 1
        if quotas is None:
            quotas = SessionQuotas()
            for attr, value in self.quota_defaults.items():
                quotas.set(attr, value)
        session = Session(self, sid, StdioTransport(), build=self.build,
                          quotas=quotas)
        self.counters["accepted"] += 1
        self.sessions[sid] = session
        if self._reap_timer is None:
            self._arm_reaper()
        return session

    # ------------------------------------------------------------------
    # Session accounting (called by sessions)

    def session_ended(self, session, reason, detail=None):
        self.sessions.pop(session.sid, None)
        lifetime_ms = (_time.monotonic() - session.created) * 1000.0
        self.supervisor.session_ended(session.sid, reason, detail,
                                      lifetime_ms=lifetime_ms,
                                      commands_run=session.commands_run)

    def quota_tripped(self, session, kind):
        self.quota_trips[kind] = self.quota_trips.get(kind, 0) + 1

    def record_latency(self, seconds):
        self._latencies.append(seconds)

    def latency_percentiles(self):
        """(p50_ms, p99_ms) over the bounded sample window."""
        if not self._latencies:
            return (0.0, 0.0)
        ordered = sorted(self._latencies)
        last = len(ordered) - 1
        p50 = ordered[min(last, (len(ordered) * 50) // 100)]
        p99 = ordered[min(last, (len(ordered) * 99) // 100)]
        return (p50 * 1000.0, p99 * 1000.0)

    def serverstats(self):
        """The ledger behind the ``server`` source of ``info stats``."""
        p50, p99 = self.latency_percentiles()
        out = {
            "sessions_accepted": self.counters["accepted"],
            "sessions_active": len(self.sessions),
            "sessions_refused": self.counters["refused"],
            "sessions_reaped": self.supervisor.reaped,
            "accept_errors": self.counters["accept_errors"],
            "core_errors": self.counters["core_errors"],
            "leaked_watches": self.leaked_watches,
            "dispatch_p50_ms": p50,
            "dispatch_p99_ms": p99,
            "latency_samples": len(self._latencies),
        }
        for kind, count in self.supervisor.ended.items():
            out["ended_" + kind] = count
        for kind, count in self.quota_trips.items():
            out["trips_" + kind] = count
        return out

    # ------------------------------------------------------------------
    # The idle reaper

    def _arm_reaper(self):
        interval = max(1, self.config.reap_interval_ms)
        self._reap_timer = self.core.add_timer(
            interval, self._reap_tick, label="idle session reaper")

    def _reap_tick(self):
        self._reap_timer = None
        now = _time.monotonic()
        for session in list(self.sessions.values()):
            idle_ms = session.quotas.idle_ms
            if idle_ms and session.idle_for_ms(now) >= idle_ms:
                # trip() notifies the server ledger via on_trip.
                session.quotas.trip("idle")
                session.end("idle",
                            "idle for %d ms (quota %d ms)"
                            % (int(session.idle_for_ms(now)), idle_ms))
        if not self._stop:
            self._arm_reaper()

    # ------------------------------------------------------------------
    # The loop

    def stop(self):
        self._stop = True

    def install_signal_handlers(self):
        """SIGTERM/SIGINT request an orderly stop; the run loop then
        performs the drain -- signal context does no teardown itself."""
        def request_stop(signum, frame):
            self.stop()
        signal.signal(signal.SIGTERM, request_stop)
        signal.signal(signal.SIGINT, request_stop)

    def run_once(self, timeout=0.05):
        """One scheduling pass of the shared loop; returns True when
        any handler, timer, or work proc ran."""
        worked = False
        if self.core.run_due_timers():
            worked = True
            timeout = 0.0
        deadline = self.core.next_deadline()
        if deadline is not None:
            timeout = max(0.0, min(timeout, deadline - _time.monotonic()))
        if self.core.poll(timeout):
            worked = True
        if self.core.run_one_work_proc():
            worked = True
        # End the frame of each session the pass touched: dispatch the
        # X events it produced (damage flushes from timer scripts, for
        # example) and flush what its timers and work procs sent.
        for session in list(self.sessions.values()):
            if not session.ended and (session.wafe.app.pending()
                                      or session.queued_bytes()):
                session.wafe.app.process_pending()
                worked = True
        return worked

    def run(self, until=None, max_idle=None):
        """The server main loop: runs until :meth:`stop` (SIGTERM) or
        the ``until`` predicate, then shuts down gracefully."""
        idle = 0
        while not self._stop:
            if until is not None and until():
                break
            if self.run_once():
                idle = 0
                continue
            idle += 1
            if max_idle is not None and idle >= max_idle:
                break
        return self.shutdown()

    # ------------------------------------------------------------------
    # Shutdown

    def close_listeners(self):
        """Stop accepting and unlink the Unix socket paths."""
        for sock, __, __, watch_id in self._listeners:
            self.core.remove_watch(watch_id)
            try:
                sock.close()
            except OSError:
                pass
        self._listeners = []
        for path in self._unix_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._unix_paths = []

    def shutdown(self):
        """Orderly shutdown: stop accepting, drain every session's
        outbound buffer against one shared deadline, end the sessions,
        cancel the reaper, and sweep the core with leak accounting.
        Returns the number of leaked watches (the contract: 0)."""
        if self._shut_down:
            return self.leaked_watches
        self._shut_down = True
        self._stop = True
        self.close_listeners()
        if self._reap_timer is not None:
            self.core.remove_timer(self._reap_timer)
            self._reap_timer = None
        deadline = _time.monotonic() + \
            max(0, self.config.drain_timeout_ms) / 1000.0
        for session in list(self.sessions.values()):
            session.drain(deadline)
        for session in list(self.sessions.values()):
            session.end("shutdown")
        self.leaked_watches = self.core.shutdown(
            drain_timeout=max(0.0, deadline - _time.monotonic()))
        if self.leaked_watches:
            self.log("shutdown leaked %d watches" % self.leaked_watches)
        return self.leaked_watches


def serve_main(options, build="athena"):
    """The ``--serve`` CLI mode (see repro.core.cli)."""
    config = ServerConfig()
    if options.get("max-sessions"):
        config.set("max_sessions", int(options["max-sessions"]))
    server = WafeServer(build=build, config=config)
    if options.get("stdio"):
        session = server.add_stdio_session()
        server.install_signal_handlers()
        server.run(until=lambda: session.ended)
        return 0
    bound = False
    if options.get("socket"):
        server.listen_unix(options["socket"])
        server.log("listening on %s" % options["socket"])
        bound = True
    if options.get("port"):
        host = options.get("host") or "127.0.0.1"
        address = server.listen_tcp(host, int(options["port"]))
        server.log("listening on %s:%d" % (address[0], address[1]))
        bound = True
    if not bound:
        raise ServerError(
            "serve mode needs --socket PATH, --port N, or --stdio")
    server.install_signal_handlers()
    server.run()
    return 0
