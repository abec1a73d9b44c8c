"""Failure injection for the multi-session server (docs/SERVER.md).

Every test drives a real WafeServer and real sockets cooperatively in
one process: the client sockets are nonblocking and the server loop is
pumped by hand, so misbehavior (disconnects mid-command, half-open
sockets, budget bombs, stalled readers) is injected deterministically
with no sleeps longer than the budgets under test.
"""

import os
import signal
import socket

import pytest

from repro.xlib import close_all_displays
from repro.server import (
    ServerConfig,
    SessionQuotas,
    WafeServer,
)
from repro.server.listener import ServerError


def make_server(**kwargs):
    close_all_displays()
    return WafeServer(**kwargs)


def pump(server, n=30, timeout=0.005):
    for __ in range(n):
        server.run_once(timeout=timeout)


def connect(addr):
    client = socket.create_connection(addr)
    client.setblocking(False)
    return client


def drain(client):
    """Read whatever the server has sent so far (nonblocking)."""
    out = b""
    while True:
        try:
            data = client.recv(65536)
        except BlockingIOError:
            return out
        except (ConnectionResetError, OSError):
            return out
        if not data:
            return out
        out += data


def open_session(server, addr):
    client = connect(addr)
    pump(server, 10)
    greeting = drain(client)
    assert b"wafe server" in greeting
    return client


def roundtrip(server, client, token):
    client.sendall(b"%echo " + token.encode() + b"\n")
    out = b""
    for __ in range(100):
        pump(server, 5)
        out += drain(client)
        if token.encode() in out:
            return out
    raise AssertionError("no round trip for %r; got %r" % (token, out))


@pytest.fixture
def server():
    srv = make_server()
    yield srv
    srv.shutdown()


@pytest.fixture
def tcp(server):
    addr = server.listen_tcp("127.0.0.1", 0)
    return addr


class TestSessionBasics:
    def test_greeting_and_roundtrip(self, server, tcp):
        client = open_session(server, tcp)
        assert b"pong" in roundtrip(server, client, "pong")
        client.close()

    def test_sessions_are_isolated_worlds(self, server, tcp):
        a = open_session(server, tcp)
        b = open_session(server, tcp)
        a.sendall(b"%label only_a topLevel\n%set shared from_a\n")
        pump(server, 20)
        # The same widget name is free in the neighbor; the variable
        # does not leak either.
        b.sendall(b"%echo [widgetExists only_a]:[info exists shared]\n")
        out = b""
        for __ in range(100):
            pump(server, 5)
            out += drain(b)
            if b"0:0" in out:
                break
        assert b"0:0" in out
        assert len(server.sessions) == 2

    def test_quit_ends_only_its_session(self, server, tcp):
        a = open_session(server, tcp)
        b = open_session(server, tcp)
        a.sendall(b"%quit\n")
        pump(server, 20)
        assert server.supervisor.ended["quit"] == 1
        assert len(server.sessions) == 1
        assert b"alive" in roundtrip(server, b, "alive")

    def test_unknown_noncommand_line_reflected(self, server, tcp):
        client = open_session(server, tcp)
        client.sendall(b"just some text\n")
        pump(server, 20)
        assert b"error: not a command line" in drain(client)
        assert b"ok" in roundtrip(server, client, "ok")


class TestDisconnects:
    def test_disconnect_mid_command(self, server, tcp):
        client = open_session(server, tcp)
        # A partial line (no newline) then a hard close: the parser
        # holds the fragment, EOF reaps the session cleanly.
        client.sendall(b"%label half topLevel")
        pump(server, 10)
        client.close()
        pump(server, 30)
        assert server.supervisor.ended["eof"] == 1
        assert not server.sessions

    def test_disconnect_does_not_disturb_neighbor(self, server, tcp):
        doomed = open_session(server, tcp)
        neighbor = open_session(server, tcp)
        doomed.sendall(b"%label x topLevel\n")
        doomed.close()
        pump(server, 30)
        assert server.supervisor.ended["eof"] == 1
        assert b"fine" in roundtrip(server, neighbor, "fine")

    def test_abrupt_reset_while_output_queued(self, server, tcp):
        client = open_session(server, tcp)
        # Queue output the client will never read, then vanish.
        client.sendall(b"%echo [string repeat x 60000]\n")
        client.close()
        pump(server, 60)
        assert not server.sessions
        leaked = server.shutdown()
        assert leaked == 0


class TestQuotas:
    def test_widget_bomb_trips_and_neighbor_lives(self, tcp, server):
        bomber = open_session(server, tcp)
        neighbor = open_session(server, tcp)
        bomber.sendall(b"%sessionQuota maxWidgets 20\n"
                       b"%sessionQuota maxTrips 2\n")
        pump(server, 10)
        script = b"".join(b"%%label w%d topLevel\n" % i for i in range(40))
        bomber.sendall(script)
        pump(server, 120)
        assert server.quota_trips["widgets"] >= 2
        assert server.supervisor.ended["quota"] == 1
        assert bomber.fileno() < 0 or drain(bomber) is not None
        assert b"live" in roundtrip(server, neighbor, "live")

    def test_eval_time_bomb_reaped_neighbor_roundtrips(self):
        server = make_server(
            quota_defaults={"eval_time_ms": 50, "max_trips": 2})
        try:
            addr = server.listen_tcp("127.0.0.1", 0)
            hostile = open_session(server, addr)
            neighbor = open_session(server, addr)
            hostile.sendall(b"%while 1 {}\n%while 1 {}\n")
            pump(server, 60)
            assert server.quota_trips["time"] >= 2
            assert server.supervisor.ended["quota"] == 1
            assert b"ok" in roundtrip(server, neighbor, "ok")
            assert b"error: session quota trip limit reached" \
                in drain(hostile)
        finally:
            server.shutdown()

    def test_xrm_bomb_trips(self, server, tcp):
        client = open_session(server, tcp)
        client.sendall(b"%sessionQuota maxXrmEntries 5\n")
        pump(server, 10)
        for i in range(8):
            client.sendall(b"%%mergeResources *res%d value\n" % i)
        pump(server, 60)
        assert server.quota_trips["xrm"] >= 1
        out = drain(client)
        assert b"resource-database quota exceeded" in out

    def test_oversized_line_resyncs_and_trips(self, server, tcp):
        client = open_session(server, tcp)
        client.sendall(b"%sessionQuota maxLine 64\n")
        pump(server, 10)
        client.sendall(b"%echo before\n" + b"%" + b"x" * 200 + b"\n"
                       + b"%echo after\n")
        out = b""
        for __ in range(100):
            pump(server, 5)
            out += drain(client)
            if b"after" in out:
                break
        # The garbage line was reported, the lines around it ran.
        assert b"before" in out
        assert b"after" in out
        assert b"exceeds 64 bytes" in out
        assert server.quota_trips["line"] == 1

    def test_stalled_reader_overflow_trips(self):
        server = make_server(
            quota_defaults={"high_water": 4096, "max_trips": 1})
        try:
            addr = server.listen_tcp("127.0.0.1", 0)
            client = open_session(server, addr)
            # Ask for far more output than the high water and never
            # read: the drop is a trip, and max_trips=1 reaps.
            for __ in range(40):
                client.sendall(b"%echo [string repeat y 4000]\n")
            pump(server, 200)
            assert server.quota_trips["overflow"] >= 1
            assert server.supervisor.ended["quota"] == 1
        finally:
            server.shutdown()

    def test_session_quota_command_ledger(self, server, tcp):
        client = open_session(server, tcp)
        client.sendall(b"%echo [sessionQuota maxWidgets]\n")
        out = b""
        for __ in range(60):
            pump(server, 5)
            out += drain(client)
            if b"512" in out:
                break
        assert b"512" in out


class TestIdleReaper:
    def test_half_open_socket_reaped(self):
        config = ServerConfig()
        config.set("reap_interval_ms", 20)
        server = make_server(config=config,
                             quota_defaults={"idle_ms": 50})
        try:
            addr = server.listen_tcp("127.0.0.1", 0)
            half_open = open_session(server, addr)
            # Sends nothing, reads nothing, never closes: a classic
            # half-open client.  The reaper collects it.
            for __ in range(200):
                pump(server, 5, timeout=0.01)
                if server.supervisor.ended["idle"]:
                    break
            assert server.supervisor.ended["idle"] == 1
            assert server.quota_trips["idle"] == 1
            assert not server.sessions
            del half_open
        finally:
            server.shutdown()

    def test_active_session_not_reaped(self):
        config = ServerConfig()
        config.set("reap_interval_ms", 20)
        server = make_server(config=config,
                             quota_defaults={"idle_ms": 200})
        try:
            addr = server.listen_tcp("127.0.0.1", 0)
            busy = open_session(server, addr)
            for i in range(5):
                assert b"t%d" % i in roundtrip(server, busy, "t%d" % i)
            assert server.supervisor.ended["idle"] == 0
            assert len(server.sessions) == 1
        finally:
            server.shutdown()


class TestCapacity:
    def test_max_sessions_refusal(self):
        config = ServerConfig()
        config.set("max_sessions", 2)
        server = make_server(config=config)
        try:
            addr = server.listen_tcp("127.0.0.1", 0)
            a = open_session(server, addr)
            b = open_session(server, addr)
            refused = connect(addr)
            pump(server, 20)
            out = drain(refused)
            assert b"server busy" in out
            # ...and the connection is closed, not hung.
            for __ in range(50):
                pump(server, 5)
                try:
                    if refused.recv(4096) == b"":
                        break
                except BlockingIOError:
                    continue
                except (ConnectionResetError, OSError):
                    break
            assert server.counters["refused"] == 1
            assert len(server.sessions) == 2
            # Capacity frees up when a session ends.
            a.close()
            pump(server, 30)
            c = open_session(server, addr)
            assert b"room" in roundtrip(server, c, "room")
            del b
        finally:
            server.shutdown()


class TestUnixSockets:
    def test_unix_listener_roundtrip(self, tmp_path):
        server = make_server()
        path = str(tmp_path / "wafe.sock")
        try:
            server.listen_unix(path)
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(path)
            client.setblocking(False)
            pump(server, 10)
            assert b"wafe server" in drain(client)
            assert b"ux" in roundtrip(server, client, "ux")
        finally:
            server.shutdown()
        # Shutdown unlinked the path.
        assert not os.path.exists(path)

    def test_stale_socket_path_recovered(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(path)
        dead.close()  # bound but never listening: stale
        server = make_server()
        try:
            server.listen_unix(path)  # must unlink and rebind
            assert os.path.exists(path)
        finally:
            server.shutdown()

    def test_regular_file_never_unlinked(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("do not delete")
        server = make_server()
        try:
            with pytest.raises(ServerError):
                server.listen_unix(str(path))
            assert path.read_text() == "do not delete"
        finally:
            server.shutdown()

    def test_live_server_path_not_stolen(self, tmp_path):
        path = str(tmp_path / "live.sock")
        first = make_server()
        second = WafeServer()
        try:
            first.listen_unix(path)
            with pytest.raises(ServerError):
                second.listen_unix(path)
            assert os.path.exists(path)
        finally:
            second.shutdown()
            first.shutdown()


class TestShutdown:
    def test_shutdown_drains_and_leaks_nothing(self, tmp_path):
        server = make_server()
        path = str(tmp_path / "drain.sock")
        server.listen_unix(path)
        addr = server.listen_tcp("127.0.0.1", 0)
        clients = [open_session(server, addr) for __ in range(5)]
        for i, client in enumerate(clients):
            client.sendall(b"%%label s%d topLevel\n" % i)
        pump(server, 30)
        # Queue a goodbye that shutdown must still deliver.
        for client in clients:
            client.sendall(b"%echo goodbye\n")
        pump(server, 30)
        leaked = server.shutdown()
        assert leaked == 0
        assert not server.sessions
        assert server.supervisor.ended["shutdown"] == 5
        assert not os.path.exists(path)
        for client in clients:
            assert b"goodbye" in drain(client)

    def test_sigterm_requests_orderly_stop(self, tcp):
        server = make_server()
        addr = server.listen_tcp("127.0.0.1", 0)
        client = open_session(server, addr)
        server.install_signal_handlers()
        try:
            os.kill(os.getpid(), signal.SIGTERM)
            leaked = server.run()  # observes the stop flag, drains
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)
        assert leaked == 0
        assert server.supervisor.ended["shutdown"] == 1
        del client

    def test_shutdown_idempotent(self, server, tcp):
        assert server.shutdown() == server.shutdown()


class TestSupervisorLedger:
    def test_unknown_kind_counts_as_error(self, server, tcp):
        client = open_session(server, tcp)
        session = list(server.sessions.values())[0]
        session.end("exploded", "test detail")
        assert server.supervisor.ended["error"] == 1
        assert "unknown end kind" in server.supervisor.history[-1][2]
        del client

    def test_serverstats_shape(self, server, tcp):
        client = open_session(server, tcp)
        roundtrip(server, client, "x")
        stats = server.serverstats()
        assert stats["sessions_accepted"] == 1
        assert stats["sessions_active"] == 1
        assert stats["latency_samples"] >= 1
        assert stats["dispatch_p99_ms"] >= stats["dispatch_p50_ms"] >= 0
        for kind in ("eof", "quota", "idle", "shutdown"):
            assert "ended_%s" % kind in stats

    def test_backend_status_detached_in_session(self, server, tcp):
        client = open_session(server, tcp)
        client.sendall(b"%echo [backendStatus]\n")
        out = b""
        for __ in range(60):
            pump(server, 5)
            out += drain(client)
            if b"detached" in out:
                break
        assert b"detached" in out


    def test_frontend_commands_in_a_session(self, server, tcp):
        # The session is the frontend: sendToApplication and timer
        # scripts reply on the socket, and there is no mass channel.
        client = open_session(server, tcp)
        client.sendall(
            b"%sendToApplication to app\n"
            b"%echo [catch getChannel m] $m\n"
            b"%echo [catch {setCommunicationVariable v 10 {}} m] $m\n"
            b"%addTimeOut 10 {echo timer fired}\n")
        out = b""
        for __ in range(200):
            pump(server, 5)
            out += drain(client)
            if b"timer fired" in out:
                break
        assert out.decode().splitlines() == [
            "to app",
            "1 getChannel: no mass transfer channel in a server session",
            "1 setCommunicationVariable: no mass transfer channel in a "
            "server session",
            "timer fired",
        ]


class TestEventStatsScope:
    def ask(self, server, client, script, marker):
        """Send one ``%echo marker<script result>`` line; the result."""
        client.sendall(("%%echo %s%s\n" % (marker, script)).encode())
        out = b""
        for __ in range(100):
            pump(server, 5)
            out += drain(client)
            if marker.encode() in out and out.endswith(b"\n"):
                break
        return out.decode().split(marker, 1)[1].split("\n", 1)[0]

    def stat(self, server, client, key, marker):
        return int(self.ask(server, client,
                            "[lindex [info stats %s] 1]" % key, marker))

    def dispatches(self, server, client, marker):
        return self.stat(server, client, "xt.event.dispatches", marker)

    def test_session_cannot_reset_shared_counters(self, server, tcp):
        a = open_session(server, tcp)
        b = open_session(server, tcp)
        roundtrip(server, a, "warm-a")
        roundtrip(server, b, "warm-b")
        before = self.dispatches(server, b, "before=")
        assert before > 0
        reply = self.ask(server, a,
                         "[catch {info stats xt.event.* -reset} msg]:$msg",
                         "reset=")
        assert reply == ('1:info stats: cannot reset "xt.event": it is '
                         'shared beyond this interpreter')
        # The neighbour's view of the shared core was not zeroed.
        assert self.dispatches(server, b, "after=") >= before
        assert server.core.stats()["dispatches"] >= before

    def test_session_cannot_reset_shared_expr_cache(self, server, tcp):
        # The expr AST cache is process-wide: one session resetting it
        # would zero the counters every other session reads.
        a = open_session(server, tcp)
        b = open_session(server, tcp)
        roundtrip(server, a, "warm-a")
        # Expression texts no other test evaluates: two misses.
        b.sendall(b"%set e {1+2+0*90417}; expr $e; "
                  b"set e {3+4+0*90417}; expr $e\n")
        pump(server)
        before = self.stat(server, b, "tcl.expr.misses", "before=")
        assert before >= 2
        reply = self.ask(server, a,
                         "[catch {info stats tcl.expr.* -reset} msg]:$msg",
                         "reset=")
        assert reply == ('1:info stats: cannot reset "tcl.expr": it is '
                         'shared beyond this interpreter')
        assert self.stat(server, b, "tcl.expr.misses", "after=") >= before


class TestStdioSession:
    def test_stdio_degenerate_session(self, tmp_path):
        from repro.server.session import Session, StdioTransport

        server = make_server()
        in_r, in_w = os.pipe()
        out_r, out_w = os.pipe()
        os.set_blocking(out_r, False)
        # Pipes stand in for the process's stdin/stdout so the test
        # does not flip the runner's real fd 0 nonblocking.
        transport = StdioTransport(in_fd=in_r, out_fd=out_w)
        session = Session(server, 99, transport)
        server.sessions[99] = session
        os.write(in_w, b"%echo via-stdio\n")
        out = b""
        for __ in range(100):
            pump(server, 5)
            try:
                out += os.read(out_r, 65536)
            except BlockingIOError:
                pass
            if b"via-stdio" in out:
                break
        assert b"via-stdio" in out
        os.close(in_w)
        pump(server, 20)
        assert session.ended and session.end_reason == "eof"
        assert server.shutdown() == 0
        for fd in (in_r, out_r, out_w):
            try:
                os.close(fd)
            except OSError:
                pass


class TestEventCoreAccept:
    def test_accept_on_nonready_listener_returns_none(self):
        from repro.xt.eventcore import EventCore

        core = EventCore()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        sock.setblocking(False)
        try:
            assert core.accept_connection(sock) is None
            assert core.stats()["accepts"] == 0
        finally:
            sock.close()

    def test_accept_returns_nonblocking_conn(self):
        from repro.xt.eventcore import EventCore

        core = EventCore()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        sock.setblocking(False)
        client = socket.create_connection(sock.getsockname())
        try:
            for __ in range(100):
                accepted = core.accept_connection(sock)
                if accepted is not None:
                    break
            assert accepted is not None
            conn, __ = accepted
            assert conn.getblocking() is False
            assert core.stats()["accepts"] == 1
            conn.close()
        finally:
            client.close()
            sock.close()

    def test_accept_failure_counted_not_raised(self):
        from repro.xt.eventcore import EventCore

        core = EventCore()

        class BadSock:
            def accept(self):
                raise OSError(9999, "synthetic failure")

        assert core.accept_connection(BadSock()) is None
        assert core.stats()["accept_failures"] == 1


class TestSharedCore:
    def test_released_sources_do_not_leak(self, server, tcp):
        client = open_session(server, tcp)
        session = list(server.sessions.values())[0]
        # A session script leaves a timer and a work proc behind...
        session.wafe.app.add_timeout(10_000, lambda: None)
        session.wafe.app.add_work_proc(lambda: False)
        client.close()
        pump(server, 30)
        # ...but teardown swept them: nothing of the session remains.
        assert not server.sessions
        assert server.shutdown() == 0

    def test_session_quit_does_not_stop_server(self, server, tcp):
        a = open_session(server, tcp)
        a.sendall(b"%quit\n")
        pump(server, 30)
        # The shared core survives the session-level Wafe.quit().
        b = open_session(server, tcp)
        assert b"next" in roundtrip(server, b, "next")
