"""C7 -- "a single Wafe binary serves multiple applications".

One frontend build (one command table, one process image) serves many
applications two ways, and this module measures both:

* serially -- backends written in different languages run one after
  the other through the same Wafe instance (the original xwafe* demo
  deployment story);
* concurrently -- the multi-session server (docs/SERVER.md) holds
  100+ simultaneous client sessions on one shared event core, keeps
  command round-trips bounded while a hostile neighbor trips its eval
  budget until it is reaped, and drains to zero leaked watches.

The concurrent workload writes BENCH_server.json (via
``bench_record``) and gates against the committed artifact
with generous slack, so a scheduling regression that wedges neighbor
sessions behind a bomb shows up in CI, not in production.
"""

import socket
import sys
import textwrap
import time

from repro.core.frontend import Frontend
from repro.server import WafeServer
from repro.xlib import close_all_displays

from benchmarks.conftest import bench_record, committed_workloads

PY_BACKEND = '''
    import sys
    print("%label who topLevel label {python app}")
    print("%realize")
    print("%set lang python")
    sys.stdout.flush()
'''

SH_BACKEND = '''\
echo '%label who topLevel label {shell app}'
echo '%realize'
echo '%set lang sh'
'''


def test_one_frontend_many_backends(benchmark, wafe, tmp_path):
    py_script = tmp_path / "app.py"
    py_script.write_text(textwrap.dedent(PY_BACKEND))
    sh_script = tmp_path / "app.sh"
    sh_script.write_text(SH_BACKEND)

    def serve_both():
        served = []
        for command in ([sys.executable, "-u", str(py_script)],
                        ["/bin/sh", str(sh_script)]):
            for name in list(wafe.widgets):
                if name != "topLevel":
                    wafe.run_command_line("destroyWidget %s" % name)
            wafe.run_command_line("set lang {}")
            frontend = Frontend(wafe, command)
            wafe.main_loop(
                until=lambda: wafe.run_script("set lang") != "",
                max_idle=600)
            served.append((wafe.run_script("set lang"),
                           wafe.run_script("gV who label")))
            frontend.close()
        return served

    served = benchmark.pedantic(serve_both, rounds=3, iterations=1)
    print("\none Wafe instance served:")
    for lang, label in served:
        print("  %-7s backend -> GUI label %r" % (lang, label))
    assert served == [("python", "python app"), ("sh", "shell app")]


# ----------------------------------------------------------------------
# The concurrent half: the multi-session server at scale.

#: Well-behaved sessions; the scale gate the ISSUE pins is >= 100
#: concurrent, so run a margin above it (plus one hostile neighbor).
NEIGHBORS = 120
ROUNDS = 6
#: The hostile session's per-eval time budget and its reap threshold:
#: each ``while 1 {}`` bomb costs at most EVAL_BUDGET_MS of shared
#: loop time before the interpreter trips it, and after HOSTILE_TRIPS
#: total trips the session is reaped.
EVAL_BUDGET_MS = 25
HOSTILE_TRIPS = 4


def _drain(client):
    out = b""
    while True:
        try:
            data = client.recv(65536)
        except BlockingIOError:
            return out
        except OSError:
            return out
        if not data:
            return out
        out += data


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def test_hundred_concurrent_sessions():
    """>= 100 concurrent sessions on one core; a hostile neighbor trips
    its eval budget every round until reaped; every other session's
    echo round-trips stay bounded; shutdown drains with zero leaks."""
    close_all_displays()
    server = WafeServer()
    addr = server.listen_tcp("127.0.0.1", 0)

    setup_start = time.perf_counter()
    clients = []
    for __ in range(NEIGHBORS + 1):
        client = socket.create_connection(addr)
        client.setblocking(False)
        clients.append(client)
        # Pump as we go so the accept backlog never overflows.
        server.run_once(timeout=0.001)
    deadline = time.monotonic() + 30.0
    while len(server.sessions) < NEIGHBORS + 1:
        assert time.monotonic() < deadline, (
            "only %d/%d sessions accepted" % (len(server.sessions),
                                              NEIGHBORS + 1))
        server.run_once(timeout=0.002)
    # Collect every greeting so round-trip reads see only echo output.
    greeted = [b""] * len(clients)
    while not all(b"\n" in g for g in greeted):
        assert time.monotonic() < deadline, "greetings incomplete"
        server.run_once(timeout=0.002)
        for i, client in enumerate(clients):
            if b"\n" not in greeted[i]:
                greeted[i] += _drain(client)
    setup_s = time.perf_counter() - setup_start
    peak_sessions = len(server.sessions)
    assert peak_sessions >= 100

    hostile, neighbors = clients[0], clients[1:]
    hostile.sendall(b"%sessionQuota evalTimeLimit " +
                    str(EVAL_BUDGET_MS).encode() + b"\n" +
                    b"%sessionQuota maxTrips " +
                    str(HOSTILE_TRIPS).encode() + b"\n")
    for __ in range(20):
        server.run_once(timeout=0.001)

    rtts = []
    commands = 0
    measure_start = time.perf_counter()
    for rnd in range(ROUNDS):
        try:
            hostile.sendall(b"%while 1 {}\n")
        except OSError:
            pass  # already reaped: the neighbors keep being measured
        token = ("rt%d" % rnd).encode()
        for client in neighbors:
            client.sendall(("%%echo rt%d\n" % rnd).encode())
        round_start = time.perf_counter()
        pending = dict.fromkeys(range(len(neighbors)), b"")
        round_deadline = time.monotonic() + 20.0
        while pending:
            assert time.monotonic() < round_deadline, (
                "round %d: %d sessions never answered"
                % (rnd, len(pending)))
            server.run_once(timeout=0.001)
            now = time.perf_counter()
            for idx in list(pending):
                pending[idx] += _drain(neighbors[idx])
                if token in pending[idx]:
                    rtts.append(now - round_start)
                    del pending[idx]
        commands += len(neighbors)
    elapsed_s = time.perf_counter() - measure_start

    # The hostile session tripped its budget each round and was reaped
    # after HOSTILE_TRIPS trips -- while every neighbor kept answering.
    assert server.quota_trips["time"] >= HOSTILE_TRIPS
    assert server.supervisor.ended.get("quota", 0) == 1
    assert len(server.sessions) == NEIGHBORS

    stats = server.serverstats()
    leaked = server.shutdown()
    for client in clients:
        client.close()
    assert leaked == 0

    throughput = commands / max(elapsed_s, 1e-9)
    p50_ms = _percentile(rtts, 0.50) * 1000.0
    p99_ms = _percentile(rtts, 0.99) * 1000.0
    payload = {
        "sessions_peak": peak_sessions,
        "rounds": ROUNDS,
        "commands": commands,
        "setup_s": round(setup_s, 4),
        "elapsed_s": round(elapsed_s, 4),
        "throughput_cps": round(throughput, 1),
        "rtt_p50_ms": round(p50_ms, 3),
        "rtt_p99_ms": round(p99_ms, 3),
        "dispatch_p50_ms": stats["dispatch_p50_ms"],
        "dispatch_p99_ms": stats["dispatch_p99_ms"],
        "hostile_time_trips": server.quota_trips["time"],
        "hostile_reaped": server.supervisor.ended.get("quota", 0),
        "leaked_watches": leaked,
    }
    bench_record("server", "concurrent_sessions", payload)
    print("\nmulti-session server: %d concurrent sessions, "
          "%.0f commands/s, round-trip p50 %.1fms p99 %.1fms "
          "(hostile neighbor tripped %d budgets, reaped, 0 leaks)"
          % (peak_sessions, throughput, p50_ms, p99_ms,
             payload["hostile_time_trips"]))

    # Gate against the committed artifact with generous slack (CI
    # machines are noisy; a real scheduling regression is not 5x).
    committed = (committed_workloads("server") or {}).get(
        "concurrent_sessions")
    if committed:
        assert p99_ms <= max(committed["rtt_p99_ms"] * 5.0, 250.0), (
            "round-trip p99 regressed: %.1fms vs committed %.1fms"
            % (p99_ms, committed["rtt_p99_ms"]))
        assert throughput >= committed["throughput_cps"] / 5.0, (
            "throughput regressed: %.0f/s vs committed %.0f/s"
            % (throughput, committed["throughput_cps"]))


def test_same_command_table_across_backends(benchmark, wafe):
    """The command table is the binary's configuration: identical for
    every application it serves."""

    def snapshot():
        return frozenset(wafe.interp.commands)

    before = snapshot()
    result = benchmark(snapshot)
    assert result == before
    assert {"label", "command", "sV", "gV", "echo", "realize"} <= set(before)
