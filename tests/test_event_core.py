"""The unified event core: fault paths, hostile handlers, both backends.

The suites here are the ISSUE-8 hostile-handler corpus: handlers that
raise (quarantine after N strikes, loop stays live), handlers that
stall (slow-handler watchdog), timers scheduled from inside timers,
EINTR injected via a real signal during the wait, fd recycling behind
the core's back, and the bounded shutdown drain.  Most run against
both the selectors backend and the raw-``select`` executable spec
(``SelectEventCore`` from tests/oracles/eventcore.py).
"""

import os
import signal
import sys
import textwrap
import time

import pytest

from repro.xlib import close_all_displays
from repro.xt import app as xt_app
from repro.xt.eventcore import EventCore
from repro.core import make_wafe
from repro.core.frontend import Frontend
from repro.core.supervisor import BackendSupervisor, substitute_quarantine
from tests.oracles.eventcore import SelectEventCore

BACKENDS = [EventCore, SelectEventCore]
BACKEND_IDS = ["selectors", "select-spec"]


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def core(request):
    return request.param()


def make_pipe():
    """A nonblocking pipe as (reader fileobj, writer fd)."""
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    reader = os.fdopen(read_fd, "rb", buffering=0)
    return reader, write_fd


def poll_until(core, predicate, deadline_s=5.0, step=0.05):
    deadline = time.monotonic() + deadline_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        core.run_due_timers()
        core.poll(step)
        core.run_one_work_proc()


# ----------------------------------------------------------------------
# Timers: the monotonic heap


class TestTimers:
    def test_fire_in_deadline_order(self, core):
        order = []
        core.add_timer(40, order.append, ("late",))
        core.add_timer(1, order.append, ("early",))
        poll_until(core, lambda: len(order) == 2)
        assert order == ["early", "late"]

    def test_remove_is_lazy_and_safe(self, core):
        fired = []
        timer_id = core.add_timer(1, fired.append, (1,))
        assert core.remove_timer(timer_id) is True
        assert core.remove_timer(timer_id) is False  # double: no-op
        time.sleep(0.01)
        assert core.run_due_timers() == 0
        assert fired == []
        assert core.next_deadline() is None  # tombstone discarded

    def test_timer_added_from_within_a_timer(self, core):
        order = []

        def outer():
            order.append("outer")
            core.add_timer(1, lambda: order.append("inner"))

        core.add_timer(1, outer)
        poll_until(core, lambda: order == ["outer", "inner"])

    def test_zero_ms_reschedule_does_not_spin_one_pass(self, core):
        """A 0ms timer that reschedules itself fires once per
        run_due_timers pass, never in a tight loop inside one pass."""
        count = []

        def tick():
            count.append(1)
            core.add_timer(0, tick)

        core.add_timer(0, tick)
        time.sleep(0.001)
        assert core.run_due_timers() == 1

    def test_raising_timer_contained_and_reported(self, core):
        contained = []
        core.error_handler = lambda ctx, exc: contained.append((ctx, exc))
        core.add_timer(1, lambda: 1 / 0)
        poll_until(core, lambda: bool(contained))
        assert contained[0][0] == "timeout handler"
        assert core.stats()["handler_errors"] == 1


# ----------------------------------------------------------------------
# fd watches: edge cases that used to KeyError or misfire


class TestWatchEdgeCases:
    def test_remove_from_inside_own_handler(self, core):
        reader, write_fd = make_pipe()
        hits = []
        holder = {}

        def handler(fileobj):
            fileobj.read(100)
            hits.append(1)
            core.remove_watch(holder["id"])

        holder["id"] = core.add_reader(reader, handler)
        os.write(write_fd, b"x")
        poll_until(core, lambda: bool(hits))
        os.write(write_fd, b"y")
        core.poll(0.05)
        assert hits == [1]  # removed: no refire
        os.close(write_fd)
        reader.close()

    def test_double_remove_is_safe_noop(self, core):
        reader, write_fd = make_pipe()
        watch_id = core.add_reader(reader, lambda f: None)
        assert core.remove_watch(watch_id) is True
        assert core.remove_watch(watch_id) is False
        assert core.remove_watch(99999) is False
        os.close(write_fd)
        reader.close()

    def test_handler_removing_sibling_suppresses_stale_dispatch(self,
                                                                core):
        """Two watches ready in the same batch; whichever dispatches
        first removes the other -- the removed one must not fire."""
        reader_a, write_a = make_pipe()
        reader_b, write_b = make_pipe()
        fired = []
        ids = {}

        def make_handler(name, other):
            def handler(fileobj):
                fileobj.read(100)
                fired.append(name)
                core.remove_watch(ids[other])
            return handler

        ids["a"] = core.add_reader(reader_a, make_handler("a", "b"))
        ids["b"] = core.add_reader(reader_b, make_handler("b", "a"))
        os.write(write_a, b"x")
        os.write(write_b, b"x")
        poll_until(core, lambda: bool(fired))
        core.poll(0.05)
        assert len(fired) == 1  # exactly one survived the batch
        for fd in (write_a, write_b):
            os.close(fd)
        reader_a.close()
        reader_b.close()

    def test_closed_then_reused_fd_does_not_misfire(self, core):
        """Close a watched fd without unregistering, let the OS recycle
        the number, register a new watch: the stale registration must
        neither fire the old handler nor misfire the new one."""
        reader, write_fd = make_pipe()
        old_fd = reader.fileno()
        old_hits = []
        core.add_reader(reader, lambda f: old_hits.append(1))
        reader.close()  # closed behind the core's back
        os.close(write_fd)
        # os.pipe reuses the lowest free descriptor -- usually the one
        # just closed.  The test is meaningful either way; assert the
        # common case when we get it.
        new_reader, new_write = make_pipe()
        new_hits = []
        core.add_reader(new_reader, lambda f: (f.read(10),
                                               new_hits.append(1)))
        if new_reader.fileno() == old_fd:
            assert core.stats()["dead_fd_drops"] >= 1  # stale purged
        core.poll(0.05)
        assert new_hits == []   # no data yet: no misfire
        assert old_hits == []   # stale handler never fires
        os.write(new_write, b"z")
        poll_until(core, lambda: bool(new_hits))
        assert old_hits == []
        os.close(new_write)
        new_reader.close()

    def test_dead_fd_reaped_with_leak_counter(self, core):
        messages = []
        core.report = messages.append
        reader, write_fd = make_pipe()
        core.add_reader(reader, lambda f: None)
        reader.close()
        os.close(write_fd)
        assert core.reap_dead_fds() == 1
        assert core.stats()["dead_fd_drops"] == 1
        assert core.active_watches() == 0
        assert any("dead fd" in m for m in messages)

    def test_idle_blocking_poll_reaps_silent_leaks(self, core):
        """epoll drops a closed fd silently; a timed-out blocking poll
        must notice and release the watch (else has_sources pins the
        loop open forever)."""
        reader, write_fd = make_pipe()
        core.add_reader(reader, lambda f: None)
        reader.close()
        os.close(write_fd)
        core.poll(0.01)
        assert core.active_watches() == 0
        assert not core.has_sources()


# ----------------------------------------------------------------------
# Quarantine: the per-handler exception firewall


class TestQuarantine:
    def test_raising_handler_quarantined_loop_stays_live(self, core):
        contained = []
        quarantined = []
        messages = []
        core.error_handler = lambda ctx, exc: contained.append(ctx)
        core.report = messages.append
        core.on_quarantine = (
            lambda kind, fd, label, strikes, exc:
            quarantined.append((kind, fd, label, strikes)))

        bad_reader, bad_write = make_pipe()
        good_reader, good_write = make_pipe()
        good_hits = []

        def bad_handler(fileobj):
            raise RuntimeError("hostile handler")  # never reads: stays ready

        core.add_reader(bad_reader, bad_handler, label="hostile")
        core.add_reader(good_reader, lambda f: (f.read(10),
                                                good_hits.append(1)))
        os.write(bad_write, b"x")
        poll_until(core, lambda: bool(quarantined))
        stats = core.stats()
        assert stats["quarantined"] == 1
        assert stats["handler_errors"] == core.QUARANTINE_STRIKES
        assert len(contained) == core.QUARANTINE_STRIKES
        kind, fd, label, strikes = quarantined[0]
        assert (kind, label, strikes) == ("input", "hostile",
                                          core.QUARANTINE_STRIKES)
        assert any("quarantined" in m for m in messages)
        # The loop is still live: the healthy watch keeps working.
        os.write(good_write, b"y")
        poll_until(core, lambda: bool(good_hits))
        # ...and the hostile one is genuinely gone.
        core.poll(0.05)
        assert stats["quarantined"] == core.stats()["quarantined"]
        for fd_ in (bad_write, good_write):
            os.close(fd_)
        bad_reader.close()
        good_reader.close()

    def test_strikes_reset_on_success(self, core):
        core.error_handler = lambda ctx, exc: None
        reader, write_fd = make_pipe()
        state = {"raise": True}

        def flaky(fileobj):
            data = fileobj.read(10)
            if state["raise"] and data:
                raise RuntimeError("flaky")

        core.add_reader(reader, flaky)
        # strikes-1 failures, then a success, then strikes-1 more:
        # never quarantined because the streak resets.
        for round_ in range(2):
            for __ in range(core.QUARANTINE_STRIKES - 1):
                os.write(write_fd, b"x")
                poll_until(core, lambda n=core.stats()["dispatches"]:
                           core.stats()["dispatches"] > n)
            state["raise"] = False
            os.write(write_fd, b"x")
            poll_until(core, lambda n=core.stats()["dispatches"]:
                       core.stats()["dispatches"] > n)
            state["raise"] = True
        assert core.stats()["quarantined"] == 0
        assert core.active_watches() == 1
        os.close(write_fd)
        reader.close()

    def test_quarantine_hook_failure_is_contained(self, core):
        contained = []
        core.error_handler = lambda ctx, exc: contained.append(ctx)

        def exploding_hook(*args):
            raise RuntimeError("hook is hostile too")

        core.on_quarantine = exploding_hook
        reader, write_fd = make_pipe()
        core.add_reader(reader, lambda f: 1 / 0)
        os.write(write_fd, b"x")
        poll_until(core, lambda: core.stats()["quarantined"] == 1)
        assert "quarantine hook" in contained
        os.close(write_fd)
        reader.close()


# ----------------------------------------------------------------------
# The slow-handler watchdog


class TestSlowHandlerWatchdog:
    def test_slow_handler_reported(self, core):
        messages = []
        core.report = messages.append
        core.handler_time_limit_ms = 10
        reader, write_fd = make_pipe()
        core.add_reader(
            reader,
            lambda f: (f.read(10), time.sleep(0.05)), label="sleepy")
        os.write(write_fd, b"x")
        poll_until(core, lambda: core.stats()["slow_dispatches"] >= 1)
        assert any("handlerTimeLimit" in m and "sleepy" in m
                   for m in messages)
        os.close(write_fd)
        reader.close()

    def test_fast_handlers_not_reported(self, core):
        messages = []
        core.report = messages.append
        core.handler_time_limit_ms = 500
        core.add_timer(1, lambda: None)
        poll_until(core, lambda: core.stats()["timers_fired"] == 1)
        assert core.stats()["slow_dispatches"] == 0
        assert messages == []

    def test_slow_timer_reported_too(self, core):
        messages = []
        core.report = messages.append
        core.handler_time_limit_ms = 10
        core.add_timer(1, lambda: time.sleep(0.05), label="slow timer")
        poll_until(core, lambda: core.stats()["timers_fired"] == 1)
        assert core.stats()["slow_dispatches"] == 1
        assert any("slow timer" in m for m in messages)


# ----------------------------------------------------------------------
# EINTR: real signals during the wait


class TestEintr:
    @pytest.fixture(autouse=True)
    def _alarm(self):
        hits = []
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: hits.append(1))
        self.signal_hits = hits
        yield
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    def test_timer_fires_despite_signal_storm(self, core):
        fired = []
        core.add_timer(120, fired.append, (1,))
        signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
        start = time.monotonic()
        poll_until(core, lambda: bool(fired), deadline_s=5.0)
        elapsed = time.monotonic() - start
        assert self.signal_hits  # the storm really happened
        assert elapsed < 3.0     # signals did not park the timer

    def test_wait_writable_deadline_survives_signals(self, core):
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        while True:  # fill the pipe so it is never writable
            try:
                if os.write(write_fd, b"x" * 4096) == 0:
                    break
            except BlockingIOError:
                break
        signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
        start = time.monotonic()
        assert core.wait_writable(write_fd, 0.3) is False
        elapsed = time.monotonic() - start
        assert self.signal_hits
        assert 0.25 <= elapsed < 1.5  # bounded: not extended per signal
        os.close(read_fd)
        os.close(write_fd)

    def test_poll_survives_signal_during_select(self, core):
        reader, write_fd = make_pipe()
        hits = []
        core.add_reader(reader, lambda f: (f.read(10), hits.append(1)))
        signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
        core.poll(0.1)  # signal lands inside the wait; no exception
        os.write(write_fd, b"x")
        poll_until(core, lambda: bool(hits))
        assert self.signal_hits
        os.close(write_fd)
        reader.close()


# ----------------------------------------------------------------------
# wait_writable and the shutdown drain


class TestShutdown:
    def test_wait_writable_true_on_writable_pipe(self, core):
        read_fd, write_fd = os.pipe()
        assert core.wait_writable(write_fd, 0.5) is True
        os.close(read_fd)
        os.close(write_fd)

    def test_wait_writable_false_on_dead_fd(self, core):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        os.close(write_fd)
        assert core.wait_writable(write_fd, 0.2) is False

    def test_shutdown_drains_pending_writer(self, core):
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        drained = []
        holder = {}

        def on_writable(fd):
            drained.append(1)
            core.remove_watch(holder["id"])  # "queue" now empty

        holder["id"] = core.add_writer(write_fd, on_writable)
        leaked = core.shutdown(drain_timeout=1.0)
        assert drained == [1]
        assert leaked == 0
        assert not core.has_sources()
        os.close(read_fd)
        os.close(write_fd)

    def test_shutdown_bounded_when_never_writable(self, core):
        messages = []
        core.report = messages.append
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        while True:  # full pipe, nobody reading
            try:
                if os.write(write_fd, b"x" * 4096) == 0:
                    break
            except BlockingIOError:
                break
        core.add_writer(write_fd, lambda fd: None)
        start = time.monotonic()
        leaked = core.shutdown(drain_timeout=0.2)
        elapsed = time.monotonic() - start
        assert leaked == 1
        assert elapsed < 2.0
        assert core.stats()["leaked_watches"] == 1
        assert any("shutdown" in m for m in messages)
        assert not core.has_sources()
        os.close(read_fd)
        os.close(write_fd)

    def test_core_usable_after_shutdown(self, core):
        core.shutdown()
        fired = []
        core.add_timer(1, fired.append, (1,))
        reader, write_fd = make_pipe()
        core.add_reader(reader, lambda f: (f.read(10), fired.append(2)))
        os.write(write_fd, b"x")
        poll_until(core, lambda: len(fired) == 2)
        os.close(write_fd)
        reader.close()


# ----------------------------------------------------------------------
# The percent codes of onHandlerQuarantine


class TestQuarantineSubstitution:
    def test_all_codes(self):
        exc = RuntimeError("boom")
        out = substitute_quarantine("k=%k f=%f l=%l n=%n e=%e pct=%%",
                                    "input", 7, "backend stdout", 3, exc)
        assert out == ("k=input f=7 l=backend stdout n=3 "
                       "e=RuntimeError: boom pct=%")

    def test_missing_label_and_exc(self):
        assert substitute_quarantine("%l|%e", "output", 1, None, 1,
                                     None) == "|"

    def test_unknown_code_left_alone(self):
        assert substitute_quarantine("%z", "input", 1, "l", 1,
                                     None) == "%z"


# ----------------------------------------------------------------------
# Wafe-level integration: resources, commands, info stats xt.event.*


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def wafe(request, monkeypatch):
    close_all_displays()
    monkeypatch.setattr(xt_app, "EventCore", request.param)
    return make_wafe()


def eventstats(wafe):
    fields = wafe.run_script("info stats xt.event.*").split()
    return {key[len("xt.event."):]: value
            for key, value in zip(fields[::2], fields[1::2])}


class TestWafeIntegration:
    def test_info_stats_event_shape(self, wafe):
        stats = eventstats(wafe)
        expected_backend = ("select"
                            if isinstance(wafe.app.core, SelectEventCore)
                            else "selectors:")
        assert stats["backend"].startswith(expected_backend)
        for key in ("active_inputs", "active_outputs", "pending_timers",
                    "registered", "dispatches", "quarantined",
                    "slow_dispatches", "stale_skips", "dead_fd_drops",
                    "handler_time_limit_ms"):
            assert key in stats

    def test_info_stats_event_counts_and_reset(self, wafe):
        wafe.app.add_timeout(1, lambda: None)
        wafe.app.main_loop(max_idle=5)
        stats = eventstats(wafe)
        assert int(stats["timers_fired"]) >= 1
        assert int(stats["polls"]) >= 1
        wafe.run_script("info stats xt.event.* -reset")
        stats = eventstats(wafe)
        assert stats["timers_fired"] == "0"
        assert stats["polls"] == "0"

    def test_handler_time_limit_command(self, wafe):
        assert wafe.run_script("handlerTimeLimit") == "0"
        wafe.run_script("handlerTimeLimit 25")
        assert wafe.app.core.handler_time_limit_ms == 25
        assert wafe.run_script("handlerTimeLimit") == "25"

    def test_handler_time_limit_resource(self, wafe):
        wafe.app.merge_resources("wafe.handlerTimeLimit: 40")
        wafe.supervision.load_resources(wafe.app)
        wafe.apply_fault_containment()
        assert wafe.app.core.handler_time_limit_ms == 40

    def test_on_handler_quarantine_script_runs(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script(
            "onHandlerQuarantine {set quarantined {%k fd %f after %n}}")
        reader, write_fd = make_pipe()
        wafe.app.add_input(reader, lambda f: 1 / 0, label="hostile")
        os.write(write_fd, b"x")
        deadline = time.monotonic() + 5.0
        while wafe.app.core.stats()["quarantined"] == 0:
            assert time.monotonic() < deadline
            wafe.app.process_one(block=True)
        strikes = wafe.app.core.QUARANTINE_STRIKES
        assert wafe.interp.get_var("quarantined") == \
            "input fd %d after %d" % (reader.fileno(), strikes)
        assert any("quarantined" in e for e in errors)
        os.close(write_fd)
        reader.close()

    def test_slow_handler_reported_through_error_sink(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("handlerTimeLimit 10")
        wafe.app.add_timeout(1, lambda: time.sleep(0.05))
        wafe.app.main_loop(max_idle=10)
        assert any("handlerTimeLimit" in e for e in errors)
        assert eventstats(wafe)["slow_dispatches"] == "1"


# ----------------------------------------------------------------------
# Frontend + supervisor regression on both backends


def write_backend(tmp_path, body):
    script = tmp_path / "backend.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, "-u", str(script)]


ECHO_BACKEND = """
    import sys
    print("%set started 1")
    sys.stdout.flush()
    for line in sys.stdin:
        print("%set got " + line.strip())
        sys.stdout.flush()
        break
"""


class TestFrontendOnBothBackends:
    def test_roundtrip_and_close_drain(self, wafe, tmp_path):
        command = write_backend(tmp_path, ECHO_BACKEND)
        frontend = Frontend(wafe, command)
        interp = wafe.interp
        wafe.app.main_loop(until=lambda: interp.var_exists("started"),
                           max_idle=2000)
        frontend.send("ping\n")
        wafe.app.main_loop(until=lambda: interp.var_exists("got"),
                           max_idle=2000)
        assert interp.get_var("got") == "ping"
        frontend.close()
        assert frontend.exit_status is not None
        assert eventstats(wafe)["active_inputs"] == "0"

    def test_supervisor_restart_on_new_core(self, wafe, tmp_path):
        wafe.run_script("restartPolicy on-failure 2 1")
        counter = tmp_path / "runs"
        command = write_backend(tmp_path, """
            import os, sys
            path = {path!r}
            n = 1
            if os.path.exists(path):
                n = int(open(path).read()) + 1
            open(path, "w").write(str(n))
            print("%set runs " + str(n))
            sys.stdout.flush()
            sys.exit(3)
        """.format(path=str(counter)))
        wafe.error_sink = lambda msg: None
        supervisor = BackendSupervisor(wafe, command)
        supervisor.start()
        wafe.main_loop(until=lambda: supervisor.restart_count >= 2,
                       max_idle=4000)
        assert supervisor.restart_count == 2
        assert int(wafe.interp.get_var("runs")) >= 2
        supervisor.stop()
        # The backoff timers all ran or were cancelled on the new core.
        assert wafe.app._timeouts == []
