"""Backend supervision: exit classification, policies, restart loop.

Unit tests for the pure pieces (ExitStatus, percent substitution, the
config/resource precedence, backoff arithmetic) plus integration tests
that kill real child processes and watch the supervisor put the
session back together while the GUI keeps serving events.
"""

import os
import signal
import sys
import textwrap

import pytest

from repro.xlib import close_all_displays
from repro.core import make_wafe
from repro.core.supervisor import (
    BackendSupervisor,
    ExitStatus,
    SupervisionConfig,
    classify_exit,
    substitute_exit,
)


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


def backend(tmp_path, body, name="backend.py"):
    script = tmp_path / name
    script.write_text(textwrap.dedent(body))
    return [sys.executable, "-u", str(script)]


class TestExitStatus:
    def test_normal_exit(self):
        status = classify_exit(0)
        assert status.kind == "exit"
        assert status.code == 0
        assert status.success
        assert status.describe() == "exit 0"

    def test_failure_exit(self):
        status = classify_exit(3)
        assert status.kind == "exit"
        assert status.code == 3
        assert not status.success
        assert str(status) == "exit 3"
        assert repr(status) == "<ExitStatus exit 3>"

    def test_signal_exit(self):
        status = classify_exit(-9)
        assert status.kind == "signal"
        assert status.code == 9
        assert not status.success
        assert status.describe() == "signal 9 (SIGKILL)"

    def test_unknown_signal_number(self):
        status = ExitStatus(-250)
        assert status.signal_name() == "SIG250"

    def test_none_passes_through(self):
        assert classify_exit(None) is None


class TestExitSubstitution:
    def test_all_codes(self):
        status = classify_exit(-15)
        out = substitute_exit("s=%s k=%k c=%c r=%r p=%p pct=%%",
                              status, 2, "prog")
        assert out == ("s=signal 15 (SIGTERM) k=signal c=15 r=2 "
                       "p=prog pct=%")

    def test_exit_code_codes(self):
        out = substitute_exit("%k %c", classify_exit(4), 0, "p")
        assert out == "exit 4"

    def test_unknown_code_left_alone(self):
        assert substitute_exit("%z", classify_exit(0), 0, "p") == "%z"

    def test_none_status(self):
        assert substitute_exit("%s/%k/%c", None, 1, "p") == "unknown/unknown/"


class TestSupervisionConfig:
    def test_defaults(self):
        config = SupervisionConfig()
        assert config.policy == "never"
        assert config.max_restarts == 5
        assert config.backoff_ms == 250
        assert config.mass_timeout_ms == 0

    def test_resources_like_init_com(self, wafe):
        wafe.app.merge_resources(textwrap.dedent("""
            *restartPolicy: on-failure
            *maxRestarts: 2
            *restartBackoff: 10
            *restartBackoffCap: 40
            *massTransferTimeout: 500
            *channelHighWater: 4096
            *onBackendExit: set gone 1
        """))
        config = wafe.supervision
        config.load_resources(wafe.app)
        assert config.policy == "on-failure"
        assert config.max_restarts == 2
        assert config.backoff_ms == 10
        assert config.backoff_cap_ms == 40
        assert config.mass_timeout_ms == 500
        assert config.high_water == 4096
        assert config.on_exit_script == "set gone 1"

    def test_explicit_command_beats_resource(self, wafe):
        wafe.app.merge_resources("*restartPolicy: always")
        wafe.run_script("restartPolicy on-failure")
        wafe.supervision.load_resources(wafe.app)
        assert wafe.supervision.policy == "on-failure"

    def test_bad_resource_reported_not_fatal(self, wafe):
        errors = []
        wafe.app.merge_resources("*restartPolicy: sometimes")
        wafe.supervision.load_resources(wafe.app, report=errors.append)
        assert wafe.supervision.policy == "never"
        assert any("restartPolicy" in e for e in errors)


class TestBackoffArithmetic:
    def test_exponential_with_cap(self, wafe):
        wafe.run_script("restartPolicy on-failure 10 100 450")
        supervisor = BackendSupervisor(wafe, ["true"])
        delays = [supervisor.backoff_delay_ms(i) for i in range(5)]
        assert delays == [100, 200, 400, 450, 450]


class TestSupervisionCommands:
    def test_restart_policy_roundtrip(self, wafe):
        assert wafe.run_script("restartPolicy") == "never 5 250 30000"
        wafe.run_script("restartPolicy always 3 100 2000")
        assert wafe.run_script("restartPolicy") == "always 3 100 2000"

    def test_restart_policy_validates(self, wafe):
        with pytest.raises(Exception):
            wafe.run_script("restartPolicy sometimes")

    def test_on_backend_exit_roundtrip(self, wafe):
        assert wafe.run_script("onBackendExit") == ""
        wafe.run_script("onBackendExit {echo gone %s}")
        assert wafe.run_script("onBackendExit") == "echo gone %s"

    def test_mass_transfer_timeout_roundtrip(self, wafe):
        assert wafe.run_script("massTransferTimeout") == "0"
        wafe.run_script("massTransferTimeout 250")
        assert wafe.run_script("massTransferTimeout") == "250"

    def test_channel_high_water_roundtrip(self, wafe):
        wafe.run_script("channelHighWater 65536")
        assert wafe.run_script("channelHighWater") == "65536"

    def test_backend_status_detached(self, wafe):
        assert wafe.run_script("backendStatus") == "detached {} 0 {}"


def _counter_backend(tmp_path):
    """Each spawn bumps a run counter file and reports it, then naps
    so the test controls the moment of death."""
    counter = tmp_path / "runs"
    body = """
        import os, sys, time
        path = {path!r}
        n = 1
        if os.path.exists(path):
            n = int(open(path).read()) + 1
        open(path, "w").write(str(n))
        print("%set runs " + str(n))
        sys.stdout.flush()
        time.sleep(30)
    """.format(path=str(counter))
    return backend(tmp_path, body)


def _runs(wafe):
    if not wafe.interp.var_exists("runs"):
        return 0
    return int(wafe.interp.get_var("runs"))


class TestRestartIntegration:
    def test_sigkill_restarts_with_backoff_and_hook(self, wafe, tmp_path):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("restartPolicy on-failure 3 40 1000")
        wafe.run_script(
            "onBackendExit {set lastStatus {%s}; set lastKind %k; "
            "set lastCount %r}")
        supervisor = BackendSupervisor(wafe, _counter_backend(tmp_path))
        supervisor.start()
        wafe.main_loop(until=lambda: _runs(wafe) >= 1, max_idle=800)
        assert supervisor.state == "running"

        # The GUI must stay responsive across the death: this timer
        # has to fire *between* the kill and the relaunch.
        ticks = []
        wafe.app.add_timeout(5, lambda: ticks.append(1))
        os.kill(supervisor.frontend.process.pid, signal.SIGKILL)
        wafe.main_loop(until=lambda: _runs(wafe) >= 2, max_idle=2000)

        assert _runs(wafe) == 2
        assert ticks  # the loop dispatched while the backend was down
        assert wafe.run_script("set lastKind") == "signal"
        assert wafe.run_script("set lastStatus") == "signal 9 (SIGKILL)"
        assert wafe.run_script("set lastCount") == "0"
        assert supervisor.backoff_schedule == [40]
        assert supervisor.restart_count == 1
        assert any("restart 1/3" in e for e in errors)
        supervisor.stop()

    def test_backoff_grows_exponentially(self, wafe, tmp_path):
        wafe.run_script("restartPolicy always 5 20 10000")
        supervisor = BackendSupervisor(wafe, _counter_backend(tmp_path))
        supervisor.start()
        for round_no in (1, 2, 3):
            wafe.main_loop(until=lambda: _runs(wafe) >= round_no,
                           max_idle=2000)
            os.kill(supervisor.frontend.process.pid, signal.SIGKILL)
        wafe.main_loop(until=lambda: _runs(wafe) >= 4, max_idle=3000)
        assert supervisor.backoff_schedule == [20, 40, 80]
        supervisor.stop()

    def test_gives_up_after_max_restarts(self, wafe, tmp_path):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("restartPolicy on-failure 1 10 100")
        wafe.run_script("onBackendExit {set exits [expr $exits + 1]}")
        wafe.run_script("set exits 0")
        supervisor = BackendSupervisor(wafe, _counter_backend(tmp_path))
        supervisor.start()
        wafe.main_loop(until=lambda: _runs(wafe) >= 1, max_idle=800)
        os.kill(supervisor.frontend.process.pid, signal.SIGKILL)
        wafe.main_loop(until=lambda: _runs(wafe) >= 2, max_idle=2000)
        os.kill(supervisor.frontend.process.pid, signal.SIGKILL)
        wafe.main_loop(until=lambda: supervisor.state == "exited",
                       max_idle=2000)
        assert supervisor.restart_count == 1
        assert any("giving up" in e for e in errors)
        # With a hook installed the loop was NOT told to exit: the
        # script owns the endgame.
        assert not wafe.app.quit_requested
        assert wafe.run_script("set exits") == "2"
        supervisor.stop()

    def test_on_failure_does_not_restart_clean_exit(self, wafe, tmp_path):
        wafe.run_script("restartPolicy on-failure 3 10 100")
        command = backend(tmp_path, 'print("%set done 1")')
        supervisor = BackendSupervisor(wafe, command)
        supervisor.start()
        wafe.main_loop(until=lambda: supervisor.state == "exited",
                       max_idle=800)
        assert supervisor.last_status.success
        assert supervisor.restart_count == 0
        assert supervisor.backoff_schedule == []
        supervisor.stop()

    def test_always_restarts_clean_exit(self, wafe, tmp_path):
        wafe.run_script("restartPolicy always 2 10 100")
        supervisor = BackendSupervisor(wafe, _counter_backend(tmp_path))
        supervisor.start()
        wafe.main_loop(until=lambda: _runs(wafe) >= 1, max_idle=800)
        supervisor.frontend.process.terminate()
        wafe.main_loop(until=lambda: _runs(wafe) >= 2, max_idle=2000)
        assert _runs(wafe) == 2
        supervisor.stop()

    def test_hook_without_restart_keeps_gui_alive(self, wafe, tmp_path):
        wafe.run_script("onBackendExit {set gone {%s}}")
        command = backend(tmp_path, "raise SystemExit(7)")
        supervisor = BackendSupervisor(wafe, command)
        supervisor.start()
        wafe.main_loop(until=lambda: wafe.interp.var_exists("gone"),
                       max_idle=800)
        assert wafe.run_script("set gone") == "exit 7"
        assert not wafe.app.quit_requested  # policy never, but hook set
        # widgets still work after the backend is gone
        assert wafe.run_script("label l topLevel; widgetExists l") == "1"
        supervisor.stop()

    def test_no_policy_no_hook_ends_loop(self, wafe, tmp_path):
        command = backend(tmp_path, 'print("%set done 1")')
        supervisor = BackendSupervisor(wafe, command)
        supervisor.start()
        wafe.main_loop(max_idle=800)
        assert supervisor.state == "exited"
        assert wafe.app.quit_requested  # historical contract preserved
        supervisor.stop()

    def test_backend_status_command(self, wafe, tmp_path):
        wafe.run_script("restartPolicy on-failure 3 30 1000")
        supervisor = BackendSupervisor(wafe, _counter_backend(tmp_path))
        supervisor.start()
        wafe.main_loop(until=lambda: _runs(wafe) >= 1, max_idle=800)
        state = wafe.run_script("backendStatus")
        pid = str(supervisor.frontend.process.pid)
        assert state.split()[0] == "running"
        assert pid in state
        os.kill(supervisor.frontend.process.pid, signal.SIGKILL)
        wafe.main_loop(until=lambda: supervisor.state != "running",
                       max_idle=2000)
        status = wafe.run_script("backendStatus")
        assert status.startswith("backoff")
        assert "signal 9 (SIGKILL)" in status
        supervisor.stop()

    def test_quit_cancels_pending_restart(self, wafe, tmp_path):
        wafe.run_script("restartPolicy always 5 5000 10000")
        supervisor = BackendSupervisor(wafe, _counter_backend(tmp_path))
        supervisor.start()
        wafe.main_loop(until=lambda: _runs(wafe) >= 1, max_idle=800)
        os.kill(supervisor.frontend.process.pid, signal.SIGKILL)
        wafe.main_loop(until=lambda: supervisor.state == "backoff",
                       max_idle=2000)
        wafe.quit()
        assert supervisor.state == "stopped"
        assert supervisor._restart_timer is None
        assert wafe.app._timeouts == []

    def test_stdout_closed_but_alive_is_terminated(self, wafe, tmp_path):
        # EOF without an exit: the supervisor ends the session itself
        # with SIGTERM, so the hook sees a real exit status.
        wafe.run_script("onBackendExit {set lastStatus {%s}}")
        supervisor = BackendSupervisor(wafe, backend(tmp_path, """
            import os, time
            os.close(1)
            time.sleep(30)
        """))
        supervisor.start()
        wafe.main_loop(until=lambda: wafe.interp.var_exists("lastStatus"),
                       max_idle=5000)
        assert wafe.run_script("set lastStatus") == "signal 15 (SIGTERM)"
        assert supervisor.frontend.process.poll() == -signal.SIGTERM
        supervisor.stop()
