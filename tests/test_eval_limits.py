"""Interpreter fault containment: the hostile-script corpus.

Every test here feeds the interpreter (or a full frontend) input that
is broken on purpose -- infinite loops, unbounded recursion, commands
that raise Python exceptions, allocation bombs -- and asserts the two
halves of the containment contract:

* the fault surfaces as a clean Tcl error (never a Python traceback,
  never a hang), and
* the interpreter / event loop / frontend stays fully usable after.
"""

import os
import sys
import textwrap

import pytest

from repro.tcl import Interp
from repro.tcl.errors import (
    TclError,
    TclLimitError,
    get_panic_log,
    set_panic_log,
)
from repro.xlib import close_all_displays
from repro.core import make_wafe
from repro.core.frontend import Frontend
from repro.core.safemode import SAFE_HIDDEN_COMMANDS

from tests.oracles.tcl import TreeInterp


@pytest.fixture
def tcl():
    return Interp()


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


@pytest.fixture(autouse=True)
def _no_panic_log_leak():
    yield
    set_panic_log(None)


def write_backend(tmp_path, body):
    script = tmp_path / "backend.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, "-u", str(script)]


# ----------------------------------------------------------------------
# The watchdog: time and command budgets


class TestWatchdog:
    def test_empty_infinite_loop_trips_time_budget(self, tcl):
        # `while 1 {}` dispatches zero commands per iteration -- only
        # the nested-eval accounting can catch it.
        tcl.set_eval_limits(time_ms=100)
        with pytest.raises(TclLimitError) as exc:
            tcl.eval("while 1 {}")
        assert exc.value.limit == "time"
        assert "time limit exceeded" in str(exc.value.result)

    def test_busy_infinite_loop_trips_command_budget(self, tcl):
        tcl.set_eval_limits(commands=500)
        with pytest.raises(TclLimitError) as exc:
            tcl.eval("set x 0; while 1 {incr x}")
        assert exc.value.limit == "commands"
        # The loop really was cut short (budget counts work units --
        # commands plus eval entries -- with up to a check-mask of
        # slack, so assert the order of magnitude, not the exact count).
        assert int(tcl.eval("set x")) < 600

    def test_interp_usable_after_trip(self, tcl):
        tcl.set_eval_limits(commands=200)
        with pytest.raises(TclLimitError):
            tcl.eval("while 1 {}")
        # The budget re-arms per top-level eval; normal work proceeds.
        assert tcl.eval("expr 6 * 7") == "42"
        assert tcl.eval("set greeting hello") == "hello"

    def test_catch_cannot_swallow_a_limit_trip(self, tcl):
        # A hostile script wrapping its spin loop in catch must not
        # defeat the watchdog.
        tcl.set_eval_limits(time_ms=100)
        with pytest.raises(TclLimitError):
            tcl.eval("catch {while 1 {}}")

    def test_uncompiled_path_trips_too(self):
        tcl = TreeInterp()
        tcl.set_eval_limits(time_ms=100)
        with pytest.raises(TclLimitError):
            tcl.eval("while 1 {}")

    def test_limits_disarmed_between_evals(self, tcl):
        tcl.set_eval_limits(commands=5000)
        for __ in range(5):
            tcl.eval("set x 0; for {set i 0} {$i < 100} {incr i} "
                     "{incr x}")
        assert tcl.eval("set x") == "100"

    def test_trips_are_counted(self, tcl):
        tcl.set_eval_limits(commands=100)
        for __ in range(3):
            with pytest.raises(TclLimitError):
                tcl.eval("while 1 {}")
        stats = tcl.eval_stats()
        assert stats["trips_commands"] == 3

    def test_limit_validation(self, tcl):
        with pytest.raises(TclError):
            tcl.set_eval_limits(time_ms=-1)
        with pytest.raises(TclError):
            tcl.set_eval_limits(commands=-5)


# ----------------------------------------------------------------------
# Recursion containment


class TestRecursion:
    def test_self_recursive_proc(self, tcl):
        tcl.eval("proc f {} { f }")
        with pytest.raises(TclError) as exc:
            tcl.eval("f")
        assert "too many nested evaluations" in str(exc.value.result)
        assert tcl.eval("expr 1 + 1") == "2"

    def test_mutually_recursive_procs(self, tcl):
        tcl.eval("proc ping {} { pong }")
        tcl.eval("proc pong {} { ping }")
        with pytest.raises(TclError) as exc:
            tcl.eval("ping")
        assert "too many nested evaluations" in str(exc.value.result)

    def test_ten_thousand_deep_recursion_is_a_clean_tcl_error(self, tcl):
        # The acceptance scenario: a 10,000-deep recursion attempt must
        # produce the Tcl error -- never a Python RecursionError.
        tcl.eval("proc f n { if {$n > 0} { f [expr $n - 1] } }")
        with pytest.raises(TclError) as exc:
            tcl.eval("f 10000")
        assert "too many nested evaluations" in str(exc.value.result)
        # errorInfo is capped: deep failures keep tracebacks readable.
        info = tcl.eval("set errorInfo")
        assert "(additional stack frames elided)" in info
        assert len(info) < 10000

    def test_recursion_limit_is_configurable(self, tcl):
        tcl.set_recursion_limit(50)
        tcl.eval("proc f n { if {$n > 0} { f [expr $n - 1] } }")
        with pytest.raises(TclError):
            tcl.eval("f 100")
        assert tcl.eval("f 3") == ""
        with pytest.raises(TclError):
            tcl.set_recursion_limit(0)

    def test_recursion_trip_counted(self, tcl):
        tcl.eval("proc f {} { f }")
        with pytest.raises(TclError):
            tcl.eval("f")
        assert tcl.eval_stats()["trips_recursion"] == 1


# ----------------------------------------------------------------------
# Allocation bombs


class TestAllocationBombs:
    def test_string_repeat_overflow(self, tcl):
        with pytest.raises(TclError) as exc:
            tcl.eval("string repeat abcdefgh 100000000")
        assert "string size overflow" in str(exc.value.result)
        assert tcl.eval("string repeat ab 3") == "ababab"
        assert tcl.eval("string repeat ab 0") == ""

    def test_doubling_bomb_hits_the_overflow_guard(self, tcl):
        tcl.set_eval_limits(commands=100000)
        script = ("set s x\n"
                  "while 1 { set s [string repeat $s 2] }")
        with pytest.raises(TclError) as exc:
            tcl.eval(script)
        assert ("string size overflow" in str(exc.value.result)
                or isinstance(exc.value, TclLimitError))


# ----------------------------------------------------------------------
# The Python-exception firewall


class TestFirewall:
    def test_injected_exception_becomes_tcl_error(self, tcl):
        def boom(interp, argv):
            raise ValueError("kaboom")

        tcl.commands["pycrash"] = boom
        with pytest.raises(TclError) as exc:
            tcl.eval("pycrash")
        assert not isinstance(exc.value, ValueError)
        assert 'internal error in command "pycrash"' in str(
            exc.value.result)
        assert "ValueError: kaboom" in str(exc.value.result)
        assert tcl.eval("expr 2 + 2") == "4"

    def test_firewalled_error_is_catchable_with_traceback(self, tcl):
        def boom(interp, argv):
            raise KeyError("missing")

        tcl.commands["pycrash"] = boom
        assert tcl.eval("catch {pycrash} v") == "1"
        assert "internal error" in tcl.eval("set v")
        assert "while executing" in tcl.eval("set errorInfo")

    def test_firewall_catches_counted(self, tcl):
        def boom(interp, argv):
            raise RuntimeError("x")

        tcl.commands["pycrash"] = boom
        for __ in range(2):
            tcl.eval("catch {pycrash}")
        assert tcl.eval_stats()["firewall_catches"] == 2

    def test_panic_log_records_the_traceback(self, tcl, tmp_path):
        log = tmp_path / "panic.log"
        set_panic_log(str(log))
        assert get_panic_log() == str(log)

        def boom(interp, argv):
            raise ZeroDivisionError("oops")

        tcl.commands["pycrash"] = boom
        tcl.eval("catch {pycrash}")
        text = log.read_text()
        assert "ZeroDivisionError: oops" in text
        assert "Traceback" in text
        assert 'command "pycrash"' in text


    @pytest.mark.parametrize("reporter", ["eventcore", "xt", "wafe",
                                          "server"])
    def test_failing_report_sink_falls_back_to_stderr(self, reporter,
                                                        capsys):
        def broken_sink(message):
            raise RuntimeError("sink down")

        close_all_displays()
        if reporter == "server":
            from repro.server import WafeServer

            server = WafeServer(log=broken_sink)
            try:
                server.log("advisory")
            finally:
                server.shutdown()
            prefix = "wafe-server"
        elif reporter == "eventcore":
            from repro.xt.eventcore import EventCore

            core = EventCore()
            core.report = broken_sink
            core._report("advisory")
            prefix = "eventcore"
        else:
            wafe = make_wafe()
            if reporter == "xt":
                wafe.app.message_hook = broken_sink
                wafe.app.report_message("advisory")
            else:
                wafe.error_sink = broken_sink
                wafe.report_error("advisory")
            prefix = "wafe"
        assert "%s: advisory\n" % prefix in capsys.readouterr().err


# ----------------------------------------------------------------------
# errorInfo tracebacks


class TestErrorInfo:
    SCRIPT = ("proc inner {} { error deep }\n"
              "proc outer {} { inner }\n"
              "outer\n")

    def test_traceback_shape(self, tcl):
        with pytest.raises(TclError):
            tcl.eval(self.SCRIPT)
        info = tcl.eval("set errorInfo")
        lines = info.split("\n")
        assert lines[0] == "deep"
        assert "    while executing" in lines
        assert '"error deep"' in info
        assert '(procedure "inner" line 1)' in info
        assert "    invoked from within" in info
        assert '"outer"' in info

    def test_line_numbers_in_proc_frames(self, tcl):
        tcl.eval("proc f {} {\n    set a 1\n    error midway\n}")
        with pytest.raises(TclError):
            tcl.eval("f")
        assert '(procedure "f" line 3)' in tcl.eval("set errorInfo")

    def test_compiled_and_uncompiled_tracebacks_agree(self):
        compiled = Interp()
        reference = TreeInterp()
        for tcl in (compiled, reference):
            with pytest.raises(TclError):
                tcl.eval(self.SCRIPT)
        assert (compiled.eval("set errorInfo")
                == reference.eval("set errorInfo"))

    def test_error_command_regression(self, tcl):
        # `error msg info code` must seed errorInfo with the *info*
        # argument and set errorCode from the *code* argument.
        assert tcl.eval(
            "list [catch {error msg myinfo mycode} v] $v") == "1 msg"
        assert tcl.eval("set errorCode") == "mycode"
        assert tcl.eval("set errorInfo") == "myinfo"

    def test_error_without_code_gets_none(self, tcl):
        tcl.eval("catch {error plain}")
        assert tcl.eval("set errorCode") == "NONE"


# ----------------------------------------------------------------------
# Safe mode


class TestSafeMode:
    def test_enable_hides_the_dangerous_set(self, wafe):
        hidden = wafe.enable_safe_mode()
        assert "source" in hidden
        assert wafe.safe_mode
        with pytest.raises(TclError) as exc:
            wafe.run_script("source /etc/passwd")
        assert "invalid command name" in str(exc.value.result)

    def test_info_hidden_lists_them(self, wafe):
        assert wafe.run_script("info hidden") == ""
        wafe.enable_safe_mode()
        listed = wafe.run_script("info hidden").split()
        assert "source" in listed
        assert listed == sorted(listed)

    def test_hidden_commands_leave_info_commands(self, wafe):
        wafe.enable_safe_mode()
        assert "source" not in wafe.run_script("info commands").split()

    def test_rename_cannot_resurrect(self, wafe):
        wafe.enable_safe_mode()
        with pytest.raises(TclError):
            wafe.run_script("rename source reader")

    def test_safe_mode_command_is_one_way(self, wafe):
        assert wafe.run_script("safeMode") == "0"
        assert wafe.run_script("safeMode on") == "1"
        assert wafe.run_script("safeMode") == "1"
        with pytest.raises(TclError):
            wafe.run_script("safeMode off")

    def test_limit_commands_are_hidden_in_safe_mode(self, wafe):
        # A backend must not be able to disarm its own watchdog.
        wafe.run_script("evalLimit 0 5000")
        wafe.enable_safe_mode()
        with pytest.raises(TclError):
            wafe.run_script("evalLimit 0 0")
        with pytest.raises(TclError):
            wafe.run_script("recursionLimit 100000")

    def test_embedder_can_expose_again(self, wafe):
        wafe.enable_safe_mode()
        wafe.interp.expose_command("source")
        assert "source" in wafe.run_script("info commands").split()

    def test_cli_flag_parses(self):
        from repro.core.cli import split_arguments

        options, __, app_args = split_arguments(
            ["--safe", "--app", "prog", "arg"])
        assert options.get("safe") is True
        assert options["app"] == "prog"
        assert app_args == ["arg"]

    def test_safe_mode_resource(self, wafe):
        wafe.app.load_resource_string("wafe.safeMode: true")
        wafe.supervision.load_resources(wafe.app)
        wafe.apply_fault_containment()
        assert wafe.safe_mode
        assert "source" in wafe.run_script("info hidden").split()


# ----------------------------------------------------------------------
# Runtime limit commands and resources


class TestLimitCommands:
    def test_eval_limit_command(self, wafe):
        assert wafe.run_script("evalLimit") == "0 0"
        wafe.run_script("evalLimit 0 400")
        assert wafe.run_script("evalLimit") == "0 400"
        errors = []
        wafe.error_sink = errors.append
        wafe.run_command_line("while 1 {}")  # wafelint: skip -- must spin
        assert any("command count limit exceeded" in e for e in errors)
        # The loop -- and the frontend -- keep going.
        assert wafe.run_script("expr 1 + 2") == "3"

    def test_recursion_limit_command(self, wafe):
        assert wafe.run_script("recursionLimit") == "1000"
        wafe.run_script("recursionLimit 60")
        assert wafe.interp.recursion_limit == 60
        with pytest.raises(TclError):
            wafe.run_script("recursionLimit 0")

    def test_limit_resources(self, wafe):
        wafe.app.load_resource_string(
            "wafe.evalCommandLimit: 300\nwafe.recursionLimit: 80\n")
        wafe.supervision.load_resources(wafe.app)
        wafe.apply_fault_containment()
        assert wafe.interp.limit_commands == 300
        assert wafe.interp.recursion_limit == 80

    def test_explicit_command_beats_resource(self, wafe):
        wafe.run_script("evalLimit 0 999")
        wafe.app.load_resource_string("wafe.evalCommandLimit: 300")
        wafe.supervision.load_resources(wafe.app)
        wafe.apply_fault_containment()
        assert wafe.interp.limit_commands == 999


# ----------------------------------------------------------------------
# The Xt-side firewall


class TestXtFirewall:
    def test_timeout_handler_exception_contained(self, wafe):
        errors = []
        wafe.error_sink = errors.append

        def boom():
            raise ValueError("timer blew up")

        wafe.app.add_timeout(0, boom)
        wafe.app.process_one(block=False)
        assert any("internal error in timeout handler" in e
                   and "ValueError" in e for e in errors)

    def test_broken_work_proc_removed_not_retried(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("work proc blew up")

        wafe.app.add_work_proc(boom)
        wafe.app.process_one(block=False)
        wafe.app.process_one(block=False)
        assert calls == [1]
        assert wafe.app._work_procs == []
        assert any("work proc" in e for e in errors)

    def test_callback_exception_does_not_stop_the_list(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        wafe.run_script("command b topLevel callback {echo hi}")
        widget = wafe.lookup_widget("b")
        ran = []

        def boom(w, call_data):
            raise KeyError("callback blew up")

        callback_list = widget.resources["callback"]
        callback_list.add(boom)
        callback_list.add(lambda w, call_data: ran.append(1))
        callback_list.call(widget)
        assert ran == [1]
        assert any("callback on widget" in e for e in errors)

    def test_tcl_error_in_timeout_reported_with_traceback(self, wafe):
        errors = []
        wafe.error_sink = errors.append
        wafe.app.add_timeout(0, wafe.run_script, "error boom")
        wafe.app.process_one(block=False)
        assert any(e.startswith("boom") and "while executing" in e
                   for e in errors)


# ----------------------------------------------------------------------
# Frontend mode end-to-end: the acceptance scenario


class TestFrontendContainment:
    def test_infinite_loop_line_comes_back_as_error(self, wafe,
                                                    tmp_path):
        # A backend sends `while 1 {}`; the frontend must answer with
        # an error line within the time budget and stay responsive.
        command = write_backend(tmp_path, '''
            import sys
            print("%evalLimit 150")
            print("%while 1 {}")
            sys.stdout.flush()
            line = sys.stdin.readline().strip()
            if line.startswith("error:"):
                print("%set recovered 1")
            sys.stdout.flush()
            sys.stdin.readline()   # hold the pipe open
        ''')
        errors = []
        wafe.error_sink = errors.append
        frontend = Frontend(wafe, command)
        wafe.main_loop(
            until=lambda: wafe.interp.var_exists("recovered"),
            max_idle=2000)
        frontend.close()
        assert wafe.run_script("set recovered") == "1"
        assert any("time limit exceeded" in e for e in errors)

    def test_python_crash_line_keeps_frontend_alive(self, wafe,
                                                    tmp_path):
        def boom(w, argv):
            raise OSError("disk on fire")

        wafe.register_command("pycrash", boom)
        command = write_backend(tmp_path, '''
            import sys
            print("%pycrash")
            sys.stdout.flush()
            line = sys.stdin.readline().strip()
            if "internal error" in line:
                print("%set recovered 1")
            sys.stdout.flush()
            sys.stdin.readline()
        ''')
        errors = []
        wafe.error_sink = errors.append
        frontend = Frontend(wafe, command)
        wafe.main_loop(
            until=lambda: wafe.interp.var_exists("recovered"),
            max_idle=2000)
        frontend.close()
        assert wafe.run_script("set recovered") == "1"
        assert any("OSError" in e for e in errors)


# ----------------------------------------------------------------------
# Introspection


class TestEvalStats:
    def test_info_stats_eval(self, tcl):
        tcl.eval("set x 1")
        fields = tcl.eval("info stats tcl.eval.*").split()
        stats = dict(zip(fields[::2], fields[1::2]))
        assert int(stats["tcl.eval.cmd_count"]) > 0
        assert stats["tcl.eval.recursion_limit"] == "1000"
        assert int(stats["tcl.eval.peak_nesting"]) >= 1

    def test_info_stats_eval_reset(self, tcl):
        tcl.eval("proc f {} { error x }")
        tcl.eval("catch {f}")
        tcl.eval("info stats tcl.eval.* -reset")
        fields = tcl.eval("info stats tcl.eval.*").split()
        stats = dict(zip(fields[::2], fields[1::2]))
        assert stats["tcl.eval.firewall_catches"] == "0"

    def test_hidden_count_in_stats(self, wafe):
        wafe.enable_safe_mode()
        fields = wafe.run_script("info stats tcl.eval.*").split()
        stats = dict(zip(fields[::2], fields[1::2]))
        assert int(stats["tcl.eval.hidden_commands"]) == len(
            wafe.run_script("info hidden").split())


class TestSafeHiddenTable:
    def test_every_entry_has_a_reason(self):
        for name, reason in SAFE_HIDDEN_COMMANDS.items():
            assert isinstance(reason, str) and reason, name
