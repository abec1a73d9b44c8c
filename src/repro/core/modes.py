"""Wafe's three modes of operation: interactive, file, frontend.

* **Interactive mode** -- a single process reading commands from
  standard input, interpreted as they arrive; the user watches the
  widget tree being built step by step.
* **File mode** -- execute a Tcl/Wafe command file (typically started
  through the ``#!`` magic), then serve events.
* **Frontend mode** -- spawn the application program as a subprocess
  and speak the pipe protocol (see :mod:`repro.core.frontend`).
"""

import sys

from repro.core.supervisor import BackendSupervisor
from repro.core.wafe import Wafe


def run_file(wafe, path, main_loop=True, max_idle=None, lint=False):
    """File mode: execute a script, then enter the main loop.

    With ``lint`` true the script is statically analyzed first
    (advisory: diagnostics go through the frontend's error channel,
    then the script runs regardless -- the analyzer never executes
    anything, so this adds no side effects).
    """
    with open(path, "r") as handle:
        script = handle.read()
    if script.startswith("#!"):
        # Blank out the interpreter line but keep its newline so error
        # positions (TclError line/col) still match the file on disk.
        newline = script.find("\n")
        script = script[newline:] if newline >= 0 else ""
    if lint:
        _report_lint(wafe, path, script)
    wafe.interp.script_name = path
    wafe.run_script(script)
    if main_loop and not wafe.quit_requested:
        wafe.main_loop(until=lambda: wafe.quit_requested, max_idle=max_idle)
    return wafe


def _report_lint(wafe, path, script):
    """Run wafelint over a file-mode script against this instance's
    build, accepting everything actually in the live command table."""
    from repro.lint import check

    diagnostics = check(script, filename=path, build=wafe.build,
                        extra_commands=wafe.interp.commands)
    for diagnostic in diagnostics:
        wafe.report_error("lint: %s" % diagnostic.format())
    return diagnostics


class InteractiveSession:
    """Interactive mode: stdin lines in, results out.

    The prompt and result echo go to ``output`` (stdout by default); a
    transcript of (command, result) pairs is kept so the interactive
    designer example and the benchmarks can inspect the session.
    """

    def __init__(self, wafe, output=None, prompt="wafe> "):
        self.wafe = wafe
        self.output = output if output is not None else sys.stdout
        self.prompt = prompt
        self.transcript = []
        self.wafe.error_sink = self._show_error

    def _show(self, text):
        self.output.write(text)
        try:
            self.output.flush()
        except (OSError, ValueError):
            pass

    def _show_error(self, message):
        self._show("Error: %s\n" % message)

    def execute(self, line):
        """One interactive command; returns the result string."""
        line = line.rstrip("\n")
        if not line.strip():
            return ""
        result = self.wafe.run_command_line(line)
        self.transcript.append((line, result))
        if result:
            self._show(result + "\n")
        # Interactive mode shows effects immediately.
        self.wafe.app.process_pending()
        return result or ""

    def run(self, stream=None):
        """Read-eval loop over a stream (stdin by default)."""
        stream = stream if stream is not None else sys.stdin
        for line in stream:
            self._show(self.prompt)
            self.execute(line)
            if self.wafe.quit_requested:
                break
        return self.transcript


def run_frontend(wafe, program, program_args=None, max_idle=None,
                 passthrough=None):
    """Frontend mode: spawn the backend under supervision and serve
    the protocol until the supervisor lets the session end (backend
    exit under ``restartPolicy never`` with no hook) or ``quit``
    arrives.  Crashes are classified, reported through
    ``onBackendExit`` and -- policy permitting -- restarted with
    backoff while the GUI keeps serving events."""
    supervisor = BackendSupervisor(wafe, program, program_args,
                                   passthrough=passthrough)
    frontend = supervisor.start()
    wafe.main_loop(until=lambda: wafe.quit_requested, max_idle=max_idle)
    supervisor.stop()
    return supervisor.frontend or frontend


def make_wafe(build="athena", display_name=":0", argv=None):
    """Construct a Wafe instance (one per process in real life)."""
    return Wafe(build=build, display_name=display_name, argv=argv)
