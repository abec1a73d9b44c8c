"""Backend supervision: exit classification, restart policies, hooks.

The paper's process model (Figure 4) makes Wafe a *frontend* whose GUI
outlives the application program.  This module turns that promise into
a real supervisor: when the backend exits, the child is reaped and its
exit status classified (exit code versus signal), the Tcl-level
``onBackendExit`` hook fires with percent codes describing the death,
and -- policy permitting -- the backend is relaunched with exponential
backoff scheduled on the Xt event loop, so the GUI stays live and
interactive between attempts instead of dying with its child.

Policy comes from the same places as ``InitCom``: the Xrm resource
database (``restartPolicy``, ``maxRestarts``, ``restartBackoff``,
``restartBackoffCap``, ``massTransferTimeout``, ``channelHighWater``)
or the corresponding Wafe commands, which take precedence.
"""

import signal as _signal
import subprocess

from repro.tcl.errors import TclError
from repro.core.frontend import Frontend

#: The recognized restart policies.
POLICY_NEVER = "never"
POLICY_ON_FAILURE = "on-failure"
POLICY_ALWAYS = "always"
POLICIES = (POLICY_NEVER, POLICY_ON_FAILURE, POLICY_ALWAYS)


class ExitStatus:
    """A classified backend exit: normal exit code or killing signal."""

    def __init__(self, returncode):
        self.returncode = returncode
        if returncode < 0:
            self.kind = "signal"
            self.code = -returncode
        else:
            self.kind = "exit"
            self.code = returncode

    @property
    def success(self):
        return self.kind == "exit" and self.code == 0

    def signal_name(self):
        if self.kind != "signal":
            return ""
        try:
            return _signal.Signals(self.code).name
        except ValueError:
            return "SIG%d" % self.code

    def describe(self):
        if self.kind == "signal":
            return "signal %d (%s)" % (self.code, self.signal_name())
        return "exit %d" % self.code

    def __str__(self):
        return self.describe()

    def __repr__(self):
        return "<ExitStatus %s>" % self.describe()


def classify_exit(returncode):
    """``Popen.returncode`` -> :class:`ExitStatus` (None passes through)."""
    if returncode is None:
        return None
    return ExitStatus(returncode)


#: Percent codes available to the ``onBackendExit`` script.
EXIT_CODES = ("s", "k", "c", "r", "p")


def substitute_exit(script, status, restart_count, program):
    """Expand the ``onBackendExit`` percent codes.

    ``%s`` full status ("exit 3" / "signal 9 (SIGKILL)"), ``%k`` kind
    ("exit"/"signal"), ``%c`` numeric code, ``%r`` restart count so
    far, ``%p`` the program, ``%%`` a literal percent sign.
    """
    out = []
    i = 0
    n = len(script)
    while i < n:
        ch = script[i]
        if ch == "%" and i + 1 < n:
            code = script[i + 1]
            if code == "%":
                out.append("%")
            elif code == "s":
                out.append(status.describe() if status else "unknown")
            elif code == "k":
                out.append(status.kind if status else "unknown")
            elif code == "c":
                out.append(str(status.code) if status else "")
            elif code == "r":
                out.append(str(restart_count))
            elif code == "p":
                out.append(str(program))
            else:
                out.append(ch)
                out.append(code)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


#: Percent codes available to the ``onHandlerQuarantine`` script.
QUARANTINE_CODES = ("k", "f", "l", "n", "e")


def substitute_quarantine(script, kind, fd, label, strikes, exc):
    """Expand the ``onHandlerQuarantine`` percent codes.

    ``%k`` handler kind ("input"/"output"), ``%f`` the fd number,
    ``%l`` the handler's label, ``%n`` the strike count, ``%e`` the
    error text, ``%%`` a literal percent sign.
    """
    out = []
    i = 0
    n = len(script)
    while i < n:
        ch = script[i]
        if ch == "%" and i + 1 < n:
            code = script[i + 1]
            if code == "%":
                out.append("%")
            elif code == "k":
                out.append(str(kind))
            elif code == "f":
                out.append(str(fd))
            elif code == "l":
                out.append(label or "")
            elif code == "n":
                out.append(str(strikes))
            elif code == "e":
                out.append("%s: %s" % (type(exc).__name__, exc)
                           if exc is not None else "")
            else:
                out.append(ch)
                out.append(code)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class ResourceConfig:
    """A bundle of tunables fed from two sources with one precedence
    rule: a value set through a Wafe command is *explicit* and wins
    over the Xrm resource database; everything else is (re)loaded from
    resources on demand, mirroring how ``InitCom`` is looked up.

    Subclasses declare ``FIELDS`` as a tuple of
    ``(attribute, resource name, resource class, parser, default)``.
    Both the supervision knobs and the server's per-session quotas are
    instances of this shape.
    """

    #: (attribute, resource name, resource class, parser, default)
    FIELDS = ()

    def __init__(self):
        for attr, __, __, __, default in self.FIELDS:
            setattr(self, attr, default)
        self._explicit = set()

    def set(self, attr, value):
        """An explicit (command-level) setting; beats resources."""
        setattr(self, attr, value)
        self._explicit.add(attr)

    def _parse(self, kind, text):
        if kind == "int":
            return int(text)
        if kind == "bool":
            lowered = text.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError('expected boolean but got "%s"' % text)
        if kind == "policy":
            if text not in POLICIES:
                raise ValueError(
                    'bad restart policy "%s": must be %s'
                    % (text, ", ".join(POLICIES)))
            return text
        return text

    def load_resources(self, app, report=None):
        """Fill non-explicit fields from the Xrm database (like
        ``InitCom``: ``appName.restartPolicy`` / ``AppClass.RestartPolicy``)."""
        for attr, name, klass, kind, __ in self.FIELDS:
            if attr in self._explicit:
                continue
            value = app.database.query([app.app_name, name],
                                       [app.app_class, klass])
            if value is None:
                continue
            try:
                setattr(self, attr, self._parse(kind, value))
            except ValueError as err:
                if report is not None:
                    report("bad %s resource: %s" % (name, err))


class SupervisionConfig(ResourceConfig):
    """Tunable supervision knobs, shared by commands and resources."""

    FIELDS = (
        ("policy", "restartPolicy", "RestartPolicy", "policy",
         POLICY_NEVER),
        ("max_restarts", "maxRestarts", "MaxRestarts", "int", 5),
        ("backoff_ms", "restartBackoff", "RestartBackoff", "int", 250),
        ("backoff_cap_ms", "restartBackoffCap", "RestartBackoffCap",
         "int", 30000),
        ("on_exit_script", "onBackendExit", "OnBackendExit", "str", None),
        ("mass_timeout_ms", "massTransferTimeout", "MassTransferTimeout",
         "int", 0),
        ("high_water", "channelHighWater", "ChannelHighWater", "int",
         1 << 20),
        # Fault containment (docs/ROBUSTNESS.md "Interpreter fault
        # containment"): eval watchdog budgets, the recursion ceiling,
        # safe mode, and the panic log destination.
        ("eval_time_ms", "evalTimeLimit", "EvalTimeLimit", "int", 0),
        ("eval_commands", "evalCommandLimit", "EvalCommandLimit", "int", 0),
        ("recursion_limit", "recursionLimit", "RecursionLimit", "int",
         None),
        ("safe_mode", "safeMode", "SafeMode", "bool", False),
        ("panic_log", "panicLog", "PanicLog", "str", None),
        # Event-core fault knobs (docs/ROBUSTNESS.md "The event core"):
        # the slow-handler watchdog budget and the script run when a
        # handler is quarantined after repeated failures.
        ("handler_time_ms", "handlerTimeLimit", "HandlerTimeLimit",
         "int", 0),
        ("on_quarantine_script", "onHandlerQuarantine",
         "OnHandlerQuarantine", "str", None),
    )


class BackendSupervisor:
    """Owns the backend lifecycle: spawn, reap, hook, restart.

    The supervisor creates :class:`Frontend` instances and receives
    their exit notifications.  Depending on the configured policy it
    either relaunches the backend (exponential backoff, scheduled as an
    Xt timeout so the GUI keeps serving events), hands control to the
    ``onBackendExit`` script, or -- with no policy and no hook -- falls
    back to the historical behaviour of ending the main loop.
    """

    def __init__(self, wafe, program, program_args=None, passthrough=None):
        self.wafe = wafe
        self.program = program
        self.program_args = program_args or []
        self.passthrough = passthrough
        self.config = wafe.supervision
        self.frontend = None
        self.restart_count = 0
        self.backoff_schedule = []   # ms delays actually scheduled
        self.last_status = None
        self.state = "idle"          # running|backoff|exited|stopped
        self._restart_timer = None
        self._stopped = False
        wafe.supervisor = self

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self):
        """Load resource-level policy and spawn the first backend."""
        self.config.load_resources(self.wafe.app,
                                   report=self.wafe.report_error)
        # Limits and safe mode must be live before the first backend
        # line is evaluated, not merely before the main loop.
        self.wafe.apply_fault_containment()
        self._spawn()
        return self.frontend

    def _spawn(self):
        self.frontend = Frontend(self.wafe, self.program, self.program_args,
                                 passthrough=self.passthrough,
                                 supervisor=self)
        self.state = "running"

    def stop(self):
        """Cancel any pending restart and shut the backend down."""
        self._stopped = True
        self.state = "stopped"
        if self._restart_timer is not None:
            self.wafe.app.core.remove_timer(self._restart_timer)
            self._restart_timer = None
        if self.frontend is not None:
            self.frontend.close()

    # ------------------------------------------------------------------
    # Exit handling (called by the Frontend on EOF)

    def backend_exited(self, frontend, status):
        if frontend is not self.frontend:
            return  # a stale frontend from before a restart
        if self._stopped:
            return  # a deliberate shutdown is not a backend failure
        if status is None:
            status = self._force_exit(frontend)
        self.last_status = status
        self.state = "exited"
        script = self.config.on_exit_script
        if script:
            self.wafe.run_command_line(substitute_exit(
                script, status, self.restart_count, self.program))
        if self._should_restart(status):
            self._schedule_restart()
        elif not script:
            # No policy, no hook: the historical contract -- the
            # frontend's life ends with its application.
            self.wafe.app.exit_loop()
        # With a hook but no restart the GUI stays up; the script
        # decides what happens next (it may call quit).

    @staticmethod
    def _force_exit(frontend):
        """EOF arrived but the child is still alive (it closed stdout
        without exiting): treat the session as over and make the exit
        status real with the SIGTERM -> SIGKILL ladder."""
        process = frontend.process
        if process.poll() is None:
            try:
                process.terminate()
                process.wait(timeout=2)
            except (OSError, subprocess.TimeoutExpired):
                process.kill()
                try:
                    process.wait(timeout=2)
                except (OSError, subprocess.TimeoutExpired):
                    return None
        return classify_exit(process.poll())

    def _should_restart(self, status):
        if self._stopped or self.wafe.quit_requested:
            return False
        policy = self.config.policy
        if policy == POLICY_ALWAYS:
            wanted = True
        elif policy == POLICY_ON_FAILURE:
            wanted = status is not None and not status.success
        else:
            return False
        if not wanted:
            return False
        if self.restart_count >= self.config.max_restarts:
            self.wafe.report_error(
                "backend %s; giving up after %d restart%s"
                % (status.describe() if status else "lost",
                   self.restart_count,
                   "" if self.restart_count == 1 else "s"))
            return False
        return True

    # ------------------------------------------------------------------
    # Restart machinery

    def backoff_delay_ms(self, attempt):
        """Exponential backoff: base * 2^attempt, capped."""
        base = max(1, self.config.backoff_ms)
        return min(self.config.backoff_cap_ms, base * (2 ** attempt))

    def _schedule_restart(self):
        delay = self.backoff_delay_ms(self.restart_count)
        self.restart_count += 1
        self.backoff_schedule.append(delay)
        self.state = "backoff"
        self.wafe.report_error(
            "backend %s; restart %d/%d in %d ms"
            % (self.last_status.describe() if self.last_status else "lost",
               self.restart_count, self.config.max_restarts, delay))
        # Scheduled on the unified event core's monotonic timer heap
        # (immune to wall-clock jumps); the label shows up in slow-
        # handler reports and ``info stats xt.event.*`` accounting.
        self._restart_timer = self.wafe.app.core.add_timer(
            delay, self._attempt_restart, label="backend restart backoff")

    def _attempt_restart(self):
        self._restart_timer = None
        if self._stopped or self.wafe.quit_requested:
            return
        old = self.frontend
        if old is not None:
            old.close()
        try:
            self._spawn()
        except TclError as err:
            self.last_status = None
            self.wafe.report_error("restart failed: %s" % err.result)
            if self.restart_count < self.config.max_restarts:
                self._schedule_restart()
            else:
                self.wafe.app.exit_loop()

    # ------------------------------------------------------------------
    # Introspection (the backendStatus command)

    def status_fields(self):
        pid = ""
        if self.frontend is not None and self.state == "running":
            # Refresh: the child may have died without EOF yet.
            if self.frontend.process.poll() is None:
                pid = str(self.frontend.process.pid)
        return (self.state, pid, str(self.restart_count),
                self.last_status.describe() if self.last_status else "")
