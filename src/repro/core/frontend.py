"""Frontend mode: the application program runs as a child of Wafe.

Implements the paper's process model (Figure 4, left): the application
is spawned with its stdio channels cross-connected to the frontend --
Wafe reads the application's stdout looking for ``%``-prefixed command
lines, and callbacks ``echo`` plain strings into the application's
stdin.  An optional *mass transfer* pipe carries bulk data with no
parsing.

The program to launch comes either from an explicit argument or from
the paper's naming scheme: when Wafe is invoked through a link named
``xfoo``, the backend program ``foo`` is spawned.

The channel is the shared :class:`~repro.core.channel.LineChannel`
over a :class:`PipeTransport`.  Its outbound half is fully
non-blocking: the backend's stdin is put in O_NONBLOCK mode, partial
writes and EAGAIN park the remainder in a bounded pending queue drained
through an output-readiness watch on the Xt event loop, and a
high-water limit turns unbounded buffering into a reported error -- a
stalled backend can never freeze the GUI inside ``write()``.  See
docs/ROBUSTNESS.md.
"""

import os
import shutil
import subprocess
import sys
import time as _time

from repro.tcl.errors import TclError
from repro.core.channel import LineChannel, LineParser, MassTransferState

#: Seconds pending output gets to reach the backend before the pipe
#: is torn down (close) or the child is waited for.
CLOSE_DRAIN_SECONDS = 0.5


def backend_for_invocation(invoked_as):
    """The symlink naming scheme: ``xwafeApp`` runs ``wafeApp``."""
    base = os.path.basename(invoked_as)
    if base.startswith("x") and base not in ("xwafe", "xmofe"):
        return base[1:]
    return None


def _classify(returncode):
    # Local import: supervisor imports this module.
    from repro.core.supervisor import classify_exit

    return classify_exit(returncode)


class PipeTransport:
    """The backend child's stdout (read side) and stdin (write side)."""

    def __init__(self, process):
        self.process = process
        self.closed = False
        self._stdout_fd = process.stdout.fileno()
        self._stdin_fd = process.stdin.fileno()
        os.set_blocking(self._stdout_fd, False)
        os.set_blocking(self._stdin_fd, False)

    def read_obj(self):
        return self.process.stdout

    def write_fd(self):
        return self._stdin_fd

    def recv(self):
        try:
            return os.read(self._stdout_fd, 65536)
        except BlockingIOError:
            return None
        except (OSError, ValueError):
            return b""

    def send(self, chunk):
        # Looked up per write, so a wrapper installed on the process's
        # stdin is honoured.
        return self.process.stdin.write(chunk)

    def flush(self):
        self.process.stdin.flush()  # no-op on the raw pipe

    def close(self):
        if self.closed:
            return
        self.closed = True
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Frontend(LineChannel):
    """Owns the backend subprocess and its channels.

    The command channel is the shared :class:`LineChannel` (the same
    one the multi-session server's sessions use; see docs/SERVER.md)
    over the backend's pipes; the mass channel is the frontend's own."""

    #: How many bytes may sit unarmed in the mass channel before the
    #: overrun is reported and further unarmed data dropped.
    MASS_LEFTOVER_LIMIT = 1 << 20

    def __init__(self, wafe, program, program_args=None, passthrough=None,
                 supervisor=None):
        self.program = program
        self.supervisor = supervisor
        self.mass_state = None
        self._mass_read = None
        self._mass_child_fd = None
        self._mass_input_id = None
        self._mass_leftover = b""
        self._mass_overrun_reported = False
        self._mass_watch_id = None
        self._mass_activity = None
        self.passthrough = passthrough  # callable(str) for non-command lines
        self.eof_seen = False
        self.exit_status = None     # ExitStatus once the child is reaped
        command = self._resolve_command(program, program_args or [])
        # The mass channel exists from the start so getChannel can
        # report a stable fd number to the application.
        self._mass_read, self._mass_child_fd = os.pipe()
        os.set_inheritable(self._mass_child_fd, True)
        os.set_blocking(self._mass_read, False)
        # bufsize=0: stdin is a raw FileIO whose write() honours
        # O_NONBLOCK (partial count, or None on EAGAIN).
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,
            bufsize=0,
            close_fds=True,
            pass_fds=(self._mass_child_fd,),
        )
        super().__init__(wafe, PipeTransport(self.process), LineParser(),
                         label="backend stdout",
                         drain_label="backend stdin drain")
        wafe.frontend = self
        self._send_init_com()

    @staticmethod
    def _resolve_command(program, program_args):
        if isinstance(program, (list, tuple)):
            return list(program) + list(program_args)
        path = shutil.which(program) or program
        if not os.path.exists(path):
            raise TclError('cannot find application program "%s"' % program)
        return [path] + list(program_args)

    def _send_init_com(self):
        """The InitCom resource: an initial command for the backend
        (e.g. a Prolog startup goal), sent right after the fork."""
        value = self.wafe.app.database.query(
            [self.wafe.app.app_name, "initCom"],
            [self.wafe.app.app_class, "InitCom"])
        if value:
            self.send(value + "\n")

    # ------------------------------------------------------------------
    # The LineChannel policy

    @property
    def high_water(self):
        """Backpressure limit: total queued outbound bytes allowed."""
        return self.wafe.supervision.high_water

    def _report(self, message):
        self.wafe.report_error(message)

    def _non_command(self, line):
        if self.passthrough is not None:
            self.passthrough(line)
        else:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    def _transport_lost(self):
        """Backend closed its stdout (or a write found its stdin dead):
        reap it and hand the session's fate to the supervisor (or end
        the main loop, standalone)."""
        if self.eof_seen:
            return
        self.eof_seen = True
        self._cancel_mass_watchdog()
        self.exit_status = self._reap()
        if self.supervisor is not None:
            self.supervisor.backend_exited(self, self.exit_status)
        else:
            self.wafe.app.exit_loop()

    def _reap(self, grace=0.2):
        """Collect the child's exit status so no zombie lingers.

        EOF on stdout almost always means the child is exiting; give
        it a short grace period.  Returns None if it is genuinely
        still alive (stdout closed deliberately) -- close() or the
        supervisor escalate from there."""
        returncode = self.process.poll()
        if returncode is None:
            try:
                returncode = self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                return None
        return _classify(returncode)

    def _report_overflow(self):
        self._report(
            "backend channel overflow: %d bytes queued and the "
            "application is not reading; dropping output"
            % self.queued_bytes())

    # ------------------------------------------------------------------
    # Mass transfer channel

    def mass_channel_fd(self):
        """The fd number the *application* writes to ("listening on 5")."""
        return self._mass_child_fd

    def set_communication_variable(self, var_name, limit, script):
        self.mass_state = MassTransferState(var_name, limit, script)
        self._mass_activity = _time.monotonic()
        if self._mass_input_id is None:
            # Wrap the raw fd so select() can watch it.
            self._mass_file = os.fdopen(self._mass_read, "rb", buffering=0,
                                        closefd=False)
            self._mass_input_id = self.wafe.app.add_input(
                self._mass_file, self._on_mass_readable,
                label="mass transfer channel")
        self._arm_mass_watchdog()
        if self._mass_leftover:
            # Bytes that overran the previous request are the start of
            # this one.
            leftover, self._mass_leftover = self._mass_leftover, b""
            self._mass_overrun_reported = False
            done = self.mass_state.feed(leftover)
            if done is not None:
                self._complete_mass(*done, status="ok")

    def _on_mass_readable(self, fileobj):
        try:
            data = os.read(self._mass_read, 65536)
        except (BlockingIOError, OSError):
            return
        if not data:
            return
        self._mass_activity = _time.monotonic()
        if self.mass_state is None:
            self._stash_mass_leftover(data)
            return
        done = self.mass_state.feed(data)
        if done is not None:
            self._complete_mass(*done, status="ok")

    def _complete_mass(self, payload, leftover, status):
        """Finish the active transfer: set the variable, record the
        transfer status in ``transferStatus``, run the completion
        script, and keep any excess bytes for the next request."""
        state = self.mass_state
        self.mass_state = None
        self._cancel_mass_watchdog()
        if leftover:
            self._stash_mass_leftover(leftover)
        self.wafe.interp.set_var(
            state.var_name, payload.decode("utf-8", "replace"))
        self.wafe.interp.set_var("transferStatus", status)
        self.wafe.run_command_line(state.completion_script)
        self.flush()

    def _stash_mass_leftover(self, data):
        """Excess mass-channel bytes with no request armed: preserved
        (bounded) for the next setCommunicationVariable."""
        room = self.MASS_LEFTOVER_LIMIT - len(self._mass_leftover)
        if room > 0:
            self._mass_leftover += data[:room]
        overrun = len(data) - room
        if overrun > 0 and not self._mass_overrun_reported:
            self._mass_overrun_reported = True
            self.wafe.report_error(
                "mass transfer overrun: %d unrequested bytes dropped "
                "beyond the %d-byte carryover limit"
                % (overrun, self.MASS_LEFTOVER_LIMIT))

    # -- the stall watchdog

    def _mass_timeout_ms(self):
        return self.wafe.supervision.mass_timeout_ms

    def _arm_mass_watchdog(self):
        timeout_ms = self._mass_timeout_ms()
        if timeout_ms <= 0 or self._mass_watch_id is not None:
            return
        self._mass_watch_id = self.wafe.app.add_timeout(
            timeout_ms, self._mass_watchdog)

    def _cancel_mass_watchdog(self):
        if self._mass_watch_id is not None:
            self.wafe.app.remove_timeout(self._mass_watch_id)
            self._mass_watch_id = None

    def _mass_watchdog(self):
        self._mass_watch_id = None
        if self.mass_state is None:
            return
        timeout_ms = self._mass_timeout_ms()
        if timeout_ms <= 0:
            return
        elapsed_ms = (_time.monotonic() - self._mass_activity) * 1000.0
        if elapsed_ms + 1.0 < timeout_ms:
            # Data flowed since the last check: watch the remainder.
            self._mass_watch_id = self.wafe.app.add_timeout(
                max(1, int(timeout_ms - elapsed_ms)), self._mass_watchdog)
            return
        state = self.mass_state
        self.wafe.report_error(
            "mass transfer stalled: %d of %d bytes for variable \"%s\" "
            "after %d ms; aborting"
            % (len(state.received), state.limit, state.var_name,
               int(timeout_ms)))
        # The completion script still runs -- with the partial payload
        # and transferStatus "timeout" -- so the application-level
        # protocol can recover instead of waiting forever.
        self._complete_mass(state.received, b"", status="timeout")

    # ------------------------------------------------------------------

    def wait(self, timeout=None):
        self.drain(_time.monotonic() + CLOSE_DRAIN_SECONDS)
        status = self.process.wait(timeout=timeout)
        if self.exit_status is None:
            self.exit_status = _classify(status)
        return status

    def close(self):
        if self.closed:
            return
        self.drain(_time.monotonic() + CLOSE_DRAIN_SECONDS)
        self._detach()
        self._cancel_mass_watchdog()
        if self._mass_input_id is not None:
            self.wafe.app.remove_input(self._mass_input_id)
            self._mass_input_id = None
        self.transport.close()
        try:
            os.close(self._mass_child_fd)
        except OSError:
            pass
        try:
            os.close(self._mass_read)
        except OSError:
            pass
        if self.process.poll() is None:
            try:
                self.process.terminate()
                self.process.wait(timeout=2)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                try:
                    self.process.wait(timeout=2)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        if self.exit_status is None:
            self.exit_status = _classify(self.process.poll())
        if self.wafe.frontend is self:
            self.wafe.frontend = None
