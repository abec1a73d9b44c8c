"""Tcl result codes and the exceptions that carry them.

Tcl's C API returns ``TCL_OK``, ``TCL_ERROR``, ``TCL_RETURN``,
``TCL_BREAK`` or ``TCL_CONTINUE`` from every command.  In Python the
non-OK codes are naturally exceptions; ``catch`` converts them back to
numeric codes, exactly like the C implementation does.

This module also owns the *panic log*: the one place a Python-level
traceback is allowed to go.  The fault-containment contract (see
docs/ROBUSTNESS.md) is that an unexpected Python exception inside a
command or callback surfaces to scripts as a TclError carrying a
one-line summary, while the full traceback is written here -- to
stderr, or to a file when one is configured -- and never onto the
frontend/backend protocol.  Its sibling :func:`report` is the one
delivery path for advisory messages (quarantines, slow handlers, fd
leaks, session reaps).
"""

import sys
import traceback

#: errorInfo stops growing after this many stack frames; a hostile
#: 10,000-deep recursion must not unwind into a megabyte traceback.
ERRORINFO_FRAME_LIMIT = 25


class TclException(Exception):
    """Base class for all non-TCL_OK results."""

    code = 1


class TclError(TclException):
    """A Tcl-level error (TCL_ERROR).

    ``result`` is the interpreter result string (the error message);
    ``errorinfo`` accumulates the Tcl stack trace like the ``errorInfo``
    global variable in real Tcl, with ``errorcode`` mirroring
    ``errorCode``.  Parse errors additionally carry the 1-based
    ``line``/``col`` of the offending character in the string that was
    being parsed (None for non-parse errors), so tooling -- the linter,
    file mode -- can point at the exact position instead of just
    quoting the command.

    The remaining attributes are the traceback-accumulation state used
    by :meth:`Interp.call` while the exception unwinds:

    * ``info_started`` -- the first ``while executing`` frame has been
      appended (later frames say ``invoked from within``).
    * ``skip_frame`` -- suppress the next frame addition once; set by
      ``error msg info`` whose explicit errorInfo argument replaces
      the innermost frame (Tcl's documented semantics).
    * ``frames`` -- how many frames have been appended, so unwinding a
      deep recursion caps at :data:`ERRORINFO_FRAME_LIMIT`.
    * ``proc_line`` -- the source line of the most recently recorded
      command, consumed by ``call_proc`` for its
      ``(procedure "name" line N)`` marker.
    """

    code = 1

    def __init__(self, result, errorinfo=None, line=None, col=None,
                 errorcode=None):
        super().__init__(result)
        self.result = result
        self.errorinfo = errorinfo if errorinfo is not None else result
        self.errorcode = errorcode
        self.line = line
        self.col = col
        self.info_started = False
        self.skip_frame = False
        self.frames = 0
        self.proc_line = None


class TclLimitError(TclError):
    """An eval resource limit tripped (``evalLimit`` command/time).

    A subclass so generic ``except TclError`` reporting still works,
    but ``catch`` deliberately re-raises it: a hostile
    ``catch {while 1 {}}`` must not be able to swallow its own
    termination.  The exception stops propagating at the top-level
    eval boundary (``Interp`` disarms the limits there), so the
    enclosing backend line fails and the event loop lives on.
    """

    def __init__(self, result, limit):
        super().__init__(result)
        self.limit = limit  # "commands" | "time"


class TclReturn(TclException):
    """``return`` was invoked (TCL_RETURN)."""

    code = 2

    def __init__(self, result=""):
        super().__init__(result)
        self.result = result


class TclBreak(TclException):
    """``break`` was invoked outside the interpreter's control (TCL_BREAK)."""

    code = 3

    def __init__(self):
        super().__init__("invoked \"break\" outside of a loop")
        self.result = ""


class TclContinue(TclException):
    """``continue`` was invoked (TCL_CONTINUE)."""

    code = 4

    def __init__(self):
        super().__init__("invoked \"continue\" outside of a loop")
        self.result = ""


# ----------------------------------------------------------------------
# The panic log (the only sanctioned sink for Python tracebacks).

_panic_log_path = None


def set_panic_log(path):
    """Route firewall tracebacks to ``path`` (None: stderr only)."""
    global _panic_log_path
    _panic_log_path = path or None


def get_panic_log():
    return _panic_log_path


def log_panic(context, exc=None):
    """Record a contained Python exception; returns the one-line summary.

    The summary (``ExcType: message``) is what the TclError shown to
    scripts carries; the full traceback goes to stderr and, when
    configured, to the panic log file.  Logging failures are swallowed:
    the firewall must never raise.
    """
    if exc is None:
        exc = sys.exc_info()[1]
    summary = "%s: %s" % (type(exc).__name__, exc)
    detail = "wafe: panic: contained Python exception in %s\n%s" % (
        context,
        "".join(traceback.format_exception(type(exc), exc,
                                           exc.__traceback__)))
    try:
        sys.stderr.write(detail)
    except (OSError, ValueError):
        pass
    if _panic_log_path is not None:
        try:
            with open(_panic_log_path, "a") as handle:
                handle.write(detail)
        except OSError:
            pass
    return summary


def report(sink, prefix, message):
    """Deliver one advisory ``message`` through ``sink(message)``.

    Without a sink, or when the sink itself raises, the message goes to
    stderr as ``prefix: message``.  Like :func:`log_panic`, reporting
    never raises.
    """
    if sink is not None:
        try:
            sink(message)
            return
        except Exception:  # noqa: BLE001 -- reporter of last resort
            pass
    try:
        sys.stderr.write("%s: %s\n" % (prefix, message))
    except (OSError, ValueError):
        pass
