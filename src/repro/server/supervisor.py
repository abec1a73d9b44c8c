"""Session supervision: end-of-life classification and the reap ledger.

The backend supervisor (PR 3) classifies a child process's death by
exit code or signal; a server session has no child process, so its
deaths are classified by *cause* instead.  The supervisor keeps the
counts the operator needs to answer "who is killing my sessions":
every end is one of :data:`END_KINDS`, the involuntary ones count as
reaps, and a bounded history ring keeps the most recent ends with
their details for post-mortems.
"""

import collections

#: How a session's life can end.
#:
#: ``eof``          the client closed (or the socket died mid-write)
#: ``quit``         the session script ran ``quit``
#: ``quota``        trip budget exhausted (see SessionQuotas.max_trips)
#: ``idle``         the idle reaper collected a silent session
#: ``error``        an unrecoverable internal fault in the session
#: ``quarantined``  the event core quarantined the session's handler
#: ``shutdown``     orderly server shutdown (SIGTERM drain)
END_KINDS = ("eof", "quit", "quota", "idle", "error", "quarantined",
             "shutdown")

#: The involuntary ends: the server decided, not the client.
REAP_KINDS = ("quota", "idle", "error", "quarantined")


class SessionSupervisor:
    """The ledger of session ends (and nothing else: the sessions
    themselves live in the server's table; a dead session is not
    restarted -- the client reconnects)."""

    HISTORY = 64

    def __init__(self, report=None):
        self.report = report
        self.ended = dict.fromkeys(END_KINDS, 0)
        self.reaped = 0
        self.history = collections.deque(maxlen=self.HISTORY)

    def session_ended(self, sid, kind, detail=None, lifetime_ms=0,
                      commands_run=0):
        """Record one session's end; unknown kinds count as ``error``
        (a misclassified death must not vanish from the ledger)."""
        if kind not in self.ended:
            detail = "unknown end kind %r%s" % (
                kind, (": " + detail) if detail else "")
            kind = "error"
        self.ended[kind] += 1
        if kind in REAP_KINDS:
            self.reaped += 1
        self.history.append((sid, kind, detail, int(lifetime_ms),
                             commands_run))
        if self.report is not None and kind in REAP_KINDS:
            self.report("session %d reaped (%s%s) after %d ms, "
                        "%d commands"
                        % (sid, kind, ": " + detail if detail else "",
                           int(lifetime_ms), commands_run))
