"""The multi-session frontend server ("Wafe as a service").

The paper's process model gives one application program one frontend;
this package scales the same line protocol to many concurrent clients
on one process: a :class:`~repro.server.listener.WafeServer` owns a
single shared :class:`~repro.xt.eventcore.EventCore` and accepts
connections over Unix and TCP sockets, and every accepted connection
becomes a :class:`~repro.server.session.Session` -- its own ``Interp``,
simulated display, widget tree, and line channel, fenced in by the
interpreter fault-containment stack plus per-session resource quotas
(:class:`~repro.server.quotas.SessionQuotas`).  A session that crashes,
stalls, or trips its budgets is classified and reaped by the
:class:`~repro.server.supervisor.SessionSupervisor` while every other
session keeps dispatching.  See docs/SERVER.md.
"""

from repro.server.quotas import ServerConfig, SessionQuotas
from repro.server.session import Session, SocketTransport, StdioTransport
from repro.server.supervisor import SessionSupervisor
from repro.server.listener import WafeServer, serve_main

__all__ = [
    "ServerConfig",
    "SessionQuotas",
    "Session",
    "SocketTransport",
    "StdioTransport",
    "SessionSupervisor",
    "WafeServer",
    "serve_main",
]
