"""The raw-``select`` readiness pass: the executable specification of
:class:`repro.xt.eventcore.EventCore`'s ``selectors`` primitives.

:class:`SelectEventCore` keeps every fault rule of the production core
(generation tokens, quarantine, watchdog, dead-fd reaping) and swaps
only the readiness primitives for the historical loop that rebuilt fd
lists around ``select.select`` on every pass.  The event core suite
runs each test against both, and benchmarks/bench_event_core.py gates
the selector path against this one at 1k watched fds.
"""

import select

from repro.xt.eventcore import _READ, _WRITE, EventCore


class SelectEventCore(EventCore):
    """An :class:`EventCore` whose readiness waits use ``select``."""

    def backend_name(self):
        return "select"

    def _sync_selector(self, fd, entry, had_mask):
        """Nothing to mirror: every pass rebuilds its fd lists."""

    def _select_ready(self, timeout):
        read_fds = [fd for fd, e in self._fd_entries.items() if e["r"]]
        write_fds = [fd for fd, e in self._fd_entries.items() if e["w"]]
        if not read_fds and not write_fds:
            if timeout:
                self._sleep(timeout)
            return []
        try:
            readable, writable, __ = select.select(read_fds, write_fds, [],
                                                   timeout)
        except InterruptedError:
            self._counters["eintr_retries"] += 1
            return []
        except (OSError, ValueError):
            self.reap_dead_fds()
            return []
        ready = {}
        for fd in readable:
            ready[fd] = ready.get(fd, 0) | _READ
        for fd in writable:
            ready[fd] = ready.get(fd, 0) | _WRITE
        return [(fd, mask, self._fd_generation.get(fd))
                for fd, mask in ready.items()]

    def _wait_writable(self, fd, timeout):
        __, writable, __ = select.select([], [fd], [], timeout)
        return bool(writable)
