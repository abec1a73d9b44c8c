"""The unified event core: one selector, every readiness source.

Wafe's liveness promise (the paper's central claim: the GUI stays
responsive no matter what the application program does) used to rest on
three separate dispatch loops -- ``XtAppContext`` rebuilt fd lists
around a raw ``select.select`` every pass, the frontend ran a private
blocking ``select`` for its close drain, and the supervisor parked its
backoff timers in a sorted list.  :class:`EventCore` replaces all of
them: a single ``selectors.DefaultSelector`` (epoll/kqueue where the
platform has them) owns every fd watch, a monotonic-clock binary heap
owns every timer, and one dispatch path applies the same fault rules to
everything it calls.

Robustness-first design points (docs/ROBUSTNESS.md, "The event core"):

* **Monotonic timers.**  Deadlines come from ``time.monotonic`` via a
  heap -- wall-clock jumps (NTP steps, suspend/resume) cannot fire
  timers early or park them forever.  Removal is lazy (a tombstone in
  the id map), so ``remove_timer`` is O(1) and cancelled entries are
  discarded when they surface at the heap top.

* **Per-fd generation tokens.**  Every register/unregister on an fd
  bumps its generation.  ``poll`` snapshots the generation with each
  ready event and re-checks it at dispatch time, so a handler that
  closes a descriptor mid-batch -- even if the OS immediately recycles
  the number for an unrelated file -- can never cause a stale readiness
  event to fire on the new occupant.

* **EINTR / EBADF hardening.**  The wait primitives recompute their
  timeout from a monotonic deadline around ``InterruptedError`` (on top
  of PEP 475's automatic retry), so signal delivery can never extend a
  bounded wait.  A descriptor closed behind the core's back (EBADF from
  ``select``, or a silently-dropped epoll registration) is detected by
  :meth:`reap_dead_fds` and removed with the ``deadFdDrops`` leak
  counter bumped -- never an unhandled exception, never a spin.

* **Handler quarantine.**  Each fd watch carries a consecutive-failure
  strike count.  A handler that raises ``quarantine_strikes`` times in
  a row is unregistered (the firewall already contained each raise);
  the quarantine is reported and the embedder's ``on_quarantine`` hook
  fires (Wafe runs the ``onHandlerQuarantine`` script).  One broken
  handler ends up sidelined instead of monopolising the error channel
  forever.

* **Slow-handler watchdog.**  Every dispatch is timed.  When
  ``handler_time_limit_ms`` (the ``handlerTimeLimit`` resource) is set,
  a handler exceeding the budget is reported -- once per offending
  streak, so a consistently slow handler does not flood the log.

* **Accounting.**  Register/unregister/dispatch/error counters are
  kept for every source kind and surfaced as ``info stats xt.event.*``.

The previous raw-``select`` loop is the executable specification of
the readiness primitives (:meth:`EventCore._select_ready`,
:meth:`EventCore._wait_writable`); it lives with the tests as an
``EventCore`` subclass (``tests/oracles/eventcore.py``) that the event
core suite runs every test against as well, and
benchmarks/bench_event_core.py gates the selector path against it at
1k watched fds.
"""

import errno
import heapq
import os
import select
import selectors
import time as _time

from repro.tcl.errors import report

_READ = 1
_WRITE = 2

#: Counter names, in the order ``stats()`` reports them.
_COUNTERS = (
    "registered", "unregistered", "dispatches", "timers_scheduled",
    "timers_fired", "timers_cancelled", "polls", "handler_errors",
    "quarantined", "slow_dispatches", "stale_skips", "dead_fd_drops",
    "leaked_watches", "eintr_retries", "accepts", "accept_failures",
)


def _fd_of(fileobj):
    """An int fd for anything add_reader/add_writer accepts."""
    if isinstance(fileobj, int):
        return fileobj
    return fileobj.fileno()


class _Watch:
    """One fd readiness registration."""

    __slots__ = ("watch_id", "fileobj", "fd", "mask", "callback", "label",
                 "strikes", "active", "slow_reported")

    def __init__(self, watch_id, fileobj, fd, mask, callback, label):
        self.watch_id = watch_id
        self.fileobj = fileobj
        self.fd = fd
        self.mask = mask
        self.callback = callback
        self.label = label
        self.strikes = 0
        self.active = True
        self.slow_reported = False

    @property
    def kind(self):
        return "input" if self.mask == _READ else "output"


class EventCore:
    """Readiness dispatch, timers, and work procs -- with fault rules."""

    #: Consecutive handler failures before an fd watch is quarantined.
    QUARANTINE_STRIKES = 3

    def __init__(self, clock=None):
        self._clock = clock if clock is not None else _time.monotonic
        self._selector = selectors.DefaultSelector()
        self._watches = {}        # watch_id -> _Watch
        self._fd_entries = {}     # fd -> {"r": [watches], "w": [watches]}
        self._fd_generation = {}  # fd -> int, bumped on register/unregister
        self._timers = []         # heap of (deadline, timer_id)
        self._timer_map = {}      # timer_id -> (callback, args, label)
        self._work_procs = []     # [(work_id, callback, label)]
        self._next_id = 1
        # Fault knobs (pushed from SupervisionConfig by the embedder).
        self.quarantine_strikes = self.QUARANTINE_STRIKES
        self.handler_time_limit_ms = 0
        # Hooks.  ``error_handler(context, exc)`` contains handler
        # exceptions (Wafe routes it through the Xt firewall);
        # ``report(message)`` carries quarantine/watchdog/leak
        # advisories; ``on_quarantine(kind, fd, label, strikes, exc)``
        # is the embedder-level quarantine hook.
        self.error_handler = None
        self.report = None
        self.on_quarantine = None
        self._counters = dict.fromkeys(_COUNTERS, 0)

    # ------------------------------------------------------------------
    # Introspection

    def backend_name(self):
        return "selectors:%s" % type(self._selector).__name__

    def has_sources(self):
        return bool(self._timer_map or self._watches or self._work_procs)

    def active_watches(self, mask=None):
        if mask is None:
            return len(self._watches)
        return sum(1 for w in self._watches.values() if w.mask == mask)

    def stats(self):
        """Counters + live state: the ``xt.event`` source of ``info stats``."""
        out = dict(self._counters)
        out["backend"] = self.backend_name()
        out["active_inputs"] = self.active_watches(_READ)
        out["active_outputs"] = self.active_watches(_WRITE)
        out["pending_timers"] = len(self._timer_map)
        out["work_procs"] = len(self._work_procs)
        out["handler_time_limit_ms"] = self.handler_time_limit_ms
        out["quarantine_strikes"] = self.quarantine_strikes
        return out

    def reset_stats(self):
        self._counters.update(dict.fromkeys(_COUNTERS, 0))

    # ------------------------------------------------------------------
    # Reporting

    def _report(self, message):
        report(self.report, "eventcore", message)

    def _contain(self, context, exc):
        if self.error_handler is not None:
            try:
                self.error_handler(context, exc)
                return
            except Exception:  # noqa: BLE001 -- handler of last resort
                pass
        self._report("unhandled exception in %s: %s: %s"
                     % (context, type(exc).__name__, exc))

    # ------------------------------------------------------------------
    # fd watches

    def _bump_generation(self, fd):
        self._fd_generation[fd] = self._fd_generation.get(fd, 0) + 1

    def _entry(self, fd):
        entry = self._fd_entries.get(fd)
        if entry is None:
            entry = self._fd_entries[fd] = {"r": [], "w": []}
        return entry

    def _entry_mask(self, entry):
        return (_READ if entry["r"] else 0) | (_WRITE if entry["w"] else 0)

    def _sync_selector(self, fd, entry, had_mask):
        """Mirror an entry's watch lists into the selector."""
        mask = self._entry_mask(entry)
        sel_mask = ((selectors.EVENT_READ if mask & _READ else 0)
                    | (selectors.EVENT_WRITE if mask & _WRITE else 0))
        try:
            if had_mask == 0 and mask:
                self._selector.register(fd, sel_mask, fd)
            elif mask == 0 and had_mask:
                self._selector.unregister(fd)
            elif mask != had_mask:
                self._selector.modify(fd, sel_mask, fd)
        except (KeyError, ValueError, OSError):
            # The fd died (or was recycled) underneath us; the watch
            # bookkeeping stays consistent and reap_dead_fds collects
            # the corpse.
            pass

    def _purge_stale_watches(self, fd, fileobj):
        """Registering on a recycled descriptor number: watches left
        over from a *different* (now closed) file object on the same
        fd are corpses -- purge them so the old handlers can never fire
        against the new descriptor's traffic."""
        entry = self._fd_entries.get(fd)
        if entry is None:
            return
        for watch in entry["r"] + entry["w"]:
            if watch.fileobj is fileobj:
                continue
            if getattr(watch.fileobj, "closed", False):
                self.remove_watch(watch.watch_id)
                self._counters["dead_fd_drops"] += 1
                self._report(
                    "dropped stale %s watch%s on recycled fd %d"
                    % (watch.kind,
                       ' "%s"' % watch.label if watch.label else "",
                       fd))

    def _add_watch(self, fileobj, callback, mask, label):
        fd = _fd_of(fileobj)
        self._purge_stale_watches(fd, fileobj)
        watch = _Watch(self._next_id, fileobj, fd, mask, callback, label)
        self._next_id += 1
        entry = self._entry(fd)
        had_mask = self._entry_mask(entry)
        entry["r" if mask == _READ else "w"].append(watch)
        self._watches[watch.watch_id] = watch
        self._bump_generation(fd)
        self._sync_selector(fd, entry, had_mask)
        self._counters["registered"] += 1
        return watch.watch_id

    def add_reader(self, fileobj, callback, label=None):
        """Call ``callback(fileobj)`` whenever the fd is readable."""
        return self._add_watch(fileobj, callback, _READ, label)

    def add_writer(self, fileobj, callback, label=None):
        """Call ``callback(fileobj)`` whenever the fd is writable."""
        return self._add_watch(fileobj, callback, _WRITE, label)

    def remove_watch(self, watch_id):
        """Unregister a watch; safe no-op when already gone (double
        removal, removal from inside the watch's own handler, removal
        of a quarantined watch)."""
        watch = self._watches.pop(watch_id, None)
        if watch is None:
            return False
        watch.active = False
        entry = self._fd_entries.get(watch.fd)
        if entry is not None:
            had_mask = self._entry_mask(entry)
            slot = entry["r" if watch.mask == _READ else "w"]
            if watch in slot:
                slot.remove(watch)
            self._sync_selector(watch.fd, entry, had_mask)
            if not entry["r"] and not entry["w"]:
                del self._fd_entries[watch.fd]
        self._bump_generation(watch.fd)
        self._counters["unregistered"] += 1
        return True

    # ------------------------------------------------------------------
    # Timers (monotonic heap)

    def add_timer(self, interval_ms, callback, args=(), label=None):
        timer_id = self._next_id
        self._next_id += 1
        deadline = self._clock() + interval_ms / 1000.0
        heapq.heappush(self._timers, (deadline, timer_id))
        self._timer_map[timer_id] = (callback, tuple(args), label)
        self._counters["timers_scheduled"] += 1
        return timer_id

    def remove_timer(self, timer_id):
        """Cancel a timer; safe no-op when already fired or cancelled."""
        if self._timer_map.pop(timer_id, None) is None:
            return False
        self._counters["timers_cancelled"] += 1
        return True

    def next_deadline(self):
        """The earliest live deadline, or None (tombstones discarded)."""
        while self._timers and self._timers[0][1] not in self._timer_map:
            heapq.heappop(self._timers)
        return self._timers[0][0] if self._timers else None

    def pending_timers(self):
        """Live timers as (deadline, id, callback, args), soonest first
        (compatibility view for the old ``_timeouts`` list)."""
        out = []
        for deadline, timer_id in self._timers:
            info = self._timer_map.get(timer_id)
            if info is not None:
                out.append((deadline, timer_id, info[0], info[1]))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def run_due_timers(self):
        """Fire every timer due *now* (one clock snapshot: a timer that
        reschedules itself at 0ms fires next pass, not in a tight
        loop).  Returns how many fired."""
        now = self._clock()
        fired = 0
        while True:
            deadline = self.next_deadline()
            if deadline is None or deadline > now:
                break
            __, timer_id = heapq.heappop(self._timers)
            callback, args, label = self._timer_map.pop(timer_id)
            self._counters["timers_fired"] += 1
            fired += 1
            self._invoke("timeout handler", label, callback, args)
        return fired

    # ------------------------------------------------------------------
    # Work procs

    def add_work_proc(self, callback, label=None):
        work_id = self._next_id
        self._next_id += 1
        self._work_procs.append((work_id, callback, label))
        return work_id

    def remove_work_proc(self, work_id):
        before = len(self._work_procs)
        self._work_procs = [w for w in self._work_procs if w[0] != work_id]
        return len(self._work_procs) != before

    def work_proc_entries(self):
        """Compatibility view: [(id, callback)]."""
        return [(wid, cb) for wid, cb, __ in self._work_procs]

    def run_one_work_proc(self):
        """Run the first work proc; True if one ran.  A raising work
        proc is removed, not retried -- left in place it would raise
        again on every idle pass."""
        if not self._work_procs:
            return False
        work_id, callback, label = self._work_procs[0]
        ok, done = self._invoke("work proc", label, callback, ())
        if not ok:
            done = True
        if done:
            self.remove_work_proc(work_id)
        return True

    # ------------------------------------------------------------------
    # Dispatch (the firewall + watchdog live here)

    def _invoke(self, context, label, callback, args):
        """Run one handler behind the firewall and the slow-handler
        watchdog.  Returns (ok, result)."""
        self._counters["dispatches"] += 1
        start = self._clock()
        try:
            result = callback(*args)
            ok = True
        except Exception as exc:  # noqa: BLE001 -- the firewall
            ok = False
            result = exc
            self._counters["handler_errors"] += 1
            self._contain(context, exc)
        limit_ms = self.handler_time_limit_ms
        if limit_ms and limit_ms > 0:
            elapsed_ms = (self._clock() - start) * 1000.0
            if elapsed_ms > limit_ms:
                self._counters["slow_dispatches"] += 1
                self._report(
                    "slow %s%s: %d ms (handlerTimeLimit %d ms)"
                    % (context,
                       ' "%s"' % label if label else "",
                       int(elapsed_ms), limit_ms))
        return ok, result

    def _dispatch_watch(self, watch):
        context = "%s handler" % watch.kind
        ok, result = self._invoke(context, watch.label, watch.callback,
                                  (watch.fileobj,))
        if ok:
            watch.strikes = 0
            return True
        watch.strikes += 1
        if watch.strikes >= self.quarantine_strikes:
            self._quarantine(watch, context, result)
        return False

    def _quarantine(self, watch, context, exc):
        self.remove_watch(watch.watch_id)
        self._counters["quarantined"] += 1
        self._report(
            "%s%s on fd %d quarantined after %d consecutive failures "
            "(%s: %s)"
            % (context,
               ' "%s"' % watch.label if watch.label else "",
               watch.fd, watch.strikes, type(exc).__name__, exc))
        if self.on_quarantine is not None:
            try:
                self.on_quarantine(watch.kind, watch.fd, watch.label,
                                   watch.strikes, exc)
            except Exception as hook_exc:  # noqa: BLE001 -- firewall
                self._contain("quarantine hook", hook_exc)

    # ------------------------------------------------------------------
    # Readiness

    def _sleep(self, timeout):
        """An EINTR-safe bounded sleep (no sources registered)."""
        deadline = self._clock() + timeout
        while True:
            remaining = deadline - self._clock()
            if remaining <= 0:
                return
            try:
                select.select([], [], [], remaining)
                return
            except InterruptedError:
                self._counters["eintr_retries"] += 1

    def _select_ready(self, timeout):
        """Wait for readiness; returns [(fd, mask, generation)] with the
        generation snapshotted at wait time (the fd-recycling guard)."""
        try:
            events = self._selector.select(timeout)
        except InterruptedError:
            self._counters["eintr_retries"] += 1
            return []
        except OSError:
            self.reap_dead_fds()
            return []
        ready = []
        for key, sel_mask in events:
            mask = ((_READ if sel_mask & selectors.EVENT_READ else 0)
                    | (_WRITE if sel_mask & selectors.EVENT_WRITE else 0))
            ready.append((key.fd, mask, self._fd_generation.get(key.fd)))
        return ready

    def poll(self, timeout=0.0):
        """One readiness pass: wait up to ``timeout`` and dispatch every
        ready watch.  Returns how many handlers ran."""
        self._counters["polls"] += 1
        if not self._fd_entries:
            if timeout:
                self._sleep(timeout)
            return 0
        ready = self._select_ready(timeout)
        fired = 0
        for fd, mask, generation in ready:
            for flag, slot in ((_READ, "r"), (_WRITE, "w")):
                if not mask & flag:
                    continue
                # The generation re-check: a handler earlier in this
                # batch may have unregistered this fd (or closed it and
                # had the number recycled); the snapshot no longer
                # describes the current occupant.
                if self._fd_generation.get(fd) != generation:
                    self._counters["stale_skips"] += 1
                    continue
                entry = self._fd_entries.get(fd)
                if entry is None:
                    continue
                for watch in list(entry[slot]):
                    if not watch.active:
                        continue
                    fired += 1
                    self._dispatch_watch(watch)
        if fired == 0 and timeout and self._fd_entries:
            # A blocking poll that timed out with watches registered is
            # the moment to look for descriptors closed behind our back
            # (epoll drops them silently; they would otherwise pin the
            # loop open forever).
            self.reap_dead_fds()
        return fired

    def reap_dead_fds(self):
        """Drop watches whose descriptor is gone (closed without
        unregister).  Returns how many watches were dropped; each bumps
        the ``deadFdDrops`` leak counter and is reported."""
        dropped = 0
        for fd in list(self._fd_entries):
            entry = self._fd_entries.get(fd)
            if entry is None:
                continue
            dead = False
            watches = entry["r"] + entry["w"]
            for watch in watches:
                if getattr(watch.fileobj, "closed", False):
                    dead = True
                    break
            if not dead:
                try:
                    os.fstat(fd)
                except OSError:
                    dead = True
            if not dead:
                continue
            for watch in watches:
                self.remove_watch(watch.watch_id)
                dropped += 1
                self._counters["dead_fd_drops"] += 1
                self._report(
                    "dropped %s watch%s on dead fd %d "
                    "(closed without unregister)"
                    % (watch.kind,
                       ' "%s"' % watch.label if watch.label else "",
                       fd))
        return dropped

    def accept_connection(self, listen_socket):
        """One EINTR/EAGAIN-safe nonblocking ``accept``.

        Returns ``(conn, addr)`` with the connection already
        nonblocking, or None when nothing is actually there -- a
        spurious wakeup (EAGAIN), a connection aborted between poll and
        accept (ECONNABORTED, which BSD-style accept loops must
        swallow), or a transient kernel refusal.  Hard failures are
        counted and reported, never raised into the loop."""
        while True:
            try:
                conn, addr = listen_socket.accept()
            except InterruptedError:
                self._counters["eintr_retries"] += 1
                continue
            except BlockingIOError:
                return None
            except OSError as exc:
                if exc.errno in (errno.EAGAIN, errno.EWOULDBLOCK,
                                 errno.ECONNABORTED, errno.EPROTO):
                    return None
                self._counters["accept_failures"] += 1
                self._report("accept failed: %s" % exc)
                return None
            self._counters["accepts"] += 1
            conn.setblocking(False)
            return conn, addr

    # ------------------------------------------------------------------
    # Bounded waits and shutdown

    def wait_writable(self, fd, timeout):
        """Wait (EINTR-safe, monotonic-bounded) for ``fd`` to become
        writable.  Returns True when writable, False on deadline or on
        a dead descriptor.  This is the primitive the frontend's close
        drain uses instead of a private blocking ``select``."""
        deadline = self._clock() + max(0.0, timeout)
        while True:
            remaining = deadline - self._clock()
            if remaining <= 0:
                return False
            try:
                if self._wait_writable(fd, remaining):
                    return True
            except InterruptedError:
                self._counters["eintr_retries"] += 1
                continue
            except (OSError, ValueError):
                return False

    def _wait_writable(self, fd, timeout):
        """One bounded wait for ``fd`` to become writable (may raise
        InterruptedError/OSError/ValueError; the caller retries)."""
        probe = selectors.DefaultSelector()
        try:
            probe.register(fd, selectors.EVENT_WRITE)
            return bool(probe.select(timeout))
        finally:
            probe.close()

    def shutdown(self, drain_timeout=0.5):
        """Graceful shutdown: give pending writer watches a bounded
        chance to drain, then unregister every remaining source.  Any
        watch still registered after the drain counts as leaked.  The
        core remains usable afterwards (a fresh selector is created),
        so an embedder can shut down one session and start another."""
        deadline = self._clock() + max(0.0, drain_timeout)
        progress = True
        while progress:
            progress = False
            writers = [watch for watch in list(self._watches.values())
                       if watch.mask == _WRITE and watch.active]
            if not writers:
                break
            for watch in writers:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                if (self.wait_writable(watch.fd, remaining)
                        and watch.active):
                    if self._dispatch_watch(watch):
                        progress = True
            if self._clock() >= deadline:
                break
        leaked = len(self._watches)
        if leaked:
            self._counters["leaked_watches"] += leaked
            self._report("%d watch%s still registered at shutdown"
                         % (leaked, "" if leaked == 1 else "es"))
        for watch_id in list(self._watches):
            self.remove_watch(watch_id)
        self._timers = []
        self._timer_map.clear()
        self._work_procs = []
        try:
            self._selector.close()
        except OSError:
            pass
        self._selector = selectors.DefaultSelector()
        return leaked
