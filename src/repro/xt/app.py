"""The application context: event dispatch, timeouts, alternate inputs.

``XtAppContext`` owns the displays, the window->widget registry, global
actions, the converter registry, the resource database, and the main
loop.  Wafe's frontend mode hangs off :meth:`add_input`: the backend's
stdout pipe is registered as an alternate input source, exactly like
``XtAppAddInput`` in the C implementation, so GUI events and backend
commands interleave in one loop.

Readiness dispatch and timers live in the unified
:class:`~repro.xt.eventcore.EventCore` (one ``selectors``-based loop
multiplexing backends, timers, and work procs, with handler quarantine
and the slow-handler watchdog -- docs/ROBUSTNESS.md); this class keeps
the Xt-flavoured API (``add_input``/``add_timeout``/``main_loop``) on
top of it.
"""

import time as _time

from repro.tcl.errors import TclError, log_panic, report
from repro.xlib import xtypes
from repro.xlib.display import open_display
from repro.xt.converters import ConverterRegistry
from repro.xt.eventcore import EventCore
from repro.xt.xrm import XrmDatabase, quark


class XtAppContext:
    """One application context (XtCreateApplicationContext)."""

    def __init__(self, app_name="wafe", app_class="Wafe",
                 display_name=":0", core=None):
        self.app_name = app_name
        self.app_class = app_class
        self.default_display = open_display(display_name)
        self.displays = [self.default_display]
        self.converters = ConverterRegistry()
        self.database = XrmDatabase()
        self.global_actions = {}
        self._window_widgets = {}
        # The unified event core: every timer, fd watch and work proc
        # goes through it.  A server injects one shared core into many
        # contexts (one per session); only the owning context installs
        # the global hooks or may shut it down, and a non-owning context
        # tracks every source it registers so session teardown can
        # sweep them off the shared loop.
        self.owns_core = core is None
        self.core = EventCore() if core is None else core
        if self.owns_core:
            self.core.error_handler = self.report_exception
            self.core.report = self.report_message
        self._shared_timers = set()
        self._shared_watches = set()
        self._shared_work = set()
        self._quit = False
        self.event_count = 0
        self.dispatch_hook = None  # observe every dispatched event
        # Advisory messages (quarantines, watchdog trips, fd leaks):
        # embedders install a callable(str) here (Wafe wires its
        # report_error); without one they go to stderr.
        self.message_hook = None
        # The Xt-side exception firewall: embedders install a
        # handler(context, exc) here (Wafe routes Tcl errors to the
        # backend).  Without one, contained exceptions go to the panic
        # log -- never up through the event loop.
        self.error_handler = None
        # Frame hooks run at end-of-dispatch boundaries (the event queue
        # just drained): the frontend batches its protocol output until
        # here, giving frame-granularity pipelining.
        self.frame_hooks = []

    # ------------------------------------------------------------------
    # Displays / widgets

    def use_display(self, name):
        display = open_display(name)
        if display not in self.displays:
            self.displays.append(display)
        return display

    def register_window(self, window, widget):
        self._window_widgets[window.wid] = widget

    def unregister_window(self, window):
        self._window_widgets.pop(window.wid, None)

    def widget_for_window(self, window):
        if window is None:
            return None
        return self._window_widgets.get(window.wid)

    def widget_destroyed(self, widget):
        """Hook for embedders (Wafe drops its name binding here)."""

    def find_popup_shell(self, name, reference):
        """Find a popup shell by name among the reference's ancestors'
        children (how XtPopupSpringLoaded resolves a menu name)."""
        widget = reference
        while widget is not None:
            for child in widget.children:
                if child.name == name and getattr(child, "is_popup", False):
                    return child
            widget = widget.parent
        return None

    # ------------------------------------------------------------------
    # Resource database

    def load_resource_string(self, text):
        self.database.put_lines(text)

    def load_resource_file(self, path):
        self.database.load_file(path)

    def merge_resources(self, text):
        """The ``mergeResources`` command: extend the database.

        Returns the rejected (invalid) specifier lines so callers can
        report advisories.  The database generation bump invalidates
        every memoised search list, so widgets created -- or resources
        re-queried -- after the merge see the new entries.
        """
        return self.database.put_lines(text)

    def widget_path_quarks(self, widget):
        """The widget's interned name/class chains below the root.

        Cached per instance; the root component is substituted with the
        application name/class at query time (it can change via
        ``-name`` after widgets exist), so it is *not* part of the
        cached chain.
        """
        cached = widget._path_quarks
        if cached is None:
            parent = widget.parent
            if parent is None:
                cached = ((), ())
            else:
                names, classes = self.widget_path_quarks(parent)
                cached = (names + (quark(widget.name),),
                          classes + (widget.class_quark(),))
            widget._path_quarks = cached
        return cached

    def resource_search_list(self, widget):
        """The widget's Xrm search list (XrmQGetSearchList), cached on
        the instance and revalidated against the database generation
        and the application name."""
        key = (self.database.generation, self.app_name)
        cached = widget._xrm_search
        if cached is not None and cached[0] == key:
            return cached[1]
        names, classes = self.widget_path_quarks(widget)
        slist = self.database.get_search_list(
            (quark(self.app_name),) + names,
            (quark(self.app_class),) + classes)
        widget._xrm_search = (key, slist)
        return slist

    def query_resource(self, widget, resource_name, resource_class):
        slist = self.resource_search_list(widget)
        return self.database.search(slist, quark(resource_name),
                                    quark(resource_class))

    # ------------------------------------------------------------------
    # Actions

    def register_action(self, name, func):
        """XtAppAddActions: func(widget, event, args)."""
        self.global_actions[name] = func

    def find_action(self, widget, name):
        action = widget.class_actions().get(name)
        if action is None:
            action = self.global_actions.get(name)
        return action

    # ------------------------------------------------------------------
    # Timeouts, inputs, work procs

    def add_timeout(self, interval_ms, func, *args):
        """XtAppAddTimeOut; returns an id usable with remove_timeout."""
        if self.owns_core:
            return self.core.add_timer(interval_ms, func, args)
        holder = []

        def fire(*timer_args):
            if holder:
                self._shared_timers.discard(holder[0])
            return func(*timer_args)

        timer_id = self.core.add_timer(interval_ms, fire, args)
        holder.append(timer_id)
        self._shared_timers.add(timer_id)
        return timer_id

    def remove_timeout(self, timeout_id):
        """Safe no-op when the timer already fired or was cancelled."""
        self._shared_timers.discard(timeout_id)
        self.core.remove_timer(timeout_id)

    def add_input(self, fileobj, func, label=None):
        """XtAppAddInput: call func(fileobj) when readable."""
        watch_id = self.core.add_reader(fileobj, func, label=label)
        if not self.owns_core:
            self._shared_watches.add(watch_id)
        return watch_id

    def remove_input(self, input_id):
        """Safe no-op on double removal, removal from inside the
        handler itself, or removal after quarantine."""
        self._shared_watches.discard(input_id)
        self.core.remove_watch(input_id)

    def add_output(self, fileobj, func, label=None):
        """XtAppAddInput with XtInputWriteMask: call func(fileobj) when
        the descriptor is writable (used for non-blocking pipe drains)."""
        watch_id = self.core.add_writer(fileobj, func, label=label)
        if not self.owns_core:
            self._shared_watches.add(watch_id)
        return watch_id

    def remove_output(self, output_id):
        """Safe no-op when the watch is already gone."""
        self._shared_watches.discard(output_id)
        self.core.remove_watch(output_id)

    def add_work_proc(self, func, label=None):
        """XtAppAddWorkProc: func() -> True removes itself."""
        work_id = self.core.add_work_proc(func, label=label)
        if not self.owns_core:
            self._shared_work.add(work_id)
        return work_id

    def release_core_sources(self):
        """Sweep every source this context registered off a shared core
        (session teardown).  Each removal is a safe no-op for sources
        that already fired, were removed, or were quarantined; returns
        how many were still live."""
        released = 0
        for timer_id in list(self._shared_timers):
            if self.core.remove_timer(timer_id):
                released += 1
        self._shared_timers.clear()
        for watch_id in list(self._shared_watches):
            if self.core.remove_watch(watch_id):
                released += 1
        self._shared_watches.clear()
        for work_id in list(self._shared_work):
            if self.core.remove_work_proc(work_id):
                released += 1
        self._shared_work.clear()
        return released

    # Compatibility views of the core's state (the pre-eventcore
    # attribute shapes, still used by tests and introspection).

    @property
    def _timeouts(self):
        return self.core.pending_timers()

    @property
    def _work_procs(self):
        return self.core.work_proc_entries()

    # ------------------------------------------------------------------
    # Event dispatch

    def report_exception(self, context, exc):
        """Contain an exception raised by a handler (callback, action,
        timeout, input, work proc).  The event loop must survive any
        single handler, so this never re-raises: the embedder's
        ``error_handler`` gets first crack (Wafe ships Tcl errors to
        the backend); failing that -- or if the handler itself raises
        -- the panic log records the full traceback."""
        handler = self.error_handler
        if handler is not None:
            try:
                handler(context, exc)
                return
            except Exception:  # noqa: BLE001 -- the handler of last resort
                pass
        log_panic(context, exc)

    def report_message(self, message):
        """Advisory reporting (quarantines, slow handlers, fd leaks):
        through the embedder's hook, or stderr standalone."""
        report(self.message_hook, "wafe", message)

    def pending(self):
        """XtAppPending-ish: X events queued right now."""
        return sum(d.pending() for d in self.displays)

    def dispatch_event(self, event):
        """XtDispatchEvent: route one X event to its widget."""
        self.event_count += 1
        widget = self.widget_for_window(event.window)
        if self.dispatch_hook is not None:
            self.dispatch_hook(widget, event)
        if widget is None or widget.destroyed:
            return False
        if event.type == xtypes.Expose:
            widget.handle_expose(event)
            return True
        if event.type in (xtypes.KeyPress, xtypes.KeyRelease,
                          xtypes.ButtonPress, xtypes.ButtonRelease):
            if not widget.is_sensitive():
                return False
        def accel_lookup(directive):
            # Accelerators installed from other widgets fire their
            # actions on the *source* widget (Xt semantics).  A table
            # marked #override beats the destination's own bindings;
            # the default (augment) defers to them.
            for accel_table, source in widget.accelerator_bindings:
                if accel_table is None or source.destroyed:
                    continue
                if accel_table.directive != directive:
                    continue
                hit = accel_table.lookup(event)
                if hit:
                    return hit, source
            return None, widget

        actions, target = accel_lookup("override")
        if not actions:
            table = widget.resources.get("translations")
            if table is not None:
                progress = getattr(widget, "_translation_progress", None)
                if progress is None:
                    progress = widget._translation_progress = {}
                actions = table.lookup_stateful(event, progress)
            else:
                actions = None
            target = widget
        if not actions:
            actions, target = accel_lookup("replace")
        if not actions:
            actions, target = accel_lookup("augment")
        if not actions:
            return False
        for name, args in actions:
            func = self.find_action(target, name)
            if func is None:
                # Xt warns about unbound actions; don't abort the list.
                continue
            try:
                func(target, event, args)
            except Exception as exc:  # noqa: BLE001 -- firewall
                self.report_exception('action "%s"' % name, exc)
        return True

    def add_frame_hook(self, func):
        """Register a callable run at every end-of-dispatch boundary."""
        if func not in self.frame_hooks:
            self.frame_hooks.append(func)

    def remove_frame_hook(self, func):
        if func in self.frame_hooks:
            self.frame_hooks.remove(func)

    def end_frame(self):
        """The event queue just drained: run the frame hooks (protocol
        output flush points).  Hook failures are contained."""
        for hook in list(self.frame_hooks):
            try:
                hook()
            except Exception as exc:  # noqa: BLE001 -- firewall
                self.report_exception("frame hook", exc)

    def process_pending(self, max_events=None):
        """Dispatch every queued X event; returns how many."""
        count = 0
        progress = True
        while progress:
            progress = False
            for display in self.displays:
                while display.pending():
                    self.dispatch_event(display.next_event())
                    count += 1
                    progress = True
                    if max_events is not None and count >= max_events:
                        self.end_frame()
                        return count
        self.end_frame()
        return count

    def process_one(self, block=True):
        """XtAppProcessEvent: one X event, timer, or input."""
        if self.pending():
            for display in self.displays:
                if display.pending():
                    self.dispatch_event(display.next_event())
                    if self.pending() == 0:
                        self.end_frame()
                    return True
        if self.core.run_due_timers():
            return True
        timeout = 0.0
        if block:
            # Xlib flushes its output buffer before blocking in select;
            # the frame hooks are our XFlush, so pipelined protocol
            # output cannot stall a round trip waiting for the poll
            # timeout.
            self.end_frame()
            deadline = self.core.next_deadline()
            if deadline is not None:
                timeout = max(0.0, deadline - _time.monotonic())
                timeout = min(timeout, 0.1)
            else:
                timeout = 0.05
        if self.core.poll(timeout):
            return True
        if self.core.run_one_work_proc():
            return True
        return False

    def main_loop(self, until=None, max_idle=None):
        """XtAppMainLoop.

        ``until``: optional predicate; the loop ends when it turns true.
        ``max_idle``: give up after this many consecutive idle polls
        with no possible event source (prevents hangs in tests and in
        file-mode scripts whose work is done).
        """
        idle = 0
        while not self._quit:
            if until is not None and until():
                return
            worked = self.process_one(block=True)
            if worked:
                idle = 0
                continue
            idle += 1
            if not self.core.has_sources() and self.pending() == 0:
                return  # nothing can ever happen again
            if max_idle is not None and idle >= max_idle:
                return

    def shutdown(self, drain_timeout=0.5):
        """Graceful shutdown: bounded drain of pending writer watches,
        then unregister every remaining source (leaks are counted and
        reported).  The context stays usable afterwards.

        A context on a *shared* core must not tear the loop down under
        its sibling sessions: it only releases its own sources."""
        self._quit = True
        if self.owns_core:
            return self.core.shutdown(drain_timeout)
        self.release_core_sources()
        return 0

    def exit_loop(self):
        """The ``quit`` command."""
        self._quit = True

    @property
    def quit_requested(self):
        return self._quit


class XtError(TclError):
    """Toolkit-level error."""
