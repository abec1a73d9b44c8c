"""Wafe itself: Tcl + (Intrinsics + Widgets + Converters + Ext) +
(Memory Management + Communication).

The class wires together the formula from the paper: a Tcl interpreter
hosts the command language; the generated toolkit commands (from the
codegen specs) and the handwritten irregular commands are registered on
top; the Callback converter, the ``exec`` action and the percent-code
machinery link widgets back to Tcl; widget names index a registry whose
entries die with their widgets (the memory-management component); and
``echo`` output goes to the communication channel when a backend
application is attached.
"""

from repro import codegen
from repro.tcl import Interp
from repro.tcl.errors import TclError
from repro.xt import ApplicationShell, XtAppContext
from repro.xt.callbacks import CallbackList
from repro.xt.translations import merge_tables, parse_translation_table
from repro.xt import resources as R
from repro.core import commands as _commands
from repro.core.supervisor import SupervisionConfig as _SupervisionConfig
from repro.core.percent import substitute_action, substitute_callback
from repro.core.predefined import PREDEFINED_CALLBACKS

VERSION = "0.93-repro"

_BUILD_CLASS_TABLES = {}


def _class_table(build):
    table = _BUILD_CLASS_TABLES.get(build)
    if table is None:
        if build == "athena":
            from repro.xaw import ATHENA_CLASSES, PLOTTER_CLASSES

            table = dict(ATHENA_CLASSES)
            table.update(PLOTTER_CLASSES)
        elif build == "motif":
            from repro.motif import MOTIF_CLASSES

            table = dict(MOTIF_CLASSES)
        else:
            raise ValueError("unknown Wafe build %r" % build)
        _BUILD_CLASS_TABLES[build] = table
    return table


_GENERATED_CACHE = {}


def _generated_commands(build):
    commands = _GENERATED_CACHE.get(build)
    if commands is None:
        commands, __ = codegen.compile_commands(build)
        _GENERATED_CACHE[build] = commands
    return commands


class Wafe:
    """One frontend instance (one "Wafe binary" in the paper's terms)."""

    def __init__(self, build="athena", app_name=None, display_name=":0",
                 argv=None, core=None):
        self.build = build
        if app_name is None:
            app_name = "wafe" if build == "athena" else "mofe"
        app_class = "Wafe" if build == "athena" else "Mofe"
        # ``core`` injects a *shared* event core (the session server
        # runs many Wafe instances on one loop); global core hooks stay
        # with the core's owner then.
        self.interp = Interp()
        self.app = XtAppContext(app_name, app_class, display_name,
                                core=core)
        self.app.widget_destroyed = self._widget_destroyed
        self.classes = _class_table(build)
        self.widgets = {}
        self.bell_count = 0
        self.frontend = None       # set in frontend mode
        self.supervisor = None     # set when a BackendSupervisor attaches
        self.supervision = _SupervisionConfig()  # shared policy knobs
        self.quotas = None         # per-session quotas (server mode)
        self.quit_requested = False
        self.error_sink = None     # callable(str) for reporting errors
        self.safe_mode = False     # set by enable_safe_mode()
        self.interp.write_output = self._tcl_output
        # The Xt-side of the Python-exception firewall: faults in
        # timeout procs, input handlers, work procs, and action procs
        # are routed here instead of unwinding through the main loop.
        self.app.error_handler = self._xt_fault
        # Event-core advisories (quarantines, slow handlers, fd leaks)
        # use the ordinary error channel; a quarantine additionally
        # fires the ``onHandlerQuarantine`` script.  On a shared core
        # both hooks belong to the owning (server) context.
        if self.app.owns_core:
            self.app.message_hook = self.report_error
            self.app.core.on_quarantine = self._handler_quarantined
        # The automatically created top level shell of every Wafe program.
        self.top_level = ApplicationShell("topLevel", None, app=self.app)
        self.widgets["topLevel"] = self.top_level
        self._register_converters()
        self._register_commands()
        self.app.register_action("exec", self._exec_action)
        if argv:
            self._apply_xt_arguments(argv)

    # ------------------------------------------------------------------
    # Setup

    def _register_converters(self):
        registry = self.app.converters
        registry.register(R.R_CALLBACK, self._convert_callback,
                          lambda w, v: getattr(v, "source", ""))
        registry.register(R.R_XMSTRING, lambda w, v: v,
                          lambda w, v: getattr(v, "source", str(v)))
        registry.register(R.R_FONT_LIST, lambda w, v: v,
                          lambda w, v: getattr(v, "source", str(v)))

    def _register_commands(self):
        for name, func in _generated_commands(self.build):
            self.interp.register(name, self._bind(func))
        _commands.register(self)
        # The convenience alias pair the paper documents.
        self.interp.commands["sV"] = self.interp.commands["setValues"]
        self.interp.commands["gV"] = self.interp.commands["getValue"]
        # ``info xrmstats`` rides the same plumbing as the built-in
        # ``info cachestats``: counters for the quark-interned resource
        # machinery (see docs/PERFORMANCE.md).  ``info eventstats``
        # does the same for the unified event core.
        self.interp.info_extensions["xrmstats"] = self._info_xrmstats
        self.interp.info_extensions["eventstats"] = self._info_eventstats
        # ``info renderstats``: damage-region rendering and protocol
        # pipelining counters (see docs/PERFORMANCE.md).
        self.interp.info_extensions["renderstats"] = self._info_renderstats

    def _info_xrmstats(self, interp, argv):
        from repro.tcl.lists import list_to_string

        if len(argv) == 3 and argv[2] == "reset":
            self.app.database.reset_stats()
            return ""
        if len(argv) != 2:
            raise TclError('wrong # args: should be "info xrmstats ?reset?"')
        stats = self.app.database.stats()
        return list_to_string([
            "quarks", str(stats["quarks"]),
            "entries", str(stats["entries"]),
            "generation", str(stats["generation"]),
            "generationBumps", str(stats["generation_bumps"]),
            "searchListHits", str(stats["searchlist_hits"]),
            "searchListMisses", str(stats["searchlist_misses"]),
            "searchListHitRate", "%.4f" % stats["searchlist_hit_rate"],
            "cachedSearchLists", str(stats["cached_search_lists"]),
            "searches", str(stats["searches"]),
        ])

    def _info_renderstats(self, interp, argv):
        from repro.tcl.lists import list_to_string

        display = self.app.default_display
        if len(argv) == 3 and argv[2] == "reset":
            display.reset_render_stats()
            if self.frontend is not None:
                self.frontend.reset_stats()
            return ""
        if len(argv) != 2:
            raise TclError(
                'wrong # args: should be "info renderstats ?reset?"')
        stats = display.render_stats
        pairs = [
            "damageRects", str(stats["damage_rects"]),
            "damagePixels", str(stats["damage_pixels"]),
            "damageFlushes", str(stats["damage_flushes"]),
            "exposeSeries", str(stats["expose_series"]),
            "exposeEvents", str(stats["expose_events"]),
            "exposedPixels", str(stats["exposed_pixels"]),
            "drawCalls", str(stats["draw_calls"]),
            "drawnPixels", str(stats["drawn_pixels"]),
        ]
        frontend = self.frontend
        if frontend is not None:
            fstats = frontend.stats
            pairs += [
                "sends", str(fstats["sends"]),
                "pipeWrites", str(fstats["pipe_writes"]),
                "bytesWritten", str(fstats["bytes_written"]),
                "frameFlushes", str(fstats["frame_flushes"]),
                "syncPoints", str(fstats["sync_points"]),
            ]
        return list_to_string(pairs)

    def _info_eventstats(self, interp, argv):
        from repro.tcl.lists import list_to_string

        if len(argv) == 3 and argv[2] == "reset":
            self.app.core.reset_stats()
            return ""
        if len(argv) != 2:
            raise TclError(
                'wrong # args: should be "info eventstats ?reset?"')
        stats = self.app.core.stats()
        return list_to_string([
            "backend", stats["backend"],
            "activeInputs", str(stats["active_inputs"]),
            "activeOutputs", str(stats["active_outputs"]),
            "pendingTimers", str(stats["pending_timers"]),
            "workProcs", str(stats["work_procs"]),
            "registered", str(stats["registered"]),
            "unregistered", str(stats["unregistered"]),
            "dispatches", str(stats["dispatches"]),
            "timersScheduled", str(stats["timers_scheduled"]),
            "timersFired", str(stats["timers_fired"]),
            "timersCancelled", str(stats["timers_cancelled"]),
            "polls", str(stats["polls"]),
            "handlerErrors", str(stats["handler_errors"]),
            "quarantined", str(stats["quarantined"]),
            "slowDispatches", str(stats["slow_dispatches"]),
            "staleSkips", str(stats["stale_skips"]),
            "deadFdDrops", str(stats["dead_fd_drops"]),
            "leakedWatches", str(stats["leaked_watches"]),
            "eintrRetries", str(stats["eintr_retries"]),
            "handlerTimeLimitMs", str(stats["handler_time_limit_ms"]),
            "quarantineStrikes", str(stats["quarantine_strikes"]),
        ])

    def _handler_quarantined(self, kind, fd, label, strikes, exc):
        """The ``onHandlerQuarantine`` hook: the configured script runs
        with the quarantine's percent codes expanded (the event core
        has already unregistered the handler and reported the fact)."""
        from repro.core.supervisor import substitute_quarantine

        script = self.supervision.on_quarantine_script
        if script:
            self.run_command_line(substitute_quarantine(
                script, kind, fd, label, strikes, exc))

    def _bind(self, func):
        def command(interp, argv, _func=func, _wafe=self):
            return _func(_wafe, argv)

        return command

    def register_command(self, name, func):
        """Register ``func(wafe, argv) -> str`` as a Wafe command."""
        self.interp.register(name, self._bind(func))

    def _apply_xt_arguments(self, argv):
        """Interpret standard X Toolkit arguments (-display, -xrm...)."""
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg == "-display" and i + 1 < len(argv):
                self.app.default_display = self.app.use_display(argv[i + 1])
                i += 2
            elif arg == "-xrm" and i + 1 < len(argv):
                self.app.merge_resources(argv[i + 1])
                i += 2
            elif arg in ("-name", "-title") and i + 1 < len(argv):
                if arg == "-name":
                    self.app.app_name = argv[i + 1]
                i += 2
            else:
                i += 1

    # ------------------------------------------------------------------
    # Widget registry ("widgets are referenced by name")

    def lookup_widget(self, name):
        widget = self.widgets.get(name)
        if widget is None:
            raise TclError('no such widget "%s"' % name)
        return widget

    def _widget_destroyed(self, widget):
        # The memory-management component: a destroyed widget's name
        # binding and converted resources are disposed of.
        if self.widgets.get(widget.name) is widget:
            del self.widgets[widget.name]

    def create_widget(self, class_name, argv):
        """The shared implementation of all creation commands.

        ``argv`` is ``[cmd, name, parent, ?-unmanaged?, attr, value ...]``.
        """
        klass = self.classes.get(class_name)
        if klass is None:
            raise TclError(
                'widget class "%s" is not configured into this Wafe binary'
                % class_name)
        if len(argv) < 3:
            raise TclError(
                'wrong # args: should be "%s name parent '
                '?attr value ...?"' % argv[0])
        name, parent_name = argv[1], argv[2]
        if name in self.widgets:
            raise TclError('widget "%s" already exists' % name)
        rest = argv[3:]
        managed = True
        if rest and rest[0] in ("-unmanaged", "unmanaged"):
            managed = False
            rest = rest[1:]
        if len(rest) % 2 != 0:
            raise TclError(
                "attribute list must have an even number of elements")
        args = {rest[i]: rest[i + 1] for i in range(0, len(rest), 2)}
        parent = self.lookup_widget(parent_name)
        if self.quotas is not None:
            self.quotas.charge_widgets(len(self.widgets))
        widget = klass(name, parent, args=args, managed=managed)
        self.widgets[name] = widget
        if parent.realized and managed and not getattr(widget, "is_popup",
                                                       False):
            widget.realize()
        return name

    def create_application_shell(self, name, display_name, args):
        """``applicationShell top2 dec4:0``: a shell on another display."""
        if name in self.widgets:
            raise TclError('widget "%s" already exists' % name)
        if self.quotas is not None:
            self.quotas.charge_widgets(len(self.widgets))
        display = self.app.use_display(display_name)
        shell = ApplicationShell(name, None, args=args, app=self.app)
        shell._display = display
        self.widgets[name] = shell
        return name

    # ------------------------------------------------------------------
    # Scripts, callbacks, actions

    def run_script(self, script):
        """Evaluate a Tcl/Wafe script; TclError propagates."""
        return self.interp.eval(script)

    def run_command_line(self, line):
        """Evaluate one line, reporting errors instead of raising.

        This is the tolerant entry point used for interactive input and
        for command lines arriving from the backend application.  Any
        TclError -- including watchdog limit trips and firewalled
        Python exceptions -- is reported with its full errorInfo
        traceback and the event loop stays live.
        """
        try:
            return self.run_script(line)
        except TclError as err:
            self.report_tcl_error(err)
            return None

    def report_error(self, message):
        if self.error_sink is not None:
            self.error_sink(message)
        else:
            import sys

            sys.stderr.write("wafe: %s\n" % message)

    def report_tcl_error(self, err):
        """Report a TclError with its structured multi-line traceback.

        The error sink (or stderr) receives the full errorInfo; an
        attached backend additionally gets the traceback shipped down
        the channel, one ``error: ``-prefixed line per frame, so the
        application program can log or display what its command did
        (the paper's contract: a bad line comes back as an error
        string, never as a dead GUI).
        """
        info = err.errorinfo
        text = info if info and info != err.result else str(err.result)
        self.report_error(text)
        if self.frontend is not None:
            block = "".join("error: %s\n" % line
                            for line in text.split("\n"))
            self.frontend.send(block)

    def _xt_fault(self, context, exc):
        """The firewall's report hook for Xt-side faults.

        A TclError here means a callback/action script failed -- report
        it like any command-line error.  Anything else is a contained
        Python exception whose traceback already went to the panic
        log; surface the one-line summary.
        """
        if isinstance(exc, TclError):
            self.report_tcl_error(exc)
        else:
            self.report_error(
                "internal error in %s (%s: %s)"
                % (context, type(exc).__name__, exc))

    # ------------------------------------------------------------------
    # Fault containment (limits, safe mode -- docs/ROBUSTNESS.md)

    def apply_fault_containment(self):
        """Push the supervision-config fault knobs into the runtime.

        Called when a supervisor starts (after ``load_resources``) and
        by the CLI for file/interactive modes, so ``evalTimeLimit``,
        ``evalCommandLimit``, ``recursionLimit``, ``safeMode`` and
        ``panicLog`` resources behave identically in every mode.
        Explicit command-level settings have already won inside
        :class:`SupervisionConfig`.
        """
        from repro.tcl import errors as _errors

        config = self.supervision
        self.interp.set_eval_limits(time_ms=config.eval_time_ms,
                                    commands=config.eval_commands)
        self.app.core.handler_time_limit_ms = config.handler_time_ms
        if config.recursion_limit:
            self.interp.set_recursion_limit(config.recursion_limit)
        if config.panic_log:
            _errors.set_panic_log(config.panic_log)
        if config.safe_mode:
            self.enable_safe_mode()

    def enable_safe_mode(self):
        """Hide the Safe-Tcl command set from scripts (one-way)."""
        from repro.core.safemode import enable_safe_mode

        hidden = enable_safe_mode(self.interp)
        self.safe_mode = True
        return hidden

    def _convert_callback(self, widget, value):
        """The Callback converter: a Tcl command string becomes a
        callback list entry (percent codes resolved per invocation)."""
        callback_list = CallbackList()
        self._add_script_callback(callback_list, value)
        return callback_list

    def _add_script_callback(self, callback_list, script):
        def run(widget, call_data, _list=callback_list, _script=script):
            resource_name = "callback"
            for key, candidate in widget.resources.items():
                if candidate is _list:
                    resource_name = key
                    break
            expanded = substitute_callback(_script, widget, resource_name,
                                           call_data)
            self.run_command_line(expanded)

        callback_list.add(run, source=script)

    def add_predefined_callback(self, widget, resource_name, func_name,
                                args):
        func = PREDEFINED_CALLBACKS.get(func_name)
        if func is None:
            raise TclError(
                'unknown predefined callback "%s": must be one of %s'
                % (func_name, ", ".join(sorted(PREDEFINED_CALLBACKS))))

        def run(invoking_widget, call_data):
            func(self, invoking_widget, args, call_data)

        widget.add_callback(resource_name, run,
                            source="%s %s" % (func_name, " ".join(args)))

    def _exec_action(self, widget, event, args):
        """The global ``exec`` action: run a Wafe command on any event,
        with the paper's percent codes expanded from the event."""
        if not args:
            return
        script = substitute_action(args[0], widget, event)
        self.run_command_line(script)

    def merge_widget_translations(self, widget, table_text, mode):
        new = parse_translation_table(table_text)
        new.directive = mode
        widget.resources["translations"] = merge_tables(
            widget.resources.get("translations"), new)

    # ------------------------------------------------------------------
    # Output and lifecycle

    def echo(self, text):
        """``echo``: to the backend application if attached, else stdout.

        In frontend mode this is how the GUI talks back to the program
        ("the frontend is programmed ... to send back string messages
        whenever certain events occur").
        """
        if self.frontend is not None:
            self.frontend.send(text + "\n")
        else:
            self.interp.output(text + "\n")

    def _tcl_output(self, text):
        import sys

        if self.frontend is not None:
            self.frontend.send(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()

    def quit(self):
        self.quit_requested = True
        self.app.exit_loop()
        if self.supervisor is not None:
            self.supervisor.stop()
        elif self.frontend is not None:
            self.frontend.close()
        # Graceful shutdown of the event core: a bounded drain of any
        # pending writer watches, then every remaining source is
        # unregistered with leak accounting (``info eventstats``).
        self.app.shutdown()

    def realize(self, widget=None):
        target = widget if widget is not None else self.top_level
        target.realize()
        self.app.process_pending()

    def main_loop(self, until=None, max_idle=None):
        self.app.main_loop(until=until, max_idle=max_idle)
