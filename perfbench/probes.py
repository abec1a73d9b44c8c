"""The timing wrappers: one per layer boundary, around public functions
of the program only, installed by replacing the attribute with a
:class:`spans.Recorder` wrapper.  No program file changes.

Call :func:`install` before the program builds its first ``Wafe`` (the
command table and the display registry are wrapped at construction).
"""

from spans import Recorder

#: The public drawing primitives of repro.xlib.graphics.  A primitive
#: built from others (draw_string paints with fill_rectangle) is one
#: span: only the outermost call is recorded.
RASTER = ("fill_rectangle", "clear_area", "draw_rectangle", "draw_point",
          "draw_line", "draw_lines", "draw_arc_outline", "draw_string",
          "draw_image_string", "copy_area", "put_image")


def _patch(owner, attr, recorder, name, probe=None, once=False):
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), probe,
                                       once))


def _raster_probe():
    def before(args):
        display = getattr(args[0], "display", None)
        if display is None:
            # args[0] is copy_area's source; the destination paints.
            display = getattr(args[1], "display", None) \
                if len(args) > 1 else None
        if display is None:
            return None
        stats = display.render_stats
        return stats, stats["draw_calls"], stats["drawn_pixels"]

    def after(state, args, result):
        if state is None:
            return None  # a Pixmap: no framebuffer accounting
        stats, calls, pixels = state
        painted = stats["drawn_pixels"] - pixels
        return {"raster_calls": 1, "draw_calls": stats["draw_calls"] - calls,
                "drawn_pixels": painted, "clipped_calls": int(painted == 0)}
    return before, after


def _stats_probe(keys):
    """Counts from deltas of ``args[0].stats`` (a dict)."""
    def before(args):
        stats = args[0].stats
        return stats, [stats[k] for k in keys.values()]

    def after(state, args, result):
        stats, base = state
        return {name: stats[key] - value
                for (name, key), value in zip(keys.items(), base)}
    return before, after


def _searchlist_probe():
    def before(args):
        return args[0].stats()["searchlist_hits"]

    def after(state, args, result):
        return {"searchlists": 1,
                "searchlist_hits": args[0].stats()["searchlist_hits"] - state}
    return before, after


def _split_probe():
    def after(state, args, result):
        return {"lines": len(result[0]) if result else 0}
    return None, after


def _eval_probe():
    def before(args):
        return args[0].cmd_count

    def after(state, args, result):
        return {"commands": args[0].cmd_count - state}
    return before, after


def install():
    """Wrap every layer boundary; returns the recorder."""
    from repro.core import channel, wafe as core_wafe
    from repro.tcl import Interp
    from repro.xlib import display as xdisplay, graphics
    from repro.xt import app as xt_app, eventcore, widget, xrm

    recorder = Recorder()

    # repro.xlib: primitives, damage flushes, and the render counters
    # every root span samples.
    for attr in RASTER:
        _patch(graphics, attr, recorder, "xlib.raster", _raster_probe(),
               once=True)
    _patch(xdisplay.Display, "flush_damage", recorder, "xlib.damage")
    displays = []
    display_init = xdisplay.Display.__init__

    def track_display(self, *args, **kwargs):
        display_init(self, *args, **kwargs)
        displays.append(self)
    xdisplay.Display.__init__ = track_display

    def render_counters():
        expose = damage = 0
        for display in displays:
            if not display.closed:
                expose += display.render_stats["expose_events"]
                damage += display.render_stats["damage_pixels"]
        return {"expose_events": expose, "damage_pixels": damage}
    recorder.root_counters = render_counters

    # repro.xaw: the widgets' redisplay hooks (class expose methods run
    # inside these three Core entry points).
    for attr in ("handle_expose", "redraw", "update_rects"):
        _patch(widget.Widget, attr, recorder, "xaw.expose")

    # repro.xt: widget lifecycle, Xrm, event dispatch and the poll.
    _patch(core_wafe.Wafe, "create_widget", recorder, "xt.create")
    _patch(widget.Widget, "destroy", recorder, "xt.destroy")
    _patch(widget.Widget, "set_values", recorder, "xt.set_values")
    _patch(xrm.XrmDatabase, "get_search_list", recorder,
           "xt.xrm_searchlist", _searchlist_probe())
    _patch(xrm.XrmDatabase, "search", recorder, "xt.xrm_search")
    _patch(xt_app.XtAppContext, "dispatch_event", recorder, "xt.dispatch")
    _patch(eventcore.EventCore, "poll", recorder, "xt.poll")

    # repro.tcl and the Wafe command glue (repro.core): every command
    # a Wafe adds on top of the Tcl core is a core.cmd span, so
    # tcl.eval's self time is the interpreter alone.
    _patch(Interp, "eval", recorder, "tcl.eval", _eval_probe())
    tcl_core = set(Interp().commands)
    wafe_init = core_wafe.Wafe.__init__

    def wrap_commands(self, *args, **kwargs):
        wafe_init(self, *args, **kwargs)
        wrapped = {}
        commands = self.interp.commands
        for name, func in list(commands.items()):
            if name in tcl_core:
                continue
            if id(func) not in wrapped:
                wrapped[id(func)] = recorder.wrap("core.cmd", func)
            commands[name] = wrapped[id(func)]
    core_wafe.Wafe.__init__ = wrap_commands

    # repro.core: the line channel.
    _patch(channel.LineParser, "split_lines_tolerant", recorder,
           "core.split", _split_probe())
    _patch(channel.OutboundChannel, "flush", recorder, "core.flush",
           _stats_probe({"writes": "pipe_writes",
                         "bytes": "bytes_written"}))

    # Read-and-dispatch handlers, wrapped as they are registered: a
    # server session's socket (repro.server) and the frontend's backend
    # pipe (repro.core).
    add_reader = eventcore.EventCore.add_reader

    def traced_add_reader(self, fileobj, func, *args, **kwargs):
        label = kwargs.get("label") or (args[0] if args else None) or ""
        if label.startswith("session "):
            func = recorder.wrap("server.dispatch", func)
        elif label == "backend stdout":
            func = recorder.wrap("core.read", func)
        return add_reader(self, fileobj, func, *args, **kwargs)
    eventcore.EventCore.add_reader = traced_add_reader
    return recorder
