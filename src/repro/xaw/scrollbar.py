"""Scrollbar and StripChart.

Scrollbar provides the Athena thumb with jumpProc/scrollProc callbacks;
StripChart polls a ``getValue`` callback on a timer, the widget behind
the paper's xnetstats/xvmstats-style monitor demos.
"""

from repro.xlib import graphics as gfx
from repro.xt import resources as R
from repro.xt.resources import res
from repro.xaw.simple import ThreeD


def _action_start_scroll(widget, event, args):
    widget._drag_origin = (event.x, event.y)


def _action_notify_scroll(widget, event, args):
    length = widget.length()
    position = event.y if widget.vertical() else event.x
    widget.call_callbacks("scrollProc", position - length // 2)


def _action_move_thumb(widget, event, args):
    length = max(1, widget.length())
    position = event.y if widget.vertical() else event.x
    widget.set_thumb(top=min(1.0, max(0.0, position / length)))
    widget.call_callbacks("jumpProc", widget.resources["topOfThumb"])


class Scrollbar(ThreeD):
    CLASS_NAME = "Scrollbar"
    RESOURCES = [
        res("foreground", R.R_PIXEL, "XtDefaultForeground"),
        res("orientation", R.R_ORIENTATION, "vertical"),
        res("length", R.R_DIMENSION, 100),
        res("thickness", R.R_DIMENSION, 14),
        res("topOfThumb", R.R_FLOAT, 0.0),
        res("shown", R.R_FLOAT, 0.3),
        res("minimumThumb", R.R_DIMENSION, 7),
        res("scrollProc", R.R_CALLBACK),
        res("jumpProc", R.R_CALLBACK),
    ]
    ACTIONS = {
        "StartScroll": _action_start_scroll,
        "NotifyScroll": _action_notify_scroll,
        "MoveThumb": _action_move_thumb,
        "NotifyThumb": _action_move_thumb,
        "EndScroll": lambda w, e, a: None,
    }
    DEFAULT_TRANSLATIONS = (
        "<Btn1Down>: StartScroll()\n"
        "<Btn1Up>: NotifyScroll() EndScroll()\n"
        "<Btn2Down>: MoveThumb()\n"
    )

    def initialize(self):
        self._drag_origin = None

    def vertical(self):
        return self.resources["orientation"] == "vertical"

    def length(self):
        if self.window is not None:
            return (self.window.height if self.vertical()
                    else self.window.width)
        return self.resources["length"]

    def _thumb_rect(self):
        """The thumb's window-relative half-open box."""
        window = self.window
        length = self.length()
        top = int(self.resources["topOfThumb"] * length)
        size = max(self.resources["minimumThumb"],
                   int(self.resources["shown"] * length))
        if self.vertical():
            return (1, top, max(1, window.width - 1), top + size)
        return (top, 1, top + size, max(1, window.height - 1))

    def set_thumb(self, top=None, shown=None):
        """XawScrollbarSetThumb.

        A realized thumb move repaints only the symmetric difference of
        the old and new thumb rectangles -- the overlap already shows
        the right pixels -- so a 1-pixel drag step damages two thin
        strips instead of the whole gutter."""
        old_rect = (self._thumb_rect()
                    if self.realized and self.window is not None else None)
        if top is not None:
            self.resources["topOfThumb"] = max(0.0, min(1.0, float(top)))
        if shown is not None:
            self.resources["shown"] = max(0.0, min(1.0, float(shown)))
        if not self.realized or self.window is None:
            return
        display = self.window.display
        if old_rect is None:
            self.redraw()
            return
        new_rect = self._thumb_rect()
        if new_rect == old_rect:
            return
        stale = display.new_region()
        stale.add_rect(*old_rect)
        stale.subtract_rect(*new_rect)
        grown = display.new_region()
        grown.add_rect(*new_rect)
        grown.subtract_rect(*old_rect)
        self.update_rects(stale.rects() + grown.rects())

    def preferred_size(self):
        thickness = self.resources["thickness"]
        length = self.resources["length"]
        if self.resources["width"] > 0 and self.resources["height"] > 0:
            return (self.resources["width"], self.resources["height"])
        if self.vertical():
            return (thickness, length)
        return (length, thickness)

    def expose(self, event):
        window = self.window
        if window is None:
            return
        gfx.clear_area(window, pixel=self.resources["background"])
        gc = gfx.GC(foreground=self.resources["foreground"])
        length = self.length()
        top = int(self.resources["topOfThumb"] * length)
        size = max(self.resources["minimumThumb"],
                   int(self.resources["shown"] * length))
        if self.vertical():
            gfx.fill_rectangle(window, gc, 1, top, window.width - 2, size)
        else:
            gfx.fill_rectangle(window, gc, top, 1, size, window.height - 2)
        self.draw_shadow()


class StripChart(ThreeD):
    """Plots values sampled from the getValue callback on a timer."""

    CLASS_NAME = "StripChart"
    RESOURCES = [
        res("foreground", R.R_PIXEL, "XtDefaultForeground"),
        res("highlight", R.R_PIXEL, "XtDefaultForeground"),
        res("getValue", R.R_CALLBACK),
        res("update", R.R_INT, 10),
        res("minScale", R.R_INT, 1),
        res("jumpScroll", R.R_INT, 1),
    ]

    def initialize(self):
        self.samples = []
        self._timer = None

    def realize_hook(self):
        interval = self.resources["update"]
        if interval > 0 and len(self.resources["getValue"] or []) > 0:
            self._schedule()

    def _schedule(self):
        interval_ms = max(1, self.resources["update"]) * 100
        self._timer = self.app.add_timeout(interval_ms, self._tick)

    def _tick(self):
        if self.destroyed:
            return
        self.sample()
        self._schedule()

    def _scale(self):
        return max(self.resources["minScale"],
                   max(self.samples) if self.samples else 1, 1)

    def sample(self):
        """Ask getValue for one sample (call_data is a one-slot list).

        While the chart is filling left to right at a stable scale, the
        new sample only damages its own one-pixel column; a scale change
        or jump scroll still redraws everything."""
        holder = [0.0]
        self.call_callbacks("getValue", holder)
        try:
            value = float(holder[0])
        except (TypeError, ValueError):
            value = 0.0
        old_scale = self._scale()
        old_count = len(self.samples)
        self.samples.append(value)
        limit = self.window.width if self.window is not None else 100
        trimmed = len(self.samples) > max(10, limit)
        if trimmed:
            self.samples = self.samples[-limit:]
        if self.realized and self.window is not None:
            if (not trimmed and self._scale() == old_scale
                    and old_count < self.window.width):
                self.update_rects([(old_count, 0, old_count + 1,
                                    self.window.height)])
            else:
                self.redraw()
        return value

    def expose(self, event):
        window = self.window
        if window is None:
            return
        gfx.clear_area(window, pixel=self.resources["background"])
        if not self.samples:
            return
        gc = gfx.GC(foreground=self.resources["foreground"])
        scale = max(self.resources["minScale"],
                    max(self.samples) if self.samples else 1, 1)
        height = window.height
        for x, value in enumerate(self.samples[-window.width:]):
            bar = int(height * min(value, scale) / scale)
            gfx.fill_rectangle(window, gc, x, height - bar, 1, bar)
        self.draw_shadow()
