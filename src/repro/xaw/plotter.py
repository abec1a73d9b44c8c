"""The Plotter extension widgets: bar graphs and line graphs.

The paper: "The current Wafe distribution contains support for the
Plotter widget set (which supports bar graphs and line graphs)".  These
widgets demonstrate the claim that any Xt-based widget extends Wafe --
they plug into the same class registry, resource machinery and code
generator as the stock Athena set, and Figure 2's XmGraph-style display
is reproduced by the plotter benchmark.
"""

from repro.tcl.lists import string_to_list
from repro.xlib import graphics as gfx
from repro.xt import resources as R
from repro.xt.resources import res
from repro.xaw.simple import ThreeD


class _Graph(ThreeD):
    RESOURCES = [
        res("foreground", R.R_PIXEL, "XtDefaultForeground"),
        res("font", R.R_FONT, "XtDefaultFont"),
        res("data", R.R_LIST, None),
        res("minValue", R.R_FLOAT, 0.0),
        res("maxValue", R.R_FLOAT, 0.0),
        res("graphColor", R.R_PIXEL, "steelblue"),
        res("axisColor", R.R_PIXEL, "XtDefaultForeground"),
        res("title", R.R_STRING, None),
        res("margin", R.R_DIMENSION, 12),
    ]

    def initialize(self):
        if isinstance(self.resources.get("data"), str):
            self.resources["data"] = string_to_list(self.resources["data"])
        if self.resources.get("data") is None:
            self.resources["data"] = []

    def values(self):
        out = []
        for item in self.resources["data"]:
            try:
                out.append(float(item))
            except (TypeError, ValueError):
                out.append(0.0)
        return out

    def set_data(self, items):
        old_values = self.values()
        self.resources["data"] = [str(i) for i in items]
        if not self.realized or self.window is None:
            return
        rects = self._append_rects(old_values, self.values())
        if rects is not None:
            self.update_rects(rects)
            return
        self.redraw()

    def _append_rects(self, old_values, new_values):
        """Damage rects when the new data strictly appends to the old
        at an unchanged scale; None means a full redraw is required."""
        return None

    def value_range(self, values=None):
        if values is None:
            values = self.values()
        low = self.resources["minValue"]
        high = self.resources["maxValue"]
        if high <= low:
            low = min(values, default=0.0)
            high = max(values, default=1.0)
            if high == low:
                high = low + 1.0
        return low, high

    def preferred_size(self):
        if self.resources["width"] > 0 and self.resources["height"] > 0:
            return (self.resources["width"], self.resources["height"])
        return (max(self.resources["width"], 200),
                max(self.resources["height"], 120))

    def plot_area(self):
        margin = self.resources["margin"]
        return (margin, margin,
                max(1, self.window.width - 2 * margin),
                max(1, self.window.height - 2 * margin))

    def draw_frame(self):
        gc = gfx.GC(foreground=self.resources["axisColor"])
        x, y, width, height = self.plot_area()
        gfx.draw_line(self.window, gc, x, y + height, x + width, y + height)
        gfx.draw_line(self.window, gc, x, y, x, y + height)
        title = self.resources.get("title")
        if title:
            font = self.resources["font"]
            text_gc = gfx.GC(foreground=self.resources["axisColor"],
                             font=font)
            gfx.draw_string(self.window, text_gc, x, font.ascent + 1, title)


class BarGraph(_Graph):
    CLASS_NAME = "BarGraph"
    RESOURCES = [
        res("barSpacing", R.R_DIMENSION, 2),
    ]

    def expose(self, event):
        window = self.window
        if window is None:
            return
        gfx.clear_area(window, pixel=self.resources["background"])
        self.draw_frame()
        values = self.values()
        if not values:
            return
        x0, y0, width, height = self.plot_area()
        low, high = self.value_range()
        spacing = self.resources["barSpacing"]
        bar_width = max(1, (width - spacing * len(values)) // len(values))
        gc = gfx.GC(foreground=self.resources["graphColor"])
        x = x0 + spacing
        for value in values:
            fraction = (value - low) / (high - low)
            fraction = max(0.0, min(1.0, fraction))
            bar_height = int(height * fraction)
            gfx.fill_rectangle(window, gc, x, y0 + height - bar_height,
                               bar_width, bar_height)
            x += bar_width + spacing

    def bar_heights(self):
        """Painted bar heights in pixels (for tests/benchmarks)."""
        if self.window is None:
            return []
        __, __, __, height = self.plot_area()
        low, high = self.value_range()
        return [int(height * max(0.0, min(1.0, (v - low) / (high - low))))
                for v in self.values()]


class LineGraph(_Graph):
    CLASS_NAME = "LineGraph"
    RESOURCES = [
        res("lineWidth", R.R_DIMENSION, 1),
        # 0 spreads the points over the plot width (every append moves
        # every point); a positive value pins point i at x0 + i*spacing,
        # the scrolling-plot layout where an append only adds one
        # segment -- and therefore only damages that segment.
        res("pointSpacing", R.R_DIMENSION, 0),
    ]

    def _points(self, values):
        x0, y0, width, height = self.plot_area()
        low, high = self.value_range(values)
        spacing = self.resources["pointSpacing"]
        step = spacing if spacing > 0 else width / max(1, len(values) - 1)
        points = []
        for i, value in enumerate(values):
            fraction = max(0.0, min(1.0, (value - low) / (high - low)))
            points.append((int(x0 + i * step),
                           int(y0 + height - height * fraction)))
        return points

    def expose(self, event):
        window = self.window
        if window is None:
            return
        gfx.clear_area(window, pixel=self.resources["background"])
        self.draw_frame()
        values = self.values()
        if len(values) < 2:
            return
        gc = gfx.GC(foreground=self.resources["graphColor"])
        gc.line_width = self.resources["lineWidth"]
        gfx.draw_lines(window, gc, self._points(values))

    def _append_rects(self, old_values, new_values):
        if self.resources["pointSpacing"] <= 0:
            return None
        n_old = len(old_values)
        if n_old < 2 or n_old >= len(new_values):
            return None
        if new_values[:n_old] != old_values:
            return None
        if self.value_range(old_values) != self.value_range(new_values):
            return None  # the scale moved: every segment moves
        pen = max(1, self.resources["lineWidth"])
        points = self._points(new_values)
        rects = []
        for i in range(n_old - 1, len(points) - 1):
            (ax, ay), (bx, by) = points[i], points[i + 1]
            rects.append((min(ax, bx), min(ay, by),
                          max(ax, bx) + pen, max(ay, by) + pen))
        return rects
