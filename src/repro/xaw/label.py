"""The Athena Label widget.

The widget of the paper's ``getResourceList`` example (42 resources)
and of the xev translation example.  Draws its ``label`` text with the
``font``, honouring ``justify`` and the internal margins; an optional
``bitmap`` (XBM or XPM via the extended converter) is drawn instead of
or before the text.
"""

from repro.xlib import graphics as gfx
from repro.xt import resources as R
from repro.xt.resources import res
from repro.xaw.simple import ThreeD


class Label(ThreeD):
    CLASS_NAME = "Label"
    RESOURCES = [
        res("foreground", R.R_PIXEL, "XtDefaultForeground"),
        res("font", R.R_FONT, "XtDefaultFont"),
        res("label", R.R_STRING, None),
        res("encoding", R.R_INT, 0),
        res("justify", R.R_JUSTIFY, "center"),
        res("internalWidth", R.R_DIMENSION, 4),
        res("internalHeight", R.R_DIMENSION, 2),
        res("leftBitmap", R.R_BITMAP, None),
        res("bitmap", R.R_BITMAP, None),
        res("resize", R.R_BOOLEAN, True),
    ]

    def initialize(self):
        if self.resources.get("label") is None:
            self.resources["label"] = self.name

    def label_text(self):
        return self.resources.get("label") or ""

    def preferred_size(self):
        width = self.resources["width"]
        height = self.resources["height"]
        if width > 0 and height > 0:
            return (width, height)
        font = self.resources["font"]
        pad_x = 2 * self.resources["internalWidth"]
        pad_y = 2 * self.resources["internalHeight"]
        shadow = 2 * self.resources["shadowWidth"]
        lines = self.label_text().split("\n") or [""]
        text_width = max((font.text_width(line) for line in lines),
                         default=0)
        text_height = font.height * max(1, len(lines))
        bitmap = self.resources.get("bitmap")
        if bitmap is not None:
            bh, bw = bitmap.shape
            text_width = max(text_width, bw)
            text_height = max(text_height, bh)
        left = self.resources.get("leftBitmap")
        if left is not None:
            text_width += left.shape[1] + pad_x // 2
        want_w = width or text_width + pad_x + shadow
        want_h = height or text_height + pad_y + shadow
        return (max(1, want_w), max(1, want_h))

    def _text_rects(self, text):
        """Window-relative boxes covering where ``text`` paints -- the
        same layout arithmetic as :meth:`expose`."""
        window = self.window
        font = self.resources["font"]
        inner_x = self.resources["internalWidth"] + \
            self.resources["shadowWidth"]
        x = inner_x
        left = self.resources.get("leftBitmap")
        if left is not None:
            x += left.shape[1] + self.resources["internalWidth"] // 2 + 1
        lines = (text or "").split("\n")
        total_height = font.height * len(lines)
        top = (window.height - total_height) // 2
        rects = []
        for line in lines:
            line_width = font.text_width(line)
            justify = self.resources["justify"]
            if justify == "center":
                draw_x = max(x, (window.width - line_width) // 2)
            elif justify == "right":
                draw_x = max(x, window.width - inner_x - line_width)
            else:
                draw_x = x
            rects.append((draw_x, top, draw_x + line_width,
                          top + font.height))
            top += font.height
        return rects

    def set_values_hook(self, old, changed):
        if "label" not in changed:
            return False
        if self.resources["resize"] and self.realized:
            width, height = self.preferred_size()
            current_w = self.window.width if self.window else 0
            if width > current_w:
                self.resources["width"] = width
                if self.window is not None:
                    self.window.configure(width=width)
                if self.parent is not None:
                    self.parent.layout()
                return False  # geometry changed: full redraw
        # Text-only change on the damage path: repaint just the union of
        # the old and new text extents.  Only for plain Labels -- a
        # subclass with its own expose may place text differently.
        if (changed == ["label"] and self.realized
                and self.window is not None
                and type(self).expose is Label.expose
                and self.resources.get("bitmap") is None
                and old.get("label") != self.resources.get("label")):
            rects = self._text_rects(old.get("label"))
            rects += self._text_rects(self.label_text())
            self.update_rects(rects)
            return True
        return False

    def expose(self, event):
        window = self.window
        if window is None:
            return
        gfx.clear_area(window, pixel=self.resources["background"])
        font = self.resources["font"]
        gc = gfx.GC(foreground=self.resources["foreground"],
                    background=self.resources["background"], font=font)
        inner_x = self.resources["internalWidth"] + \
            self.resources["shadowWidth"]
        x = inner_x
        left = self.resources.get("leftBitmap")
        if left is not None:
            gfx.put_image(window, gc, left, x,
                          (window.height - left.shape[0]) // 2)
            x += left.shape[1] + self.resources["internalWidth"] // 2 + 1
        bitmap = self.resources.get("bitmap")
        if bitmap is not None:
            gfx.put_image(window, gc, bitmap, x,
                          (window.height - bitmap.shape[0]) // 2)
            return
        lines = self.label_text().split("\n")
        total_height = font.height * len(lines)
        y = (window.height - total_height) // 2 + font.ascent
        for line in lines:
            line_width = font.text_width(line)
            justify = self.resources["justify"]
            if justify == "center":
                draw_x = max(x, (window.width - line_width) // 2)
            elif justify == "right":
                draw_x = max(x, window.width - inner_x - line_width)
            else:
                draw_x = x
            gfx.draw_string(window, gc, draw_x, y, line)
            y += font.height
