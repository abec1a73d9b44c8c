"""Per-box line and text drawing: the specification for the clip skip.

The production ``draw_string``, ``draw_line``, ``draw_lines`` and
``draw_arc_outline`` in :mod:`repro.xlib.graphics` skip a glyph or a
line segment whose ink misses the window's damage clip before any pen
box is made.  These are the versions without the skip: every pen box
and glyph box goes through ``fill_rectangle`` and is clipped on its
own.  Both must leave the same framebuffer, the same ``draw_calls``
and ``drawn_pixels`` and return the same values for any clip.
"""

import math

from repro.xlib.graphics import fill_rectangle


def draw_line(drawable, gc, x1, y1, x2, y2):
    """Bresenham; thickness via square pen."""
    dx = abs(x2 - x1)
    dy = abs(y2 - y1)
    sx = 1 if x1 < x2 else -1
    sy = 1 if y1 < y2 else -1
    err = dx - dy
    x, y = x1, y1
    pen = gc.line_width
    while True:
        fill_rectangle(drawable, gc, x, y, pen, pen)
        if x == x2 and y == y2:
            break
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy


def draw_lines(drawable, gc, points):
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        draw_line(drawable, gc, x1, y1, x2, y2)


def draw_arc_outline(drawable, gc, x, y, width, height):
    """A rough ellipse outline inscribed in the rect."""
    cx = x + width / 2.0
    cy = y + height / 2.0
    rx = max(1.0, width / 2.0)
    ry = max(1.0, height / 2.0)
    steps = max(12, int(2 * math.pi * max(rx, ry) / 2))
    last = None
    for i in range(steps + 1):
        angle = 2 * math.pi * i / steps
        px = int(round(cx + rx * math.cos(angle)))
        py = int(round(cy + ry * math.sin(angle)))
        if last is not None:
            draw_line(drawable, gc, last[0], last[1], px, py)
        last = (px, py)


def draw_string(drawable, gc, x, y, text):
    """Draw text with the GC font; (x, y) is the baseline origin."""
    font = gc.font
    cursor = x
    top = y - font.ascent
    scale_x = max(1, font.size // 10)
    scale_y = max(1, font.height // 8)
    for ch in text:
        width = font.char_width(ch)
        rows = font.glyph_bits(ch)
        for row, bits in enumerate(rows):
            for col in range(5):
                if bits & (1 << col):
                    fill_rectangle(drawable, gc,
                                   cursor + col * scale_x,
                                   top + row * scale_y,
                                   scale_x, scale_y)
        cursor += width
    return cursor - x
