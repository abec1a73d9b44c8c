"""GCs, pixmaps, and drawing into the framebuffer.

A drawable is either a :class:`~repro.xlib.display.Window` (drawing
lands in the screen framebuffer, clipped to the window) or a
:class:`Pixmap` (its own array).  The primitives are the ones the
Athena widgets need: rectangles, lines, points, text, area copy/clear,
and a rough arc.  Text uses the deterministic glyphs from
:mod:`repro.xlib.fonts`, so a painted Label provably contains its text.
"""

import numpy

from repro.xlib.display import Window
from repro.xlib.fonts import default_font


class Pixmap:
    """An off-screen drawable.  depth=1 models an X bitmap."""

    def __init__(self, width, height, depth=24):
        self.width = width
        self.height = height
        self.depth = depth
        self.framebuffer = numpy.zeros((height, width), dtype=numpy.uint32)


class GC:
    """Graphics context: foreground/background pixels and the font."""

    __slots__ = ("foreground", "background", "font", "line_width")

    def __init__(self, foreground=0x000000, background=0xFFFFFF, font=None,
                 line_width=1):
        self.foreground = foreground
        self.background = background
        self.font = font if font is not None else default_font()
        self.line_width = max(1, line_width)


def _target(drawable):
    """Resolve a drawable to
    (array, origin_x, origin_y, clip_w, clip_h, window_or_None)."""
    if isinstance(drawable, Pixmap):
        return (drawable.framebuffer, 0, 0, drawable.width, drawable.height,
                None)
    if isinstance(drawable, Window):
        ox, oy = drawable.absolute_origin()
        return (drawable.display.screen.framebuffer, ox, oy,
                drawable.width, drawable.height, drawable)
    raise TypeError("not a drawable: %r" % (drawable,))


def _clip_rect(fb, ox, oy, cw, ch, x, y, w, h, clip=None):
    """Intersect a drawable-relative rect with the clip and framebuffer.

    ``clip`` is an optional extra drawable-relative box (x0, y0, x1, y1)
    -- the damage rect a widget is currently repainting."""
    x0 = max(0, x)
    y0 = max(0, y)
    x1 = min(cw, x + w)
    y1 = min(ch, y + h)
    if clip is not None:
        x0 = max(x0, clip[0])
        y0 = max(y0, clip[1])
        x1 = min(x1, clip[2])
        y1 = min(y1, clip[3])
    ax0, ay0 = ox + x0, oy + y0
    ax1, ay1 = ox + x1, oy + y1
    fh, fw = fb.shape
    ax0, ay0 = max(0, ax0), max(0, ay0)
    ax1, ay1 = min(fw, ax1), min(fh, ay1)
    if ax0 >= ax1 or ay0 >= ay1:
        return None
    return ax0, ay0, ax1, ay1


def _paint_box(target, x, y, w, h):
    """Clip a paint rect against the window's active damage clip and
    record the pixels actually written.  ``target`` is a resolved
    ``_target()`` tuple."""
    fb, ox, oy, cw, ch, window = target
    box = _clip_rect(fb, ox, oy, cw, ch, x, y, w, h,
                     None if window is None else window.paint_clip)
    if box is not None and window is not None:
        window.display.record_draw(box)
        window.on_screen = True
    return fb, box


def fill_rectangle(drawable, gc, x, y, width, height):
    fb, box = _paint_box(_target(drawable), x, y, width, height)
    if box is not None:
        ax0, ay0, ax1, ay1 = box
        fb[ay0:ay1, ax0:ax1] = gc.foreground


def clear_area(drawable, x=0, y=0, width=None, height=None, pixel=None):
    target = _target(drawable)
    if width is None:
        width = target[3]
    if height is None:
        height = target[4]
    if pixel is None:
        pixel = getattr(drawable, "background_pixel", 0xFFFFFF)
    fb, box = _paint_box(target, x, y, width, height)
    if box is not None:
        ax0, ay0, ax1, ay1 = box
        fb[ay0:ay1, ax0:ax1] = pixel


def draw_rectangle(drawable, gc, x, y, width, height):
    thickness = gc.line_width
    fill_rectangle(drawable, gc, x, y, width, thickness)
    fill_rectangle(drawable, gc, x, y + height - thickness, width, thickness)
    fill_rectangle(drawable, gc, x, y, thickness, height)
    fill_rectangle(drawable, gc, x + width - thickness, y, thickness, height)


def draw_point(drawable, gc, x, y):
    fill_rectangle(drawable, gc, x, y, 1, 1)


def _misses(clip, x0, y0, x1, y1):
    """True when the drawable-relative box [x0, x1) x [y0, y1) lies
    wholly outside ``clip``, the damage rect a window is being
    repainted through: every pen box inside it would clip to nothing."""
    return clip is not None and (x1 <= clip[0] or x0 >= clip[2]
                                 or y1 <= clip[1] or y0 >= clip[3])


def draw_line(drawable, gc, x1, y1, x2, y2):
    """Bresenham; thickness via square pen.  A segment whose pen
    bounding box misses the damage clip is skipped whole."""
    pen = gc.line_width
    if _misses(getattr(drawable, "paint_clip", None), min(x1, x2),
               min(y1, y2), max(x1, x2) + pen, max(y1, y2) + pen):
        return
    dx = abs(x2 - x1)
    dy = abs(y2 - y1)
    sx = 1 if x1 < x2 else -1
    sy = 1 if y1 < y2 else -1
    err = dx - dy
    x, y = x1, y1
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
    """A rough ellipse outline inscribed in the rect (enough for Grips)."""
    import math

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
    """Draw text with the GC font; (x, y) is the baseline origin.  A
    glyph whose 5x7 cell misses the damage clip is skipped; the
    returned advance is always the whole string's."""
    font = gc.font
    cursor = x
    top = y - font.ascent
    scale_x, scale_y = font.glyph_scale
    clip = getattr(drawable, "paint_clip", None)
    for ch in text:
        width = font.char_width(ch)
        if not _misses(clip, cursor, top, cursor + 5 * scale_x,
                       top + 7 * scale_y):
            for row, bits in enumerate(font.glyph_bits(ch)):
                for col in range(5):
                    if bits & (1 << col):
                        fill_rectangle(drawable, gc,
                                       cursor + col * scale_x,
                                       top + row * scale_y,
                                       scale_x, scale_y)
        cursor += width
    return cursor - x


def draw_image_string(drawable, gc, x, y, text):
    """Like draw_string but paints the background box first."""
    font = gc.font
    width = font.text_width(text)
    background = GC(gc.background, gc.background, gc.font)
    fill_rectangle(drawable, background, x, y - font.ascent, width,
                   font.height)
    return draw_string(drawable, gc, x, y, text)


def copy_area(src, dest, gc, src_x, src_y, width, height, dest_x, dest_y):
    sfb, sox, soy, scw, sch, _swin = _target(src)
    # The source is read, not painted: no paint clip, no draw record.
    src_box = _clip_rect(sfb, sox, soy, scw, sch, src_x, src_y, width, height)
    if src_box is None:
        return
    ax0, ay0, ax1, ay1 = src_box
    tile = sfb[ay0:ay1, ax0:ax1].copy()
    dtarget = _target(dest)
    dox, doy = dtarget[1], dtarget[2]
    dfb, dst_box = _paint_box(dtarget, dest_x, dest_y, ax1 - ax0, ay1 - ay0)
    if dst_box is None:
        return
    bx0, by0, bx1, by1 = dst_box
    tx0 = bx0 - (dox + dest_x)
    ty0 = by0 - (doy + dest_y)
    dfb[by0:by1, bx0:bx1] = tile[ty0 : ty0 + (by1 - by0),
                                 tx0 : tx0 + (bx1 - bx0)]


def put_image(drawable, gc, image, x, y):
    """Blit a (h, w) array of pixels (a decoded XPM) onto a drawable.

    XPM ``None`` cells (the TRANSPARENT sentinel) act as a shape mask:
    the destination shows through, as with a clip-mask in real X.
    """
    from repro.xlib.xpm import TRANSPARENT

    height, width = image.shape
    target = _target(drawable)
    ox, oy = target[1], target[2]
    fb, box = _paint_box(target, x, y, width, height)
    if box is None:
        return
    ax0, ay0, ax1, ay1 = box
    sx0 = ax0 - (ox + x)
    sy0 = ay0 - (oy + y)
    tile = image[sy0 : sy0 + (ay1 - ay0), sx0 : sx0 + (ax1 - ax0)]
    opaque = tile != TRANSPARENT
    region = fb[ay0:ay1, ax0:ax1]
    region[opaque] = tile[opaque]


def window_pixels(window):
    """Snapshot a window's rectangle of the framebuffer (for tests).

    Always the full window: the paint clip applies to painting, not to
    reading back."""
    fb, ox, oy, cw, ch, _win = _target(window)
    fh, fw = fb.shape
    x0, y0 = max(0, ox), max(0, oy)
    x1, y1 = min(fw, ox + cw), min(fh, oy + ch)
    return fb[y0:y1, x0:x1].copy()
