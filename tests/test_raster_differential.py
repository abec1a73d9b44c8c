"""The clip skip in line and text drawing against per-box drawing.

``draw_string``, ``draw_line``, ``draw_lines`` and ``draw_arc_outline``
skip a glyph or a segment whose ink misses the window's damage clip.
The versions without the skip (tests/oracles/raster.py) clip every pen
box and glyph box on its own.  Random strings, polylines and arcs are
drawn through both, on two displays set up alike, under random paint
clips -- none, empty, partial, disjoint and off-window -- and the two
must leave byte-identical framebuffers, the same ``draw_calls`` and
``drawn_pixels``, the same ``on_screen`` marks and return the same
values.
"""

import random

import pytest

from repro.xlib import close_all_displays, graphics as gfx, open_display
from repro.xlib.fonts import load_font
from tests.oracles import raster

FONTS = [
    "fixed",
    "variable",
    "-b&h-lucida-bold-r-normal--14-140-75-75-p-84-iso8859-1",
    # 24 px: two pixels per glyph bit across, three down.
    "-adobe-helvetica-medium-r-normal--24-240-75-75-p-144-iso8859-1",
]

#: Narrow glyphs (ink wider than their advance), wide ones and blanks.
ALPHABET = "il.,:;'|!jI mwMW@ abcdefxyz0123456789ABCXYZ-_/\\{}"


@pytest.fixture(autouse=True)
def fresh_displays():
    close_all_displays()
    yield
    close_all_displays()


def make_windows(name):
    """A window that runs off the screen's bottom-right corner and a
    child inside it at an offset, so the absolute origin and the
    framebuffer edge both take part in clipping."""
    display = open_display(name)
    outer = display.create_window(None, 880, 660, 200, 140)
    inner = display.create_window(outer, 17, 9, 150, 90)
    return display, [outer, inner]


def random_clip(rng, window):
    """A paint clip of one of the kinds a repaint, or a bug, can set."""
    w, h = window.width, window.height
    kind = rng.choice(["none", "empty", "partial", "disjoint",
                       "off-window"])
    if kind == "none":
        return None
    if kind == "empty":
        x, y = rng.randrange(w), rng.randrange(h)
        if rng.random() < 0.5:
            return (x, y, x, y + rng.randint(0, 20))
        return (x, y, x + rng.randint(0, 20), y)
    if kind == "partial":
        x0, y0 = rng.randrange(w), rng.randrange(h)
        return (x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h))
    if kind == "disjoint":
        x0, y0 = rng.randrange(w), rng.randrange(h)
        return (x0, y0, x0 + rng.randint(1, 6), y0 + rng.randint(1, 6))
    x0 = rng.randint(-60, w + 20)
    y0 = rng.randint(-60, h + 20)
    return (x0, y0, x0 + rng.randint(1, 80), y0 + rng.randint(1, 80))


def random_point(rng, window):
    return (rng.randint(-25, window.width + 25),
            rng.randint(-25, window.height + 25))


def random_operation(rng, window):
    """(function name, args after drawable and gc, pen, font)."""
    pen = rng.randint(1, 3)
    font = rng.choice(FONTS)
    roll = rng.random()
    if roll < 0.45:
        text = "".join(rng.choice(ALPHABET)
                       for __ in range(rng.randint(0, 24)))
        return "draw_string", random_point(rng, window) + (text,), pen, font
    if roll < 0.65:
        return ("draw_line", random_point(rng, window)
                + random_point(rng, window), pen, font)
    if roll < 0.85:
        points = [random_point(rng, window)
                  for __ in range(rng.randint(0, 8))]
        return "draw_lines", (points,), pen, font
    x, y = random_point(rng, window)
    return ("draw_arc_outline",
            (x, y, rng.randint(0, 90), rng.randint(0, 70)), pen, font)


@pytest.mark.parametrize("seed", range(6))
def test_clip_skip_matches_per_box_drawing(seed):
    rng = random.Random(seed)
    skip_display, skip_windows = make_windows(":skip")
    box_display, box_windows = make_windows(":per-box")
    for step in range(150):
        index = rng.randrange(2)
        clip = random_clip(rng, skip_windows[index])
        name, args, pen, font = random_operation(rng, skip_windows[index])
        foreground = rng.randrange(1 << 24)
        results = []
        for module, window in ((gfx, skip_windows[index]),
                               (raster, box_windows[index])):
            gc = gfx.GC(foreground=foreground, font=load_font(font),
                        line_width=pen)
            window.paint_clip = clip
            try:
                results.append(getattr(module, name)(window, gc, *args))
            finally:
                window.paint_clip = None
        context = (seed, step, name, args, pen, font, clip)
        assert results[0] == results[1], context
        assert skip_display.render_stats == box_display.render_stats, \
            context
        assert [w.on_screen for w in skip_windows] == \
            [w.on_screen for w in box_windows], context
        assert (skip_display.screen.framebuffer
                == box_display.screen.framebuffer).all(), context
    assert skip_display.render_stats["draw_calls"] > 0


def test_ink_outside_the_clip_makes_no_pen_boxes(monkeypatch):
    """Skipped glyphs and segments never reach ``fill_rectangle``,
    and a skipped string still returns its full advance."""
    display, (outer, __) = make_windows(":skip-count")
    boxes = []
    fill_rectangle = gfx.fill_rectangle
    monkeypatch.setattr(gfx, "fill_rectangle",
                        lambda *args: boxes.append(args[2:])
                        or fill_rectangle(*args))
    gc = gfx.GC(font=load_font("variable"), line_width=2)
    text = "wide and narrow il.,"
    outer.paint_clip = (0, 0, 1, 1)
    try:
        width = gfx.draw_string(outer, gc, 40, 30, text)
        gfx.draw_lines(outer, gc, [(10, 10), (90, 40), (30, 100)])
        gfx.draw_arc_outline(outer, gc, 50, 50, 40, 30)
    finally:
        outer.paint_clip = None
    assert width == gc.font.text_width(text)
    assert boxes == []
    assert display.render_stats["draw_calls"] == 0
