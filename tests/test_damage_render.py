"""Tests for damage-region rendering, expose coalescing, clipped
redraw, and the widget partial-repaint fast paths.

The differential corpus at the bottom drives widget trees through
operation scripts on the band-region damage path and on the same path
with the rect-list region (tests/oracles/region.py) swapped in, and
asserts that at every checkpoint the screen is byte-identical to a full
repaint (tests/oracles/render.py).
"""

import pytest

from repro.core import make_wafe
from repro.xlib import close_all_displays, open_display, xtypes
from repro.xlib.graphics import window_pixels
from repro.xt import ApplicationShell, XtAppContext
from repro.xaw import BarGraph, Label, LineGraph, Scrollbar
from tests.oracles.region import use_naive_regions
from tests.oracles.render import full_repaint


@pytest.fixture
def display():
    close_all_displays()
    return open_display(":0")


@pytest.fixture
def app():
    close_all_displays()
    return XtAppContext()


@pytest.fixture
def top(app):
    return ApplicationShell("topLevel", None, app=app)


def make_window(display, parent=None, x=0, y=0, w=100, h=50, mask=None):
    window = display.create_window(parent, x, y, w, h)
    window.select_input(xtypes.ExposureMask if mask is None else mask)
    window.map()
    return window


def drain_exposes(display):
    events = []
    while display.pending():
        event = display.next_event()
        if event.type == xtypes.Expose:
            events.append(event)
    return events


class TestDamageAccumulation:
    def test_damage_coalesces_into_one_series(self, display):
        window = make_window(display)
        drain_exposes(display)
        display.damage_rect(window, 0, 0, 10, 10)
        display.damage_rect(window, 10, 0, 10, 10)  # adjacent: coalesces
        events = drain_exposes(display)
        assert len(events) == 1
        event = events[0]
        assert (event.x, event.y, event.width, event.height) == (0, 0, 20, 10)
        assert event.count == 0

    def test_disjoint_damage_emits_count_series(self, display):
        window = make_window(display)
        drain_exposes(display)
        display.damage_rect(window, 0, 0, 5, 5)
        display.damage_rect(window, 40, 30, 5, 5)
        events = drain_exposes(display)
        assert len(events) == 2
        # X count contract: all but the last carry count > 0.
        assert [e.count for e in events] == [1, 0]

    def test_overlapping_damage_never_double_exposes(self, display):
        window = make_window(display)
        drain_exposes(display)
        display.damage_rect(window, 0, 0, 20, 20)
        display.damage_rect(window, 10, 10, 20, 20)
        events = drain_exposes(display)
        exposed = sum(e.width * e.height for e in events)
        assert exposed == 400 + 400 - 100

    def test_damage_clipped_to_window(self, display):
        window = make_window(display, w=50, h=40)
        drain_exposes(display)
        display.damage_rect(window, -10, -10, 1000, 1000)
        events = drain_exposes(display)
        assert len(events) == 1
        event = events[0]
        assert (event.x, event.y, event.width, event.height) == (0, 0, 50, 40)

    def test_unviewable_window_accumulates_nothing(self, display):
        window = display.create_window(None, 0, 0, 50, 40)
        window.select_input(xtypes.ExposureMask)
        display.damage_rect(window, 0, 0, 10, 10)
        assert drain_exposes(display) == []

    def test_destroyed_window_damage_dropped(self, display):
        window = make_window(display)
        drain_exposes(display)
        display.damage_rect(window, 0, 0, 10, 10)
        window.destroy()
        assert drain_exposes(display) == []

    def test_damage_without_exposure_mask_is_silent(self, display):
        window = make_window(display, mask=0)
        display.damage_rect(window, 0, 0, 10, 10)
        assert drain_exposes(display) == []

    def test_renderstats_counters_track(self, display):
        window = make_window(display)
        drain_exposes(display)
        display.reset_render_stats()
        display.damage_rect(window, 0, 0, 10, 10)
        display.damage_rect(window, 50, 20, 10, 10)
        drain_exposes(display)
        stats = display.render_stats
        assert stats["damage_rects"] == 2
        assert stats["damage_pixels"] == 200
        assert stats["expose_series"] == 1
        assert stats["expose_events"] == 2
        assert stats["exposed_pixels"] == 200
        assert stats["damage_flushes"] == 1


class TestConfigureAndRaiseDamage:
    def test_move_damages_subtree(self, display):
        outer = make_window(display, w=100, h=100)
        inner = make_window(display, parent=outer, x=10, y=10, w=20, h=20)
        drain_exposes(display)
        outer.configure(x=30)
        events = drain_exposes(display)
        assert {e.window for e in events} == {outer, inner}

    def test_resize_damages_subtree(self, display):
        outer = make_window(display, w=100, h=100)
        inner = make_window(display, parent=outer, x=10, y=10, w=20, h=20)
        drain_exposes(display)
        outer.configure(width=150)
        events = drain_exposes(display)
        # The repainting parent overwrites the child's pixels, so the
        # child must repaint too.
        assert {e.window for e in events} == {outer, inner}

    def test_northwest_resize_leaves_unrevealed_children_alone(self,
                                                               display):
        outer = make_window(display, w=100, h=100)
        outer.bit_gravity = "northwest"
        make_window(display, parent=outer, x=10, y=10, w=20, h=20)
        drain_exposes(display)
        outer.configure(width=150)
        events = drain_exposes(display)
        # Only the revealed strip is damaged; the child is outside it.
        assert {e.window for e in events} == {outer}

    def test_northwest_gravity_resize_damages_only_new_strip(self, display):
        window = make_window(display, w=100, h=80)
        window.bit_gravity = "northwest"
        drain_exposes(display)
        window.configure(width=120)
        events = drain_exposes(display)
        assert len(events) == 1
        event = events[0]
        assert (event.x, event.y, event.width, event.height) == \
            (100, 0, 20, 80)

    def test_northwest_gravity_shrink_damages_nothing(self, display):
        window = make_window(display, w=100, h=80)
        window.bit_gravity = "northwest"
        drain_exposes(display)
        window.configure(width=60)
        assert drain_exposes(display) == []

    def test_raise_damages_only_previously_occluded_area(self, display):
        below = make_window(display, x=0, y=0, w=100, h=100)
        make_window(display, x=50, y=50, w=100, h=100)  # overlaps corner
        drain_exposes(display)
        below.raise_window()
        events = drain_exposes(display)
        assert len(events) == 1
        event = events[0]
        assert (event.x, event.y, event.width, event.height) == \
            (50, 50, 50, 50)

    def test_raise_of_topmost_window_damages_nothing(self, display):
        make_window(display, x=0, y=0, w=100, h=100)
        topmost = make_window(display, x=50, y=50, w=100, h=100)
        drain_exposes(display)
        topmost.raise_window()
        assert drain_exposes(display) == []

    def test_raise_damage_propagates_to_children(self, display):
        below = make_window(display, x=0, y=0, w=100, h=100)
        child = make_window(display, parent=below, x=60, y=60, w=30, h=30)
        make_window(display, x=50, y=50, w=100, h=100)
        drain_exposes(display)
        below.raise_window()
        events = drain_exposes(display)
        windows = {e.window for e in events}
        assert below in windows and child in windows


class TestWidgetClippedRedraw:
    def test_expose_series_batches_until_count_zero(self, app, top):
        label = Label("l", top, args={"label": "hello"})
        top.realize()
        app.process_pending()
        display = app.default_display
        clips = []
        original = label.expose

        def counting_expose(event):
            clips.append(label.window.paint_clip)
            original(event)

        label.expose = counting_expose
        display.damage_rect(label.window, 0, 0, 3, 3)
        display.damage_rect(label.window, 10, 8, 3, 3)
        app.process_pending()
        # Two damage rects, one batched series: the class expose ran
        # once per rect, each time with the paint clip installed.
        assert len(clips) == 2
        assert all(clip is not None for clip in clips)
        assert label.window.paint_clip is None  # reset afterwards

    def test_partial_expose_repaints_only_clip(self, app, top):
        label = Label("l", top, args={"label": "zz"})
        top.realize()
        app.process_pending()
        display = app.default_display
        before = window_pixels(label.window)
        # Trash the framebuffer, then damage only the left half.
        half = label.window.width // 2
        display.screen.framebuffer[:] = 0x123456
        display.damage_rect(label.window, 0, 0, half, label.window.height)
        app.process_pending()
        after = window_pixels(label.window)
        assert (after[:, :half] == before[:, :half]).all()
        assert (after[:, half:] == 0x123456).all()

    def test_scrollbar_thumb_move_damages_thin_strips(self, app, top):
        bar = Scrollbar("sb", top, args={"orientation": "vertical",
                                         "length": "400",
                                         "thickness": "20"})
        top.realize()
        app.process_pending()
        display = app.default_display
        display.reset_render_stats()
        bar.redraw()
        full_drawn = display.render_stats["drawn_pixels"]
        display.reset_render_stats()
        bar.set_thumb(top=0.1)
        moved = display.render_stats["drawn_pixels"]
        assert 0 < moved < full_drawn / 2

    def test_scrollbar_move_matches_full_redraw_pixels(self, app, top):
        bar = Scrollbar("sb", top, args={"orientation": "vertical",
                                         "length": "200",
                                         "thickness": "20"})
        top.realize()
        app.process_pending()
        bar.set_thumb(top=0.25)
        partial = window_pixels(bar.window)
        bar.redraw()
        assert (window_pixels(bar.window) == partial).all()

    def test_label_text_change_damages_text_extent_only(self, app, top):
        label = Label("l", top, args={"label": "W" * 10, "resize": "false",
                                      "width": "400", "height": "100"})
        top.realize()
        app.process_pending()
        display = app.default_display
        display.reset_render_stats()
        label.redraw()
        full_drawn = display.render_stats["drawn_pixels"]
        display.reset_render_stats()
        label.set_values({"label": "W" * 9})
        app.process_pending()
        drawn = display.render_stats["drawn_pixels"]
        assert 0 < drawn < full_drawn / 2
        assert label.label_text() == "W" * 9

    def test_label_partial_update_matches_full_redraw(self, app, top):
        label = Label("l", top, args={"label": "alpha", "resize": "false",
                                      "width": "300", "height": "80"})
        top.realize()
        app.process_pending()
        label.set_values({"label": "omega"})
        app.process_pending()
        partial = window_pixels(label.window)
        label.redraw()
        assert (window_pixels(label.window) == partial).all()

    def test_linegraph_append_with_point_spacing_is_partial(self, app, top):
        graph = LineGraph("g", top, args={
            "width": "400", "height": "150", "pointSpacing": "3",
            "minValue": "0", "maxValue": "100"})
        data = list(range(0, 80, 2))
        graph.set_data(data)
        top.realize()
        app.process_pending()
        display = app.default_display
        display.reset_render_stats()
        graph.redraw()
        full_drawn = display.render_stats["drawn_pixels"]
        display.reset_render_stats()
        graph.set_data(data + [41])
        drawn = display.render_stats["drawn_pixels"]
        assert 0 < drawn < full_drawn / 10

    def test_linegraph_append_matches_full_redraw(self, app, top):
        graph = LineGraph("g", top, args={
            "width": "300", "height": "120", "pointSpacing": "4",
            "minValue": "0", "maxValue": "50"})
        graph.set_data([10, 40, 20, 30])
        top.realize()
        app.process_pending()
        graph.set_data([10, 40, 20, 30, 5, 45])
        partial = window_pixels(graph.window)
        graph.redraw()
        assert (window_pixels(graph.window) == partial).all()

    def test_linegraph_autoscale_append_falls_back(self, app, top):
        # Without a pinned value range an append can move the scale, so
        # the fast path must refuse (pointSpacing alone is not enough).
        graph = LineGraph("g", top, args={
            "width": "300", "height": "120", "pointSpacing": "4"})
        graph.set_data([10, 40, 20, 30])
        top.realize()
        app.process_pending()
        graph.set_data([10, 40, 20, 30, 95])
        partial = window_pixels(graph.window)
        graph.redraw()
        assert (window_pixels(graph.window) == partial).all()

    def test_bargraph_append_falls_back_to_full_redraw(self, app, top):
        graph = BarGraph("g", top, args={"width": "200", "height": "100"})
        graph.set_data([1, 2, 3])
        top.realize()
        app.process_pending()
        # Bars re-space on append; the base hook refuses the fast path
        # and the widget still ends up painted correctly.
        graph.set_data([1, 2, 3, 4])
        partial = window_pixels(graph.window)
        graph.redraw()
        assert (window_pixels(graph.window) == partial).all()


class TestInfoRenderstats:
    def test_renderstats_reports_and_resets(self):
        close_all_displays()
        wafe = make_wafe()
        wafe.run_script(
            "label l topLevel label {hello world}\nrealize\nsync")
        out = wafe.run_script("info renderstats")
        pairs = dict(zip(out.split()[::2], out.split()[1::2]))
        assert int(pairs["drawnPixels"]) > 0
        assert int(pairs["exposeEvents"]) > 0
        wafe.run_script("info renderstats reset")
        out = wafe.run_script("info renderstats")
        pairs = dict(zip(out.split()[::2], out.split()[1::2]))
        assert pairs["drawnPixels"] == "0"

    def test_renderstats_fields(self):
        close_all_displays()
        wafe = make_wafe()
        out = wafe.run_script("info renderstats").split()
        assert out[::2] == [
            "damageRects", "damagePixels", "damageFlushes",
            "exposeSeries", "exposeEvents", "exposedPixels",
            "drawCalls", "drawnPixels"]


class TestUncoveredArea:
    """A painted window that moves, shrinks, unmaps or dies uncovers
    screen area, which must show what lies beneath it again."""

    def setup(self, app, top):
        from repro.xaw import Form

        form = Form("f", top, args={"width": "200", "height": "120"})
        a = Label("a", form, args={"label": "one"})
        b = Label("b", form, args={"label": "two", "fromVert": a})
        top.realize()
        app.process_pending()
        return b

    def assert_repainted(self, app):
        app.process_pending()
        framebuffer = app.default_display.screen.framebuffer
        assert (framebuffer == full_repaint(app)).all()

    def test_destroy_uncovers(self, app, top):
        b = self.setup(app, top)
        box = b.window.absolute_box()
        b.destroy()
        self.assert_repainted(app)
        x0, y0, x1, y1 = box
        assert (app.default_display.screen.framebuffer[y0:y1, x0:x1]
                == 0xFFFFFF).all()

    def test_unmanage_uncovers(self, app, top):
        b = self.setup(app, top)
        b.parent.unmanage_child(b)
        self.assert_repainted(app)

    def test_move_uncovers(self, app, top):
        b = self.setup(app, top)
        b.set_values({"vertDistance": "12"})
        self.assert_repainted(app)

    @pytest.mark.parametrize("change", ["destroy", "unmanage", "move"])
    def test_painted_before_any_flush_uncovers(self, app, top, change):
        # A realized widget paints at once on redraw(), before any
        # damage flush has seen its window.
        b = self.setup(app, top)
        form = b.parent
        extra = Label("c", form, args={"label": "three", "fromVert": b})
        extra.redraw()
        if change == "destroy":
            extra.destroy()
        elif change == "unmanage":
            form.unmanage_child(extra)
        else:
            extra.set_values({"vertDistance": "30"})
        self.assert_repainted(app)

    def test_window_never_painted_uncovers_nothing(self, app, top):
        self.setup(app, top)
        form = top.children[0]
        extra = Label("c", form, args={"label": "three"})
        display = app.default_display
        display.reset_render_stats()
        extra.destroy()
        app.process_pending()
        assert display.render_stats["draw_calls"] == 0
        assert display.render_stats["damage_rects"] == 0


# ----------------------------------------------------------------------
# The differential corpus: damage paths vs a full repaint, byte-identical.

CORPUS = [
    # (setup script, mutation scripts run in order with a sync after each)
    (
        "label l topLevel label {hello} width 120 height 40\n"
        "command c topLevel x 10 y 50 label {press}\n"
        "realize",
        [
            "setValues l label {changed text}",
            "setValues l label {s}",
            "setValues c x 40",
            "setValues l width 200",
        ],
    ),
    (
        "scrollbar sb topLevel orientation vertical length 150\n"
        "realize",
        [
            "scrollbarSetThumb sb 0.2 0.3",
            "scrollbarSetThumb sb 0.21 0.3",
            "scrollbarSetThumb sb 0.8 0.1",
            "scrollbarSetThumb sb 0.0 1.0",
        ],
    ),
    (
        "lineGraph g topLevel width 300 height 100 pointSpacing 5 "
        "minValue 0 maxValue 10\n"
        "realize\n"
        "plotterSetData g {1 5 2 8}",
        [
            "plotterSetData g {1 5 2 8 9}",
            "plotterSetData g {1 5 2 8 9 0 3}",
            "plotterSetData g {7 7 7}",
        ],
    ),
    (
        "form f topLevel width 200 height 120\n"
        "label a f label {one}\n"
        "label b f label {two} fromVert a\n"
        "realize",
        [
            "setValues a label {uno}",
            "setValues b vertDistance 12",
            "setValues f width 260",
            "setValues a label {einszweidrei}",
        ],
    ),
    (
        "form f topLevel width 200 height 120\n"
        "label a f label {one}\n"
        "label b f label {two} fromVert a\n"
        "label c f label {three} fromVert b\n"
        "realize",
        [
            "unmanageChild b",
            "manageChild b",
            "destroyWidget b",
            "setValues c label {drei}",
        ],
    ),
    (
        "label l topLevel label {hello} width 120 height 40\n"
        "command c topLevel x 10 y 50 label {press}\n"
        "realize",
        [
            "destroyWidget c",
            "setValues l width 60",
        ],
    ),
    (
        # Widgets that paint between two flushes (setValues repaints a
        # realized widget at once) and then go away in the same line.
        "form f topLevel width 200 height 120\n"
        "label a f label {one}\n"
        "realize",
        [
            "label c f label {x} fromVert a; setValues c label {y}; "
            "destroyWidget c",
            "label d f label {x} fromVert a; setValues d label {yy}; "
            "unmanageChild d",
            "label e f label {x} fromVert a; setValues e label {y}; "
            "setValues e vertDistance 30",
        ],
    ),
    (
        # A form paints nothing itself; moving, unmapping or destroying
        # it must still uncover what its labels painted.
        "form f topLevel width 220 height 160\n"
        "label a f label {one}\n"
        "form g f fromVert a\n"
        "label b g label {two}\n"
        "label c g label {three} fromVert b\n"
        "realize",
        [
            "setValues g horizDistance 40",
            "setValues g vertDistance 30",
            "unmanageChild g",
            "manageChild g",
            "destroyWidget g",
        ],
    ),
]


class TestDifferentialCorpus:
    @pytest.mark.parametrize("regions", ["band", "naive"])
    @pytest.mark.parametrize("case", range(len(CORPUS)))
    def test_damage_path_byte_identical_to_full_repaint(self, case,
                                                        regions):
        setup, mutations = CORPUS[case]
        close_all_displays()
        wafe = make_wafe(display_name=":diff-%s" % regions)
        if regions == "naive":
            use_naive_regions(wafe.app.default_display)
        framebuffer = wafe.app.default_display.screen.framebuffer
        for step, script in enumerate([setup] + mutations):
            wafe.run_script(script)
            wafe.run_script("sync")
            assert (framebuffer == full_repaint(wafe.app)).all(), \
                "%s damage path diverged from a full repaint at step " \
                "%d (%s)" % (regions, step, script)
