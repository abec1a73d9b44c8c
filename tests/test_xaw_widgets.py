"""Tests for the Athena widgets: List, AsciiText, menus, scrollbar, plotter."""

import pytest

from repro.xlib import close_all_displays, xtypes
from repro.xlib.colors import alloc_color
from repro.xlib.graphics import window_pixels
from repro.xt import XtAppContext, ApplicationShell
from repro.xaw import (
    AsciiText,
    BarGraph,
    Box,
    Command,
    Dialog,
    Form,
    Label,
    LineGraph,
    List,
    MenuButton,
    Paned,
    Scrollbar,
    SimpleMenu,
    SmeBSB,
    SmeLine,
    StripChart,
    Viewport,
)


@pytest.fixture
def app():
    close_all_displays()
    return XtAppContext()


@pytest.fixture
def top(app):
    return ApplicationShell("topLevel", None, app=app)


class TestList:
    def test_list_from_tcl_string(self, top):
        lst = List("chooseLst", top, args={"list": "alpha {beta gamma} delta"})
        assert lst.items() == ["alpha", "beta gamma", "delta"]

    def test_click_selects_and_notifies(self, app, top):
        received = []
        lst = List("l", top, args={"list": "one two three"})
        lst.add_callback("callback",
                         lambda w, d: received.append((d.list_index, d.string)))
        top.realize()
        ox, oy = lst.window.absolute_origin()
        row = lst.row_height()
        app.default_display.click(ox + 3, oy + lst.resources["internalHeight"]
                                  + row + 2)  # second row
        app.process_pending()
        assert received == [(1, "two")]

    def test_highlight_api(self, top):
        lst = List("l", top, args={"list": "a b"})
        lst.highlight(1)
        assert lst.current().string == "b"
        lst.unhighlight()
        assert lst.current() is None

    def test_unset_action_clears_highlight(self, app, top):
        from repro.xt.translations import merge_tables, parse_translation_table

        lst = List("l", top, args={"list": "a b"})
        lst.resources["translations"] = merge_tables(
            lst.resources["translations"],
            parse_translation_table("#override\n<Btn3Down>: Unset()"))
        top.realize()
        lst.highlight(1)
        x, y = lst.window.absolute_origin()
        app.default_display.press_button(x + 2, y + 2, button=3)
        app.process_pending()
        assert lst.current() is None

    def test_change_list_resets_selection(self, top):
        lst = List("l", top, args={"list": "a b"})
        lst.highlight(0)
        lst.change_list(["x", "y", "z"])
        assert lst.current() is None
        assert lst.items() == ["x", "y", "z"]

    def test_selected_row_paints_inverse(self, app, top):
        lst = List("l", top, args={"list": "one two",
                                   "foreground": "black"})
        top.realize()
        lst.redraw()
        before = (window_pixels(lst.window) == 0).sum()
        lst.highlight(0)
        after = (window_pixels(lst.window) == 0).sum()
        assert after > before  # inverse bar adds black pixels


class TestAsciiText:
    def test_typing_inserts_characters(self, app, top):
        text = AsciiText("input", top, args={"editType": "edit",
                                             "width": "200"})
        top.realize()
        app.default_display.type_string(text.window, "42")
        app.process_pending()
        assert text.get_string() == "42"

    def test_shifted_typing(self, app, top):
        text = AsciiText("input", top, args={"editType": "edit"})
        top.realize()
        app.default_display.type_string(text.window, "w!")
        app.process_pending()
        assert text.get_string() == "w!"

    def test_backspace_deletes(self, app, top):
        from repro.xlib.keysym import keysym_to_keycode

        text = AsciiText("input", top, args={"editType": "edit"})
        top.realize()
        app.default_display.type_string(text.window, "abc")
        backspace, __ = keysym_to_keycode("BackSpace")
        app.default_display.press_key(text.window, backspace)
        app.process_pending()
        assert text.get_string() == "ab"

    def test_newline_and_line_motion_keys(self, app, top):
        from repro.xlib.keysym import keysym_to_keycode

        text = AsciiText("input", top, args={"editType": "edit"})
        top.realize()
        display = app.default_display
        ret, __ = keysym_to_keycode("Return")
        a_key, __ = keysym_to_keycode("a")
        e_key, __ = keysym_to_keycode("e")
        display.type_string(text.window, "ab")
        display.press_key(text.window, ret)
        display.type_string(text.window, "cd")
        display.press_key(text.window, a_key, state=xtypes.ControlMask)
        display.type_string(text.window, "X")
        display.press_key(text.window, e_key, state=xtypes.ControlMask)
        display.type_string(text.window, "Y")
        app.process_pending()
        assert text.get_string() == "ab\nXcdY"

    def test_read_mode_rejects_typing(self, app, top):
        text = AsciiText("t", top, args={"editType": "read",
                                         "string": "fixed"})
        top.realize()
        app.default_display.type_string(text.window, "x")
        app.process_pending()
        assert text.get_string() == "fixed"

    def test_append_mode_appends(self, top):
        text = AsciiText("t", top, args={"editType": "append",
                                         "string": "log:"})
        text.set_insertion_point(0)
        text.insert("entry")
        assert text.get_string() == "log:entry"

    def test_set_values_string(self, top):
        text = AsciiText("t", top, args={"editType": "edit"})
        text.set_values({"string": "bulk content " * 10})
        assert text.get_string().startswith("bulk content")


class TestMenus:
    def test_menubutton_pops_menu_on_click(self, app, top):
        button = MenuButton("mb", top, args={"menuName": "menu"})
        menu = SimpleMenu("menu", button)
        SmeBSB("open", menu)
        SmeBSB("quit", menu)
        top.realize()
        assert not menu.popped_up
        x, y = button.window.absolute_origin()
        app.default_display.press_button(x + 2, y + 2)
        app.process_pending()
        assert menu.popped_up
        assert menu.window.mapped

    def test_menu_entry_notifies_and_pops_down(self, app, top):
        chosen = []
        button = MenuButton("mb", top, args={"menuName": "menu"})
        menu = SimpleMenu("menu", button)
        first = SmeBSB("first", menu)
        first.add_callback("callback", lambda w, d: chosen.append(w.name))
        SmeBSB("second", menu)
        top.realize()
        x, y = button.window.absolute_origin()
        app.default_display.press_button(x + 2, y + 2)
        app.process_pending()
        # Release over the first entry.
        mx, my = menu.window.absolute_origin()
        app.default_display.release_button(mx + 3, my + 3)
        app.process_pending()
        assert chosen == ["first"]
        assert not menu.popped_up

    def test_line_separator_takes_its_line_width(self, top):
        button = MenuButton("mb", top, args={"menuName": "menu"})
        menu = SimpleMenu("menu", button)
        first = SmeBSB("first", menu)
        SmeLine("rule", menu, args={"lineWidth": "3"})
        last = SmeBSB("last", menu)
        menu.layout()
        assert last["y"] - first["height"] == 5

    def test_paper_enterwindow_popup_translation(self, app, top):
        # The paper: action mb override "<EnterWindow>: PopupMenu()"
        from repro.xt.translations import merge_tables, parse_translation_table

        button = MenuButton("mb", top, args={"menuName": "menu"})
        menu = SimpleMenu("menu", button)
        SmeBSB("entry", menu)
        override = parse_translation_table(
            "#override\n<EnterWindow>: PopupMenu()")
        button.resources["translations"] = merge_tables(
            button.resources["translations"], override)
        top.realize()
        x, y = button.window.absolute_origin()
        app.default_display.warp_pointer(x + 2, y + 2)
        app.process_pending()
        assert menu.popped_up


class TestContainers:
    def test_box_flows_horizontally(self, top):
        box = Box("b", top, args={"orientation": "horizontal",
                                  "width": "500"})
        one = Label("one", box)
        two = Label("two", box)
        top.realize()
        assert two.resources["x"] > one.resources["x"]
        assert one.resources["y"] == two.resources["y"]

    def test_box_vertical_default(self, top):
        box = Box("b", top)
        one = Label("one", box)
        two = Label("two", box)
        top.realize()
        assert two.resources["y"] > one.resources["y"]

    def test_paned_stacks_children(self, top):
        paned = Paned("p", top)
        one = Label("one", paned)
        two = Label("two", paned)
        three = Label("three", paned)
        top.realize()
        ys = [w.resources["y"] for w in (one, two, three)]
        assert ys == sorted(ys) and len(set(ys)) == 3

    def test_viewport_scrolls_child(self, top):
        viewport = Viewport("v", top, args={"width": "100",
                                            "height": "50",
                                            "allowVert": "true"})
        child = Label("big", viewport, args={"label": "line\n" * 20})
        top.realize()
        assert child.resources["y"] == 0
        viewport.scroll_to(y=30)
        assert child.resources["y"] == -30

    def test_viewport_scrollbar_coupling(self, app, top):
        viewport = Viewport("v", top, args={"width": "100",
                                            "height": "60",
                                            "allowVert": "true"})
        child = Label("big", viewport, args={"label": "line\n" * 30})
        top.realize()
        bar = viewport.vertical_bar
        assert bar is not None and bar.realized
        # The thumb reflects the visible fraction.
        assert 0.0 < bar["shown"] < 1.0
        # Dragging the thumb (button 2) scrolls the content.
        x, y = bar.window.absolute_origin()
        app.default_display.press_button(x + 3, y + 30, button=2)
        app.process_pending()
        assert child.resources["y"] < 0
        # Programmatic scrolling moves the thumb.
        viewport.scroll_to(y=0)
        assert bar["topOfThumb"] == 0.0

    def test_dialog_has_label_and_value(self, app, top):
        dialog = Dialog("d", top, args={"label": "Enter name:",
                                        "value": "gustaf"})
        top.realize()
        assert dialog.get_value_string("value") == "gustaf"
        names = [c.name for c in dialog.children]
        assert "label" in names and "value" in names

    def test_dialog_set_values_updates_children(self, top):
        dialog = Dialog("d", top, args={"label": "Name:", "value": "a"})
        dialog.set_values({"label": "New name:", "value": "b"})
        children = {c.name: c for c in dialog.children}
        assert children["label"]["label"] == "New name:"
        assert children["value"].get_string() == "b"


class TestScrollbar:
    def test_thumb_setting_clamps(self, top):
        bar = Scrollbar("s", top)
        bar.set_thumb(top=1.5, shown=-0.2)
        assert bar["topOfThumb"] == 1.0
        assert bar["shown"] == 0.0

    def test_jump_callback_on_thumb_move(self, app, top):
        jumps = []
        bar = Scrollbar("s", top, args={"length": "100"})
        bar.add_callback("jumpProc", lambda w, d: jumps.append(d))
        top.realize()
        x, y = bar.window.absolute_origin()
        app.default_display.press_button(x + 3, y + 50, button=2)
        app.process_pending()
        assert len(jumps) == 1
        assert 0.3 < jumps[0] < 0.7

    def test_scroll_callback_on_click(self, app, top):
        scrolls = []
        bar = Scrollbar("s", top, args={"length": "100"})
        bar.add_callback("scrollProc", lambda w, d: scrolls.append(d))
        top.realize()
        x, y = bar.window.absolute_origin()
        app.default_display.click(x + 3, y + 80)
        app.process_pending()
        assert len(scrolls) == 1


class TestStripChart:
    def test_sample_pulls_from_getvalue(self, top):
        chart = StripChart("c", top, args={"update": "0"})
        values = iter([1.0, 5.0, 3.0])

        def produce(widget, holder):
            holder[0] = next(values)

        chart.add_callback("getValue", produce)
        top.realize()
        assert chart.sample() == 1.0
        assert chart.sample() == 5.0
        assert chart.samples == [1.0, 5.0]

    def test_update_timer_samples_repeatedly(self, app, top):
        chart = StripChart("c", top, args={"update": "1"})  # 100 ms

        def produce(widget, holder):
            holder[0] = 2.0

        chart.add_callback("getValue", produce)
        top.realize()
        app.main_loop(until=lambda: len(chart.samples) >= 2, max_idle=50)
        assert chart.samples == [2.0, 2.0]


class TestPlotter:
    def test_bar_graph_heights_proportional(self, top):
        graph = BarGraph("g", top, args={"data": "1 2 4"})
        top.realize()
        graph.redraw()
        heights = graph.bar_heights()
        assert len(heights) == 3
        assert heights[0] < heights[1] < heights[2]

    def test_bar_graph_paints_bars(self, top):
        graph = BarGraph("g", top, args={"data": "1 2 4",
                                         "graphColor": "steelblue"})
        top.realize()
        graph.redraw()
        pixels = window_pixels(graph.window)
        assert (pixels == alloc_color("steelblue")).sum() > 50

    def test_line_graph_paints_series(self, top):
        graph = LineGraph("g", top, args={"data": "0 10 5 20",
                                          "graphColor": "red"})
        top.realize()
        graph.redraw()
        pixels = window_pixels(graph.window)
        assert (pixels == alloc_color("red")).sum() > 20

    def test_set_data_redraws(self, top):
        graph = BarGraph("g", top, args={"data": "1 1 1"})
        top.realize()
        graph.redraw()
        flat = graph.bar_heights()
        graph.set_data([1, 2, 3])
        assert graph.bar_heights() != flat
