"""Tests for the Xt widget core: resources, lifecycle, dispatch."""

import pytest

from repro.xlib import close_all_displays, xtypes
from repro.xlib.colors import alloc_color
from repro.xt import ApplicationShell, XtAppContext
from repro.xt.widget import WidgetError
from repro.xaw import Command, Form, Label, Toggle


@pytest.fixture
def app():
    close_all_displays()
    return XtAppContext()


@pytest.fixture
def top(app):
    return ApplicationShell("topLevel", None, app=app)


class TestResourceLists:
    def test_label_has_exactly_42_resources(self):
        # The paper's interactive example: getResourceList on Label
        # prints 42 with the X11R5 Xaw3d libraries.
        assert len(Label.class_resources()) == 42

    def test_label_resource_list_starts_like_the_paper(self):
        names = [r.name for r in Label.class_resources()]
        # "Resources: destroyCallback ancestorSensitive x y width height
        #  borderWidth sensitive screen depth colormap background (...)"
        assert names[:12] == [
            "destroyCallback", "ancestorSensitive", "x", "y", "width",
            "height", "borderWidth", "sensitive", "screen", "depth",
            "colormap", "background",
        ]

    def test_command_inherits_label_resources(self):
        names = {r.name for r in Command.class_resources()}
        assert {"label", "font", "callback", "highlightThickness"} <= names

    def test_subclass_count_is_super_plus_own(self):
        label_count = len(Label.class_resources())
        command_count = len(Command.class_resources())
        assert command_count == label_count + 4


class TestCreation:
    def test_create_with_args(self, top):
        label = Label("l", top, args={"label": "Hi", "background": "red",
                                      "foreground": "blue"})
        assert label["label"] == "Hi"
        assert label["background"] == alloc_color("red")
        assert label["foreground"] == alloc_color("blue")

    def test_defaults_applied(self, top):
        label = Label("l", top)
        assert label["borderWidth"] == 1
        assert label["sensitive"] is True
        assert label["justify"] == "center"
        assert label["label"] == "l"  # Label defaults to its name

    def test_unknown_resource_raises(self, top):
        with pytest.raises(WidgetError, match='unknown resource "bogus"'):
            Label("l", top, args={"bogus": "1"})

    def test_resource_database_supplies_values(self, app, top):
        app.merge_resources("*Label.foreground: tomato")
        label = Label("l", top)
        assert label["foreground"] == alloc_color("tomato")

    def test_args_beat_database(self, app, top):
        # The paper: creation arguments override resource-file settings.
        app.merge_resources("*foreground: red")
        label = Label("l", top, args={"foreground": "blue"})
        assert label["foreground"] == alloc_color("blue")

    def test_constraint_resources_from_args(self, top):
        form = Form("f", top)
        one = Label("one", form)
        two = Label("two", form, args={"fromVert": "one"})
        # Resolved to the sibling as it is set (String-to-Widget).
        assert two.constraints["fromVert"] is one
        assert two.get_value_string("fromVert") == "one"
        assert one in form.children and two in form.children

    def test_failed_create_leaves_no_child(self, top):
        from repro.core import make_wafe
        from repro.tcl.errors import TclError

        wafe = make_wafe()
        wafe.run_script("form main topLevel; label a main; realize")
        with pytest.raises(TclError, match="unknown sibling"):
            wafe.run_script("label b main fromVert nosuch")
        main = wafe.lookup_widget("main")
        assert [child.name for child in main.children] == ["a"]
        # A sibling may not name the failed widget either.
        with pytest.raises(TclError, match='unknown sibling "b"'):
            wafe.run_script("label c main fromVert b")
        wafe.run_script("label b main fromVert a")
        assert [child.name for child in main.children] == ["a", "b"]

    def test_failed_initialize_hook_leaves_no_child(self, app, top):
        from repro.tcl.errors import TclError
        from repro.xaw import Dialog

        # Dialog's initialize hook creates its label child, whose
        # conversion fails: the Dialog is not left in the Form.
        app.merge_resources("*d.label.justify: middle")
        form = Form("f", top)
        with pytest.raises(TclError, match="Justify"):
            Dialog("d", form)
        assert form.children == []

    def test_widget_cannot_attach_to_itself(self, top):
        form = Form("f", top)
        with pytest.raises(WidgetError, match="unknown sibling"):
            Label("l", form, args={"fromVert": "l"})
        assert form.children == []


class TestSetGetValues:
    def test_set_values_converts(self, top):
        label = Label("l", top)
        label.set_values({"background": "tomato", "label": "Hi Man"})
        assert label["background"] == alloc_color("tomato")
        assert label["label"] == "Hi Man"

    def test_get_value_string(self, top):
        label = Label("l", top, args={"label": "x", "width": "120"})
        assert label.get_value_string("label") == "x"
        assert label.get_value_string("width") == "120"
        assert label.get_value_string("sensitive") == "True"

    def test_get_pixel_as_hex(self, top):
        label = Label("l", top, args={"background": "red"})
        assert label.get_value_string("background") == "#FF0000"

    def test_in_tests_resources_and_constraints(self, top):
        form = Form("f", top)
        label = Label("l", form)
        assert "label" in label and "fromVert" in label
        assert "bogus" not in label

    def test_bad_resource_name_raises(self, top):
        label = Label("l", top)
        with pytest.raises(WidgetError, match='no resource "bogus"'):
            label.get_value_string("bogus")


class TestRealizeAndDraw:
    def test_realize_creates_window_tree(self, top):
        form = Form("f", top)
        label = Label("l", form, args={"label": "hello"})
        top.realize()
        assert top.window is not None
        assert form.window is not None
        assert label.window is not None
        assert label.window.viewable()

    def test_shell_sizes_to_child(self, top):
        Label("l", top, args={"label": "a rather long label text"})
        top.realize()
        assert top.window.width > 20

    def test_label_paints_text(self, top):
        from repro.xlib.graphics import window_pixels

        label = Label("l", top, args={"label": "wafe",
                                      "foreground": "black"})
        top.realize()
        label.redraw()
        pixels = window_pixels(label.window)
        assert (pixels == alloc_color("black")).any()

    def test_set_values_triggers_repaint(self, top):
        from repro.xlib.graphics import window_pixels

        label = Label("l", top, args={"label": "aaa"})
        top.realize()
        label.redraw()
        before = window_pixels(label.window).copy()
        label.set_values({"background": "red"})
        after = window_pixels(label.window)
        assert (before != after).any()
        assert (after == alloc_color("red")).any()


class TestEventDispatch:
    def test_command_callback_fires_on_click(self, app, top):
        fired = []
        button = Command("b", top, args={"label": "press"})
        button.add_callback("callback", lambda w, d: fired.append(w.name))
        top.realize()
        x, y = button.window.absolute_origin()
        app.default_display.click(x + 2, y + 2)
        app.process_pending()
        assert fired == ["b"]

    def test_insensitive_widget_ignores_clicks(self, app, top):
        fired = []
        button = Command("b", top)
        button.add_callback("callback", lambda w, d: fired.append(1))
        button.set_values({"sensitive": "false"})
        top.realize()
        x, y = button.window.absolute_origin()
        app.default_display.click(x + 2, y + 2)
        app.process_pending()
        assert fired == []

    def test_toggle_flips_state(self, app, top):
        toggle = Toggle("t", top)
        top.realize()
        x, y = toggle.window.absolute_origin()
        app.default_display.click(x + 2, y + 2)
        app.process_pending()
        assert toggle["state"] is True
        app.default_display.click(x + 2, y + 2)
        app.process_pending()
        assert toggle["state"] is False

    def test_toggle_radio_group_exclusive(self, app, top):
        form = Form("f", top)
        one = Toggle("one", form, args={"radioGroup": "g"})
        two = Toggle("two", form, args={"radioGroup": "g",
                                        "fromHoriz": "one"})
        top.realize()
        one.set_state(True)
        two.set_state(True)
        assert one["state"] is False
        assert two["state"] is True

    def test_expose_dispatch_repaints(self, app, top):
        from repro.xlib.events import XEvent
        from repro.xlib.graphics import window_pixels

        label = Label("l", top, args={"label": "zz",
                                      "foreground": "black"})
        top.realize()
        # Trash the framebuffer, then deliver an Expose.
        label.window.display.screen.framebuffer[:] = 0xFFFFFF
        app.dispatch_event(XEvent(xtypes.Expose, label.window))
        assert (window_pixels(label.window) == alloc_color("black")).any()


class TestDestroy:
    def test_destroy_runs_destroy_callback(self, app, top):
        seen = []
        label = Label("l", top)
        label.add_callback("destroyCallback", lambda w, d: seen.append(w.name))
        label.destroy()
        assert seen == ["l"]

    def test_destroy_frees_resources(self, app, top):
        label = Label("l", top)
        top.realize()
        window = label.window
        label.destroy()
        assert label.destroyed
        assert label.resources == {}
        assert window.destroyed
        assert app.widget_for_window(window) is None

    def test_destroy_cascades_to_children(self, app, top):
        form = Form("f", top)
        label = Label("l", form)
        form.destroy()
        assert label.destroyed


class TestFormLayout:
    def test_fromvert_stacks_vertically(self, top):
        form = Form("f", top)
        one = Label("one", form)
        two = Label("two", form, args={"fromVert": "one"})
        top.realize()
        assert two.resources["y"] > one.resources["y"]
        assert two.resources["y"] >= one.resources["y"] + \
            one.resources["height"]

    def test_fromhoriz_stacks_horizontally(self, top):
        form = Form("f", top)
        one = Label("one", form)
        two = Label("two", form, args={"fromHoriz": "one"})
        top.realize()
        assert two.resources["x"] >= one.resources["x"] + \
            one.resources["width"]

    def test_paper_prime_factor_layout(self, top):
        # The demo: input; result fromVert input; quit fromVert result;
        # info fromVert result fromHoriz quit.
        from repro.xaw import AsciiText

        form = Form("topf", top)
        text = AsciiText("input", form, args={"editType": "edit",
                                              "width": "200"})
        result = Label("result", form, args={"fromVert": "input",
                                             "width": "200", "label": ""})
        quit_btn = Command("quit", form, args={"fromVert": "result"})
        info = Label("info", form, args={"fromVert": "result",
                                         "fromHoriz": "quit",
                                         "borderWidth": "0",
                                         "width": "150", "label": ""})
        top.realize()
        assert result.resources["y"] > text.resources["y"]
        assert quit_btn.resources["y"] > result.resources["y"]
        assert info.resources["x"] > quit_btn.resources["x"]
        assert info.resources["y"] == quit_btn.resources["y"]
