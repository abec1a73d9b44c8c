"""Tests for the Motif layer: XmString parsing/rendering and widgets."""

import pytest

from repro.xlib import close_all_displays
from repro.xlib.colors import alloc_color
from repro.xlib.graphics import window_pixels
from repro.xt import ApplicationShell, XtAppContext
from repro.motif import (
    FontListError,
    RIGHT_TO_LEFT,
    LEFT_TO_RIGHT,
    Segment,
    XmCascadeButton,
    XmCommand,
    XmLabel,
    XmPushButton,
    XmRowColumn,
    XmText,
    XmToggleButton,
    parse_font_list,
    parse_xmstring,
)

PAPER_FONTLIST = "*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft"
PAPER_LABEL = r"I'm\bft bold\ft and\rl strange"


@pytest.fixture
def app():
    close_all_displays()
    return XtAppContext(app_name="mofe", app_class="Mofe")


@pytest.fixture
def top(app):
    return ApplicationShell("topLevel", None, app=app)


class TestFontList:
    def test_paper_fontlist_parses(self):
        font_list = parse_font_list(PAPER_FONTLIST)
        assert font_list.tags() == ["ft", "bft"]
        assert font_list.font("ft").weight == "medium"
        assert font_list.font("bft").weight == "bold"
        assert font_list.default_tag == "ft"

    def test_bad_pattern_raises(self):
        with pytest.raises(FontListError):
            parse_font_list("*nosuchfontfamily*=x")


class TestXmStringParsing:
    def test_paper_figure3_segments(self):
        font_list = parse_font_list(PAPER_FONTLIST)
        xmstring = parse_xmstring(PAPER_LABEL, font_list)
        texts = [(s.text, s.tag, s.direction) for s in xmstring.segments]
        assert texts == [
            ("I'm", "ft", LEFT_TO_RIGHT),
            (" bold", "bft", LEFT_TO_RIGHT),
            (" and", "ft", LEFT_TO_RIGHT),
            (" strange", "ft", RIGHT_TO_LEFT),
        ]

    def test_plain_text_reconstructs(self):
        font_list = parse_font_list(PAPER_FONTLIST)
        xmstring = parse_xmstring(PAPER_LABEL, font_list)
        assert xmstring.plain_text() == "I'm bold and strange"

    def test_unknown_escape_kept_literally(self):
        font_list = parse_font_list(PAPER_FONTLIST)
        xmstring = parse_xmstring(r"a\zz b", font_list)
        assert xmstring.plain_text() == r"a\zz b"

    def test_longest_tag_prefix_wins(self):
        # 'bft' must match before 'b...' could be misread.
        font_list = parse_font_list(PAPER_FONTLIST)
        xmstring = parse_xmstring(r"\bftX", font_list)
        assert xmstring.segments[0].tag == "bft"
        assert xmstring.segments[0].text == "X"

    def test_direction_toggling(self):
        font_list = parse_font_list(PAPER_FONTLIST)
        xmstring = parse_xmstring(r"ab\rlcd\lref", font_list)
        dirs = [s.direction for s in xmstring.segments]
        assert dirs == [LEFT_TO_RIGHT, RIGHT_TO_LEFT, LEFT_TO_RIGHT]

    def test_segments_compare_by_value(self):
        font_list = parse_font_list(PAPER_FONTLIST)
        xmstring = parse_xmstring(r"a\bft b", font_list)
        assert xmstring.segments == [Segment("a", "ft", LEFT_TO_RIGHT),
                                     Segment(" b", "bft", LEFT_TO_RIGHT)]
        assert xmstring.segments[0] != Segment("a", "bft", LEFT_TO_RIGHT)
        assert len(xmstring) == 2

    def test_width_uses_segment_fonts(self):
        font_list = parse_font_list(PAPER_FONTLIST)
        plain = parse_xmstring("hello", font_list)
        bold = parse_xmstring(r"\bfthello", font_list)
        assert bold.width(font_list) > plain.width(font_list)


class TestXmLabel:
    def test_figure3_label_renders(self, top):
        label = XmLabel("l", top, args={
            "fontList": PAPER_FONTLIST,
            "labelString": PAPER_LABEL,
            "foreground": "black",
        })
        top.realize()
        label.redraw()
        pixels = window_pixels(label.window)
        assert (pixels == alloc_color("black")).any()
        assert label.compound_string().plain_text() == "I'm bold and strange"

    def test_rtl_segment_renders_differently(self, top):
        ltr = XmLabel("a", top, args={"fontList": PAPER_FONTLIST,
                                      "labelString": "xy"})
        top.realize()
        ltr.redraw()
        first = window_pixels(ltr.window).copy()
        ltr.set_values({"labelString": r"\rlxy"})
        second = window_pixels(ltr.window)
        assert (first != second).any()

    def test_default_label_is_widget_name(self, top):
        label = XmLabel("hello", top)
        assert label.compound_string().plain_text() == "hello"


class TestXmButtons:
    def test_pushbutton_arm_and_activate(self, app, top):
        events = []
        button = XmPushButton("b", top)
        button.add_callback("armCallback", lambda w, d: events.append("arm"))
        button.add_callback("activateCallback",
                            lambda w, d: events.append("activate"))
        button.add_callback("disarmCallback",
                            lambda w, d: events.append("disarm"))
        top.realize()
        x, y = button.window.absolute_origin()
        app.default_display.click(x + 3, y + 3)
        app.process_pending()
        assert events == ["arm", "activate", "disarm"]

    def test_cascade_button_highlight(self, top):
        button = XmCascadeButton("c", top)
        top.realize()
        before = window_pixels(button.window).copy()
        button.highlight(True)
        after = window_pixels(button.window)
        assert (before != after).any()
        button.highlight(False)

    def test_toggle_button_state(self, app, top):
        changes = []
        toggle = XmToggleButton("t", top)
        toggle.add_callback("valueChangedCallback",
                            lambda w, d: changes.append(d))
        top.realize()
        x, y = toggle.window.absolute_origin()
        app.default_display.click(x + 2, y + 2)
        app.process_pending()
        assert toggle.get_state() is True
        assert changes == [True]


class TestXmTextAndCommand:
    def test_text_get_set(self, top):
        text = XmText("t", top)
        text.set_string("hello motif")
        assert text.get_string() == "hello motif"

    def test_text_sizes_from_columns_and_renders_value(self, top):
        text = XmText("t", top, args={"value": "hello",
                                      "foreground": "black"})
        top.realize()
        text.redraw()
        assert text.window.width > text.window.height > 0
        pixels = window_pixels(text.window)
        assert (pixels == alloc_color("black")).any()

    def test_command_append_value(self, top):
        command = XmCommand("cmd", top)
        command.append_value("ls")
        command.append_value(" -l")
        assert command["command"] == "ls -l"

    def test_command_entered_goes_to_history(self, top):
        entered = []
        command = XmCommand("cmd", top)
        command.add_callback("commandEnteredCallback",
                             lambda w, d: entered.append(d))
        command.set_value("make")
        result = command.enter_command()
        assert result == "make"
        assert command["historyItems"] == ["make"]
        assert entered == ["make"]
        assert command["command"] == ""

    def test_history_bounded(self, top):
        command = XmCommand("cmd", top, args={"historyMaxItems": "2"})
        for i in range(4):
            command.set_value("c%d" % i)
            command.enter_command()
        assert command["historyItems"] == ["c2", "c3"]


class TestXmRowColumn:
    def test_vertical_stacking(self, top):
        column = XmRowColumn("rc", top)
        one = XmLabel("one", column)
        two = XmLabel("two", column)
        top.realize()
        assert two.resources["y"] > one.resources["y"]

    def test_horizontal_orientation(self, top):
        row = XmRowColumn("rc", top, args={"orientation": "horizontal"})
        one = XmLabel("one", row)
        two = XmLabel("two", row)
        top.realize()
        assert two.resources["x"] > one.resources["x"]
        assert one.resources["y"] == two.resources["y"]
