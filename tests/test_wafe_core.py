"""Integration tests for the Wafe frontend: the paper's own examples."""

import pytest

from repro.tcl.errors import TclError
from repro.xlib import close_all_displays
from repro.xlib.colors import alloc_color
from repro.core import make_wafe


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


@pytest.fixture
def mofe():
    close_all_displays()
    return make_wafe(build="motif")


def capture_echo(wafe):
    """Collect echo output (what would go to stdout / the backend)."""
    lines = []
    wafe.interp.write_output = lambda text: lines.append(text.rstrip("\n"))
    return lines


class TestPaperGetResourceList:
    def test_label_resource_count_is_42(self, wafe):
        # "the number of resources available for the Label widget class
        #  is printed, which is 42 using the X11R5 Xaw3d libraries"
        lines = capture_echo(wafe)
        wafe.run_script("label l topLevel")
        wafe.run_script("echo [getResourceList l retVal]")
        assert lines == ["42"]

    def test_resource_list_variable_contents(self, wafe):
        wafe.run_script("label l topLevel")
        wafe.run_script("getResourceList l retVal")
        names = wafe.run_script("set retVal").split()
        assert names[:12] == [
            "destroyCallback", "ancestorSensitive", "x", "y", "width",
            "height", "borderWidth", "sensitive", "screen", "depth",
            "colormap", "background",
        ]
        assert len(names) == 42

    def test_echo_resources_line(self, wafe):
        lines = capture_echo(wafe)
        wafe.run_script("label l topLevel")
        wafe.run_script("getResourceList l retVal")
        wafe.run_script('echo Resources: $retVal')
        assert lines[0].startswith(
            "Resources: destroyCallback ancestorSensitive x y")


class TestWidgetCreation:
    def test_create_and_reference_by_name(self, wafe):
        wafe.run_script("label 1 topLevel")
        assert wafe.lookup_widget("1").CLASS_NAME == "Label"

    def test_creation_args_set_resources(self, wafe):
        wafe.run_script("label label1 topLevel background red foreground blue")
        widget = wafe.lookup_widget("label1")
        assert widget["background"] == alloc_color("red")
        assert widget["foreground"] == alloc_color("blue")

    def test_duplicate_name_rejected(self, wafe):
        wafe.run_script("label l topLevel")
        with pytest.raises(TclError, match="already exists"):
            wafe.run_script("label l topLevel")

    def test_unknown_parent_rejected(self, wafe):
        with pytest.raises(TclError, match='no such widget "nope"'):
            wafe.run_script("label l nope")

    def test_unmanaged_creation(self, wafe):
        wafe.run_script("label l topLevel -unmanaged")
        assert wafe.lookup_widget("l").managed is False

    def test_athena_command_absent_in_motif_build(self, mofe):
        # "if you choose to install the OSF/Motif version, the command
        #  to create the Athena text widget, asciiText, won't be
        #  available"
        with pytest.raises(TclError, match="invalid command name"):
            mofe.run_script("asciiText t topLevel")
        mofe.run_script("mPushButton pressMe topLevel")
        assert mofe.lookup_widget("pressMe").CLASS_NAME == "XmPushButton"

    def test_motif_font_list_reads_back_as_a_font_list(self, mofe):
        mofe.run_script("mLabel fl topLevel fontList {*lucida-bold-r*14*=b}")
        source = mofe.run_script("gV fl fontList")
        assert source.endswith("=b")
        assert mofe.run_script("sV fl fontList {%s}; gV fl fontList"
                               % source) == source

    def test_motif_commands_absent_in_athena_build(self, wafe):
        with pytest.raises(TclError, match="invalid command name"):
            wafe.run_script("mPushButton b topLevel")

    def test_application_shell_on_other_display(self, wafe):
        wafe.run_script("applicationShell top2 dec4:0")
        shell = wafe.lookup_widget("top2")
        wafe.run_script("label remote top2")
        wafe.run_script("realizeWidget top2")
        assert shell.display().name == "dec4:0"
        assert wafe.lookup_widget("remote").display().name == "dec4:0"
        assert wafe.lookup_widget("l" if False else "remote").window is not None


class TestSetGetValues:
    def test_paper_sv_example(self, wafe):
        wafe.run_script("label label1 topLevel background red")
        wafe.run_script('setValues label1 background "tomato" label "Hi Man"')
        widget = wafe.lookup_widget("label1")
        assert widget["background"] == alloc_color("tomato")
        assert widget["label"] == "Hi Man"

    def test_sv_gv_aliases(self, wafe):
        wafe.run_script("label l topLevel")
        wafe.run_script("sV l label hello")
        assert wafe.run_script("gV l label") == "hello"

    def test_gv_in_command_substitution(self, wafe):
        lines = capture_echo(wafe)
        wafe.run_script("label label1 topLevel label Content")
        wafe.run_script("echo [gV label1 label]")
        assert lines == ["Content"]

    def test_get_values_multi(self, wafe):
        wafe.run_script("label l topLevel width 120 height 30")
        wafe.run_script("getValues l width w height h")
        assert wafe.run_script("set w") == "120"
        assert wafe.run_script("set h") == "30"


class TestMergeResources:
    def test_paper_merge_resources_example(self, wafe):
        wafe.run_script(
            "mergeResources *Font fixed *foreground blue *background red")
        wafe.run_script("label hello topLevel")
        widget = wafe.lookup_widget("hello")
        assert widget["foreground"] == alloc_color("blue")
        assert widget["background"] == alloc_color("red")

    def test_merge_resources_applies_to_all_later_widgets(self, wafe):
        wafe.run_script("mergeResources *foreground blue")
        wafe.run_script("label one topLevel")
        wafe.run_script("command two topLevel")
        assert wafe.lookup_widget("one")["foreground"] == alloc_color("blue")
        assert wafe.lookup_widget("two")["foreground"] == alloc_color("blue")

    def test_creation_args_override_merge_resources(self, wafe):
        wafe.run_script("mergeResources *foreground blue")
        wafe.run_script("label l topLevel foreground red")
        assert wafe.lookup_widget("l")["foreground"] == alloc_color("red")

    def test_single_block_form(self, wafe):
        wafe.run_script('mergeResources "*foreground: green"')
        wafe.run_script("label l topLevel")
        assert wafe.lookup_widget("l")["foreground"] == alloc_color("green")


class TestCallbacks:
    def test_paper_hello_world_callback(self, wafe):
        lines = capture_echo(wafe)
        wafe.run_script('command hello topLevel callback "echo hello world"')
        wafe.run_script("realize")
        button = wafe.lookup_widget("hello")
        x, y = button.window.absolute_origin()
        wafe.app.default_display.click(x + 2, y + 2)
        wafe.app.process_pending()
        assert lines == ["hello world"]

    def test_paper_c1_c2_callback_readback(self, wafe):
        # The whole script from the paper, verbatim semantics.
        lines = capture_echo(wafe)
        wafe.run_script("form f topLevel")
        wafe.run_script('command c1 f callback "echo i am %w."')
        wafe.run_script("command c2 f callback [gV c1 callback] fromVert c1")
        wafe.run_script("realize")
        display = wafe.app.default_display
        for name in ("c1", "c2"):
            widget = wafe.lookup_widget(name)
            x, y = widget.window.absolute_origin()
            display.click(x + 2, y + 2)
            wafe.app.process_pending()
        assert lines == ["i am c1.", "i am c2."]

    def test_callback_set_via_sv(self, wafe):
        lines = capture_echo(wafe)
        wafe.run_script("command quit topLevel")
        wafe.run_script('sV quit callback "echo bye"')
        wafe.run_script("realize")
        button = wafe.lookup_widget("quit")
        x, y = button.window.absolute_origin()
        wafe.app.default_display.click(x + 1, y + 1)
        wafe.app.process_pending()
        assert lines == ["bye"]

    def test_list_callback_percent_codes(self, wafe):
        # The paper: sV chooseLst callback "sV confirmLab label %s"
        wafe.run_script("form f topLevel")
        wafe.run_script("label confirmLab f label empty")
        wafe.run_script(
            'list chooseLst f list {alpha beta gamma} fromVert confirmLab')
        wafe.run_script('sV chooseLst callback "sV confirmLab label %s"')
        wafe.run_script("realize")
        lst = wafe.lookup_widget("chooseLst")
        x, y = lst.window.absolute_origin()
        row = lst.row_height()
        wafe.app.default_display.click(x + 3, y + 2 + row + 1)  # 2nd row
        wafe.app.process_pending()
        assert wafe.run_script("gV confirmLab label") == "beta"

    def test_quit_command_ends_loop(self, wafe):
        lines = capture_echo(wafe)
        wafe.run_script('command hello topLevel label "Wafe new World" '
                        'callback "echo Goodbye; quit"')
        wafe.run_script("realize")
        button = wafe.lookup_widget("hello")
        x, y = button.window.absolute_origin()
        wafe.app.default_display.click(x + 2, y + 2)
        wafe.app.process_pending()
        assert lines == ["Goodbye"]
        assert wafe.quit_requested


class TestPredefinedCallbacks:
    def _popup_setup(self, wafe):
        # Build a popup shell by hand (shells are created via the API);
        # position it away from the top-level so clicks don't collide.
        from repro.xt.shell import TransientShell

        wafe.run_script("form f topLevel")
        wafe.run_script("command b f")
        shell = TransientShell("popup", wafe.top_level,
                               args={"x": "300", "y": "300"})
        wafe.widgets["popup"] = shell
        wafe.run_script("label inside popup label {popup content}")
        wafe.run_script("realize")
        return wafe.lookup_widget("b"), shell

    def _click(self, wafe, widget):
        x, y = widget.window.absolute_origin()
        wafe.app.default_display.click(x + 2, y + 2)
        wafe.app.process_pending()

    def test_none_realizes_without_grab(self, wafe):
        button, shell = self._popup_setup(wafe)
        wafe.run_script("callback b callback none popup")
        self._click(wafe, button)
        assert shell.popped_up
        assert wafe.app.default_display.grab_window is None

    def test_exclusive_grabs(self, wafe):
        button, shell = self._popup_setup(wafe)
        wafe.run_script("callback b callback exclusive popup")
        self._click(wafe, button)
        assert shell.popped_up
        assert wafe.app.default_display.grab_window is shell.window

    def test_nonexclusive_grabs_with_owner_events(self, wafe):
        button, shell = self._popup_setup(wafe)
        wafe.run_script("callback b callback nonexclusive popup")
        self._click(wafe, button)
        assert shell.popped_up
        assert wafe.app.default_display.grab_owner_events is True

    def test_popdown(self, wafe):
        button, shell = self._popup_setup(wafe)
        wafe.run_script("callback b callback none popup")
        self._click(wafe, button)
        wafe.run_script("command down topLevel")
        wafe.run_script("callback down callback popdown popup")
        wafe.run_script("realize")
        self._click(wafe, wafe.lookup_widget("down"))
        assert not shell.popped_up

    def test_position(self, wafe):
        button, shell = self._popup_setup(wafe)
        wafe.run_script("callback b callback none popup")
        wafe.run_script("callback b callback position popup 200 150")
        self._click(wafe, button)
        assert (shell.resources["x"], shell.resources["y"]) == (200, 150)

    def test_position_cursor(self, wafe):
        button, shell = self._popup_setup(wafe)
        wafe.run_script("callback b callback none popup")
        wafe.run_script("callback b callback positionCursor popup")
        x, y = button.window.absolute_origin()
        wafe.app.default_display.click(x + 2, y + 2)
        wafe.app.process_pending()
        assert shell.resources["x"] == x + 2
        assert shell.resources["y"] == y + 2

    def test_unknown_predefined_rejected(self, wafe):
        wafe.run_script("command b topLevel")
        with pytest.raises(TclError, match="unknown predefined callback"):
            wafe.run_script(  # wafelint: skip -- rejection is the point
                "callback b callback bogus popup")

    def test_motif_armcallback_example(self, mofe):
        # "mPushButton b topLevel; callback b armCallback none popup"
        from repro.xt.shell import TransientShell

        mofe.run_script("mPushButton b topLevel")
        shell = TransientShell("popup", mofe.top_level)
        mofe.widgets["popup"] = shell
        mofe.run_script("mLabel inside popup")
        mofe.run_script("callback b armCallback none popup")
        mofe.run_script("realize")
        button = mofe.lookup_widget("b")
        x, y = button.window.absolute_origin()
        mofe.app.default_display.press_button(x + 2, y + 2)
        mofe.app.process_pending()
        assert shell.popped_up
        mofe.app.default_display.release_button(x + 2, y + 2)


class TestActions:
    def test_paper_xev_example_exact_output(self, wafe):
        # label xev topLevel; action xev override
        #   {<KeyPress>: exec(echo %k %a %s)} ... typing "w!" prints:
        #   198 w w / 174 Shift_L / 197 ! exclam
        lines = capture_echo(wafe)
        wafe.run_script("label xev topLevel")
        wafe.run_script(
            "action xev override {<KeyPress>: exec(echo %k %a %s)}")
        wafe.run_script("realize")
        xev = wafe.lookup_widget("xev")
        wafe.app.default_display.type_string(xev.window, "w!")
        wafe.app.process_pending()
        assert lines == ["198 w w", "174 Shift_L", "197 ! exclam"]

    def test_menubutton_enterwindow_popup(self, wafe):
        wafe.run_script("menuButton mb topLevel")
        wafe.run_script("simpleMenu menu mb")
        wafe.run_script("smeBSB entry menu")
        wafe.run_script('action mb override "<EnterWindow>: PopupMenu()"')
        wafe.run_script("realize")
        button = wafe.lookup_widget("mb")
        x, y = button.window.absolute_origin()
        wafe.app.default_display.warp_pointer(x + 2, y + 2)
        wafe.app.process_pending()
        assert wafe.lookup_widget("menu").popped_up

    def test_action_augment_keeps_existing(self, wafe):
        lines = capture_echo(wafe)
        wafe.run_script("command b topLevel callback {echo pressed}")
        wafe.run_script('action b augment "<EnterWindow>: exec(echo enter)"')
        wafe.run_script("realize")
        button = wafe.lookup_widget("b")
        x, y = button.window.absolute_origin()
        wafe.app.default_display.click(x + 1, y + 1)
        wafe.app.process_pending()
        assert "pressed" in lines

    def test_exec_action_with_command_substitution(self, wafe):
        # The prime-factor binding: exec(echo [gV input string])
        lines = capture_echo(wafe)
        wafe.run_script("asciiText input topLevel editType edit width 200")
        wafe.run_script(
            "action input override {<Key>Return: exec(echo [gV input string])}")
        wafe.run_script("realize")
        text = wafe.lookup_widget("input")
        display = wafe.app.default_display
        display.type_string(text.window, "60")
        display.type_string(text.window, "\r")
        wafe.app.process_pending()
        assert lines == ["60"]


class TestGeneratedCommands:
    def test_destroy_widget_frees_name(self, wafe):
        wafe.run_script("label l topLevel")
        wafe.run_script("destroyWidget l")
        assert wafe.run_script("widgetExists l") == "0"
        with pytest.raises(TclError, match="no such widget"):
            wafe.run_script("gV l label")

    def test_set_sensitive_and_is_sensitive(self, wafe):
        wafe.run_script("command b topLevel")
        assert wafe.run_script("isSensitive b") == "1"
        wafe.run_script("setSensitive b false")
        assert wafe.run_script("isSensitive b") == "0"

    def test_parent_and_name(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("label l f")
        assert wafe.run_script("parent l") == "f"
        assert wafe.run_script("name l") == "l"

    def test_form_allow_resize(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("label l f")
        wafe.run_script("formAllowResize l true")
        assert wafe.lookup_widget("l").constraints["resizable"] is True

    def test_list_show_current_struct_convention(self, wafe):
        wafe.run_script("list l topLevel list {a b c}")
        wafe.run_script("listHighlight l 2")
        result = wafe.run_script("listShowCurrent l info")
        assert result == "2"
        assert wafe.run_script("set info(index)") == "2"
        assert wafe.run_script("set info(string)") == "c"

    def test_move_and_resize(self, wafe):
        wafe.run_script("label l topLevel")
        wafe.run_script("realize")
        wafe.run_script("moveWidget l 50 60")
        widget = wafe.lookup_widget("l")
        assert (widget["x"], widget["y"]) == (50, 60)
        wafe.run_script("resizeWidget l 200 100 1")
        assert (widget["width"], widget["height"]) == (200, 100)

    def test_add_timeout_runs_script(self, wafe):
        wafe.run_script("set fired 0")
        wafe.run_script("addTimeOut 1 {set fired 1}")
        wafe.main_loop(until=lambda: wafe.run_script("set fired") == "1",
                       max_idle=50)
        assert wafe.run_script("set fired") == "1"

    def test_wrong_arity_message(self, wafe):
        with pytest.raises(TclError, match="wrong # args"):
            wafe.run_script("destroyWidget")  # wafelint: skip -- arity test

    def test_motif_cascade_highlight(self, mofe):
        mofe.run_script("mCascadeButton cb topLevel")
        mofe.run_script("realize")
        mofe.run_script("mCascadeButtonHighlight cb true")
        assert mofe.lookup_widget("cb").highlighted is True
        mofe.run_script("mCascadeButtonHighlight cb false")
        assert mofe.lookup_widget("cb").highlighted is False

    def test_motif_command_append_value(self, mofe):
        mofe.run_script("mCommand box topLevel")
        mofe.run_script("mCommandAppendValue box {ls}")
        mofe.run_script("mCommandAppendValue box { -l}")
        assert mofe.lookup_widget("box")["command"] == "ls -l"

    def test_plotter_commands(self, wafe):
        wafe.run_script("barGraph g topLevel data {1 2 3}")
        wafe.run_script("realize")
        wafe.run_script("plotterSetData g {5 1 9 4}")
        count = wafe.run_script("plotterBarHeights g heights")
        assert count == "4"
        heights = [int(h) for h in wafe.run_script("set heights").split()]
        assert heights[2] == max(heights)


class TestMemoryManagement:
    def test_destroying_form_frees_descendants(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("label a f")
        wafe.run_script("command b f fromVert a")
        wafe.run_script("destroyWidget f")
        for name in ("f", "a", "b"):
            assert wafe.run_script("widgetExists %s" % name) == "0"

    def test_callback_resource_replaced_old_value_freed(self, wafe):
        wafe.run_script("command b topLevel callback {echo one}")
        first = wafe.lookup_widget("b").resources["callback"]
        wafe.run_script("sV b callback {echo two}")
        second = wafe.lookup_widget("b").resources["callback"]
        assert first is not second
        assert second.source == "echo two"
