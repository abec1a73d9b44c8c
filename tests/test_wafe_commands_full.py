"""Coverage of the full generated command surface (Xt/Xaw/Motif/Plotter)."""

import pytest

from repro.tcl.errors import TclError
from repro.xlib import close_all_displays
from repro.core import make_wafe


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


@pytest.fixture
def mofe():
    close_all_displays()
    return make_wafe(build="motif")


class TestXtLifecycleCommands:
    def test_realize_unrealize_widget(self, wafe):
        wafe.run_script("label l topLevel")
        assert wafe.run_script("isRealized l") == "0"
        wafe.run_script("realize")
        assert wafe.run_script("isRealized l") == "1"
        wafe.run_script("unrealizeWidget l")
        assert wafe.run_script("isRealized l") == "0"

    def test_manage_unmanage(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("label l f -unmanaged")
        assert wafe.run_script("isManaged l") == "0"
        wafe.run_script("manageChild l")
        assert wafe.run_script("isManaged l") == "1"
        wafe.run_script("unmanageChild l")
        assert wafe.run_script("isManaged l") == "0"

    def test_map_unmap(self, wafe):
        wafe.run_script("label l topLevel")
        wafe.run_script("realize")
        widget = wafe.lookup_widget("l")
        wafe.run_script("unmapWidget l")
        assert not widget.window.mapped
        wafe.run_script("mapWidget l")
        assert widget.window.mapped

    def test_bell(self, wafe):
        wafe.run_script("label l topLevel")
        wafe.run_script("bell l 50")
        wafe.run_script("bell l 0")
        assert wafe.bell_count == 2

    def test_sensitive_propagates_to_children(self, wafe):
        wafe.run_script("form f topLevel")
        wafe.run_script("command b f")
        wafe.run_script("setSensitive f false")
        assert wafe.run_script("isSensitive b") == "0"
        wafe.run_script("setSensitive f true")
        assert wafe.run_script("isSensitive b") == "1"


class TestPopupCommands:
    def _setup(self, wafe):
        from repro.xt.shell import TransientShell

        shell = TransientShell("pop", wafe.top_level,
                               args={"x": "400", "y": "200"})
        wafe.widgets["pop"] = shell
        wafe.run_script("label inside pop")
        wafe.run_script("realize")
        return shell

    def test_popup_grab_kinds(self, wafe):
        shell = self._setup(wafe)
        for kind in ("none", "nonexclusive", "exclusive"):
            wafe.run_script("popup pop %s" % kind)
            assert shell.popped_up
            wafe.run_script("popdown pop")
            assert not shell.popped_up

    def test_popup_bad_grab_kind(self, wafe):
        self._setup(wafe)
        with pytest.raises(TclError, match="bad grab kind"):
            wafe.run_script("popup pop sometimes")

    def test_popup_non_shell_rejected(self, wafe):
        wafe.run_script("label l topLevel")
        with pytest.raises(TclError, match="not a shell"):
            wafe.run_script("popup l none")


class TestTimeoutAndWorkProcCommands:
    def test_remove_timeout(self, wafe):
        wafe.run_script("set fired 0")
        timeout_id = wafe.run_script("addTimeOut 1 {set fired 1}")
        wafe.run_script("removeTimeOut %s" % timeout_id)
        wafe.main_loop(max_idle=3)
        assert wafe.run_script("set fired") == "0"

    def test_add_work_proc_runs_until_true(self, wafe):
        wafe.run_script("set n 0")
        wafe.run_script("addWorkProc {incr n; expr {$n >= 3}}")
        wafe.main_loop(max_idle=20)
        assert wafe.run_script("set n") == "3"


class TestSelectionCommands:
    def test_own_and_get_selection(self, wafe):
        wafe.run_script("label owner topLevel")
        wafe.run_script("label asker topLevel -unmanaged")
        wafe.run_script("realize")
        wafe.run_script("realizeWidget asker")
        wafe.run_script('ownSelection owner PRIMARY {concat the payload}')
        value = wafe.run_script("getSelectionValue asker PRIMARY STRING")
        assert value == "the payload"

    def test_disown_selection(self, wafe):
        wafe.run_script("label owner topLevel")
        wafe.run_script("realize")
        wafe.run_script("ownSelection owner PRIMARY {concat x}")
        wafe.run_script("disownSelection owner PRIMARY")
        value = wafe.run_script("getSelectionValue owner PRIMARY STRING")
        assert value == ""

    def test_selection_converts_per_request(self, wafe):
        wafe.run_script("label owner topLevel")
        wafe.run_script("realize")
        wafe.run_script("set n 0")
        wafe.run_script("ownSelection owner PRIMARY {incr n}")
        assert wafe.run_script("getSelectionValue owner PRIMARY STRING") == "1"
        assert wafe.run_script("getSelectionValue owner PRIMARY STRING") == "2"


class TestTranslationCommands:
    def test_override_translations_command(self, wafe, capsys):
        lines = []
        wafe.interp.write_output = lambda t: lines.append(t.rstrip("\n"))
        wafe.run_script("label l topLevel")
        wafe.run_script(
            'overrideTranslations l "<EnterWindow>: exec(echo in)"')
        wafe.run_script("realize")
        widget = wafe.lookup_widget("l")
        x, y = widget.window.absolute_origin()
        wafe.app.default_display.warp_pointer(x + 1, y + 1)
        wafe.app.process_pending()
        assert lines == ["in"]

    def test_augment_translations_command(self, wafe):
        lines = []
        wafe.interp.write_output = lambda t: lines.append(t.rstrip("\n"))
        wafe.run_script("command b topLevel callback {echo press}")
        wafe.run_script('augmentTranslations b "<Btn1Down>: exec(echo mine)"')
        wafe.run_script("realize")
        widget = wafe.lookup_widget("b")
        x, y = widget.window.absolute_origin()
        wafe.app.default_display.click(x + 1, y + 1)
        wafe.app.process_pending()
        # Augment defers to the existing binding: Command's set() wins.
        assert "press" in lines and "mine" not in lines


class TestAthenaCommands:
    def test_list_change_and_highlight_cycle(self, wafe):
        wafe.run_script("list l topLevel list {a}")
        wafe.run_script("realize")
        wafe.run_script("listChange l {x y z} true")
        wafe.run_script("listHighlight l 1")
        assert wafe.run_script("listShowCurrent l cur") == "1"
        assert wafe.run_script("set cur(string)") == "y"
        wafe.run_script("listUnhighlight l")
        assert wafe.run_script("listShowCurrent l cur2") == "-1"

    def test_text_insertion_point_commands(self, wafe):
        wafe.run_script("asciiText t topLevel editType edit string hello")
        wafe.run_script("textSetInsertionPoint t 2")
        assert wafe.run_script("textGetInsertionPoint t") == "2"
        wafe.lookup_widget("t").insert("XX")
        assert wafe.run_script("gV t string") == "heXXllo"

    def test_text_replace_command(self, wafe):
        wafe.run_script("asciiText t topLevel editType edit "
                        "string {hello world}")
        wafe.run_script("textReplace t 6 11 {wafe!}")
        assert wafe.run_script("gV t string") == "hello wafe!"
        assert wafe.run_script("textGetInsertionPoint t") == "11"

    def test_text_selection_commands(self, wafe):
        wafe.run_script("asciiText t topLevel editType edit "
                        "string {select me}")
        wafe.run_script("realize")
        wafe.run_script("textSetSelection t 0 6")
        assert wafe.run_script("textGetSelection t") == "select"

    def test_scrollbar_set_thumb_command(self, wafe):
        wafe.run_script("scrollbar s topLevel")
        wafe.run_script("scrollbarSetThumb s 0.25 0.5")
        bar = wafe.lookup_widget("s")
        assert bar["topOfThumb"] == 0.25
        assert bar["shown"] == 0.5

    def test_strip_chart_sample_command(self, wafe):
        wafe.run_script("stripChart c topLevel update 0")
        wafe.run_script("set v 7")
        chart = wafe.lookup_widget("c")
        chart.add_callback("getValue",
                           lambda w, holder: holder.__setitem__(0, 7.0))
        wafe.run_script("realize")
        assert wafe.run_script("stripChartSample c") == "7.0"

    def test_viewport_set_coordinates_command(self, wafe):
        wafe.run_script("viewport v topLevel width 80 height 40")
        wafe.run_script("label big v label {x\nx\nx\nx\nx\nx\nx\nx}")
        wafe.run_script("realize")
        wafe.run_script("viewportSetCoordinates v 0 25")
        child = wafe.lookup_widget("big")
        assert child.resources["y"] == -25

    def test_dialog_get_value_string_command(self, wafe):
        wafe.run_script("dialog d topLevel label {Name:} value {gustaf}")
        assert wafe.run_script("dialogGetValueString d") == "gustaf"

    def test_toggle_and_menu_creation_commands(self, wafe):
        wafe.run_script("toggle t topLevel state true")
        assert wafe.lookup_widget("t")["state"] is True
        wafe.run_script("menuButton mb topLevel")
        wafe.run_script("simpleMenu m mb")
        wafe.run_script("smeLine sep m")
        wafe.run_script("sme plain m")
        assert wafe.lookup_widget("m").CLASS_NAME == "SimpleMenu"

    def test_box_and_paned_creation(self, wafe):
        wafe.run_script("box b topLevel orientation horizontal")
        wafe.run_script("paned p b")
        wafe.run_script("label inside p")
        wafe.run_script("realize")
        assert wafe.lookup_widget("p").realized


class TestMotifCommands:
    def test_toggle_state_commands(self, mofe):
        mofe.run_script("mToggleButton t topLevel")
        assert mofe.run_script("mToggleButtonGetState t") == "0"
        mofe.run_script("mToggleButtonSetState t true false")
        assert mofe.run_script("mToggleButtonGetState t") == "1"

    def test_toggle_notify_flag(self, mofe):
        changes = []
        mofe.run_script("mToggleButton t topLevel")
        mofe.lookup_widget("t").add_callback(
            "valueChangedCallback", lambda w, d: changes.append(d))
        mofe.run_script("mToggleButtonSetState t true false")
        assert changes == []
        mofe.run_script("mToggleButtonSetState t false true")
        assert changes == [False]

    def test_text_commands(self, mofe):
        mofe.run_script("mText t topLevel")
        mofe.run_script("mTextSetString t {hello motif}")
        assert mofe.run_script("mTextGetString t") == "hello motif"

    def test_command_box_lifecycle(self, mofe):
        mofe.run_script("mCommand c topLevel")
        mofe.run_script("mCommandSetValue c {make all}")
        assert mofe.run_script("mCommandEnter c") == "make all"
        history = mofe.lookup_widget("c")["historyItems"]
        assert history == ["make all"]

    def test_rowcolumn_and_separator(self, mofe):
        mofe.run_script("mRowColumn rc topLevel")
        mofe.run_script("mLabel a rc")
        mofe.run_script("mSeparator sep rc")
        mofe.run_script("mLabel b rc")
        mofe.run_script("realize")
        a = mofe.lookup_widget("a")
        b = mofe.lookup_widget("b")
        assert b.resources["y"] > a.resources["y"]


class TestWidgetReferenceErrors:
    @pytest.mark.parametrize("script", [
        "destroyWidget ghost",
        "gV ghost label",
        "sV ghost label x",
        "popup ghost none",
        "listHighlight ghost 0",
    ])
    def test_unknown_widget_message(self, wafe, script):
        with pytest.raises(TclError, match='no such widget "ghost"'):
            wafe.run_script(script)

    def test_wrong_class_operation(self, wafe):
        wafe.run_script("label l topLevel")
        with pytest.raises(TclError, match="does not support"):
            wafe.run_script("listHighlight l 0")


class TestCallbackAndApplicationCommands:
    def test_add_callback_appends_a_script(self, wafe):
        wafe.run_script("command b topLevel callback {lappend got first}")
        wafe.run_script("addCallback b callback {lappend got second}")
        wafe.run_script("realize")
        widget = wafe.lookup_widget("b")
        callbacks = widget.callback_list("callback")
        assert len(callbacks) == 2 and callbacks
        assert not widget.callback_list("destroyCallback")
        x, y = widget.window.absolute_origin()
        wafe.app.default_display.click(x + 2, y + 2)
        wafe.app.process_pending()
        assert wafe.run_script("set got") == "first second"

    @pytest.mark.parametrize("script, message", [
        ("addCallback b callback",
         'wrong # args: should be "addCallback widget resource script"'),
        ("addCallback b bogus {set x 1}",
         'widget "b" has no callback resource "bogus"'),
        ("sendToApplication hello",
         "sendToApplication: no application attached"),
    ])
    def test_errors(self, wafe, script, message):
        wafe.run_script("command b topLevel")
        with pytest.raises(TclError) as info:
            wafe.run_script(script)
        assert str(info.value) == message
