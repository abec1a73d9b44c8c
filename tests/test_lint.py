"""wafelint tests: every rule code, exact positions, extraction, the
CLI, the ``--lint`` frontend flag, and termination on hostile input."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from repro.core.percent import ACTION_CODE_EVENTS
from repro.lint import ERROR, RULES, WARNING, check
from repro.lint.cli import lint_file, main as lint_main
from repro.lint.extract import extract_markdown, extract_python
from repro.lint.knowledge import knowledge_for

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    found = [d for d in diagnostics if d.code == code]
    assert found, "expected a %s among %r" % (code, diagnostics)
    return found


# ---------------------------------------------------------------------------
# Rules, one by one


class TestUnknownCommand:  # W001
    def test_typo_is_flagged(self):
        (diag,) = check("commnad b topLevel label OK\n")
        assert diag.code == "W001"
        assert diag.severity == ERROR
        assert "commnad" in diag.message
        assert (diag.line, diag.col) == (1, 1)

    def test_known_surfaces_are_silent(self):
        clean = ("form f topLevel\n"
                 "label lbl f label hi\n"
                 "realize\n"
                 "echo [wafeVersion]\n")
        assert check(clean) == []

    def test_script_procs_count(self):
        assert check("proc helper {} { echo hi }\nhelper\n") == []

    def test_proc_defined_after_use_counts(self):
        # collect runs before analyze: order in the file is irrelevant.
        assert check("helper\nproc helper {} { echo hi }\n") == []

    def test_extra_commands_accepted(self):
        assert check("myAppCmd 1 2\n") != []
        assert check("myAppCmd 1 2\n", extra_commands=("myAppCmd",)) == []

    def test_motif_commands_need_motif_build(self):
        script = "mLabel lbl topLevel\n"
        assert codes(check(script, build="athena")) == ["W001"]
        assert check(script, build="motif") == []
        assert check(script, build="both") == []

    def test_dynamic_names_are_not_guessed_at(self):
        # No W001 guess for a dynamic command word; the flow pass does
        # flag the read of the never-assigned variable (W012).
        assert codes(check("$cmd one two\n")) == ["W012"]

    def test_commands_inside_bodies(self):
        diags = check("proc f {} {\n    frobnicate\n}\nf\n")
        (diag,) = only(diags, "W001")
        assert (diag.line, diag.col) == (2, 5)

    def test_unknown_predefined_callback(self):
        script = ("command c topLevel label OK\n"
                  "callback c callback popdow box\n")
        (diag,) = only(check(script), "W001")
        assert "popdow" in diag.message
        assert diag.line == 2

    def test_exit_and_exec_are_not_wafe_commands(self):
        # (and the linter must not execute them while finding that out)
        assert codes(check("exit\n")) == ["W001"]
        assert codes(check("exec rm -rf /\n")) == ["W001"]


class TestArityMismatch:  # W002 (spec commands) / W017 (user procs)
    def test_proc_called_with_too_many(self):
        diags = check("proc greet {name} { echo $name }\ngreet a b\n")
        (diag,) = only(diags, "W017")
        assert "expects 1" in diag.message
        assert diag.line == 2

    def test_proc_defaults_and_args(self):
        script = ("proc f {a {b 1} args} { echo $a }\n"
                  "f\n"          # too few
                  "f 1\n"        # ok
                  "f 1 2 3 4\n"  # ok (args soaks the rest)
                  )
        diags = only(check(script), "W017")
        assert [d.line for d in diags] == [2]

    def test_spec_function_arity(self):
        # XtBell: widget + int -> exactly two arguments.
        diags = check("bell topLevel\n")
        (diag,) = only(diags, "W002")
        assert "bell" in diag.message
        assert check("bell topLevel 100\n") == []

    def test_creation_needs_name_and_parent(self):
        (diag,) = only(check("label onlyname\n"), "W002")
        assert diag.line == 1

    def test_odd_attribute_list(self):
        diags = check("label lbl topLevel label\n")
        (diag,) = only(diags, "W002")
        assert "even" in diag.message

    def test_unmanaged_flag_is_skipped(self):
        assert check("label lbl topLevel -unmanaged label hi\n") == []


class TestUnknownResource:  # W003
    def test_creation_attribute(self):
        diags = check("label lbl topLevel labell hi\n")
        (diag,) = only(diags, "W003")
        assert 'unknown resource "labell" for widget class Label' \
            in diag.message
        assert (diag.line, diag.col) == (1, 20)

    def test_constraint_resources_of_parent_are_valid(self):
        script = ("form f topLevel\n"
                  "label a f label one\n"
                  "label b f fromHoriz a label two\n")
        assert check(script) == []

    def test_set_values_resource(self):
        script = "label lbl topLevel label hi\nsV lbl colour red\n"
        (diag,) = only(check(script), "W003")
        assert diag.line == 2

    def test_get_value_resource(self):
        script = "label lbl topLevel label hi\ngV lbl labell\n"
        (diag,) = only(check(script), "W003")
        assert "labell" in diag.message

    def test_get_values_resources(self):
        script = ("label lbl topLevel label hi\n"
                  "getValues lbl label a labell b\n"
                  "getValues lbl label\n")
        diags = check(script)
        (unknown,) = only(diags, "W003")
        assert "labell" in unknown.message and unknown.line == 2
        (arity,) = only(diags, "W002")
        assert arity.line == 3

    def test_add_callback_resource(self):
        script = ("command c topLevel label OK\n"
                  "addCallback c callbock {echo hi}\n")
        (diag,) = only(check(script), "W003")
        assert "callbock" in diag.message

    def test_unknown_widget_class_is_conservative(self):
        # 'mystery' was never created here: no class, no complaint.
        assert check("sV mystery anything x\n") == []


class TestInvalidPercentCode:  # W004
    def test_key_code_on_button_event(self):
        script = "label l topLevel\n" \
                 "action l override {<Btn1Down>: exec(echo %a)}\n"
        (diag,) = only(check(script), "W004")
        assert "%a" in diag.message and "ButtonPress" in diag.message
        assert diag.severity == ERROR

    def test_button_code_on_key_event(self):
        script = "label l topLevel\n" \
                 "action l override {<KeyPress>: exec(echo %b)}\n"
        (diag,) = only(check(script), "W004")
        assert "%b" in diag.message

    def test_valid_matrix_combinations_are_silent(self):
        script = ("label l topLevel\n"
                  "action l override {<KeyPress>: exec(echo %k %s %a)}\n"
                  "action l override {<Btn1Down>: exec(echo %b %x %y)}\n"
                  "action l override {<EnterWindow>: exec(echo %X %Y %t)}\n")
        assert check(script) == []

    def test_unknown_code_warns(self):
        script = "label l topLevel\n" \
                 "action l override {<KeyPress>: exec(echo %q)}\n"
        (diag,) = only(check(script), "W004")
        assert diag.severity == WARNING

    def test_unknown_callback_code_warns(self):
        script = ("command c topLevel label OK\n"
                  "addCallback c callback {echo %q}\n")
        (diag,) = only(check(script), "W004")
        assert diag.severity == WARNING

    def test_matrix_is_the_single_source_of_truth(self):
        # Every (code, invalid-event) pair from the runtime table is an
        # error; every valid pair is silent.  Event names per type that
        # the translation parser understands:
        event_names = {"<KeyPress>": "KeyPress", "<Btn1Down>":
                       "ButtonPress", "<EnterWindow>": "EnterNotify"}
        from repro.xlib import xtypes

        type_of = {"<KeyPress>": xtypes.KeyPress,
                   "<Btn1Down>": xtypes.ButtonPress,
                   "<EnterWindow>": xtypes.EnterNotify}
        for code, valid_types in ACTION_CODE_EVENTS.items():
            if code == "t":
                continue  # %t substitutes "unknown" instead of ""
            for event, etype in type_of.items():
                script = ("label l topLevel\n"
                          "action l override {%s: exec(echo %%%s)}\n"
                          % (event, code))
                diags = [d for d in check(script) if d.code == "W004"]
                if etype in valid_types:
                    assert diags == [], (code, event)
                else:
                    assert len(diags) == 1, (code, event)


class TestPercentContextMismatch:  # W005
    def test_action_code_in_callback(self):
        script = ("command c topLevel label OK\n"
                  "addCallback c callback {echo %x}\n")
        (diag,) = only(check(script), "W005")
        assert diag.severity == ERROR
        assert "action percent code" in diag.message

    def test_callback_code_in_action(self):
        script = "label l topLevel\n" \
                 "action l override {<KeyPress>: exec(echo %i)}\n"
        (diag,) = only(check(script), "W005")
        assert "callback percent code" in diag.message

    def test_class_codes_are_valid_in_their_callback(self):
        script = ("list lst topLevel list {a b}\n"
                  "sV lst callback {echo picked %s at %i on %w}\n")
        assert check(script) == []

    def test_universal_w_is_valid_everywhere(self):
        script = ("command c topLevel label OK\n"
                  "addCallback c callback {echo %w %%}\n"
                  "action c override {<Btn1Down>: exec(echo %w)}\n")
        assert check(script) == []


class TestUnbalancedDelimiter:  # W006
    def test_missing_close_bracket_position(self):
        (diag,) = check("set y [unclosed\n")
        assert diag.code == "W006"
        assert (diag.line, diag.col) == (1, 7)

    def test_missing_close_brace(self):
        diags = only(check("echo {unclosed\n"), "W006")
        assert diags[0].col == 6

    def test_recovery_continues_past_the_error(self):
        script = "set y [unclosed\nfrobnicate\n"
        found = codes(check(script))
        assert "W006" in found and "W001" in found

    def test_error_inside_proc_body_composes_position(self):
        script = 'proc f {} {\n    echo "unclosed\n}\nf\n'
        diags = only(check(script), "W006")
        assert diags[0].line == 2


class TestBadTranslation:  # W007
    def test_unknown_event_type(self):
        script = "label l topLevel\n" \
                 "action l override {<WheelUp>: exec(echo hi)}\n"
        (diag,) = only(check(script), "W007")
        assert diag.severity == ERROR
        assert diag.line == 2

    def test_unknown_action_name(self):
        script = ("command c topLevel label OK\n"
                  "action c override {<Btn1Down>: frobnicate()}\n")
        (diag,) = only(check(script), "W007")
        assert diag.severity == WARNING
        assert "frobnicate" in diag.message

    def test_override_translations_action_name(self):
        script = ("command c topLevel label OK\n"
                  "overrideTranslations c {<Btn1Down>: frobnicate()}\n")
        (diag,) = only(check(script), "W007")
        assert "frobnicate" in diag.message and diag.line == 2

    def test_class_actions_are_known(self):
        script = ("command c topLevel label OK\n"
                  "action c override {<Btn1Down>: set() notify() unset()}\n")
        assert check(script) == []

    def test_bad_mode(self):
        script = "label l topLevel\n" \
                 "action l sideways {<Btn1Down>: exec(echo hi)}\n"
        (diag,) = only(check(script), "W007")
        assert "sideways" in diag.message


class TestSuspiciousSet:  # W008
    def test_three_argument_set(self):
        (diag,) = check("set greeting hello world\n")
        assert diag.code == "W008"
        assert diag.severity == WARNING

    def test_normal_set_is_fine(self):
        assert check("set greeting {hello world}\nset copy $greeting\n") \
            == []


class TestUnbracedExpr:  # W009
    def test_expr_with_dollar(self):
        (diag,) = check("set x 1\nexpr $x + 1\n")
        assert diag.code == "W009"
        assert diag.severity == WARNING
        assert diag.line == 2

    def test_if_condition(self):
        diags = only(check('set x 1\nif "$x > 1" { echo big }\n'), "W009")
        assert diags[0].line == 2

    def test_for_condition(self):
        script = 'set n 3\nfor {set i 0} "$i < $n" {incr i} { echo $i }\n'
        (diag,) = only(check(script), "W009")
        assert diag.line == 2

    def test_braced_forms_are_silent(self):
        # (W015 legitimately proves the if-branch dead -- x is the
        # constant 1 -- so only assert the absence of W009 here.)
        script = ("set x 1\n"
                  "if {$x > 1} { echo big }\n"
                  "while {$x < 3} { incr x }\n"
                  "echo [expr {$x * 2}]\n")
        assert "W009" not in codes(check(script))


class TestUnreachableCode:  # W010
    def test_code_after_return(self):
        script = "proc f {} {\n    return\n    echo never\n}\nf\n"
        (diag,) = only(check(script), "W010")
        assert diag.severity == WARNING
        assert (diag.line, diag.col) == (3, 5)

    def test_code_after_break(self):
        script = "while {1} {\n    break\n    echo never\n}\n"
        (diag,) = only(check(script), "W010")
        assert diag.line == 3

    def test_terminator_last_is_fine(self):
        assert check("proc f {} {\n    echo hi\n    return\n}\nf\n") == []


# ---------------------------------------------------------------------------
# Cross-cutting properties


class TestAcceptance:
    """The ISSUE's acceptance bar: one broken script, many rules, all
    positions exact, same through text and JSON."""

    BROKEN = (
        "proc greet {name} {\n"
        "    echo hello $name\n"
        "}\n"
        "greet a b\n"                                   # W017 @ 4:1
        "frobnicate 1 2\n"                              # W001 @ 5:1
        "label lbl topLevel labell hi\n"                # W003 @ 6:20
        "command c topLevel label OK\n"
        "addCallback c callback {echo pressed %x}\n"    # W005 @ 8:38
        "action c override {<Btn1Down>: exec(echo %a)}\n"  # W004
        "set x 1 2\n"                                   # W008 @ 10:1
        "expr $x + 1\n"                                 # W009 @ 11:6
        "return\n"
        "echo unreachable\n"                            # W010 @ 13:1
        "set y [unclosed\n"                             # W006 @ 14:7
    )

    def test_at_least_four_distinct_rules(self):
        distinct = set(codes(check(self.BROKEN)))
        assert len(distinct) >= 4
        assert {"W001", "W017", "W003", "W006"} <= distinct

    def test_positions(self):
        by_code = {}
        for diag in check(self.BROKEN, filename="broken.wafe"):
            by_code.setdefault(diag.code, diag)
        assert (by_code["W017"].line, by_code["W017"].col) == (4, 1)
        assert (by_code["W001"].line, by_code["W001"].col) == (5, 1)
        assert (by_code["W003"].line, by_code["W003"].col) == (6, 20)
        assert (by_code["W005"].line, by_code["W005"].col) == (8, 38)
        assert (by_code["W008"].line, by_code["W008"].col) == (10, 1)
        assert (by_code["W009"].line, by_code["W009"].col) == (11, 6)
        assert (by_code["W010"].line, by_code["W010"].col) == (13, 1)
        assert (by_code["W006"].line, by_code["W006"].col) == (14, 7)

    def test_text_format(self):
        (diag,) = check("frobnicate\n", filename="x.wafe")
        assert diag.format() == \
            'x.wafe:1:1: error: unknown command "frobnicate" ' \
            "[W001 unknown-command]"

    def test_json_round_trip(self):
        (diag,) = check("frobnicate\n", filename="x.wafe")
        data = json.loads(json.dumps(diag.as_dict()))
        assert data == {"code": "W001", "rule": "unknown-command",
                        "severity": "error",
                        "message": 'unknown command "frobnicate"',
                        "file": "x.wafe", "line": 1, "col": 1}

    def test_every_shipped_rule_is_exercised_somewhere(self):
        # Lexical rules are covered here; the flow-sensitive rules
        # (W012..W017) live in tests/test_lint_flow.py.
        text = ""
        for name in ("test_lint.py", "test_lint_flow.py"):
            with open(os.path.join(os.path.dirname(__file__), name),
                      "r") as handle:
                text += handle.read()
        for code in RULES:
            assert text.count(code) >= 2, "rule %s lacks a test" % code


class TestSafeProfile:
    """W011: commands the runtime hides under --safe."""

    def test_hidden_commands_flagged_with_reason(self):
        diags = check("source helpers.wafe\nsetPrefix @\n",
                      safe_profile=True)
        assert codes(diags) == ["W011", "W011"]
        assert "hidden in safe mode" in diags[0].message
        assert "filesystem" in diags[0].message  # the reason, inline

    def test_off_by_default(self):
        assert check("source helpers.wafe\n") == []

    def test_flags_match_the_runtime_hidden_set(self):
        # The rule and the runtime hide from the same table: every
        # entry is flagged, and a non-entry never is.
        from repro.core.safemode import SAFE_HIDDEN_COMMANDS

        script = "".join("%s x\n" % name
                         for name in sorted(SAFE_HIDDEN_COMMANDS))
        diags = [d for d in check(script, safe_profile=True)
                 if d.code == "W011"]
        assert len(diags) == len(SAFE_HIDDEN_COMMANDS)
        assert all(d.code == "W011"
                   for d in check("echo hi\n", safe_profile=True)) is True

    def test_cli_safe_profile_flag(self, tmp_path, capsys):
        from repro.lint.cli import main

        path = tmp_path / "app.wafe"
        path.write_text("source helpers.wafe\n")
        assert main([str(path)]) == 0
        capsys.readouterr()
        assert main(["--safe-profile", str(path)]) == 1
        out = capsys.readouterr().out
        assert "W011" in out


class TestTermination:
    """The linter never executes scripts: hostile input finishes fast."""

    CASES = {
        "infinite-loop": "while {1} { echo spin }\n",
        "exit": "exit\n",
        "exec": "exec rm -rf /\n",
        "recursion": "proc f {} { f }\nf\n",
        "deep-nesting": ("if {1} " + "{ if {1} " * 100 + "{ echo x }"
                         + " }" * 100 + "\n"),
        "many-commands": "echo hi\n" * 5000,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_terminates_quickly(self, name):
        start = time.time()
        check(self.CASES[name])
        assert time.time() - start < 5.0

    def test_never_touches_the_interpreter(self, tmp_path):
        # A script whose execution would be observable.
        marker = tmp_path / "marker"
        script = "puts [open %s w] oops\n" % marker
        check(script)
        assert not marker.exists()


class TestExtraction:
    def test_python_run_script_literals(self):
        source = (
            "def build(wafe):\n"
            '    wafe.run_script("form f topLevel")\n'
            '    wafe.run_script("label l f label hi"\n'
            '                    " borderWidth 0")\n'
        )
        chunks, extra = extract_python(source)
        assert [c.text for c in chunks] == \
            ["form f topLevel", "label l f label hi borderWidth 0"]
        assert chunks[0].line == 2
        assert extra == set()

    def test_python_percent_formats_are_neutralized(self):
        source = 'w.run_script("sV lbl label {%s}" % value)\n'
        chunks, __ = extract_python(source)
        assert chunks[0].text == "sV lbl label {$0}"
        assert len(chunks[0].text) == len("sV lbl label {%s}")

    def test_neutralized_placeholder_reads_as_dynamic(self):
        # A placeholder in command position must not produce a bogus
        # "unknown command" against the literal filler text: the $0
        # marker makes the word dynamic, which W001 already skips.
        source = 'w.run_script("%s %s topLevel" % (kind, name))\n'
        chunks, __ = extract_python(source)
        assert chunks[0].text == "$0 $0 topLevel"

    def test_double_percent_stays_literal(self):
        source = 'w.run_script("sV g format {%d%%}" % n)\n'
        chunks, __ = extract_python(source)
        assert chunks[0].text == "sV g format {$0%%}"

    def test_skip_pragma_drops_the_literal(self):
        source = (
            'w.run_script("frobnicate now")  # wafelint: skip\n'
            '# wafelint: skip -- deliberately broken\n'
            'w.run_script("zorch")\n'
            'w.run_script(  # wafelint: skip\n'
            '    "mangle everything")\n'
            'w.run_script("form f topLevel")\n')
        chunks, __ = extract_python(source)
        assert [c.text for c in chunks] == ["form f topLevel"]

    def test_trailing_pragma_does_not_bleed_into_the_next_call(self):
        source = (
            'w.run_script("frobnicate now")  # wafelint: skip\n'
            'w.run_script("zorchify all")\n')
        chunks, __ = extract_python(source)
        assert [c.text for c in chunks] == ["zorchify all"]

    def test_eval_literals_need_opt_in(self):
        source = 'interp.eval("set a 1")\n'
        assert extract_python(source)[0] == []
        chunks, __ = extract_python(source, harvest_eval=True)
        assert [c.text for c in chunks] == ["set a 1"]

    def test_python_register_command_harvested(self):
        source = ('wafe.register_command("showCard", func)\n'
                  'wafe.run_script("sV lst callback {showCard %s}")\n')
        __, extra = extract_python(source)
        assert extra == {"showCard"}

    def test_markdown_tcl_fences(self):
        source = ("# Title\n"
                  "```tcl\n"
                  "form f topLevel\n"
                  "```\n"
                  "```python\n"
                  "print('not tcl')\n"
                  "```\n")
        chunks = extract_markdown(source)
        assert len(chunks) == 1
        assert chunks[0].text == "form f topLevel\n"
        assert chunks[0].line == 3

    def test_lint_file_positions_point_into_the_host_file(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text('wafe.run_script("frobnicate now")\n')
        diags = lint_file(str(path), knowledge_for("athena"))
        (diag,) = only(diags, "W001")
        assert diag.line == 1
        assert diag.file == str(path)

    def test_procs_shared_across_chunks(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(
            'wafe.run_script("proc helper {} { echo hi }")\n'
            'wafe.run_script("helper")\n')
        assert lint_file(str(path), knowledge_for("athena")) == []


class TestCli:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        path = tmp_path / "ok.wafe"
        path.write_text("form f topLevel\nrealize\n")
        assert lint_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_exit_one_on_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.wafe"
        path.write_text("frobnicate\n")
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "W001" in out and "1 error" in out

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        path = tmp_path / "warn.wafe"
        path.write_text("set x 1 2\n")
        assert lint_main([str(path)]) == 0
        assert "W008" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "bad.wafe"
        path.write_text("frobnicate\n")
        assert lint_main(["--format", "json", str(path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 2
        assert data["files"] == 1
        assert data["errors"] == 1
        assert data["diagnostics"][0]["code"] == "W001"
        assert data["diagnostics"][0]["line"] == 1

    def test_json_diagnostics_are_sorted_and_unique(self, tmp_path, capsys):
        path = tmp_path / "multi.wafe"
        path.write_text("frobnicate\nset x 1 2\nfrobnicate\n")
        lint_main(["--format", "json", str(path)])
        data = json.loads(capsys.readouterr().out)
        keys = [(d["file"], d["line"], d["col"], d["code"])
                for d in data["diagnostics"]]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_directory_walk(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.wafe").write_text("frobnicate\n")
        (tmp_path / "b.tcl").write_text("set x 1 2\n")
        (tmp_path / "ignored.txt").write_text("frobnicate\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "W001" in out and "W008" in out

    def test_missing_file_is_status_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "absent.wafe")]) == 2

    def test_extra_commands_flag(self, tmp_path):
        path = tmp_path / "app.wafe"
        path.write_text("myCmd 1\n")
        assert lint_main([str(path)]) == 1
        assert lint_main(["--extra-commands", "myCmd", str(path)]) == 0

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "bad.wafe"
        path.write_text("frobnicate\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(path)],
            env=env, stdout=subprocess.PIPE, timeout=60)
        assert result.returncode == 1
        assert b"W001" in result.stdout

    def test_repo_examples_and_docs_are_clean(self):
        assert lint_main(["--build", "both",
                          os.path.join(REPO, "examples"),
                          os.path.join(REPO, "docs")]) == 0


class TestLintDocs:
    def test_every_rule_is_documented_with_a_firing_example(self):
        # docs/LINT.md has one section per rule; linting each section's
        # example blocks must produce that section's code.
        with open(os.path.join(REPO, "docs", "LINT.md"), "r") as handle:
            text = handle.read()
        sections = re.split(r"^### (W\d{3}) ", text, flags=re.M)
        documented = set()
        for code, body in zip(sections[1::2], sections[2::2]):
            blocks = re.findall(r"^```\n(.*?)^```", body,
                                flags=re.S | re.M)
            assert blocks, "rule %s has no example block" % code
            # safe_profile on: W011 is opt-in and its examples must
            # fire too; it only ever adds diagnostics elsewhere.
            diags = check("\n".join(blocks), build="both",
                          safe_profile=True)
            assert code in codes(diags), \
                "rule %s examples do not trigger it" % code
            documented.add(code)
        assert documented == set(RULES)


class TestFrontendLintFlag:
    def test_file_mode_reports_before_running(self, tmp_path, capsys):
        from repro.core import make_wafe
        from repro.core.modes import run_file
        from repro.xlib import close_all_displays

        close_all_displays()
        script = tmp_path / "app.wafe"
        script.write_text("#!/usr/bin/env wafe\n"
                          "form f topLevel\n"
                          "set x 1\n"
                          "expr $x + 1\n"
                          "quit\n")
        wafe = make_wafe()
        reports = []
        wafe.error_sink = reports.append
        run_file(wafe, str(script), main_loop=False, lint=True)
        assert any("W009" in message for message in reports)
        # Positions refer to the file on disk, shebang included.
        assert any(":4:6:" in message for message in reports)

    def test_lint_accepts_live_registered_commands(self, tmp_path):
        from repro.core import make_wafe
        from repro.core.modes import run_file
        from repro.xlib import close_all_displays

        close_all_displays()
        script = tmp_path / "app.wafe"
        script.write_text("appCmd hello\nquit\n")
        wafe = make_wafe()
        wafe.register_command("appCmd", lambda w, argv: "")
        reports = []
        wafe.error_sink = reports.append
        run_file(wafe, str(script), main_loop=False, lint=True)
        assert reports == []
