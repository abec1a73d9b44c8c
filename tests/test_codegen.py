"""Tests for the code generator: spec language, naming, emission."""

import pytest

from repro import codegen
from repro.codegen.emitter import emit_module, emit_reference
from repro.codegen.specparser import (
    FunctionSpec,
    SpecError,
    WidgetClassSpec,
    command_name_for,
    creation_command_for,
    parse_spec,
)

PAPER_CLASS_SPEC = """\
~widgetClass
XmCascadeButton
#include <Xm/CascadeB.h>
"""

PAPER_FUNCTION_SPEC = """\
void
XmCascadeButtonHighlight
in: Widget
in: Boolean
"""


class TestNamingConventions:
    """The paper's prefix-stripping rules, including its own examples."""

    def test_xt_prefix(self):
        assert command_name_for("XtDestroyWidget") == "destroyWidget"

    def test_xaw_prefix(self):
        # "XawFormAllowResize is called formAllowResize"
        assert command_name_for("XawFormAllowResize") == "formAllowResize"

    def test_motif_m_prefix(self):
        # "XmCommandAppendValue is therefore called mCommandAppendValue"
        assert command_name_for("XmCommandAppendValue") == \
            "mCommandAppendValue"

    def test_creation_commands(self):
        assert creation_command_for("Toggle") == "toggle"
        assert creation_command_for("XmCascadeButton") == "mCascadeButton"
        assert creation_command_for("AsciiText") == "asciiText"

    def test_no_prefix_passes_through(self):
        assert command_name_for("PlotterSetData") == "plotterSetData"


class TestSpecParsing:
    def test_paper_widget_class_block(self):
        items = parse_spec(PAPER_CLASS_SPEC)
        assert len(items) == 1
        spec = items[0]
        assert isinstance(spec, WidgetClassSpec)
        assert spec.class_name == "XmCascadeButton"
        assert spec.include == "<Xm/CascadeB.h>"

    def test_paper_function_block(self):
        items = parse_spec(PAPER_FUNCTION_SPEC)
        spec = items[0]
        assert isinstance(spec, FunctionSpec)
        assert spec.return_type == "void"
        assert spec.c_name == "XmCascadeButtonHighlight"
        assert [(a.direction, a.type) for a in spec.arguments] == \
            [("in", "Widget"), ("in", "Boolean")]

    def test_blank_lines_separate_blocks(self):
        items = parse_spec(PAPER_CLASS_SPEC + "\n" + PAPER_FUNCTION_SPEC)
        assert len(items) == 2

    def test_comments_become_docs(self):
        items = parse_spec("// Toggle the state\nvoid\nFoo\nin: Widget\n")
        assert items[0].doc == "Toggle the state"

    def test_out_struct_fields(self):
        items = parse_spec("Int\nFoo\nin: Widget\nout: Struct index,string\n")
        out = items[0].out_args[0]
        assert out.fields == ["index", "string"]

    def test_unknown_type_rejected(self):
        with pytest.raises(SpecError, match="unknown in type"):
            parse_spec("void\nFoo\nin: Quux\n")

    def test_unknown_return_rejected(self):
        with pytest.raises(SpecError, match="unknown return type"):
            parse_spec("quux\nFoo\nin: Widget\n")

    def test_every_spec_error_carries_file_and_line(self):
        # filename:lineno: so a bad spec line is findable in an editor.
        bad_blocks = [
            ("void\nXt\nin: Widget\n", 1),          # underivable name
            ("~widgetClass\n", 1),                   # missing class name
            ("void\nFoo\nin: Quux\n", 1),            # unknown in type
            ("quux\nFoo\n", 1),                      # unknown return type
            ("void\nFoo\nbroken line\n", 1),         # bad argument line
            ("void\nFoo\nout: Struct\n", 1),         # missing fields
            ("void\nFoo\nsideways: Widget\n", 1),    # bad direction
        ]
        for text, lineno in bad_blocks:
            with pytest.raises(SpecError) as exc:
                parse_spec(text, source="bad.spec")
            assert str(exc.value).startswith("bad.spec:%d:" % lineno), \
                (text, str(exc.value))

    def test_spec_error_line_points_at_the_block(self):
        text = "void\nFoo\nin: Widget\n\n\nvoid\nXt\n"
        with pytest.raises(SpecError, match=r"^bad\.spec:6:"):
            parse_spec(text, source="bad.spec")


class TestEmission:
    def test_generated_module_compiles(self):
        items = parse_spec(PAPER_CLASS_SPEC + "\n" + PAPER_FUNCTION_SPEC)
        source = emit_module(items, source="test.spec")
        compile(source, "<test>", "exec")

    def test_generated_module_registers_both_commands(self):
        items = parse_spec(PAPER_CLASS_SPEC + "\n" + PAPER_FUNCTION_SPEC)
        source = emit_module(items)
        assert '("mCascadeButton", cmd_mCascadeButton)' in source
        assert '("mCascadeButtonHighlight", cmd_mCascadeButtonHighlight)' \
            in source

    def test_arity_check_in_generated_code(self):
        items = parse_spec(PAPER_FUNCTION_SPEC)
        source = emit_module(items)
        assert "if len(argv) != 3:" in source
        assert "mCascadeButtonHighlight widget boolean" in source

    def test_reference_manual_lists_commands(self):
        items = parse_spec(PAPER_CLASS_SPEC + "\n" + PAPER_FUNCTION_SPEC)
        reference = emit_reference(items)
        assert "`mCascadeButton name parent" in reference
        assert "XmCascadeButtonHighlight" in reference


class TestShippedSpecs:
    def test_athena_build_compiles(self):
        commands, source = codegen.compile_commands("athena")
        names = {name for name, __ in commands}
        assert {"label", "command", "toggle", "asciiText",
                "destroyWidget", "getResourceList",
                "formAllowResize", "popup", "barGraph"} <= names

    def test_motif_build_compiles(self):
        commands, __ = codegen.compile_commands("motif")
        names = {name for name, __ in commands}
        assert {"mLabel", "mPushButton", "mCascadeButton",
                "mCascadeButtonHighlight", "mCommandAppendValue",
                "destroyWidget"} <= names
        assert "label" not in names  # Athena classes not mixed in

    def test_every_function_spec_has_a_native(self):
        from repro.core.natives import NATIVE

        for build in ("athena", "motif"):
            items = codegen.load_specs(codegen.BUILD_SPECS[build])
            for item in items:
                if isinstance(item, FunctionSpec):
                    assert item.c_name in NATIVE, \
                        "missing native for %s" % item.c_name

    def test_every_widget_class_spec_has_a_class(self):
        from repro.core.wafe import _class_table

        for build in ("athena", "motif"):
            table = _class_table(build)
            items = codegen.load_specs(codegen.BUILD_SPECS[build])
            for item in items:
                if isinstance(item, WidgetClassSpec):
                    assert item.class_name in table, \
                        "missing class %s" % item.class_name

    def test_reference_generation(self):
        reference = codegen.generate_reference("athena")
        assert "| `label name parent" in reference

    def test_fraction_generated_reproduces_claim(self):
        # The paper: "about 60% of the code is generated automatically".
        stats = codegen.fraction_generated()
        assert stats["generated_lines"] > 0
        assert stats["handwritten_lines"] > 0
        assert 0.35 <= stats["fraction_generated"] <= 0.8


class TestCli:
    def test_writes_module_and_reference(self, tmp_path, capsys):
        from repro.codegen.cli import main

        assert main(["--build", "motif", "--out", str(tmp_path)]) == 0
        module = (tmp_path / "wafe_commands_motif.py").read_text()
        assert module == codegen.generate_command_module("motif")[0]
        assert (tmp_path / "wafe_reference_motif.md").read_text() == \
            codegen.generate_reference("motif")
        assert "wafe_reference_motif.md" in capsys.readouterr().out

    def test_stats(self, capsys):
        from repro.codegen.cli import main

        assert main(["--stats"]) == 0
        assert "fraction generated:" in capsys.readouterr().out
