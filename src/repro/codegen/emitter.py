"""The code generator: spec -> Python command bindings + reference docs.

The paper's generator is a Perl program emitting C (conversion, argument
passing, error messages, storage management, percent-code
interpretation, command registration) plus TeX for the reference guide.
This generator emits the same layers in Python: argument conversion and
arity checking, native-function dispatch, command registration, and a
Markdown reference manual.  About the same split as the paper results:
the gritty per-command plumbing is generated, the natives and the
irregular commands are handwritten.
"""

from repro.codegen.specparser import (
    FunctionSpec,
    WidgetClassSpec,
    command_name_for,
    creation_command_for,
)

_ARG_USAGE = {
    "Widget": "widget",
    "WidgetClass": "widget",
    "Boolean": "boolean",
    "Int": "int",
    "Cardinal": "int",
    "Position": "position",
    "Dimension": "dimension",
    "Float": "float",
    "String": "string",
    "XmString": "string",
    "StringList": "list",
    "GrabKind": "grabKind",
    "Script": "script",
}

_IN_CONVERSIONS = {
    "Widget": "wafe.lookup_widget(%s)",
    "WidgetClass": "wafe.lookup_widget(%s)",
    "Boolean": "rt.to_boolean(%s)",
    "Int": "rt.to_int(%s)",
    "Cardinal": "rt.to_int(%s)",
    "Position": "rt.to_int(%s)",
    "Dimension": "rt.to_int(%s)",
    "Float": "rt.to_float(%s)",
    "String": "%s",
    "XmString": "%s",
    "StringList": "rt.to_list(%s)",
    "GrabKind": "rt.to_grab_kind(%s)",
    "Script": "%s",
}

_RETURN_CONVERSIONS = {
    "void": "rt.from_void(%s)",
    "Boolean": "rt.from_boolean(%s)",
    "Int": "rt.from_int(%s)",
    "Cardinal": "rt.from_int(%s)",
    "Float": "rt.from_float(%s)",
    "String": "rt.from_string(%s)",
    "Widget": "rt.from_widget(%s)",
}

HEADER = '''\
"""GENERATED CODE -- do not edit.

Produced by repro.codegen from %(source)s; regenerate with
``wafe-codegen``.  Each command follows the paper's conventions:
argument conversion via the runtime helpers, native dispatch through
the handwritten NATIVE table, Tcl-variable returns for list/struct
results.
"""

from repro.core import runtime as rt
from repro.core.natives import NATIVE
from repro.tcl.errors import TclError

'''


def emit_module(specs, source="spec"):
    """Emit a Python module (source text) for a list of spec items."""
    chunks = [HEADER % {"source": source}]
    registrations = []
    for item in specs:
        if isinstance(item, WidgetClassSpec):
            text, name, func = _emit_creation(item)
        else:
            text, name, func = _emit_function(item)
        chunks.append(text)
        registrations.append((name, func))
    chunks.append("COMMANDS = [\n")
    for name, func in registrations:
        chunks.append('    ("%s", %s),\n' % (name, func))
    chunks.append("]\n")
    return "".join(chunks)


def _emit_creation(spec):
    command = creation_command_for(spec.class_name)
    func = "cmd_%s" % command
    lines = [
        "def %s(wafe, argv):" % func,
        '    """Create a managed %s widget (generated)."""'
        % spec.class_name,
        '    return wafe.create_widget("%s", argv)' % spec.class_name,
        "",
        "",
    ]
    return "\n".join(lines), command, func


def _emit_function(spec):
    command = command_name_for(spec.c_name)
    func = "cmd_%s" % command
    usage_parts = [command]
    for arg in spec.arguments:
        if arg.direction == "in":
            usage_parts.append(_ARG_USAGE[arg.type])
        else:
            usage_parts.append("varName")
    usage = " ".join(usage_parts)
    arity = 1 + len(spec.arguments)
    lines = [
        "def %s(wafe, argv):" % func,
        '    """%s (generated from %s)."""' % (spec.doc or "Wafe command",
                                               spec.c_name),
        "    if len(argv) != %d:" % arity,
        "        raise TclError('wrong # args: should be \"%s\"')" % usage,
    ]
    call_args = []
    out_slots = []
    for index, arg in enumerate(spec.arguments, 1):
        var = "arg%d" % index
        if arg.direction == "in":
            conversion = _IN_CONVERSIONS[arg.type] % ("argv[%d]" % index)
            lines.append("    %s = %s" % (var, conversion))
            call_args.append(var)
        else:
            out_slots.append((index, arg))
    call = 'NATIVE["%s"](wafe, %s)' % (spec.c_name, ", ".join(call_args))
    if out_slots:
        names = ["ret"] + ["out%d" % i for i, __ in out_slots]
        lines.append("    %s = %s" % (", ".join(names), call))
        for slot_index, (argv_index, arg) in enumerate(out_slots):
            out_var = "out%d" % argv_index
            if arg.type == "StringList":
                lines.append(
                    "    rt.set_list_var(wafe, argv[%d], %s)"
                    % (argv_index, out_var))
            else:  # Struct
                lines.append(
                    "    rt.set_struct_var(wafe, argv[%d], %s, %r)"
                    % (argv_index, out_var, arg.fields))
        if spec.return_type in ("Cardinal", "Int"):
            lines.append("    if ret is None:")
            lines.append("        ret = len(out%d)" % out_slots[0][0])
        lines.append("    return %s"
                     % (_RETURN_CONVERSIONS[spec.return_type] % "ret"))
    else:
        lines.append("    ret = %s" % call)
        lines.append("    return %s"
                     % (_RETURN_CONVERSIONS[spec.return_type] % "ret"))
    lines.extend(["", ""])
    return "\n".join(lines), command, func


def emit_reference(specs, source="spec"):
    """Emit the short-reference manual (Markdown stands in for TeX)."""
    lines = [
        "# Wafe command reference (generated from %s)" % source,
        "",
        "| Wafe command | C counterpart | arguments | returns |",
        "|---|---|---|---|",
    ]
    for item in specs:
        if isinstance(item, WidgetClassSpec):
            command = creation_command_for(item.class_name)
            lines.append(
                "| `%s name parent ?attr value ...?` | XtCreateManagedWidget"
                "(%s) | widget and parent names, resources | widget name |"
                % (command, item.class_name))
        else:
            command = command_name_for(item.c_name)
            args = []
            for arg in item.arguments:
                if arg.direction == "in":
                    args.append(_ARG_USAGE[arg.type])
                else:
                    args.append("varName(%s)" % arg.type)
            lines.append("| `%s` | %s | %s | %s |"
                         % (command, item.c_name,
                            ", ".join(args) or "-", item.return_type))
    lines.extend([
        "",
        "Runtime introspection (handwritten, listed for completeness):",
        "`info stats ?pattern? ?-reset?` returns every runtime counter",
        "as a sorted `source.key value` list (`array set s [info",
        "stats]` works), e.g. `tcl.bytecode.hits`,",
        "`tcl.eval.firewall_catches`, `xt.xrm.searchlist_hits`,",
        "`xt.event.polls`, `xlib.render.drawn_pixels` or",
        "`core.channel.pipe_writes`;",
        "`pattern` is a glob on the dotted key, and `-reset` zeroes the",
        "matching sources unless one of them is shared (`tcl.expr`,",
        "`server`, a server session's `xt.event`), in which case it",
        "fails and resets nothing.  `info bytecode disassemble script`",
        "returns the compiled listing for a script.  The counters are",
        "documented in docs/PERFORMANCE.md.  `info hidden ?pattern?`",
        "lists safe-mode-hidden commands; `evalLimit ?timeMs?",
        "?commands?`, `recursionLimit ?limit?`, and `safeMode ?on?`",
        "configure the limits at runtime.  All are documented in",
        "docs/ROBUSTNESS.md.  Under `wafe --serve` (the multi-session",
        "server) each connected client additionally has `sessionQuota",
        "?name? ?value?` to inspect or tune its own resource budget,",
        "and `info stats server.*` reads the shared server ledger",
        "(sessions accepted/active/refused/reaped, quota trips by kind,",
        "dispatch latency percentiles); both are documented in",
        "docs/SERVER.md.",
        "",
    ])
    return "\n".join(lines)


def generation_stats(specs, generated_source):
    """Line statistics for the paper's 60 %-generated claim."""
    return {
        "commands": len(specs),
        "generated_lines": len(generated_source.splitlines()),
    }
