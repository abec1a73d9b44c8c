"""The Wafe specification language.

All of Wafe's toolkit commands are generated from a high-level
description; the paper shows the two production kinds::

    ~widgetClass
    XmCascadeButton
    #include <Xm/CascadeB.h>

and::

    void
    XmCascadeButtonHighlight
    in: Widget
    in: Boolean

A ``~widgetClass`` block yields a creation command named after the
class; a function block yields a command named by the prefix-stripping
rules (``XmCascadeButtonHighlight`` -> ``mCascadeButtonHighlight``).
``#include`` lines are kept as metadata (they documented the C header;
here they document provenance).  Extensions over the paper's grammar,
used for structure-returning functions: ``out: StringList`` (Tcl list
into a variable, element count returned) and ``out: Struct field,...``
(entries of a Tcl associative array).
"""


class SpecError(Exception):
    """A specification file failed to parse."""


class WidgetClassSpec:
    """A ~widgetClass block."""

    __slots__ = ("class_name", "include", "lineno")

    def __init__(self, class_name, include=None, lineno=0):
        self.class_name = class_name
        self.include = include
        self.lineno = lineno


class Argument:
    """One ``in:``/``out:`` line."""

    __slots__ = ("direction", "type", "fields")

    def __init__(self, direction, type, fields=None):
        self.direction = direction  # "in" | "out"
        self.type = type
        self.fields = fields or []  # for out: Struct

    def __repr__(self):  # pragma: no cover
        return "Argument(%s: %s)" % (self.direction, self.type)


class FunctionSpec:
    """A function block: return type, C name, arguments."""

    __slots__ = ("return_type", "c_name", "arguments", "include", "lineno",
                 "doc")

    def __init__(self, return_type, c_name, arguments, include=None,
                 lineno=0, doc=""):
        self.return_type = return_type
        self.c_name = c_name
        self.arguments = arguments
        self.include = include
        self.lineno = lineno
        self.doc = doc

    @property
    def out_args(self):
        return [a for a in self.arguments if a.direction == "out"]


#: Types the generator knows how to convert.
KNOWN_IN_TYPES = frozenset((
    "Widget", "WidgetClass", "Boolean", "Int", "Cardinal", "Position",
    "Dimension", "Float", "String", "XmString", "StringList", "GrabKind",
    "Script",
))
KNOWN_OUT_TYPES = frozenset(("StringList", "Struct"))
KNOWN_RETURN_TYPES = frozenset((
    "void", "Boolean", "Int", "Cardinal", "String", "Widget", "Float",
))


def command_name_for(c_name):
    """The paper's naming rule: strip ``Xt``/``Xaw``/``X`` and lowercase
    the first remaining letter (so ``XmFoo`` becomes ``mFoo``)."""
    if c_name.startswith("Xaw"):
        rest = c_name[3:]
    elif c_name.startswith("Xt"):
        rest = c_name[2:]
    elif c_name.startswith("X"):
        rest = c_name[1:]
    else:
        rest = c_name
    if not rest:
        raise SpecError("cannot derive a command name from %r" % c_name)
    return rest[0].lower() + rest[1:]


def creation_command_for(class_name):
    """Widget creation commands use the same rule on the class name."""
    return command_name_for(class_name)


def parse_spec(text, source="<spec>"):
    """Parse a spec file into a list of WidgetClassSpec/FunctionSpec."""
    items = []
    block = []
    block_start = 0
    pending_doc = []

    def flush(lineno):
        if not block:
            return
        items.append(_parse_block(block, block_start, source,
                                  " ".join(pending_doc)))
        del block[:]
        del pending_doc[:]

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        stripped = line.strip()
        if stripped.startswith("!"):
            continue  # file-level comment
        if stripped.startswith("//"):
            pending_doc.append(stripped.lstrip("/").strip())
            continue
        if not stripped:
            flush(lineno)
            continue
        if not block:
            block_start = lineno
        block.append(stripped)
    flush(len(text))
    return items


def _parse_block(lines, lineno, source, doc):
    include = None
    body = []
    for line in lines:
        if line.startswith("#include"):
            include = line[len("#include"):].strip()
        else:
            body.append(line)
    if not body:
        raise SpecError("%s:%d: empty block" % (source, lineno))
    if body[0] == "~widgetClass":
        if len(body) < 2:
            raise SpecError("%s:%d: ~widgetClass needs a class name"
                            % (source, lineno))
        _check_command_name(body[1], source, lineno)
        return WidgetClassSpec(body[1], include, lineno)
    if len(body) < 2:
        raise SpecError("%s:%d: function block needs a return type and name"
                        % (source, lineno))
    return_type = body[0]
    if return_type not in KNOWN_RETURN_TYPES:
        raise SpecError("%s:%d: unknown return type %r"
                        % (source, lineno, return_type))
    c_name = body[1]
    _check_command_name(c_name, source, lineno)
    arguments = []
    for line in body[2:]:
        if ":" not in line:
            raise SpecError("%s:%d: bad argument line %r"
                            % (source, lineno, line))
        direction, rest = line.split(":", 1)
        direction = direction.strip()
        rest = rest.strip()
        if direction == "in":
            if rest not in KNOWN_IN_TYPES:
                raise SpecError("%s:%d: unknown in type %r"
                                % (source, lineno, rest))
            arguments.append(Argument("in", rest))
        elif direction == "out":
            pieces = rest.split(None, 1)
            type_name = pieces[0]
            if type_name not in KNOWN_OUT_TYPES:
                raise SpecError("%s:%d: unknown out type %r"
                                % (source, lineno, type_name))
            fields = []
            if type_name == "Struct":
                if len(pieces) < 2:
                    raise SpecError("%s:%d: out: Struct needs field names"
                                    % (source, lineno))
                fields = [f.strip() for f in pieces[1].split(",")]
            arguments.append(Argument("out", type_name, fields))
        else:
            raise SpecError("%s:%d: bad direction %r"
                            % (source, lineno, direction))
    return FunctionSpec(return_type, c_name, arguments, include, lineno, doc)


def _check_command_name(c_name, source, lineno):
    """Fail at parse time, with the spec position, when a block's name
    cannot be turned into a command name (the emitter would otherwise
    raise the same error with no hint of where it came from)."""
    try:
        command_name_for(c_name)
    except SpecError as err:
        raise SpecError("%s:%d: %s" % (source, lineno, err)) from None
