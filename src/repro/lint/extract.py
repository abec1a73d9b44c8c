"""Finding Wafe scripts inside other files.

Wafe scripts rarely live alone: the examples embed them in Python
string literals passed to ``run_script``, and the docs quote them in
fenced code blocks.  This module pulls those scripts out *with their
file positions* so diagnostics point into the real file, and harvests
``register_command`` calls so application-registered commands are not
reported as unknown.

Python extraction is purely syntactic (:mod:`ast`): plain string
literals are taken as-is; ``"..." % args`` templates are taken from the
literal left operand with every format spec overwritten by a ``$0...``
variable reference of the same length (positions stay exact, and the
analyzer's existing dynamic-name conservatism kicks in -- a
placeholder in command or widget-name position silences the dependent
checks instead of reporting a bogus literal); f-string literal parts
are joined the same way.  ``%%`` is left alone: it reads as the
literal-percent code, which is valid everywhere.

A literal is not harvested at all when a ``# wafelint: skip`` comment
sits on the call's line, the string's own line, or a comment-only
line directly above the call -- the escape hatch for
deliberately-broken scripts in negative tests.  (A *trailing* pragma
on the previous line belongs to that line's call and does not bleed
downward.)
"""

import ast
import re

#: Methods whose first string argument is a Wafe/Tcl script.
SCRIPT_CALLS = frozenset(("run_script", "run_command_line"))

#: Additionally harvested with ``--harvest-eval``: raw interpreter
#: evals, common in tests.  Off by default because test corpora are
#: full of deliberately hostile scripts.
EVAL_CALLS = frozenset(("eval",))

#: Methods whose first string argument names an application command.
REGISTER_CALLS = frozenset(("register_command", "register"))

#: Markdown fence languages treated as Wafe script.
FENCE_LANGUAGES = frozenset(("tcl", "wafe"))

_FORMAT_SPEC = re.compile(
    r"%(?:\([^)]*\))?[-#0 +]*(?:\d+|\*)?(?:\.(?:\d+|\*))?"
    r"[diouxXeEfFgGcrsa%]")


class Chunk:
    """One extracted script with its base position in the host file.

    ``embedded`` marks chunks harvested out of a host program (Python
    string literals): the host runs them interleaved with arbitrary
    interpreter mutations -- ``set_var`` calls, backend processes
    sending ``%set`` protocol lines over a pipe -- so flow analysis
    must assume any variable may already be defined when the chunk
    starts.  Whole script files and Markdown fences (self-contained
    examples) are not embedded.
    """

    __slots__ = ("text", "line", "col", "embedded")

    def __init__(self, text, line=1, col=1, embedded=False):
        self.text = text
        self.line = line
        self.col = col
        self.embedded = embedded


def _dynamic_marker(length):
    """A ``$0...`` variable reference of exactly ``length`` chars."""
    return "$" + "0" * (length - 1) if length > 1 else "$"


def _neutralize_format(template):
    """Overwrite Python %-format specs with same-length ``$0...``
    variable references, so the analyzer treats the word as dynamic
    (like ``$cmd``) rather than as a bogus literal, and positions of
    everything else stay exact.  ``%%`` stays literal: it denotes a
    single ``%`` and reads as the valid-everywhere percent code."""
    return _FORMAT_SPEC.sub(
        lambda m: m.group(0) if m.group(0) == "%%"
        else _dynamic_marker(len(m.group(0))), template)


def _string_argument(node):
    """(text, approximate) for an argument node carrying a script, or
    (None, False) when it is not statically known."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
            and isinstance(node.left, ast.Constant) \
            and isinstance(node.left.value, str):
        return _neutralize_format(node.left.value), False
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("$0")
        return "".join(parts), True
    return None, False


def _call_name(node):
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


_SKIP_PRAGMA = re.compile(r"#\s*wafelint:\s*skip")


def _line_has_pragma(lines, lineno, comment_only=False):
    if not 0 < lineno <= len(lines):
        return False
    line = lines[lineno - 1]
    if comment_only and not line.lstrip().startswith("#"):
        # A trailing pragma belongs to *that* line's call; it must not
        # bleed into the statement below it.
        return False
    return bool(_SKIP_PRAGMA.search(line))


def _skipped(lines, call_lineno, arg_lineno):
    return (_line_has_pragma(lines, call_lineno)
            or _line_has_pragma(lines, arg_lineno)
            or _line_has_pragma(lines, call_lineno - 1, comment_only=True))


def extract_python(source, harvest_eval=False):
    """(chunks, extra_commands) from Python source.

    Chunks are anchored at the string literal's position (the content
    begins after the opening quote, so columns inside the first line
    are offset by the quote; lines are exact for single-line literals
    and for subsequent physical lines of multi-line literals only when
    the literal is triple-quoted without escapes -- close enough to
    land the reader on the right call).  With ``harvest_eval`` the
    first arguments of bare ``eval`` calls are harvested too.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    script_calls = SCRIPT_CALLS | EVAL_CALLS if harvest_eval \
        else SCRIPT_CALLS
    chunks = []
    extra = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in script_calls and node.args:
            arg = node.args[0]
            if _skipped(lines, node.lineno, arg.lineno):
                continue
            text, __ = _string_argument(arg)
            if text is not None:
                chunks.append(Chunk(text, arg.lineno, arg.col_offset + 2,
                                    embedded=True))
        elif name in REGISTER_CALLS and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                extra.add(arg.value)
    return chunks, extra


_FENCE = re.compile(r"^\s*```\s*(\w*)\s*$")


def extract_markdown(source):
    """Chunks for every \\```tcl / \\```wafe fenced block."""
    chunks = []
    fence_language = None
    block = []
    block_line = 0
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _FENCE.match(line)
        if fence_language is None:
            if match and match.group(1).lower() in FENCE_LANGUAGES:
                fence_language = match.group(1).lower()
                block = []
                block_line = lineno + 1
        elif match and not match.group(1):
            chunks.append(Chunk("\n".join(block) + "\n", block_line, 1))
            fence_language = None
        else:
            block.append(line)
    return chunks


def extract_chunks(path, source, harvest_eval=False):
    """(chunks, extra_commands) for a file, dispatched on extension."""
    if path.endswith(".py"):
        return extract_python(source, harvest_eval=harvest_eval)
    if path.endswith((".md", ".markdown")):
        return extract_markdown(source), set()
    return [Chunk(source)], set()
