"""The Tcl script parser.

Tcl's evaluation model parses a script into *commands* (separated by
newlines or semicolons), each command into *words*, and each word into
*parts*: literal text, variable substitutions (``$name``,
``$name(index)``, ``${name}``), and command substitutions (``[...]``).
Braced words suppress all substitution; double-quoted words allow it but
group whitespace.  Backslash sequences are resolved at parse time.

The parser is substitution-free: it produces a tree that the interpreter
walks at evaluation time, so the same parsed body can be re-evaluated
cheaply (procedure bodies, loop bodies).  A small cache keyed on the
script string makes repeated ``eval`` of identical strings fast, which
matters for Wafe where callbacks are Tcl strings evaluated on every
event.
"""

from repro.tcl.cache import LRUCache
from repro.tcl.errors import TclError

# Part kinds.  A word is a list of (kind, payload) tuples.
LITERAL = "lit"
VARSUB = "var"  # payload: (name, index_parts_or_None)
CMDSUB = "cmd"  # payload: script string


class Word:
    """One parsed word: an ordered list of parts plus quoting info.

    ``pos`` is the absolute character offset of the word's first
    character in the script string handed to :func:`parse_script`
    (the opening brace/quote for braced/quoted words).  Combined with
    :func:`line_col` it gives exact source positions to error messages
    and the static analyzer without any per-character bookkeeping in
    the hot parsing loops.
    """

    __slots__ = ("parts", "braced", "pos")

    def __init__(self, parts, braced=False, pos=0):
        self.parts = parts
        self.braced = braced
        self.pos = pos

    def is_literal(self):
        return len(self.parts) == 1 and self.parts[0][0] == LITERAL

    def literal_value(self):
        return self.parts[0][1]

    def __repr__(self):  # pragma: no cover - debugging aid
        return "Word(%r, braced=%r)" % (self.parts, self.braced)


def line_col(script, pos):
    """The 1-based (line, column) of character offset ``pos``.

    Computed on demand -- parsing only records integer offsets, so the
    common case (no error, no lint) never pays for line accounting.
    """
    if pos < 0:
        pos = 0
    if pos > len(script):
        pos = len(script)
    line = script.count("\n", 0, pos) + 1
    last_nl = script.rfind("\n", 0, pos)
    return line, pos - last_nl


def _parse_error(message, script, pos):
    """Raise a TclError pointing at ``pos`` in ``script``."""
    line, col = line_col(script, pos)
    raise TclError("%s (line %d column %d)" % (message, line, col),
                   line=line, col=col)


_ESCAPES = {
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "v": "\v",
}

_VARNAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


def backslash_char(script, pos):
    """Resolve the backslash sequence starting at ``script[pos] == '\\'``.

    Returns ``(text, next_pos)``.  Follows Tcl's rules: named escapes,
    ``\\xHH`` hex, ``\\ooo`` octal (up to three digits), backslash-newline
    (plus following whitespace) collapsing to a single space, and any
    other character standing for itself.
    """
    nxt = pos + 1
    if nxt >= len(script):
        return "\\", nxt
    ch = script[nxt]
    if ch in _ESCAPES:
        return _ESCAPES[ch], nxt + 1
    if ch == "\n":
        end = nxt + 1
        while end < len(script) and script[end] in " \t":
            end += 1
        return " ", end
    if ch == "x":
        end = nxt + 1
        while end < len(script) and script[end] in "0123456789abcdefABCDEF":
            end += 1
        if end == nxt + 1:
            return "x", end
        # Tcl keeps only the last 8 bits of a long hex escape.
        return chr(int(script[nxt + 1 : end], 16) & 0xFF), end
    if ch in "01234567":
        end = nxt
        while end < len(script) and end < nxt + 3 and script[end] in "01234567":
            end += 1
        return chr(int(script[nxt:end], 8) & 0xFF), end
    return ch, nxt + 1


def _find_matching_bracket(script, pos):
    """Find the ``]`` matching the ``[`` at ``script[pos]``.

    Tracks nested brackets and skips braced and quoted regions and
    backslash escapes, mirroring how Tcl's recursive parser would consume
    the nested script.
    """
    depth = 0
    i = pos
    n = len(script)
    while i < n:
        ch = script[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return i
        elif ch == "{":
            i = _skip_braces(script, i)
            continue
        elif ch == '"':
            i = _skip_quotes(script, i)
            continue
        i += 1
    _parse_error("missing close-bracket", script, pos)


def _skip_braces(script, pos):
    """Return the index just past the brace block starting at ``pos``."""
    depth = 0
    i = pos
    n = len(script)
    while i < n:
        ch = script[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    _parse_error("missing close-brace", script, pos)


def _skip_quotes(script, pos):
    """Return the index just past the quoted region starting at ``pos``."""
    i = pos + 1
    n = len(script)
    while i < n:
        ch = script[i]
        if ch == "\\":
            i += 2
            continue
        if ch == '"':
            return i + 1
        i += 1
    _parse_error('missing "', script, pos)


def parse_varsub(script, pos):
    """Parse the variable substitution at ``script[pos] == '$'``.

    Returns ``(part_or_None, next_pos)``.  ``None`` means the dollar sign
    did not introduce a substitution (bare ``$``), in which case the
    caller should treat it as a literal character.
    """
    n = len(script)
    i = pos + 1
    if i >= n:
        return None, pos + 1
    if script[i] == "{":
        end = script.find("}", i + 1)
        if end < 0:
            _parse_error("missing close-brace for variable name",
                         script, pos)
        return (VARSUB, (script[i + 1 : end], None)), end + 1
    start = i
    while i < n and script[i] in _VARNAME_CHARS:
        i += 1
    if i == start:
        return None, pos + 1
    name = script[start:i]
    if i < n and script[i] == "(":
        # Array reference: the index itself undergoes substitution.
        depth = 0
        j = i
        while j < n:
            ch = script[j]
            if ch == "\\":
                j += 2
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= n:
            _parse_error("missing )", script, i)
        index_parts = _parse_part_string(script, i + 1, j)
        return (VARSUB, (name, index_parts)), j + 1
    return (VARSUB, (name, None)), i


def _parse_part_string(script, start, stop):
    """Parse a region of ``script`` (e.g. an array index) into
    substitution parts.  Operating on the full string with bounds --
    rather than on a slice -- keeps every position absolute, so parse
    errors from nested constructs point at the real source location."""
    parts = []
    buf = []
    i = start
    while i < stop:
        ch = script[i]
        if ch == "\\":
            out, i = backslash_char(script, i)
            buf.append(out)
        elif ch == "$":
            part, nxt = parse_varsub(script, i)
            if part is None:
                buf.append("$")
                i = nxt
            else:
                if buf:
                    parts.append((LITERAL, "".join(buf)))
                    buf = []
                parts.append(part)
                i = nxt
        elif ch == "[":
            end = _find_matching_bracket(script, i)
            if buf:
                parts.append((LITERAL, "".join(buf)))
                buf = []
            parts.append((CMDSUB, script[i + 1 : end]))
            i = end + 1
        else:
            buf.append(ch)
            i += 1
    if buf or not parts:
        parts.append((LITERAL, "".join(buf)))
    return parts


def _strip_brace_body(body):
    """Process backslash-newline inside a braced word.

    Everything else inside braces is literal, but Tcl still collapses
    backslash-newline sequences to a space so long lines can be wrapped.
    """
    if "\\\n" not in body:
        return body
    out = []
    i = 0
    n = len(body)
    while i < n:
        if body[i] == "\\" and i + 1 < n and body[i + 1] == "\n":
            out.append(" ")
            i += 2
            while i < n and body[i] in " \t":
                i += 1
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


class ParsedCommand:
    """One command: a sequence of :class:`Word` objects.

    ``pos`` is the absolute offset of the command's first word in the
    parsed script (0 for an empty command).
    """

    __slots__ = ("words", "pos")

    def __init__(self, words, pos=0):
        self.words = words
        self.pos = pos


def parse_script(script):
    """Parse a full script into a list of :class:`ParsedCommand`."""
    commands = []
    pos = 0
    n = len(script)
    while pos < n:
        cmd, pos = _parse_command(script, pos)
        if cmd is not None and cmd.words:
            commands.append(cmd)
    return commands


def _parse_command(script, pos):
    n = len(script)
    # Skip leading whitespace, separators, and comments.
    while pos < n:
        ch = script[pos]
        if ch in " \t\n;":
            pos += 1
        elif ch == "\\" and pos + 1 < n and script[pos + 1] == "\n":
            pos += 2
        elif ch == "#":
            while pos < n and script[pos] != "\n":
                if script[pos] == "\\" and pos + 1 < n and script[pos + 1] == "\n":
                    pos += 2
                else:
                    pos += 1
        else:
            break
    if pos >= n:
        return None, pos

    words = []
    start = pos
    while pos < n:
        ch = script[pos]
        if ch in "\n;":
            pos += 1
            break
        if ch in " \t":
            pos += 1
            continue
        if ch == "\\" and pos + 1 < n and script[pos + 1] == "\n":
            pos += 2
            continue
        word, pos = _parse_word(script, pos)
        words.append(word)
    return ParsedCommand(words, start), pos


def _parse_word(script, pos):
    ch = script[pos]
    if ch == "{":
        end = _skip_braces(script, pos)
        body = _strip_brace_body(script[pos + 1 : end - 1])
        if end < len(script) and script[end] not in " \t\n;":
            _parse_error("extra characters after close-brace", script, end)
        return Word([(LITERAL, body)], braced=True, pos=pos), end
    if ch == '"':
        end = _skip_quotes(script, pos)
        parts = _parse_part_string_quoted(script, pos + 1, end - 1)
        if end < len(script) and script[end] not in " \t\n;":
            _parse_error("extra characters after close-quote", script, end)
        return Word(parts, pos=pos), end
    return _parse_bare_word(script, pos)


def _parse_part_string_quoted(script, start, stop):
    """Parse the interior of a double-quoted word (substitutions active)."""
    parts = []
    buf = []
    i = start
    while i < stop:
        ch = script[i]
        if ch == "\\":
            out, i = backslash_char(script, i)
            buf.append(out)
        elif ch == "$":
            part, nxt = parse_varsub(script, i)
            if part is None:
                buf.append("$")
                i = nxt
            else:
                if buf:
                    parts.append((LITERAL, "".join(buf)))
                    buf = []
                parts.append(part)
                i = nxt
        elif ch == "[":
            end = _find_matching_bracket(script, i)
            if buf:
                parts.append((LITERAL, "".join(buf)))
                buf = []
            parts.append((CMDSUB, script[i + 1 : end]))
            i = end + 1
        else:
            buf.append(ch)
            i += 1
    if buf or not parts:
        parts.append((LITERAL, "".join(buf)))
    return parts


def _parse_bare_word(script, pos):
    parts = []
    buf = []
    i = pos
    n = len(script)
    while i < n:
        ch = script[i]
        if ch in " \t\n;":
            break
        if ch == "\\":
            if i + 1 < n and script[i + 1] == "\n":
                break  # line continuation ends the word
            out, i = backslash_char(script, i)
            buf.append(out)
        elif ch == "$":
            part, nxt = parse_varsub(script, i)
            if part is None:
                buf.append("$")
                i = nxt
            else:
                if buf:
                    parts.append((LITERAL, "".join(buf)))
                    buf = []
                parts.append(part)
                i = nxt
        elif ch == "[":
            end = _find_matching_bracket(script, i)
            if buf:
                parts.append((LITERAL, "".join(buf)))
                buf = []
            parts.append((CMDSUB, script[i + 1 : end]))
            i = end + 1
        else:
            buf.append(ch)
            i += 1
    if buf or not parts:
        parts.append((LITERAL, "".join(buf)))
    return Word(parts, pos=pos), i


class ParseCache:
    """A bounded LRU memo of ``script -> parsed commands``.

    Wafe evaluates the same callback strings over and over; caching the
    parse avoids re-tokenising on every button press.  Eviction is true
    least-recently-used (a hit refreshes recency, an insert past the
    bound drops the oldest entry), so steady-state workloads with more
    than ``maxsize`` distinct scripts degrade gracefully instead of
    losing the whole cache at once.
    """

    def __init__(self, maxsize=512):
        self._cache = LRUCache(maxsize)

    def get(self, script):
        parsed = self._cache.get(script)
        if parsed is None:
            parsed = self._cache.put(script, parse_script(script))
        return parsed

    def __len__(self):
        return len(self._cache)

    def __contains__(self, script):
        return script in self._cache

    def clear(self):
        self._cache.clear()

    def reset_stats(self):
        self._cache.reset_stats()

    def stats(self):
        return self._cache.stats()
