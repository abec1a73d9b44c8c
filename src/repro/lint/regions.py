"""Source regions: script text anchored at an absolute file position.

Both lint passes -- the rule analyzer and the control-flow graph
builder -- walk nested script arguments as slices of the original
source.  A position inside a slice composes with the slice's base, so a
diagnostic four callbacks deep still points at the right character of
the file.  These helpers recover a word's raw extent from the parser's
word positions.
"""

from repro.tcl import parser as _parser


def compose(base_line, base_col, rel_line, rel_col):
    """Absolute position of a (line, col) relative to a region base."""
    if rel_line == 1:
        return base_line, base_col + rel_col - 1
    return base_line + rel_line - 1, rel_col


def offset_of(text, line, col):
    """Inverse of :func:`repro.tcl.parser.line_col` (clamped)."""
    pos = 0
    for __ in range(line - 1):
        newline = text.find("\n", pos)
        if newline < 0:
            return len(text)
        pos = newline + 1
    return min(pos + col - 1, len(text))


class Region:
    """A piece of script text anchored at an absolute file position."""

    __slots__ = ("text", "line", "col")

    def __init__(self, text, line=1, col=1):
        self.text = text
        self.line = line
        self.col = col

    def position(self, offset):
        """Absolute (line, col) of a character offset in this region."""
        rel_line, rel_col = _parser.line_col(self.text, offset)
        return compose(self.line, self.col, rel_line, rel_col)

    def subregion(self, start, stop):
        line, col = self.position(start)
        return Region(self.text[start:stop], line, col)


def literal(word):
    """A word's value when it has no substitutions, else None."""
    return word.literal_value() if word.is_literal() else None


def word_region(region, word, next_pos):
    """The raw source region a word's content occupies.

    For braced and quoted words the delimiters are stripped; for bare
    words the word runs to ``next_pos`` (the scan position after the
    word).  Returns None for words whose raw extent cannot be recovered.
    """
    text = region.text
    pos = word.pos
    if pos >= len(text):
        return None
    ch = text[pos]
    if ch == "{":
        end = _parser._skip_braces(text, pos)
        return region.subregion(pos + 1, end - 1)
    if ch == '"':
        end = _parser._skip_quotes(text, pos)
        return region.subregion(pos + 1, end - 1)
    return region.subregion(pos, next_pos)


def word_end(text, word):
    """End offset of the last word of a command (bare words only need
    scanning to the next separator)."""
    i = word.pos
    n = len(text)
    if i < n and text[i] in "{\"":
        return n  # unused: braced/quoted handled by word_region
    while i < n and text[i] not in " \t\n;":
        if text[i] == "\\" and i + 1 < n:
            i += 2
        else:
            i += 1
    return i


def word_regions(region, parsed):
    """Raw regions for every word of a parsed command (None where a
    word's extent is ambiguous -- a conservative fallback)."""
    regions = []
    words = parsed.words
    for i, word in enumerate(words):
        if i + 1 < len(words):
            next_pos = words[i + 1].pos
        else:
            next_pos = word_end(region.text, word)
        regions.append(word_region(region, word, next_pos))
    return regions
