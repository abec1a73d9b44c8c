"""XmString compound strings and font lists (the paper's Figure 3).

A Motif compound string is text segmented by *font tags* and *writing
direction*.  Wafe's converter accepts a TeX-like inline syntax -- the
paper's example::

    fontList "*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft"
    labelString "I'm\\bft bold\\ft and\\rl strange"

``\\tag`` switches to the font registered under ``tag`` in the
fontList; ``\\rl`` / ``\\lr`` switch the writing direction (the
right-to-left segment is what makes Figure 3 "strange").

Note on quoting: in a Tcl script the value should be brace-quoted
(``{I'm\\bft bold...}``) so Tcl's own backslash processing does not eat
the layout commands; the paper's double-quoted rendering predates Tcl's
``\\b`` escape being an issue in practice.
"""

from repro.tcl.errors import TclError
from repro.xlib import fonts as _fonts

ESCAPE = "\\"
LEFT_TO_RIGHT = "lr"
RIGHT_TO_LEFT = "rl"


class FontListError(TclError):
    """A fontList specification failed to parse."""


class FontList:
    """Ordered mapping of tag -> Font; the first entry is the default."""

    def __init__(self, entries):
        if not entries:
            raise FontListError("empty font list")
        self.entries = entries  # list of (tag, Font)
        self._by_tag = dict(entries)
        self.default_tag = entries[0][0]

    def font(self, tag):
        return self._by_tag.get(tag)

    def tags(self):
        return [tag for tag, __ in self.entries]

    @property
    def source(self):
        return ",".join("%s=%s" % (font.name, tag)
                        for tag, font in self.entries)


def parse_font_list(spec):
    """Parse ``pattern=tag,pattern=tag,...`` into a :class:`FontList`.

    A pattern without ``=tag`` gets Motif's default tag.
    """
    entries = []
    for i, chunk in enumerate(spec.split(",")):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" in chunk:
            pattern, tag = chunk.rsplit("=", 1)
            tag = tag.strip()
        else:
            pattern, tag = chunk, "FONTLIST_DEFAULT_TAG" if i else \
                "FONTLIST_DEFAULT_TAG"
        try:
            font = _fonts.load_font(pattern.strip())
        except _fonts.FontError as err:
            raise FontListError(str(err))
        entries.append((tag, font))
    return FontList(entries)


class Segment:
    """One run of text in a single font and direction."""

    __slots__ = ("text", "tag", "direction")

    def __init__(self, text, tag, direction):
        self.text = text
        self.tag = tag
        self.direction = direction

    def __repr__(self):  # pragma: no cover
        return "Segment(%r, tag=%r, dir=%s)" % (self.text, self.tag,
                                                self.direction)

    def __eq__(self, other):
        return (isinstance(other, Segment) and self.text == other.text
                and self.tag == other.tag
                and self.direction == other.direction)


class XmString:
    """A parsed compound string: a list of :class:`Segment`."""

    def __init__(self, segments, source=""):
        self.segments = segments
        self.source = source

    def plain_text(self):
        return "".join(s.text for s in self.segments)

    def __len__(self):
        return len(self.segments)

    def width(self, font_list):
        total = 0
        for segment in self.segments:
            font = font_list.font(segment.tag) or _fonts.default_font()
            total += font.text_width(segment.text)
        return total

    def height(self, font_list):
        best = 0
        for segment in self.segments:
            font = font_list.font(segment.tag) or _fonts.default_font()
            best = max(best, font.height)
        return best or _fonts.default_font().height


def parse_xmstring(text, font_list=None, escape=ESCAPE):
    """Parse the inline compound-string syntax into an :class:`XmString`.

    ``escape`` + *tag* switches fonts (tags come from ``font_list``);
    ``escape`` + ``rl``/``lr`` switches direction.  An escape sequence
    that names no known tag or direction is kept literally.
    """
    known_tags = set(font_list.tags()) if font_list is not None else set()
    segments = []
    buf = []
    tag = font_list.default_tag if font_list is not None else None
    direction = LEFT_TO_RIGHT

    def flush():
        if buf:
            segments.append(Segment("".join(buf), tag, direction))
            del buf[:]

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != escape:
            buf.append(ch)
            i += 1
            continue
        # Longest alphanumeric run after the escape character.
        j = i + 1
        while j < n and (text[j].isalnum() or text[j] == "_"):
            j += 1
        word = text[i + 1 : j]
        # Prefer the longest prefix of the word that is a known tag
        # (so "\bft bold" parses as tag bft + " bold").
        matched = None
        for end in range(len(word), 0, -1):
            candidate = word[:end]
            if candidate in known_tags or candidate in (RIGHT_TO_LEFT,
                                                        LEFT_TO_RIGHT):
                matched = candidate
                break
        if matched is None:
            buf.append(ch)
            i += 1
            continue
        flush()
        if matched in (RIGHT_TO_LEFT, LEFT_TO_RIGHT):
            direction = matched
        else:
            tag = matched
        i = i + 1 + len(matched)
    flush()
    if not segments:
        segments.append(Segment("", tag, direction))
    return XmString(segments, source=text)


def draw_xmstring(drawable, font_list, xmstring, x, y, foreground,
                  background=0xFFFFFF):
    """Render a compound string; returns the total advance in pixels.

    Right-to-left segments are drawn with reversed glyph order,
    simulating Motif's bidirectional output (the visual effect the
    paper's Figure 3 shows).
    """
    from repro.xlib import graphics as gfx

    cursor = x
    for segment in xmstring.segments:
        font = font_list.font(segment.tag) or _fonts.default_font()
        gc = gfx.GC(foreground=foreground, background=background, font=font)
        text = segment.text
        if segment.direction == RIGHT_TO_LEFT:
            text = text[::-1]
        cursor += gfx.draw_string(drawable, gc, cursor, y, text)
    return cursor - x
