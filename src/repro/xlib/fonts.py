"""Core fonts: XLFD pattern matching and deterministic glyph metrics.

The server ships a synthetic font repertoire covering the names the
paper uses (``fixed`` and the ``*b&h-lucida-medium-r*14*`` /
``*b&h-lucida-bold-r*14*`` XLFD patterns of the compound-string
example).  Glyphs are deterministic 5x7 pseudo-bitmaps derived from the
character code, so rendering the same string always paints the same
pixels and different strings paint different pixels -- enough for the
test suite to verify real drawing without shipping font files.
"""

from repro.tcl.errors import TclError


class FontError(TclError):
    """Raised when no font matches a pattern."""


_FAMILIES = [
    # (foundry, family, weights, slants)
    ("misc", "fixed", ("medium", "bold"), ("r",)),
    ("b&h", "lucida", ("medium", "bold"), ("r", "i")),
    ("b&h", "lucidatypewriter", ("medium", "bold"), ("r",)),
    ("adobe", "helvetica", ("medium", "bold"), ("r", "o")),
    ("adobe", "times", ("medium", "bold"), ("r", "i")),
    ("adobe", "courier", ("medium", "bold"), ("r", "o")),
]

_SIZES = (8, 10, 12, 14, 18, 24)

_ALIASES = {
    "fixed": "-misc-fixed-medium-r-normal--13-120-75-75-c-70-iso8859-1",
    "6x13": "-misc-fixed-medium-r-normal--13-120-75-75-c-70-iso8859-1",
    "9x15": "-misc-fixed-medium-r-normal--14-140-75-75-c-90-iso8859-1",
    "variable": "-adobe-helvetica-medium-r-normal--12-120-75-75-p-67-iso8859-1",
}


def _xlfd(foundry, family, weight, slant, size):
    return "-%s-%s-%s-%s-normal--%d-%d-75-75-%s-%d-iso8859-1" % (
        foundry,
        family,
        weight,
        slant,
        size,
        size * 10,
        "c" if family in ("fixed", "courier", "lucidatypewriter") else "p",
        size * 6,
    )


def _all_font_names():
    names = []
    for foundry, family, weights, slants in _FAMILIES:
        for weight in weights:
            for slant in slants:
                for size in _SIZES:
                    names.append(_xlfd(foundry, family, weight, slant, size))
    return names

_FONT_NAMES = _all_font_names()


def _pattern_match(pattern, name):
    """XLFD-ish glob: ``*`` matches any run, ``?`` one char."""
    pattern = pattern.lower()
    name = name.lower()
    return _glob(pattern, 0, name, 0)


def _glob(pat, pi, text, ti):
    np, nt = len(pat), len(text)
    while pi < np:
        ch = pat[pi]
        if ch == "*":
            while pi < np and pat[pi] == "*":
                pi += 1
            if pi == np:
                return True
            for start in range(ti, nt + 1):
                if _glob(pat, pi, text, start):
                    return True
            return False
        if ti >= nt:
            return False
        if ch == "?" or ch == text[ti]:
            pi += 1
            ti += 1
            continue
        return False
    return ti == nt


class Font:
    """A loaded font: metrics plus deterministic glyph bitmaps."""

    __slots__ = ("name", "family", "weight", "slant", "size", "ascent",
                 "descent", "monospace")

    def __init__(self, name):
        self.name = name
        fields = name.split("-")
        # XLFD: ['', foundry, family, weight, slant, setwidth, style,
        #        pixel, point, resx, resy, spacing, avg, charset, enc]
        self.family = fields[2] if len(fields) > 2 else "fixed"
        self.weight = fields[3] if len(fields) > 3 else "medium"
        self.slant = fields[4] if len(fields) > 4 else "r"
        try:
            self.size = int(fields[7])
        except (IndexError, ValueError):
            self.size = 13
        self.ascent = (self.size * 4 + 2) // 5
        self.descent = self.size - self.ascent
        self.monospace = self.family in ("fixed", "courier", "lucidatypewriter")

    @property
    def height(self):
        return self.ascent + self.descent

    def char_width(self, ch):
        base = max(4, (self.size * 3) // 5)
        if self.monospace:
            width = base
        else:
            # Proportional: narrow chars narrower, wide chars wider.
            code = ord(ch) if ch else 32
            if ch in "iljI.,:;'|!":
                width = max(2, base // 2)
            elif ch in "mwMW@":
                width = base + base // 2
            else:
                width = base + (code % 3) - 1
        if self.weight == "bold":
            width += 1
        return max(2, width)

    def text_width(self, text):
        return sum(self.char_width(ch) for ch in text)

    @property
    def glyph_scale(self):
        """(x, y) pixels per glyph bit."""
        return max(1, self.size // 10), max(1, self.height // 8)

    def ink_width(self, text):
        """How far right of its origin ``text`` can paint: each glyph's
        5-bit-wide cell starts at its cursor, so a glyph narrower than
        its cell (``i``, ``.``) inks past its advance."""
        if not text:
            return 0
        return self.text_width(text[:-1]) + 5 * self.glyph_scale[0]

    def glyph_bits(self, ch):
        """A deterministic 5x7 bit pattern for ``ch`` (list of 7 rows).

        Derived from a multiplicative hash of the character code so the
        pattern is stable across runs, nonzero for printable characters,
        and distinct between most character pairs.
        """
        code = ord(ch)
        if code <= 32:
            return [0] * 7
        seed = (code * 2654435761) & 0xFFFFFFFF
        rows = []
        for row in range(7):
            rows.append((seed >> (row * 4)) & 0x1F or 0x04)
        return rows

    def __repr__(self):  # pragma: no cover
        return "Font(%r)" % self.name


_loaded = {}


def list_fonts(pattern="*", max_names=200):
    """``XListFonts``: all font names matching a pattern."""
    hits = [n for n in _FONT_NAMES if _pattern_match(pattern, n)]
    for alias in _ALIASES:
        if _pattern_match(pattern, alias):
            hits.append(alias)
    return hits[:max_names]


def load_font(pattern):
    """``XLoadQueryFont``: first matching font, else FontError."""
    key = pattern.strip()
    cached = _loaded.get(key)
    if cached is not None:
        return cached
    name = _ALIASES.get(key.lower())
    if name is None:
        if _pattern_match(key, key) and key in _FONT_NAMES:
            name = key
        else:
            matches = [n for n in _FONT_NAMES if _pattern_match(key, n)]
            if not matches:
                raise FontError('unable to load font "%s"' % pattern)
            name = matches[0]
    font = Font(name)
    _loaded[key] = font
    return font


DEFAULT_FONT_NAME = "fixed"


def default_font():
    return load_font(DEFAULT_FONT_NAME)
