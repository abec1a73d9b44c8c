"""Resource converters: String -> typed value, and back for GetValues.

Converters are the Intrinsics extension point the paper leans on: Wafe
registers its Callback, Pixmap and XmString converters through exactly
this registry (``XtAppAddConverter`` in C).  Every converter takes the
widget (for context: display, font defaults) and the string; reverse
converters render a stored value back to a string for ``getValues``.
"""

from repro.tcl.errors import TclError
from repro.xlib import colors as _colors
from repro.xlib import fonts as _fonts
from repro.xt import resources as R
from repro.xt.translations import TranslationTable, parse_translation_table

#: Converted values of exactly these types are immutable, so one
#: conversion may be shared by every widget that resolves the same
#: string (the ``XtCallConverter`` cache, see repro.xt.widget).
#: Anything else a converter returns -- callback lists, pixmaps, objects
#: a Wafe or Motif converter builds -- is converted afresh per widget.
SHAREABLE_TYPES = frozenset((int, float, bool, str, type(None),
                             _fonts.Font, TranslationTable))


def shareable(value):
    return type(value) in SHAREABLE_TYPES


class ConversionError(TclError):
    """A resource value failed to convert."""


class ConverterRegistry:
    """String->type converters plus type->string reverse converters."""

    def __init__(self):
        self._to = {}
        self._back = {}
        # Bumped by every registration: memoised conversions (widget
        # creation records) key on it, so they never outlive the
        # converter that made them.
        self.generation = 0
        register_standard_converters(self)

    def register(self, type_name, func, reverse=None):
        """Register ``func(widget, value) -> converted`` for a type."""
        self._to[type_name] = func
        if reverse is not None:
            self._back[type_name] = reverse
        self.generation += 1

    def has(self, type_name):
        return type_name in self._to

    def convert(self, widget, type_name, value):
        if not isinstance(value, str):
            return value  # already typed (programmatic SetValues)
        func = self._to.get(type_name)
        if func is None:
            return value  # String-ish resource: keep as is
        return func(widget, value)

    def unconvert(self, widget, type_name, value):
        func = self._back.get(type_name)
        if func is None:
            if value is None:
                return ""
            if isinstance(value, bool):
                return "True" if value else "False"
            return str(value)
        return func(widget, value)


def _to_int(widget, value):
    try:
        return int(value.strip(), 0)
    except ValueError:
        raise ConversionError('cannot convert "%s" to Int' % value)


def _to_dimension(widget, value):
    number = _to_int(widget, value)
    if number < 0:
        raise ConversionError('cannot convert "%s" to Dimension' % value)
    return number


def _to_boolean(widget, value):
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConversionError('cannot convert "%s" to Boolean' % value)


def _to_pixel(widget, value):
    value = value.strip()
    if value.lower() == "xtdefaultforeground":
        return _colors.BLACK_PIXEL
    if value.lower() == "xtdefaultbackground":
        return _colors.WHITE_PIXEL
    try:
        return _colors.alloc_color(value)
    except _colors.ColorError as err:
        raise ConversionError(str(err))


def _pixel_to_string(widget, value):
    return "#%06X" % (int(value) & 0xFFFFFF)


def _to_font(widget, value):
    value = value.strip()
    if value.lower() == "xtdefaultfont":
        return _fonts.default_font()
    try:
        return _fonts.load_font(value)
    except _fonts.FontError as err:
        raise ConversionError(str(err))


def _font_to_string(widget, value):
    return value.name if isinstance(value, _fonts.Font) else str(value)


def _to_justify(widget, value):
    lowered = value.strip().lower()
    if lowered in ("left", "center", "right"):
        return lowered
    raise ConversionError('cannot convert "%s" to Justify' % value)


def _to_orientation(widget, value):
    lowered = value.strip().lower()
    if lowered in ("horizontal", "vertical"):
        return lowered
    raise ConversionError('cannot convert "%s" to Orientation' % value)


def _to_edit_mode(widget, value):
    lowered = value.strip().lower()
    mapping = {"read": "read", "edit": "edit", "append": "append",
               "textread": "read", "textedit": "edit",
               "textappend": "append"}
    if lowered in mapping:
        return mapping[lowered]
    raise ConversionError('cannot convert "%s" to EditMode' % value)


def _to_translations(widget, value):
    return parse_translation_table(value)


def _translations_to_string(widget, value):
    return getattr(value, "source", str(value))


def _to_bitmap(widget, value):
    """The extended String-to-Bitmap converter: XBM first, then XPM."""
    from repro.xlib.xpm import read_image_file, ImageFormatError

    try:
        image, _kind = read_image_file(value.strip())
    except ImageFormatError as err:
        raise ConversionError(str(err))
    return image


def _to_float(widget, value):
    try:
        return float(value.strip())
    except ValueError:
        raise ConversionError('cannot convert "%s" to Float' % value)


def register_standard_converters(registry):
    registry.register(R.R_INT, _to_int)
    registry.register(R.R_POSITION, _to_int)
    registry.register(R.R_DIMENSION, _to_dimension)
    registry.register(R.R_BOOLEAN, _to_boolean)
    registry.register(R.R_PIXEL, _to_pixel, _pixel_to_string)
    registry.register(R.R_FONT, _to_font, _font_to_string)
    registry.register(R.R_JUSTIFY, _to_justify)
    registry.register(R.R_ORIENTATION, _to_orientation)
    registry.register(R.R_EDIT_MODE, _to_edit_mode)
    registry.register(R.R_TRANSLATIONS, _to_translations,
                      _translations_to_string)
    registry.register(R.R_ACCELERATORS, _to_translations,
                      _translations_to_string)
    registry.register(R.R_PIXMAP, _to_bitmap, lambda w, v: "<pixmap>")
    registry.register(R.R_BITMAP, _to_bitmap, lambda w, v: "<bitmap>")
    registry.register(R.R_FLOAT, _to_float)
